(* Per-run scratch directories inside the benchmark's working directory
   (segment files, spill run files, span dumps). Removed on every exit
   path: normal return, a failed correctness gate and an exception. *)

let root = "_perfbench"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let fresh ?(parent = root) prefix =
  ensure_dir parent;
  let rec go i =
    let d = Filename.concat parent (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) i) in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

(* [with_dir prefix f] runs [f dir] on a fresh directory and removes it
   however [f] exits. The system temp dir points into it meanwhile, so
   the executor's spill files land there too. *)
let with_dir prefix f =
  let dir = fresh prefix in
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name dir;
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      rm_rf dir)
    (fun () -> f dir)
