(* Wall-clock spans recorded by the benchmark around its calls into each
   layer. Kept in memory and written out when the run ends.

   A span's self time is its duration minus the part of it that its
   child spans cover; stages are leaves, so their self time is their
   duration, and a statement span's self time is the glue between its
   stages. *)

type t = {
  id : int;
  name : string;
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
  parent : int;  (** -1 for a root *)
  stmt : int;
}

let now = Unix.gettimeofday
let buf : t list ref = ref []
let next_id = ref 0
let current_parent = ref (-1)
let current_stmt = ref (-1)

let reset () =
  buf := [];
  next_id := 0;
  current_parent := -1;
  current_stmt := -1

let record name f =
  let id = !next_id in
  incr next_id;
  let parent = !current_parent in
  current_parent := id;
  let start = now () in
  let finish () =
    let stop = now () in
    current_parent := parent;
    buf := { id; name; start; stop; parent; stmt = !current_stmt } :: !buf
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let statement stmt f =
  current_stmt := stmt;
  Fun.protect ~finally:(fun () -> current_stmt := -1) (fun () -> record "statement" f)

let all () = List.rev !buf

(* Self time per span name, in seconds. *)
let self_times spans =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.stop -. s.start)
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        (s.stop -. s.start) -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    spans;
  self

let total name spans =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. (s.stop -. s.start) else acc)
    0. spans

let to_json s =
  Obs.Json.(
    Obj
      [
        ("id", Num (float_of_int s.id));
        ("name", Str s.name);
        ("start_us", Num (Float.round (s.start *. 1e6)));
        ("end_us", Num (Float.round (s.stop *. 1e6)));
        ("parent", Num (float_of_int s.parent));
        ("stmt", Num (float_of_int s.stmt));
      ])

let write_jsonl file spans =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (Obs.Json.to_string (to_json s));
          output_char oc '\n')
        spans)
