(* Physical storage: maps (table, partition index) to a materialized
   relation. Partition 0 is the sole partition of unpartitioned
   tables. *)

module Key = struct
  type t = string * int

  let compare = Stdlib.compare
end

module Key_map = Map.Make (Key)

type t = { mutable store : Relation.t Key_map.t }

let create () = { store = Key_map.empty }

let add t ~table ?(partition = 0) rel =
  (* Stored base tables are the vectorized engine's scan inputs: store
     them column-major only, converted once at load time, so no query
     pays the conversion and no boxed row copy stays resident. *)
  t.store <-
    Key_map.add (String.lowercase_ascii table, partition) (Relation.columnar rel) t.store

let find t ~table ?(partition = 0) () =
  Key_map.find_opt (String.lowercase_ascii table, partition) t.store

let find_exn t ~table ?(partition = 0) () =
  match find t ~table ~partition () with
  | Some r -> r
  | None ->
    invalid_arg (Printf.sprintf "Database: no relation for %s[%d]" table partition)

let tables t =
  Key_map.bindings t.store |> List.map fst

let total_rows t =
  Key_map.fold (fun _ r acc -> acc + Relation.cardinality r) t.store 0

(* Persist every stored relation as column segments under
   [dir/<table>_<partition>/] and return a database of paged relations
   over them — the out-of-core twin of [t]. *)
let paged t ~dir =
  let out = create () in
  Key_map.iter
    (fun (table, partition) rel ->
      let d = Filename.concat dir (Printf.sprintf "%s_%d" table partition) in
      Segment.write ~dir:d rel;
      add out ~table ~partition (Segment.relation (Segment.openh ~dir:d)))
    t.store;
  out
