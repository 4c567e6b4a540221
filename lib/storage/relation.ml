(* An in-memory materialized relation: a schema of qualified column
   names over exactly one stored representation, chosen when it is
   built — rows ([make]), columns ([of_cols], one [Column.t] per
   attribute, see column.ml) or a pager over disk segments ([paged]).

   The reference interpreter builds and consumes its intermediates as
   rows; the vectorized engine reads stored base tables and builds its
   results as columns. Asking a relation for the representation it
   does not hold builds that view on each call, uncached: [Database.add]
   stores columns only, so the row views the reference engine, geodsl
   and result printing ask for are transient garbage, never a second
   resident copy of a stored table. *)

open Relalg

(* --- attribute resolution ---------------------------------------

   Column positions are resolved through a precomputed index: one
   hashtable keyed by the full qualified attribute (last occurrence
   wins, like the historical linear scan), and one keyed by the bare
   column name holding the position iff that name is unique in the
   schema. Resolution rule (unchanged): exact match first, then a
   unique match on the bare column name. *)

type resolver = {
  by_attr : (Attr.t, int) Hashtbl.t;
  by_name : (string, int option) Hashtbl.t;
      (* [Some i] = unique bare name at [i]; [None] = ambiguous *)
}

let resolver (schema : Attr.t list) : resolver =
  let n = List.length schema in
  let by_attr = Hashtbl.create (max 8 n) in
  let by_name = Hashtbl.create (max 8 n) in
  List.iteri
    (fun i a ->
      Hashtbl.replace by_attr a i;
      (match Hashtbl.find_opt by_name a.Attr.name with
      | None -> Hashtbl.replace by_name a.Attr.name (Some i)
      | Some _ -> Hashtbl.replace by_name a.Attr.name None))
    schema;
  { by_attr; by_name }

let resolve r (a : Attr.t) : int option =
  match Hashtbl.find_opt r.by_attr a with
  | Some _ as hit -> hit
  | None -> (
    match Hashtbl.find_opt r.by_name a.Attr.name with
    | Some (Some _ as hit) ->
      (* the unique bare-name position; never an exact duplicate of
         [a], or [by_attr] would have hit *)
      hit
    | Some None | None -> None)

let lookup_of_schema schema : Attr.t -> Value.t array -> Value.t =
  let r = resolver schema in
  fun a row ->
    match resolve r a with
    | Some ix when ix < Array.length row -> row.(ix)
    | Some _ | None -> Value.Null

type repr =
  | Rows of Value.t array array
  | Cols of Column.t array
  | Paged of (unit -> Column.t array)
      (* [load ()] pages the full column set in from disk on every
         access — the out-of-core contract (the resident working set
         stays the operator's output, not the base table). *)

type t = {
  schema : Attr.t list;
  width : int;
  card : int;
  repr : repr;
  mutable index_v : resolver option;
      (* built on first lookup; relations that never resolve names pay
         nothing. A benign race under domains: the resolver is a pure
         function of the immutable schema, so concurrent fills compute
         equal content (option-pointer writes are atomic in the OCaml
         memory model). Deliberately NOT Lazy.t — forcing a Lazy from
         two domains at once raises Lazy.Undefined. *)
}

let make ~schema ~rows =
  let n = List.length schema in
  Array.iter
    (fun r ->
      if Array.length r <> n then invalid_arg "Relation.make: row arity mismatch")
    rows;
  { schema; width = n; card = Array.length rows; repr = Rows rows; index_v = None }

let of_cols ~schema ~card cols =
  let n = List.length schema in
  if Array.length cols <> n then invalid_arg "Relation.of_cols: column arity mismatch";
  Array.iter
    (fun c ->
      if Column.length c <> card then
        invalid_arg "Relation.of_cols: column cardinality mismatch")
    cols;
  { schema; width = n; card; repr = Cols cols; index_v = None }

let paged ~schema ~card ~load =
  { schema; width = List.length schema; card; repr = Paged load; index_v = None }

let is_paged t = match t.repr with Paged _ -> true | Rows _ | Cols _ -> false

let empty ~schema = make ~schema ~rows:[||]
let schema t = t.schema
let cardinality t = t.card

let rows_of_cols t cols =
  Array.init t.card (fun i -> Array.init t.width (fun j -> Column.get cols.(j) i))

let cols_of_rows t rows =
  Array.init t.width (fun j -> Column.of_values (Array.init t.card (fun i -> rows.(i).(j))))

(* The row view: the stored rows, or a fresh boxed copy of the columns
   on every call. Callers must not mutate the result. *)
let rows t =
  match t.repr with
  | Rows rows -> rows
  | Cols cols -> rows_of_cols t cols
  | Paged load -> rows_of_cols t (load ())

(* The column view: the stored columns, or freshly built from the rows
   (or paged in from disk) on every call. *)
let cols t =
  match t.repr with
  | Cols cols -> cols
  | Rows rows -> cols_of_rows t rows
  | Paged load -> load ()

let columnar t =
  match t.repr with
  | Rows rows -> { t with repr = Cols (cols_of_rows t rows) }
  | Cols _ | Paged _ -> t

let index t =
  match t.index_v with
  | Some r -> r
  | None ->
    let r = resolver t.schema in
    t.index_v <- Some r;
    r

(* Index of an attribute in the schema: exact match first, then a
   unique match on the bare column name. *)
let find_index t (a : Attr.t) : int option = resolve (index t) a

let lookup_fn t : Attr.t -> Value.t array -> Value.t =
  let r = index t in
  fun a row ->
    match resolve r a with
    | Some ix when ix < Array.length row -> row.(ix)
    | Some _ | None -> Value.Null

(* Total serialized size in bytes (what a SHIP of this relation moves):
   [Value.byte_width] summed over every cell, whichever the layout. *)
let byte_size t =
  match t.repr with
  | Rows rows ->
    Array.fold_left
      (fun acc row -> Array.fold_left (fun acc v -> acc + Value.byte_width v) acc row)
      0 rows
  | Cols _ | Paged _ ->
    Array.fold_left (fun acc c -> acc + Column.byte_size c) 0 (cols t)

(* Order rows by the given (attribute, descending) keys. Key positions
   are resolved once; unknown attributes read as NULL for every row. *)
let order_by t (keys : (Attr.t * bool) list) =
  let kix =
    List.map (fun (a, desc) -> ((match find_index t a with Some i -> i | None -> -1), desc)) keys
  in
  let get ix (row : Value.t array) =
    if ix >= 0 && ix < Array.length row then row.(ix) else Value.Null
  in
  let cmp r1 r2 =
    let rec go = function
      | [] -> 0
      | (ix, desc) :: rest ->
        let c = Value.compare (get ix r1) (get ix r2) in
        if c <> 0 then if desc then -c else c else go rest
    in
    go kix
  in
  let rows = Array.copy (rows t) in
  Array.stable_sort cmp rows;
  make ~schema:t.schema ~rows

(* First [n] rows, in the relation's own layout. *)
let take t n =
  if cardinality t <= n then t
  else
    match t.repr with
    | Rows rows -> make ~schema:t.schema ~rows:(Array.sub rows 0 n)
    | Cols _ | Paged _ ->
      let ixs = Array.init n Fun.id in
      of_cols ~schema:t.schema ~card:n (Array.map (fun c -> Column.gather c ixs) (cols t))

let pp ?(max_rows = 20) ppf t =
  Fmt.pf ppf "%a@." Fmt.(list ~sep:(any " | ") Attr.pp) t.schema;
  Array.iter
    (fun row -> Fmt.pf ppf "%a@." Fmt.(array ~sep:(any " | ") Value.pp) row)
    (rows (take t (max 0 max_rows)));
  if cardinality t > max_rows then Fmt.pf ppf "... (%d rows)@." (cardinality t)

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (String.concat "," (List.map Attr.to_string t.schema));
  Buffer.add_char buf '\n';
  Array.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat ","
           (Array.to_list (Array.map Value.to_string row)));
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf
