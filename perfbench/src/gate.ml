(* The output-correctness gate. Every check returns the problems it
   found; a run with any problem reports [correct: false].

   - Compliance: the executed plan re-certifies with
     [Optimizer.Checker.certify], and every SHIP the executor performed
     is a SHIP edge of that certified plan.
   - Reference answers: the same SQL, optimized independently by the
     purely cost-based optimizer ([Traditional]) with every shipment
     allowed, run on the reference interpreter ([Exec.Interp]); rows
     compared as multisets, floats within a relative tolerance. *)

type item = {
  sql : string;
  policies : Policy.Pcatalog.t;
  plan : Exec.Pplan.t;
  relation : Storage.Relation.t;
  ships : Exec.Interp.ship_record list;
}

let compliance ~cat (it : item) =
  let problems = ref [] in
  (match Optimizer.Checker.certify ~cat ~policies:it.policies it.plan with
  | [] -> ()
  | vs ->
    problems :=
      Printf.sprintf "plan does not re-certify (%d violations): %s" (List.length vs)
        (Fmt.str "%a" Optimizer.Checker.pp_violation (List.hd vs))
      :: !problems);
  let edges = List.map (fun (a, b, _) -> (a, b)) (Exec.Pplan.ships it.plan) in
  List.iter
    (fun (s : Exec.Interp.ship_record) ->
      if not (List.mem (s.Exec.Interp.from_loc, s.Exec.Interp.to_loc) edges) then
        problems :=
          Printf.sprintf "executed SHIP %s -> %s is not an edge of the certified plan"
            s.Exec.Interp.from_loc s.Exec.Interp.to_loc
          :: !problems)
    it.ships;
  List.rev_map (fun p -> Printf.sprintf "%s [%s]" p it.sql) !problems

let rel_tol = 1e-9

let num = function
  | Relalg.Value.Int i -> Some (float_of_int i)
  | Relalg.Value.Float f -> Some f
  | _ -> None

let value_close a b =
  match (num a, num b) with
  | Some x, Some y ->
    Float.equal x y
    || Float.abs (x -. y) <= rel_tol *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))
  | _ -> Relalg.Value.equal a b

(* Sort key: floats rounded well above the tolerance, so rows that are
   equal within it sort alike. *)
let row_key row =
  String.concat "\x1f"
    (Array.to_list
       (Array.map
          (function
            | Relalg.Value.Float f -> Printf.sprintf "%.6g" f
            | v -> Relalg.Value.to_string v)
          row))

let same_multiset a b =
  let sort rel =
    let rows = Array.copy (Storage.Relation.rows rel) in
    let keyed = Array.map (fun r -> (row_key r, r)) rows in
    Array.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) keyed;
    Array.map snd keyed
  in
  let ra = sort a and rb = sort b in
  if Array.length ra <> Array.length rb then
    Some (Printf.sprintf "%d rows, reference has %d" (Array.length ra) (Array.length rb))
  else
    let bad = ref None in
    Array.iteri
      (fun i r ->
        let s = rb.(i) in
        if !bad = None then
          if Array.length r <> Array.length s then bad := Some "row widths differ"
          else
            Array.iteri
              (fun j v ->
                if !bad = None && not (value_close v s.(j)) then
                  bad :=
                    Some
                      (Printf.sprintf "row %d column %d: %s, reference %s" i j
                         (Relalg.Value.to_string v) (Relalg.Value.to_string s.(j))))
              r)
      ra;
    !bad

type reference = {
  cat : Catalog.t;
  db : Storage.Database.t;
  unrestricted : Policy.Pcatalog.t;
  answers : (string, (Storage.Relation.t, string) result) Hashtbl.t;
}

let reference ~cat ~db =
  {
    cat;
    db;
    unrestricted = Policy.Pcatalog.of_texts cat Tpch.Policies.unrestricted;
    answers = Hashtbl.create 64;
  }

let reference_answer r sql =
  match Hashtbl.find_opt r.answers sql with
  | Some a -> a
  | None ->
    let a =
      match
        Optimizer.Planner.optimize_sql ~mode:Optimizer.Memo.Traditional ~cat:r.cat
          ~policies:r.unrestricted sql
      with
      | Optimizer.Planner.Rejected m -> Error ("reference optimizer rejected: " ^ m)
      | Optimizer.Planner.Planned p ->
        let res =
          Exec.Interp.run ~budget:Exec.Runtime.unlimited_budget
            ~network:(Catalog.network r.cat) ~db:r.db
            ~table_cols:(Catalog.table_cols r.cat) p.Optimizer.Planner.plan
        in
        Ok res.Exec.Interp.relation
    in
    Hashtbl.replace r.answers sql a;
    a

let answers r (it : item) =
  match reference_answer r it.sql with
  | Error m -> [ Printf.sprintf "%s [%s]" m it.sql ]
  | Ok expected -> (
    match same_multiset it.relation expected with
    | None -> []
    | Some m -> [ Printf.sprintf "answer differs from the reference: %s [%s]" m it.sql ])

let check ~cat r items = List.concat_map (fun it -> compliance ~cat it @ answers r it) items
