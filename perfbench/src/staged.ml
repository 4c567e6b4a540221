(* The statement pipeline of [Cgqp.run], one public layer function at a
   time, so that the traced run can time each layer from the outside:

     Sqlfront.Parser.query, Sqlfront.Binder.bind_query
     Optimizer.Normalize.normalize
     Optimizer.Memo.create + ingest, Optimizer.Memo.extract
     Optimizer.Site_selector.select, Optimizer.Checker.certify
     Exec.Engine.run

   [stage name f] wraps each call ([Span.record] when tracing, plain
   application otherwise). The traced run asserts, statement by
   statement, that this path produces the plan and result digests of
   [Cgqp.run], so it measures the same program. *)

type stage = { stage : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { stage = (fun _ f -> f ()) }
let traced = { stage = Span.record }

let table_cols_opt cat t =
  match Catalog.find_table cat t with
  | Some e -> Some (Catalog.Table_def.col_names e.Catalog.def)
  | None -> None

let parse_bind st cat sql =
  st.stage "sqlfront.parse_bind" (fun () ->
      match Sqlfront.Parser.query sql with
      | exception Sqlfront.Parser.Error m -> Error ("parse error: " ^ m)
      | ast -> (
        match Sqlfront.Binder.bind_query ~table_cols:(table_cols_opt cat) ast with
        | plan -> Ok (plan, ast.Sqlfront.Ast.order_by, ast.Sqlfront.Ast.limit)
        | exception Sqlfront.Binder.Error m -> Error ("bind error: " ^ m)))

(* Optimizer work summed over every [optimize] call (cache hits do not
   optimize, so they add nothing). *)
type totals = { eta : int; tests : int; groups : int; pruned : int }

let zero = { eta = 0; tests = 0; groups = 0; pruned = 0 }
let acc = ref zero
let snapshot () = !acc

let totals_into tbl ~stmts t0 t1 =
  let per f = float_of_int (f t1 - f t0) /. float_of_int (max 1 stmts) in
  Hashtbl.replace tbl "policy.eta_per_stmt" (per (fun t -> t.eta));
  Hashtbl.replace tbl "policy.implication_tests_per_stmt" (per (fun t -> t.tests));
  Hashtbl.replace tbl "optimizer.memo_groups_per_stmt" (per (fun t -> t.groups));
  Hashtbl.replace tbl "optimizer.pruned_per_stmt" (per (fun t -> t.pruned))

(* [Optimizer.Planner.optimize], stage by stage. *)
let optimize st ~cat ~policies ~order_by lplan : Optimizer.Planner.outcome =
  let open Optimizer in
  let nplan =
    st.stage "optimizer.normalize" (fun () ->
        Normalize.normalize ~table_cols:(Catalog.table_cols cat) lplan)
  in
  let eval_stats = Policy.Evaluator.fresh_stats () in
  let m, gid =
    st.stage "optimizer.phase1_ingest" (fun () ->
        let m = Memo.create ~eval_stats ~mode:Memo.Compliant ~cat ~policies () in
        (m, Memo.ingest m nplan))
  in
  match
    st.stage "optimizer.phase1_extract" (fun () -> Memo.extract ~required_order:order_by m gid)
  with
  | None -> Planner.Rejected "no compliant execution plan exists in the explored space"
  | Some (anode, phase1_cost) -> (
    match
      st.stage "optimizer.phase2_place" (fun () ->
          Site_selector.select ~network:(Catalog.network cat) anode)
    with
    | None -> Planner.Rejected "site selection found no feasible placement"
    | Some { Site_selector.plan; cost } ->
      let violations =
        st.stage "optimizer.certify" (fun () -> Checker.certify ~cat ~policies plan)
      in
      let ps = Memo.prune_stats m in
      let t = !acc in
      acc :=
        {
          eta = t.eta + eval_stats.Policy.Evaluator.eta;
          tests = t.tests + eval_stats.Policy.Evaluator.implication_tests;
          groups = t.groups + Memo.group_count m;
          pruned = t.pruned + ps.Memo.groups_pruned + ps.Memo.entries_pruned + ps.Memo.combos_pruned;
        };
      Planner.Planned
        {
          Planner.plan;
          annotated = anode;
          phase1_cost;
          ship_cost = cost;
          groups = Memo.group_count m;
          eval_stats;
          prune_stats = ps;
          violations;
        })

let execute st ~session ~db ~limit plan =
  let cat = Cgqp.catalog session in
  let interp =
    st.stage "exec.run" (fun () ->
        Exec.Engine.run ~engine:(Cgqp.engine session) ?budget:(Cgqp.mem_budget session)
          ~faults:(Cgqp.faults session) ~retry:(Cgqp.retry session)
          ~network:(Catalog.network cat) ~db ~table_cols:(Catalog.table_cols cat) plan)
  in
  let relation =
    match limit with
    | None -> interp.Exec.Interp.relation
    | Some n -> Storage.Relation.take interp.Exec.Interp.relation n
  in
  (interp, relation)

type outcome = {
  planned : Optimizer.Planner.planned;
  interp : Exec.Interp.result;
  relation : Storage.Relation.t;
}

(* [optimize_with] lets the serving replay put its plan-cache
   conversation around the optimizer. *)
let run ?optimize_with st ~session ~db sql : (outcome, string) result =
  let cat = Cgqp.catalog session in
  match parse_bind st cat sql with
  | Error e -> Error e
  | Ok (lplan, order_by, limit) -> (
    let fresh () = optimize st ~cat ~policies:(Cgqp.policies session) ~order_by lplan in
    let outcome = match optimize_with with None -> fresh () | Some f -> f fresh in
    match outcome with
    | Optimizer.Planner.Rejected r -> Error ("rejected: " ^ r)
    | Optimizer.Planner.Planned planned ->
      let interp, relation = execute st ~session ~db ~limit planned.Optimizer.Planner.plan in
      Ok { planned; interp; relation })

let plan_sig plan = Digest.to_hex (Digest.string (Exec.Pplan.to_string plan))
let result_sig rel = Digest.to_hex (Digest.string (Storage.Relation.to_csv rel))
