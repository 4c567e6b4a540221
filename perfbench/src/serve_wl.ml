(* serve-zipf: [Service.Scheduler.run] over a Zipf point-lookup script,
   a few closed-loop sessions of one unlimited tenant each, sharing one
   plan cache with template caching and one feedback store. Every ~500
   statements one session swaps its policy set (CR <-> C), bumping the
   cache epoch: the cache's write beside its lookups.

   The script is played in rounds of [round_statements], each with a
   fresh cache and feedback store, until the measured time is spent.
   Wall latency per statement is the interval between consecutive calls
   of the environment's [resolve_query] callback, which the scheduler
   makes once per admitted submit right before running it; the last
   interval of a round ends when [Scheduler.run] returns. *)

let sf = 0.002
let sessions = 4
let universe = 300
let round_statements = 5000
let warmup_statements = 2000
let churn_every = 500

(* Statement latency percentiles are taken per window of this many
   consecutive statements and averaged over the windows (Pct.windowed):
   a window lasts well under the seconds for which this host's speed
   holds. *)
let latency_window = 500
let gate_prefix = 1500
let now = Unix.gettimeofday

(* Two template shapes of customer lookups. Most statements select the
   customers of one nation and market segment (a handful of rows, one
   site, no SHIP); one key rank in eight looks a customer up by key and
   joins its nation (one SHIP). Each literal's column occurs once in its
   statement, so both normalize to a template. *)
let segments = Array.of_list Tpch.Datagen.segments

let make_statement v =
  if v mod 8 = 7 then
    Printf.sprintf
      "SELECT c.name, c.acctbal, n.name AS nation FROM customer c, nation n WHERE \
       c.nationkey = n.nationkey AND c.custkey = %d"
      (v + 1)
  else
    Printf.sprintf
      "SELECT custkey, name, acctbal FROM customer WHERE nationkey = %d AND mktsegment = '%s'"
      (v mod 25)
      segments.(v / 25 mod Array.length segments)

let policy_set = function
  | "CR" -> Some (Tpch.Policies.texts Tpch.Policies.CR)
  | "C" -> Some (Tpch.Policies.texts Tpch.Policies.C)
  | _ -> None

(* Every session opens under CR; the first session swaps CR <-> C after
   every [churn_every / sessions] of its own submits. Returns the script
   and the number of swaps. *)
let script ~seed ~statements =
  let base =
    Service.Script.zipf_workload ~sessions ~statements ~universe ~make_statement ~seed ()
  in
  let swaps = ref 0 in
  let per = churn_every / sessions in
  let specs =
    List.mapi
      (fun i (sp : Service.Script.session_spec) ->
        let n = ref 0 in
        let actions =
          List.concat_map
            (fun a ->
              match a with
              | Service.Script.Submit _ when i = 0 ->
                incr n;
                if !n mod per = 0 then (
                  incr swaps;
                  [ a; Service.Script.Set_policy_set (if !swaps mod 2 = 1 then "C" else "CR") ])
                else [ a ]
              | a -> [ a ])
            sp.Service.Script.actions
        in
        { sp with Service.Script.actions = Service.Script.Set_policy_set "CR" :: actions })
      base.Service.Script.sessions
  in
  ({ base with Service.Script.sessions = specs }, !swaps)

let round_seed seed r = (seed * 1_000_003) + r

(* The policy set each session's [seq]-th submit runs under. *)
let policy_plan (script : Service.Script.t) =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun (sp : Service.Script.session_spec) ->
      let cur = ref "" and seq = ref 0 in
      List.iter
        (function
          | Service.Script.Set_policy_set name -> cur := name
          | Service.Script.Submit _ ->
            Hashtbl.replace tbl (sp.Service.Script.sid, !seq) !cur;
            incr seq
          | _ -> ())
        sp.Service.Script.actions)
    script.Service.Script.sessions;
  tbl

type env = {
  seed : int;
  cat : Catalog.t;
  db : Storage.Database.t;
  setup_runs : (float * float) list;  (** set-up and data generation seconds *)
}

(* Catalog, data generation and load; the scheduler opens the sessions. *)
let setup_once ~seed () =
  let t0 = now () in
  let cat = Tpch.Schema.catalog () in
  let db = Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~seed ~sf ()) in
  let t1 = now () in
  ((cat, db), t1 -. t0, t1 -. t0)

let setup ~seed =
  let (cat, db), runs = Setup.before (setup_once ~seed) ~drop:ignore in
  { seed; cat; db; setup_runs = runs }

(* --- one scheduler round ------------------------------------------- *)

type round = {
  report : Service.Scheduler.report;
  wall : float;  (** [Scheduler.run], seconds *)
  intervals : float list;  (** per-statement wall latency, seconds *)
  swaps : int;
  folds : int;
  script : Service.Script.t;
}

let run_round ?(cache = true) env ~seed ~statements =
  let script, swaps = script ~seed ~statements in
  let marks = ref [] in
  let resolve_query sql =
    marks := now () :: !marks;
    sql
  in
  let fb = Cgqp.Feedback.create () in
  let senv =
    Service.Scheduler.env ~catalog:env.cat ~database:env.db
      ?cache:(if cache then Some (Cgqp.Plan_cache.create ()) else None)
      ~template:cache ~feedback:fb ~resolve_query ~resolve_policy_set:policy_set ()
  in
  let t0 = now () in
  let report = Service.Scheduler.run ~env:senv script in
  let t1 = now () in
  (* [marks] is newest first; with the return time in front, consecutive
     differences are the statement intervals *)
  let rec diffs acc = function
    | a :: (b :: _ as rest) -> diffs ((a -. b) :: acc) rest
    | _ -> acc
  in
  let intervals = if !marks = [] then [] else diffs [] (t1 :: !marks) in
  { report; wall = t1 -. t0; intervals; swaps; folds = Cgqp.Feedback.folds fb; script }

let sig_of (s : Service.Scheduler.stmt_record) =
  match s.Service.Scheduler.outcome with
  | Service.Scheduler.Done { plan_sig; result_sig; rows; shipped_bytes; _ } ->
    Printf.sprintf "done %s %s %d %d" plan_sig result_sig rows shipped_bytes
  | Service.Scheduler.Failed e -> "failed " ^ Cgqp.error_to_string e
  | Service.Scheduler.Denied { reason; _ } ->
    "denied " ^ Service.Admission.reason_to_string reason

(* --- the staged replay ----------------------------------------------- *)

(* Replays a round's statements, in the scheduler's execution order,
   through [Staged] with the session's plan-cache conversation
   ([Cgqp]'s template lookup, exact lookup, insert) and the shared
   feedback fold spelled out, one session replica per script session.
   With [cache = false] it is a cache-off run of the same statements. *)
module Sset = Set.Make (String)

let sensitive_cols policies =
  List.fold_left
    (fun acc (e : Policy.Expression.t) ->
      Relalg.Attr.Set.fold
        (fun a acc -> Sset.add a.Relalg.Attr.name acc)
        (Relalg.Pred.cols e.Policy.Expression.pred)
        acc)
    Sset.empty (Policy.Pcatalog.all policies)

let consult (st : Staged.stage) cache session ~sql fresh =
  let open Cgqp in
  let policies = policies session and catalog = catalog session in
  let mode = Optimizer.Memo.Compliant in
  let exact ~on_compute () =
    let key, found =
      st.stage "plan_cache.lookup" (fun () ->
          let key = Plan_cache.key ~sql ~policies ~catalog ~mask_fp:0 ~mode () in
          (key, Plan_cache.find cache key))
    in
    match found with
    | Some outcome -> outcome
    | None ->
      let outcome = fresh () in
      st.stage "plan_cache.lookup" (fun () ->
          Plan_cache.add cache key outcome;
          on_compute outcome);
      outcome
  in
  match st.stage "sqlfront.normalize_sql" (fun () -> Sqlfront.Normalizer.normalize sql) with
  | None -> exact ~on_compute:ignore ()
  | Some { Sqlfront.Normalizer.template; params } -> (
    let bind =
      Array.of_list
        (List.map (fun (p : Sqlfront.Normalizer.param) -> (p.column, p.value)) params)
    in
    let tkey, found =
      st.stage "plan_cache.lookup" (fun () ->
          let sens = sensitive_cols policies in
          let tkey =
            Plan_cache.template_key ~template ~params:bind
              ~sensitive:(fun c -> Sset.mem c sens)
              ~policies ~catalog ~mask_fp:0 ~mode ()
          in
          (tkey, Plan_cache.find_template cache tkey ~params:bind))
    in
    match found with
    | Some planned -> Optimizer.Planner.Planned planned
    | None ->
      exact
        ~on_compute:(function
          | Optimizer.Planner.Planned p when p.Optimizer.Planner.violations = [] ->
            Plan_cache.add_template cache tkey ~params:bind p
          | _ -> ())
        ())

type replayed = {
  record : Service.Scheduler.stmt_record;
  staged : (Staged.outcome, string) result;
  policies : Policy.Pcatalog.t;
}

let replay (st : Staged.stage) env ~cache (r : round) ~limit ~each =
  let plan = policy_plan r.script in
  let cache = if cache then Some (Cgqp.Plan_cache.create ()) else None in
  let fb = Cgqp.Feedback.create () in
  let sessions = Hashtbl.create 8 in
  (* a fold installs its catalog into every session, including those
     whose first statement is still to come *)
  let catalog = ref env.cat in
  let session sid =
    match Hashtbl.find_opt sessions sid with
    | Some s -> s
    | None ->
      let s = Cgqp.create ~database:env.db ~catalog:!catalog () in
      Cgqp.set_plan_cache s cache;
      Cgqp.set_template_cache s (cache <> None);
      let entry = (s, ref "") in
      Hashtbl.replace sessions sid entry;
      entry
  in
  List.iteri
    (fun i (rc : Service.Scheduler.stmt_record) ->
      if i < limit then begin
        let s, cur = session rc.Service.Scheduler.sid in
        let want = Hashtbl.find plan (rc.Service.Scheduler.sid, rc.Service.Scheduler.seq) in
        if want <> !cur then (
          cur := want;
          Cgqp.set_policy_catalog s
            (Policy.Pcatalog.of_texts env.cat (Option.get (policy_set want))));
        let sql = rc.Service.Scheduler.sql in
        let staged =
          Span.statement i (fun () ->
              let o =
                Staged.run st ~session:s ~db:env.db sql
                  ?optimize_with:(Option.map (fun c -> consult st c s ~sql) cache)
              in
              (match o with
              | Ok o ->
                st.stage "feedback.fold" (fun () ->
                    Cgqp.Feedback.observe fb ~cat:(Cgqp.catalog s)
                      ~plan:o.Staged.planned.Optimizer.Planner.plan
                      ~profile:o.Staged.interp.Exec.Interp.profile;
                    match Cgqp.Feedback.fold fb (Cgqp.catalog s) with
                    | None -> ()
                    | Some cat' ->
                      catalog := cat';
                      Hashtbl.iter (fun _ (l, _) -> Cgqp.set_catalog l cat') sessions;
                      Option.iter (Cgqp.Plan_cache.bump_epoch ~reason:"feedback") cache)
              | Error _ -> ());
              o)
        in
        each { record = rc; staged; policies = Cgqp.policies s }
      end)
    r.report.Service.Scheduler.statements

(* The staged outcome, in the scheduler's record terms. *)
let staged_sig (rp : replayed) =
  match rp.staged with
  | Ok o ->
    Printf.sprintf "done %s %s %d %d"
      (Staged.plan_sig o.Staged.planned.Optimizer.Planner.plan)
      (Staged.result_sig o.Staged.relation)
      (Storage.Relation.cardinality o.Staged.relation)
      (Exec.Interp.total_ship_bytes o.Staged.interp.Exec.Interp.stats)
  | Error m -> "error " ^ m

(* --- one run ----------------------------------------------------------- *)

let problems_of_round (r : round) =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let thr = Service.Scheduler.template_hit_rate r.report in
  if thr < 0.9 then fail "template hit rate %.3f is below 0.9" thr;
  (match r.report.Service.Scheduler.cache with
  | Some st when st.Cgqp.Plan_cache.invalidations >= r.swaps -> ()
  | Some st ->
    fail "%d policy swaps invalidated only %d cache entries" r.swaps
      st.Cgqp.Plan_cache.invalidations
  | None -> fail "serve-zipf ran without its plan cache");
  List.rev !problems

(* The gate: on a prefix of the first measured round's script, a
   cache-off scheduler run must give identical per-statement outcomes,
   and a cache-off staged replay must re-certify and match the reference
   answers. *)
let gate env (first : round) ~seed =
  let problems = ref [] in
  let add p = problems := p :: !problems in
  let off = run_round ~cache:false env ~seed ~statements:gate_prefix in
  let measured = Hashtbl.create 8192 in
  List.iter
    (fun (s : Service.Scheduler.stmt_record) ->
      Hashtbl.replace measured (s.Service.Scheduler.sid, s.Service.Scheduler.seq) s)
    first.report.Service.Scheduler.statements;
  List.iter
    (fun (s : Service.Scheduler.stmt_record) ->
      match Hashtbl.find_opt measured (s.Service.Scheduler.sid, s.Service.Scheduler.seq) with
      | Some m when m.Service.Scheduler.sql = s.Service.Scheduler.sql && sig_of m = sig_of s -> ()
      | _ ->
        add
          (Printf.sprintf "cache-off run differs at %s#%d [%s]" s.Service.Scheduler.sid
             s.Service.Scheduler.seq s.Service.Scheduler.sql))
    off.report.Service.Scheduler.statements;
  let items = ref [] in
  replay Staged.untimed env ~cache:false first ~limit:gate_prefix ~each:(fun rp ->
      if staged_sig rp <> sig_of rp.record then
        add (Printf.sprintf "staged replay differs [%s]" rp.record.Service.Scheduler.sql);
      match rp.staged with
      | Ok o ->
        items :=
          {
            Gate.sql = rp.record.Service.Scheduler.sql;
            policies = rp.policies;
            plan = o.Staged.planned.Optimizer.Planner.plan;
            relation = o.Staged.relation;
            ships = o.Staged.interp.Exec.Interp.stats.Exec.Interp.ships;
          }
          :: !items
      | Error _ -> ());
  let reference = Gate.reference ~cat:env.cat ~db:env.db in
  List.rev !problems @ Gate.check ~cat:env.cat reference (List.rev !items)

(* What the metrics keep of a measured round; only the first round's
   full report is kept (for the gate), so the heap does not grow with
   the number of rounds. *)
type summary = {
  n : int;
  wall : float;
  intervals : float array;
  sims : float array;  (** simulated latency of each [Done] statement, ms *)
  shipped : int;
  failed : int;  (** not [Done] *)
  denied : int;
  stats : Cgqp.Plan_cache.stats option;
  folds : int;
}

let summarize (r : round) =
  let sims = ref [] and shipped = ref 0 and failed = ref 0 in
  List.iter
    (fun (s : Service.Scheduler.stmt_record) ->
      match s.Service.Scheduler.outcome with
      | Service.Scheduler.Done { shipped_bytes; _ } ->
        sims := (s.Service.Scheduler.finished_ms -. s.Service.Scheduler.submitted_ms) :: !sims;
        shipped := !shipped + shipped_bytes
      | _ -> incr failed)
    r.report.Service.Scheduler.statements;
  {
    n = List.length r.report.Service.Scheduler.statements;
    wall = r.wall;
    intervals = Array.of_list r.intervals;
    sims = Array.of_list !sims;
    shipped = !shipped;
    failed = !failed;
    denied = r.report.Service.Scheduler.denied;
    stats = r.report.Service.Scheduler.cache;
    folds = r.folds;
  }

(* Measured rounds until [seconds] of scheduler wall time are spent:
   the first round in full, a summary of each, and the self-check
   problems of each. *)
let rounds env ~seed ~first ~seconds =
  let heap = ref 0. in
  let rec go r first_round acc problems busy =
    if busy >= seconds && acc <> [] then (Option.get first_round, List.rev acc, problems, !heap)
    else
      let rd = run_round env ~seed:(round_seed seed r) ~statements:round_statements in
      (* the heap after a fixed amount of work, however fast it ran *)
      if first_round = None then heap := Layers.peak_heap_mib ();
      let first_round = if first_round = None then Some rd else first_round in
      go (r + 1) first_round (summarize rd :: acc) (problems @ problems_of_round rd)
        (busy +. rd.wall)
  in
  go first None [] [] 0.

let stmts rs = List.fold_left (fun a r -> a + r.n) 0 rs

let end_to_end rs ~heap ~setup_s =
  let n = stmts rs in
  let wall = Pct.sum (List.map (fun r -> r.wall) rs) in
  let sim = List.concat_map (fun r -> Array.to_list r.sims) rs in
  let need what = function
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: too few samples (%d) for this percentile" what n)
  in
  let stmt p =
    Option.map
      (fun v -> 1000. *. v)
      (Pct.windowed (List.map (fun r -> r.intervals) rs) ~size:latency_window p)
  in
  let shipped = List.fold_left (fun a r -> a + r.shipped) 0 rs in
  [
    ("stmts_per_s", float_of_int n /. wall);
    ("stmt_p50_ms", need "stmt_p50_ms" (stmt 50.));
    ("stmt_p90_ms", need "stmt_p90_ms" (stmt 90.));
    ("sim_p50_ms", need "sim_p50_ms" (Pct.percentile sim 50.));
    ("sim_p90_ms", need "sim_p90_ms" (Pct.percentile sim 90.));
    ("shipped_kib_per_stmt", float_of_int shipped /. 1024. /. float_of_int n);
    ("ok_share", float_of_int (List.length sim) /. float_of_int n);
    ("peak_heap_mib", heap);
    ("setup_s", setup_s);
  ]

(* Cache and service counters summed over the rounds. *)
let service_into tbl rs =
  let n = float_of_int (max 1 (stmts rs)) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let cache f = sum (fun r -> match r.stats with Some st -> f st | None -> 0) in
  let open Cgqp.Plan_cache in
  let hits = cache (fun s -> s.hits) and misses = cache (fun s -> s.misses) in
  let th = cache (fun s -> s.template_hits) and tm = cache (fun s -> s.template_misses) in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  let set = Hashtbl.replace tbl in
  set "plan_cache.hit_rate" (ratio hits misses);
  set "plan_cache.template_hit_rate" (ratio th tm);
  set "plan_cache.invalidations" (float_of_int (cache (fun s -> s.invalidations)) /. n);
  set "plan_cache.evictions" (float_of_int (cache (fun s -> s.evictions)) /. n);
  set "feedback.folds" (float_of_int (sum (fun r -> r.folds)) /. n);
  set "service.admission_denied" (float_of_int (sum (fun r -> r.denied)))

(* Traced rounds: each round runs through the scheduler (untimed, for
   its execution order and outcomes), then through the staged replay
   with spans; every replayed statement must match the scheduler's
   digests. *)
let traced env ~seed ~first ~seconds tbl =
  Span.reset ();
  let t_end = now () +. seconds in
  let c0 = Cgqp_wl.counters () and z0 = Staged.snapshot () in
  let n = ref 0 and mismatches = ref 0 and rows = ref 0 and ships = ref 0 in
  let r = ref first in
  Exec.Runtime.reset_mem_stats ();
  while now () < t_end do
    let rd = run_round env ~seed:(round_seed seed !r) ~statements:round_statements in
    incr r;
    replay Staged.traced env ~cache:true rd ~limit:max_int ~each:(fun rp ->
        incr n;
        if staged_sig rp <> sig_of rp.record then incr mismatches;
        match rp.staged with
        | Ok o ->
          rows := !rows + o.Staged.interp.Exec.Interp.stats.Exec.Interp.rows_processed;
          ships := !ships + List.length o.Staged.interp.Exec.Interp.stats.Exec.Interp.ships
        | Error _ -> ())
  done;
  Hashtbl.replace tbl "exec.peak_tracked_mib" (Layers.mib (Exec.Runtime.peak_tracked_bytes ()));
  let c1 = Cgqp_wl.counters () and z1 = Staged.snapshot () in
  let spans = Span.all () in
  let wall = Layers.trace_into tbl ~stmts:!n spans in
  Cgqp_wl.counters_into tbl ~stmts:!n c0 c1;
  Staged.totals_into tbl ~stmts:!n z0 z1;
  let exec_s = Span.total "exec.run" spans in
  let per x = float_of_int x /. float_of_int (max 1 !n) in
  Hashtbl.replace tbl "exec.rows_per_s" (if exec_s > 0. then float_of_int !rows /. exec_s else 0.);
  Hashtbl.replace tbl "exec.ships_per_stmt" (per !ships);
  Hashtbl.replace tbl "trace.digest_mismatches" (float_of_int !mismatches);
  (spans, wall, !n, !mismatches)

let run ~seed ~seconds ~trace : Cgqp_wl.result =
  let env = setup ~seed in
  (* warm-up: a round of its own seed, never measured *)
  ignore (run_round env ~seed:(round_seed seed 0) ~statements:warmup_statements);
  Gc.full_major ();
  let untraced_s = if trace then seconds /. 2. else seconds in
  let g0 = Layers.gc_now () in
  let first, rs, round_problems, heap = rounds env ~seed ~first:1 ~seconds:untraced_s in
  let g1 = Layers.gc_now () in
  let n = stmts rs in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 rs in
  (* the gate runs last, so that its reference runs disturb no timing *)
  let problems () = round_problems @ gate env first ~seed:(round_seed seed 1) in
  if not trace then
    let more_runs =
      Setup.after (setup_once ~seed) ~drop:ignore ~runs:(List.length env.setup_runs)
    in
    let setup_s = Pct.median (List.map fst (env.setup_runs @ more_runs)) in
    let e2e = end_to_end rs ~heap ~setup_s in
    {
      Cgqp_wl.metrics =
        List.map (fun (name, unit_) -> Metric.make name unit_ (List.assoc name e2e)) Layers.end_to_end;
      attempted = n;
      failed;
      problems = problems ();
      spans = [];
    }
  else begin
    let tbl = Hashtbl.create 64 in
    Layers.gc_into tbl ~stmts:n g0 g1;
    service_into tbl rs;
    Hashtbl.replace tbl "storage.datagen_s" (Pct.median (List.map snd env.setup_runs));
    let wall_a = Pct.sum (List.map (fun r -> r.wall) rs) in
    let spans, wall_b, nb, mismatches =
      traced env ~seed ~first:(List.length rs + 1) ~seconds:(seconds -. untraced_s) tbl
    in
    let rate_a = float_of_int n /. wall_a and rate_b = float_of_int nb /. wall_b in
    Hashtbl.replace tbl "trace.overhead" ((rate_a /. rate_b) -. 1.);
    (* the scheduler's own cost: its wall per statement beyond the
       statement pipeline's *)
    Hashtbl.replace tbl "service.scheduler_self_ms" (1000. *. ((1. /. rate_a) -. (1. /. rate_b)));
    {
      Cgqp_wl.metrics = Layers.collect Layers.per_layer tbl;
      attempted = n;
      failed;
      problems =
        (problems ()
        @ if mismatches > 0 then [ Printf.sprintf "%d replayed statements differ" mismatches ] else []);
      spans;
    }
  end
