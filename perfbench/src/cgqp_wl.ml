(* The three workloads driven through [Cgqp.run]: one session, one
   closed-loop client, the library's defaults, no plan cache.

   adhoc-policies  fresh random PK-FK join queries under ~1000 CR+A
                   policy expressions, tiny data: loads sqlfront, policy
                   (Algorithm 1) and the optimizer.
   tpch-exec       the 12 TPC-H queries in repeated passes under CR,
                   resident data: loads the executor.
   ooc-spill       the same passes on paged data under a memory budget
                   well below the working set: loads segment reads and
                   spilling. *)

type kind = Adhoc | Tpch | Ooc

let name = function Adhoc -> "adhoc-policies" | Tpch -> "tpch-exec" | Ooc -> "ooc-spill"

(* Sizing; README.md has the measurements behind it. The catalog keeps
   the schema's default statistics whatever the data size, so the
   plans of tpch-exec and ooc-spill are the same. *)
let sf = function Adhoc -> 0.0005 | Tpch -> 0.03 | Ooc -> 0.005
let adhoc_expressions = 1000
let ooc_budget = 512 * 1024
let adhoc_warmup = 30
let now = Unix.gettimeofday

type env = {
  kind : kind;
  seed : int;
  sf : float;
  session : Cgqp.session;
  cat : Catalog.t;
  db : Storage.Database.t;  (** the attached database (paged for ooc-spill) *)
  texts : string list;
  setup_runs : (float * (float * float)) list;
      (** set-up, data generation and paging seconds of each set-up *)
  working_set : int;  (** resident bytes of the generated data *)
}

let working_set db =
  List.fold_left
    (fun acc (t, p) ->
      acc + Storage.Relation.byte_size (Storage.Database.find_exn db ~table:t ~partition:p ()))
    0 (Storage.Database.tables db)

let policy_texts kind ~seed =
  match kind with
  | Adhoc ->
    Tpch.Workload.gen_expressions ~seed ~template:Tpch.Policies.CRA ~n:adhoc_expressions ()
  | Tpch | Ooc -> Tpch.Policies.texts Tpch.Policies.CR

(* Everything before the first statement: catalog, data generation and
   load, paging, session and policies. *)
let setup_once kind ~sf ~seed ~dir texts =
  let t0 = now () in
  let cat = Tpch.Schema.catalog () in
  let resident = Tpch.Datagen.load ~cat (Tpch.Datagen.generate ~seed ~sf ()) in
  let t1 = now () in
  let db, seg_dir =
    match kind with
    | Ooc ->
      let d = Rundir.fresh ~parent:dir "segments" in
      (Storage.Database.paged resident ~dir:d, Some d)
    | Adhoc | Tpch -> (resident, None)
  in
  let t2 = now () in
  let session = Cgqp.create ~database:db ~catalog:cat () in
  Cgqp.add_policies session texts;
  if kind = Ooc then Cgqp.set_mem_budget session (Some ooc_budget);
  let t3 = now () in
  let ws = if kind = Ooc then working_set resident else 0 in
  ((session, cat, db, seg_dir, ws), t3 -. t0, (t1 -. t0, t2 -. t1))

let drop_setup (_, _, _, seg, _) = Option.iter Rundir.rm_rf seg

let setup kind ~sf ~seed ~dir =
  let texts = policy_texts kind ~seed in
  let (session, cat, db, _, ws), runs =
    Setup.before (fun () -> setup_once kind ~sf ~seed ~dir texts) ~drop:drop_setup
  in
  {
    kind;
    seed;
    sf;
    session;
    cat;
    db;
    texts;
    setup_runs = runs;
    working_set = ws;
  }

(* --- statement sources ------------------------------------------- *)

(* A unit of work: one pass of the 12 TPC-H queries, or one fresh ad-hoc
   statement. *)
type source = { next : unit -> string list; per_unit : int }

let tpch_source () =
  let qs = List.map snd Tpch.Queries.all_extended in
  { next = (fun () -> qs); per_unit = List.length qs }

(* Fresh ad-hoc statements: generated in chunks from seeds derived from
   the workload seed, each statement used once. [seen] starts with the
   warm-up statements, so no measured statement repeats one. *)
let adhoc_source ~seed ~first_chunk ~seen =
  let queue = Queue.create () in
  let chunk = ref first_chunk in
  let rec next () =
    match Queue.take_opt queue with
    | Some q -> [ q ]
    | None ->
      List.iter
        (fun q ->
          if not (Hashtbl.mem seen q) then (
            Hashtbl.add seen q ();
            Queue.add q queue))
        (Tpch.Workload.gen_queries ~seed:((seed * 1_000_003) + !chunk) ~n:500 ());
      incr chunk;
      next ()
  in
  { next; per_unit = 1 }

(* --- the untraced measurement -------------------------------------- *)

(* What the metrics and the gate keep of a run. The rest of the
   [Cgqp.run_result] (optimizer memo, executor profile) is dropped at
   once, and answers are kept only for the statements the reference
   check covers, so the heap does not grow with the statement count. *)
type done_ = {
  makespan_ms : float;
  shipped_bytes : int;
  sigs : string * string;  (** plan and result digests (passes only) *)
  item : Gate.item option;  (** kept for the reference check *)
}

type sample = {
  sql : string;
  unit_ix : int;
  lat : float;  (** wall seconds, SQL text in to rows and SHIP ledger out *)
  outcome : (done_, Cgqp.error) result;
}

(* Ad-hoc statements whose answers are checked against the reference. *)
let adhoc_reference_cap = 400

let item_of env sql (r : Cgqp.run_result) =
  {
    Gate.sql;
    policies = Cgqp.policies env.session;
    plan = r.Cgqp.plan;
    relation = r.Cgqp.relation;
    ships = r.Cgqp.interp.Exec.Interp.stats.Exec.Interp.ships;
  }

(* Run whole units until [seconds] of statement time and [min_stmts]
   statements are done. Only statements are timed: drawing the next
   statement and re-certifying the executed plan (every one) happen
   between them. *)
let measure env src ~seconds ~min_stmts =
  let samples = ref [] and busy = ref 0. and n = ref 0 and unit_ix = ref 0 in
  let problems = ref [] and heap = ref 0. in
  while !busy < seconds || !n < min_stmts do
    List.iter
      (fun sql ->
        let t0 = now () in
        let outcome = Cgqp.run env.session sql in
        let lat = now () -. t0 in
        busy := !busy +. lat;
        let outcome =
          Result.map
            (fun (r : Cgqp.run_result) ->
              let item = item_of env sql r in
              problems := List.rev_append (Gate.compliance ~cat:env.cat item) !problems;
              let keep =
                match env.kind with Adhoc -> !n < adhoc_reference_cap | Tpch | Ooc -> !unit_ix = 0
              in
              {
                makespan_ms = r.Cgqp.makespan_ms;
                shipped_bytes = r.Cgqp.shipped_bytes;
                sigs =
                  (match env.kind with
                  | Adhoc -> ("", "")
                  | Tpch | Ooc -> (Staged.plan_sig r.Cgqp.plan, Staged.result_sig r.Cgqp.relation));
                item = (if keep then Some item else None);
              })
            outcome
        in
        incr n;
        (* the heap after a fixed amount of work, however fast it ran *)
        if !n = min_stmts then heap := Layers.peak_heap_mib ();
        samples := { sql; unit_ix = !unit_ix; lat; outcome } :: !samples)
      (src.next ());
    incr unit_ix
  done;
  (List.rev !samples, !busy, !heap, List.rev !problems)

let end_to_end samples ~busy ~heap ~setup_s =
  let n = List.length samples in
  let ms xs p = Option.map (fun v -> 1000. *. v) (Pct.percentile xs p) in
  let lat = List.map (fun s -> s.lat) samples in
  let ok = List.filter_map (fun s -> Result.to_option s.outcome) samples in
  let sim = List.map (fun r -> r.makespan_ms /. 1000.) ok in
  let shipped = List.fold_left (fun a r -> a + r.shipped_bytes) 0 ok in
  let need what = function
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: too few samples (%d) for this percentile" what n)
  in
  [
    ("stmts_per_s", float_of_int n /. busy);
    ("stmt_p50_ms", need "stmt_p50_ms" (ms lat 50.));
    ("stmt_p90_ms", need "stmt_p90_ms" (ms lat 90.));
    ("sim_p50_ms", need "sim_p50_ms" (ms sim 50.));
    ("sim_p90_ms", need "sim_p90_ms" (ms sim 90.));
    ("shipped_kib_per_stmt", float_of_int shipped /. 1024. /. float_of_int n);
    ("ok_share", float_of_int (List.length ok) /. float_of_int n);
    ("peak_heap_mib", heap);
    ("setup_s", setup_s);
  ]

(* --- the correctness gate and the workload self-checks ------------- *)

(* Beyond the inline re-certification: reference answers for the kept
   statements; for the TPC-H passes, every pass repeats the first
   pass's plan and result digests; for the paged workload, a resident,
   unbudgeted run of each plan gives byte-identical results and SHIP
   ledgers. *)
let gate env samples =
  let problems = ref [] in
  let add ps = problems := !problems @ ps in
  let ok = List.filter_map (fun s -> match s.outcome with Ok r -> Some (s, r) | Error _ -> None) samples in
  (match env.kind with
  | Adhoc -> ()
  | Tpch | Ooc ->
    let expect = Hashtbl.create 16 in
    List.iter (fun (s, r) -> if s.unit_ix = 0 then Hashtbl.replace expect s.sql r.sigs) ok;
    List.iter
      (fun (s, r) ->
        match Hashtbl.find_opt expect s.sql with
        | Some sg when sg = r.sigs -> ()
        | _ -> add [ Printf.sprintf "pass %d differs from the first pass [%s]" s.unit_ix s.sql ])
      ok);
  (* reference answers come from resident data, regenerated from the
     seed for the paged workload *)
  let resident =
    match env.kind with
    | Ooc -> Tpch.Datagen.load ~cat:env.cat (Tpch.Datagen.generate ~seed:env.seed ~sf:env.sf ())
    | Adhoc | Tpch -> env.db
  in
  let items = List.filter_map (fun (_, r) -> r.item) ok in
  let reference = Gate.reference ~cat:env.cat ~db:resident in
  add (List.concat_map (Gate.answers reference) items);
  if env.kind = Ooc then
    List.iter
      (fun (it : Gate.item) ->
        let res =
          Exec.Engine.run ~engine:(Cgqp.engine env.session)
            ~budget:Exec.Runtime.unlimited_budget ~network:(Catalog.network env.cat)
            ~db:resident ~table_cols:(Catalog.table_cols env.cat) it.Gate.plan
        in
        if
          Storage.Relation.to_csv res.Exec.Interp.relation <> Storage.Relation.to_csv it.Gate.relation
          || res.Exec.Interp.stats.Exec.Interp.ships <> it.Gate.ships
        then add [ Printf.sprintf "paged+budgeted run differs from resident [%s]" it.Gate.sql ])
      items;
  !problems

(* Counters the self-checks and per-layer metrics read around a
   measured interval. *)
type counters = {
  page_reads : int;
  page_bytes : int;
  spilled : int;
  partitions : int;
  spill_bytes : int;
  verdict : int * int;
  implication : int * int;
}

let counters () =
  {
    page_reads = Storage.Segment.page_reads ();
    page_bytes = Storage.Segment.page_read_bytes ();
    spilled = Exec.Runtime.spilled_operators ();
    partitions = Exec.Runtime.spill_partitions ();
    spill_bytes = Exec.Runtime.spill_run_bytes ();
    verdict = Policy.Evaluator.cache_stats ();
    implication = Policy.Implication.cache_stats ();
  }

let self_checks env ~warmup samples c0 c1 =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (match env.kind with
  | Adhoc ->
    if Cgqp.plan_cache env.session <> None then fail "adhoc-policies must run without a plan cache";
    let seen = Hashtbl.create 1024 in
    List.iter (fun q -> Hashtbl.replace seen q ()) warmup;
    List.iter
      (fun s ->
        if Hashtbl.mem seen s.sql then fail "statement repeats (or was warmed up): %s" s.sql
        else Hashtbl.add seen s.sql ())
      samples
  | Tpch ->
    if c1.page_reads <> c0.page_reads then fail "tpch-exec read pages: its data must be resident";
    if c1.spilled <> c0.spilled then fail "tpch-exec spilled: it must run unbudgeted"
  | Ooc ->
    if ooc_budget >= env.working_set then
      fail "memory budget %d is not below the working set %d" ooc_budget env.working_set;
    if c1.page_reads = c0.page_reads then fail "ooc-spill read no pages";
    if c1.spilled = c0.spilled then fail "ooc-spill spilled no operator");
  List.rev !problems

let rate (h0, m0) (h1, m1) =
  let h = h1 - h0 and m = m1 - m0 in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

(* Policy-cache, spill and page-read metrics over a traced interval. *)
let counters_into tbl ~stmts c0 c1 =
  let n = float_of_int (max 1 stmts) in
  let per x = float_of_int x /. n in
  let set = Hashtbl.replace tbl in
  set "policy.verdict_cache_hit_rate" (rate c0.verdict c1.verdict);
  set "policy.implication_cache_hit_rate" (rate c0.implication c1.implication);
  set "exec.spilled_operators" (per (c1.spilled - c0.spilled));
  set "exec.spill_partitions" (per (c1.partitions - c0.partitions));
  set "exec.spill_mib" (Layers.mib (c1.spill_bytes - c0.spill_bytes) /. n);
  set "storage.page_reads_per_stmt" (per (c1.page_reads - c0.page_reads));
  set "storage.page_read_mib_per_stmt" (Layers.mib (c1.page_bytes - c0.page_bytes) /. n)

(* --- the traced run ------------------------------------------------- *)

(* Push statements through [Staged] one layer at a time for [seconds] of
   wall time, asserting per statement that the staged path reproduces
   [Cgqp.run]'s plan and result digests. *)
let traced env src ~seconds tbl =
  Span.reset ();
  let c0 = counters () and z0 = Staged.snapshot () in
  let t_end = now () +. seconds in
  let n = ref 0 and mismatches = ref 0 and rows = ref 0 and ships = ref 0 in
  (* the peak gauge is a running maximum: reset once, read at the end *)
  Exec.Runtime.reset_mem_stats ();
  while now () < t_end do
    List.iter
      (fun sql ->
        let staged =
          Span.statement !n (fun () -> Staged.run Staged.traced ~session:env.session ~db:env.db sql)
        in
        incr n;
        let reference = Cgqp.run env.session sql in
        match (staged, reference) with
        | Ok o, Ok r ->
          rows := !rows + o.Staged.interp.Exec.Interp.stats.Exec.Interp.rows_processed;
          ships := !ships + List.length o.Staged.interp.Exec.Interp.stats.Exec.Interp.ships;
          if
            Staged.plan_sig o.Staged.planned.Optimizer.Planner.plan <> Staged.plan_sig r.Cgqp.plan
            || Staged.result_sig o.Staged.relation <> Staged.result_sig r.Cgqp.relation
          then incr mismatches
        | Error _, Error _ -> ()
        | _ -> incr mismatches)
      (src.next ())
  done;
  let c1 = counters () and z1 = Staged.snapshot () in
  let spans = Span.all () in
  let wall = Layers.trace_into tbl ~stmts:!n spans in
  counters_into tbl ~stmts:!n c0 c1;
  Staged.totals_into tbl ~stmts:!n z0 z1;
  let per x = float_of_int x /. float_of_int (max 1 !n) in
  let exec_s = Span.total "exec.run" spans in
  Hashtbl.replace tbl "exec.rows_per_s" (if exec_s > 0. then float_of_int !rows /. exec_s else 0.);
  Hashtbl.replace tbl "exec.ships_per_stmt" (per !ships);
  Hashtbl.replace tbl "exec.peak_tracked_mib" (Layers.mib (Exec.Runtime.peak_tracked_bytes ()));
  Hashtbl.replace tbl "trace.digest_mismatches" (float_of_int !mismatches);
  (spans, float_of_int !n /. wall, !mismatches)

(* --- one run ---------------------------------------------------------- *)

type result = {
  metrics : Metric.t list;
  attempted : int;
  failed : int;
  problems : string list;
  spans : Span.t list;
}

(* [sf], [min_stmts] and [gate] default to the benchmark's own; the
   benchmark's tests shrink the first two and replace the gate. *)
let run ?sf:sf_ ?min_stmts:min_ ?(gate = gate) kind ~seed ~seconds ~trace =
  Rundir.with_dir (name kind) @@ fun dir ->
  let env = setup kind ~sf:(Option.value sf_ ~default:(sf kind)) ~seed ~dir in
  let warmup, src, min_stmts =
    match kind with
    | Adhoc ->
      let seen = Hashtbl.create 4096 in
      let w = adhoc_source ~seed ~first_chunk:0 ~seen in
      let warmup = List.concat (List.init adhoc_warmup (fun _ -> w.next ())) in
      (* measured chunks start far from the warm-up chunk; [seen] keeps
         them disjoint whatever the generator draws *)
      (warmup, adhoc_source ~seed ~first_chunk:1_000 ~seen, 2000)
    | Tpch | Ooc -> (List.map snd Tpch.Queries.all_extended, tpch_source (), 120)
  in
  List.iter (fun sql -> ignore (Cgqp.run env.session sql)) warmup;
  (* every run starts measuring from a collected heap *)
  Gc.full_major ();
  let min_stmts = Option.value min_ ~default:min_stmts in
  let untraced_s = if trace then seconds /. 2. else seconds in
  let c0 = counters () in
  let g0 = Layers.gc_now () in
  let samples, busy, heap, certify_problems =
    measure env src ~seconds:untraced_s ~min_stmts:(if trace then src.per_unit else min_stmts)
  in
  let g1 = Layers.gc_now () in
  let c1 = counters () in
  let n = List.length samples in
  let failed = List.length (List.filter (fun s -> Result.is_error s.outcome) samples) in
  let tbl = Hashtbl.create 64 in
  let metrics, spans, more =
    if not trace then begin
      let more_runs =
        Setup.after
          (fun () -> setup_once kind ~sf:env.sf ~seed ~dir env.texts)
          ~drop:drop_setup ~runs:(List.length env.setup_runs)
      in
      let setup_s = Pct.median (List.map fst (env.setup_runs @ more_runs)) in
      let e2e = end_to_end samples ~busy ~heap ~setup_s in
      ( List.map (fun (name, unit_) -> Metric.make name unit_ (List.assoc name e2e)) Layers.end_to_end,
        [],
        [] )
    end
    else begin
      let times f = Pct.median (List.map (fun (_, t) -> f t) env.setup_runs) in
      Layers.gc_into tbl ~stmts:n g0 g1;
      Hashtbl.replace tbl "storage.datagen_s" (times fst);
      Hashtbl.replace tbl "storage.paging_s" (times snd);
      let spans, traced_rate, mismatches = traced env src ~seconds:(seconds -. untraced_s) tbl in
      Hashtbl.replace tbl "trace.overhead" ((float_of_int n /. busy /. traced_rate) -. 1.);
      ( Layers.collect Layers.per_layer tbl,
        spans,
        if mismatches > 0 then
          [ Printf.sprintf "%d traced statements differ from Cgqp.run" mismatches ]
        else [] )
    end
  in
  (* the gate runs last, so that its reference runs disturb no timing *)
  let problems = certify_problems @ gate env samples @ self_checks env ~warmup samples c0 c1 in
  { metrics; attempted = n; failed; problems = problems @ more; spans }
