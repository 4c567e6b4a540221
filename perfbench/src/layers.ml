(* The metric catalogue: end-to-end metrics (untraced runs) and per-layer
   metrics (traced runs), by name and unit. Every workload reports every
   metric of its mode; a layer a workload does not use reads 0. *)

let end_to_end =
  [
    ("stmts_per_s", "1/s");
    ("stmt_p50_ms", "ms");
    ("stmt_p90_ms", "ms");
    ("sim_p50_ms", "ms");
    ("sim_p90_ms", "ms");
    ("shipped_kib_per_stmt", "KiB");
    ("ok_share", "ratio");
    ("peak_heap_mib", "MiB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("sqlfront.parse_bind_ms", "ms");
    ("sqlfront.normalize_sql_ms", "ms");
    ("policy.eta_per_stmt", "count/stmt");
    ("policy.implication_tests_per_stmt", "count/stmt");
    ("policy.verdict_cache_hit_rate", "ratio");
    ("policy.implication_cache_hit_rate", "ratio");
    ("optimizer.normalize_ms", "ms");
    ("optimizer.phase1_ingest_ms", "ms");
    ("optimizer.phase1_extract_ms", "ms");
    ("optimizer.phase2_place_ms", "ms");
    ("optimizer.certify_ms", "ms");
    ("optimizer.memo_groups_per_stmt", "count/stmt");
    ("optimizer.pruned_per_stmt", "count/stmt");
    ("plan_cache.lookup_ms", "ms");
    ("plan_cache.hit_rate", "ratio");
    ("plan_cache.template_hit_rate", "ratio");
    ("plan_cache.invalidations", "count/stmt");
    ("plan_cache.evictions", "count/stmt");
    ("feedback.folds", "count/stmt");
    ("exec.run_ms", "ms");
    ("exec.rows_per_s", "1/s");
    ("exec.ships_per_stmt", "count/stmt");
    ("exec.peak_tracked_mib", "MiB");
    ("exec.spilled_operators", "count/stmt");
    ("exec.spill_partitions", "count/stmt");
    ("exec.spill_mib", "MiB/stmt");
    ("storage.page_reads_per_stmt", "count/stmt");
    ("storage.page_read_mib_per_stmt", "MiB/stmt");
    ("storage.datagen_s", "s");
    ("storage.paging_s", "s");
    ("service.scheduler_self_ms", "ms");
    ("service.admission_denied", "count");
    ("gc.minor_per_stmt", "count/stmt");
    ("gc.major_collections", "count");
    ("gc.alloc_mib_per_stmt", "MiB/stmt");
    ("trace.stmts", "count");
    ("trace.stmt_ms", "ms");
    ("trace.coverage", "ratio");
    ("trace.optimizer_share", "ratio");
    ("trace.exec_share", "ratio");
    ("trace.overhead", "ratio");
    ("trace.digest_mismatches", "count");
  ]

(* Stage spans, by the layer they belong to. *)
let optimizer_stages =
  [
    "optimizer.normalize";
    "optimizer.phase1_ingest";
    "optimizer.phase1_extract";
    "optimizer.phase2_place";
    "optimizer.certify";
  ]

let stages =
  [ "sqlfront.parse_bind"; "sqlfront.normalize_sql"; "plan_cache.lookup" ]
  @ optimizer_stages
  @ [ "exec.run"; "feedback.fold" ]

(* Build the metric list of [spec] from the values collected in [tbl];
   absent entries read 0. *)
let collect spec tbl =
  List.map
    (fun (name, unit_) ->
      Metric.make name unit_ (Option.value ~default:0. (Hashtbl.find_opt tbl name)))
    spec

let mib bytes = float_of_int bytes /. 1048576.

(* GC counters over a measured interval. *)
type gc = { minor : int; major : int; alloc_words : float }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
    alloc_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
  }

let gc_into tbl ~stmts g0 g1 =
  let n = float_of_int (max 1 stmts) in
  Hashtbl.replace tbl "gc.minor_per_stmt" (float_of_int (g1.minor - g0.minor) /. n);
  Hashtbl.replace tbl "gc.major_collections" (float_of_int (g1.major - g0.major));
  Hashtbl.replace tbl "gc.alloc_mib_per_stmt"
    ((g1.alloc_words -. g0.alloc_words) *. float_of_int (Sys.word_size / 8) /. 1048576. /. n)

let peak_heap_mib () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Per-statement self times of the stages, the statement wall, coverage
   and the optimizer/exec shares, from the recorded spans. *)
let trace_into tbl ~stmts spans =
  let self = Span.self_times spans in
  let n = float_of_int (max 1 stmts) in
  let ms name = 1000. *. Option.value ~default:0. (Hashtbl.find_opt self name) /. n in
  List.iter
    (fun (metric, stage) -> Hashtbl.replace tbl metric (ms stage))
    [
      ("sqlfront.parse_bind_ms", "sqlfront.parse_bind");
      ("sqlfront.normalize_sql_ms", "sqlfront.normalize_sql");
      ("optimizer.normalize_ms", "optimizer.normalize");
      ("optimizer.phase1_ingest_ms", "optimizer.phase1_ingest");
      ("optimizer.phase1_extract_ms", "optimizer.phase1_extract");
      ("optimizer.phase2_place_ms", "optimizer.phase2_place");
      ("optimizer.certify_ms", "optimizer.certify");
      ("plan_cache.lookup_ms", "plan_cache.lookup");
      ("exec.run_ms", "exec.run");
    ];
  let wall = Span.total "statement" spans in
  let sum names = Pct.sum (List.map (fun s -> Span.total s spans) names) in
  let share x = if wall > 0. then x /. wall else 0. in
  Hashtbl.replace tbl "trace.stmts" (float_of_int stmts);
  Hashtbl.replace tbl "trace.stmt_ms" (1000. *. wall /. n);
  Hashtbl.replace tbl "trace.coverage" (share (sum stages));
  Hashtbl.replace tbl "trace.optimizer_share" (share (sum optimizer_stages));
  Hashtbl.replace tbl "trace.exec_share" (share (Span.total "exec.run" spans));
  wall
