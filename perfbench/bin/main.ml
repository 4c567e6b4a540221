(* The repository benchmark: one workload, one seed, one run.

     perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Prints each metric by name and unit, then, as the last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the per-layer
   ones from the traced run. See README.md. *)

open Perfbench

let workloads = [ "adhoc-policies"; "tpch-exec"; "ooc-spill"; "serve-zipf" ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rev = ref "unknown" and spans_out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " measured seconds (>= 1)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--rev", Arg.Set_string rev, " source revision, recorded in the metadata");
      ("--spans", Arg.Set_string spans_out, " where the traced run writes its spans (JSONL)");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt in
  if not (List.mem !workload workloads) then die "unknown workload %S" !workload;
  if !seed < 0 then die "--seed must be given and >= 0";
  if !seconds < 1 then die "--seconds must be given and >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (match Guard.check () with Ok () -> () | Error m -> die "%s" m);
  (* an interrupted run still removes its run directory on the way out *)
  let interrupt = Sys.Signal_handle (fun _ -> raise Sys.Break) in
  Sys.set_signal Sys.sigint interrupt;
  Sys.set_signal Sys.sigterm interrupt;
  let trace = !trace = 1 in
  let meta =
    Guard.metadata ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~rev:!rev
      ~engine:(Exec.Engine.default ())
  in
  let seconds = float_of_int !seconds in
  print_endline ("meta " ^ Obs.Json.to_string meta);
  let run () =
    match !workload with
    | "adhoc-policies" -> Cgqp_wl.run Cgqp_wl.Adhoc ~seed:!seed ~seconds ~trace
    | "tpch-exec" -> Cgqp_wl.run Cgqp_wl.Tpch ~seed:!seed ~seconds ~trace
    | "ooc-spill" -> Cgqp_wl.run Cgqp_wl.Ooc ~seed:!seed ~seconds ~trace
    | _ -> Serve_wl.run ~seed:!seed ~seconds ~trace
  in
  let r = try run () with Sys.Break -> die "interrupted" in
  if trace then begin
    let file =
      if !spans_out <> "" then !spans_out
      else (
        Rundir.ensure_dir Rundir.root;
        Filename.concat Rundir.root (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed))
    in
    Span.write_jsonl file r.Cgqp_wl.spans;
    Printf.printf "spans: %d written to %s\n" (List.length r.Cgqp_wl.spans) file
  end;
  Format.printf "%a%!" Metric.pp_table r.Cgqp_wl.metrics;
  List.iter (fun p -> prerr_endline ("perfbench: CHECK FAILED: " ^ p)) r.Cgqp_wl.problems;
  let correct = r.Cgqp_wl.problems = [] in
  print_endline
    (Metric.result_line ~correct ~attempted:r.Cgqp_wl.attempted ~failed:r.Cgqp_wl.failed
       r.Cgqp_wl.metrics);
  exit (if correct then 0 else 1)
