(* Tests of the benchmark's own machinery: the percentile rule, the
   metric catalogue against BENCHMARK.json, and the clean-up of the
   out-of-core workload's run directory on every exit path. *)

open Perfbench

let floats n = List.init n (fun i -> float_of_int (i + 1))

let percentile_needs_ten_beyond () =
  let check name expect got = Alcotest.(check (option (float 0.))) name expect got in
  check "p90 of 99 samples: 9 beyond" None (Pct.percentile (floats 99) 90.);
  check "p90 of 100 samples: 10 beyond" (Some 90.) (Pct.percentile (floats 100) 90.);
  check "p50 of 19 samples: 9 beyond" None (Pct.percentile (floats 19) 50.);
  check "p50 of 20 samples: 10 beyond" (Some 10.) (Pct.percentile (floats 20) 50.);
  check "p99 of 1000 samples" (Some 990.) (Pct.percentile (floats 1000) 99.);
  check "unsorted input" (Some 10.) (Pct.percentile (List.rev (floats 20)) 50.);
  check "no samples" None (Pct.percentile [] 50.)

let windowed_means_whole_windows () =
  let check name expect got = Alcotest.(check (option (float 1e-9))) name expect got in
  let arr xs = Array.of_list xs in
  let shifted k = List.map (fun x -> x +. k) (floats 20) in
  check "two windows of one run" (Some 60.)
    (Pct.windowed [ arr (floats 20 @ shifted 100.) ] ~size:20 50.);
  check "windows of two runs" (Some 60.)
    (Pct.windowed [ arr (floats 20); arr (shifted 100.) ] ~size:20 50.);
  check "a trailing partial window is left out" (Some 10.)
    (Pct.windowed [ arr (floats 20 @ [ 1000. ]) ] ~size:20 50.);
  check "a window too small for the percentile" None (Pct.windowed [ arr (floats 20) ] ~size:20 90.);
  check "no whole window" None (Pct.windowed [ arr (floats 19) ] ~size:20 50.)

let names_and_units () =
  List.iter
    (fun (name, unit_) ->
      Alcotest.(check bool) ("valid name " ^ name) true (Metric.valid_name name);
      Alcotest.(check bool) ("valid unit of " ^ name) true (Metric.valid_unit unit_))
    (Layers.end_to_end @ Layers.per_layer);
  List.iter
    (fun bad -> Alcotest.(check bool) ("invalid name " ^ bad) false (Metric.valid_name bad))
    [ ""; "_x"; "a b"; "ms/s"; "x%"; String.make 65 'a' ];
  Alcotest.check_raises "make refuses an empty unit"
    (Invalid_argument "Metric.make: bad unit \"\" for x") (fun () -> ignore (Metric.make "x" "" 1.))

(* BENCHMARK.json names exactly the metrics the benchmark prints, with
   the same units. *)
let benchmark_json_matches () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let json = match Obs.Json.of_string text with Ok j -> j | Error m -> Alcotest.fail m in
  let metrics key =
    match Obs.Json.member key json with
    | Some (Obs.Json.Arr xs) ->
      List.map
        (fun m ->
          match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
          | Some (Obs.Json.Str n), Some (Obs.Json.Str u) -> (n, u)
          | _ -> Alcotest.fail ("malformed metric in " ^ key))
        xs
    | _ -> Alcotest.fail ("missing " ^ key)
  in
  let sort = List.sort compare in
  Alcotest.(check (list (pair string string)))
    "end_to_end" (sort Layers.end_to_end) (sort (metrics "end_to_end"));
  Alcotest.(check (list (pair string string)))
    "per_layer" (sort Layers.per_layer) (sort (metrics "per_layer"))

(* --- ooc-spill clean-up ------------------------------------------- *)

let leftovers () =
  if Sys.file_exists Rundir.root then
    List.filter
      (fun f -> String.starts_with ~prefix:"ooc-spill" f)
      (Array.to_list (Sys.readdir Rundir.root))
  else []

let tiny ?gate () =
  Cgqp_wl.run ~sf:0.002 ~min_stmts:12 ?gate Cgqp_wl.Ooc ~seed:3 ~seconds:0.2 ~trace:true

let ooc_runs_clean () =
  let r = tiny () in
  Alcotest.(check (list string)) "gate and self-checks pass" [] r.Cgqp_wl.problems;
  Alcotest.(check bool) "statements ran" true (r.Cgqp_wl.attempted >= 12);
  Alcotest.(check (list string)) "run directory removed" [] (leftovers ())

let ooc_cleans_after_failed_gate () =
  let r = tiny ~gate:(fun _ _ -> [ "forced mismatch" ]) () in
  Alcotest.(check bool)
    "the failure is reported" true
    (List.mem "forced mismatch" r.Cgqp_wl.problems);
  Alcotest.(check (list string)) "run directory removed" [] (leftovers ())

let ooc_cleans_after_exception () =
  let tmp = Filename.get_temp_dir_name () in
  Alcotest.check_raises "the exception propagates" (Failure "boom") (fun () ->
      ignore (tiny ~gate:(fun _ _ -> failwith "boom") ()));
  Alcotest.(check (list string)) "run directory removed" [] (leftovers ());
  Alcotest.(check string) "temp dir restored" tmp (Filename.get_temp_dir_name ())

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "ten samples beyond" `Quick percentile_needs_ten_beyond;
          Alcotest.test_case "windowed mean" `Quick windowed_means_whole_windows;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "names and units" `Quick names_and_units;
          Alcotest.test_case "BENCHMARK.json" `Quick benchmark_json_matches;
        ] );
      ( "ooc-spill cleanup",
        [
          Alcotest.test_case "normal exit" `Quick ooc_runs_clean;
          Alcotest.test_case "failed gate" `Quick ooc_cleans_after_failed_gate;
          Alcotest.test_case "exception" `Quick ooc_cleans_after_exception;
        ] );
    ]
