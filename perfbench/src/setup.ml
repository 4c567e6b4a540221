(* Set-up is timed several times per run and reported as the median.
   Half the runs happen before the measurement, the other half after it,
   so that the median spans the run's time rather than one moment of the
   host's speed. Before: at least [min_runs] runs, then more while they
   took less than [budget_s] in all, up to [max_runs]. Only the last
   run before the measurement is kept; every other run's state is
   dropped, and collected, before the next begins. *)

let min_runs = 3
let max_runs = 15
let budget_s = 1.0

(* [once ()] returns a state, its set-up seconds and other timings. *)
let timed_only once ~drop =
  let state, secs, extra = once () in
  drop state;
  Gc.full_major ();
  (secs, extra)

(* The kept state and the runs' (set-up seconds, timings). *)
let before once ~drop =
  let rec discard i spent acc =
    if i + 1 < min_runs || (i + 1 < max_runs && spent < budget_s) then
      let ((secs, _) as t) = timed_only once ~drop in
      discard (i + 1) (spent +. secs) (t :: acc)
    else acc
  in
  let acc = discard 0 0. [] in
  let state, secs, extra = once () in
  (state, (secs, extra) :: acc)

(* As many runs again, after the measurement. *)
let after once ~drop ~runs = List.init runs (fun _ -> timed_only once ~drop)
