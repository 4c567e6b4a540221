(* Order statistics for latency samples.

   A percentile is reported only when at least [min_beyond] samples lie
   above it: with fewer, a single slow statement decides the value and
   run-to-run noise swamps any real change. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the value at rank ceil(p/100 * n), or [None]
   when fewer than [min_beyond] samples lie beyond that rank. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 || p <= 0. || p >= 100. then None
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
    if n - rank < min_beyond then None else Some a.(rank - 1)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs

(* The mean, over consecutive windows of [size] samples in sample order,
   of each window's percentile [p]. Windows never span two arrays of
   [runs], and a trailing partial window is left out. [None] when there
   is no whole window or a window's percentile is not reported. Where
   the host's speed shifts for seconds at a time, a window lies within
   one speed and the mean moves in proportion to the time spent at
   each, where the percentile of all samples pooled jumps from one
   speed's value to the other's. *)
let windowed runs ~size p =
  if size < 1 then invalid_arg "Pct.windowed: size must be positive";
  let vals =
    List.concat_map
      (fun a ->
        List.init (Array.length a / size) (fun w ->
            percentile (Array.to_list (Array.sub a (w * size) size)) p))
      runs
  in
  if vals = [] || List.mem None vals then None
  else Some (sum (List.filter_map Fun.id vals) /. float_of_int (List.length vals))
