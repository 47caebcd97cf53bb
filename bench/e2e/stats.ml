(* Order statistics over the benchmark's samples.

   Quantiles interpolate linearly between the closest ranks (type 7 in
   Hyndman & Fan, numpy's default), so p50 of an even sample is the
   mean of the two middle values. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

(* Quartiles of a set of runs, by the "exclusive" method of Python's
   [statistics.quantiles (data, n=4)], so that [--compare] reports the
   spread that method gives.  Needs at least two values. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n < 2 then invalid_arg "Stats.quartiles: need two values";
  let q i =
    let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
    let delta = (i * (n + 1)) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, median a, q 3)

(* p90 is reported only when at least ten samples lie beyond it. *)
let min_timed_rounds = 100

let latency_percentiles a =
  let n = Array.length a in
  if n < min_timed_rounds then
    Error
      (Printf.sprintf "%d timed rounds; a run needs at least %d for p90" n
         min_timed_rounds)
  else
    let s = sorted a in
    Ok (quantile_sorted s 0.5, quantile_sorted s 0.9)

(* [series] holds one latency series per cluster, index 0 being its
   first timed round.  The first and last tenth of every series are
   pooled, so clusters of equal length weigh equally. *)
let growth series =
  let tenth s = max 1 (Array.length s / 10) in
  let pool f =
    Array.concat
      (List.filter_map
         (fun s -> if Array.length s = 0 then None else Some (f s))
         (Array.to_list series))
  in
  let first = pool (fun s -> Array.sub s 0 (tenth s)) in
  let last =
    pool (fun s ->
        let m = tenth s in
        Array.sub s (Array.length s - m) m)
  in
  median last /. median first
