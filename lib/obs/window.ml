(* Sliding windows over one ring of time-bucketed histograms.

   Time is quantised into buckets of [bucket_s] seconds; bucket id
   ⌊now / bucket_s⌋ lives in ring slot (id mod nbuckets).  A slot is
   lazily reclaimed the first time a newer bucket id lands on it, so
   rotation can never double-count: a slot holds exactly one bucket's
   worth of data, and a bucket leaves the reachable set (the trailing
   [nbuckets] ids) at the same moment its slot becomes reclaimable.

   Each slot is a histogram shard: per-bound counts, a sum and an
   observation count.  A counter window is the shard with no bounds,
   read through [rate]; a latency window has bounds and is read through
   [snapshot].

   Reads fold only the slots whose id is still inside the window ending
   at [now], so stale slots that have not been overwritten yet are
   simply skipped.  [rate] divides by the real covered span — elapsed
   time since the first [mark]/[add], clamped to [span_s] — rather than
   the bucket-aligned window width, so a short run's windowed rate
   agrees with its whole-run average instead of being diluted by empty
   leading buckets. *)

let wall () = Unix.gettimeofday ()

let bucket_s = 0.05
let span_s = 60.0

(* +1: the window [now - span, now] straddles one extra partial bucket *)
let nbuckets = int_of_float (ceil (span_s /. bucket_s)) + 1

type t = {
  bounds : float array;  (* strictly increasing upper bounds *)
  width : int;  (* count cells per slot: |bounds|+1 with overflow last *)
  ids : int array;  (* bucket id occupying each slot; -1 = empty *)
  counts : int array;  (* slot s's cells at [s * width, (s + 1) * width) *)
  sums : float array;
  tallies : int array;  (* per-slot observation count *)
  mutable first_s : float;  (* earliest mark/add, +inf before any *)
}

let create ?(buckets = [||]) () =
  Array.iteri
    (fun i b ->
      if i > 0 && not (b > buckets.(i - 1)) then
        invalid_arg "Window.create: bounds must be strictly increasing")
    buckets;
  let width = Array.length buckets + 1 in
  {
    bounds = Array.copy buckets;
    width;
    ids = Array.make nbuckets (-1);
    counts = Array.make (nbuckets * width) 0;
    sums = Array.make nbuckets 0.0;
    tallies = Array.make nbuckets 0;
    first_s = infinity;
  }

let bucket_id now = int_of_float (floor (now /. bucket_s))

(* The slot for [now]'s bucket, reclaimed if an older bucket holds it. *)
let slot_for t now =
  let id = bucket_id now in
  let slot = ((id mod nbuckets) + nbuckets) mod nbuckets in
  if t.ids.(slot) <> id then begin
    t.ids.(slot) <- id;
    Array.fill t.counts (slot * t.width) t.width 0;
    t.sums.(slot) <- 0.0;
    t.tallies.(slot) <- 0
  end;
  if now < t.first_s then t.first_s <- now;
  slot

let mark ?now t =
  let now = match now with Some n -> n | None -> wall () in
  if now < t.first_s then t.first_s <- now

let value_bucket bounds v =
  let n = Array.length bounds in
  let rec find i = if i >= n then n else if v <= bounds.(i) then i else find (i + 1) in
  find 0

let add ?now t v =
  let now = match now with Some n -> n | None -> wall () in
  let slot = slot_for t now in
  let i = (slot * t.width) + value_bucket t.bounds v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.sums.(slot) <- t.sums.(slot) +. v;
  t.tallies.(slot) <- t.tallies.(slot) + 1

let add_snapshot ?now t (s : Metric.snapshot) =
  if
    Array.length s.Metric.s_bounds = Array.length t.bounds
    && Array.for_all2 (fun a b -> a = b) s.Metric.s_bounds t.bounds
    && Array.length s.Metric.s_counts = t.width
  then begin
    let now = match now with Some n -> n | None -> wall () in
    let slot = slot_for t now in
    Array.iteri
      (fun i c ->
        let j = (slot * t.width) + i in
        if c > 0 then t.counts.(j) <- t.counts.(j) + c)
      s.Metric.s_counts;
    t.sums.(slot) <- t.sums.(slot) +. s.Metric.s_sum;
    t.tallies.(slot) <- t.tallies.(slot) + max 0 s.Metric.s_count
  end

(* A slot is live at [now] if its id is within the trailing [nbuckets]
   ids ending at [now]'s bucket.  Future ids (a slot written with a
   later explicit [?now] than this read's) are excluded too. *)
let snapshot ?now t =
  let now = match now with Some n -> n | None -> wall () in
  let id_now = bucket_id now in
  let counts = Array.make t.width 0 in
  let sum = ref 0.0 and count = ref 0 in
  for slot = 0 to nbuckets - 1 do
    let id = t.ids.(slot) in
    if id <= id_now && id > id_now - nbuckets then begin
      for i = 0 to t.width - 1 do
        counts.(i) <- counts.(i) + t.counts.((slot * t.width) + i)
      done;
      sum := !sum +. t.sums.(slot);
      count := !count + t.tallies.(slot)
    end
  done;
  {
    Metric.s_bounds = Array.copy t.bounds;
    s_counts = counts;
    s_sum = !sum;
    s_count = !count;
  }

let rate ?now t =
  let now = match now with Some n -> n | None -> wall () in
  let id_now = bucket_id now in
  if t.first_s = infinity then 0.0
  else begin
    let sum = ref 0.0 in
    for slot = 0 to nbuckets - 1 do
      let id = t.ids.(slot) in
      if id <= id_now && id > id_now - nbuckets then
        sum := !sum +. t.sums.(slot)
    done;
    let covered = Float.min span_s (now -. t.first_s) in
    !sum /. Float.max bucket_s covered
  end
