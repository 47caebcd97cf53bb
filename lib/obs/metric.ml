(* Domain-safe metrics registry: counters, gauges, and fixed-bucket
   log-scale histograms, exposed through a process-global registry that
   the Prometheus writer ([Prom]) and the run-report exporter render.

   Hot-path design mirrors [Span]: recording is globally gated by one
   atomic flag, so with metrics off every instrumented site costs one
   atomic load and allocates nothing.  Enabled:

   - counters are single atomics (fetch-and-add, exact under any
     domain interleaving);
   - gauges are atomics over floats (last-writer-wins set, CAS add);
   - histograms write to lock-free per-domain shards — a domain's first
     observation registers its shard under the histogram's mutex, after
     which observations touch only domain-local state.  Reading merges
     the shards; the merge is associative and commutative (bucket
     counts and totals are sums), so snapshots are schedule-independent
     for any domain count.

   Identity: a metric is (name, sorted label pairs).  Re-registering
   the same identity returns the same instance, so instrumentation
   sites can look handles up on the fly without coordination. *)

type labels = (string * string) list

let on = Atomic.make false
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* ----- histograms ----- *)

(* [bounds] are strictly increasing bucket upper bounds; an observation
   lands in the first bucket with [v <= bounds.(i)], or the implicit
   +Inf overflow bucket (index [Array.length bounds]). *)
type shard = {
  counts : int array;  (* length = Array.length bounds + 1 *)
  mutable sum : float;
  mutable cnt : int;
}

type hist = {
  bounds : float array;
  mutable shards : shard list;
  h_lock : Mutex.t;
  shard_key : shard Domain.DLS.key;
}

type snapshot = {
  s_bounds : float array;
  s_counts : int array;  (* per-bucket, overflow last *)
  s_sum : float;
  s_count : int;
}

let log_buckets ?(lo = 1e-6) ?(factor = 4.0) ?(count = 16) () =
  if lo <= 0.0 || factor <= 1.0 || count < 1 then
    invalid_arg "Metric.log_buckets";
  Array.init count (fun i -> lo *. (factor ** float_of_int i))

(* default: 1µs .. ~1000s in quarter-decade steps, for latencies *)
let default_buckets = log_buckets ~lo:1e-6 ~factor:4.0 ~count:16 ()

let make_hist bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metric.histogram: no buckets";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metric.histogram: buckets not increasing"
  done;
  let rec h =
    lazy
      {
        bounds = Array.copy bounds;
        shards = [];
        h_lock = Mutex.create ();
        shard_key =
          Domain.DLS.new_key (fun () ->
              let s = { counts = Array.make (n + 1) 0; sum = 0.0; cnt = 0 } in
              let h = Lazy.force h in
              Mutex.protect h.h_lock (fun () -> h.shards <- s :: h.shards);
              s);
      }
  in
  Lazy.force h

let bucket_index bounds v =
  (* binary search: first i with v <= bounds.(i); n = overflow *)
  let n = Array.length bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe_hist h v =
  let s = Domain.DLS.get h.shard_key in
  let i = bucket_index h.bounds v in
  s.counts.(i) <- s.counts.(i) + 1;
  s.sum <- s.sum +. v;
  s.cnt <- s.cnt + 1

let empty_snapshot bounds =
  {
    s_bounds = Array.copy bounds;
    s_counts = Array.make (Array.length bounds + 1) 0;
    s_sum = 0.0;
    s_count = 0;
  }

let merge a b =
  if a.s_bounds <> b.s_bounds then invalid_arg "Metric.merge: bucket mismatch";
  {
    s_bounds = a.s_bounds;
    s_counts = Array.map2 ( + ) a.s_counts b.s_counts;
    s_sum = a.s_sum +. b.s_sum;
    s_count = a.s_count + b.s_count;
  }

let snapshot_hist h =
  let shards = Mutex.protect h.h_lock (fun () -> h.shards) in
  List.fold_left
    (fun acc s ->
      merge acc
        {
          s_bounds = h.bounds;
          s_counts = Array.copy s.counts;
          s_sum = s.sum;
          s_count = s.cnt;
        })
    (empty_snapshot h.bounds) shards

(* Nearest-rank quantile estimate: the upper bound of the bucket holding
   rank ⌈q·count⌉ (the overflow bucket reports the largest finite
   bound).  0 on an empty histogram, matching [Summary.percentile]. *)
let quantile s q =
  if s.s_count = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int s.s_count))) in
    let n = Array.length s.s_bounds in
    let rec go i acc =
      if i > n then s.s_bounds.(n - 1)
      else
        let acc = acc + s.s_counts.(i) in
        if acc >= rank then s.s_bounds.(min i (n - 1)) else go (i + 1) acc
    in
    go 0 0
  end

(* ----- registry ----- *)

type instrument =
  | Counter of int Atomic.t
  | Gauge of float Atomic.t
  | Histogram of hist

type kind = K_counter | K_gauge | K_histogram

type family = {
  fam_name : string;
  fam_help : string;
  fam_kind : kind;
  mutable fam_instances : (labels * instrument) list;
}

let registry : (string, family) Hashtbl.t = Hashtbl.create 64
let reg_lock = Mutex.create ()

let valid_name s =
  s <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s
  && (match s.[0] with '0' .. '9' -> false | _ -> true)

let canon labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Find or create the instrument for (name, labels); the constructor
   runs under the registry lock only on first registration. *)
let intern ~name ~help ~kind ~labels make =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metric: invalid metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (valid_name k) then
        invalid_arg (Printf.sprintf "Metric: invalid label name %S" k))
    labels;
  let labels = canon labels in
  Mutex.protect reg_lock (fun () ->
      let fam =
        match Hashtbl.find_opt registry name with
        | Some f ->
          if f.fam_kind <> kind then
            invalid_arg
              (Printf.sprintf "Metric: %s re-registered as a different kind" name);
          f
        | None ->
          let f =
            { fam_name = name; fam_help = help; fam_kind = kind; fam_instances = [] }
          in
          Hashtbl.add registry name f;
          f
      in
      match List.assoc_opt labels fam.fam_instances with
      | Some i -> i
      | None ->
        let i = make () in
        fam.fam_instances <- (labels, i) :: fam.fam_instances;
        i)

type counter = int Atomic.t
type gauge = float Atomic.t

let counter ?(help = "") ?(labels = []) name : counter =
  match intern ~name ~help ~kind:K_counter ~labels (fun () -> Counter (Atomic.make 0)) with
  | Counter c -> c
  | Gauge _ | Histogram _ -> assert false

let gauge ?(help = "") ?(labels = []) name : gauge =
  match intern ~name ~help ~kind:K_gauge ~labels (fun () -> Gauge (Atomic.make 0.0)) with
  | Gauge g -> g
  | Counter _ | Histogram _ -> assert false

let histogram ?(help = "") ?(labels = []) ?(buckets = default_buckets) name :
    hist =
  match
    intern ~name ~help ~kind:K_histogram ~labels (fun () ->
        Histogram (make_hist buckets))
  with
  | Histogram h -> h
  | Counter _ | Gauge _ -> assert false

let inc ?(by = 1) (c : counter) =
  if Atomic.get on then ignore (Atomic.fetch_and_add c by)

let set (g : gauge) v = if Atomic.get on then Atomic.set g v

let add (g : gauge) v =
  if Atomic.get on then begin
    let rec cas () =
      let cur = Atomic.get g in
      if not (Atomic.compare_and_set g cur (cur +. v)) then cas ()
    in
    cas ()
  end

let observe h v = if Atomic.get on then observe_hist h v

(* Time [f] into histogram [h] (seconds); just [f ()] when disabled. *)
let time h f =
  if Atomic.get on then begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    observe_hist h (Unix.gettimeofday () -. t0);
    r
  end
  else f ()

let snapshot = snapshot_hist

(* ----- read-side views for exposition ----- *)

type value =
  | V_counter of int
  | V_gauge of float
  | V_histogram of snapshot

type sample = { labels : labels; value : value }

type view = {
  name : string;
  help : string;
  kind : kind;
  samples : sample list;  (* sorted by labels *)
}

let read_instrument = function
  | Counter c -> V_counter (Atomic.get c)
  | Gauge g -> V_gauge (Atomic.get g)
  | Histogram h -> V_histogram (snapshot_hist h)

let compare_labels =
  List.compare (fun (a, av) (b, bv) ->
      match String.compare a b with 0 -> String.compare av bv | c -> c)

let families () =
  let fams =
    Mutex.protect reg_lock (fun () ->
        Hashtbl.fold (fun _ f acc -> f :: acc) registry []
        |> List.map (fun f ->
               (f.fam_name, f.fam_help, f.fam_kind, f.fam_instances)))
  in
  List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b) fams
  |> List.map (fun (name, help, kind, instances) ->
         let samples =
           List.map
             (fun (labels, inst) -> { labels; value = read_instrument inst })
             instances
           |> List.sort (fun a b -> compare_labels a.labels b.labels)
         in
         { name; help; kind; samples })

(* Fold another registry's views into this one, as [Agg.merge_views]
   merges two: counters add, gauges keep the larger value, histograms
   add their buckets.  A sample that cannot be registered here (a bad
   name, another kind or bucket layout under its name) is skipped. *)
let absorb views =
  if Atomic.get on then
    List.iter
      (fun v ->
        List.iter
          (fun s ->
            match (v.kind, s.value) with
            | K_counter, V_counter c -> (
              match counter ~help:v.help ~labels:s.labels v.name with
              | ctr -> ignore (Atomic.fetch_and_add ctr c)
              | exception Invalid_argument _ -> ())
            | K_gauge, V_gauge x -> (
              match gauge ~help:v.help ~labels:s.labels v.name with
              | g ->
                let rec cas () =
                  let cur = Atomic.get g in
                  if x > cur && not (Atomic.compare_and_set g cur x) then cas ()
                in
                cas ()
              | exception Invalid_argument _ -> ())
            | K_histogram, V_histogram snap -> (
              match histogram ~help:v.help ~labels:s.labels ~buckets:snap.s_bounds v.name with
              | h
                when Array.length h.bounds = Array.length snap.s_bounds
                     && Array.for_all2 Float.equal h.bounds snap.s_bounds
                     && Array.length snap.s_counts = Array.length h.bounds + 1 ->
                let sh = Domain.DLS.get h.shard_key in
                Array.iteri (fun i c -> sh.counts.(i) <- sh.counts.(i) + c) snap.s_counts;
                sh.sum <- sh.sum +. snap.s_sum;
                sh.cnt <- sh.cnt + snap.s_count
              | _ -> ()
              | exception Invalid_argument _ -> ())
            | (K_counter | K_gauge | K_histogram), _ -> ())
          v.samples)
      views

let reset () = Mutex.protect reg_lock (fun () -> Hashtbl.reset registry)
