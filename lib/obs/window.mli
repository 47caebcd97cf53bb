(** Sliding windows: one ring of time-bucketed histograms, backing the
    live λ / per-phase rate gauges and the rolling round-latency
    quantiles of the streaming telemetry plane.

    A window covers the last {!span_s} seconds quantised into buckets of
    {!bucket_s} seconds.  Writers pay one array update per record; reads
    fold the live buckets.  Every operation takes an optional [?now] so
    tests can drive the clock explicitly — the wall clock is only the
    default.  A window is not thread-safe on its own: its owner
    ({!Live}) calls it under the owner's lock. *)

val bucket_s : float
(** 0.05 s: the time resolution of every window. *)

val span_s : float
(** 60 s: how far back every window reaches. *)

type t
(** A ring of per-bucket histogram shards sharing one bound layout.  A
    window with no bounds is a counter: read it through [rate]. *)

val create : ?buckets:float array -> unit -> t
(** [buckets] are the histogram's upper bounds; none (the default)
    makes a counter.
    @raise Invalid_argument unless the bounds strictly increase. *)

val mark : ?now:float -> t -> unit
(** Note that observation started (recording nothing), so [rate]
    divides by the real elapsed time since the first mark/add rather
    than a bucket-aligned window start. *)

val add : ?now:float -> t -> float -> unit
(** Record one value [v] in the bucket covering [now]: one count in the
    bound bucket [v] falls in, plus [v] in the sum. *)

val add_snapshot : ?now:float -> t -> Metric.snapshot -> unit
(** Fold a (delta) histogram snapshot into the bucket covering [now] —
    how the live store turns successive cumulative node snapshots into
    windowed ones.  A layout mismatch (untrusted input) is dropped, not
    fatal. *)

val snapshot : ?now:float -> t -> Metric.snapshot
(** Merged snapshot of the live buckets; feed {!Metric.quantile} for
    the rolling p50/p95/p99. *)

val rate : ?now:float -> t -> float
(** The live buckets' summed values per second over the covered span —
    the elapsed time since the first mark/add, clamped to
    [[bucket_s, span_s]]; [0.] before any mark or add. *)
