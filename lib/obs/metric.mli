(** Domain-safe metrics registry: atomic counters, gauges, and
    fixed-bucket log-scale histograms with lock-free per-domain shards
    and an associative merge.

    Recording is globally gated (like [Span]): with metrics disabled
    every record call is one atomic load and allocates nothing.
    Identity is (name, sorted labels); re-registering returns the
    existing instrument, so hot paths may look handles up on demand. *)

type labels = (string * string) list

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** {1 Instruments} *)

type counter
type gauge
type hist

val counter : ?help:string -> ?labels:labels -> string -> counter
(** Monotone event count ([_total] naming convention). *)

val gauge : ?help:string -> ?labels:labels -> string -> gauge
(** Point-in-time float value. *)

val histogram :
  ?help:string -> ?labels:labels -> ?buckets:float array -> string -> hist
(** Distribution over fixed buckets; [buckets] are strictly increasing
    upper bounds (default: [default_buckets]).  All instruments of one
    family must share bucket layout for exposition to make sense.
    @raise Invalid_argument on an empty/unsorted layout or a name
    re-registered as a different kind. *)

val inc : ?by:int -> counter -> unit

val set : gauge -> float -> unit
val add : gauge -> float -> unit

val observe : hist -> float -> unit
(** Lock-free after a domain's first observation on the instrument. *)

val time : hist -> (unit -> 'a) -> 'a
(** Run the closure and observe its wall-clock duration in seconds;
    exactly [f ()] (no clock reads) when metrics are disabled. *)

(** {1 Bucket layouts} *)

val log_buckets : ?lo:float -> ?factor:float -> ?count:int -> unit -> float array
(** [lo · factorⁱ] for i in [0, count): log-scale upper bounds. *)

val default_buckets : float array
(** 1µs … ~1000s, factor 4 (latency-shaped). *)

(** {1 Snapshots} *)

type snapshot = {
  s_bounds : float array;  (** bucket upper bounds *)
  s_counts : int array;  (** per-bucket counts; overflow (+Inf) last *)
  s_sum : float;
  s_count : int;
}

val snapshot : hist -> snapshot
(** Merge of all per-domain shards; schedule-independent counts. *)

val merge : snapshot -> snapshot -> snapshot
(** Associative and commutative combine of same-layout snapshots.
    @raise Invalid_argument on a bucket-layout mismatch. *)

val quantile : snapshot -> float -> float
(** Nearest-rank quantile estimate — the upper bound of the bucket
    holding rank ⌈q·count⌉ (exact to within one bucket); [0.] when
    empty. *)

(** {1 Registry views (for exposition)} *)

type kind = K_counter | K_gauge | K_histogram

type value =
  | V_counter of int
  | V_gauge of float
  | V_histogram of snapshot

type sample = { labels : labels; value : value }

type view = {
  name : string;
  help : string;
  kind : kind;
  samples : sample list;  (** sorted by labels *)
}

val families : unit -> view list
(** Every registered family, sorted by name, with current values. *)

val absorb : view list -> unit
(** Fold another registry's views (a forked node's final snapshot) into
    this one, as [Agg.merge_views] merges: counters add, gauges
    keep the larger value, histograms add their buckets.  Samples that
    do not fit here (a bad name, another kind or bucket layout) are
    skipped; a no-op while metrics are disabled. *)

val reset : unit -> unit
(** Drop the whole registry (tests / per-run isolation).  Handles
    interned before the reset keep working but are no longer
    exported. *)
