(** Field-operation counters used to measure the paper's throughput metric
    λ = K / (Σᵢ per-node operation count / N), Section 2.2.

    Counters are domain-safe: increments are atomic, so work attributed
    to one role from several threads or domains still yields exact
    totals. *)

type t

val create : unit -> t

val reset : t -> unit

val add : t -> unit
(** Record one addition / subtraction / negation. *)

val mul : t -> unit
(** Record one multiplication. *)

val inv : t -> unit
(** Record one inversion / division. *)

val bulk : t -> adds:int -> muls:int -> invs:int -> unit
(** Record many operations at once (one atomic add per kind) — the batch
    kernels' accounting path.  Totals are identical to issuing the same
    number of single-op records. *)

val adds : t -> int
val muls : t -> int
val invs : t -> int

val inv_weight : int
(** Flat cost charged per inversion in [total]. *)

val total : t -> int
(** Total operation count: [adds + muls + inv_weight * invs]. *)

val snapshot : t -> int * int * int
(** Cheap (adds, muls, invs) snapshot — three atomic loads, no
    allocation — for attributing op deltas to a span without resetting
    a counter that other roles / domains are still writing. *)

val diff :
  before:int * int * int -> after:int * int * int -> int * int * int
(** Component-wise [after - before] of two snapshots. *)

val total_of : int * int * int -> int
(** Weighted total of a snapshot/diff triple ([total] on live
    counters). *)

val copy : t -> t
(** Immutable counter holding the current counts. *)

val pp : Format.formatter -> t -> unit
