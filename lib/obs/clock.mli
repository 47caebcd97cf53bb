(** Hybrid logical clock: per-process stamps close to wall time but
    causally consistent — [observe]d receive stamps strictly exceed the
    sender's stamp, so one integer comparison orders cross-node events
    in the merged cluster trace even when host wall clocks disagree.

    A stamp is one native int, milliseconds in the high bits and a
    16-bit logical tie-breaker in the low bits, so plain [Int.compare]
    is the causal order and a stamp crosses the wire as the frame
    extension's u64 unchanged.  Domain-safe: all updates are CAS loops
    on one atomic. *)

type stamp = int

val now : unit -> stamp
(** Issue a send stamp: strictly greater than every stamp this process
    issued before, and at least the current wall millisecond. *)

val observe : stamp -> stamp
(** Merge a remote stamp on receive and issue the local stamp for the
    receive event: strictly greater than both the remote stamp and
    every prior local stamp. *)

val peek : unit -> stamp
(** The clock's current value, without advancing it. *)

val join : stamp -> stamp -> stamp
(** Componentwise max — commutative, associative, idempotent; the fold
    the telemetry aggregator uses across node stamps. *)

val compare : stamp -> stamp -> int
(** Causal order; equals [Int.compare]. *)

val ms : stamp -> int
(** Physical component, milliseconds since the epoch. *)

val count : stamp -> int
(** Logical component (0 .. 2¹⁶−1). *)

val pack : ms:int -> count:int -> stamp
(** @raise Invalid_argument on a negative ms or out-of-range count. *)

val seconds : stamp -> float
(** Physical component in seconds (for trace timestamps). *)

val to_wire : stamp -> int64
(** The frame-extension encoding. *)

val of_wire : int64 -> stamp
(** Total inverse of [to_wire]: an out-of-range u64 from an untrusted
    peer clamps to stamp 0, which merges as a no-op. *)

val skew_seconds : stamp -> float
(** |physical component − wall clock now|: how far causality (or a
    clock step) has pulled this process's HLC away from real time. *)

val mono : unit -> float
(** Never-decreasing wall-clock seconds: [Unix.gettimeofday] clamped so
    a backwards step (NTP, VM migration) cannot produce negative
    deltas. *)

val pp : Format.formatter -> stamp -> unit
