(** Domain-safe span tracer: wall-clock spans with nesting, owning
    domain, and per-span field-operation deltas.

    Tracing is globally gated: with it disabled [with_] is one atomic
    load plus the thunk call — no allocation, no buffered record — so
    instrumented hot paths cost nothing in ordinary runs.  Enabled,
    spans accumulate in per-domain buffers (no locking on the parallel
    pool's hot path) and are merged and sorted at collection time. *)

type record = {
  id : int;  (** process-unique id (atomic counter) *)
  parent : int;  (** enclosing span id in the same domain; -1 = root *)
  name : string;
  attrs : (string * string) list;
  domain : int;  (** emitting domain's [Domain.self] *)
  depth : int;  (** nesting depth within the emitting domain *)
  start_s : float;  (** wall-clock start (seconds) *)
  dur_s : float;  (** duration (seconds) *)
  d_adds : int;  (** field-op deltas over the span (0 without a source) *)
  d_muls : int;
  d_invs : int;
}

type ops = unit -> int * int * int
(** An operation source: current (adds, muls, invs) totals; sampled at
    span start and end, the difference is stored on the record.
    Typically [Scope.ops] / [Ledger.op_totals]. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val with_ :
  ?attrs:(string * string) list -> ?ops:ops -> name:string -> (unit -> 'a) -> 'a
(** [with_ ~name f] runs [f] inside a span.  Exception-safe (the span
    is recorded, then the exception re-raised).  A no-op when tracing
    is disabled. *)

val records : unit -> record list
(** All completed spans from every domain, sorted by (start, id).  Call
    when the traced workload is quiescent (buffers of running domains
    are read without synchronization). *)

val flush : unit -> record list
(** [records] + clear all buffers. *)

val reset : unit -> unit
(** Drop all buffered spans (and any stale open-span stacks). *)
