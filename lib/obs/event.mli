(** Structured, leveled protocol-event log over a fixed ring buffer.

    Gated by [CSM_EVENTS] (via [install]) or [set_level]; with logging
    disabled [emit] is one atomic load and allocates nothing.  The ring
    keeps the newest [capacity] events. *)

type level = Debug | Info | Warn | Error

type t = {
  seq : int;  (** process-unique, monotone emission index — wall clock
      [ts] and [mono] are sampled in emission order but may tie *)
  ts : float;  (** wall clock at emission ([Unix.gettimeofday],
      seconds since the epoch): the human-readable absolute time, but
      subject to NTP steps and VM-migration jumps, so deltas between
      two events' [ts] can be negative or wildly wrong *)
  mono : float;  (** never-decreasing clock at emission ({!Clock.mono},
      seconds): use [b.mono -. a.mono] for durations and event-log
      deltas — clamped so it cannot go backwards even when the wall
      clock does *)
  level : level;
  name : string;
  attrs : (string * string) list;
}

val capacity : int

val set_level : level option -> unit
(** [None] disables logging entirely. *)

val current_level : unit -> level option
val enabled : level -> bool

val level_name : level -> string
val level_of_string : string -> level option

val emit : ?attrs:(string * string) list -> level -> string -> unit
(** Record an event when [level] clears the threshold; a no-op (one
    atomic load) otherwise. *)

val recent : unit -> t list
(** Surviving events, oldest first. *)

val total : unit -> int
(** Events emitted since the last [reset], including overwritten ones. *)

val dropped : unit -> int
(** Events the ring overwrote before they were read (the
    [csm_events_dropped_total] signal). *)

val reset : unit -> unit

val install : unit -> unit
(** Read [CSM_EVENTS] once (debug|info|warn|error) and set the level
    accordingly.  Idempotent; free when unset. *)

val pp : Format.formatter -> t -> unit
