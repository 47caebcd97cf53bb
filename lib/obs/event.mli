(** Structured, leveled protocol-event log, stored in a {!Flight} ring.

    Gated by [CSM_EVENTS] (read by {!Exporter.install}) or [set_level];
    with logging disabled [emit] is one atomic load and allocates
    nothing.  The ring keeps the newest [capacity] events.  Any thread
    may emit: [emit] and [recent] take the log's own lock, since a
    flight ring has none. *)

type level = Debug | Info | Warn | Error

type t = Flight.entry
(** [f_kind] is the event name, the first of [f_attrs] is
    [("level", level_name l)] followed by the emitted attributes, and
    [f_hlc] is the process HLC ({!Clock.now}) at emission — strictly
    increasing in emission order.  [f_round] is 0. *)

val capacity : int

val set_level : level option -> unit
(** [None] disables logging entirely. *)

val current_level : unit -> level option

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
(** Events the ring overwrote before they were read,
    [max 0 (total () - capacity)] (the [csm_events_dropped_total]
    signal). *)

val reset : unit -> unit

val pp : Format.formatter -> t -> unit
(** [[level] name k=v ...] *)
