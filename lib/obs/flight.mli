(** Per-node flight recorder: a bounded, always-on ring of HLC-stamped
    round events (phase transitions, frame sends/receives, errors),
    dumped as part of a [csm-flightrec/1] document only when a run goes
    wrong — ledger divergence, frame errors, decoder suspicion.

    Instance-based, unlike the process-global {!Event} log: loopback
    clusters run N node runtimes in one process and each gets its own
    black box.  Thread-safe per instance. *)

type entry = {
  f_hlc : Clock.stamp;  (** HLC stamp at the moment of recording *)
  f_trace : int64;  (** causal trace id; 0 when untraced *)
  f_round : int;
  f_kind : string;  (** "phase" | "send" | "recv" | "error" *)
  f_attrs : (string * string) list;
}

type t

val default_capacity : int

val create : ?capacity:int -> node:int -> unit -> t
(** @raise Invalid_argument on a non-positive capacity. *)

val node : t -> int
val capacity : t -> int

val record :
  t ->
  ?trace:int64 ->
  ?attrs:(string * string) list ->
  hlc:Clock.stamp ->
  round:int ->
  string ->
  unit
(** Append an entry, overwriting the oldest once full. *)

val recorded : t -> int
(** Entries ever recorded, including overwritten ones. *)

val entries : t -> entry list
(** Surviving entries, oldest first — which is also HLC order, since
    every local stamp strictly increases. *)

val entry_json : entry -> Json.t

val decode_entry_json : Json.t -> entry option
(** Total inverse of {!entry_json}: malformed input yields [None]. *)

