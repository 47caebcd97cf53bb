(** Per-node flight recorder: a bounded, always-on ring of HLC-stamped
    round events (phase transitions, frame sends/receives, errors),
    dumped as part of a [csm-flightrec/1] document only when a run goes
    wrong — ledger divergence, frame errors, decoder suspicion.

    Instance-based: loopback clusters run N node runtimes in one
    process and each gets its own black box; the process-global
    {!Event} log keeps its entries in one more instance.

    A ring has a single owner: it takes no lock, so one thread records
    into it and reads it (a node runtime captures its own ring at the
    end of its run).  A ring shared by several threads needs its
    owner's lock around every call; {!Event} holds one.

    The ring is flat — one preallocated slot per entry and field — so
    {!record_fields} with literal strings allocates nothing: a node's
    per-frame entries leave no garbage for the minor GC to promote. *)

type entry = {
  f_hlc : Clock.stamp;  (** HLC stamp at the moment of recording *)
  f_trace : int64;  (** causal trace id; 0 when untraced *)
  f_round : int;
  f_kind : string;  (** "phase" | "send" | "recv" | "error" *)
  f_attrs : (string * string) list;
}

type t

val create : ?capacity:int -> node:int -> unit -> t
(** [capacity] defaults to 512 entries.
    @raise Invalid_argument on a non-positive capacity. *)

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

val record_fields :
  t ->
  trace:int64 ->
  hlc:Clock.stamp ->
  round:int ->
  peer_key:string ->
  peer:int ->
  frame:string ->
  note_key:string ->
  note:string ->
  string ->
  unit
(** [record] for the entries a node runtime writes per frame and phase,
    without allocating.  The entry's attributes are, in order,
    [(peer_key, string_of_int peer)] unless [peer < 0],
    [("frame", frame)] unless [frame = ""], and [(note_key, note)]
    unless [note_key = ""].  The strings are stored as given, so pass
    literals (such as [Frame.kind_name]'s). *)

val recorded : t -> int
(** Entries ever recorded, including overwritten ones. *)

val entries : t -> entry list
(** Surviving entries, oldest first — which is also HLC order, since
    every local stamp strictly increases. *)

val entry_json : entry -> Json.t

val decode_entry_json : Json.t -> entry option
(** Total inverse of {!entry_json}: malformed input yields [None]. *)

