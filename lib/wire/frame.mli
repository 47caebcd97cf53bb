(** Versioned tagged wire frame: the binary envelope of every CSM
    protocol message, shared by the simulator's byte accounting (the
    [?size] sizers of [Csm_sim.Net.run]) and the real transports.

    Two wire versions coexist: version 1 is the bare header + payload,
    version 2 inserts a fixed 16-byte causal-trace extension (64-bit
    trace id + 64-bit hybrid-logical-clock stamp) between header and
    payload.  The header's length field counts payload bytes only, so
    both versions frame identically on a byte stream.

    Decoding is total — malformed input yields [None], never raises —
    so a Byzantine peer cannot crash a receiver with a crafted frame.
    The sender field is the unauthenticated channel claim; signatures
    are [Csm_crypto]'s job, and the trace extension is an
    unauthenticated observability hint. *)

type kind =
  | Command  (** client → nodes: the round's K command vectors *)
  | Commit  (** node → node: consensus payload over the agreed commands *)
  | Result  (** node → node: the coded execution result gᵢ *)
  | Output  (** node → client: decoded outputs Ŷ + next states Ŝ *)
  | Stats  (** node → client: end-of-run transport counters *)
  | Shutdown  (** client → nodes: drain and exit *)
  | Telemetry  (** node → client: end-of-run observability bundle *)

val tag_of_kind : kind -> int
val kind_of_tag : int -> kind option

(** [kind_eq a b]: structural kind equality without polymorphic
    compare. *)
val kind_eq : kind -> kind -> bool
val kind_name : kind -> string

type ext = {
  trace_id : int64;  (** the causal trace this frame belongs to *)
  hlc : int64;  (** packed HLC stamp at send time (see {!Csm_obs.Clock}) *)
}
(** The version-2 causal-trace extension.  16 bytes on the wire:
    big-endian trace id then big-endian HLC stamp. *)

type t = {
  version : int;
  kind : kind;
  sender : int;
  round : int;
  ext : ext option;  (** [Some] iff [version >= ext_version] *)
  payload : string;
}

val current_version : int
(** The bare v1 wire version — the default of {!make} without [?ext]. *)

val ext_version : int
(** The first version carrying the trace extension (2). *)

val header_bytes : int
(** Fixed header size (16): magic, version, kind, sender, round,
    payload length. *)

val ext_bytes : int
(** Size of the version-2 trace extension (16). *)

val max_payload_bytes : int
(** Decoders reject larger length claims before allocating. *)

val encoded_size : payload_bytes:int -> int
(** Exact on-wire size of a {e version-1} frame carrying
    [payload_bytes] of payload.  The simulator sizers use this so
    simulated byte counts equal real socket bytes; for a frame value of
    either version use {!size}. *)

val size : t -> int
(** Exact on-wire size of [t], extension included:
    [String.length (encode t) = size t]. *)

val make :
  ?version:int -> ?ext:ext -> kind:kind -> sender:int -> round:int -> string -> t
(** Without [?version], the version is inferred from [?ext]: bare
    frames are v1, extended frames are v2.
    @raise Invalid_argument on out-of-range fields or a version/ext
    mismatch (an extension requires version ≥ {!ext_version} and vice
    versa). *)

val encode : t -> string
(** @raise Invalid_argument on out-of-range fields. *)

val decode : string -> t option
(** Exact-length decode: trailing bytes after the payload are rejected. *)

type header = {
  h_version : int;
  h_kind : kind;
  h_sender : int;
  h_round : int;
  h_ext_bytes : int;  (** 0 for v1, {!ext_bytes} for v2 *)
  h_payload_bytes : int;
}

val decode_header : ?pos:int -> string -> header option
(** Validate the 16 header bytes at [pos] (magic, version, tag, field
    ranges) and return the parsed header — the socket read loop's first
    step before reading [body_bytes h] more. *)

val body_bytes : header -> int
(** Bytes that follow the header on the wire: extension + payload. *)

val of_header : header -> body:string -> t option
(** [body] is everything after the 16 header bytes — the extension
    (when the header claims one) immediately followed by the payload.
    Rejects a body whose length differs from [body_bytes h]. *)

val frame_bytes : string -> pos:int -> int
(** On-wire size of the frame whose header starts at [pos] (header,
    extension and payload, as the header claims), or -1 when the 16
    header bytes there are missing or malformed.  Allocates nothing: a
    byte-stream reader learns how much to wait for before it decodes. *)

val decode_at : string -> pos:int -> t option
(** In-place decode of the frame starting at [pos] of a buffer that may
    hold more after it (the next frame): [None] unless its header is
    valid and its whole body is there.  The payload is the one copy
    made. *)

val pp : Format.formatter -> t -> unit
