(** Real socket transport (Unix-domain or TCP loopback): one listening
    socket per endpoint, length-prefixed {!Csm_wire.Frame} frames on the
    byte stream, per-peer sender threads with connection retry and
    exponential backoff, one receiver thread that multiplexes every
    inbound connection, validates every header and counts malformed
    frames instead of crashing. *)

type addr =
  | Uds of string
      (** Directory holding one [ep-<id>.sock] Unix-domain socket per
          endpoint. *)
  | Tcp of int
      (** Base port on 127.0.0.1; endpoint [i] listens on [base + i]. *)

val sockaddr_of : addr -> int -> Unix.sockaddr
(** The listening address of endpoint [id] under [addr]. *)

val endpoint : addr:addr -> id:int -> endpoints:int -> Transport.t
(** Create endpoint [id] of a cluster of [endpoints]: binds and listens
    immediately (so peers can connect as soon as they come up), connects
    outbound lazily on first [send] to each destination.

    Ignores SIGPIPE for the whole process: a send to a peer that has
    died fails with [EPIPE] on that peer's sender thread (the frame is
    dropped and the connection retried) instead of killing the process
    with signal 13. *)
