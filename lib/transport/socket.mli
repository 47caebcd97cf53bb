(** Real socket transport (Unix-domain or TCP loopback): one listening
    socket per endpoint, length-prefixed {!Csm_wire.Frame} frames on the
    byte stream, per-peer outboxes with connection retry and exponential
    backoff, malformed frames counted instead of crashing.

    An endpoint runs no thread and moves its outbound bytes only inside
    its own [send], [recv] and [close]: [send] writes what the kernel
    takes at once and queues the rest, which [recv] flushes — so a
    caller waits in [recv] after it sends.  One thread at a time may use
    an endpoint. *)

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
    outbound on the first [send] to each destination.  [close] returns
    at once; frames still queued go to a lingering writer, which keeps
    connecting and writing for at most 1 s ({!linger}).

    Ignores SIGPIPE for the whole process: a send to a peer that has
    died fails with [EPIPE] on that connection (the frame is retried on
    one new connection, then dropped) instead of killing the process
    with signal 13. *)

val linger : unit -> unit
(** Wait for every lingering writer of this process, each done at most
    1 s after the [close] that started it.  A process calls it before
    exiting right after a [close]. *)
