(** Minimal single-threaded HTTP/1.1 scrape responder — just enough
    protocol for a Prometheus scraper, [curl] and the test client:
    GET only, one connection at a time, [Content-Length] +
    [Connection: close] on every response.

    The accept loop runs on its own thread and parses requests totally:
    garbage on the socket yields a 400, an unknown path a 404, a
    non-GET method a 405 — never an exception.  [stop] shuts the loop
    down and joins the thread. *)

type response = { status : int; content_type : string; body : string }

val text : ?status:int -> ?content_type:string -> string -> response
(** Defaults: 200, [text/plain; version=0.0.4] (the Prometheus
    exposition content type). *)

type t

val serve : ?port:int -> (string -> response option) -> t
(** Bind 127.0.0.1:[port] (default 0 = ephemeral) and serve [handler
    path] per GET request; [None] renders a 404.  The handler runs on
    the server thread — keep it quick and thread-safe.

    Ignores SIGPIPE for the whole process, so a client that disconnects
    mid-response costs that connection only (the write fails with
    [EPIPE]).  Each connection gets 1 s send and receive timeouts: a
    client that sends no complete request in time is answered 400, and
    one that stops reading is dropped, so an idle client cannot hold
    the one-at-a-time loop or [stop].
    @raise Unix.Unix_error when the port cannot be bound. *)

val port : t -> int
(** The bound port (useful with [~port:0]). *)

val stop : t -> unit
(** Stop accepting, join the server thread, close the socket.
    Idempotent. *)

val get : ?host:string -> port:int -> string -> (int * string) option
(** Tiny blocking client for tests and the terminal ticker:
    [get ~port path] returns (status, body), or [None] on any
    connection/protocol error. *)
