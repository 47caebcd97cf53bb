(** The transport abstraction of the node runtime: non-blocking [send],
    deadline-bounded [recv], totals counted identically by every
    implementation (loopback and sockets are interchangeable and
    bit-compatible on the wire).

    Invariants every implementation provides:
    - [send] never blocks on a dead/slow/silent peer;
    - [recv ~timeout] returns a delivered frame, or [None] once the
      endpoint is closed or [timeout] seconds pass; frames from one
      sender come back in the order they were sent.  {!Socket} wakes on
      arrival, and moves its queued outbound bytes only inside its own
      calls, so a caller waits in [recv] after it sends; {!Loopback}
      polls with a short sleep;
    - malformed frames are counted in [stats.frame_errors] and dropped,
      never raised. *)

module Frame = Csm_wire.Frame

type stats = {
  mutable frames_sent : int;
  mutable frames_received : int;
  mutable bytes_sent : int;  (** full frame bytes, header included *)
  mutable bytes_received : int;
  mutable frame_errors : int;  (** malformed frames detected and dropped *)
}

val zero_stats : unit -> stats

type t = {
  id : int;
  endpoints : int;
  send : dst:int -> Frame.t -> unit;
  recv : timeout:float -> Frame.t option;
  close : unit -> unit;
  stats : stats;
  stats_mutex : Mutex.t;  (** guards [stats] *)
}

val record_sent : t -> int -> unit
val record_received : t -> int -> unit
val record_error : t -> unit

val snapshot : t -> stats
(** Consistent copy of the counters (a loopback sender updates its
    destination's counters from its own thread). *)
