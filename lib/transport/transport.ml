(* The transport abstraction: what a CSM node runtime needs from the
   network, as a record of closures so in-process loopback and real
   sockets are interchangeable at runtime (the cluster driver picks one
   from a CLI flag).

   Contract shared by every implementation:

   - [send] hands a frame to the transport and returns immediately; it
     never blocks on a dead, slow or silent peer (per-peer queues, so a
     Byzantine peer cannot stall a round from the sender side);
   - [recv] returns the next delivered frame, waiting at most [timeout]
     seconds; [None] means the deadline passed — the receiver-side
     guard against silent peers — or the endpoint is closed.  Sockets
     wake a waiting [recv] on arrival (its [select] also writes out
     what earlier [send]s left queued), loopback polls with a short
     sleep;
   - a frame that fails header validation is counted in
     [stats.frame_errors] and dropped, never surfaced as an exception;
   - [stats] counts frames/bytes at the moment of hand-off to the
     transport ([send]) and of delivery to the receiving endpoint, so
     loopback and socket runs of the same protocol produce identical
     counts. *)

module Frame = Csm_wire.Frame
module Lockdep = Csm_parallel.Lockdep

type stats = {
  mutable frames_sent : int;
  mutable frames_received : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable frame_errors : int;
}

let zero_stats () =
  {
    frames_sent = 0;
    frames_received = 0;
    bytes_sent = 0;
    bytes_received = 0;
    frame_errors = 0;
  }

type t = {
  id : int;  (* this endpoint's id; frames it sends carry it as sender *)
  endpoints : int;  (* valid destination ids are 0 .. endpoints-1 *)
  send : dst:int -> Frame.t -> unit;
  recv : timeout:float -> Frame.t option;
  close : unit -> unit;
  stats : stats;
  stats_mutex : Lockdep.t;
}

let locked t f = Lockdep.with_lock t.stats_mutex f

let record_sent t bytes =
  locked t (fun () ->
      t.stats.frames_sent <- t.stats.frames_sent + 1;
      t.stats.bytes_sent <- t.stats.bytes_sent + bytes)

let record_received t bytes =
  locked t (fun () ->
      t.stats.frames_received <- t.stats.frames_received + 1;
      t.stats.bytes_received <- t.stats.bytes_received + bytes)

let record_error t =
  locked t (fun () -> t.stats.frame_errors <- t.stats.frame_errors + 1)

let snapshot t =
  locked t (fun () ->
      {
        frames_sent = t.stats.frames_sent;
        frames_received = t.stats.frames_received;
        bytes_sent = t.stats.bytes_sent;
        bytes_received = t.stats.bytes_received;
        frame_errors = t.stats.frame_errors;
      })
