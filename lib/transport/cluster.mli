(** Multi-node cluster driver: N node runtimes plus a voting client
    over loopback threads or forked socket processes, verified against
    a fault-free single-process engine run at the same seed. *)

module Field_intf = Csm_field.Field_intf
module Params = Csm_core.Params

type mode =
  | Loopback  (** threads in this process, in-memory frames *)
  | Uds of string  (** forked processes, Unix-domain sockets in a dir *)
  | Tcp of int  (** forked processes, TCP loopback from a base port *)

val mode_name : mode -> string

module Make (F : Field_intf.S) : sig
  module N : module type of Node.Make (F)
  module W = N.W
  module E = N.E
  module M = N.M

  type config = {
    params : Params.t;
    rounds : int;
    seed : int;
    mode : mode;
    faults : (int * Node.fault) list;
    deadline : float;  (** per-wait upper bound, seconds *)
    trace : bool;
        (** stamp every protocol frame (client and nodes) with the
            frame-v2 trace extension and record per-node spans; off, the
            wire bytes are identical to the pre-v2 runtime *)
    telemetry : bool;
        (** gather each node's final [csm-node-telemetry/2] snapshot
            (metrics, spans, flight ring) for cluster-wide aggregation *)
    stream : float option;
        (** nodes stream in-flight snapshots at most this often
            (seconds), then their final one.  Loopback threads share one
            registry, so there only node 0 streams; forked nodes all
            do.  [None]: no in-flight telemetry *)
    live : Csm_obs.Live.t option;
        (** client-side live store the snapshots merge into; also
            receives the client's commit ticks (k commands per accepted
            round — the windowed-λ feed) and the run-start mark *)
  }

  type result = {
    ledger : string option array;
        (** per round, the Output payload at least b+1 nodes agreed on *)
    reference : string array;
        (** the payloads of a fault-free single-process run, same seed *)
    outputs_received : int array;
        (** validated Output frames the client saw per round *)
    stats : Transport.stats option array;
        (** per-endpoint transport counters: the n nodes, then the
            client last *)
    telemetry : Csm_obs.Agg.snapshot list;
        (** when [config.telemetry]: the nodes' final snapshots (node-id
            order) then the client's own, every entry round-tripped
            through the wire codec; [[]] otherwise *)
    run_seconds : float;
        (** client wall time from the first Command broadcast to the
            last round's vote — the whole-run λ denominator the live
            windowed rate is checked against *)
    ok : bool;  (** every round accepted and byte-equal to the reference *)
  }

  val initial_states : config -> F.t array array
  val machine : config -> M.t

  val workload : Csm_rng.t -> k:int -> int -> F.t array array
  (** The deterministic per-round commands both the client and the
      reference run derive from the seed. *)

  val reference_ledger : config -> string array

  val run : config -> result
  (** Run the cluster end to end (socket modes fork one child per node
      before doing any pool/thread work in the parent) and verify the
      voted ledger against the reference. *)
end
