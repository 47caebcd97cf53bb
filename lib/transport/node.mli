(** One CSM node runtime over an abstract {!Transport.t}: owns its coded
    state S̃ᵢ (in a local engine instance) and speaks the Frame protocol
    for the commit → compute → decode round structure.  Inbound payloads
    are validated at intake with the total binary decoders: malformed
    bodies count one transport frame error and are dropped, never
    raised; collect loops are deadline-bounded so silent peers cannot
    stall a round. *)

module Field_intf = Csm_field.Field_intf
module Frame = Csm_wire.Frame
module Params = Csm_core.Params

type lie_spec = {
  l_offset : int;  (** field perturbation added to targeted coordinates *)
  l_coord : int option;  (** [None]: every coordinate; [Some c]: just c *)
  l_period : int;  (** lie on rounds r with (r − l_from) mod period = 0 *)
  l_from : int;  (** first lying round *)
}

val lie_default : lie_spec
(** Offset 1, every coordinate, every round from round 0 — the
    original always-on [lie] fault. *)

val lie_spec_eq : lie_spec -> lie_spec -> bool
val lie_active : lie_spec -> round:int -> bool

type fault =
  | Honest
  | Drop  (** withhold every protocol frame *)
  | Delay of float  (** send protocol frames late by this many seconds *)
  | Corrupt  (** mangle every protocol payload (detectably malformed) *)
  | Lie of lie_spec
      (** broadcast a well-formed but wrong Result vector while keeping
          honest local state and honest Commit echoes — intake
          validation passes; only the peers' Reed–Solomon decode
          catches it, attributing the error locations to the liar
          (suspicion gauge, live [suspicion] alert).  The spec
          parameterizes the perturbation and its round schedule, so
          synthesized adversary strategies map onto it. *)

val fault_name : fault -> string

val delivers : fault -> bool
(** Whether a node with this fault contributes validated protocol frames
    ([Honest]/[Delay]/[Lie] do; [Drop] withholds, [Corrupt] frames are
    rejected at intake). *)

module Make (F : Field_intf.S) : sig
  module W : module type of Csm_core.Wire.Make (F)
  module E : module type of Csm_core.Engine.Make (F)
  module M = E.M

  type config = {
    node : int;
    params : Params.t;
    machine : M.t;
    init : F.t array array;  (** the K initial states, shared by all *)
    rounds : int;
    fault : fault;  (** this node's own transport-level fault *)
    faults : (int * fault) list;  (** the whole cluster's fault map *)
    deadline : float;  (** per-wait upper bound, seconds *)
    trace : bool;
        (** stamp outbound protocol frames with the v2 trace extension
            (trace id + HLC send stamp) and enable span recording; off,
            the node's wire bytes are identical to the pre-v2 runtime *)
    telemetry : bool;
        (** after the Stats reply, ship the run's final
            [csm-node-telemetry/2] snapshot (every metric family, the
            spans and this node's flight ring) in a Telemetry frame *)
    stream : float option;
        (** also stream snapshots of the changed families (every family
            first and every tenth time) at most this often (seconds),
            then the final one.  [None]: no in-flight telemetry.  Like
            Stats, Telemetry frames are exempt from the node's fault *)
    scope : Csm_obs.Agg.scope;
        (** what this runtime's registry snapshots describe: [Process]
            when node threads share one registry (loopback), [Node]
            when this process owns it (forked modes) — drives the
            client-side source keying ({!Csm_obs.Agg.source}) *)
  }

  val corrupt_payload : string -> string
  (** The [Corrupt] fault's mangling (exposed for tests): flips a byte
      and drops the last, so every total decoder rejects the result. *)

  val stats_payload : Transport.stats -> string
  (** Binary Stats-frame payload: five big-endian u64 counters. *)

  val decode_stats_payload : string -> Transport.stats option

  val run : config -> Transport.t -> unit
  (** Run all configured rounds, wait for the client's [Shutdown], reply
      with a [Stats] frame (then the final telemetry snapshot, when
      [telemetry] or [stream] is on), close the transport.  Never
      raises on Byzantine input. *)
end
