(** The full networked CSM protocol: consensus phase (Dolev–Strong or
    PBFT) + coded execution phase over the simulator, with client-side
    output delivery (Figure 1 / Section 2.1 of the paper). *)

module Field_intf = Csm_field.Field_intf
module Auth = Csm_crypto.Auth

module Make (F : Field_intf.S) : sig
  module E : module type of Engine.Make (F)
  module W : module type of Wire.Make (F)

  type config = {
    params : Params.t;
    delta : int;
    keyring : Auth.keyring;
    pbft_base_timeout : int;
    gst : int;
    pre_gst_delay : int;
    early_decode : bool;
        (** sync mode: decode at d(K−1)+2b+1 results instead of waiting Δ
            (straggler tolerance) *)
  }

  val default_config : Params.t -> config

  type adversary = {
    byzantine : int -> bool;
    exec_message : node:int -> dst:int -> F.t array -> F.t array option;
        (** per-destination execution-phase message ([None] withholds) *)
    consensus_equivocate : bool;
    client_lie : node:int -> F.t array -> F.t array;
  }

  val passive_adversary : adversary
  val lying_adversary : int list -> adversary
  val equivocating_adversary : int list -> adversary
  (** Correct vectors to even peers, corrupted to odd peers. *)

  val withholding_adversary : int list -> adversary

  type consensus_outcome =
    | Agreed of F.t array array
    | Skipped
    | Disagreement

  val execution_phase :
    ?scope:Csm_metrics.Scope.t ->
    ?latency_override:Csm_sim.Net.latency ->
    ?decode_times:int array ->
    config ->
    E.t ->
    commands:F.t array array ->
    adversary ->
    E.decoded option array
  (** Per-node decode results after the simulated execution phase
      (Byzantine slots are [None]).  [decode_times.(i)] receives the
      simulation time at which honest node [i] decoded.  When tracing is
      enabled the phase emits "exec.phase" with "exec.encode",
      "exec.compute" and "exec.deliver" sub-spans. *)

  val vote : threshold:int -> F.t array list -> F.t array option

  type round_outcome = {
    round : int;
    consensus : consensus_outcome;
    executed : bool;
    honest_agree : bool;
    decoded : E.decoded option;
    delivered : F.t array option array;
  }

  val run_round :
    ?scope:Csm_metrics.Scope.t ->
    ?validate:(string -> bool) ->
    config ->
    E.t ->
    round:int ->
    commands:F.t array array ->
    adversary ->
    round_outcome
  (** [validate] is applied by honest nodes to the agreed value, the
      round's Command frame payload ([W.encode_commands_bin]) (the
      Validity property); rejection skips the round consistently. *)

  val run :
    ?scope:Csm_metrics.Scope.t ->
    ?progress:(round_outcome -> unit) ->
    config ->
    E.t ->
    workload:(int -> F.t array array) ->
    rounds:int ->
    adversary ->
    round_outcome list
  (** [progress] is invoked after each round completes (live tickers /
      logging); it does not affect the protocol. *)

  type submission = { client : int; command : F.t array }

  type delivery = {
    d_round : int;
    d_machine : int;
    d_client : int;  (** -1 for noop slots *)
    d_output : F.t array option;
  }

  type client_run = {
    outcomes : round_outcome list;
    deliveries : delivery list;
    leftover : int;
  }

  val noop_command : int -> F.t array

  val run_with_clients :
    ?scope:Csm_metrics.Scope.t ->
    config ->
    E.t ->
    submissions:(int -> submission list array) ->
    rounds:int ->
    adversary ->
    client_run
  (** Full client layer: per-round per-machine submissions enter shared
      pools; leaders propose pool heads; honest nodes enforce Validity;
      executed commands are dequeued with outputs attributed to their
      submitting clients. *)
end
