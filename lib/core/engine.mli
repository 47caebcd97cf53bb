(** The coded execution engine of Section 5.2 (network-free, phase by
    phase, deterministic). *)

module Field_intf = Csm_field.Field_intf
module Scope = Csm_metrics.Scope

module Make (F : Field_intf.S) : sig
  module Coding : module type of Coding.Make (F)
  module M : module type of Csm_machine.Machine.Make (F)
  module RS : module type of Csm_rs.Reed_solomon.Make (F)

  type t = {
    machine : M.t;
    params : Params.t;
    coding : Coding.t;
    mutable coded_states : F.t array array;
    mutable round_index : int;
    rs_ctxs : (int list, RS.fast_ctx) Hashtbl.t;
        (** cached optimistic-decode precomputations (prepared
            subproduct trees), one per set of reporting node ids in
            received order; at most [n], cleared when full *)
    scratch : scratch;  (** the early decode's room, reused by every call *)
  }

  and scratch

  val result_dim : t -> int
  (** state_dim + output_dim: the dimension of gᵢ. *)

  val create : machine:M.t -> params:Params.t -> init:F.t array array -> t
  (** @raise Invalid_argument on arity/degree/feasibility violations. *)

  val coded_state : t -> node:int -> F.t array

  val node_encode_command :
    ?scope:Scope.t -> t -> node:int -> commands:F.t array array -> F.t array

  val node_compute :
    ?scope:Scope.t -> t -> node:int -> coded_command:F.t array -> F.t array
  (** gᵢ = f(S̃ᵢ, X̃ᵢ), next-state coordinates first. *)

  type decoded = {
    next_states : F.t array array;
    outputs : F.t array array;
    error_nodes : int list;
    polys : RS.P.t array;
        (** the decoded h_j, one per coordinate of gᵢ: what {!liars}
            checks a result against *)
  }

  val decode_results :
    ?scope:Scope.t ->
    ?role:string ->
    ?algorithm:RS.algorithm ->
    t ->
    (int * F.t array) list ->
    decoded option
  (** Noisy-interpolation decoding of received (node, gᵢ) results;
      [None] when any coordinate exceeds the decoding radius.  A
      function of the engine and [received] alone.  The algorithm
      defaults to [RS.Optimistic], which reuses the engine-cached
      [rs_ctx] across coordinates and rounds. *)

  val verify_results :
    t ->
    convicted:bool array ->
    senders:int array ->
    vectors:F.t array array ->
    count:int ->
    decoded option
  (** Decode on agreement over the first [count] results: sender
      [senders.(i)] reported [vectors.(i)].  The results of the
      senders {!dropped_count} drops ([convicted.(j)] marks the
      convicted ones) are dropped; [Some] only when at least
      {!early_results} of the rest are given and, in every coordinate,
      all of those lie on one polynomial of degree ≤ d(K−1) (RS's fast
      path alone, no Gao fallback).  Then at least d(K−1)+1 of them are
      honest, so the decode equals [decode_results]' on any honest
      superset, with no [error_nodes].  [None] otherwise: wait for
      {!min_results} and call [decode_results] over every valid result,
      convicted senders' included.  A node keeps its round's results in
      arrays it reuses, and the check runs on the engine's scratch
      (nothing is cached in [rs_ctxs]), so a call allocates only the
      decode it returns. *)

  val liars :
    t -> decoded -> senders:int array -> vectors:F.t array array -> count:int -> int list
  (** The senders among the first [count] results, in the given order,
      whose result vectors disagree with the decoded [polys] at their
      evaluation points; allocates only the list it returns. *)

  val node_update_state :
    ?scope:Scope.t -> t -> node:int -> next_states:F.t array array -> unit

  type corruption = node:int -> F.t array -> F.t array

  val default_corruption : corruption

  type round_report = {
    decoded : decoded option;
    computed : F.t array array;
  }

  val round :
    ?scope:Scope.t ->
    ?algorithm:RS.algorithm ->
    ?corruption:corruption ->
    ?withheld:(int -> bool) ->
    ?decode_role:string ->
    t ->
    commands:F.t array array ->
    byzantine:(int -> bool) ->
    unit ->
    round_report
  (** One full decentralized round; advances the coded states on
      success. *)

  val consistent_with : t -> states:F.t array array -> bool
  (** Do the coded states equal the encoding of the given reference
      states? *)

  val storage_per_node : t -> int

  val min_results : t -> int
  (** Fewest results from which decoding corrects b lies:
      d(K−1) + 2b + 1.  A node waits for this many, convicted senders'
      results included, only when its first {!early_results} do not
      agree. *)

  val dropped_count : t -> bool array -> int
  (** How many senders {!verify_results} drops when [convicted.(j)]
      marks the convicted ones: all of them while they number c ≤ b,
      none once more are convicted.  A conviction is sound when the
      faulty set is fixed with at most b members: the rest then hold at
      most b−c liars.  More than b convictions fall outside that model,
      so the early decode then runs exactly as with none. *)

  val early_results : t -> convicted:bool array -> int
  (** Fewest results from unexcluded senders whose agreement fixes the
      decode: d(K−1) + (b−c) + 1, c the number of senders
      {!dropped_count} drops (d(K−1) + b + 1 with none).  If they all
      lie on one polynomial of degree ≤ d(K−1), at most b−c of them
      lie, so at least d(K−1)+1 are honest and it is the honest one
      (the certificate set τ of eq. (9)). *)

  val recover_coded_state :
    t -> node:int -> reports:(int * F.t array) list -> F.t array option
  (** Regenerate a node's coded state from peers' coded states (up to b
      of which may be lies): Reed–Solomon decoding of the degree-(K−1)
      state polynomial, evaluated at the node's point. *)

  val recover_node : t -> node:int -> reports:(int * F.t array) list -> bool
  (** [recover_coded_state] + install; [false] when undecodable. *)
end
