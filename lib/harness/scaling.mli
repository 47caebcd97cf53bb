(** Throughput/storage/coding-cost scaling sweeps (paper §7, Fig. 3):
    how λ, K_max, β and the coding work grow with N under each
    scheme. *)

type scaling_point = {
  n : int;
  k : int;  (** machines actually run (divisor-rounded K_max) *)
  b : int;  (** faults at the operating point *)
  gamma : int;  (** per-node storage in state-sizes *)
  lambda_full : float;
  lambda_partial : float;
  lambda_csm : float;
  lambda_csm_intermix : float;
}

val throughput_sweep :
  ?mu:float -> ?d:int -> ?rounds:int -> int list -> scaling_point list
(** One measured Table-1-style configuration per N. *)

type growth_point = { gn : int; gk_max : int; gbeta : int }

val growth_sweep : ?mu:float -> ?d:int -> int list -> growth_point list
(** Closed-form K_max and β growth from [Params]; checked linear in N. *)

type coding_cost = { cn : int; naive_ops : int; fast_ops : int }

val coding_sweep : ?ratio:int -> int list -> coding_cost list
(** Counted field ops of naive (O(N²)) vs transform-based encoding.
    The points are self-contained and run on up to [CSM_DOMAINS]
    domains at once; the result does not depend on the width. *)

val pp_scaling : Format.formatter -> scaling_point -> unit
val pp_growth : Format.formatter -> growth_point -> unit
val pp_coding : Format.formatter -> coding_cost -> unit
