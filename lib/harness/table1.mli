(** Table 1 of the paper: security β, storage γ and measured throughput
    λ of full replication, partial replication, the
    information-theoretic limit, and CSM with/without intermixing, all
    at the same (N, μ, d) operating point. *)

type row = {
  scheme : string;
  security : int;  (** β: tolerated Byzantine nodes *)
  storage_gamma : float;  (** per-node storage in state-sizes *)
  throughput : float;  (** λ: machine-rounds per unit of per-node work *)
  per_node_ops : float;  (** mean per-node field ops per round *)
}

type setup = {
  n : int;
  mu : float;
  d : int;
  k : int;  (** machines actually run (divides n) *)
  k_csm : int;  (** CSM's K_max before divisor rounding *)
  b : int;  (** faults at the operating point: ⌊μN⌋ *)
}

val make_setup : n:int -> mu:float -> d:int -> setup

val run : ?rounds:int -> n:int -> mu:float -> d:int -> unit -> setup * row list
(** Measure all schemes; each row is a self-contained simulation (own
    rng, ledger, engine). *)

val pp_row : Format.formatter -> row -> unit
val pp_table : Format.formatter -> setup * row list -> unit
