(** Simulated authentication: ideal signatures and a simulated VRF,
    realizing the paper's "authenticated Byzantine faults" assumption
    and the secret committee election of Section 6.1. *)

type signature

type keyring
(** Public verification context (models a PKI). *)

type signer
(** A single node's signing capability; Byzantine protocol code only
    ever holds signers for its own identities. *)

val create_keyring : Csm_rng.t -> n:int -> keyring

val size : keyring -> int

val signer : keyring -> int -> signer
(** @raise Invalid_argument on a bad node id. *)

val sign : signer -> string -> signature

val verify : keyring -> id:int -> string -> signature -> bool
(** [verify k ~id msg s] checks that node [id] signed [msg]. *)

type vrf_proof

val vrf_eval : signer -> input:string -> float * vrf_proof
(** Pseudorandom value in [\[0,1)] bound to (node, input), plus a proof. *)

val vrf_verify : keyring -> input:string -> vrf_proof -> float option
(** Returns the verified VRF value, or [None] if the proof is invalid. *)
