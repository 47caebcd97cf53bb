(** Dolev–Strong authenticated broadcast: the synchronous consensus
    primitive of the paper (tolerates any b < N with signatures). *)

module Auth = Csm_crypto.Auth
module Net = Csm_sim.Net

type msg = {
  value : string;
  chain : (int * Auth.signature) list;  (** leader's signature first *)
}

type config = {
  n : int;
  f : int;  (** faults tolerated; the protocol runs f + 1 rounds *)
  leader : int;
  delta : int;  (** synchronous network bound = round length *)
  instance : string;  (** domain separation for signatures *)
  keyring : Auth.keyring;
}

type decision = Decided of string | Bot

val decision_eq : decision -> decision -> bool
(** Structural equality on decisions without polymorphic compare. *)

val signed_payload : config -> string -> string

val valid_chain : config -> string -> (int * Auth.signature) list -> bool
(** Leader-first, pairwise-distinct signers, all signatures valid. *)

val honest :
  config ->
  me:int ->
  ?proposal:string ->
  on_decide:(int -> decision -> unit) ->
  unit ->
  msg Net.behavior

val equivocating_leader :
  config -> me:int -> value_a:string -> value_b:string -> msg Net.behavior
(** Sends one value to half the nodes and another to the rest
    (Figure 2(a)). *)

type outcome = {
  decisions : decision array;
  stats : Net.stats;
}

val run :
  config ->
  ?proposal:string ->
  ?byzantine:(int -> msg Net.behavior option) ->
  unit ->
  outcome
(** Execute one broadcast instance; [byzantine i] overrides node i's
    behavior. *)
