(** PBFT single-slot consensus for the partially synchronous setting
    (N = 3f + 1), with view changes. *)

module Auth = Csm_crypto.Auth
module Net = Csm_sim.Net

type digest = string

type prepared_cert = {
  pc_view : int;
  pc_value : string;
  pc_prepares : (int * Auth.signature) list;
}

type payload =
  | Pre_prepare of { view : int; value : string }
  | Prepare of { view : int; digest : digest }
  | Commit of { view : int; digest : digest }
  | View_change of { new_view : int; prepared : prepared_cert option }
  | New_view of {
      view : int;
      value : string;
      justification : (int * Auth.signature) list;
    }
  | Decided of { value : string }
      (** decision transfer: a decided replica's answer to a peer still
          view-changing; the peer adopts the value once f + 1 distinct
          replicas report it (at least one of them honest), so a
          Byzantine leader that selectively withholds the pre-prepare
          cannot starve a replica forever *)

type msg = { payload : payload; signature : Auth.signature; signer : int }

type config = {
  n : int;
  f : int;
  base_timeout : int;
  instance : string;
  keyring : Auth.keyring;
}

val payload_string : config -> payload -> string

val honest :
  config ->
  me:int ->
  ?proposal:string ->
  on_decide:(int -> string -> unit) ->
  unit ->
  msg Net.behavior

type outcome = {
  decisions : string option array;
  stats : Net.stats;
}

val run :
  config ->
  ?proposals:(int -> string option) ->
  ?byzantine:(int -> msg Net.behavior option) ->
  ?latency:Net.latency ->
  ?max_time:int ->
  unit ->
  outcome
