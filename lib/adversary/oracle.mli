(** Safety/liveness oracles for the Table-2 bounds: evaluate one
    strategy on one instance and report whether the defender's guarantee
    survived.

    The instances are derived from {!Csm_harness.Table2.standard_cases}
    so the searched tightness certificates and the scripted boundary
    checks exercise the same configurations.  [instance.b] is always the
    DEFENDER's assumed bound — thresholds, decode radii and PBFT quorums
    are built from it — while the strategy under test may control more
    nodes; that asymmetry is exactly what the tightness certifier
    probes. *)

type bound =
  | Decode_sync  (** 2b + 1 ≤ N − d(K−1) *)
  | Decode_partial  (** 3b + 1 ≤ N − d(K−1) *)
  | Output_delivery  (** 2b + 1 ≤ N *)
  | Input_totality  (** 3b + 1 ≤ N (PBFT, partial synchrony) *)

val certified_bounds : bound list
(** The four Table-2 bound families certified by the smoke gate, one
    representative per inequality. *)

val bound_name : bound -> string
val bound_of_name : string -> (bound, string) result
val bound_inequality : bound -> string

type instance = {
  n : int;
  k : int;
  d : int;
  b : int;  (** the defender's assumed fault bound *)
  rounds : int;
  seed : int;  (** seeds initial states, commands and keyrings *)
}

val instance_for : bound -> seed:int -> instance
(** The standard instance (first matching [Table2.standard_cases]
    entry) with the defender bound computed from the paper's
    inequality. *)

val feasible : bound -> instance -> bool
(** Whether the bound's oracle can run [instance]: its parameters pass
    {!Csm_core.Params.valid} in the bound's network (partial synchrony
    for decode-partial and input-totality, synchrony otherwise).  Every
    {!instance_for} instance is feasible. *)

type violation_kind = Safety | Liveness

val violation_kind_name : violation_kind -> string
val violation_kind_of_name : string -> (violation_kind, string) result

type verdict = Safe | Violation of { kind : violation_kind; detail : string }

type result = {
  verdict : verdict;
  signal : float;
      (** Search gradient: corrected decoder error locations, withheld
          symbols, stalled honest nodes.  Strictly an escalation hint —
          never part of the verdict. *)
}

val check : bound -> instance -> Strategy.t -> result
(** Deterministic: same bound, instance and strategy always produce the
    same result. *)

val corrupt_result :
  Csm_core.Engine.Make(Csm_field.Fp.Default).t ->
  act:Strategy.action ->
  node:int ->
  round:int ->
  observer:int ->
  Csm_field.Fp.Default.t array ->
  Csm_field.Fp.Default.t array
(** The vector [node] reports to [observer] in [round] under [act],
    given its honest vector: what each strategy-DSL action means, as the
    decode oracles apply it to execution results and the output oracle
    to the client's output (observer [n]).  [Silence] returns the vector
    unchanged (withholding is the caller's decision). *)
