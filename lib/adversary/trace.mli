(** Replayable counterexample traces ([csm-adversary-trace/1]).

    A trace is self-contained: the bound, the exact instance (seeds
    included), the shrunk strategy and the recorded violation, plus the
    search provenance that found it.  [replay] re-runs the oracle from
    the embedded data and demands the identical violation; serialization
    is canonical, so re-emitting a loaded trace reproduces the file
    byte for byte. *)

val schema : string

type provenance = {
  schedule : Search.schedule;
  budget : int;
  seed : int;  (** search seed *)
  candidates : int;  (** oracle evaluations before the witness *)
  shrink_steps : int;
}

type t = {
  bound : Oracle.bound;
  instance : Oracle.instance;
  strategy : Strategy.t;
  kind : Oracle.violation_kind;
  detail : string;
  search : provenance;
}

val to_json : t -> Csm_obs.Json.t
val of_json : Csm_obs.Json.t -> (t, string) result
(** Total: a malformed document, or an instance the bound's oracle
    cannot run ({!Oracle.feasible}), is an [Error]. *)

val to_string : t -> string
(** Canonical bytes: JSON document plus a trailing newline. *)

val write : path:string -> t -> unit
val load : path:string -> (t, string) result

val replay : t -> (unit, string) result
(** Re-run the embedded strategy through the oracle; [Ok] exactly when
    the violation kind and detail match the recording. *)
