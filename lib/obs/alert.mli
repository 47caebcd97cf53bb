(** Declarative SLO/alert rules over live metric values.

    A rule compares one metric family's sample values against a
    threshold (e.g. [csm_node_suspicion > 0]); the engine evaluates all
    rules on each telemetry merge, tracks rising/falling edges, emits
    event-log entries on transitions, remembers when each rule first
    fired, and renders the current state as a synthesized
    [csm_alerts_firing] gauge family — so Byzantine behaviour surfaces
    while the run is still going. *)

type cmp = Gt | Ge | Lt | Le

type rule = {
  a_name : string;  (** the [rule] label on [csm_alerts_firing] *)
  a_metric : string;  (** metric family probed (by exposition name) *)
  a_cmp : cmp;
  a_threshold : float;
  a_help : string;
}

val rule :
  ?name:string -> ?help:string -> metric:string -> cmp:cmp -> float -> rule
(** [name] defaults to [metric]. *)

val parse : string -> rule option
(** ["name:metric>thr"] (the [name:] prefix optional; operators [>],
    [>=], [<], [<=]; spaces allowed around the operator).  Total:
    malformed specs yield [None]. *)

val to_string : rule -> string
(** ["name:metric>thr"] — a [parse] fixpoint. *)

val default_rules : ?lambda_floor:float -> unit -> rule list
(** The built-in SLOs: suspicion ([csm_node_suspicion > 0]), HLC skew
    ([csm_hlc_skew_seconds > 0.5]), frame errors
    ([csm_transport_frame_errors_total > 0]), and — when
    [lambda_floor] is given — windowed throughput
    ([csm_window_lambda < floor]). *)

type engine

val create : rule list -> engine

val evaluate :
  engine -> ?now:float -> (string -> float list) -> (rule * float) list
(** Re-evaluate every rule against [values metric] (the samples of
    that family; [[]] = no data = not firing).  Rising edges emit a
    Warn event and latch the first-fired time ([now], monotonic
    seconds, defaulting to {!Clock.mono}); falling edges emit an Info
    event.  Returns the rules that just started firing, with the value
    that tripped them.  Thread-safe. *)

val firing : engine -> (rule * float) list
(** Currently-firing rules with the value that trips them. *)

val fired_ever : engine -> bool

val first_fired : engine -> string -> float option
(** Monotonic time the named rule first started firing, if ever. *)

val views : engine -> Metric.view list
(** One synthesized gauge family [csm_alerts_firing{rule="..."}]
    (1 firing / 0 not) with one sample per rule — appended to an
    exposition without touching the metric registry. *)
