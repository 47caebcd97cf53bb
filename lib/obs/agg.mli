(** Cluster telemetry: the one [csm-node-telemetry/2] snapshot format
    every Telemetry frame carries, its total decoder, and the merges of
    many snapshots into one cluster-wide metric-view list and one merged
    Chrome trace with cross-node flow arrows ordered by HLC.

    A streaming node sends snapshots of the families that changed while
    the run is in flight; every node's last snapshot of a run is
    [final]: every family, plus its process's spans and its own
    flight-recorder ring.  One rule merges snapshots, in the live store
    and at the end of the run alike: per source (one metric registry),
    the newest sequence number wins. *)

val schema : string
(** ["csm-node-telemetry/2"]. *)

type scope =
  | Process  (** shared process-wide registry (loopback threads) *)
  | Node  (** the node process owns its registry (forked modes) *)

val scope_name : scope -> string

type snapshot = {
  s_node : int;
  s_pid : int;
  s_scope : scope;  (** what the views describe; see {!source} *)
  s_seq : int;  (** per-process emission number, from 1 *)
  s_hlc : Clock.stamp;  (** the node's HLC when it snapshotted *)
  s_views : Metric.view list;
      (** CUMULATIVE values for the families carried — receivers diff
          successive values themselves, so a lost or duplicated frame
          can never corrupt an aggregate *)
  s_events_total : int;
  s_events_dropped : int;
  s_final : bool;  (** the run's last snapshot of this node *)
  s_spans : Span.record list;  (** final snapshots only *)
  s_flight : Flight.entry list;  (** final snapshots only *)
  s_flight_recorded : int;  (** ring total, including overwritten *)
}

val capture :
  ?views:Metric.view list ->
  ?flight:Flight.t ->
  node:int ->
  scope:scope ->
  unit ->
  snapshot
(** This process's telemetry now: [views] (default: every registered
    family) under this process's pid, HLC, event-log counters and next
    sequence number.  With [flight] it is a final snapshot that also
    carries the span buffers and that flight ring; leave [views] out
    then, so it carries every family. *)

val encode : snapshot -> string
(** The Telemetry frame payload. *)

val decode : string -> snapshot option
(** Total: any malformed, truncated or wrong-schema payload yields
    [None], so a Byzantine node's telemetry is dropped, not fatal. *)

val source : snapshot -> int * int
(** The registry a snapshot describes: (pid, node) for scope [Node] —
    colliding pids across hosts cannot merge two nodes — and (pid, -1)
    for scope [Process], whose node threads share one registry. *)

val latest : snapshot list -> snapshot list
(** The newest-sequence snapshot per {!source}, sorted by node id —
    the rule {!Live} applies as snapshots arrive. *)

val merge_views : Metric.view list list -> Metric.view list
(** Fold many registries' views into one: samples match on (family
    name, labels); counters sum, gauges take the max, histograms use
    [Metric.merge].  Associative and commutative inputs make the result
    independent of arrival order.  Total: layout or kind clashes keep
    the first operand instead of raising. *)

val merged_views : snapshot list -> Metric.view list
(** [merge_views] over the {!latest} snapshots' views. *)

val max_hlc : snapshot list -> Clock.stamp
(** [Clock.join] over the snapshots' stamps. *)

val cluster_trace : snapshot list -> Json.t
(** The merged Chrome trace of final snapshots: every node's spans
    under its own pid (from the {!latest} snapshot per source), every
    flight ring's entries as thin slices on a per-node "wire" track,
    and matched send/recv flight entries as flow-event pairs
    ([ph:"s"]/[ph:"f"]) whose timestamps derive from the HLC stamps —
    causally ordered across processes by construction. *)

val cross_flows : snapshot list -> int
(** Matched cross-node send→recv pairs among the snapshots' flight
    rings (the obs-smoke assertion). *)

val flow_key : round:int -> frame:string -> src:int -> dst:int -> string
(** The pairing key linking a flight "send" to its "recv": unique per
    (round, frame kind, src, dst) in this protocol. *)
