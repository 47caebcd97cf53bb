(** The client-side live telemetry store: merge the nodes' streamed
    {!Agg.snapshot}s idempotently, derive windowed rates and rolling
    latency quantiles, evaluate the SLO alert rules on every merge, and
    render it all as a Prometheus exposition for the HTTP scrape
    endpoint and the terminal ticker.

    Idempotency: the store applies the newest-sequence-per-source rule
    of {!Agg.latest} as snapshots arrive — a snapshot at or below its
    source's applied sequence is dropped, so duplicated or reordered
    frames never corrupt the aggregates, and because snapshot values
    are cumulative a lost frame self-heals on the next arrival.  All
    entry points are thread-safe (the scrape endpoint reads while the
    client merges). *)

type t

val create :
  ?rules:Alert.rule list ->
  ?on_alert:(Alert.rule -> float -> unit) ->
  ?bucket_s:float ->
  ?span_s:float ->
  k:int ->
  unit ->
  t
(** [rules] defaults to {!Alert.default_rules}; [on_alert] runs once
    per rule rising edge (e.g. to arm a flight-recorder dump); [k] is
    the commands-per-round γ the λ window counts per commit.  Window
    geometry defaults to 50 ms buckets over a 60 s span. *)

val mark_start : ?now:float -> t -> unit
(** Anchor the λ window's covered span at the run start, so the
    windowed rate and the whole-run average share a time origin. *)

val apply : t -> Agg.snapshot option -> [ `Applied | `Stale | `Malformed ]
(** Merge one decoded Telemetry frame payload ({!Agg.decode}).
    [`Stale] = duplicate or reordered (sequence at or below the last
    applied — dropped, harmless); [`Malformed] = the payload did not
    decode ([None]; count it as a frame error). *)

val note_commit : ?now:float -> t -> unit
(** The client accepted one round (k commands) — the λ feed. *)

val commits : t -> int
val lambda : ?now:float -> t -> float
(** Windowed committed-command throughput, commands/second. *)

val deltas : t -> int * int * int
(** (applied, stale, rejected) snapshot counts — the store's
    [csm_live_deltas_*] counters. *)

val alerts : t -> Alert.engine

val node_views : t -> Metric.view list
(** The cluster-merged cumulative views from the applied snapshots alone
    (no windowed/alert synthetics) — deterministic for a fixed set of
    applied payloads, which the delta-merge determinism gate relies
    on. *)

val views : ?now:float -> t -> Metric.view list
(** [node_views] plus the synthesized families: [csm_window_*]
    (λ, γ, per-phase rates, rolling latency quantiles, frame-error
    rate), [csm_alerts_firing], and the store's own
    [csm_live_deltas_*] counters. *)

val scrape : ?now:float -> t -> string
(** The Prometheus exposition of [views] — the [/metrics] body. *)

val windows_json : ?now:float -> t -> Json.t
(** The [/windows.json] document ([csm-live-windows/1]): commit count,
    windowed rates, latency quantiles, alert states, delta counters
    and per-source sequence numbers. *)

val evaluate_alerts : ?now:float -> t -> unit
(** Re-run the rules against the current views (also done after every
    [apply]/[note_commit]) — e.g. on a watch tick while no deltas
    arrive. *)
