(** The CSM metric families (Prometheus naming, csm_ prefix), defined
    once so every instrumentation site and the EXPERIMENTS.md table
    agree.  Constructors intern into {!Metric} on every call, so each
    family survives a [Metric.reset]; guard hot paths with
    [Metric.enabled ()]. *)

val tick_buckets : float array
(** Simulator-tick histogram buckets: 1 .. ~5·10⁵ in powers of two. *)

val messages_total : node:int -> dir:string -> layer:string -> Metric.counter
val message_bytes_total :
  node:int -> dir:string -> layer:string -> Metric.counter

val record_per_node :
  layer:string ->
  sent:int array ->
  received:int array ->
  bytes_sent:int array ->
  bytes_received:int array ->
  unit
(** Fold per-node simulator stats into the message counters; a no-op
    when metrics are disabled. *)

val round_latency : unit -> Metric.hist
val consensus_latency : protocol:string -> Metric.hist
val pbft_messages : phase:string -> Metric.counter
val rounds_total : result:string -> Metric.counter
val rs_decodes : algorithm:string -> outcome:string -> Metric.counter

val rs_fastpath : outcome:string -> Metric.counter
(** Optimistic-decode outcomes: ["hit"] (candidate verified everywhere),
    ["fallback"] (full error decode ran and succeeded), ["located"]
    (verified on the agreement set an earlier coordinate of the same
    vectors located). *)

val rs_corrected_symbols : unit -> Metric.counter
(** Interned on each call, like the labelled families, so the family
    survives a {!Metric.reset}. *)

val decode_errors : node:int -> Metric.counter

val node_suspicion : node:int -> Metric.gauge
(** Set to 1 when a node is convicted, never added to, so it reads 1
    whether node registries are shared (loopback) or merged with max
    (forked clusters, the live store). *)

val straggler_wait : early:bool -> Metric.hist
val transport_frame_errors : node:int -> Metric.counter
(** Corrupt/truncated frames detected (and dropped) at the transport
    boundary — the cluster driver's Byzantine-resilience signal. *)

val intermix_audits : result:string -> Metric.counter
val delegation_fraud : stage:string -> Metric.counter

val hlc_skew : node:int -> Metric.gauge
(** |HLC physical − wall clock| at telemetry-snapshot time, seconds. *)

val flightrec_dumps : reason:string -> Metric.counter
(** Flight-recorder dumps written, by trigger: ["divergence"],
    ["frame-errors"], ["suspicion"], ["alert"], ["requested"]. *)

val events_dropped : unit -> Metric.counter
(** Event-ring entries overwritten unread ([csm_events_dropped_total]).
    Its help text still names the event tail telemetry snapshots no
    longer carry: changing it would change every exposition. *)

val node_phases : phase:string -> Metric.counter
(** Node-runtime phase completions ([commands] | [committed] |
    [computed] | [decoded]) — the per-phase windowed throughput feed. *)

val commands_committed : node:int -> Metric.counter
(** Commands the node committed and executed (K per accepted round). *)

val alerts_fired : rule:string -> Metric.counter
(** SLO alert rising edges, by rule. *)

val adversary_candidates : bound:string -> schedule:string -> Metric.counter
(** Byzantine strategies evaluated by the adversary search
    ([csm_adversary_candidates_total]), by Table-2 bound and
    exploration schedule. *)

val adversary_violations : bound:string -> kind:string -> Metric.counter
(** Oracle violations the adversary search produced
    ([csm_adversary_violations_total]), by bound and kind
    (["safety"] | ["liveness"]). *)

val adversary_shrink_steps : unit -> Metric.counter
(** Accepted shrinking moves while minimizing failing strategies
    ([csm_adversary_shrink_steps_total]). *)

(** {1 OCaml runtime family} *)

val gc_minor_collections : unit -> Metric.gauge
val gc_major_collections : unit -> Metric.gauge
val gc_compactions : unit -> Metric.gauge
val gc_heap_words : unit -> Metric.gauge
val gc_top_heap_words : unit -> Metric.gauge
val gc_minor_words : unit -> Metric.gauge
val process_rss_bytes : unit -> Metric.gauge
val process_start_time_seconds : unit -> Metric.gauge

val sample_runtime : unit -> unit
(** Refresh the [csm_gc_*] / process gauges from [Gc.quick_stat] and
    [/proc/self/statm]; a no-op when metrics are disabled.  Call before
    any exposition or telemetry emission that should carry runtime
    health. *)

val throughput_lambda : unit -> Metric.gauge
val storage_gamma : unit -> Metric.gauge
val security_beta : unit -> Metric.gauge
