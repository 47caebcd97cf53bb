(** Span exporters: Chrome trace-event JSON (chrome://tracing /
    Perfetto) and building blocks for the self-describing run-report
    JSON, plus [install], the one environment hook of every
    observability channel — zero overhead when its variables are
    unset. *)

val chrome_trace : Span.record list -> Json.t
(** The ["traceEvents"] object: one complete ("X") event per span,
    [tid] = owning domain, timestamps rebased to the earliest span. *)

val write_chrome_trace : path:string -> Span.record list -> unit

val host : ?domains:int -> unit -> Json.t
(** Host metadata (OCaml version, word size, core count, configured
    domain count) for embedding in reports. *)

val span_summary_json : Summary.stat list -> Json.t
(** Per-span-name p50/p95/max + op totals, as a JSON list. *)

val metrics_json : unit -> Json.t
(** The metrics registry as a JSON list of families (for the
    [csm-run-report/2] "metrics" section); histograms include bucket
    bounds, per-bucket counts and p50/p95 estimates. *)

val trace_path : unit -> string option
(** [CSM_TRACE] if set. *)

val report_path : unit -> string option
(** [CSM_REPORT] if set. *)

val install : unit -> unit
(** Read [CSM_TRACE], [CSM_EVENTS] and [CSM_METRICS] once and activate
    the matching channels (span tracing with an at-exit Chrome-trace
    flush, event log level, metrics registry with an at-exit Prometheus
    write).  Idempotent; does nothing (and costs nothing) when the
    variables are unset. *)
