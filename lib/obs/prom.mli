(** Prometheus text-format (0.0.4) exposition of the [Metric]
    registry: HELP/TYPE headers, escaped label values, histograms as
    cumulative [_bucket{le=...}] + [_sum] + [_count]. *)

val render : unit -> string
(** The full exposition document for every registered family. *)

val render_views : Metric.view list -> string
(** Exposition of an explicit view list — e.g. the cluster-merged
    views from [Agg.merged_views] rather than the local registry. *)

val write : path:string -> unit

val output : out_channel -> unit

val metrics_path : unit -> string option
(** [CSM_METRICS] if set. *)

(**/**)

val label_block : Metric.labels -> string
