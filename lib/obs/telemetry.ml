(* The CSM metric families, defined once so every instrumentation site
   (protocol core, consensus, RS decoder, INTERMIX, harness) agrees on
   names, labels and bucket layouts — and so the EXPERIMENTS.md table
   has a single source of truth.

   Naming: Prometheus conventions (csm_ prefix, _total for counters,
   base-unit suffixes).  Paper symbols: λ throughput, γ = K storage
   efficiency, β = b security (Section 1); node labels are the node ids
   of the simulated cluster.

   Every constructor below interns into the [Metric] registry, so
   calling it repeatedly returns the same instrument.  Each is a
   function, families without labels too: [Metric.reset] empties the
   registry, and a handle interned once at module load would then
   count into an instrument no exposition lists.  Hot paths should
   still guard with [Metric.enabled ()] to keep the disabled path
   allocation-free. *)

let node_label i = ("node", string_of_int i)

(* simulator-tick histograms: 1 .. ~500k ticks in powers of two *)
let tick_buckets = Metric.log_buckets ~lo:1.0 ~factor:2.0 ~count:20 ()

let messages_total ~node ~dir ~layer =
  Metric.counter ~help:"Messages sent/received per node and protocol layer"
    ~labels:[ node_label node; ("dir", dir); ("layer", layer) ]
    "csm_messages_total"

let message_bytes_total ~node ~dir ~layer =
  Metric.counter
    ~help:"Approximate wire bytes sent/received per node and protocol layer"
    ~labels:[ node_label node; ("dir", dir); ("layer", layer) ]
    "csm_message_bytes_total"

(* Fold a [Net.stats]-shaped set of per-node arrays into the message
   counters.  Byte totals are skipped when the caller had no sizer
   (all-zero arrays would only add noise). *)
let record_per_node ~layer ~sent ~received ~bytes_sent ~bytes_received =
  if Metric.enabled () then begin
    let n = Array.length sent in
    for i = 0 to n - 1 do
      if sent.(i) > 0 then
        Metric.inc ~by:sent.(i) (messages_total ~node:i ~dir:"sent" ~layer);
      if received.(i) > 0 then
        Metric.inc ~by:received.(i)
          (messages_total ~node:i ~dir:"received" ~layer);
      if bytes_sent.(i) > 0 then
        Metric.inc ~by:bytes_sent.(i)
          (message_bytes_total ~node:i ~dir:"sent" ~layer);
      if bytes_received.(i) > 0 then
        Metric.inc ~by:bytes_received.(i)
          (message_bytes_total ~node:i ~dir:"received" ~layer)
    done
  end

let round_latency () =
  Metric.histogram
    ~help:"Wall-clock protocol round latency (consensus + execution), seconds"
    "csm_round_latency_seconds"

let consensus_latency ~protocol =
  Metric.histogram
    ~help:"Simulated consensus completion time, ticks"
    ~labels:[ ("protocol", protocol) ]
    ~buckets:tick_buckets "csm_consensus_latency_ticks"

let pbft_messages ~phase =
  Metric.counter ~help:"Authenticated PBFT messages accepted, by phase"
    ~labels:[ ("phase", phase) ]
    "csm_pbft_messages_total"

let rounds_total ~result =
  Metric.counter
    ~help:"Protocol rounds by outcome (executed | skipped | disagreement)"
    ~labels:[ ("result", result) ]
    "csm_rounds_total"

let rs_decodes ~algorithm ~outcome =
  Metric.counter ~help:"Reed-Solomon decode attempts, by algorithm and outcome"
    ~labels:[ ("algorithm", algorithm); ("outcome", outcome) ]
    "csm_rs_decodes_total"

let rs_fastpath ~outcome =
  Metric.counter
    ~help:
      "Optimistic Reed-Solomon decode attempts, by outcome (hit = \
       candidate verified on every received point; fallback = full Gao \
       decode ran; located = verified on the agreement set an earlier \
       coordinate located)"
    ~labels:[ ("outcome", outcome) ]
    "csm_rs_fastpath_total"

let rs_corrected_symbols () =
  Metric.counter
    ~help:"Total erroneous symbols located and corrected by the RS decoder"
    "csm_rs_corrected_symbols_total"

let decode_errors ~node =
  Metric.counter
    ~help:"Times a node's execution result was flagged wrong by the decoder"
    ~labels:[ node_label node ]
    "csm_decode_errors_total"

let node_suspicion ~node =
  Metric.gauge
    ~help:
      "1 once a decode has proved the node's result wrong: the node is \
       convicted as Byzantine (β signal); 0 otherwise"
    ~labels:[ node_label node ]
    "csm_node_suspicion"

let straggler_wait ~early =
  Metric.histogram
    ~help:"Honest-node decode completion time, ticks (early-decode vs full Δ)"
    ~labels:[ ("early", if early then "true" else "false") ]
    ~buckets:tick_buckets "csm_straggler_wait_ticks"

let intermix_audits ~result =
  Metric.counter ~help:"INTERMIX audit verdicts (accept | alert)"
    ~labels:[ ("result", result) ]
    "csm_intermix_audits_total"

let delegation_fraud ~stage =
  Metric.counter
    ~help:"Delegation fraud detections, by pipeline stage"
    ~labels:[ ("stage", stage) ]
    "csm_delegation_fraud_total"

let transport_frame_errors ~node =
  Metric.counter
    ~help:
      "Malformed or undecodable transport frames detected at the node \
       (bad header, truncated/corrupted payload) — each one dropped, \
       never fatal"
    ~labels:[ node_label node ]
    "csm_transport_frame_errors_total"

let hlc_skew ~node =
  Metric.gauge
    ~help:
      "Absolute gap between the node's hybrid-logical-clock physical \
       component and its wall clock at telemetry-snapshot time, seconds \
       — how far causality (or a clock step) dragged the HLC off real \
       time"
    ~labels:[ node_label node ]
    "csm_hlc_skew_seconds"

let flightrec_dumps ~reason =
  Metric.counter
    ~help:
      "Flight-recorder dumps written, by trigger (divergence | \
       frame-errors | suspicion | requested)"
    ~labels:[ ("reason", reason) ]
    "csm_flightrec_dumps_total"

let events_dropped () =
  Metric.counter
    ~help:
      "Event-log ring entries overwritten before being read — the \
       telemetry event tail is truncated by this many entries"
    "csm_events_dropped_total"

let node_phases ~phase =
  Metric.counter
    ~help:
      "Protocol phase completions across the cluster's node runtimes \
       (commands | committed | computed | decoded), feeding the \
       per-phase windowed throughput"
    ~labels:[ ("phase", phase) ]
    "csm_node_phases_total"

let commands_committed ~node =
  Metric.counter
    ~help:
      "Commands the node runtime committed and executed (K per accepted \
       round) — the node-side λ numerator"
    ~labels:[ node_label node ]
    "csm_commands_committed_total"

let alerts_fired ~rule =
  Metric.counter
    ~help:"SLO alert rising edges, by rule"
    ~labels:[ ("rule", rule) ]
    "csm_alerts_fired_total"

(* ----- adversary-synthesis family (lib/adversary) ----- *)

let adversary_candidates ~bound ~schedule =
  Metric.counter
    ~help:
      "Byzantine strategies evaluated by the adversary search, by \
       Table-2 bound and exploration schedule"
    ~labels:[ ("bound", bound); ("schedule", schedule) ]
    "csm_adversary_candidates_total"

let adversary_violations ~bound ~kind =
  Metric.counter
    ~help:
      "Oracle violations the adversary search produced, by Table-2 \
       bound and violation kind (safety | liveness)"
    ~labels:[ ("bound", bound); ("kind", kind) ]
    "csm_adversary_violations_total"

let adversary_shrink_steps () =
  Metric.counter
    ~help:
      "Accepted shrinking moves while minimizing failing strategies to \
       canonical counterexamples"
    "csm_adversary_shrink_steps_total"

(* ----- OCaml runtime family (Gc.quick_stat + /proc) ----- *)

let gc_minor_collections () =
  Metric.gauge ~help:"Minor garbage collections since program start"
    "csm_gc_minor_collections"

let gc_major_collections () =
  Metric.gauge ~help:"Major garbage collection cycles since program start"
    "csm_gc_major_collections"

let gc_compactions () =
  Metric.gauge ~help:"Heap compactions since program start"
    "csm_gc_compactions"

let gc_heap_words () =
  Metric.gauge ~help:"Major heap size, words" "csm_gc_heap_words"

let gc_top_heap_words () =
  Metric.gauge ~help:"Largest major heap size reached, words"
    "csm_gc_top_heap_words"

let gc_minor_words () =
  Metric.gauge ~help:"Words allocated in the minor heap since program start"
    "csm_gc_minor_words"

let process_rss_bytes () =
  Metric.gauge
    ~help:"Resident set size from /proc/self/statm, bytes (0 where absent)"
    "csm_process_rss_bytes"

let process_start_time_seconds () =
  Metric.gauge
    ~help:"Unix time the process sampled the runtime family first, seconds"
    "csm_process_start_time_seconds"

(* Wall time of the first runtime sample: a monotone-enough "start
   time" that needs no /proc parsing and survives forks (each child
   re-latches on its own first sample). *)
let start_latch = Atomic.make 0.0

let rss_bytes () =
  (* statm field 2 is resident pages; page size is a safe constant on
     every platform this repo targets, and 0 is an honest fallback *)
  match open_in "/proc/self/statm" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let v =
      match input_line ic with
      | line -> (
        match String.split_on_char ' ' line with
        | _ :: resident :: _ -> (
          match int_of_string_opt resident with
          | Some pages -> float_of_int pages *. 4096.0
          | None -> 0.0)
        | _ -> 0.0)
      | exception End_of_file -> 0.0
    in
    close_in_noerr ic;
    v

let sample_runtime () =
  if Metric.enabled () then begin
    let st = Gc.quick_stat () in
    Metric.set (gc_minor_collections ()) (float_of_int st.Gc.minor_collections);
    Metric.set (gc_major_collections ()) (float_of_int st.Gc.major_collections);
    Metric.set (gc_compactions ()) (float_of_int st.Gc.compactions);
    Metric.set (gc_heap_words ()) (float_of_int st.Gc.heap_words);
    Metric.set (gc_top_heap_words ()) (float_of_int st.Gc.top_heap_words);
    Metric.set (gc_minor_words ()) st.Gc.minor_words;
    Metric.set (process_rss_bytes ()) (rss_bytes ());
    if Atomic.get start_latch = 0.0 then
      ignore
        (Atomic.compare_and_set start_latch 0.0 (Unix.gettimeofday ()));
    Metric.set (process_start_time_seconds ()) (Atomic.get start_latch)
  end

let throughput_lambda () =
  Metric.gauge ~help:"Measured commands-per-round throughput λ"
    "csm_throughput_lambda"

let storage_gamma () =
  Metric.gauge ~help:"Storage efficiency γ = K (machines per coded state)"
    "csm_storage_gamma"

let security_beta () =
  Metric.gauge ~help:"Security parameter β = b (tolerated Byzantine nodes)"
    "csm_security_beta"
