(* Span exporters.

   Two formats:

   - Chrome trace-event JSON (the "traceEvents" object form), loadable
     in chrome://tracing or https://ui.perfetto.dev — one complete
     ("ph":"X") event per span, one tid per OCaml domain, timestamps
     rebased to the earliest span so microsecond integers stay exact;

   - a compact self-describing run-report JSON assembled by callers
     from [host], [span_summary_json] and their own config/measurement
     fields (see bin/csm_run.ml), always carrying a "schema" version so
     reports from different PRs remain comparable.

   Activation is environment-driven and free when unset: [install]
   reads CSM_TRACE, CSM_EVENTS and CSM_METRICS once, and only a
   variable that is present turns its channel on. *)

let us_of s = s *. 1e6

let chrome_trace (records : Span.record list) : Json.t =
  let base =
    List.fold_left
      (fun acc (r : Span.record) -> min acc r.Span.start_s)
      infinity records
  in
  let base = if Float.is_finite base then base else 0.0 in
  let event (r : Span.record) =
    let args =
      List.map (fun (k, v) -> (k, Json.Str v)) r.Span.attrs
      @ (if r.Span.d_adds + r.Span.d_muls + r.Span.d_invs = 0 then []
         else
           [
             ("ops_adds", Json.Int r.Span.d_adds);
             ("ops_muls", Json.Int r.Span.d_muls);
             ("ops_invs", Json.Int r.Span.d_invs);
           ])
      @ [ ("span_id", Json.Int r.Span.id); ("parent", Json.Int r.Span.parent) ]
    in
    Json.Obj
      [
        ("name", Json.Str r.Span.name);
        ("cat", Json.Str "csm");
        ("ph", Json.Str "X");
        ("ts", Json.Int (int_of_float (us_of (r.Span.start_s -. base))));
        ("dur", Json.Float (us_of r.Span.dur_s));
        ("pid", Json.Int 0);
        ("tid", Json.Int r.Span.domain);
        ("args", Json.Obj args);
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event records));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_chrome_trace ~path records = Json.write ~path (chrome_trace records)

(* Host metadata: makes artifacts from different machines / PRs
   self-describing (schema evolution is the report's "schema" field). *)
let host ?domains () =
  Json.Obj
    ([
       ("ocaml_version", Json.Str Sys.ocaml_version);
       ("word_size", Json.Int Sys.word_size);
       ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
     ]
    @ (match domains with Some d -> [ ("domains", Json.Int d) ] | None -> [])
    @
    match Sys.getenv_opt "CSM_DOMAINS" with
    | Some v -> [ ("csm_domains_env", Json.Str v) ]
    | None -> [])

let span_summary_json (stats : Summary.stat list) : Json.t =
  Json.List
    (List.map
       (fun (s : Summary.stat) ->
         Json.Obj
           [
             ("name", Json.Str s.Summary.s_name);
             ("count", Json.Int s.Summary.count);
             ("total_ms", Json.Float (s.Summary.total_s *. 1e3));
             ("p50_ms", Json.Float (s.Summary.p50_s *. 1e3));
             ("p95_ms", Json.Float (s.Summary.p95_s *. 1e3));
             ("max_ms", Json.Float (s.Summary.max_s *. 1e3));
             ("adds", Json.Int s.Summary.adds);
             ("muls", Json.Int s.Summary.muls);
             ("invs", Json.Int s.Summary.invs);
           ])
       stats)

(* Metrics registry rendered as JSON for the run report: one object per
   family; histograms carry bucket bounds, cumulative-free per-bucket
   counts, sum/count and the nearest-rank p50/p95 estimates. *)
let metrics_json () : Json.t =
  let sample_json (s : Metric.sample) =
    let labels =
      match s.Metric.labels with
      | [] -> []
      | ls ->
        [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ls)) ]
    in
    let value =
      match s.Metric.value with
      | Metric.V_counter c -> [ ("value", Json.Int c) ]
      | Metric.V_gauge g -> [ ("value", Json.Float g) ]
      | Metric.V_histogram h ->
        [
          ( "buckets",
            Json.List
              (Array.to_list (Array.map (fun b -> Json.Float b) h.Metric.s_bounds))
          );
          ( "counts",
            Json.List
              (Array.to_list (Array.map (fun c -> Json.Int c) h.Metric.s_counts))
          );
          ("sum", Json.Float h.Metric.s_sum);
          ("count", Json.Int h.Metric.s_count);
          ("p50", Json.Float (Metric.quantile h 0.50));
          ("p95", Json.Float (Metric.quantile h 0.95));
        ]
    in
    Json.Obj (labels @ value)
  in
  Json.List
    (List.map
       (fun (v : Metric.view) ->
         Json.Obj
           [
             ("name", Json.Str v.Metric.name);
             ( "kind",
               Json.Str
                 (match v.Metric.kind with
                 | Metric.K_counter -> "counter"
                 | Metric.K_gauge -> "gauge"
                 | Metric.K_histogram -> "histogram") );
             ("samples", Json.List (List.map sample_json v.Metric.samples));
           ])
       (Metric.families ()))

let trace_path () = Sys.getenv_opt "CSM_TRACE"
let report_path () = Sys.getenv_opt "CSM_REPORT"

let installed = ref false

(* The one entry point for every env-gated observability channel:
   events (CSM_EVENTS sets the level), metrics (CSM_METRICS enables the
   registry and writes the exposition there at exit) and spans
   (CSM_TRACE enables the tracer and writes a Chrome trace at exit). *)
let install () =
  if not !installed then begin
    installed := true;
    Option.iter
      (fun v -> Event.set_level (Event.level_of_string v))
      (Sys.getenv_opt "CSM_EVENTS");
    (match Prom.metrics_path () with
    | None -> ()
    | Some path ->
      Metric.enable ();
      at_exit (fun () -> Prom.write ~path));
    match trace_path () with
    | None -> ()
    | Some path ->
      Span.enable ();
      at_exit (fun () -> write_chrome_trace ~path (Span.records ()))
  end
