(* The client-side live telemetry store.

   Ingestion rule, per source ([Agg.source]: one metric registry): apply
   a snapshot iff its sequence number is strictly beyond the source's
   last applied one — the newest-sequence rule [Agg.latest] applies to
   a list.  Snapshots carry CUMULATIVE family values, so the rule is
   idempotent under duplication and reordering, and a lost frame merely
   delays freshness until the next arrival (or the periodic full
   snapshot) instead of corrupting a sum.

   Rates come from diffing: when a snapshot lands, the increment of each
   windowed family over the source's previous cumulative value is fed
   into the matching {!Window} at arrival time.  λ is special — the
   client is the ground truth for commits, so [note_commit] feeds the
   λ window directly (k commands per accepted round) instead of
   summing per-node counters, which would overcount by the replication
   factor. *)

let wall () = Unix.gettimeofday ()

type source = {
  src_node : int;
  src_scope : Agg.scope;
  mutable src_seq : int;  (* highest applied snapshot sequence *)
  mutable src_hlc : Clock.stamp;
  mutable src_events_total : int;
  mutable src_events_dropped : int;
  families : (string, Metric.view) Hashtbl.t;  (* latest cumulative views *)
}

type t = {
  lock : Mutex.t;
  k : int;
  bucket_s : float;
  span_s : float;
  sources : (int * int, source) Hashtbl.t;
  engine : Alert.engine;
  on_alert : (Alert.rule -> float -> unit) option;
  lambda_w : Window.t;
  latency_w : Window.hist;
  phase_w : (string, Window.t) Hashtbl.t;
  frame_err_w : Window.t;
  mutable n_commits : int;
  mutable n_applied : int;
  mutable n_stale : int;
  mutable n_rejected : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?rules ?on_alert ?(bucket_s = 0.05) ?(span_s = 60.0) ~k () =
  let rules =
    match rules with Some r -> r | None -> Alert.default_rules ()
  in
  {
    lock = Mutex.create ();
    k;
    bucket_s;
    span_s;
    sources = Hashtbl.create 8;
    engine = Alert.create rules;
    on_alert;
    lambda_w = Window.create ~bucket_s ~span_s ();
    latency_w = Window.hist_create ~bucket_s ~span_s ();
    phase_w = Hashtbl.create 8;
    frame_err_w = Window.create ~bucket_s ~span_s ();
    n_commits = 0;
    n_applied = 0;
    n_stale = 0;
    n_rejected = 0;
  }

let mark_start ?now t = Window.mark ?now t.lambda_w

(* ----- views ----- *)

let sample_values (v : Metric.view) =
  List.filter_map
    (fun (s : Metric.sample) ->
      match s.Metric.value with
      | Metric.V_counter c -> Some (float_of_int c)
      | Metric.V_gauge g -> Some g
      | Metric.V_histogram h -> Some (float_of_int h.Metric.s_count))
    v.Metric.samples

let node_views t =
  let lists =
    locked t (fun () ->
        let per_source =
          Hashtbl.fold
            (fun _ src acc ->
              let vs = Hashtbl.fold (fun _ v acc -> v :: acc) src.families [] in
              (src.src_node,
               List.sort
                 (fun (a : Metric.view) b ->
                   String.compare a.Metric.name b.Metric.name)
                 vs)
              :: acc)
            t.sources []
        in
        (* canonical source order so the merged result is deterministic
           for a fixed set of applied snapshots, whatever their arrival
           interleaving was *)
        List.map snd
          (List.sort
             (fun (a, _) (b, _) -> Int.compare a b)
             per_source))
  in
  Agg.merge_views lists

let gauge_view ~name ~help samples =
  {
    Metric.name;
    help;
    kind = Metric.K_gauge;
    samples =
      List.map
        (fun (labels, v) -> { Metric.labels; value = Metric.V_gauge v })
        samples;
  }

let counter_view ~name ~help v =
  {
    Metric.name;
    help;
    kind = Metric.K_counter;
    samples = [ { Metric.labels = []; value = Metric.V_counter v } ];
  }

let lambda ?now t = Window.rate ?now t.lambda_w

let window_views ?now t =
  let now = match now with Some n -> n | None -> wall () in
  let lam = Window.rate ~now t.lambda_w in
  let phases =
    locked t (fun () ->
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun p w acc -> (p, w) :: acc) t.phase_w []))
  in
  let latency = Window.hist_snapshot ~now t.latency_w in
  let q q' = Metric.quantile latency q' in
  [
    gauge_view ~name:"csm_window_lambda"
      ~help:"Windowed committed-command throughput λ, commands/second"
      [ ([], lam) ];
    gauge_view ~name:"csm_window_gamma"
      ~help:"Storage efficiency γ = K carried by each committed round"
      [ ([], float_of_int t.k) ];
    gauge_view ~name:"csm_window_round_latency_seconds"
      ~help:"Rolling protocol round latency quantiles over the live window"
      [
        ([ ("quantile", "0.5") ], q 0.5);
        ([ ("quantile", "0.95") ], q 0.95);
        ([ ("quantile", "0.99") ], q 0.99);
      ];
    gauge_view ~name:"csm_window_frame_error_rate"
      ~help:"Windowed malformed-transport-frame rate, errors/second"
      [ ([], Window.rate ~now t.frame_err_w) ];
  ]
  @
  match phases with
  | [] -> []
  | _ ->
    [
      gauge_view ~name:"csm_window_phase_rate"
        ~help:"Windowed node phase completion rate, phases/second"
        (List.map (fun (p, w) -> ([ ("phase", p) ], Window.rate ~now w)) phases);
    ]

let live_views t =
  let applied, stale, rejected =
    locked t (fun () -> (t.n_applied, t.n_stale, t.n_rejected))
  in
  [
    counter_view ~name:"csm_live_deltas_applied_total"
      ~help:"Streaming telemetry deltas merged into the live store" applied;
    counter_view ~name:"csm_live_deltas_stale_total"
      ~help:"Duplicated or reordered deltas dropped by the sequence rule" stale;
    counter_view ~name:"csm_live_deltas_rejected_total"
      ~help:"Malformed streaming telemetry payloads rejected" rejected;
  ]

let views ?now t =
  node_views t @ window_views ?now t @ Alert.views t.engine @ live_views t

let scrape ?now t = Prom.render_views (views ?now t)

(* ----- alert evaluation ----- *)

let evaluate_alerts ?now t =
  let vs = views ?now t in
  let lookup name =
    match List.find_opt (fun (v : Metric.view) -> v.Metric.name = name) vs with
    | None -> []
    | Some v -> sample_values v
  in
  let rising = Alert.evaluate t.engine lookup in
  List.iter
    (fun (r, value) ->
      if Metric.enabled () then
        Metric.inc (Telemetry.alerts_fired ~rule:r.Alert.a_name);
      match t.on_alert with Some f -> f r value | None -> ())
    rising

(* ----- ingestion ----- *)

let note_commit ?now t =
  let now = match now with Some n -> n | None -> wall () in
  locked t (fun () ->
      t.n_commits <- t.n_commits + 1;
      Window.add ~now t.lambda_w (float_of_int t.k));
  evaluate_alerts ~now t

let commits t = locked t (fun () -> t.n_commits)

let counter_of (s : Metric.sample) =
  match s.Metric.value with Metric.V_counter c -> Some c | _ -> None

let hist_of (s : Metric.sample) =
  match s.Metric.value with Metric.V_histogram h -> Some h | _ -> None

let find_sample (prev : Metric.view option) labels =
  match prev with
  | None -> None
  | Some v ->
    List.find_opt
      (fun (s : Metric.sample) -> s.Metric.labels = labels)
      v.Metric.samples

let snap_diff prev (cur : Metric.snapshot) =
  match prev with
  | Some (p : Metric.snapshot)
    when Array.length p.Metric.s_bounds = Array.length cur.Metric.s_bounds
         && Array.length p.Metric.s_counts = Array.length cur.Metric.s_counts ->
    {
      Metric.s_bounds = cur.Metric.s_bounds;
      s_counts =
        Array.mapi
          (fun i c -> max 0 (c - p.Metric.s_counts.(i)))
          cur.Metric.s_counts;
      s_sum = Float.max 0.0 (cur.Metric.s_sum -. p.Metric.s_sum);
      s_count = max 0 (cur.Metric.s_count - p.Metric.s_count);
    }
  | _ -> cur

let phase_window t p =
  match Hashtbl.find_opt t.phase_w p with
  | Some w -> w
  | None ->
    let w = Window.create ~bucket_s:t.bucket_s ~span_s:t.span_s () in
    Hashtbl.replace t.phase_w p w;
    w

(* Feed the increment of a freshly-arrived cumulative view over the
   source's previous one into the matching window.  Called under the
   store lock. *)
let feed_windows t src ~now (v : Metric.view) =
  let prev = Hashtbl.find_opt src.families v.Metric.name in
  match v.Metric.name with
  | "csm_round_latency_seconds" ->
    List.iter
      (fun (s : Metric.sample) ->
        match hist_of s with
        | Some cur ->
          let d =
            snap_diff
              (Option.bind (find_sample prev s.Metric.labels) hist_of)
              cur
          in
          if d.Metric.s_count > 0 then Window.hist_add ~now t.latency_w d
        | None -> ())
      v.Metric.samples
  | "csm_node_phases_total" ->
    List.iter
      (fun (s : Metric.sample) ->
        match (counter_of s, List.assoc_opt "phase" s.Metric.labels) with
        | Some cur, Some p ->
          let before =
            Option.value ~default:0
              (Option.bind (find_sample prev s.Metric.labels) counter_of)
          in
          if cur > before then
            Window.add ~now (phase_window t p) (float_of_int (cur - before))
        | _ -> ())
      v.Metric.samples
  | "csm_transport_frame_errors_total" ->
    List.iter
      (fun (s : Metric.sample) ->
        match counter_of s with
        | Some cur ->
          let before =
            Option.value ~default:0
              (Option.bind (find_sample prev s.Metric.labels) counter_of)
          in
          if cur > before then
            Window.add ~now t.frame_err_w (float_of_int (cur - before))
        | None -> ())
      v.Metric.samples
  | _ -> ()

let apply t = function
  | None ->
    locked t (fun () -> t.n_rejected <- t.n_rejected + 1);
    `Malformed
  | Some (s : Agg.snapshot) ->
    let now = wall () in
    let outcome =
      locked t (fun () ->
          let key = Agg.source s in
          let src =
            match Hashtbl.find_opt t.sources key with
            | Some src -> src
            | None ->
              let src =
                {
                  src_node = s.Agg.s_node;
                  src_scope = s.Agg.s_scope;
                  src_seq = 0;
                  src_hlc = 0;
                  src_events_total = 0;
                  src_events_dropped = 0;
                  families = Hashtbl.create 32;
                }
              in
              Hashtbl.replace t.sources key src;
              src
          in
          if s.Agg.s_seq <= src.src_seq then begin
            t.n_stale <- t.n_stale + 1;
            `Stale
          end
          else begin
            List.iter
              (fun (v : Metric.view) ->
                feed_windows t src ~now v;
                Hashtbl.replace src.families v.Metric.name v)
              s.Agg.s_views;
            src.src_seq <- s.Agg.s_seq;
            src.src_hlc <- Clock.join src.src_hlc s.Agg.s_hlc;
            src.src_events_total <- max src.src_events_total s.Agg.s_events_total;
            src.src_events_dropped <-
              max src.src_events_dropped s.Agg.s_events_dropped;
            t.n_applied <- t.n_applied + 1;
            `Applied
          end)
    in
    if outcome = `Applied then evaluate_alerts ~now t;
    outcome

let deltas t = locked t (fun () -> (t.n_applied, t.n_stale, t.n_rejected))
let alerts t = t.engine

(* ----- /windows.json ----- *)

let windows_json ?now t =
  let now = match now with Some n -> n | None -> wall () in
  let latency = Window.hist_snapshot ~now t.latency_w in
  let q q' = Metric.quantile latency q' in
  let commits, applied, stale, rejected, sources =
    locked t (fun () ->
        ( t.n_commits,
          t.n_applied,
          t.n_stale,
          t.n_rejected,
          List.sort
            (fun (a, _) (b, _) -> compare a b)
            (Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.sources []) ))
  in
  let phases =
    locked t (fun () ->
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun p w acc -> (p, w) :: acc) t.phase_w []))
  in
  Json.Obj
    [
      ("schema", Json.Str "csm-live-windows/1");
      ("commits", Json.Int commits);
      ("lambda", Json.Float (Window.rate ~now t.lambda_w));
      ("gamma", Json.Int t.k);
      ( "round_latency",
        Json.Obj
          [
            ("p50", Json.Float (q 0.5));
            ("p95", Json.Float (q 0.95));
            ("p99", Json.Float (q 0.99));
            ("count", Json.Int latency.Metric.s_count);
          ] );
      ( "phase_rates",
        Json.Obj
          (List.map
             (fun (p, w) -> (p, Json.Float (Window.rate ~now w)))
             phases) );
      ("frame_error_rate", Json.Float (Window.rate ~now t.frame_err_w));
      ( "alerts",
        Json.List
          (List.map
             (fun (r, v) ->
               Json.Obj
                 [
                   ("rule", Json.Str r.Alert.a_name);
                   ("metric", Json.Str r.Alert.a_metric);
                   ("value", Json.Float v);
                 ])
             (Alert.firing t.engine)) );
      ( "deltas",
        Json.Obj
          [
            ("applied", Json.Int applied);
            ("stale", Json.Int stale);
            ("rejected", Json.Int rejected);
          ] );
      ( "sources",
        Json.List
          (List.map
             (fun ((pid, _), src) ->
               Json.Obj
                 [
                   ("pid", Json.Int pid);
                   ("node", Json.Int src.src_node);
                   ("registry", Json.Str (Agg.scope_name src.src_scope));
                   ("seq", Json.Int src.src_seq);
                   ("hlc", Json.Int src.src_hlc);
                   ("events_total", Json.Int src.src_events_total);
                   ("events_dropped", Json.Int src.src_events_dropped);
                 ])
             sources) );
    ]
