(* Multi-process CSM cluster driver:

     csm_cluster [-n N] [-k K] [-d D] [-b B] [--rounds R] [--seed S]
                 [--transport loopback|socket|tcp] [--dir DIR]
                 [--port-base P] [--faults "1:drop,2:corrupt,3:delay"]
                 [--deadline SEC] [--out FILE] [--no-verify]
                 [--expect-frame-errors]
                 [--trace] [--trace-out FILE] [--prom-out FILE]
                 [--flightrec] [--flightrec-out FILE]
                 [--expect-cross-flows N] [--replay FILE]
                 [--serve PORT] [--watch] [--alert RULE] [--lambda-floor F]

   Runs N node runtimes plus a voting client over the chosen transport
   (loopback = threads in this process; socket = one forked process per
   node over Unix-domain sockets; tcp = forked processes over TCP
   loopback), drives R protocol rounds end to end, and verifies the
   client's voted ledger byte-for-byte against a fault-free
   single-process engine run at the same seed.

   --faults turns nodes Byzantine at the transport layer: `drop`
   withholds every protocol frame, `delay` sends frames ~20ms late
   (`delay:0.05` for a custom lag), `corrupt` mangles every payload so
   receivers detect and drop it (visible as csm_transport_frame_errors_total
   when CSM_METRICS is set), `lie` ships well-formed but wrong Result
   vectors that only the peers' Reed-Solomon decode catches (suspicion).
   `--faults strategy:FILE` instead loads a whole adversary strategy —
   a csm-adversary-trace/1 counterexample from csm_adversary, or bare
   strategy JSON — and maps each searched plan onto a transport fault.

   Live telemetry: --serve PORT / --watch / --alert / --lambda-floor
   (or CSM_TELEMETRY_INTERVAL=SEC) make the nodes stream
   csm-node-telemetry/2 snapshots while the run is in flight; the
   client merges them idempotently into windowed rates (lambda, per-
   phase throughput, rolling latency quantiles) and evaluates SLO alert
   rules on every merge.  --serve answers /metrics (Prometheus),
   /healthz and /windows.json mid-run; an alert rising edge is a
   flight-recorder dump trigger (reason "alert").

   Observability: --trace stamps every protocol frame with the
   frame-v2 trace extension, gathers each process's final telemetry
   snapshot and writes ONE merged Chrome trace with cross-node flow
   arrows ordered by HLC.  --prom-out writes the cluster-merged
   Prometheus exposition.  --flightrec arms the flight-recorder dump: a
   csm-flightrec/1 document is written on ledger divergence, frame
   errors, decoder suspicion, or on request.  --replay FILE recomputes
   a dump's recorded rounds from its embedded seed and checks them
   byte-identical.

   Exit status: 0 = verified (or --no-verify), 1 = ledger mismatch /
   missing acceptance (or --expect-frame-errors / --expect-cross-flows
   unmet, or a --replay mismatch), 2 = usage. *)

open Cmdliner
module F = Csm_field.Fp.Default
module Params = Csm_core.Params
module Node = Csm_transport.Node
module Cluster = Csm_transport.Cluster
module C = Cluster.Make (F)
module Transport = Csm_transport.Transport
module Metric = Csm_obs.Metric
module Tel = Csm_obs.Telemetry
module Exporter = Csm_obs.Exporter
module Json = Csm_obs.Json
module Prom = Csm_obs.Prom
module Agg = Csm_obs.Agg
module Clock = Csm_obs.Clock
module Flight = Csm_obs.Flight
module Live = Csm_obs.Live
module Alert = Csm_obs.Alert
module Http = Csm_obs.Http

module Adv = Csm_adversary

(* ---- --faults parsing (a cmdliner conv: bad input is a usage error
   that lists the valid kinds, exit 124) ---- *)

let fault_kinds_hint =
  "valid fault kinds: drop, corrupt, lie, delay (or delay:SECONDS); or \
   give the whole spec as strategy:FILE to load a csm-adversary-trace/1 \
   counterexample (or bare strategy JSON)"

let parse_fault_token tok =
  match String.index_opt tok ':' with
  | None ->
    Error (Printf.sprintf "bad fault %S (want NODE:KIND); %s" tok fault_kinds_hint)
  | Some i -> (
    let node_s = String.sub tok 0 i in
    let kind = String.sub tok (i + 1) (String.length tok - i - 1) in
    match int_of_string_opt node_s with
    | None ->
      Error
        (Printf.sprintf "bad fault node %S in %S; %s" node_s tok
           fault_kinds_hint)
    | Some node -> (
      match String.split_on_char ':' kind with
      | [ "drop" ] -> Ok (node, Node.Drop)
      | [ "corrupt" ] -> Ok (node, Node.Corrupt)
      | [ "lie" ] -> Ok (node, Node.Lie Node.lie_default)
      | [ "delay" ] -> Ok (node, Node.Delay 0.02)
      | [ "delay"; lag ] -> (
        match float_of_string_opt lag with
        | Some lag when lag >= 0.0 -> Ok (node, Node.Delay lag)
        | _ ->
          Error
            (Printf.sprintf "bad delay %S for node %d (want seconds >= 0)" lag
               node))
      | k :: _ ->
        Error
          (Printf.sprintf "unknown fault kind %S for node %d; %s" k node
             fault_kinds_hint)
      | [] ->
        Error
          (Printf.sprintf "missing fault kind for node %d; %s" node
             fault_kinds_hint)))

(* A searched strategy's round schedule, coarsened to the transport
   layer's (period, from) lie/drop schedule.  Only [r] uses a period
   longer than any practical run so the fault fires exactly once. *)
let schedule_of_rounds = function
  | Adv.Strategy.Always -> (1, 0)
  | Adv.Strategy.Only (r :: _) -> (1_000_000, max 0 r)
  | Adv.Strategy.Only [] -> (1, 0)
  | Adv.Strategy.From r -> (1, max 0 r)
  | Adv.Strategy.Until _ -> (1, 0)
  | Adv.Strategy.Every { period; phase } -> (max 1 period, max 0 phase)

let fault_of_plan (p : Adv.Strategy.plan) =
  match p.Adv.Strategy.steps with
  | [] -> None
  | s :: _ ->
    let l_period, l_from = schedule_of_rounds s.Adv.Strategy.rounds in
    let lie l_offset l_coord =
      Node.Lie { Node.l_offset; l_coord; l_period; l_from }
    in
    Some
      (match s.Adv.Strategy.act with
      | Adv.Strategy.Silence _ -> (p.Adv.Strategy.node, Node.Drop)
      | Adv.Strategy.Shift c -> (p.Adv.Strategy.node, lie c None)
      | Adv.Strategy.Coord { index; delta } ->
        (p.Adv.Strategy.node, lie delta (Some index))
      | Adv.Strategy.Codeword _ | Adv.Strategy.Garbage _
      | Adv.Strategy.Equivocate _ ->
        ( p.Adv.Strategy.node,
          Node.Lie
            { Node.lie_default with Node.l_period = l_period; l_from } ))

let faults_of_strategy_file path =
  let doc =
    try Ok (Json.parse_file path) with
    | Sys_error m -> Error m
    | Json.Parse_error m -> Error (Printf.sprintf "%s: %s" path m)
  in
  Result.bind doc (fun doc ->
      let strategy =
        match Option.bind (Json.member "schema" doc) Json.to_string_opt with
        | Some _ ->
          Result.map
            (fun (t : Adv.Trace.t) -> t.Adv.Trace.strategy)
            (Adv.Trace.of_json doc)
        | None -> Adv.Strategy.of_json doc
      in
      Result.map
        (fun s ->
          List.filter_map fault_of_plan s.Adv.Strategy.plans)
        strategy)

let parse_faults s =
  let s = String.trim s in
  if s = "" then Ok []
  else if String.length s > 9 && String.equal (String.sub s 0 9) "strategy:"
  then faults_of_strategy_file (String.sub s 9 (String.length s - 9))
  else
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest ->
        Result.bind (parse_fault_token (String.trim p)) (fun f ->
            go (f :: acc) rest)
    in
    go [] parts

let faults_conv =
  let parse s =
    match parse_faults s with
    | Ok fs -> Ok fs
    | Error m -> Error (`Msg m)
  in
  let print ppf fs =
    Format.pp_print_string ppf
      (String.concat ","
         (List.map
            (fun (i, f) -> Printf.sprintf "%d:%s" i (Node.fault_name f))
            fs))
  in
  Arg.conv (parse, print)

let stats_json = function
  | None -> Json.Obj [ ("missing", Json.Bool true) ]
  | Some (s : Transport.stats) ->
    Json.Obj
      [
        ("frames_sent", Json.Int s.Transport.frames_sent);
        ("frames_received", Json.Int s.Transport.frames_received);
        ("bytes_sent", Json.Int s.Transport.bytes_sent);
        ("bytes_received", Json.Int s.Transport.bytes_received);
        ("frame_errors", Json.Int s.Transport.frame_errors);
      ]

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let config_json ~n ~k ~d ~b ~rounds ~seed ~transport ~faults =
  Json.Obj
    [
      ("n", Json.Int n);
      ("k", Json.Int k);
      ("d", Json.Int d);
      ("b", Json.Int b);
      ("rounds", Json.Int rounds);
      ("seed", Json.Int seed);
      ("transport", Json.Str transport);
      ( "faults",
        Json.List
          (List.map
             (fun (i, f) ->
               Json.Obj
                 [
                   ("node", Json.Int i); ("fault", Json.Str (Node.fault_name f));
                 ])
             faults) );
    ]

(* Whole-run committed-command throughput: k commands per accepted
   round over the client's measured wall time — the value the live
   windowed λ is checked against. *)
let final_lambda ~k (r : C.result) =
  let accepted =
    Array.fold_left
      (fun acc e -> if Option.is_some e then acc + 1 else acc)
      0 r.C.ledger
  in
  if r.C.run_seconds > 0.0 then
    float_of_int (k * accepted) /. r.C.run_seconds
  else 0.0

let result_json ~n ~k ~d ~b ~rounds ~seed ~transport ~faults ?live
    (r : C.result) =
  Json.Obj
    [
      ("schema", Json.Str "csm-cluster-report/1");
      ("host", Exporter.host ());
      ("config", config_json ~n ~k ~d ~b ~rounds ~seed ~transport ~faults);
      ("ok", Json.Bool r.C.ok);
      ("run_seconds", Json.Float r.C.run_seconds);
      ("lambda", Json.Float (final_lambda ~k r));
      ( "live",
        match live with
        | None -> Json.Null
        | Some live -> Live.windows_json live );
      ( "telemetry",
        match r.C.telemetry with
        | [] -> Json.Null
        | finals ->
          Json.Obj
            [
              ("bundles", Json.Int (List.length finals));
              ("cross_flows", Json.Int (Agg.cross_flows finals));
              ("hlc", Json.Int (Agg.max_hlc finals));
            ] );
      ( "ledger",
        Json.List
          (Array.to_list
             (Array.map
                (function
                  | Some p -> Json.Str (hex p)
                  | None -> Json.Null)
                r.C.ledger)) );
      ( "reference",
        Json.List
          (Array.to_list (Array.map (fun p -> Json.Str (hex p)) r.C.reference))
      );
      ( "outputs_received",
        Json.List
          (Array.to_list (Array.map (fun c -> Json.Int c) r.C.outputs_received))
      );
      ("stats", Json.List (Array.to_list (Array.map stats_json r.C.stats)));
    ]

let total_frame_errors (r : C.result) =
  Array.fold_left
    (fun acc s ->
      match s with Some s -> acc + s.Transport.frame_errors | None -> acc)
    0 r.C.stats

(* ---- flight-recorder dump (csm-flightrec/1) ---- *)

let flightrec_json ~n ~k ~d ~b ~rounds ~seed ~transport ~faults ~reason
    (r : C.result) =
  Json.Obj
    [
      ("schema", Json.Str "csm-flightrec/1");
      ("host", Exporter.host ());
      ("reason", Json.Str reason);
      ("hlc", Json.Int (Agg.max_hlc r.C.telemetry));
      ("config", config_json ~n ~k ~d ~b ~rounds ~seed ~transport ~faults);
      ( "rounds",
        Json.List
          (List.init rounds (fun i ->
               Json.Obj
                 [
                   ("round", Json.Int i);
                   ( "accepted",
                     match r.C.ledger.(i) with
                     | Some p -> Json.Str (hex p)
                     | None -> Json.Null );
                   ("reference", Json.Str (hex r.C.reference.(i)));
                   ("outputs", Json.Int r.C.outputs_received.(i));
                 ])) );
      ( "flights",
        Json.List
          (List.map
             (fun (s : Agg.snapshot) ->
               Json.Obj
                 [
                   ("node", Json.Int s.Agg.s_node);
                   ("pid", Json.Int s.Agg.s_pid);
                   ("recorded", Json.Int s.Agg.s_flight_recorded);
                   ( "entries",
                     Json.List (List.map Flight.entry_json s.Agg.s_flight) );
                 ])
             r.C.telemetry) );
    ]

let suspicion_detected finals =
  List.exists
    (fun (v : Metric.view) ->
      String.equal v.Metric.name "csm_node_suspicion"
      && List.exists
           (fun (s : Metric.sample) ->
             match s.Metric.value with
             | Metric.V_gauge g -> g > 0.0
             | _ -> false)
           v.Metric.samples)
    (Agg.merged_views finals)

(* --replay: recompute a dump's recorded rounds from its embedded seed
   and check the reference payloads byte-identical — the flight
   recorder's "black box is enough to reproduce the round" guarantee *)
let replay_fail msg =
  Printf.eprintf "csm_cluster: replay: %s\n" msg;
  exit 2

let replay_dump path =
  let fail = replay_fail in
  let doc =
    try Json.parse_file path with
    | Json.Parse_error m -> fail ("parse error in " ^ path ^ ": " ^ m)
    | Sys_error m -> fail m
  in
  (match Option.bind (Json.member "schema" doc) Json.to_string_opt with
  | Some "csm-flightrec/1" -> ()
  | _ -> fail (path ^ " is not a csm-flightrec/1 document"));
  let cfgj =
    match Json.member "config" doc with
    | Some c -> c
    | None -> fail "missing config"
  in
  let geti key =
    match Option.bind (Json.member key cfgj) Json.to_int_opt with
    | Some v -> v
    | None -> fail ("config." ^ key ^ " missing")
  in
  let n = geti "n" and k = geti "k" and d = geti "d" and b = geti "b" in
  let rounds = geti "rounds" and seed = geti "seed" in
  let params =
    try Params.make ~network:Params.Sync ~n ~k ~d ~b
    with Invalid_argument m -> fail m
  in
  let cfg =
    {
      C.params;
      rounds;
      seed;
      mode = Cluster.Loopback;
      faults = [];
      deadline = 5.0;
      trace = false;
      telemetry = false;
      stream = None;
      live = None;
    }
  in
  let reference = C.reference_ledger cfg in
  let recorded =
    match Json.member "rounds" doc with
    | Some (Json.List l) -> l
    | _ -> fail "missing rounds"
  in
  let ok = ref (recorded <> []) in
  List.iter
    (fun item ->
      match
        ( Option.bind (Json.member "round" item) Json.to_int_opt,
          Option.bind (Json.member "reference" item) Json.to_string_opt )
      with
      | Some r, Some h when r >= 0 && r < rounds ->
        let same = String.equal h (hex reference.(r)) in
        if not same then ok := false;
        Printf.printf "replay round %d: %s\n" r
          (if same then "identical" else "MISMATCH")
      | _ ->
        ok := false;
        Printf.printf "replay: malformed round entry\n")
    recorded;
  Printf.printf "replay: %s (%d rounds, seed=%d)\n"
    (if !ok then "ok" else "MISMATCH")
    rounds seed;
  exit (if !ok then 0 else 1)

let run n k d b rounds seed transport dir port_base faults deadline out
    no_verify expect_frame_errors trace_flag trace_out prom_out
    flightrec_requested flightrec_out expect_cross_flows replay serve watch
    alerts_s lambda_floor =
  (match replay with Some path -> replay_dump path | None -> ());
  Exporter.install ();
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= n then begin
        Printf.eprintf "csm_cluster: fault node %d out of range [0, %d)\n" i n;
        exit 2
      end)
    faults;
  if List.length faults > b then
    Printf.eprintf
      "csm_cluster: warning: %d faulty nodes exceed the b=%d budget\n"
      (List.length faults) b;
  let params =
    try Params.make ~network:Params.Sync ~n ~k ~d ~b
    with Invalid_argument msg ->
      prerr_endline msg;
      exit 2
  in
  let cleanup_dir = ref None in
  let mode =
    match transport with
    | "loopback" -> Cluster.Loopback
    | "socket" ->
      let dir =
        match dir with
        | Some d -> d
        | None ->
          let d =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "csm-cluster-%d" (Unix.getpid ()))
          in
          (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          cleanup_dir := Some d;
          d
      in
      Cluster.Uds dir
    | "tcp" -> Cluster.Tcp port_base
    | other ->
      Printf.eprintf "csm_cluster: unknown --transport %s\n" other;
      exit 2
  in
  let trace = trace_flag || Option.is_some trace_out in
  let trace_out = Option.value ~default:"csm-cluster-trace.json" trace_out in
  let flightrec_armed = flightrec_requested || Option.is_some flightrec_out in
  let flightrec_out = Option.value ~default:"csm-flightrec.json" flightrec_out in
  let telemetry = trace || flightrec_armed in
  (* ---- live streaming telemetry (--serve / --watch / --alert /
     CSM_TELEMETRY_INTERVAL) ---- *)
  let interval_env =
    match Sys.getenv_opt "CSM_TELEMETRY_INTERVAL" with
    | None | Some "" -> None
    | Some v -> (
      match float_of_string_opt v with
      | Some f when f > 0.0 && Float.is_finite f -> Some f
      | _ ->
        Printf.eprintf "csm_cluster: bad CSM_TELEMETRY_INTERVAL %S\n" v;
        exit 2)
  in
  let alert_rules =
    List.map
      (fun spec ->
        match Alert.parse spec with
        | Some r -> r
        | None ->
          Printf.eprintf
            "csm_cluster: bad --alert %S (want \"name:metric>thr\")\n" spec;
          exit 2)
      alerts_s
  in
  let streaming =
    Option.is_some serve || watch || alerts_s <> []
    || Option.is_some lambda_floor
    || Option.is_some interval_env
  in
  let live =
    if not streaming then None
    else begin
      (* node registries must be populated for the deltas to carry
         anything; enable before C.run so forked children inherit it *)
      Metric.enable ();
      Some
        (Live.create
           ~rules:(Alert.default_rules ?lambda_floor () @ alert_rules)
           ~k ())
    end
  in
  let stream =
    if streaming then Some (Option.value ~default:0.1 interval_env) else None
  in
  let cfg =
    { C.params; rounds; seed; mode; faults; deadline; trace; telemetry;
      stream; live }
  in
  (* the scrape endpoint serves the merged live view for the whole run *)
  let server =
    match (serve, live) with
    | Some port, Some live ->
      let s =
        try
          Http.serve ~port (fun path ->
              match path with
              | "/metrics" -> Some (Http.text (Live.scrape live))
              | "/healthz" ->
                Some (Http.text ~content_type:"text/plain" "ok\n")
              | "/windows.json" ->
                Some
                  (Http.text ~content_type:"application/json"
                     (Json.to_string (Live.windows_json live)))
              | _ -> None)
        with Unix.Unix_error (e, _, _) ->
          Printf.eprintf "csm_cluster: --serve %d: %s\n" port
            (Unix.error_message e);
          exit 2
      in
      Printf.printf "serve: http://127.0.0.1:%d/metrics (also /healthz, \
                     /windows.json)\n%!" (Http.port s);
      Some s
    | _ -> None
  in
  (* the terminal ticker: one status line per second while running *)
  let watch_stop = Atomic.make false in
  let watcher =
    match (watch, live) with
    | true, Some live ->
      Some
        (Thread.create
           (fun () ->
             let t0 = Clock.mono () in
             while not (Atomic.get watch_stop) do
               Live.evaluate_alerts live;
               let firing = Alert.firing (Live.alerts live) in
               Printf.printf "watch: +%5.1fs commits=%d lambda=%.1f/s%s\n%!"
                 (Clock.mono () -. t0)
                 (Live.commits live) (Live.lambda live)
                 (match firing with
                 | [] -> ""
                 | fs ->
                   " ALERTS="
                   ^ String.concat ","
                       (List.map (fun (r, _) -> r.Alert.a_name) fs));
               Thread.delay 1.0
             done)
           ())
    | _ -> None
  in
  Printf.printf "csm_cluster: N=%d K=%d d=%d b=%d rounds=%d seed=%d %s%s%s\n%!"
    n k d b rounds seed
    (Cluster.mode_name mode)
    (if faults = [] then ""
     else
       " faults="
       ^ String.concat ","
           (List.map
              (fun (i, f) -> Printf.sprintf "%d:%s" i (Node.fault_name f))
              faults))
    (if trace then " trace=on"
     else if telemetry then " flightrec=armed"
     else "");
  let result = C.run cfg in
  Atomic.set watch_stop true;
  Option.iter Thread.join watcher;
  (match !cleanup_dir with
  | Some d -> (
    try
      Array.iter
        (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
        (Sys.readdir d);
      Unix.rmdir d
    with Sys_error _ | Unix.Unix_error _ -> ())
  | None -> ());
  Array.iteri
    (fun r entry ->
      Printf.printf "round %d: accepted=%b outputs=%d match=%b\n" r
        (entry <> None)
        result.C.outputs_received.(r)
        (entry = Some result.C.reference.(r)))
    result.C.ledger;
  let errors = total_frame_errors result in
  Printf.printf "transport: frame_errors=%d\n" errors;
  (match live with
  | Some live ->
    let applied, stale, rejected = Live.deltas live in
    let firing = Alert.firing (Live.alerts live) in
    Printf.printf
      "live: commits=%d lambda_window=%.1f/s lambda_run=%.1f/s \
       deltas=%d(+%d stale, %d rejected)%s\n"
      (Live.commits live) (Live.lambda live) (final_lambda ~k result) applied
      stale rejected
      (match firing with
      | [] -> ""
      | fs ->
        " ALERTS="
        ^ String.concat "," (List.map (fun (r, _) -> r.Alert.a_name) fs))
  | None -> ());
  Array.iteri
    (fun i s ->
      match s with
      | Some (s : Transport.stats) ->
        Printf.printf
          "  endpoint %d%s: sent=%d received=%d bytes_out=%d bytes_in=%d \
           errors=%d\n"
          i
          (if i = n then " (client)" else "")
          s.Transport.frames_sent s.Transport.frames_received
          s.Transport.bytes_sent s.Transport.bytes_received
          s.Transport.frame_errors
      | None -> Printf.printf "  endpoint %d: no stats (no reply)\n" i)
    result.C.stats;
  (* ---- observability: merged trace, merged exposition, flight dump ---- *)
  let cross_flows =
    if telemetry then Agg.cross_flows result.C.telemetry else 0
  in
  if telemetry then begin
    let finals = result.C.telemetry in
    let processes = List.length (Agg.latest finals) in
    Printf.printf "telemetry: bundles=%d/%d processes=%d cross_flows=%d hlc=%s\n"
      (List.length finals) (n + 1) processes cross_flows
      (Format.asprintf "%a" Clock.pp (Agg.max_hlc finals));
    if trace then begin
      Json.write ~path:trace_out (Agg.cluster_trace finals);
      Printf.printf "trace: wrote %s (%d processes, %d cross-node flows)\n"
        trace_out processes cross_flows
    end;
    (match prom_out with
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Prom.render_views (Agg.merged_views finals)));
      Printf.printf "prom: wrote %s (cluster-merged)\n" path
    | None -> ());
    let alert_fired =
      match live with
      | Some live -> Alert.fired_ever (Live.alerts live)
      | None -> false
    in
    let dump_reason =
      if (not no_verify) && not result.C.ok then Some "divergence"
      else if total_frame_errors result > 0 then Some "frame-errors"
      else if suspicion_detected finals then Some "suspicion"
      else if alert_fired then Some "alert"
      else if flightrec_requested then Some "requested"
      else None
    in
    match dump_reason with
    | Some reason ->
      if Metric.enabled () then Metric.inc (Tel.flightrec_dumps ~reason);
      Json.write ~path:flightrec_out
        (flightrec_json ~n ~k ~d ~b ~rounds ~seed ~transport ~faults ~reason
           result);
      Printf.printf "flightrec: wrote %s (reason=%s)\n" flightrec_out reason
    | None -> ()
  end;
  (* fold the socket-boundary counters into the metrics registry so a
     CSM_METRICS exposition shows the transport layer next to the
     simulator layers *)
  if Metric.enabled () then begin
    let np1 = n + 1 in
    let arr f =
      Array.init np1 (fun i ->
          match result.C.stats.(i) with Some s -> f s | None -> 0)
    in
    Tel.record_per_node ~layer:"transport"
      ~sent:(arr (fun s -> s.Transport.frames_sent))
      ~received:(arr (fun s -> s.Transport.frames_received))
      ~bytes_sent:(arr (fun s -> s.Transport.bytes_sent))
      ~bytes_received:(arr (fun s -> s.Transport.bytes_received));
    Array.iteri
      (fun i s ->
        match s with
        | Some s when s.Transport.frame_errors > 0 ->
          Metric.inc ~by:s.Transport.frame_errors
            (Tel.transport_frame_errors ~node:i)
        | _ -> ())
      result.C.stats;
    match Prom.metrics_path () with
    | Some path ->
      Prom.write ~path;
      Printf.printf "metrics: wrote %s\n" path
    | None -> ()
  end;
  (match out with
  | Some path ->
    Json.write ~path
      (result_json ~n ~k ~d ~b ~rounds ~seed ~transport ~faults ?live result);
    Printf.printf "report: wrote %s\n" path
  | None -> ());
  Option.iter Http.stop server;
  let verified = no_verify || result.C.ok in
  Printf.printf "verify: %s\n"
    (if no_verify then "skipped" else if result.C.ok then "ok" else "MISMATCH");
  if expect_frame_errors && errors = 0 then begin
    Printf.printf "expected frame errors, saw none\n";
    exit 1
  end;
  if expect_cross_flows > 0 && cross_flows < expect_cross_flows then begin
    Printf.printf "expected >=%d cross-node flows, saw %d\n" expect_cross_flows
      cross_flows;
    exit 1
  end;
  exit (if verified then 0 else 1)

let () =
  let n = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Nodes.") in
  let k = Arg.(value & opt int 1 & info [ "k" ] ~doc:"State machines.") in
  let d = Arg.(value & opt int 1 & info [ "d" ] ~doc:"Degree.") in
  let b = Arg.(value & opt int 1 & info [ "b" ] ~doc:"Byzantine budget.") in
  let rounds = Arg.(value & opt int 2 & info [ "rounds" ] ~doc:"Rounds.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let transport =
    Arg.(
      value & opt string "socket"
      & info [ "transport" ] ~doc:"loopback|socket|tcp.")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~doc:"Unix-socket directory (socket transport).")
  in
  let port_base =
    Arg.(
      value & opt int 17700
      & info [ "port-base" ] ~doc:"TCP base port (tcp transport).")
  in
  let faults =
    Arg.(
      value
      & opt faults_conv []
      & info [ "faults" ]
          ~doc:
            "Transport-level Byzantine faults, e.g. \
             $(b,1:drop,2:corrupt,0:delay:0.05).  Kinds: $(b,drop), \
             $(b,corrupt), $(b,lie), $(b,delay)[$(b,:SECONDS)].  \
             Alternatively $(b,strategy:FILE) loads a whole adversary \
             strategy from a $(b,csm-adversary-trace/1) counterexample \
             (as emitted by $(b,csm_adversary)) or bare strategy JSON, \
             mapping each searched plan onto a transport fault.")
  in
  let deadline =
    Arg.(
      value & opt float 5.0
      & info [ "deadline" ] ~doc:"Per-wait deadline in seconds.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~doc:"Write a JSON cluster report to this path.")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Skip the reference-run comparison (exit 0 regardless).")
  in
  let expect_frame_errors =
    Arg.(
      value & flag
      & info [ "expect-frame-errors" ]
          ~doc:
            "Fail unless at least one malformed frame was detected (use with \
             a corrupt fault).")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Stamp every protocol frame with the frame-v2 trace extension and \
             write one merged Chrome trace.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ]
          ~doc:
            "Merged Chrome trace path (implies --trace; default \
             csm-cluster-trace.json).")
  in
  let prom_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ]
          ~doc:
            "Write the cluster-merged Prometheus exposition (all gathered \
             final snapshots folded into one registry view) to this path.")
  in
  let flightrec =
    Arg.(
      value & flag
      & info [ "flightrec" ]
          ~doc:
            "Arm the flight recorder and always dump at end of run.")
  in
  let flightrec_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flightrec-out" ]
          ~doc:
            "Arm the flight recorder, dumping only on divergence, frame \
             errors or suspicion, to this path (default csm-flightrec.json).")
  in
  let expect_cross_flows =
    Arg.(
      value & opt int 0
      & info [ "expect-cross-flows" ]
          ~doc:
            "Fail unless the gathered flight rings pair at least N cross-node \
             send/recv flows (use with --trace).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ]
          ~doc:
            "Replay a csm-flightrec/1 dump: recompute its rounds from the \
             embedded seed and check the reference payloads byte-identical, \
             then exit.")
  in
  let serve =
    Arg.(
      value
      & opt (some int) None
      & info [ "serve" ]
          ~doc:
            "Serve the live cluster telemetry over HTTP on 127.0.0.1:PORT \
             while the run is in flight ($(b,/metrics) Prometheus \
             exposition, $(b,/healthz), $(b,/windows.json)); 0 picks an \
             ephemeral port.  Turns on in-flight telemetry streaming \
             (interval CSM_TELEMETRY_INTERVAL, default 0.1s).")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Print a live status line (commits, windowed lambda, firing \
             alerts) every second while the run is in flight.  Turns on \
             in-flight telemetry streaming.")
  in
  let alerts =
    Arg.(
      value
      & opt_all string []
      & info [ "alert" ]
          ~doc:
            "Add an SLO alert rule, e.g. \
             $(b,skew:csm_hlc_skew_seconds>0.25) (repeatable; the \
             suspicion / hlc-skew / frame-error defaults always apply).  \
             Turns on in-flight telemetry streaming.")
  in
  let lambda_floor =
    Arg.(
      value
      & opt (some float) None
      & info [ "lambda-floor" ]
          ~doc:
            "Fire the $(b,lambda-floor) alert when the windowed \
             committed-command throughput falls below this many \
             commands/second.  Turns on in-flight telemetry streaming.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "csm_cluster"
         ~doc:"Run a real multi-process CSM cluster over sockets")
      Term.(
        const run $ n $ k $ d $ b $ rounds $ seed $ transport $ dir $ port_base
        $ faults $ deadline $ out $ no_verify $ expect_frame_errors $ trace
        $ trace_out $ prom_out $ flightrec $ flightrec_out $ expect_cross_flows
        $ replay $ serve $ watch $ alerts $ lambda_floor)
  in
  exit (Cmd.eval cmd)
