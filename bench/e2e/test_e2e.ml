(* Tests of the end-to-end benchmark: its client votes the ledger
   [Cluster.run] votes, its taps count what the nodes count, its replay
   does the nodes' work, and its statistics and trace helpers are
   right.  No timing is asserted. *)

module F = Csm_field.Fp.Default
module CF = Csm_field.Counted.Make (F)
module Params = Csm_core.Params
module Node = Csm_transport.Node
module Cluster = Csm_transport.Cluster
module Transport = Csm_transport.Transport
module Pool = Csm_parallel.Pool
module Json = Csm_obs.Json
module Span = Csm_obs.Span
module Ledger = Csm_metrics.Ledger
module Scope = Csm_metrics.Scope
module Client = Csm_e2e.Client
module Outcome = Csm_e2e.Outcome
module Replay = Csm_e2e.Replay
module Spans = Csm_e2e.Spans
module Stats = Csm_e2e.Stats
module Tap = Csm_e2e.Tap
module C = Client.C

let config ?(faults = []) ~mode ~n () =
  {
    C.params = Params.make ~network:Params.Sync ~n ~k:1 ~d:1 ~b:1;
    rounds = 5;
    seed = 7;
    mode;
    faults;
    deadline = 10.0;
    trace = false;
    telemetry = false;
    stream = None;
    live = None;
  }

let ledger = Alcotest.(array (option string))

let client_matches_cluster cfg () =
  let ours = Client.run ~tap:true cfg in
  let theirs = C.run cfg in
  let reference = Array.map Option.some (C.reference_ledger cfg) in
  Alcotest.check ledger "bench client = Cluster.run" theirs.C.ledger
    ours.Client.ledger;
  Alcotest.check ledger "bench client = reference" reference ours.Client.ledger;
  match ours.Client.taps with
  | None -> Alcotest.fail "tapped run returned no taps"
  | Some taps ->
    for i = 0 to cfg.C.params.Params.n - 1 do
      match (ours.Client.stats.(i), cfg.C.mode) with
      | None, Cluster.Uds _ -> () (* lost at shutdown: see Client.shutdown_grace *)
      | None, _ -> Alcotest.failf "node %d sent no Stats" i
      | Some s, _ ->
        let frames, bytes = Tap.protocol_totals taps.(i) in
        Alcotest.(check int)
          (Printf.sprintf "node %d frames" i)
          s.Transport.frames_sent frames;
        Alcotest.(check int)
          (Printf.sprintf "node %d bytes" i)
          s.Transport.bytes_sent bytes
    done

let socket () =
  let dir = "e2e-test-sockets" in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () -> try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (client_matches_cluster (config ~mode:(Cluster.Uds dir) ~n:3 ()))

let lie = [ (1, Node.Lie Node.lie_default) ]

(* Both passes of the replay decode, at every node, the payloads the
   reference run produced. *)
let replay () =
  let cfg = config ~faults:lie ~mode:Cluster.Loopback ~n:4 () in
  let reference = C.reference_ledger cfg in
  let outputs = ref 0 in
  let on_output ~round ~node = function
    | Some p ->
      Alcotest.(check string)
        (Printf.sprintf "round %d node %d" round node)
        reference.(round) p;
      incr outputs
    | None -> Alcotest.failf "round %d node %d: decode failed" round node
  in
  let module T = Replay.Make (F) in
  let module K = Replay.Make (CF) in
  let probe, words = Replay.timed ~rounds:5 in
  Span.reset ();
  Span.enable ();
  T.run ~params:cfg.C.params ~seed:cfg.C.seed ~faults:lie ~rounds:5 ~probe ~on_output;
  Span.disable ();
  let spans = Span.flush () in
  let positive = Alcotest.(check bool) "every round timed and allocating" true in
  positive (Array.for_all (fun t -> t > 0.0) (Replay.times ~rounds:5 spans "replay.node"));
  positive (Array.for_all (fun w -> w > 0.0) (Hashtbl.find words "replay.node"));
  let ledger = Ledger.create () in
  let counted = Scope.of_ledger (module CF) ledger in
  K.run ~params:cfg.C.params ~seed:cfg.C.seed ~faults:lie ~rounds:5
    ~probe:(fun ~round:_ ~node:_ -> counted)
    ~on_output;
  Alcotest.(check int) "every node answered every round, twice" 40 !outputs;
  Alcotest.(check bool) "decode ops counted" true (Ledger.total ledger "engine.decode" > 0)

let quantiles () =
  let f = Alcotest.float 1e-12 in
  Alcotest.check f "median of an even sample" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check f "q25" 2.0 (Stats.quantile [| 5.; 4.; 3.; 2.; 1. |] 0.25);
  Alcotest.check f "q90" 4.6 (Stats.quantile [| 1.; 2.; 3.; 4.; 5. |] 0.9);
  let samples k = Array.init k (fun i -> float_of_int (i + 1)) in
  (* statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (samples 10) in
  Alcotest.(check (list f)) "run-set quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  (match Stats.latency_percentiles (samples 99) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "99 timed rounds accepted");
  match Stats.latency_percentiles (samples 100) with
  | Ok (p50, p90) ->
    Alcotest.check f "p50" 50.5 p50;
    Alcotest.check f "p90" 90.1 p90
  | Error e -> Alcotest.fail e

let growth () =
  let series = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-12))
    "last tenth over first tenth" (95.5 /. 5.5) (Stats.growth [| series |]);
  Alcotest.(check (float 1e-12))
    "flat series" 1.0
    (Stats.growth [| Array.make 50 3.0; Array.make 50 3.0 |])

(* A run with an unaccepted round reports it as failed, with no
   metrics, instead of raising on the empty latency series. *)
let outcome () =
  let sample ~timed ~failed =
    {
      Outcome.timed;
      setup = 0.01;
      rate = (if failed = 0 then 100.0 else nan);
      rounds_failed = failed;
      rounds_attempted = Array.length timed + 1;
    }
  in
  let good = sample ~timed:(Array.init 120 (fun i -> 1e-3 *. float_of_int (i + 1))) ~failed:0 in
  let bad = sample ~timed:[||] ~failed:3 in
  let o = Outcome.end_to_end ~rss_mb:(Some 10.0) [ good; bad ] in
  Alcotest.(check int) "failed rounds" 3 o.Outcome.failed;
  Alcotest.(check int) "attempted rounds" 122 o.Outcome.attempted;
  Alcotest.(check bool) "an error is reported" true (o.Outcome.errors <> []);
  Alcotest.(check int) "no metrics" 0 (List.length o.Outcome.metrics);
  let o = Outcome.end_to_end ~rss_mb:(Some 10.0) [ good ] in
  Alcotest.(check (list string)) "a complete run is correct" [] o.Outcome.errors;
  Alcotest.(check (list string))
    "every end-to-end metric"
    [ "round_ms_p50"; "round_ms_p90"; "commands_per_s"; "setup_s"; "rss_mb" ]
    (List.map (fun (name, _, _) -> name) o.Outcome.metrics)

let span ~id ?(parent = -1) name start stop =
  Spans.make ~id ~parent ~depth:0 ~name ~attrs:[] ~lane:0 start stop

let self_time () =
  let parent = span ~id:0 "parent" 0.0 10.0 in
  let kids =
    [
      span ~id:1 ~parent:0 "a" 1.0 4.0;
      span ~id:2 ~parent:0 "b" 3.0 6.0 (* overlaps a *);
      span ~id:3 ~parent:0 "c" 8.0 12.0 (* runs past the parent *);
    ]
  in
  Alcotest.(check (float 1e-12)) "10 - |[1,6] u [8,10]|" 3.0 (Spans.self_time parent kids);
  Alcotest.(check (float 1e-12)) "no children" 10.0 (Spans.self_time parent [])

let chrome_trace () =
  let spans =
    [ span ~id:0 "client.round" 1.5 2.25; span ~id:1 ~parent:0 "node.round" 1.75 2.0 ]
  in
  let text = Json.to_string (Spans.to_json spans) in
  let back = Json.parse text in
  Alcotest.(check string) "print (parse text) = text" text (Json.to_string back);
  match Json.member "traceEvents" back with
  | Some (Json.List [ _; ev ]) ->
    let self =
      Option.bind (Json.member "args" ev) (fun a ->
          Option.bind (Json.member "self_us" a) Json.to_string_opt)
    in
    Alcotest.(check (option string)) "leaf self time" (Some "250000.000") self
  | _ -> Alcotest.fail "two trace events expected"

let () =
  Pool.set_domains 1;
  Alcotest.run "e2e"
    [
      (* the socket case forks, so it runs before any thread exists *)
      ( "client",
        [
          Alcotest.test_case "socket N=3 = Cluster.run, taps = Stats" `Quick socket;
          Alcotest.test_case "loopback N=4 = Cluster.run, taps = Stats" `Quick
            (client_matches_cluster (config ~mode:Cluster.Loopback ~n:4 ()));
          Alcotest.test_case "loopback N=4 1:lie = Cluster.run, taps = Stats"
            `Quick
            (client_matches_cluster
               (config ~faults:lie ~mode:Cluster.Loopback ~n:4 ()));
          Alcotest.test_case "replay outputs = reference" `Quick replay;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "quantiles and the 100-round floor" `Quick quantiles;
          Alcotest.test_case "a failed round fails the run" `Quick outcome;
          Alcotest.test_case "round_ms_growth" `Quick growth;
          Alcotest.test_case "self time, overlapping children" `Quick self_time;
          Alcotest.test_case "Chrome trace round-trips through Json" `Quick
            chrome_trace;
        ] );
    ]
