(* csm_bench: the end-to-end cluster benchmark (see README.md).

     csm_bench --workload W [--seed N] [--seconds S] [--trace [0|1]]
               [--trace-out FILE]
     csm_bench --workload all [...]     one fresh process per workload
     csm_bench --compare A.txt... -- B.txt...

   A run starts whole clusters of the workload back to back, each from
   scratch, for S seconds, and checks every accepted round against
   [Cluster.reference_ledger].  Untraced, it prints the end-to-end
   metrics.  Traced (a bare --trace, or --trace 1), it spends half the
   time untraced, half with every endpoint's transport tapped, then
   replays the first rounds layer by layer, and prints the per-layer
   metrics.  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module F = Csm_field.Fp.Default
module CF = Csm_field.Counted.Make (F)
module Params = Csm_core.Params
module Node = Csm_transport.Node
module Cluster = Csm_transport.Cluster
module Pool = Csm_parallel.Pool
module Json = Csm_obs.Json
module Span = Csm_obs.Span
module Ledger = Csm_metrics.Ledger
module Scope = Csm_metrics.Scope
module Client = Csm_e2e.Client
module Mono = Csm_e2e.Mono
module Outcome = Csm_e2e.Outcome
module Stats = Csm_e2e.Stats
module Spans = Csm_e2e.Spans
module Tap = Csm_e2e.Tap
module Replay = Csm_e2e.Replay
module C = Client.C
module Timed = Replay.Make (F)
module Counted = Replay.Make (CF)

(* ---- workloads ---- *)

type workload = {
  name : string;
  socket : bool;  (* forked nodes over Unix-domain sockets, else loopback *)
  n : int;
  k : int;
  d : int;
  b : int;
  liars : int;  (* nodes 0 .. liars-1 run [Lie lie_default] *)
  rounds : int;  (* per cluster; round 0 is set-up, the rest are timed *)
  replay_rounds : int;  (* traced runs replay rounds 1 .. replay_rounds *)
}

(* The workloads of BENCHMARK.json, which [--workload all] runs.  Their
   clusters are small because on a shared 2-core host only small ones
   keep a steady speed: see README.md, "Choosing the sizes". *)
let workloads =
  [
    { name = "lb8-honest"; socket = false; n = 8; k = 2; d = 2; b = 2;
      liars = 0; rounds = 100; replay_rounds = 50 };
    { name = "lb8-lie"; socket = false; n = 8; k = 2; d = 2; b = 2;
      liars = 2; rounds = 100; replay_rounds = 50 };
    { name = "sock4-honest"; socket = true; n = 4; k = 1; d = 1; b = 1;
      liars = 0; rounds = 250; replay_rounds = 50 };
  ]

(* Larger clusters, run by name for their per-layer breakdown.  Their
   round time drifts with the host's load by more than any bound
   BENCHMARK.json may set, so they are not part of it. *)
let scale_workloads =
  [
    { name = "lb16-honest"; socket = false; n = 16; k = 6; d = 2; b = 2;
      liars = 0; rounds = 100; replay_rounds = 50 };
    { name = "lb64-honest"; socket = false; n = 64; k = 16; d = 2; b = 16;
      liars = 0; rounds = 30; replay_rounds = 20 };
    { name = "lb64-lie"; socket = false; n = 64; k = 16; d = 2; b = 16;
      liars = 16; rounds = 20; replay_rounds = 10 };
  ]

(* Socket directories live inside the checkout, under a relative path
   short enough for a Unix-domain socket address. *)
let sock_root = ".csm_bench"

let config w ~seed =
  {
    C.params = Params.make ~network:Params.Sync ~n:w.n ~k:w.k ~d:w.d ~b:w.b;
    rounds = w.rounds;
    seed;
    mode =
      (if w.socket then
         Cluster.Uds (Filename.concat sock_root (string_of_int (Unix.getpid ())))
       else Cluster.Loopback);
    faults = List.init w.liars (fun i -> (i, Node.Lie Node.lie_default));
    deadline = 30.0;
    trace = false;
    telemetry = false;
    stream = None;
    live = None;
  }

(* ---- measuring ---- *)

type cluster = {
  run : Client.run;
  gc_minor_words : float;  (* this process, around the cluster *)
  gc_major : int;
  cpu_s : float;  (* user + system time of this process and the reaped nodes *)
}

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let failed_rounds (r : Client.run) ~reference =
  let bad = ref 0 in
  Array.iteri
    (fun i e ->
      match e with
      | Some p when String.equal p reference.(i) -> ()
      | _ -> incr bad)
    r.Client.ledger;
  !bad

(* Longest a run measures, so it ends within its time limit even on a
   slow host. *)
let hard_cap = 120.0

(* Clusters back to back.  Another one starts while fewer than
   [Stats.min_timed_rounds] rounds are timed, or while it would end, at
   the mean cluster length so far, less than half a cluster past
   [seconds]. *)
let measure ?(tap = false) ?(after_first = ignore) cfg ~reference ~seconds =
  let t0 = Mono.now () in
  let rec go acc ~timed =
    let g0 = Gc.quick_stat () and cpu0 = cpu_time () in
    let run = Client.run ~tap cfg in
    let g1 = Gc.quick_stat () and cpu1 = cpu_time () in
    if acc = [] then after_first ();
    let c =
      {
        run;
        gc_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
        cpu_s = cpu1 -. cpu0;
      }
    in
    let acc = c :: acc in
    let timed = timed + max 0 (Client.rounds_run run - 1) in
    let elapsed = Mono.now () -. t0 in
    let mean = elapsed /. float_of_int (List.length acc) in
    if
      failed_rounds run ~reference > 0
      || elapsed > hard_cap
      || (timed >= Stats.min_timed_rounds && elapsed +. (mean /. 2.0) > seconds)
    then List.rev acc
    else go acc ~timed
  in
  go [] ~timed:0

let timed_rounds cfg = List.init (cfg.C.rounds - 1) (fun i -> i + 1)

(* Per cluster, the latencies of its timed rounds, in seconds. *)
let latencies cfg (r : Client.run) =
  Array.of_list (List.map (Client.latency r) (timed_rounds cfg))

let p50 cfg cs =
  let lat = Array.concat (List.map (fun c -> latencies cfg c.run) cs) in
  Result.map fst (Stats.latency_percentiles lat)

let median_of f xs = Stats.median (Array.of_list (List.map f xs))
let kb_to_mb kb = float_of_int kb /. 1024.0

let count_failures cs ~reference =
  List.fold_left (fun acc c -> acc + failed_rounds c.run ~reference) 0 cs

let attempts cs = List.fold_left (fun acc c -> acc + Client.rounds_run c.run) 0 cs

let with_socket_dir cfg f =
  match cfg.C.mode with
  | Cluster.Uds dir ->
    List.iter
      (fun d -> try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
      [ sock_root; dir ];
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ()) [ dir; sock_root ])
      f
  | _ -> f ()

(* ---- the untraced run ---- *)

let end_to_end w cfg ~reference ~seconds =
  let rss0 = Client.proc_kb ~pid:"self" "VmRSS" in
  let hwm = ref None in
  (* loopback: the peak the first cluster reached, a fixed amount of
     work however many clusters the run goes on to start *)
  let cs =
    measure cfg ~reference ~seconds ~after_first:(fun () ->
        hwm := Client.proc_kb ~pid:"self" "VmHWM")
  in
  let sample c =
    let r = c.run in
    let ran = Client.rounds_run r in
    let complete = ran = cfg.C.rounds in
    {
      Outcome.timed = (if complete then latencies cfg r else [||]);
      setup = Client.setup_s r;
      rate =
        (if complete then
           float_of_int (w.k * (ran - 1))
           /. (r.Client.voted_at.(ran - 1) -. r.Client.sent_at.(1))
         else nan);
      rounds_failed = failed_rounds r ~reference;
      rounds_attempted = ran;
    }
  in
  let rss_mb =
    if w.socket then Some (median_of (fun c -> kb_to_mb c.run.Client.node_rss_kb) cs)
    else match (rss0, !hwm) with Some a, Some b -> Some (kb_to_mb (b - a)) | _ -> None
  in
  Outcome.end_to_end ~rss_mb (List.map sample cs)

(* ---- the traced run ---- *)

let layers = [ "frame"; "wire"; "obs" ]
let engine_layers = [ "encode"; "compute"; "decode"; "reencode" ]

(* Node spans rebuilt from the taps' phase stamps, under one
   client.round span per round, with ids from [first_id] on.  Chrome
   thread 0 is the replay; node i is thread i+1 and the client n+1.
   [offset] moves the taps' CLOCK_MONOTONIC stamps onto the wall clock
   of [Span.with_]. *)
let cluster_spans ~first_id ~offset cfg cs =
  let n = cfg.C.params.Params.n in
  let next = ref first_id and acc = ref [] in
  let span ~parent ~depth ~round ~lane name start stop =
    let id = !next in
    incr next;
    let attrs = [ ("round", string_of_int round); ("node", string_of_int lane) ] in
    acc :=
      Spans.make ~id ~parent ~depth ~name ~attrs ~lane:(lane + 1) (start +. offset)
        (stop +. offset)
      :: !acc;
    id
  in
  List.iter
    (fun c ->
      let r = c.run in
      match r.Client.taps with
      | None -> ()
      | Some taps ->
        for round = 0 to Client.rounds_run r - 1 do
          let root =
            span ~parent:(-1) ~depth:0 ~round ~lane:n "client.round"
              r.Client.sent_at.(round) r.Client.voted_at.(round)
          in
          for i = 0 to n - 1 do
            let s = taps.(i).Tap.slots.(round) in
            if s.Tap.command_in > 0.0 && s.Tap.output_out > 0.0 then begin
              let nr =
                span ~parent:root ~depth:1 ~round ~lane:i "node.round" s.Tap.command_in
                  s.Tap.output_out
              in
              ignore
                (span ~parent:nr ~depth:2 ~round ~lane:i "node.commit_phase"
                   s.Tap.commit_out s.Tap.result_out);
              ignore
                (span ~parent:nr ~depth:2 ~round ~lane:i "node.result_phase"
                   s.Tap.result_out s.Tap.output_out)
            end
          done
        done)
    cs;
  List.rev !acc

let traced w cfg ~reference ~seconds ~trace_out =
  let n = w.n in
  let t0 = Mono.now () in
  let plain = measure cfg ~reference ~seconds:(seconds /. 2.0) in
  let t1 = Mono.now () in
  let tapped = measure ~tap:true cfg ~reference ~seconds:(seconds /. 2.0) in
  let t2 = Mono.now () in
  let heap_words_end = (Gc.quick_stat ()).Gc.heap_words in
  (* replay: rounds 0 .. replay_rounds, round 0 being set-up *)
  let rounds = w.replay_rounds + 1 in
  let replay_bad = ref 0 in
  let on_output ~round ~node:_ = function
    | Some p when String.equal p reference.(round) -> ()
    | _ -> incr replay_bad
  in
  let probe, words = Replay.timed ~rounds in
  Span.reset ();
  Span.enable ();
  let replay_start = Mono.now () in
  Timed.run ~params:cfg.C.params ~seed:cfg.C.seed ~faults:cfg.C.faults ~rounds
    ~probe ~on_output;
  Span.disable ();
  let replay_spans = Span.flush () in
  let ledger = Ledger.create () in
  let counted = Scope.of_ledger (module CF) ledger in
  Counted.run ~params:cfg.C.params ~seed:cfg.C.seed ~faults:cfg.C.faults ~rounds
    ~probe:(fun ~round ~node:_ -> if round = 0 then Scope.null else counted)
    ~on_output;
  let t3 = Mono.now () in
  (* the replay's first span opened right after [replay_start] *)
  let offset =
    List.fold_left (fun m (s : Span.record) -> Float.min m s.Span.start_s) infinity replay_spans
    -. replay_start
  in
  let tap_spans =
    cluster_spans
      ~first_id:(1 + List.fold_left (fun m (s : Span.record) -> max m s.Span.id) 0 replay_spans)
      ~offset cfg tapped
  in
  Option.iter
    (fun path -> Json.write ~path (Spans.to_json (tap_spans @ replay_spans)))
    trace_out;
  let t4 = Mono.now () in
  (* per replay round (1 .. replay_rounds), summed over nodes *)
  let per_round role =
    ( Array.sub (Replay.times ~rounds replay_spans role) 1 w.replay_rounds,
      Array.sub (Hashtbl.find words role) 1 w.replay_rounds )
  in
  let us role = 1e6 *. Stats.median (fst (per_round role)) in
  let words role = Stats.median (snd (per_round role)) in
  let ops role = float_of_int (Ledger.total ledger role) /. float_of_int w.replay_rounds in
  let engine_ops =
    List.fold_left (fun acc l -> acc +. ops ("engine." ^ l)) 0.0 engine_layers
  in
  (* per node-round replayed work, for the wait split *)
  let per_node_ms roles =
    let t = Array.make w.replay_rounds 0.0 in
    List.iter
      (fun role -> Array.iteri (fun i x -> t.(i) <- t.(i) +. x) (fst (per_round role)))
      roles;
    1e3 *. Stats.median t /. float_of_int n
  in
  let cpu_ms = 1e3 *. Stats.median (fst (per_round "replay.node")) in
  (* taps: timed rounds of every tapped cluster *)
  let timed = timed_rounds cfg in
  let slots =
    List.concat_map
      (fun c ->
        match c.run.Client.taps with
        | None -> []
        | Some taps ->
          List.filter_map
            (fun r ->
              if r < Client.rounds_run c.run then
                Some (Array.map (fun t -> t.Tap.slots.(r)) taps)
              else None)
            timed)
      tapped
  in
  let nrounds = float_of_int (List.length slots) in
  let sum_slots f =
    List.fold_left (fun acc row -> Array.fold_left (fun a s -> a +. f s) acc row) 0.0 slots
  in
  let median_rounds f =
    Stats.median
      (Array.of_list
         (List.map (fun row -> Array.fold_left (fun a s -> a +. f s) 0.0 row) slots))
  in
  let node_phase f =
    Stats.median
      (Array.of_list
         (List.concat_map
            (fun row -> List.init n (fun i -> 1e3 *. f row.(i)))
            slots))
  in
  let calls = sum_slots (fun s -> float_of_int s.Tap.recv_calls) in
  let gc_minor, gc_major, heap_words =
    if w.socket then
      let node_gc f c =
        match c.run.Client.taps with
        | Some taps -> Array.fold_left (fun a t -> a +. f t) 0.0 (Array.sub taps 0 n)
        | None -> 0.0
      in
      ( median_of (node_gc (fun t -> t.Tap.gc_minor_words)) tapped,
        median_of (node_gc (fun t -> float_of_int t.Tap.gc_major)) tapped,
        node_gc
          (fun t -> float_of_int t.Tap.gc_heap_words)
          (List.hd (List.rev tapped)) )
    else
      ( median_of (fun c -> c.gc_minor_words) tapped,
        median_of (fun c -> float_of_int c.gc_major) tapped,
        float_of_int heap_words_end )
  in
  let failed =
    count_failures plain ~reference + count_failures tapped ~reference + !replay_bad
  in
  let errors = if failed > 0 then [ Printf.sprintf "%d rounds failed" failed ] else [] in
  let self_notes spans per =
    List.map
      (fun (name, self, count) ->
        Printf.sprintf "  %-22s %12.4f  (%d spans)" name
          (1e3 *. self /. float_of_int per) count)
      (Spans.self_by_name spans)
  in
  let base =
    {
      Outcome.attempted = attempts plain + attempts tapped + (2 * n * rounds);
      failed;
      errors;
      metrics = [];
      notes =
        [
          Printf.sprintf "untraced clusters=%d, tapped clusters=%d, replayed rounds=1..%d"
            (List.length plain) (List.length tapped) w.replay_rounds;
          Printf.sprintf "phase seconds: untraced %.1f, tapped %.1f, replay %.1f, spans %.1f"
            (t1 -. t0) (t2 -. t1) (t3 -. t2) (t4 -. t3);
          "span self time per round (ms, summed over lanes):";
        ]
        @ self_notes tap_spans (attempts tapped)
        @ self_notes replay_spans rounds;
    }
  in
  match (p50 cfg plain, p50 cfg tapped) with
  | _ when failed > 0 -> base
  | Error e, _ | _, Error e -> { base with errors = [ e ] }
  | Ok plain_p50, Ok tapped_p50 ->
    let frames =
      List.mapi
        (fun k kind ->
          ( "transport.frames." ^ kind,
            "count",
            sum_slots (fun s -> float_of_int s.Tap.frames.(k)) /. nrounds ))
        (Array.to_list Tap.kinds)
    in
    let engine =
      List.concat_map
        (fun l ->
          let role = "engine." ^ l in
          [
            (role ^ "_us", "us", us role);
            (role ^ "_ops", "ops", ops role);
            (role ^ "_words", "words", words role);
          ])
        engine_layers
    in
    let layer =
      List.concat_map
        (fun l -> [ (l ^ ".us", "us", us l); (l ^ ".words", "words", words l) ])
        layers
    in
    {
      base with
      metrics =
        [
          ( "node.commit_wait_ms",
            "ms",
            node_phase (fun s -> s.Tap.result_out -. s.Tap.commit_out)
            -. per_node_ms [ "engine.encode"; "engine.compute" ] );
          ( "node.result_wait_ms",
            "ms",
            node_phase (fun s -> s.Tap.output_out -. s.Tap.result_out)
            -. per_node_ms [ "engine.decode" ] );
          ( "node.round_ms_growth",
            "ratio",
            Stats.growth (Array.of_list (List.map (fun c -> latencies cfg c.run) plain)) );
        ]
        @ frames
        @ [
            ( "transport.bytes",
              "bytes",
              sum_slots (fun s ->
                  float_of_int (Array.fold_left ( + ) 0 (Array.sub s.Tap.bytes 0 4)))
              /. nrounds );
            ("transport.send_us", "us", 1e6 *. median_rounds (fun s -> s.Tap.send_s));
            ("transport.recv_ms", "ms", 1e3 *. median_rounds (fun s -> s.Tap.recv_s));
            ( "transport.recv_calls",
              "count",
              median_rounds (fun s -> float_of_int s.Tap.recv_calls) );
            ( "transport.recv_empty_frac",
              "ratio",
              sum_slots (fun s -> float_of_int s.Tap.recv_empty) /. calls );
          ]
        @ layer @ engine
        @ [
            ("gc.minor_words", "words", gc_minor);
            ("gc.major_collections", "count", gc_major);
            ("gc.heap_mb", "MB", heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0);
            ("cpu_ms", "ms", cpu_ms);
            ( "process_cpu_ms",
              "ms",
              1e3
              *. median_of
                   (fun c -> c.cpu_s /. float_of_int (Client.rounds_run c.run))
                   plain );
            ("wait_frac", "ratio", 1.0 -. (cpu_ms /. (1e3 *. plain_p50)));
            ("lambda_ops", "cmd/op", float_of_int (w.k * n) /. engine_ops);
            ("trace.overhead_frac", "ratio", (tapped_p50 /. plain_p50) -. 1.0);
          ];
    }

(* ---- one workload ---- *)

(* A loopback workload runs on one CPU.  Its nodes share one OCaml
   domain, so their OCaml code runs on one core at a time anyway.
   Unpinned, the kernel side of their polling (the timer and futex
   wake-ups of up to 65 threads) spreads to the other cores, and the
   round time then follows whatever else runs there.  The process
   re-executes itself under taskset; without taskset it runs unpinned,
   and the header line says so. *)
let pin_to_one_cpu () =
  match List.rev (Client.cpus_allowed ()) with
  | cpu :: _ :: _ -> (
    flush_all ();
    let args = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
    try
      Unix.execvp "taskset"
        (Array.append [| "taskset"; "-c"; string_of_int cpu; Sys.executable_name |] args)
    with Unix.Unix_error _ -> ())
  | _ -> ()

let run_one w ~seed ~seconds ~trace ~trace_out =
  if not w.socket then pin_to_one_cpu ();
  Printf.printf "csm_bench workload=%s seed=%d seconds=%g trace=%d cpus=%s\n%!" w.name
    seed seconds (if trace then 1 else 0)
    (Option.value ~default:"?" (Client.proc_field ~pid:"self" "Cpus_allowed_list"));
  let cfg = config w ~seed in
  let o =
    with_socket_dir cfg (fun () ->
        let reference = C.reference_ledger cfg in
        if trace then traced w cfg ~reference ~seconds ~trace_out
        else end_to_end w cfg ~reference ~seconds)
  in
  List.iter print_endline o.Outcome.notes;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-28s %14.4f %s\n" name v unit) o.metrics;
  List.iter (fun e -> Printf.printf "error: %s\n" e) o.errors;
  let correct = o.errors = [] && o.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
                   o.metrics) );
          ]));
  if correct then 0 else 1

(* ---- --compare ---- *)

(* A run file is a captured standard output of csm_bench: the header
   line names the workload, the last line holds the metrics. *)
let read_run path =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all))
  in
  let prefix = "workload=" in
  let workload =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | "csm_bench" :: wl :: _ when String.starts_with ~prefix wl ->
          let k = String.length prefix in
          Some (String.sub wl k (String.length wl - k))
        | _ -> None)
      lines
  in
  match (workload, List.rev lines) with
  | Some w, last :: _ -> (
    match Json.member "metrics" (Json.parse last) with
    | Some (Json.Obj ms) ->
      Some
        ( w,
          List.filter_map
            (fun (name, m) ->
              Option.map (fun v -> (name, v)) (Option.bind (Json.member "value" m) Json.to_float_opt))
            ms )
    | _ -> None)
  | _ -> None

(* Bounds come only from BENCHMARK.json in the working directory. *)
let compare_runs a_files b_files =
  let bench = Json.parse_file "BENCHMARK.json" in
  let e2e =
    match Json.member "end_to_end" bench with
    | Some (Json.List l) ->
      List.filter_map
        (fun m ->
          match
            ( Option.bind (Json.member "name" m) Json.to_string_opt,
              Option.bind (Json.member "better" m) Json.to_string_opt,
              Option.bind (Json.member "bound" m) Json.to_float_opt )
          with
          | Some n, Some b, Some bound -> Some (n, String.equal b "lower", bound)
          | _ -> None)
        l
    | _ -> []
  in
  let load files =
    List.filter_map
      (fun f ->
        match read_run f with
        | Some r -> Some r
        | None ->
          Printf.eprintf "csm_bench: %s holds no csm_bench run; skipped\n" f;
          None)
      files
  in
  let a = load a_files and b = load b_files in
  let names = List.sort_uniq String.compare (List.map fst (a @ b)) in
  let values runs w metric =
    Array.of_list
      (List.filter_map
         (fun (w', ms) -> if String.equal w w' then List.assoc_opt metric ms else None)
         runs)
  in
  let worse = ref 0 in
  Printf.printf "%-13s %-16s %-30s %-30s %8s %7s %6s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "spread" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (metric, lower, bound) ->
          let va = values a w metric and vb = values b w metric in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let q1a, ma, q3a = Stats.quartiles va and q1b, mb, q3b = Stats.quartiles vb in
            let spread = Float.max ((q3a -. q1a) /. ma) ((q3b -. q1b) /. mb) in
            (* positive = B is worse *)
            let change = if lower then (mb -. ma) /. ma else (ma -. mb) /. ma in
            let better_than x y = if lower then x < y else x > y in
            let all_better =
              Array.for_all (fun y -> Array.for_all (fun x -> better_than y x) va) vb
            in
            let verdict =
              if spread > bound then if all_better then "better" else "unresolved"
              else if change > bound then "worse"
              else if change < -.bound then "better"
              else "within"
            in
            if String.equal verdict "worse" then incr worse;
            let side q1 m q3 k = Printf.sprintf "%.4g [%.4g, %.4g] n=%d" m q1 q3 k in
            Printf.printf "%-13s %-16s %-30s %-30s %+7.2f%% %6.2f%% %5.0f%%  %s\n" w metric
              (side q1a ma q3a (Array.length va))
              (side q1b mb q3b (Array.length vb))
              (100.0 *. change) (100.0 *. spread) (100.0 *. bound) verdict
          end)
        e2e)
    names;
  if !worse > 0 then 1 else 0

(* ---- command line ---- *)

let usage () =
  Printf.eprintf
    "usage: csm_bench --workload NAME|all [--seed N] [--seconds S] [--trace [0|1]] \
     [--trace-out FILE]\n\
    \       csm_bench --compare A... -- B...\n\
     workloads: %s\n\
     by name only: %s\n"
    (String.concat ", " (List.map (fun w -> w.name) workloads))
    (String.concat ", " (List.map (fun w -> w.name) scale_workloads));
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let workload = ref None and seed = ref 42 and seconds = ref 20.0 in
  let trace = ref false and trace_out = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with Some s -> seed := s; parse rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := s; parse rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := String.equal v "1"; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--trace-out" :: v :: rest -> trace_out := Some v; parse rest
    | "--compare" :: rest ->
      let rec split a = function
        | "--" :: b -> (List.rev a, b)
        | f :: more -> split (f :: a) more
        | [] -> (List.rev a, [])
      in
      let a, b = split [] rest in
      if a = [] || b = [] then usage ();
      exit (compare_runs a b)
    | [] -> ()
    | _ -> usage ()
  in
  parse args;
  (* no domain is ever spawned: socket mode forks, and every engine call
     in this process runs at pool width 1 *)
  Pool.set_domains 1;
  match !workload with
  | None -> usage ()
  | Some "all" ->
    (* one fresh process per workload: no heap, RSS or thread carries
       over, and socket workloads fork from a process with no domain *)
    let code =
      List.fold_left
        (fun code w ->
          let argv =
            [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int !seed;
              "--seconds"; Printf.sprintf "%g" !seconds; "--trace";
              (if !trace then "1" else "0") ]
            @ (match !trace_out with
              | Some p -> [ "--trace-out"; Printf.sprintf "%s.%s.json" (Filename.remove_extension p) w.name ]
              | None -> [])
          in
          flush_all ();
          let pid =
            Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin
              Unix.stdout Unix.stderr
          in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> code
          | _ -> 1)
        0 workloads
    in
    exit code
  | Some name -> (
    match
      List.find_opt (fun w -> String.equal w.name name) (workloads @ scale_workloads)
    with
    | None -> usage ()
    | Some w ->
      exit (run_one w ~seed:!seed ~seconds:!seconds ~trace:!trace ~trace_out:!trace_out))
