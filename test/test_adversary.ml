(* Adversary synthesis engine: strategy DSL codec, bounded search,
   shrinking, the Table-2 tightness pins (safety at b = muN, a
   replayable counterexample at b = muN + 1), byte-for-byte replay of
   the committed fixtures, and the csm_cluster --faults wiring. *)

open Alcotest
module Adv = Csm_adversary
module Strategy = Adv.Strategy
module Oracle = Adv.Oracle
module Search = Adv.Search
module Shrink = Adv.Shrink
module Trace = Adv.Trace
module Certify = Adv.Certify
module Json = Csm_obs.Json

let checkb = check bool
let seed = 0xAD5E

(* ----- DSL: canonicalization and total JSON codec ----- *)

let strategy_roundtrip () =
  let rng = Csm_rng.create 0x5712 in
  for _ = 1 to 200 do
    let s = Strategy.random rng ~n:11 ~rounds_total:4 ~max_nodes:4 in
    match Strategy.of_json (Strategy.to_json s) with
    | Ok s' -> check string "codec round trip" (Strategy.key s) (Strategy.key s')
    | Error m -> failf "round trip rejected %s: %s" (Strategy.name s) m
  done

let strategy_of_json_total () =
  let rng = Csm_rng.create 0xF00D in
  (* structured junk: random JSON scalars and mutated valid documents
     must return Error or a valid strategy, never raise *)
  let junk =
    [
      Json.Null;
      Json.Bool true;
      Json.Int 3;
      Json.Str "plans";
      Json.List [ Json.Int 1 ];
      Json.Obj [ ("plans", Json.Int 1) ];
      Json.Obj [ ("plans", Json.List [ Json.Obj [ ("node", Json.Str "x") ] ]) ];
      Json.Obj
        [
          ( "plans",
            Json.List
              [
                Json.Obj
                  [
                    ("node", Json.Int 0);
                    ( "steps",
                      Json.List
                        [
                          Json.Obj
                            [
                              ("rounds", Json.Obj [ ("kind", Json.Str "nope") ]);
                              ("act", Json.Obj [ ("kind", Json.Str "silence") ]);
                            ];
                        ] );
                  ];
              ] );
        ];
    ]
  in
  List.iter (fun j -> ignore (Strategy.of_json j)) junk;
  for _ = 1 to 50 do
    let s = Strategy.random rng ~n:7 ~rounds_total:3 ~max_nodes:3 in
    (* dropping a random field must not raise *)
    match Strategy.to_json s with
    | Json.Obj fields when fields <> [] ->
      let i = Csm_rng.int rng (List.length fields) in
      ignore (Strategy.of_json (Json.Obj (List.filteri (fun j _ -> j <> i) fields)))
    | _ -> ()
  done

let strategy_canonical () =
  let step = { Strategy.rounds = Strategy.Always; act = Strategy.Shift 1 } in
  let plan node = { Strategy.node; steps = [ step ] } in
  let a = Strategy.make [ plan 2; plan 0; plan 2 ] in
  let b = Strategy.make [ plan 0; plan 2 ] in
  check string "dedup + sort is canonical" (Strategy.key b) (Strategy.key a);
  check (list int) "byz_nodes sorted" [ 0; 2 ] (Strategy.byz_nodes a);
  checkb "empty plans dropped" true
    (Strategy.equal Strategy.honest (Strategy.make [ { Strategy.node = 1; steps = [] } ]))

let enumerate_deterministic () =
  let take n seq = List.of_seq (Seq.take n seq) in
  let keys () =
    List.map Strategy.key
      (take 64 (Strategy.enumerate ~n:9 ~rounds_total:2 ~max_nodes:3))
  in
  check (list string) "same order every call" (keys ()) (keys ());
  let sizes =
    List.map
      (fun s -> Strategy.size s)
      (take 16 (Strategy.enumerate ~n:9 ~rounds_total:2 ~max_nodes:3))
  in
  check int "largest subsets first" 3 (List.hd sizes)

(* ----- oracle pins: the four Table-2 bounds are tight ----- *)

(* At the defender bound the full bounded-exhaustive class must be
   safe; one node past it the recorded fixture strategy must violate.
   This is the unit-test twin of the smoke certificate: small, exact,
   and pinned to the standard Table2 instances. *)
let bound_tight bound () =
  let instance = Oracle.instance_for bound ~seed in
  let b = instance.Oracle.b in
  let at =
    Search.search ~bound ~instance ~max_nodes:b ~budget:1000
      ~schedule:Search.Exhaustive ~seed ()
  in
  checkb "whole at-bound class searched" true at.Search.exhausted;
  check int "no violation at b" 0 (List.length at.Search.witnesses);
  let above =
    Search.search ~stop_at_first:true ~bound ~instance ~max_nodes:(b + 1)
      ~budget:1000 ~schedule:Search.Exhaustive ~seed ()
  in
  checkb "witness at b+1" true (above.Search.witnesses <> [])

let decode_sync_tight = bound_tight Oracle.Decode_sync
let decode_partial_tight = bound_tight Oracle.Decode_partial
let output_delivery_tight = bound_tight Oracle.Output_delivery
let input_totality_tight = bound_tight Oracle.Input_totality

(* Each DSL action, run by nodes 0..m-1 at m = b and m = b + 1 on the
   output-delivery instance.  At b the client's vote is safe.  Past it,
   a lie every liar tells alike (shift, one-coordinate, the colluding
   codeword) forges the output, and silence or per-node lies leave no
   value with b + 1 votes.  The signal counts 0.25 per withholder and 1
   per liar. *)
let output_verdicts_by_action () =
  let bound = Oracle.Output_delivery in
  let instance = Oracle.instance_for bound ~seed in
  let b = instance.Oracle.b in
  let describe = function
    | Oracle.Safe -> "safe"
    | Oracle.Violation { kind; detail } ->
      Oracle.violation_kind_name kind ^ ": " ^ detail
  in
  let forged = "safety: client accepted a forged output" in
  let no_value = "liveness: client vote reached no value" in
  List.iter
    (fun (name, act, weight, above) ->
      List.iter
        (fun (m, expect) ->
          let step = { Strategy.rounds = Strategy.Always; act } in
          let plan node = { Strategy.node; steps = [ step ] } in
          let r =
            Oracle.check bound instance (Strategy.make (List.init m plan))
          in
          let what = Printf.sprintf "%s by %d nodes" name m in
          check string (what ^ ": verdict") expect (describe r.Oracle.verdict);
          check (float 0.0) (what ^ ": signal")
            (weight *. float_of_int m)
            r.Oracle.signal)
        [ (b, "safe"); (b + 1, above) ])
    [
      ("silence", Strategy.Silence [], 0.25, no_value);
      ("selective silence", Strategy.Silence [ 0 ], 0.25, no_value);
      ("shift", Strategy.Shift 1, 1.0, forged);
      ("coord", Strategy.Coord { index = 0; delta = 1 }, 1.0, forged);
      ("codeword", Strategy.Codeword { seed = 0xC0DE }, 1.0, forged);
      ("garbage", Strategy.Garbage { seed = 0x6AB }, 1.0, no_value);
      ("equivocate", Strategy.Equivocate { seed = 0xE9 }, 1.0, no_value);
    ]

let oracle_deterministic () =
  let bound = Oracle.Decode_sync in
  let instance = Oracle.instance_for bound ~seed in
  let rng = Csm_rng.create 0xDE7 in
  for _ = 1 to 20 do
    let s =
      Strategy.random rng ~n:instance.Oracle.n ~rounds_total:instance.Oracle.rounds
        ~max_nodes:(instance.Oracle.b + 1)
    in
    let r1 = Oracle.check bound instance s in
    let r2 = Oracle.check bound instance s in
    checkb "same verdict twice" true (r1 = r2)
  done

(* ----- shrinking ----- *)

let shrink_minimizes () =
  let bound = Oracle.Output_delivery in
  let instance = Oracle.instance_for bound ~seed in
  let b = instance.Oracle.b in
  let still_fails s =
    Strategy.size s <= b + 1
    &&
    match (Oracle.check bound instance s).Oracle.verdict with
    | Oracle.Violation _ -> true
    | Oracle.Safe -> false
  in
  (* a deliberately baroque witness: b+1 silencers with noisy extras *)
  let plan node =
    {
      Strategy.node;
      steps =
        [
          { Strategy.rounds = Strategy.From 0; act = Strategy.Silence [] };
          { Strategy.rounds = Strategy.Always; act = Strategy.Garbage { seed = 99 } };
        ];
    }
  in
  let fat = Strategy.make (List.init (b + 1) plan) in
  checkb "input fails" true (still_fails fat);
  let minimal, steps = Shrink.shrink ~still_fails fat in
  checkb "minimal still fails" true (still_fails minimal);
  checkb "made progress" true (steps > 0);
  checkb "local minimum: no candidate still fails" true
    (List.for_all (fun c -> not (still_fails c)) (Shrink.candidates minimal));
  (* determinism: shrinking the same witness twice gives the same bytes *)
  let minimal', _ = Shrink.shrink ~still_fails fat in
  check string "canonical" (Strategy.key minimal) (Strategy.key minimal')

(* ----- committed fixtures: byte-for-byte replay ----- *)

let fixture name = Filename.concat "fixtures" ("adversary_" ^ name ^ ".json")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let fixture_replays name () =
  let path = fixture name in
  match Trace.load ~path with
  | Error m -> failf "%s: %s" path m
  | Ok t -> (
    check string "canonical bytes" (read_file path) (Trace.to_string t);
    checkb "witness is above the defender bound" true
      (Strategy.size t.Trace.strategy = t.Trace.instance.Oracle.b + 1);
    match Trace.replay t with
    | Ok () -> ()
    | Error m -> failf "%s does not replay: %s" path m)

(* Every standard instance is feasible; a trace whose instance the
   bound's oracle cannot run (b past the defender bound, no nodes) is a
   load error, not an exception at replay. *)
let infeasible_instances_rejected () =
  List.iter
    (fun bound ->
      checkb (Oracle.bound_name bound ^ " standard instance") true
        (Oracle.feasible bound (Oracle.instance_for bound ~seed)))
    Oracle.certified_bounds;
  List.iter
    (fun (name, bump) ->
      match Trace.load ~path:(fixture name) with
      | Error m -> failf "%s: %s" name m
      | Ok t ->
        let bad = { t with Trace.instance = bump t.Trace.instance } in
        checkb (name ^ " infeasible instance rejected") true
          (Result.is_error (Trace.of_json (Trace.to_json bad))))
    [
      ("decode", fun i -> { i with Oracle.b = i.Oracle.b + 1 });
      ("output", fun i -> { i with Oracle.b = i.Oracle.b + 1 });
      ("totality", fun i -> { i with Oracle.n = 0 });
    ]

(* Verdicts depend only on the bound, instance and strategy: with
   metrics on and csm_node_suspicion raised for every node, or for the
   strategy's liars alone, each committed fixture still yields its
   recorded violation. *)
let verdicts_ignore_metrics () =
  let module Metric = Csm_obs.Metric in
  let module Tel = Csm_obs.Telemetry in
  Metric.enable ();
  Metric.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metric.reset ();
      Metric.disable ())
    (fun () ->
      List.iter
        (fun name ->
          match Trace.load ~path:(fixture name) with
          | Error m -> failf "%s: %s" name m
          | Ok t ->
            let inst = t.Trace.instance in
            let all = List.init inst.Oracle.n Fun.id in
            List.iter
              (fun suspects ->
                Metric.reset ();
                List.iter
                  (fun node -> Metric.add (Tel.node_suspicion ~node) 1.0)
                  suspects;
                let r = Oracle.check t.Trace.bound inst t.Trace.strategy in
                match r.Oracle.verdict with
                | Oracle.Violation { kind; detail } ->
                  check string (name ^ " kind")
                    (Oracle.violation_kind_name t.Trace.kind)
                    (Oracle.violation_kind_name kind);
                  check string (name ^ " detail") t.Trace.detail detail
                | Oracle.Safe -> failf "%s: safe with suspicion raised" name)
              [ all; Strategy.byz_nodes t.Trace.strategy ])
        [ "decode"; "output"; "totality" ])

(* ----- certifier: one full bound end to end ----- *)

let certify_one_bound () =
  let r = Certify.certify_bound ~schedule:Search.Exhaustive ~budget:1000 ~seed Oracle.Input_totality in
  checkb "safe at bound" true r.Certify.safety_holds_at_bound;
  checkb "witness above bound" true r.Certify.witness_found_above_bound;
  checkb "witness replays" true r.Certify.replay_ok;
  checkb "at-bound class exhausted" true r.Certify.at_exhausted

(* ----- csm_cluster --faults wiring ----- *)

let cluster_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "csm_cluster.exe"

let run_cluster args ~stderr_to =
  Sys.command
    (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote cluster_exe) args
       (Filename.quote stderr_to))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* bad --faults input is a cmdliner usage error (exit 124) whose
   message lists the valid fault kinds *)
let faults_usage_error () =
  let err = Filename.temp_file "csm_adv_faults" ".err" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let rc = run_cluster "--faults 1:bogus -n 3 -k 1 -d 1 -b 1" ~stderr_to:err in
      check int "usage-error exit" 124 rc;
      let msg = read_file err in
      checkb "names the offender" true (contains ~needle:"bogus" msg);
      List.iter
        (fun kind ->
          checkb (Printf.sprintf "lists %s" kind) true (contains ~needle:kind msg))
        [ "drop"; "corrupt"; "lie"; "delay"; "strategy:FILE" ])

(* --faults strategy:FILE runs the cluster under a searched strategy;
   a one-node full-silence plan must behave exactly like 1:drop *)
let faults_strategy_file () =
  let strat = Filename.temp_file "csm_adv_strat" ".json" in
  let err = Filename.temp_file "csm_adv_strat" ".err" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove strat with Sys_error _ -> ());
      try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let plan =
        {
          Strategy.node = 1;
          steps = [ { Strategy.rounds = Strategy.Always; act = Strategy.Silence [] } ];
        }
      in
      Json.write ~path:strat (Strategy.to_json (Strategy.make [ plan ]));
      let rc =
        run_cluster
          (Printf.sprintf "-n 3 -k 1 -d 1 -b 1 --rounds 2 --seed 7 --faults strategy:%s"
             (Filename.quote strat))
          ~stderr_to:err
      in
      check int "strategy-driven run verifies" 0 rc;
      let rc_missing =
        run_cluster "--faults strategy:/nonexistent-strategy.json -n 3 -k 1 -d 1 -b 1"
          ~stderr_to:err
      in
      check int "missing file is a usage error" 124 rc_missing)

let suites =
  [
    ( "adversary",
      [
        test_case "strategy JSON round trip" `Quick strategy_roundtrip;
        test_case "strategy of_json is total" `Quick strategy_of_json_total;
        test_case "strategy canonicalization" `Quick strategy_canonical;
        test_case "enumerate: deterministic, largest first" `Quick
          enumerate_deterministic;
        test_case "decode-sync bound is tight" `Quick decode_sync_tight;
        test_case "decode-partial bound is tight" `Quick decode_partial_tight;
        test_case "output-delivery bound is tight" `Quick output_delivery_tight;
        test_case "input-totality bound is tight" `Quick input_totality_tight;
        test_case "oracle verdicts are deterministic" `Quick oracle_deterministic;
        test_case "output verdicts per action at b and b+1" `Quick
          output_verdicts_by_action;
        test_case "shrink reaches a canonical local minimum" `Quick
          shrink_minimizes;
        test_case "decode fixture replays byte-for-byte" `Quick
          (fixture_replays "decode");
        test_case "output fixture replays byte-for-byte" `Quick
          (fixture_replays "output");
        test_case "totality fixture replays byte-for-byte" `Quick
          (fixture_replays "totality");
        test_case "trace rejects an infeasible instance" `Quick
          infeasible_instances_rejected;
        test_case "oracle verdicts ignore metrics state" `Quick
          verdicts_ignore_metrics;
        test_case "certify_bound: input-totality end to end" `Quick
          certify_one_bound;
        test_case "--faults lists kinds on bad input" `Quick faults_usage_error;
        test_case "--faults strategy:FILE drives the cluster" `Quick
          faults_strategy_file;
      ] );
  ]
