(* End-to-end networked CSM: consensus + coded execution + client
   delivery over the simulator, under passive, lying, equivocating and
   withholding adversaries, in both network models.  This realizes the
   Figure-1/Figure-2 scenarios of the paper. *)

open Csm_field
open Csm_core
module F = Fp.Default
module P = Protocol.Make (F)
module E = P.E
module M = E.M

let rng = Csm_rng.create 0xE2E
let fi = F.of_int

let machine = M.bank ()

let setup ?(network = Params.Sync) ?(k = 3) ?(b = 2) () =
  let d = M.degree machine in
  let c = match network with Params.Sync -> 2 | Params.Partial_sync -> 3 in
  let n = Params.composite_degree ~k ~d + (c * b) + 1 in
  let params = Params.make ~network ~n ~k ~d ~b in
  let init = Array.init k (fun i -> [| fi (1000 * (i + 1)) |]) in
  let engine = E.create ~machine ~params ~init in
  let cfg = P.default_config params in
  (cfg, engine, init)

let workload k r = Array.init k (fun m -> [| fi ((10 * r) + m + 1) |])

(* Reference trajectory for comparison. *)
let reference init ~k ~rounds =
  let states = ref (Array.map Array.copy init) in
  List.init rounds (fun r ->
      let next, outs = M.run_fleet machine ~states:!states ~commands:(workload k r) in
      states := next;
      outs)

let check_outcomes ?(expect_all_rounds = true) outcomes refs k b_liars =
  List.iteri
    (fun r (o : P.round_outcome) ->
      if expect_all_rounds then begin
        Alcotest.(check bool)
          (Printf.sprintf "round %d executed" r)
          true o.P.executed;
        Alcotest.(check bool) "honest agree" true o.P.honest_agree;
        let expected = List.nth refs r in
        Array.iteri
          (fun m out ->
            match out with
            | None -> Alcotest.failf "round %d machine %d undelivered" r m
            | Some y ->
              if not (F.equal y.(0) expected.(m).(0)) then
                Alcotest.failf "round %d machine %d wrong output" r m)
          o.P.delivered
      end)
    outcomes;
  ignore k;
  ignore b_liars

let honest_run_sync () =
  let cfg, engine, init = setup () in
  let k = cfg.P.params.Params.k in
  let outcomes =
    P.run cfg engine ~workload:(workload k) ~rounds:4 P.passive_adversary
  in
  check_outcomes outcomes (reference init ~k ~rounds:4) k []

let lying_adversary_sync () =
  let cfg, engine, init = setup () in
  let k = cfg.P.params.Params.k in
  let b = cfg.P.params.Params.b in
  (* liars chosen away from early leaders so no round is skipped *)
  let liars = List.init b (fun i -> cfg.P.params.Params.n - 1 - i) in
  let outcomes =
    P.run cfg engine ~workload:(workload k) ~rounds:4 (P.lying_adversary liars)
  in
  check_outcomes outcomes (reference init ~k ~rounds:4) k liars

let equivocating_execution_sync () =
  (* byz nodes send different g to different peers; honest nodes must
     still decode identically (Remark after Table 2) *)
  let cfg, engine, init = setup () in
  let k = cfg.P.params.Params.k in
  let b = cfg.P.params.Params.b in
  let liars = List.init b (fun i -> cfg.P.params.Params.n - 1 - i) in
  let outcomes =
    P.run cfg engine ~workload:(workload k) ~rounds:3
      (P.equivocating_adversary liars)
  in
  check_outcomes outcomes (reference init ~k ~rounds:3) k liars

let byzantine_leader_round_skipped () =
  (* round 0's leader (node 0) is Byzantine and equivocates: honest nodes
     decide ⊥ and skip; round 1 has an honest leader and proceeds *)
  let cfg, engine, _init = setup () in
  let k = cfg.P.params.Params.k in
  let adv = P.lying_adversary [ 0 ] in
  let outcomes = P.run cfg engine ~workload:(workload k) ~rounds:2 adv in
  let r0 = List.nth outcomes 0 and r1 = List.nth outcomes 1 in
  Alcotest.(check bool) "round 0 skipped" true (r0.P.consensus = P.Skipped);
  Alcotest.(check bool) "round 0 not executed" false r0.P.executed;
  Alcotest.(check bool) "round 1 executed" true r1.P.executed

let withholding_partial_sync () =
  let cfg, engine, init = setup ~network:Params.Partial_sync () in
  let k = cfg.P.params.Params.k in
  let b = cfg.P.params.Params.b in
  let liars = List.init b (fun i -> cfg.P.params.Params.n - 1 - i) in
  let outcomes =
    P.run cfg engine ~workload:(workload k) ~rounds:3
      (P.withholding_adversary liars)
  in
  check_outcomes outcomes (reference init ~k ~rounds:3) k liars

let lying_partial_sync () =
  let cfg, engine, init = setup ~network:Params.Partial_sync () in
  let k = cfg.P.params.Params.k in
  let b = cfg.P.params.Params.b in
  let liars = List.init b (fun i -> cfg.P.params.Params.n - 1 - i) in
  let outcomes =
    P.run cfg engine ~workload:(workload k) ~rounds:3 (P.lying_adversary liars)
  in
  check_outcomes outcomes (reference init ~k ~rounds:3) k liars

let partial_sync_with_slow_network () =
  (* adversarial delays before GST: liveness resumes after *)
  let cfg, engine, init = setup ~network:Params.Partial_sync ~k:2 ~b:1 () in
  let cfg = { cfg with P.gst = 500; pre_gst_delay = 100_000 } in
  let k = cfg.P.params.Params.k in
  let outcomes =
    P.run cfg engine ~workload:(workload k) ~rounds:2 P.passive_adversary
  in
  check_outcomes outcomes (reference init ~k ~rounds:2) k []

let figure2_scenario () =
  (* The paper's Figure 2: K=2 machines, N=3 nodes, node 2 malicious.
     N=3, K=2, d=1 gives d(K-1)=1, so sync decoding tolerates
     2b+1 <= 2 -> b=0: Figure 2's parameters only illustrate the flow,
     so we run its faithful "next size up": N=5 tolerates b=1. *)
  let k = 2 and d = 1 and b = 1 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  Alcotest.(check int) "n" 4 n;
  let n = max n 5 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init = [| [| fi 10 |]; [| fi 20 |] |] in
  let engine = E.create ~machine ~params ~init in
  let cfg = P.default_config params in
  (* node 2 equivocates in consensus when leader and lies in execution *)
  let adv = P.lying_adversary [ 2 ] in
  let outcomes = P.run cfg engine ~workload:(workload k) ~rounds:3 adv in
  List.iteri
    (fun r (o : P.round_outcome) ->
      if r mod n <> 2 then begin
        Alcotest.(check bool) "executed" true o.P.executed;
        (* the liar is exposed by decoding *)
        match o.P.decoded with
        | Some d ->
          Alcotest.(check bool) "node 2 in error set" true
            (List.mem 2 d.E.error_nodes)
        | None -> Alcotest.fail "no decode"
      end)
    outcomes

let storage_stays_coded () =
  (* after protocol rounds the engine's coded states match the reference *)
  let cfg, engine, init = setup () in
  let k = cfg.P.params.Params.k in
  let rounds = 3 in
  ignore (P.run cfg engine ~workload:(workload k) ~rounds P.passive_adversary);
  let states = ref (Array.map Array.copy init) in
  for r = 0 to rounds - 1 do
    let next, _ = M.run_fleet machine ~states:!states ~commands:(workload k r) in
    states := next
  done;
  Alcotest.(check bool) "coded states consistent" true
    (E.consistent_with engine ~states:!states)

(* Differential testing: the networked protocol and the pure engine,
   fed identical commands, must produce identical per-round outputs and
   end in identical coded states (the network layer adds no semantics). *)
let protocol_vs_engine_differential =
  QCheck.Test.make ~name:"protocol = engine (differential)" ~count:10
    (QCheck.make (QCheck.Gen.return ()))
    (fun () ->
      let k = 2 + Csm_rng.int rng 2 in
      let b = 1 + Csm_rng.int rng 2 in
      let d = M.degree machine in
      let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
      let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
      let init = Array.init k (fun _ -> [| F.random rng |]) in
      let rounds = 3 in
      let cmds =
        Array.init rounds (fun _ ->
            Array.init k (fun _ -> [| F.random rng |]))
      in
      (* networked run *)
      let e1 = E.create ~machine ~params ~init in
      let cfg = P.default_config params in
      let outcomes =
        P.run cfg e1 ~workload:(fun r -> cmds.(r)) ~rounds P.passive_adversary
      in
      (* pure engine run *)
      let e2 = E.create ~machine ~params ~init in
      let ok = ref true in
      List.iteri
        (fun r (o : P.round_outcome) ->
          let report =
            E.round e2 ~commands:cmds.(r) ~byzantine:(fun _ -> false) ()
          in
          match (o.P.decoded, report.E.decoded) with
          | Some a, Some b' ->
            for m = 0 to k - 1 do
              if not (F.equal a.E.outputs.(m).(0) b'.E.outputs.(m).(0)) then
                ok := false
            done
          | _ -> ok := false)
        outcomes;
      (* identical final coded states *)
      Array.iteri
        (fun i v ->
          Array.iteri
            (fun j x ->
              if not (F.equal x e2.E.coded_states.(i).(j)) then ok := false)
            v)
        e1.E.coded_states;
      !ok)

let suites =
  [
    ( "protocol:e2e",
      [
        Alcotest.test_case "honest run (sync)" `Quick honest_run_sync;
        Alcotest.test_case "lying adversary (sync)" `Quick lying_adversary_sync;
        Alcotest.test_case "equivocating execution (sync)" `Quick
          equivocating_execution_sync;
        Alcotest.test_case "byzantine leader: round skipped, next recovers"
          `Quick byzantine_leader_round_skipped;
        Alcotest.test_case "withholding (partial sync)" `Quick
          withholding_partial_sync;
        Alcotest.test_case "lying (partial sync)" `Quick lying_partial_sync;
        Alcotest.test_case "pre-GST adversarial delays" `Quick
          partial_sync_with_slow_network;
        Alcotest.test_case "figure-2 scenario" `Quick figure2_scenario;
        Alcotest.test_case "coded storage stays consistent" `Quick
          storage_stays_coded;
        QCheck_alcotest.to_alcotest ~long:false protocol_vs_engine_differential;
      ] );
  ]
