(* Extensions beyond the core protocol: node recovery/regeneration,
   straggler-tolerant early decode, the strategy DSL's execution-phase
   lies against the engine, and the Section-7 random-allocation
   comparison. *)

open Csm_field
open Csm_core
module F = Fp.Default
module E = Engine.Make (F)
module P = Protocol.Make (F)
module M = E.M
module RA = Csm_smr.Random_allocation

let rng = Csm_rng.create 0xE77
let fi = F.of_int

(* ----- node recovery ----- *)

let machine = M.interest_market ()

let make_engine ?(k = 3) ?(b = 2) () =
  let d = M.degree machine in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init =
    Array.init k (fun _ -> Array.init 1 (fun _ -> F.random rng))
  in
  (E.create ~machine ~params ~init, init)

let recovery_honest_peers () =
  let engine, _ = make_engine () in
  let n = engine.E.params.Params.n in
  let victim = 2 in
  let original = Array.copy (E.coded_state engine ~node:victim) in
  (* wipe, then recover from all other peers *)
  engine.E.coded_states.(victim) <- [| F.zero |];
  let reports =
    List.filter_map
      (fun i ->
        if i = victim then None else Some (i, E.coded_state engine ~node:i))
      (List.init n (fun i -> i))
  in
  Alcotest.(check bool) "recovered" true
    (E.recover_node engine ~node:victim ~reports);
  Alcotest.(check bool) "exact state" true
    (Array.for_all2 F.equal original (E.coded_state engine ~node:victim))

let recovery_with_liars () =
  let engine, _ = make_engine () in
  let n = engine.E.params.Params.n in
  let b = engine.E.params.Params.b in
  let victim = 0 in
  let original = Array.copy (E.coded_state engine ~node:victim) in
  let reports =
    List.filter_map
      (fun i ->
        if i = victim then None
        else
          let s = E.coded_state engine ~node:i in
          (* peers 1..b lie about their coded state *)
          let s = if i <= b then Array.map (fun v -> F.add v F.one) s else s in
          Some (i, s))
      (List.init n (fun i -> i))
  in
  (* recovery decodes dimension K from n-1 reports with b lies:
     needs 2b+1 <= (n-1) - (K-1); holds for our parameters *)
  Alcotest.(check bool) "recovered despite liars" true
    (E.recover_node engine ~node:victim ~reports);
  Alcotest.(check bool) "exact state" true
    (Array.for_all2 F.equal original (E.coded_state engine ~node:victim))

let recovery_insufficient_reports () =
  let engine, _ = make_engine () in
  let k = engine.E.params.Params.k in
  (* fewer than K reports cannot determine the state polynomial *)
  let reports = List.init (k - 1) (fun i -> (i + 1, E.coded_state engine ~node:(i + 1))) in
  Alcotest.(check bool) "refused" false
    (E.recover_node engine ~node:0 ~reports)

(* recovered node participates correctly in subsequent rounds *)
let recovery_then_round () =
  let engine, init = make_engine () in
  let n = engine.E.params.Params.n in
  let victim = 3 in
  engine.E.coded_states.(victim) <- [| fi 12345 |];
  let reports =
    List.filter_map
      (fun i ->
        if i = victim then None else Some (i, E.coded_state engine ~node:i))
      (List.init n (fun i -> i))
  in
  assert (E.recover_node engine ~node:victim ~reports);
  let k = engine.E.params.Params.k in
  let commands = Array.init k (fun _ -> [| F.random rng |]) in
  let report =
    E.round engine ~commands
      ~byzantine:(fun i -> i < engine.E.params.Params.b)
      ()
  in
  match report.E.decoded with
  | None -> Alcotest.fail "round failed after recovery"
  | Some dec ->
    let next_ref, _ = M.run_fleet machine ~states:init ~commands in
    for m = 0 to k - 1 do
      if not (F.equal dec.E.next_states.(m).(0) next_ref.(m).(0)) then
        Alcotest.fail "wrong state after recovery"
    done

(* ----- early decode (straggler tolerance) ----- *)

let early_decode_correct_with_liars () =
  (* early decoding at m_min results must still correct b lies when the
     liars are among the fastest responders *)
  let d = M.degree machine in
  let k = 3 and b = 2 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 + 5 (* slack 5 *) in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init = Array.init k (fun i -> [| fi (100 * (i + 1)) |]) in
  let engine = E.create ~machine ~params ~init in
  let cfg = { (P.default_config params) with P.early_decode = true } in
  (* liars are nodes 0..b-1: with uniform latency they are among the
     early arrivals at every node *)
  let adv = P.lying_adversary (List.init b (fun i -> i)) in
  let commands = Array.init k (fun i -> [| fi (i + 7) |]) in
  let times = Array.make n max_int in
  let per_node =
    P.execution_phase ~decode_times:times cfg engine ~commands adv
  in
  let next_ref, _ = M.run_fleet machine ~states:init ~commands in
  Array.iteri
    (fun i result ->
      if not (adv.P.byzantine i) then begin
        match result with
        | None -> Alcotest.failf "node %d failed to decode" i
        | Some dec ->
          for m = 0 to k - 1 do
            if not (F.equal dec.E.next_states.(m).(0) next_ref.(m).(0)) then
              Alcotest.fail "early decode wrong"
          done
      end)
    per_node;
  (* decode happened at the first delivery wave (delta=10), well before
     the full timer *)
  Array.iteri
    (fun i t ->
      if not (adv.P.byzantine i) then
        Alcotest.(check bool) "decoded at first wave" true (t <= cfg.P.delta + 1))
    times

let straggler_sweep_correct () =
  let points = Csm_harness.Stragglers.sweep ~n:12 ~k:2 ~d:2 ~b:1 ~tail:100 () in
  List.iter
    (fun (p : Csm_harness.Stragglers.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "correct at %d stragglers" p.Csm_harness.Stragglers.stragglers)
        true p.Csm_harness.Stragglers.correct;
      (* within the slack, early decode beats waiting for the bound *)
      if p.Csm_harness.Stragglers.stragglers <= p.Csm_harness.Stragglers.slack
      then
        Alcotest.(check bool) "faster than worst-case wait" true
          (p.Csm_harness.Stragglers.t_early
          < p.Csm_harness.Stragglers.t_wait_all))
    points

(* ----- random allocation (Section 7) ----- *)

let allocation_balanced_after_rotation () =
  let t = RA.create ~n:20 ~k:4 in
  let r = Csm_rng.create 9 in
  for _ = 1 to 10 do
    ignore (RA.rotate r t);
    for g = 0 to 3 do
      Alcotest.(check int) "group size" 5 (List.length (RA.members t g))
    done
  done

let allocation_adaptive_owns_group () =
  let t = RA.create ~n:20 ~k:4 in
  let threshold = RA.ownership_threshold t in
  Alcotest.(check int) "threshold" 3 threshold;
  let corrupted = RA.adaptive_corruption t ~budget:threshold in
  let byz i = List.mem i corrupted in
  Alcotest.(check bool) "owned" true (RA.any_group_compromised t ~byzantine:byz);
  (* below the threshold no group can be owned *)
  let corrupted' = RA.adaptive_corruption t ~budget:(threshold - 1) in
  let byz' i = List.mem i corrupted' in
  Alcotest.(check bool) "not owned" false
    (RA.any_group_compromised t ~byzantine:byz')

let allocation_experiment_shape () =
  let n = 24 and k = 6 and epochs = 100 in
  let stat = RA.run_static ~seed:1 ~n ~k ~budget:3 ~epochs in
  let adp0 = RA.run_adaptive ~seed:2 ~n ~k ~budget:3 ~epochs ~delay:0 in
  let adp1 = RA.run_adaptive ~seed:3 ~n ~k ~budget:3 ~epochs ~delay:1 in
  let csm = RA.csm_reference ~n ~k ~d:1 ~budget:3 ~epochs in
  (* instant adaptive adversary always owns a group *)
  Alcotest.(check (float 0.001)) "adaptive delay-0" 1.0 adp0.RA.compromise_rate;
  (* rotation with stale observation collapses toward the static rate *)
  Alcotest.(check bool) "rotation helps" true
    (adp1.RA.compromise_rate < 0.2);
  Alcotest.(check bool) "static rare" true (stat.RA.compromise_rate < 0.2);
  (* but rotation costs migrations; CSM costs none and is never owned *)
  Alcotest.(check bool) "migration cost" true
    (adp1.RA.migrations_per_epoch > 10.0);
  Alcotest.(check (float 0.001)) "csm never" 0.0 csm.RA.compromise_rate;
  Alcotest.(check (float 0.001)) "csm free" 0.0 csm.RA.migrations_per_epoch;
  (* beyond the Table-2 bound CSM is compromised too (honest accounting) *)
  let csm_over = RA.csm_reference ~n ~k ~d:1 ~budget:12 ~epochs in
  Alcotest.(check (float 0.001)) "csm bound honest" 1.0
    csm_over.RA.compromise_rate

(* ----- adversary strategies: the DSL's execution-phase lies ----- *)

module Strategy = Csm_adversary.Strategy
module Oracle = Csm_adversary.Oracle

(* [strat]'s reports in [round], through the oracle's interpreter of
   the DSL (as observer 0 receives them). *)
let corruption strat ~engine ~round : E.corruption =
 fun ~node g ->
  match Strategy.action_at strat ~node ~round with
  | None -> g
  | Some act -> Oracle.corrupt_result engine ~act ~node ~round ~observer:0 g

let liars nodes step =
  Strategy.make
    (List.map (fun node -> { Strategy.node; steps = [ step ] }) nodes)

(* a +1 shift on even rounds only *)
let flip_flop =
  {
    Strategy.rounds = Strategy.Every { period = 2; phase = 0 };
    act = Strategy.Shift 1;
  }

(* Every lie, applied by b liars within the bound, is corrected over
   multiple rounds. *)
let all_strategies_corrected () =
  let machine = M.pair_market () in
  let d = M.degree machine in
  let k = 2 and b = 2 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let always act = { Strategy.rounds = Strategy.Always; act } in
  List.iter
    (fun step ->
      let strat = liars (List.init b Fun.id) step in
      let r = Csm_rng.create 0xAD5 in
      let init = Array.init k (fun _ -> Array.init 2 (fun _ -> F.random r)) in
      let engine = E.create ~machine ~params ~init in
      let states = ref (Array.map Array.copy init) in
      for round = 0 to 3 do
        let commands =
          Array.init k (fun _ -> Array.init 2 (fun _ -> F.random r))
        in
        let report =
          E.round engine ~commands
            ~byzantine:(fun i -> i < b)
            ~corruption:(corruption strat ~engine ~round)
            ()
        in
        let next_ref, _ = M.run_fleet machine ~states:!states ~commands in
        states := next_ref;
        match report.E.decoded with
        | None -> Alcotest.failf "%s: decode failed" (Strategy.name strat)
        | Some dec ->
          for m = 0 to k - 1 do
            for j = 0 to 1 do
              if not (F.equal dec.E.next_states.(m).(j) next_ref.(m).(j))
              then Alcotest.failf "%s: wrong state" (Strategy.name strat)
            done
          done
      done)
    [
      always (Strategy.Shift 1);
      always (Strategy.Garbage { seed = 99 });
      always (Strategy.Coord { index = 0; delta = 1 });
      always (Strategy.Codeword { seed = 0xDE17A });
      always (Strategy.Equivocate { seed = 99 });
      flip_flop;
    ]

(* The flip-flop liar is only reported as erroneous on rounds it lies. *)
let flip_flop_detection () =
  let machine = M.bank () in
  let k = 2 and b = 1 in
  let n = Params.composite_degree ~k ~d:1 + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d:1 ~b in
  let r = Csm_rng.create 4 in
  let init = Array.init k (fun _ -> [| F.random r |]) in
  let engine = E.create ~machine ~params ~init in
  let strat = liars [ 0 ] flip_flop in
  for round = 0 to 3 do
    let commands = Array.init k (fun _ -> [| F.random r |]) in
    let report =
      E.round engine ~commands
        ~byzantine:(fun i -> i = 0)
        ~corruption:(corruption strat ~engine ~round)
        ()
    in
    match report.E.decoded with
    | None -> Alcotest.fail "flip-flop round failed"
    | Some dec ->
      let expect_liar = round mod 2 = 0 in
      Alcotest.(check bool)
        (Printf.sprintf "round %d detection" round)
        expect_liar
        (List.mem 0 dec.E.error_nodes)
  done

let suites =
  [
    ( "extensions:recovery",
      [
        Alcotest.test_case "recover from honest peers" `Quick
          recovery_honest_peers;
        Alcotest.test_case "recover despite liars" `Quick recovery_with_liars;
        Alcotest.test_case "insufficient reports refused" `Quick
          recovery_insufficient_reports;
        Alcotest.test_case "recovered node participates" `Quick
          recovery_then_round;
      ] );
    ( "extensions:stragglers",
      [
        Alcotest.test_case "early decode corrects fast liars" `Quick
          early_decode_correct_with_liars;
        Alcotest.test_case "sweep correct + faster in slack" `Quick
          straggler_sweep_correct;
      ] );
    ( "extensions:adversaries",
      [
        Alcotest.test_case "all strategies corrected within bound" `Quick
          all_strategies_corrected;
        Alcotest.test_case "flip-flop detected intermittently" `Quick
          flip_flop_detection;
      ] );
    ( "extensions:allocation",
      [
        Alcotest.test_case "balanced after rotation" `Quick
          allocation_balanced_after_rotation;
        Alcotest.test_case "adaptive ownership threshold" `Quick
          allocation_adaptive_owns_group;
        Alcotest.test_case "section-7 experiment shape" `Quick
          allocation_experiment_shape;
      ] );
  ]
