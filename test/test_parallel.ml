(* Domain fan-out ([Pool.parallel_list_map]) and the engine round's
   determinism: decoded records and ledger totals must not depend on
   whether an engine runs alone or beside others on separate domains,
   including under Byzantine corruption, and operation counting stays
   exact per domain. *)

open Csm_field
open Csm_core
module Pool = Csm_parallel.Pool
module F = Fp.Default
module CF = Counted.Make (F)
module Counter = Csm_metrics.Counter
module Ledger = Csm_metrics.Ledger
module Scope = Csm_metrics.Scope
module E = Engine.Make (F)
module EC = Engine.Make (CF)
module M = E.M

let rng = Csm_rng.create 0xD0A1

let with_domains w f =
  let old = Pool.domains () in
  Pool.set_domains w;
  Fun.protect ~finally:(fun () -> Pool.set_domains old) f

(* ----- parallel_list_map ----- *)

let pool_empty () =
  with_domains 4 (fun () ->
      Alcotest.(check (list int)) "list []" []
        (Pool.parallel_list_map
           (fun _ -> Alcotest.fail "body must not run")
           []))

let pool_shorter_than_domains () =
  with_domains 4 (fun () ->
      (* fewer elements than domains: every element exactly once, in order *)
      Alcotest.(check (list int)) "len 1" [ 0 ]
        (Pool.parallel_list_map Fun.id [ 0 ]);
      Alcotest.(check (list int)) "len 3" [ 0; 10; 20 ]
        (Pool.parallel_list_map (fun i -> 10 * i) [ 0; 1; 2 ]))

let pool_matches_sequential () =
  with_domains 4 (fun () ->
      let f x = (x * 7) + 3 in
      let l = List.init 37 (fun i -> i - 18) in
      Alcotest.(check (list int)) "list_map = List.map" (List.map f l)
        (Pool.parallel_list_map f l))

let pool_exception () =
  with_domains 4 (fun () ->
      (* task 0 fails once every task has started, while the others are
         still running: the failure reaches the caller only after every
         task has stopped *)
      let started = Atomic.make 0 and running = Atomic.make 0 in
      let task i =
        Atomic.incr started;
        Atomic.incr running;
        Fun.protect
          ~finally:(fun () -> Atomic.decr running)
          (fun () ->
            if i = 0 then begin
              while Atomic.get started < 4 do
                Domain.cpu_relax ()
              done;
              failwith "boom"
            end
            else Unix.sleepf 0.05)
      in
      (match Pool.parallel_list_map task [ 0; 1; 2; 3 ] with
      | _ -> Alcotest.fail "expected exception"
      | exception Failure m ->
        Alcotest.(check string) "message" "boom" m;
        Alcotest.(check int) "every task stopped" 0 (Atomic.get running));
      Alcotest.(check (list int)) "next call runs" (List.init 16 Fun.id)
        (Pool.parallel_list_map Fun.id (List.init 16 Fun.id)))

let pool_nested () =
  with_domains 4 (fun () ->
      (* a call from inside a task runs inline on that task's domain *)
      let sums =
        Pool.parallel_list_map
          (fun i ->
            (* csm-lint: allow R1 — asserting physical inline execution *)
            let self = Domain.self () in
            Pool.parallel_list_map
              (fun j ->
                (* csm-lint: allow R1 — asserting physical inline execution *)
                if not (Domain.self () = self) then
                  Alcotest.fail "nested call must run inline";
                i + j)
              (List.init 50 Fun.id)
            |> List.fold_left ( + ) 0)
          (List.init 8 Fun.id)
      in
      let expect i = (50 * i) + (50 * 49 / 2) in
      Alcotest.(check (list int)) "nested sums" (List.init 8 expect) sums)

let pool_limit () =
  with_domains 4 (fun () ->
      Alcotest.(check int) "domains" 4 (Pool.domains ());
      Pool.with_domain_limit 1 (fun () ->
          (* forced sequential: every task runs on the calling domain *)
          (* csm-lint: allow R1 — asserting physical inline execution *)
          let self = Domain.self () in
          ignore
            (Pool.parallel_list_map
               (fun _ ->
                 (* csm-lint: allow R1 — asserting physical inline execution *)
                 if not (Domain.self () = self) then
                   Alcotest.fail "limit 1 must run inline")
               (List.init 8 Fun.id)));
      Alcotest.(check int) "restored" 4 (Pool.domains ()))

(* ----- exact counting per domain ----- *)

let counting_exact () =
  with_domains 4 (fun () ->
      let x = CF.of_int 3 and y = CF.of_int 5 in
      let count_with w =
        Pool.with_domain_limit w (fun () ->
            Pool.parallel_list_map
              (fun reps ->
                let c = Counter.create () in
                CF.with_counter c (fun () ->
                    for _ = 1 to reps do
                      ignore (CF.mul x y);
                      ignore (CF.add x y)
                    done);
                (Counter.muls c, Counter.adds c))
              [ 100; 100; 100; 100 ])
      in
      let expect = List.init 4 (fun _ -> (100, 100)) in
      Alcotest.(check (list (pair int int))) "width 1" expect (count_with 1);
      Alcotest.(check (list (pair int int))) "width 4" expect (count_with 4))

let ledger_roles_across_domains () =
  with_domains 4 (fun () ->
      let x = CF.of_int 2 and y = CF.of_int 9 in
      let totals_with w =
        Pool.with_domain_limit w (fun () ->
            let ledger = Ledger.create () in
            let scope = Scope.of_ledger (module CF) ledger in
            ignore
              (Pool.parallel_list_map
                 (fun i ->
                   Scope.node scope (i mod 3) (fun () ->
                       for _ = 1 to i + 1 do
                         ignore (CF.mul x y)
                       done))
                 (List.init 60 Fun.id));
            List.map
              (fun r -> (r, Counter.total (Ledger.counter ledger r)))
              (List.sort String.compare (Ledger.roles ledger)))
      in
      Alcotest.(check (list (pair string int))) "per-role totals equal"
        (totals_with 1) (totals_with 4))

(* ----- engine determinism ----- *)

type observation = {
  o_decoded : (F.t array array * F.t array array * int list) option;
  o_states : F.t array array;
  o_roles : (string * int) list;
}

(* Run [rounds] coded rounds (with byz_count Byzantine nodes corrupting
   deterministically) on a fresh counted engine; everything observable
   is returned for comparison. *)
let observe ~byz_count ~rounds ~seed =
  let r = Csm_rng.create seed in
  let machine = EC.M.pair_market () in
  let d = 2 and k = 5 in
  let b = byz_count in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init = Array.init k (fun _ -> Array.init 2 (fun _ -> CF.random r)) in
  let ledger = Ledger.create () in
  let scope = Scope.of_ledger (module CF) ledger in
  let engine = EC.create ~machine ~params ~init in
  let byz = Array.init n (fun i -> i < b) in
  Csm_rng.shuffle r byz;
  let last = ref None in
  for _ = 1 to rounds do
    let commands =
      Array.init k (fun _ -> Array.init 2 (fun _ -> CF.random r))
    in
    let report =
      EC.round ~scope engine ~commands
        ~byzantine:(fun i -> byz.(i))
        ~corruption:(fun ~node g ->
          Array.map (fun v -> CF.add v (CF.of_int (node + 2))) g)
        ()
    in
    last := report.EC.decoded
  done;
  let repr (v : CF.t array array) = Array.map (Array.map CF.to_int) v in
  let frepr = Array.map (Array.map F.of_int) in
  {
    o_decoded =
      Option.map
        (fun d ->
          ( frepr (repr d.EC.next_states),
            frepr (repr d.EC.outputs),
            d.EC.error_nodes ))
        !last;
    o_states =
      frepr (repr (Array.init n (fun i -> EC.coded_state engine ~node:i)));
    o_roles =
      List.map
        (fun role -> (role, Counter.total (Ledger.counter ledger role)))
        (List.sort String.compare (Ledger.roles ledger));
  }

let qcheck_round_deterministic =
  QCheck.Test.make ~name:"round identical under two domains at once" ~count:15
    (QCheck.make (QCheck.Gen.return ()))
    (fun () ->
      let byz_count = Csm_rng.int rng 4 in
      let seed = 0xBEEF + Csm_rng.int rng 10_000 in
      let run () = observe ~byz_count ~rounds:2 ~seed in
      let a = run () in
      let pair =
        with_domains 2 (fun () -> Pool.parallel_list_map run [ (); () ])
      in
      List.iter
        (fun b ->
          if a.o_decoded <> b.o_decoded then
            QCheck.Test.fail_report "decoded records differ between runs";
          if a.o_states <> b.o_states then
            QCheck.Test.fail_report "coded states differ between runs";
          if a.o_roles <> b.o_roles then
            QCheck.Test.fail_report "ledger totals differ between runs")
        pair;
      true)

let decode_errors_deterministic () =
  (* the byzantine nodes are exactly the ones reported *)
  let r = Csm_rng.create 0xE44 in
  let machine = M.pair_market () in
  let k = 4 and d = 2 and b = 2 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init = Array.init k (fun _ -> Array.init 2 (fun _ -> F.random r)) in
  let engine = E.create ~machine ~params ~init in
  let commands = Array.init k (fun _ -> Array.init 2 (fun _ -> F.random r)) in
  let report =
    E.round engine ~commands ~byzantine:(fun i -> i = 1 || i = 6) ()
  in
  match report.E.decoded with
  | None -> Alcotest.fail "decode failed"
  | Some dec ->
    Alcotest.(check (list int)) "error nodes" [ 1; 6 ] dec.E.error_nodes

module type COUNTED = sig
  include Field_intf.S

  val with_counter : Counter.t -> (unit -> 'a) -> 'a
end

(* Engines over freshly applied fields, several on separate domains at
   once: a field value left as a [Lazy.t] would be forced by two domains
   together and raise CamlinternalLazy.Undefined (OCaml 5).  Each task
   returns its decoded next states and its ledger total, which must
   equal a sequential run's. *)
let fresh_engines_race () =
  let gf256_round (module G : Field_intf.S) seed () =
    let module EG = Engine.Make (G) in
    let slots = 8 and k = 6 and b = 2 in
    let machine = EG.M.register_bank ~slots in
    let d = EG.M.degree machine in
    let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
    let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
    let r = Csm_rng.create seed in
    let init = Array.init k (fun _ -> Array.init slots (fun _ -> G.random r)) in
    let engine = EG.create ~machine ~params ~init in
    let commands =
      Array.init k (fun _ ->
          EG.M.register_write ~slots ~slot:(Csm_rng.int r slots) (G.random r))
    in
    match
      (EG.round engine ~commands ~byzantine:(fun i -> i < b) ()).EG.decoded
    with
    | Some dec -> (Array.map (Array.map G.to_int) dec.EG.next_states, 0)
    | None -> Alcotest.fail "gf256 decode failed"
  in
  let counted_fp_round (module C : COUNTED) seed () =
    let module EF = Engine.Make (C) in
    let r = Csm_rng.create seed in
    let machine = EF.M.pair_market () in
    let k = 4 and d = 2 and b = 1 in
    let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
    let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
    let init = Array.init k (fun _ -> Array.init 2 (fun _ -> C.random r)) in
    let ledger = Ledger.create () in
    let scope = Scope.of_ledger (module C) ledger in
    let engine = EF.create ~machine ~params ~init in
    let commands = Array.init k (fun _ -> Array.init 2 (fun _ -> C.random r)) in
    match
      (EF.round ~scope engine ~commands ~byzantine:(fun i -> i < b) ())
        .EF.decoded
    with
    | Some dec ->
      ( Array.map (Array.map C.to_int) dec.EF.next_states,
        Ledger.grand_total ledger )
    | None -> Alcotest.fail "counted Fp decode failed"
  in
  let outcome = Alcotest.(pair (array (array int)) int) in
  with_domains 4 (fun () ->
      for i = 1 to 100 do
        let module G =
          Gf2m.Make (struct
            let m = 8
            let modulus = 0
          end)
        in
        let module C =
          Counted.Make
            (Fp.Make (struct
              let p = 2013265921
            end))
        in
        let tasks =
          [
            gf256_round (module G) i;
            counted_fp_round (module C) i;
            gf256_round (module G) (i + 100);
            counted_fp_round (module C) (i + 100);
          ]
        in
        let together = Pool.parallel_list_map (fun task -> task ()) tasks in
        Alcotest.(check (list outcome)) "same as sequential"
          (List.map (fun task -> task ()) tasks) together
      done)

let coding_sweep_width_free () =
  let sweep w =
    with_domains w (fun () -> Csm_harness.Scaling.coding_sweep [ 16; 64; 256 ])
  in
  let ops =
    List.map (fun c ->
        Csm_harness.Scaling.(c.cn, c.naive_ops, c.fast_ops))
  in
  Alcotest.(check (list (triple int int int))) "width 1 = width 2"
    (ops (sweep 1)) (ops (sweep 2))

let suites =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "empty inputs" `Quick pool_empty;
        Alcotest.test_case "shorter than domains" `Quick pool_shorter_than_domains;
        Alcotest.test_case "matches sequential" `Quick pool_matches_sequential;
        Alcotest.test_case "exception propagation" `Quick pool_exception;
        Alcotest.test_case "nested runs inline" `Quick pool_nested;
        Alcotest.test_case "domain limit" `Quick pool_limit;
      ] );
    ( "parallel.metrics",
      [
        Alcotest.test_case "exact op counts" `Quick counting_exact;
        Alcotest.test_case "ledger roles across domains" `Quick
          ledger_roles_across_domains;
      ] );
    ( "parallel.determinism",
      [
        QCheck_alcotest.to_alcotest ~long:false qcheck_round_deterministic;
        Alcotest.test_case "byzantine reporting" `Quick
          decode_errors_deterministic;
        Alcotest.test_case "fresh engines race on separate domains" `Quick
          fresh_engines_race;
        Alcotest.test_case "coding sweep identical at widths 1 and 2" `Quick
          coding_sweep_width_free;
      ] );
  ]
