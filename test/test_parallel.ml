(* The domain pool: chunking edge cases, determinism of the parallel
   engine round (decoded records and ledger totals must be identical for
   any domain count, including under Byzantine corruption), and exact
   operation counting across domains. *)

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

(* ----- chunking edge cases ----- *)

let pool_empty () =
  with_domains 4 (fun () ->
      Alcotest.(check (array int)) "init 0" [||] (Pool.parallel_init 0 (fun i -> i));
      Alcotest.(check (array int)) "map [||]" [||]
        (Pool.parallel_map_array (fun x -> x + 1) [||]);
      Pool.parallel_for 0 (fun _ -> Alcotest.fail "body must not run");
      Alcotest.(check (list int)) "list []" []
        (Pool.parallel_list_map (fun x -> x) []))

let pool_shorter_than_domains () =
  with_domains 4 (fun () ->
      (* fewer elements than domains: every index exactly once, in place *)
      Alcotest.(check (array int)) "len 1" [| 0 |] (Pool.parallel_init 1 (fun i -> i));
      Alcotest.(check (array int)) "len 3" [| 0; 10; 20 |]
        (Pool.parallel_init 3 (fun i -> 10 * i)))

let pool_ragged_chunks () =
  with_domains 4 (fun () ->
      (* 10 elements in chunks of 3: 3+3+3+1 *)
      let hits = Array.make 10 0 in
      Pool.parallel_for ~chunk:3 10 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int)) "each index once" (Array.make 10 1) hits;
      let a = Pool.parallel_init ~chunk:3 10 (fun i -> i * i) in
      Alcotest.(check (array int)) "squares" (Array.init 10 (fun i -> i * i)) a)

let pool_matches_sequential () =
  with_domains 4 (fun () ->
      let xs = Array.init 1000 (fun i -> i - 500) in
      let f x = (x * 7) + 3 in
      Alcotest.(check (array int)) "map = Array.map" (Array.map f xs)
        (Pool.parallel_map_array f xs);
      let l = List.init 37 (fun i -> i) in
      Alcotest.(check (list int)) "list_map = List.map" (List.map f l)
        (Pool.parallel_list_map f l))

let pool_exception () =
  with_domains 4 (fun () ->
      (* a failing chunk propagates to the submitter, and the pool
         survives to run the next job *)
      (try
         Pool.parallel_for ~chunk:1 8 (fun i -> if i = 5 then failwith "boom");
         Alcotest.fail "expected exception"
       with Failure m -> Alcotest.(check string) "message" "boom" m);
      Alcotest.(check (array int)) "pool alive" (Array.init 16 (fun i -> i))
        (Pool.parallel_init 16 (fun i -> i)))

let pool_nested () =
  with_domains 4 (fun () ->
      (* nested parallel calls run inline in the worker; no deadlock *)
      let a =
        Pool.parallel_init ~chunk:1 8 (fun i ->
            Array.fold_left ( + ) 0 (Pool.parallel_init 50 (fun j -> i + j)))
      in
      let expect i = (50 * i) + (50 * 49 / 2) in
      Alcotest.(check (array int)) "nested sums" (Array.init 8 expect) a)

let pool_limit () =
  with_domains 4 (fun () ->
      Alcotest.(check int) "domains" 4 (Pool.domains ());
      Pool.with_domain_limit 1 (fun () ->
          (* forced sequential: body runs on the calling domain *)
          (* csm-lint: allow R1 — asserting physical inline execution *)
          let self = Domain.self () in
          Pool.parallel_for ~chunk:1 8 (fun _ ->
              (* csm-lint: allow R1 — asserting physical inline execution *)
              if not (Domain.self () = self) then
                Alcotest.fail "limit 1 must run inline"));
      Alcotest.(check int) "restored" 4 (Pool.domains ()))

(* ----- exact counting across domains ----- *)

let counting_exact () =
  with_domains 4 (fun () ->
      let x = CF.of_int 3 and y = CF.of_int 5 in
      let count_with w =
        Pool.with_domain_limit w (fun () ->
            let c = Counter.create () in
            CF.with_counter c (fun () ->
                Pool.parallel_for ~chunk:1 100 (fun _ -> ignore (CF.mul x y));
                Pool.parallel_for ~chunk:7 100 (fun _ -> ignore (CF.add x y)));
            (Counter.muls c, Counter.adds c))
      in
      Alcotest.(check (pair int int)) "width 1" (100, 100) (count_with 1);
      Alcotest.(check (pair int int)) "width 4" (100, 100) (count_with 4))

let ledger_roles_across_domains () =
  with_domains 4 (fun () ->
      let x = CF.of_int 2 and y = CF.of_int 9 in
      let totals_with w =
        Pool.with_domain_limit w (fun () ->
            let ledger = Ledger.create () in
            let scope = Scope.of_ledger (module CF) ledger in
            Pool.parallel_for ~chunk:1 60 (fun i ->
                Scope.node scope (i mod 3) (fun () ->
                    for _ = 1 to i + 1 do
                      ignore (CF.mul x y)
                    done));
            List.map
              (fun r -> (r, Counter.total (Ledger.counter ledger r)))
              (Ledger.roles ledger)
        )
      in
      Alcotest.(check (list (pair string int))) "per-role totals equal"
        (totals_with 1) (totals_with 4))

(* ----- engine determinism: domains = 1 vs 4 ----- *)

type observation = {
  o_decoded : (F.t array array * F.t array array * int list) option;
  o_states : F.t array array;
  o_roles : (string * int) list;
}

(* Run [rounds] coded rounds (with byz_count Byzantine nodes corrupting
   deterministically) under a fixed domain width; everything observable
   is returned for comparison. *)
let observe ~width ~byz_count ~rounds ~seed =
  with_domains 4 (fun () ->
      Pool.with_domain_limit width (fun () ->
          let r = Csm_rng.create seed in
          let machine = EC.M.pair_market () in
          let d = 2 and k = 5 in
          let b = byz_count in
          let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
          let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
          let init =
            Array.init k (fun _ -> Array.init 2 (fun _ -> CF.random r))
          in
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
          let repr (v : CF.t array array) =
            Array.map (Array.map CF.to_int) v
          in
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
          }))

let qcheck_round_deterministic =
  QCheck.Test.make ~name:"round identical under 1 vs 4 domains" ~count:15
    (QCheck.make (QCheck.Gen.return ()))
    (fun () ->
      let byz_count = Csm_rng.int rng 4 in
      let seed = 0xBEEF + Csm_rng.int rng 10_000 in
      let a = observe ~width:1 ~byz_count ~rounds:2 ~seed in
      let b = observe ~width:4 ~byz_count ~rounds:2 ~seed in
      if a.o_decoded <> b.o_decoded then
        QCheck.Test.fail_report "decoded records differ across domain counts";
      if a.o_states <> b.o_states then
        QCheck.Test.fail_report "coded states differ across domain counts";
      if a.o_roles <> b.o_roles then
        QCheck.Test.fail_report "ledger totals differ across domain counts";
      true)

let decode_errors_deterministic () =
  (* byzantine nodes are reported identically whatever the width *)
  let run width =
    with_domains 4 (fun () ->
        Pool.with_domain_limit width (fun () ->
            let r = Csm_rng.create 0xE44 in
            let machine = M.pair_market () in
            let k = 4 and d = 2 and b = 2 in
            let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
            let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
            let init =
              Array.init k (fun _ -> Array.init 2 (fun _ -> F.random r))
            in
            let engine = E.create ~machine ~params ~init in
            let commands =
              Array.init k (fun _ -> Array.init 2 (fun _ -> F.random r))
            in
            let report =
              E.round engine ~commands ~byzantine:(fun i -> i = 1 || i = 6) ()
            in
            match report.E.decoded with
            | None -> Alcotest.fail "decode failed"
            | Some dec -> dec.E.error_nodes))
  in
  Alcotest.(check (list int)) "error nodes" [ 1; 6 ] (run 1);
  Alcotest.(check (list int)) "error nodes (4 domains)" [ 1; 6 ] (run 4)

(* A fresh engine per round at width 8: every decode fan-out is the
   first to reach that coding context's precomputed values, so a value
   left as a [Lazy.t] would be forced by several domains at once and
   raise CamlinternalLazy.Undefined (OCaml 5). *)
let fresh_engines_at_width_8 () =
  let module G = Gf2m.Gf256 in
  let module EG = Engine.Make (G) in
  let slots = 8 and k = 6 and b = 2 in
  let machine = EG.M.register_bank ~slots in
  let d = EG.M.degree machine in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let r = Csm_rng.create 0x1A2 in
  let init = Array.init k (fun _ -> Array.init slots (fun _ -> G.random r)) in
  with_domains 8 (fun () ->
      for _ = 1 to 2_000 do
        let engine = EG.create ~machine ~params ~init in
        let commands =
          Array.init k (fun _ ->
              EG.M.register_write ~slots ~slot:(Csm_rng.int r slots) (G.random r))
        in
        match (EG.round engine ~commands ~byzantine:(fun _ -> false) ()).EG.decoded with
        | Some _ -> ()
        | None -> Alcotest.fail "fault-free decode failed"
      done)

let suites =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "empty inputs" `Quick pool_empty;
        Alcotest.test_case "shorter than domains" `Quick pool_shorter_than_domains;
        Alcotest.test_case "ragged chunks" `Quick pool_ragged_chunks;
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
        Alcotest.test_case "fresh engines race no lazy at width 8" `Quick
          fresh_engines_at_width_8;
      ] );
  ]
