(* Metrics: counters, counted-field wrapper, ledger, throughput formula. *)

open Csm_metrics
open Csm_field

let counter_basics () =
  let c = Counter.create () in
  Counter.add c;
  Counter.add c;
  Counter.mul c;
  Counter.inv c;
  Alcotest.(check int) "adds" 2 (Counter.adds c);
  Alcotest.(check int) "muls" 1 (Counter.muls c);
  Alcotest.(check int) "invs" 1 (Counter.invs c);
  Alcotest.(check int) "total" (2 + 1 + Counter.inv_weight) (Counter.total c);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.total c)

let counter_diff () =
  let c = Counter.create () in
  Counter.add c;
  let before = Counter.snapshot c in
  Counter.mul c;
  Counter.mul c;
  Counter.inv c;
  let da, dm, di = Counter.diff ~before ~after:(Counter.snapshot c) in
  Alcotest.(check int) "diff adds" 0 da;
  Alcotest.(check int) "diff muls" 2 dm;
  Alcotest.(check int) "diff invs" 1 di;
  Alcotest.(check int)
    "diff total weighted" (2 + Counter.inv_weight)
    (Counter.total_of (da, dm, di));
  (* the copy is a frozen counter; snapshot of the copy matches *)
  let frozen = Counter.copy c in
  Counter.add c;
  Alcotest.(check int) "copy frozen adds" 1 (Counter.adds frozen);
  Alcotest.(check int) "live adds" 2 (Counter.adds c)

module CF = Counted.Make (Fp.F97)

let counted_field_counts () =
  let c = Csm_metrics.Counter.create () in
  CF.with_counter c (fun () ->
      let a = CF.of_int 5 and b = CF.of_int 9 in
      ignore (CF.add a b);
      ignore (CF.mul a b);
      ignore (CF.inv a);
      ignore (CF.sub a b));
  Alcotest.(check int) "adds" 2 (Counter.adds c);
  Alcotest.(check int) "muls" 1 (Counter.muls c);
  Alcotest.(check int) "invs" 1 (Counter.invs c)

let counted_field_correct () =
  (* the wrapper must not change arithmetic *)
  let rng = Csm_rng.create 4 in
  for _ = 1 to 200 do
    let a = Csm_rng.int rng 97 and b = 1 + Csm_rng.int rng 96 in
    let x = CF.of_int a and y = CF.of_int b in
    Alcotest.(check int) "add" ((a + b) mod 97) (CF.to_int (CF.add x y));
    Alcotest.(check int) "mul" (a * b mod 97) (CF.to_int (CF.mul x y));
    Alcotest.(check int) "div-mul" a (CF.to_int (CF.mul (CF.div x y) y))
  done

(* A domain where no counter was ever installed runs on the null
   sentinel: ops execute uncounted (the short-circuit), and a counter
   installed afterwards sees exactly its own scope. *)
let counted_unsampled_short_circuit () =
  let d =
    Domain.spawn (fun () ->
        ignore (CF.mul (CF.of_int 3) (CF.of_int 5));
        ignore (CF.add CF.one CF.one);
        let c = Counter.create () in
        CF.with_counter c (fun () -> ignore (CF.mul CF.one CF.one));
        (Counter.muls c, Counter.adds c))
  in
  let muls, adds = Domain.join d in
  Alcotest.(check int) "only the sampled mul" 1 muls;
  Alcotest.(check int) "unsampled add not attributed" 0 adds

(* The batch kernels must charge exactly the scalar loop's op counts:
   len muls + len adds for dot and axpy, len muls for scale, and
   |coeffs|·len of each for eval_many. *)
module CG = Counted.Make (Gf2m.Gf256)

let counted_batch_exact () =
  let b =
    match CG.batch with
    | Some b -> b
    | None -> Alcotest.fail "counted gf256 has no batch kernels"
  in
  let rng = Csm_rng.create 0xBA7C in
  let n = 13 in
  let xs = Array.init n (fun _ -> CG.random rng) in
  let ys = Array.init n (fun _ -> CG.random rng) in
  let px = b.Field_intf.pack xs and py = b.Field_intf.pack ys in
  let measure f =
    let c = Counter.create () in
    CG.with_counter c f;
    (Counter.adds c, Counter.muls c)
  in
  Alcotest.(check (pair int int))
    "dot" (n, n)
    (measure (fun () -> ignore (b.Field_intf.dot px py)));
  Alcotest.(check (pair int int))
    "axpy" (n, n)
    (measure (fun () ->
         b.Field_intf.axpy ~acc:(Bytes.copy py) ~c:xs.(0) ~x:px));
  Alcotest.(check (pair int int))
    "scale" (0, n)
    (measure (fun () -> ignore (b.Field_intf.scale ~c:xs.(0) ~x:px)));
  let m = 5 in
  let coeffs = Array.init m (fun _ -> CG.random rng) in
  Alcotest.(check (pair int int))
    "eval_many"
    (m * n, m * n)
    (measure (fun () -> ignore (b.Field_intf.eval_many ~coeffs ~xs:px)));
  (* and the batch results equal the (counted) scalar loops *)
  let scalar_dot =
    Array.fold_left CG.add CG.zero (Array.map2 CG.mul xs ys)
  in
  Alcotest.(check bool) "dot value" true
    (CG.equal (b.Field_intf.dot px py) scalar_dot)

let with_counter_restores () =
  let outer = Counter.create () in
  let inner = Counter.create () in
  CF.set_counter outer;
  CF.with_counter inner (fun () -> ignore (CF.add CF.one CF.one));
  ignore (CF.add CF.one CF.one);
  Alcotest.(check int) "inner got 1" 1 (Counter.adds inner);
  Alcotest.(check int) "outer got 1" 1 (Counter.adds outer);
  (* restores on exception too *)
  (try
     CF.with_counter inner (fun () -> failwith "boom")
   with Failure _ -> ());
  ignore (CF.add CF.one CF.one);
  Alcotest.(check int) "outer got 2" 2 (Counter.adds outer)

let ledger_roles () =
  let l = Ledger.create () in
  let c0 = Ledger.node l 0 in
  Counter.mul c0;
  Counter.mul c0;
  let w = Ledger.counter l "worker" in
  Counter.add w;
  Alcotest.(check int) "node-0 total" 2 (Ledger.total l (Ledger.node_role 0));
  Alcotest.(check int) "worker total" 1 (Ledger.total l "worker");
  Alcotest.(check int) "grand" 3 (Ledger.grand_total l);
  Alcotest.(check (list string)) "roles" [ "node-0"; "worker" ] (Ledger.roles l);
  let costs = Ledger.per_node_costs l ~n:2 in
  Alcotest.(check (array int)) "per-node" [| 2; 0 |] costs

let throughput_formula () =
  (* K commands, per-node costs all equal c: lambda = K / c *)
  let l = Ledger.throughput ~commands:10 ~node_costs:[| 5; 5; 5; 5 |] in
  Alcotest.(check (float 1e-9)) "uniform" 2.0 l;
  (* unequal costs average *)
  let l2 = Ledger.throughput ~commands:8 ~node_costs:[| 2; 6 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.0 l2

(* Exact op counts at the two smoke configurations of bench/main.ml
   (N=64, d=2, an 8-slot register bank, K and b at their Table-2
   maxima): one counted round at --smoke's seed with b Byzantine nodes,
   and one warm optimistic decode over GF(2^8) at --rs-smoke's seed.
   The bench gates hold these numbers too, but only under [make ci]. *)
module Params = Csm_core.Params

let smoke_n = 64
let smoke_d = 2
let smoke_slots = 8

let smoke_k =
  Params.max_machines ~network:Params.Sync ~n:smoke_n ~b:16 ~d:smoke_d

let smoke_b =
  Params.max_faults ~network:Params.Sync ~n:smoke_n ~k:smoke_k ~d:smoke_d

let smoke_params =
  Params.make ~network:Params.Sync ~n:smoke_n ~k:smoke_k ~d:smoke_d ~b:smoke_b

let smoke_round_total () =
  let module CF = Counted.Make (Fp.Default) in
  let module EC = Csm_core.Engine.Make (CF) in
  let machine = EC.M.register_bank ~slots:smoke_slots in
  let rng = Csm_rng.create 0x64BE in
  let vectors dim =
    Array.init smoke_k (fun _ -> Array.init dim (fun _ -> CF.random rng))
  in
  let init = vectors machine.EC.M.state_dim in
  let commands = vectors machine.EC.M.input_dim in
  let ledger = Ledger.create () in
  let scope = Scope.of_ledger (module CF) ledger in
  let engine = EC.create ~machine ~params:smoke_params ~init in
  let r =
    EC.round ~scope engine ~commands ~byzantine:(fun i -> i < smoke_b) ()
  in
  Alcotest.(check bool) "decoded" true (r.EC.decoded <> None);
  Alcotest.(check int) "ledger grand total" 145_903 (Ledger.grand_total ledger)

let rs_smoke_warm_decode () =
  let module C8 = Counted.Make (Gf2m.Gf256) in
  let module E8 = Csm_core.Engine.Make (C8) in
  let machine = E8.M.register_bank ~slots:smoke_slots in
  let rng = Csm_rng.create 0x0F57 in
  let vectors dim =
    Array.init smoke_k (fun _ -> Array.init dim (fun _ -> C8.random rng))
  in
  let init = vectors machine.E8.M.state_dim in
  let commands = vectors machine.E8.M.input_dim in
  let engine = E8.create ~machine ~params:smoke_params ~init in
  let received =
    List.init smoke_n (fun i ->
        let coded_command = E8.node_encode_command engine ~node:i ~commands in
        (i, E8.node_compute engine ~node:i ~coded_command))
  in
  let count_decode () =
    let ledger = Ledger.create () in
    let scope = Scope.of_ledger (module C8) ledger in
    match
      E8.decode_results ~scope ~algorithm:E8.RS.Optimistic engine received
    with
    | Some _ -> Ledger.total ledger "decoder"
    | None -> Alcotest.fail "fault-free decode failed"
  in
  (* the first decode builds the engine's cached context (cold) *)
  ignore (count_decode ());
  Alcotest.(check int) "warm optimistic decode ops" 44_640 (count_decode ())

(* Reporter sets A, B, then A again: a quorum wait decodes from
   whichever nodes answered first, so sets alternate, and the return of
   a set already seen must cost a warm decode, not a rebuild. *)
let decode_context_per_reporter_set () =
  let module C = Counted.Make (Fp.F97) in
  let module E = Csm_core.Engine.Make (C) in
  let machine = E.M.register_bank ~slots:2 in
  let params = Params.make ~network:Params.Sync ~n:8 ~k:2 ~d:2 ~b:1 in
  let rng = Csm_rng.create 0xA8A in
  let vectors dim = Array.init 2 (fun _ -> Array.init dim (fun _ -> C.random rng)) in
  let engine = E.create ~machine ~params ~init:(vectors machine.E.M.state_dim) in
  let commands = vectors machine.E.M.input_dim in
  let results =
    List.init 8 (fun i ->
        let coded_command = E.node_encode_command engine ~node:i ~commands in
        (i, E.node_compute engine ~node:i ~coded_command))
  in
  let ops_for nodes =
    let ledger = Ledger.create () in
    let scope = Scope.of_ledger (module C) ledger in
    let received = List.filter (fun (i, _) -> List.mem i nodes) results in
    match E.decode_results ~scope ~algorithm:E.RS.Optimistic engine received with
    | Some _ -> Ledger.total ledger "decoder"
    | None -> Alcotest.fail "fault-free decode failed"
  in
  let a = [ 0; 1; 2; 3; 4; 5 ] and b = [ 0; 1; 2; 3; 4; 6 ] in
  let cold_a = ops_for a in
  let warm_a = ops_for a in
  Alcotest.(check bool) "a warm decode skips the preparation" true (warm_a < cold_a);
  ignore (ops_for b);
  Alcotest.(check int) "A after B costs A's warm decode" warm_a (ops_for a)

(* A lie round counts one csm_rs_decodes_total per coordinate, with
   the outcome that coordinate's own decode gives, and every corrected
   symbol; csm_rs_fastpath_total says how each was reached.  At 8/2/2/2
   (code dimension 3, radius 2) with a 4-slot register bank, 5
   coordinates: node 0 lies on coordinates 0-3, node 1 on coordinate 1
   only.  Coordinate 0 misses the fast path and falls back to Gao (1
   error), which locates the agreement set A = nodes 1-7; coordinate 1
   does not verify on A (node 1 lies there) and falls back too (2
   errors); coordinates 2-4 are located on A (1, 1 and 0 errors).  A
   decode of each coordinate on its own counts the same decodes and
   corrected symbols, with fallbacks 4 and hit 1. *)
let lie_round_rs_metrics () =
  let module Metric = Csm_obs.Metric in
  let module E = Csm_core.Engine.Make (Fp.Default) in
  let machine = E.M.register_bank ~slots:4 in
  let params = Params.make ~network:Params.Sync ~n:8 ~k:2 ~d:2 ~b:2 in
  let rng = Csm_rng.create 0x11E in
  let vectors dim =
    Array.init 2 (fun _ -> Array.init dim (fun _ -> Fp.Default.random rng))
  in
  let engine = E.create ~machine ~params ~init:(vectors machine.E.M.state_dim) in
  let commands = vectors machine.E.M.input_dim in
  let lies node j = (node = 0 && j <= 3) || (node = 1 && j = 1) in
  let received =
    List.init 8 (fun node ->
        let coded_command = E.node_encode_command engine ~node ~commands in
        let g = E.node_compute engine ~node ~coded_command in
        (node, Array.mapi (fun j v -> if lies node j then Fp.Default.add v Fp.Default.one else v) g))
  in
  let count name labels =
    match List.find_opt (fun v -> v.Metric.name = name) (Metric.families ()) with
    | None -> 0
    | Some v -> (
      match List.find_opt (fun s -> s.Metric.labels = labels) v.Metric.samples with
      | Some { Metric.value = Metric.V_counter c; _ } -> c
      | _ -> 0)
  in
  Metric.enable ();
  Metric.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metric.reset ();
      Metric.disable ())
    (fun () ->
      (match E.decode_results engine received with
      | Some d -> Alcotest.(check (list int)) "liars" [ 0; 1 ] d.E.error_nodes
      | None -> Alcotest.fail "a lie round within the radius failed");
      let decodes outcome =
        count "csm_rs_decodes_total"
          [ ("algorithm", "optimistic"); ("outcome", outcome) ]
      in
      let fastpath outcome = count "csm_rs_fastpath_total" [ ("outcome", outcome) ] in
      Alcotest.(check int) "corrected decodes" 4 (decodes "corrected");
      Alcotest.(check int) "clean decodes" 1 (decodes "clean");
      Alcotest.(check int) "failed decodes" 0 (decodes "failed");
      Alcotest.(check int) "corrected symbols" 5
        (count "csm_rs_corrected_symbols_total" []);
      Alcotest.(check int) "fast-path fallbacks" 2 (fastpath "fallback");
      Alcotest.(check int) "located on A" 3 (fastpath "located");
      Alcotest.(check int) "fast-path hits" 0 (fastpath "hit"))

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "counter basics" `Quick counter_basics;
        Alcotest.test_case "counter diff" `Quick counter_diff;
        Alcotest.test_case "counted field counts" `Quick counted_field_counts;
        Alcotest.test_case "counted field is transparent" `Quick
          counted_field_correct;
        Alcotest.test_case "with_counter restores" `Quick with_counter_restores;
        Alcotest.test_case "unsampled domain short-circuits" `Quick
          counted_unsampled_short_circuit;
        Alcotest.test_case "batch kernels charge exact op counts" `Quick
          counted_batch_exact;
        Alcotest.test_case "ledger roles" `Quick ledger_roles;
        Alcotest.test_case "throughput formula" `Quick throughput_formula;
        Alcotest.test_case "smoke round totals 145903 ops" `Quick
          smoke_round_total;
        Alcotest.test_case "rs-smoke warm decode costs 44640 ops" `Quick
          rs_smoke_warm_decode;
        Alcotest.test_case "decode context cached per reporter set" `Quick
          decode_context_per_reporter_set;
        Alcotest.test_case "lie round counts one rs decode per coordinate" `Quick
          lie_round_rs_metrics;
      ] );
  ]
