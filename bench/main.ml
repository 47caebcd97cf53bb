(* Benchmark harness: one Bechamel test (or indexed family) per table /
   figure of the paper, plus the operation-counted table regeneration
   (printed after the wall-clock section).

   - table1/*            one execution-phase round per scheme (Table 1)
   - thm1/*              per-round cost vs N: decentralized vs delegated
                         CSM (Theorem 1's throughput claim)
   - fastpoly/*          naive vs quasi-linear coding (§6.2)
   - rs/*                Berlekamp-Welch vs Gao decoding
   - intermix/*          Algorithm 1: honest audit, adaptive fraud
                         localization, O(1) commoner check (Figure 5)
   - consensus/*         Dolev-Strong and PBFT instances (consensus phase)
   - transport/*         frame codec + loopback transport round trip
                         (the real-transport hot path)
   - parallel/*          one decentralized engine round at N=64 under
                         1/2/4/8 domains (the multicore execution layer)

   Everything is deterministic (fixed seeds).

   `main.exe --smoke [--out FILE]` skips bechamel and runs only the
   parallel smoke benchmark, writing a JSON report (BENCH_parallel.json
   via the `bench-smoke` alias).  `main.exe --rs-smoke [--out FILE]`
   does the same for the optimistic-decode fast path over GF(2^8)
   (BENCH_rs.json, gated against bench/rs_baseline.json), and
   `main.exe --obs-smoke [--out FILE]` for the observability layer's
   allocation overhead (BENCH_obs.json, gated against
   bench/obs_baseline.json), and `main.exe --adversary-smoke
   [--out FILE]` for the Table-2 tightness certification
   (BENCH_adversary.json, gated against
   bench/adversary_baseline.json). *)

open Bechamel
open Toolkit
module F = Csm_field.Fp.Default
module Params = Csm_core.Params

(* ----- Table 1: one round per scheme ----- *)

module R = Csm_smr.Replication.Make (F)
module E = Csm_core.Engine.Make (F)
module D = Csm_intermix.Delegation.Make (F)
module M = R.M

let t1_n = 24
let t1_mu = 0.25
let t1_d = 2
let t1_machine = M.degree_machine t1_d

let t1_k, t1_b =
  let b = int_of_float (t1_mu *. float_of_int t1_n) in
  let k_max = Params.max_machines ~network:Params.Sync ~n:t1_n ~b ~d:t1_d in
  let rec divisor k = if t1_n mod k = 0 then k else divisor (k - 1) in
  (divisor k_max, b)

let rng0 = Csm_rng.create 0xBE7C

let t1_states () =
  Array.init t1_k (fun _ ->
      Array.init t1_machine.M.state_dim (fun _ -> F.random rng0))

let t1_commands () =
  Array.init t1_k (fun _ ->
      Array.init t1_machine.M.input_dim (fun _ -> F.random rng0))

let bench_full_round =
  let t =
    R.Full.create ~machine:t1_machine ~n:t1_n ~k:t1_k ~init:(t1_states ())
  in
  let commands = t1_commands () in
  Test.make ~name:"full-replication-round"
    (Staged.stage (fun () ->
         ignore
           (R.Full.round t ~commands
              ~byzantine:(fun _ -> false)
              ~b:(R.security_full ~n:t1_n `Sync)
              ())))

let bench_partial_round =
  let t =
    R.Partial.create ~machine:t1_machine ~n:t1_n ~k:t1_k ~init:(t1_states ())
  in
  let commands = t1_commands () in
  Test.make ~name:"partial-replication-round"
    (Staged.stage (fun () ->
         ignore
           (R.Partial.round t ~commands
              ~byzantine:(fun _ -> false)
              ~b:(R.security_partial ~n:t1_n ~k:t1_k `Sync)
              ())))

let csm_params n k d =
  Params.make ~network:Params.Sync ~n ~k ~d
    ~b:(Params.max_faults ~network:Params.Sync ~n ~k ~d)

let bench_csm_decentralized_round =
  let params = csm_params t1_n t1_k t1_d in
  let engine = E.create ~machine:t1_machine ~params ~init:(t1_states ()) in
  let commands = t1_commands () in
  Test.make ~name:"csm-decentralized-round"
    (Staged.stage (fun () ->
         let r = E.round engine ~commands ~byzantine:(fun i -> i < t1_b) () in
         assert (r.E.decoded <> None)))

let bench_csm_delegated_round =
  let params = csm_params t1_n t1_k t1_d in
  let engine = E.create ~machine:t1_machine ~params ~init:(t1_states ()) in
  let commands = t1_commands () in
  Test.make ~name:"csm-intermix-round"
    (Staged.stage (fun () ->
         let out =
           D.round engine ~commands
             ~byzantine:(fun i -> i < t1_b)
             ~worker:(t1_n - 1)
             ~committee:[ 0; 1; 2 ] ()
         in
         assert (out.D.decoded <> None)))

let bench_csm_delegated_batched =
  let params = csm_params t1_n t1_k t1_d in
  let engine = E.create ~machine:t1_machine ~params ~init:(t1_states ()) in
  let commands = t1_commands () in
  Test.make ~name:"csm-intermix-batched-round"
    (Staged.stage (fun () ->
         let out =
           D.round ~batch:true engine ~commands
             ~byzantine:(fun i -> i < t1_b)
             ~worker:(t1_n - 1)
             ~committee:[ 0; 1; 2 ] ()
         in
         assert (out.D.decoded <> None)))

let table1_group =
  Test.make_grouped ~name:"table1"
    [
      bench_full_round;
      bench_partial_round;
      bench_csm_decentralized_round;
      bench_csm_delegated_round;
      bench_csm_delegated_batched;
    ]

(* ----- Theorem 1 throughput scaling: round cost vs N ----- *)

let thm1_ns = [ 12; 24; 48; 96 ]

let thm1_engine n =
  let d = 2 in
  let b = n / 4 in
  let k = max 1 (Params.max_machines ~network:Params.Sync ~n ~b ~d) in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let machine = M.degree_machine d in
  let rng = Csm_rng.create (0x7117 + n) in
  let init =
    Array.init k (fun _ ->
        Array.init machine.M.state_dim (fun _ -> F.random rng))
  in
  let commands =
    Array.init k (fun _ ->
        Array.init machine.M.input_dim (fun _ -> F.random rng))
  in
  (E.create ~machine ~params ~init, commands)

let thm1_decentralized =
  Test.make_indexed ~name:"csm-decentralized" ~args:thm1_ns (fun n ->
      let engine, commands = thm1_engine n in
      Staged.stage (fun () ->
          let r = E.round engine ~commands ~byzantine:(fun _ -> false) () in
          assert (r.E.decoded <> None)))

let thm1_delegated =
  Test.make_indexed ~name:"csm-delegated" ~args:thm1_ns (fun n ->
      let engine, commands = thm1_engine n in
      Staged.stage (fun () ->
          let out =
            D.round engine ~commands
              ~byzantine:(fun _ -> false)
              ~worker:(n - 1) ~committee:[ 0; 1; 2 ] ()
          in
          assert (out.D.decoded <> None)))

let thm1_group =
  Test.make_grouped ~name:"thm1" [ thm1_decentralized; thm1_delegated ]

(* ----- §6.2: naive vs fast polynomial coding ----- *)

module Lag = Csm_poly.Lagrange.Make (F)
module Sub = Csm_poly.Subproduct.Make (F)

let fastpoly_ns = [ 64; 256; 1024 ]

let fastpoly_instance n =
  let k = n / 2 in
  let rng = Csm_rng.create (0xFA57 + n) in
  let omegas = Array.init k (fun i -> F.of_int i) in
  let alphas = Array.init n (fun i -> F.of_int (k + i)) in
  let values = Array.init k (fun _ -> F.random rng) in
  (omegas, alphas, values)

let bench_naive_encode =
  Test.make_indexed ~name:"naive-encode" ~args:fastpoly_ns (fun n ->
      let omegas, alphas, values = fastpoly_instance n in
      let c = Lag.coeff_matrix ~omegas ~alphas in
      Staged.stage (fun () -> ignore (Lag.encode_with_matrix c values)))

let bench_fast_encode =
  Test.make_indexed ~name:"fast-encode" ~args:fastpoly_ns (fun n ->
      let omegas, alphas, values = fastpoly_instance n in
      Staged.stage (fun () ->
          let poly = Sub.interpolate omegas values in
          ignore (Sub.eval_all poly alphas)))

let fastpoly_group =
  Test.make_grouped ~name:"fastpoly" [ bench_naive_encode; bench_fast_encode ]

(* ----- Reed-Solomon decoders ----- *)

module RS = Csm_rs.Reed_solomon.Make (F)

let rs_instance n =
  let k = n / 3 in
  let rng = Csm_rng.create (0xDEC + n) in
  let msg = RS.P.random rng ~degree:(k - 1) in
  let points = Array.init n (fun i -> F.of_int (i + 1)) in
  let word = RS.encode ~message:msg ~points in
  let corrupted, _ = RS.corrupt rng ~count:(RS.max_errors ~n ~k) word in
  (k, Array.map2 (fun x y -> (x, y)) points corrupted)

let bench_rs_bw =
  Test.make_indexed ~name:"berlekamp-welch" ~args:[ 16; 32; 64 ] (fun n ->
      let k, pairs = rs_instance n in
      Staged.stage (fun () -> assert (RS.decode_bw ~k pairs <> None)))

let bench_rs_gao =
  Test.make_indexed ~name:"gao" ~args:[ 16; 32; 64 ] (fun n ->
      let k, pairs = rs_instance n in
      Staged.stage (fun () -> assert (RS.decode_gao ~k pairs <> None)))

(* syndrome decoder on classical points (n | p-1) *)
module BMD = Csm_rs.Bm.Make (F)

let bench_rs_bm =
  Test.make_indexed ~name:"berlekamp-massey" ~args:[ 16; 32; 64 ] (fun n ->
      let k = n / 3 in
      let inst = BMD.instance ~n in
      let rng = Csm_rng.create (0xB3 + n) in
      let msg = BMD.P.random rng ~degree:(k - 1) in
      let word = BMD.encode inst ~message:msg in
      let corrupted, _ = RS.corrupt rng ~count:((n - k) / 2) word in
      Staged.stage (fun () -> assert (BMD.decode inst ~k corrupted <> None)))

(* fault-free word through a prepared context: the optimistic hit path *)
let bench_rs_optimistic =
  Test.make_indexed ~name:"optimistic-fastpath" ~args:[ 16; 32; 64 ] (fun n ->
      let k = n / 3 in
      let rng = Csm_rng.create (0x0F + n) in
      let msg = RS.P.random rng ~degree:(k - 1) in
      let points = Array.init n (fun i -> F.of_int (i + 1)) in
      let word = RS.encode ~message:msg ~points in
      let pairs = Array.map2 (fun x y -> (x, y)) points word in
      let ctx = RS.prepare_fast ~k points in
      Staged.stage (fun () -> assert (RS.decode_optimistic ~ctx ~k pairs <> None)))

let rs_group =
  Test.make_grouped ~name:"rs"
    [ bench_rs_bw; bench_rs_gao; bench_rs_bm; bench_rs_optimistic ]

(* ----- INTERMIX (Figure 5) ----- *)

module IX = Csm_intermix.Intermix.Make (F)

let ix_instance () =
  let rng = Csm_rng.create 0x1713 in
  let n = 32 and k = 64 in
  let a = IX.M.random_mat rng n k in
  let x = IX.M.random_vec rng k in
  (a, x)

let bench_ix_honest =
  let a, x = ix_instance () in
  let w = IX.honest_worker a x in
  Test.make ~name:"audit-honest"
    (Staged.stage (fun () -> assert ((IX.audit w a x).IX.result = IX.Accept)))

let bench_ix_adaptive =
  let a, x = ix_instance () in
  let w =
    IX.malicious_worker ~strategy:IX.Adaptive ~bad_rows:[ 7 ] ~offset:F.one a x
  in
  Test.make ~name:"audit-adaptive-fraud"
    (Staged.stage (fun () ->
         match (IX.audit w a x).IX.result with
         | IX.Accept -> assert false
         | IX.Alert _ -> ()))

let bench_ix_commoner =
  let a, x = ix_instance () in
  let w =
    IX.malicious_worker ~strategy:IX.Adaptive ~bad_rows:[ 7 ] ~offset:F.one a x
  in
  let alert =
    match (IX.audit w a x).IX.result with
    | IX.Alert alert -> alert
    | IX.Accept -> assert false
  in
  Test.make ~name:"commoner-check"
    (Staged.stage (fun () -> assert (IX.commoner_check a x alert)))

let intermix_group =
  Test.make_grouped ~name:"intermix"
    [ bench_ix_honest; bench_ix_adaptive; bench_ix_commoner ]

(* ----- Parallel execution layer: one engine round vs domain count ----- *)

module Pool = Csm_parallel.Pool
module CF = Csm_field.Counted.Make (F)
module EC = Csm_core.Engine.Make (CF)
module Ledger = Csm_metrics.Ledger
module Scope = Csm_metrics.Scope

(* N=64 register bank: state_dim 8, result_dim 9 — enough independent
   coordinates for the per-coordinate decode fan-out to matter. *)
let par_n = 64
let par_d = 2
let par_slots = 8
let par_machine = M.register_bank ~slots:par_slots
let par_k = Params.max_machines ~network:Params.Sync ~n:par_n ~b:16 ~d:par_d
let par_b = Params.max_faults ~network:Params.Sync ~n:par_n ~k:par_k ~d:par_d

let par_engine seed =
  let params = Params.make ~network:Params.Sync ~n:par_n ~k:par_k ~d:par_d ~b:par_b in
  let rng = Csm_rng.create seed in
  let init =
    Array.init par_k (fun _ ->
        Array.init par_machine.M.state_dim (fun _ -> F.random rng))
  in
  let commands =
    Array.init par_k (fun _ ->
        Array.init par_machine.M.input_dim (fun _ -> F.random rng))
  in
  (E.create ~machine:par_machine ~params ~init, commands)

let par_round engine commands =
  let r = E.round engine ~commands ~byzantine:(fun i -> i < par_b) () in
  assert (r.E.decoded <> None);
  r

let parallel_group =
  let engine, commands = par_engine 0x64BE
  and host = Pool.domains () in
  Test.make_grouped ~name:"parallel"
    [
      Test.make_indexed ~name:"engine-round-n64" ~args:[ 1; 2; 4; 8 ]
        (fun dm ->
          Staged.stage (fun () ->
              Pool.set_domains dm;
              Fun.protect
                ~finally:(fun () -> Pool.set_domains host)
                (fun () -> ignore (par_round engine commands))));
    ]

(* ----- smoke mode: honest JSON report for the parallel layer ----- *)

let smoke_widths = [ 1; 2; 4; 8 ]

(* wall-clock per round (ns) at a given width, median of [reps] *)
let smoke_time ~width ~reps =
  Pool.with_domain_limit width (fun () ->
      let engine, commands = par_engine 0x64BE in
      ignore (par_round engine commands);
      (* warmup *)
      let samples =
        List.init reps (fun _ ->
            let t0 = Unix.gettimeofday () in
            ignore (par_round engine commands);
            Unix.gettimeofday () -. t0)
      in
      let sorted = List.sort Float.compare samples in
      List.nth sorted (reps / 2) *. 1e9)

(* decoded output of two rounds at a given width (fresh engine, same seed) *)
let smoke_observe ~width =
  Pool.with_domain_limit width (fun () ->
      let engine, commands = par_engine 0x64BE in
      let r1 = par_round engine commands in
      let r2 = par_round engine commands in
      (r1.E.decoded, r2.E.decoded))

(* ledger grand total of one counted round at a given width *)
let smoke_ledger ~width =
  Pool.with_domain_limit width (fun () ->
      let params =
        Params.make ~network:Params.Sync ~n:par_n ~k:par_k ~d:par_d ~b:par_b
      in
      let machine = EC.M.register_bank ~slots:par_slots in
      let rng = Csm_rng.create 0x64BE in
      let init =
        Array.init par_k (fun _ ->
            Array.init machine.EC.M.state_dim (fun _ -> CF.random rng))
      in
      let commands =
        Array.init par_k (fun _ ->
            Array.init machine.EC.M.input_dim (fun _ -> CF.random rng))
      in
      let ledger = Ledger.create () in
      let scope = Scope.of_ledger (module CF) ledger in
      let engine = EC.create ~machine ~params ~init in
      let r =
        EC.round ~scope engine ~commands ~byzantine:(fun i -> i < par_b) ()
      in
      assert (r.EC.decoded <> None);
      Ledger.grand_total ledger)

let run_smoke ~out =
  (* honor CSM_TRACE: a smoke run under `make ci` doubles as a tracer
     exercise of the full parallel pipeline *)
  Csm_obs.Exporter.install ();
  let domains = List.fold_left max 1 smoke_widths in
  Pool.set_domains domains;
  let host_cores = Domain.recommended_domain_count () in
  let reps = 5 in
  let timings =
    List.map (fun w -> (w, smoke_time ~width:w ~reps)) smoke_widths
  in
  let seq_ns = List.assoc 1 timings in
  let base = smoke_observe ~width:1 in
  let deterministic =
    List.for_all (fun w -> smoke_observe ~width:w = base) smoke_widths
  in
  let base_ops = smoke_ledger ~width:1 in
  let ledger_identical =
    List.for_all (fun w -> smoke_ledger ~width:w = base_ops) smoke_widths
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"schema\": \"csm-bench-parallel/2\",\n";
  Printf.bprintf buf "  \"bench\": \"parallel/engine-round-n64\",\n";
  Printf.bprintf buf
    "  \"host\": {\"ocaml_version\": %S, \"word_size\": %d, \
     \"recommended_domains\": %d, \"domains\": %d},\n"
    Sys.ocaml_version Sys.word_size host_cores domains;
  Printf.bprintf buf "  \"machine\": %S,\n" par_machine.M.name;
  Printf.bprintf buf "  \"n\": %d, \"k\": %d, \"d\": %d, \"b\": %d,\n" par_n
    par_k par_d par_b;
  Printf.bprintf buf "  \"state_dim\": %d, \"result_dim\": %d,\n"
    par_machine.M.state_dim
    (par_machine.M.state_dim + par_machine.M.output_dim);
  Printf.bprintf buf "  \"host_cores\": %d,\n" host_cores;
  Printf.bprintf buf "  \"rounds_timed\": %d,\n" reps;
  Printf.bprintf buf "  \"timings_ns\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun (w, ns) -> Printf.sprintf "\"domains_%d\": %.0f" w ns)
          timings));
  Printf.bprintf buf "  \"speedup_vs_seq\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun (w, ns) -> Printf.sprintf "\"domains_%d\": %.2f" w (seq_ns /. ns))
          timings));
  Printf.bprintf buf "  \"deterministic\": %b,\n" deterministic;
  Printf.bprintf buf "  \"ledger_identical\": %b,\n" ledger_identical;
  (* hardware-independent op total: the regression gate's anchor *)
  Printf.bprintf buf "  \"ledger_grand_total\": %d,\n" base_ops;
  Printf.bprintf buf
    "  \"note\": \"wall-clock measured on host_cores CPU core(s); \
     speedups reflect that hardware, while determinism and operation \
     counts are hardware-independent\"\n";
  Buffer.add_string buf "}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "wrote %s (host_cores=%d, deterministic=%b, ledger=%b)@." out
    host_cores deterministic ledger_identical;
  if not (deterministic && ledger_identical) then exit 1

(* ----- rs-smoke mode: optimistic fast path on the round hot loop ----- *)

(* A counted GF(2^8) engine at N=64: byte-packed batch kernels under
   the encoder, per-coordinate RS decoding over the received results.
   Each mode pins the decode algorithm explicitly — the CSM_RS_FASTPATH
   env default is deliberately not consulted — so the report compares
   on / off / force-fallback on equal footing:

     on             Optimistic (verify-first fast path, warm ctx)
     off            Gao (the full error decoder on every round)
     force_fallback Optimistic_fallback_only (fast path disabled at the
                    decode call: measures the fallback's overhead)

   Op counts come from the decoder role of a per-call ledger, so they
   are exact and hardware-independent; wall-clock medians are measured
   on the CI host and only compared against each other (same process,
   same host) in the gate's speedup ratio. *)

module G8 = Csm_field.Gf2m.Gf256
module C8 = Csm_field.Counted.Make (G8)
module E8 = Csm_core.Engine.Make (C8)

let rs_smoke_n = 64
let rs_smoke_d = 2
let rs_smoke_slots = 8
let rs_smoke_machine = E8.M.register_bank ~slots:rs_smoke_slots

let rs_smoke_k =
  Params.max_machines ~network:Params.Sync ~n:rs_smoke_n ~b:16 ~d:rs_smoke_d

let rs_smoke_b =
  Params.max_faults ~network:Params.Sync ~n:rs_smoke_n ~k:rs_smoke_k
    ~d:rs_smoke_d

let rs_smoke_kdim = (rs_smoke_d * (rs_smoke_k - 1)) + 1
let rs_smoke_seed = 0x0F57

let rs_engine () =
  let params =
    Params.make ~network:Params.Sync ~n:rs_smoke_n ~k:rs_smoke_k ~d:rs_smoke_d
      ~b:rs_smoke_b
  in
  let rng = Csm_rng.create rs_smoke_seed in
  let init =
    Array.init rs_smoke_k (fun _ ->
        Array.init rs_smoke_machine.E8.M.state_dim (fun _ -> C8.random rng))
  in
  let commands =
    Array.init rs_smoke_k (fun _ ->
        Array.init rs_smoke_machine.E8.M.input_dim (fun _ -> C8.random rng))
  in
  (E8.create ~machine:rs_smoke_machine ~params ~init, commands)

(* per-node results with the first [faults] nodes lying (off-by-one in
   every coordinate: in GF(2^8) adding one always changes the value) *)
let rs_results engine commands ~faults =
  List.init rs_smoke_n (fun i ->
      let xc = E8.node_encode_command engine ~node:i ~commands in
      let g = E8.node_compute engine ~node:i ~coded_command:xc in
      let g =
        if i < faults then Array.map (fun v -> C8.add v C8.one) g else g
      in
      (i, g))

(* exact field-op count of one decode call, decoder role only *)
let rs_decode_ops ~algorithm engine received =
  let ledger = Ledger.create () in
  let scope = Scope.of_ledger (module C8) ledger in
  let d = E8.decode_results ~scope ~algorithm engine received in
  assert (d <> None);
  Ledger.total ledger "decoder"

let median samples =
  let sorted = List.sort Float.compare samples in
  List.nth sorted (List.length sorted / 2)

let rs_mode_stats ~algorithm =
  let reps = 9 in
  let engine, commands = rs_engine () in
  let received = rs_results engine commands ~faults:0 in
  (* first decode on a fresh engine builds the prepared trees (cold);
     the second reuses the engine-cached ctx (warm, the steady state) *)
  let ops_cold = rs_decode_ops ~algorithm engine received in
  let ops_warm = rs_decode_ops ~algorithm engine received in
  let decode_ns =
    median
      (List.init reps (fun _ ->
           let t0 = Unix.gettimeofday () in
           (match E8.decode_results ~algorithm engine received with
           | Some _ -> ()
           | None -> failwith "rs_mode_stats: decode failed");
           Unix.gettimeofday () -. t0))
    *. 1e9
  in
  let round_ns =
    let engine, commands = rs_engine () in
    let run () =
      let r = E8.round ~algorithm engine ~commands ~byzantine:(fun _ -> false) () in
      assert (r.E8.decoded <> None)
    in
    run ();
    (* warmup *)
    median
      (List.init reps (fun _ ->
           let t0 = Unix.gettimeofday () in
           run ();
           Unix.gettimeofday () -. t0))
    *. 1e9
  in
  (ops_cold, ops_warm, decode_ns, round_ns)

let rs_smoke_modes =
  [
    ("on", E8.RS.Optimistic);
    ("off", E8.RS.Gao);
    ("force_fallback", E8.RS.Optimistic_fallback_only);
  ]

(* decoded output of one decode at a given mode / domain width / fault
   count — must be identical everywhere within the radius *)
let rs_observe ~algorithm ~width ~faults =
  Pool.with_domain_limit width (fun () ->
      let engine, commands = rs_engine () in
      let received = rs_results engine commands ~faults in
      E8.decode_results ~algorithm engine received)

let rs_ops_at ~algorithm ~width ~faults =
  Pool.with_domain_limit width (fun () ->
      let engine, commands = rs_engine () in
      let received = rs_results engine commands ~faults in
      ignore (rs_decode_ops ~algorithm engine received);
      (* warm ctx *)
      rs_decode_ops ~algorithm engine received)

let run_rs_smoke ~out =
  Csm_obs.Exporter.install ();
  let widths = [ 1; 4 ] in
  let fault_points = [ 0; 4; 8; rs_smoke_b ] in
  let stats =
    List.map (fun (name, alg) -> (name, rs_mode_stats ~algorithm:alg))
      rs_smoke_modes
  in
  (* all modes, widths and admissible fault counts agree with the
     reference decoder (Gao at width 1) *)
  let deterministic =
    List.for_all
      (fun faults ->
        let base = rs_observe ~algorithm:E8.RS.Gao ~width:1 ~faults in
        base <> None
        && List.for_all
             (fun (_, alg) ->
               List.for_all
                 (fun width -> rs_observe ~algorithm:alg ~width ~faults = base)
                 widths)
             rs_smoke_modes)
      [ 0; rs_smoke_b ]
  in
  (* per-mode decode op counts are width-independent *)
  let ledger_identical =
    List.for_all
      (fun (_, alg) ->
        let base = rs_ops_at ~algorithm:alg ~width:1 ~faults:0 in
        List.for_all
          (fun width -> rs_ops_at ~algorithm:alg ~width ~faults:0 = base)
          widths)
      rs_smoke_modes
  in
  let fault_curve =
    List.map
      (fun faults ->
        ( faults,
          List.map
            (fun (name, alg) ->
              (name, rs_ops_at ~algorithm:alg ~width:1 ~faults))
            rs_smoke_modes ))
      fault_points
  in
  let ops_warm name =
    let _, w, _, _ = List.assoc name stats in
    w
  in
  let decode_ns name =
    let _, _, ns, _ = List.assoc name stats in
    ns
  in
  let speedup_ops =
    float_of_int (ops_warm "off") /. float_of_int (ops_warm "on")
  in
  let speedup_wall = decode_ns "off" /. decode_ns "on" in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"schema\": \"csm-bench-rs/1\",\n";
  Printf.bprintf buf "  \"bench\": \"rs/optimistic-fastpath-n64\",\n";
  Printf.bprintf buf
    "  \"host\": {\"ocaml_version\": %S, \"word_size\": %d, \
     \"recommended_domains\": %d},\n"
    Sys.ocaml_version Sys.word_size
    (Domain.recommended_domain_count ());
  Printf.bprintf buf "  \"field\": \"gf2m-8\",\n";
  Printf.bprintf buf "  \"machine\": %S,\n" rs_smoke_machine.E8.M.name;
  Printf.bprintf buf
    "  \"n\": %d, \"k\": %d, \"d\": %d, \"b\": %d, \"kdim\": %d,\n" rs_smoke_n
    rs_smoke_k rs_smoke_d rs_smoke_b rs_smoke_kdim;
  Printf.bprintf buf "  \"modes\": {\n";
  Printf.bprintf buf "%s\n"
    (String.concat ",\n"
       (List.map
          (fun (name, (cold, warm, dns, rns)) ->
            Printf.sprintf
              "    %S: {\"decode_ops_cold\": %d, \"decode_ops_warm\": %d, \
               \"decode_ns\": %.0f, \"round_ns\": %.0f}"
              name cold warm dns rns)
          stats));
  Printf.bprintf buf "  },\n";
  Printf.bprintf buf "  \"fault_curve\": [\n";
  Printf.bprintf buf "%s\n"
    (String.concat ",\n"
       (List.map
          (fun (faults, per_mode) ->
            Printf.sprintf "    {\"faults\": %d, %s}" faults
              (String.concat ", "
                 (List.map
                    (fun (name, ops) ->
                      Printf.sprintf "\"decode_ops_%s\": %d" name ops)
                    per_mode)))
          fault_curve));
  Printf.bprintf buf "  ],\n";
  Printf.bprintf buf "  \"deterministic\": %b,\n" deterministic;
  Printf.bprintf buf "  \"ledger_identical\": %b,\n" ledger_identical;
  Printf.bprintf buf "  \"speedup_ops_on_vs_off\": %.2f,\n" speedup_ops;
  Printf.bprintf buf "  \"speedup_wall_on_vs_off\": %.2f,\n" speedup_wall;
  Printf.bprintf buf
    "  \"note\": \"decode op counts are exact per-call ledger totals \
     (decoder role, hardware-independent); wall-clock medians are \
     same-host and only meaningful as the on/off ratio\"\n";
  Buffer.add_string buf "}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf
    "wrote %s (deterministic=%b, ledger=%b, ops x%.2f, wall x%.2f)@." out
    deterministic ledger_identical speedup_ops speedup_wall;
  if not (deterministic && ledger_identical) then exit 1

(* ----- Consensus phase ----- *)

module DS = Csm_consensus.Dolev_strong
module Pbft = Csm_consensus.Pbft
module Auth = Csm_crypto.Auth

let bench_dolev_strong =
  let n = 9 and f = 2 in
  let keyring = Auth.create_keyring (Csm_rng.create 5) ~n in
  let cfg = { DS.n; f; leader = 0; delta = 10; instance = "bench"; keyring } in
  Test.make ~name:"dolev-strong-n9"
    (Staged.stage (fun () ->
         let { DS.decisions; _ } = DS.run cfg ~proposal:"v" () in
         assert (decisions.(1) = DS.Decided "v")))

let bench_pbft =
  let n = 7 and f = 2 in
  let keyring = Auth.create_keyring (Csm_rng.create 6) ~n in
  let cfg = { Pbft.n; f; base_timeout = 2000; instance = "bench"; keyring } in
  Test.make ~name:"pbft-n7"
    (Staged.stage (fun () ->
         let { Pbft.decisions; _ } =
           Pbft.run cfg ~proposals:(fun _ -> Some "v") ()
         in
         assert (decisions.(1) = Some "v")))

let consensus_group =
  Test.make_grouped ~name:"consensus" [ bench_dolev_strong; bench_pbft ]

(* ----- transport: frame codec + loopback round trip ----- *)

module Frame = Csm_wire.Frame
module TW = Csm_core.Wire.Make (F)
module Transport = Csm_transport.Transport
module Loopback = Csm_transport.Loopback

let bench_frame_codec =
  let payload =
    TW.encode_vector_bin (Array.init 8 (fun i -> F.of_int (i + 1)))
  in
  let frame = Frame.make ~kind:Frame.Result ~sender:3 ~round:17 payload in
  let bytes = Frame.encode frame in
  Test.make ~name:"frame-encode-decode"
    (Staged.stage (fun () ->
         let b = Frame.encode frame in
         assert (String.length b = String.length bytes);
         match Frame.decode b with
         | Some f -> ignore (Sys.opaque_identity f)
         | None -> assert false))

let bench_loopback_rtt =
  let net = Loopback.create ~endpoints:2 in
  let a = Loopback.endpoint net ~id:0 in
  let b = Loopback.endpoint net ~id:1 in
  let payload =
    TW.encode_vector_bin (Array.init 8 (fun i -> F.of_int (i + 1)))
  in
  let frame = Frame.make ~kind:Frame.Result ~sender:0 ~round:0 payload in
  Test.make ~name:"loopback-round-trip"
    (Staged.stage (fun () ->
         a.Transport.send ~dst:1 frame;
         match b.Transport.recv ~timeout:1.0 with
         | Some _ -> ()
         | None -> assert false))

let transport_group =
  Test.make_grouped ~name:"transport" [ bench_frame_codec; bench_loopback_rtt ]

(* ----- obs-smoke mode: observability overhead (allocation-counted) -----

   Wall clock would measure the CI host, so the gate runs on exact
   allocation counts instead: words per operation are deterministic for
   a fixed code path.  Two committed ceilings (bench/obs_baseline.json):

   - disabled_overhead_words: what the observability layer adds to a
     node run with tracing OFF — one HLC read plus one flight-recorder
     append per frame (the frame bytes themselves are unchanged v1);
   - v2_extra_words: the additional allocation of encoding + decoding
     a trace-stamped v2 frame over the identical v1 frame.

   Correctness booleans (v1 layout unchanged, v2 round trip, HLC
   monotonicity, final telemetry snapshot round trip) gate alongside. *)

module Clock = Csm_obs.Clock
module Flight = Csm_obs.Flight
module Agg = Csm_obs.Agg

let obs_words_per_op ~iters f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

let run_obs_smoke ~out =
  let iters = 10_000 in
  let payload = String.make 64 'p' in
  let v1 = Frame.make ~kind:Frame.Output ~sender:3 ~round:17 payload in
  let ext = { Frame.trace_id = 0xC0FFEEL; hlc = Clock.to_wire (Clock.now ()) } in
  let v2 = Frame.make ~ext ~kind:Frame.Output ~sender:3 ~round:17 payload in
  let frame_v1_words =
    obs_words_per_op ~iters (fun () -> Frame.decode (Frame.encode v1))
  in
  let frame_v2_words =
    obs_words_per_op ~iters (fun () -> Frame.decode (Frame.encode v2))
  in
  let hlc_now_words = obs_words_per_op ~iters Clock.now in
  let flight = Flight.create ~node:0 () in
  let attrs = [ ("dst", "1"); ("frame", "output") ] in
  let flight_record_words =
    obs_words_per_op ~iters (fun () ->
        Flight.record flight ~attrs ~hlc:(Clock.now ()) ~round:17 "send")
  in
  let v2_extra_words = frame_v2_words -. frame_v1_words in
  let disabled_overhead_words = hlc_now_words +. flight_record_words in
  (* correctness booleans *)
  let v1_bytes_unchanged =
    let b = Frame.encode v1 in
    String.length b = Frame.header_bytes + String.length payload
    && (match Frame.decode b with
       | Some f -> f.Frame.version = 1 && Option.is_none f.Frame.ext
       | None -> false)
  in
  let v2_roundtrip_ok =
    match Frame.decode (Frame.encode v2) with
    | Some f -> (
      Int.equal f.Frame.version Frame.ext_version
      &&
      match f.Frame.ext with
      | Some e -> Int64.equal e.Frame.trace_id 0xC0FFEEL
      | None -> false)
    | None -> false
  in
  let hlc_monotone =
    let rec go prev i =
      if i = 0 then true
      else
        let s = Clock.now () in
        Clock.compare prev s < 0 && go s (i - 1)
    in
    go (Clock.now ()) 1000
  in
  let bundle_roundtrip_ok =
    match
      Agg.decode (Agg.encode (Agg.capture ~flight ~node:0 ~scope:Agg.Process ()))
    with
    | Some s -> s.Agg.s_final && s.Agg.s_flight_recorded = Flight.recorded flight
    | None -> false
  in
  let ok =
    v1_bytes_unchanged && v2_roundtrip_ok && hlc_monotone && bundle_roundtrip_ok
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"schema\": \"csm-bench-obs/1\",\n";
  Printf.bprintf buf "  \"bench\": \"obs/wire-trace-overhead\",\n";
  Printf.bprintf buf
    "  \"host\": {\"ocaml_version\": %S, \"word_size\": %d},\n" Sys.ocaml_version
    Sys.word_size;
  Printf.bprintf buf "  \"iters\": %d,\n" iters;
  Printf.bprintf buf "  \"frame_v1_words\": %.2f,\n" frame_v1_words;
  Printf.bprintf buf "  \"frame_v2_words\": %.2f,\n" frame_v2_words;
  Printf.bprintf buf "  \"v2_extra_words\": %.2f,\n" v2_extra_words;
  Printf.bprintf buf "  \"hlc_now_words\": %.2f,\n" hlc_now_words;
  Printf.bprintf buf "  \"flight_record_words\": %.2f,\n" flight_record_words;
  Printf.bprintf buf "  \"disabled_overhead_words\": %.2f,\n"
    disabled_overhead_words;
  Printf.bprintf buf "  \"v1_bytes_unchanged\": %b,\n" v1_bytes_unchanged;
  Printf.bprintf buf "  \"v2_roundtrip_ok\": %b,\n" v2_roundtrip_ok;
  Printf.bprintf buf "  \"hlc_monotone\": %b,\n" hlc_monotone;
  Printf.bprintf buf "  \"bundle_roundtrip_ok\": %b,\n" bundle_roundtrip_ok;
  Printf.bprintf buf
    "  \"note\": \"allocation counts (words/op, minor heap) are \
     deterministic for a fixed code path and gate host-independently; \
     there is deliberately no wall-clock field\"\n";
  Buffer.add_string buf "}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf
    "wrote %s (v1=%.1fw v2=%.1fw extra=%.1fw disabled=%.1fw ok=%b)@." out
    frame_v1_words frame_v2_words v2_extra_words disabled_overhead_words ok;
  if not ok then exit 1

(* ----- live-smoke mode: streaming telemetry end-to-end gates -----

   Three gates for the live telemetry path (BENCH_live.json, schema
   csm-bench-live/1, ceilings in bench/live_baseline.json):

   - delta-merge determinism: the same synthetic snapshot payloads,
     duplicated and reordered, must merge into byte-identical node
     views — the cumulative-value idempotency contract;
   - scrape allocation: exact minor-heap words per /metrics render
     over a populated store, host-independent like the obs gate;
   - end-to-end agreement: a loopback cluster with one lying node
     streams snapshots while it runs; a mid-run HTTP scrape must report
     a windowed lambda within the committed tolerance of the
     end-of-run k*accepted/run_seconds, and the lie must raise the
     suspicion alert before the run ends. *)

module Live = Csm_obs.Live
module AlertO = Csm_obs.Alert
module MetricO = Csm_obs.Metric
module PromO = Csm_obs.Prom
module HttpO = Csm_obs.Http
module NodeT = Csm_transport.Node
module ClusterT = Csm_transport.Cluster
module CT = ClusterT.Make (F)

let live_counter_view name v =
  {
    MetricO.name;
    help = "live-smoke synthetic counter";
    kind = MetricO.K_counter;
    samples = [ { MetricO.labels = []; value = MetricO.V_counter v } ];
  }

(* Synthetic snapshot payloads with cumulative values: seq i carries
   i*10. *)
let live_delta seq =
  Agg.encode
    {
      (Agg.capture
         ~views:[ live_counter_view "csm_bench_live_total" (seq * 10) ]
         ~node:1 ~scope:Agg.Node ())
      with
      Agg.s_seq = seq;
    }

let live_apply_all live payloads =
  List.iter (fun p -> ignore (Live.apply live (Agg.decode p))) payloads

let live_delta_determinism () =
  let p1 = live_delta 1 and p2 = live_delta 2 and p3 = live_delta 3 in
  let a = Live.create ~k:1 () and b = Live.create ~k:1 () in
  live_apply_all a [ p1; p2; p3 ];
  live_apply_all b [ p1; p1; p3; p2; p2; p3; p1 ];
  PromO.render_views (Live.node_views a)
  = PromO.render_views (Live.node_views b)

let live_scrape_words () =
  let live = Live.create ~k:4 () in
  Live.mark_start ~now:100.0 live;
  let payloads = [ live_delta 1; live_delta 2; live_delta 3 ] in
  live_apply_all live payloads;
  for _ = 1 to 50 do
    Live.note_commit ~now:100.5 live
  done;
  obs_words_per_op ~iters:2_000 (fun () -> Live.scrape ~now:101.0 live)

(* Pull one unlabeled gauge value out of a Prometheus exposition. *)
let live_gauge_of_scrape name body =
  let pfx = name ^ " " in
  let pl = String.length pfx in
  List.fold_left
    (fun acc line ->
      if String.length line > pl && String.sub line 0 pl = pfx then
        float_of_string_opt (String.sub line pl (String.length line - pl))
      else acc)
    None
    (String.split_on_char '\n' body)

type live_e2e = {
  e_rounds : int;
  e_accepted : int;
  e_commits_at_scrape : int;
  e_mid_lambda : float;
  e_final_lambda : float;
  e_agreement_pct : float;
  e_suspicion_fired : bool;
  e_deltas_applied : int;
  e_deltas_rejected : int;
  e_frame_errors : int;
  e_run_seconds : float;
  e_verify_ok : bool;
}

let live_e2e ~rounds ~k =
  MetricO.enable ();
  MetricO.reset ();
  Fun.protect
    ~finally:(fun () ->
      MetricO.reset ();
      MetricO.disable ())
    (fun () ->
      let live = Live.create ~k () in
      let server =
        HttpO.serve (fun path ->
            if path = "/metrics" then Some (HttpO.text (Live.scrape live))
            else None)
      in
      Fun.protect
        ~finally:(fun () -> HttpO.stop server)
        (fun () ->
          let cfg =
            {
              CT.params = Params.make ~network:Params.Sync ~n:4 ~k ~d:1 ~b:1;
              rounds;
              seed = 4242;
              mode = ClusterT.Loopback;
              faults = [ (1, NodeT.Lie NodeT.lie_default) ];
              deadline = 30.0;
              trace = false;
              telemetry = false;
              stream = Some 0.005;
              live = Some live;
            }
          in
          let result = ref None in
          let runner = Thread.create (fun () -> result := Some (CT.run cfg)) () in
          (* Scrape over HTTP while the cluster is still committing, late
             enough that the scrape's window shares most of its span with
             the whole run: both lambdas are averages from the same start
             anchor, so at 90% of the rounds any rate drift over the run
             cancels out of their ratio instead of dominating it. *)
          let mid_target = rounds * 9 / 10 in
          while Live.commits live < mid_target && !result = None do
            Thread.yield ()
          done;
          let commits_at_scrape = Live.commits live in
          let scrape_body =
            match HttpO.get ~port:(HttpO.port server) "/metrics" with
            | Some (200, body) -> body
            | Some (code, _) ->
              Printf.ksprintf failwith "mid-run scrape returned HTTP %d" code
            | None -> failwith "mid-run scrape failed"
          in
          Thread.join runner;
          let r =
            match !result with
            | Some r -> r
            | None -> failwith "cluster run produced no result"
          in
          let accepted =
            Array.fold_left
              (fun acc l -> if Option.is_some l then acc + 1 else acc)
              0 r.CT.ledger
          in
          let frame_errors =
            Array.fold_left
              (fun acc s ->
                match s with
                | Some s -> acc + s.Transport.frame_errors
                | None -> acc)
              0 r.CT.stats
          in
          let mid_lambda =
            match live_gauge_of_scrape "csm_window_lambda" scrape_body with
            | Some v -> v
            | None -> failwith "mid-run scrape carried no csm_window_lambda"
          in
          let final_lambda =
            if r.CT.run_seconds > 0.0 then
              float_of_int (k * accepted) /. r.CT.run_seconds
            else 0.0
          in
          let agreement_pct =
            if final_lambda > 0.0 then
              100.0 *. Float.abs (mid_lambda -. final_lambda) /. final_lambda
            else infinity
          in
          let applied, _, rejected = Live.deltas live in
          {
            e_rounds = rounds;
            e_accepted = accepted;
            e_commits_at_scrape = commits_at_scrape;
            e_mid_lambda = mid_lambda;
            e_final_lambda = final_lambda;
            e_agreement_pct = agreement_pct;
            e_suspicion_fired =
              AlertO.first_fired (Live.alerts live) "suspicion" <> None;
            e_deltas_applied = applied;
            e_deltas_rejected = rejected;
            e_frame_errors = frame_errors;
            e_run_seconds = r.CT.run_seconds;
            e_verify_ok = r.CT.ok;
          }))

let run_live_smoke ~out =
  let delta_merge_deterministic = live_delta_determinism () in
  let scrape_words = live_scrape_words () in
  let rounds = 600 and k = 1 in
  let e = live_e2e ~rounds ~k in
  let mid_run_scrape = e.e_commits_at_scrape < rounds in
  let verify_ok =
    e.e_verify_ok && e.e_accepted = rounds && e.e_frame_errors = 0
    && e.e_deltas_rejected = 0
    && e.e_deltas_applied > 0
  in
  let ok =
    delta_merge_deterministic && verify_ok && mid_run_scrape
    && e.e_suspicion_fired
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"schema\": \"csm-bench-live/1\",\n";
  Printf.bprintf buf "  \"bench\": \"obs/live-streaming-telemetry\",\n";
  Printf.bprintf buf
    "  \"host\": {\"ocaml_version\": %S, \"word_size\": %d},\n" Sys.ocaml_version
    Sys.word_size;
  Printf.bprintf buf "  \"n\": 4, \"k\": %d, \"d\": 1, \"b\": 1,\n" k;
  Printf.bprintf buf "  \"rounds\": %d,\n" rounds;
  Printf.bprintf buf "  \"delta_merge_deterministic\": %b,\n"
    delta_merge_deterministic;
  Printf.bprintf buf "  \"scrape_words\": %.2f,\n" scrape_words;
  Printf.bprintf buf "  \"commits_at_scrape\": %d,\n" e.e_commits_at_scrape;
  Printf.bprintf buf "  \"mid_run_scrape\": %b,\n" mid_run_scrape;
  Printf.bprintf buf "  \"accepted\": %d,\n" e.e_accepted;
  Printf.bprintf buf "  \"run_seconds\": %.6f,\n" e.e_run_seconds;
  Printf.bprintf buf "  \"mid_lambda\": %.4f,\n" e.e_mid_lambda;
  Printf.bprintf buf "  \"final_lambda\": %.4f,\n" e.e_final_lambda;
  Printf.bprintf buf "  \"lambda_agreement_pct\": %.4f,\n" e.e_agreement_pct;
  Printf.bprintf buf "  \"suspicion_fired\": %b,\n" e.e_suspicion_fired;
  Printf.bprintf buf "  \"deltas_applied\": %d,\n" e.e_deltas_applied;
  Printf.bprintf buf "  \"deltas_rejected\": %d,\n" e.e_deltas_rejected;
  Printf.bprintf buf "  \"frame_errors\": %d,\n" e.e_frame_errors;
  Printf.bprintf buf "  \"verify_ok\": %b,\n" verify_ok;
  Printf.bprintf buf
    "  \"note\": \"booleans and the scrape allocation count are \
     deterministic; run_seconds and the lambdas measure this host, so \
     only their mutual agreement percentage is gated\"\n";
  Buffer.add_string buf "}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf
    "wrote %s (det=%b scrape=%.1fw mid-lambda=%.1f/s final-lambda=%.1f/s \
     agree=%.1f%% suspicion=%b ok=%b)@."
    out delta_merge_deterministic scrape_words e.e_mid_lambda e.e_final_lambda
    e.e_agreement_pct e.e_suspicion_fired ok;
  if not ok then exit 1

(* ----- adversary-smoke mode: Table-2 tightness certification -----

   BENCH_adversary.json (schema csm-bench-adversary/1, gated against
   bench/adversary_baseline.json) certifies that the Table-2 fault
   bounds are tight, adversary-side: for each representative bound the
   search engine explores Byzantine strategies against the protocol
   oracles and must find

   - NO safety/liveness violation when the adversary controls at most
     b = muN nodes (safety_holds_at_bound), and
   - a violation witness when it controls b + 1
     (witness_found_above_bound), shrunk to a canonical counterexample
     that replays byte-for-byte from its own serialization (replay_ok).

   The whole certification runs twice at the same seed; the two
   reports must be byte-identical (deterministic).  Everything here is
   oracle-side simulation — no wall clock, host-independent. *)

module Adv = Csm_adversary
module JsonB = Csm_obs.Json

let adversary_budget () =
  match Option.bind (Sys.getenv_opt "CSM_ADVERSARY_BUDGET") int_of_string_opt with
  | Some b when b > 0 -> b
  | Some _ | None -> 1000

let run_adversary_smoke ~out =
  let budget = adversary_budget () in
  let seed = 0xAD5E in
  let schedule = Adv.Search.Exhaustive in
  let certify () =
    (* the oracles already run metrics-disabled; reset any ambient
       registry state so the second run starts from the same world *)
    if MetricO.enabled () then MetricO.reset ();
    Adv.Certify.all ~schedule ~budget ~seed ()
  in
  let r1 = certify () in
  let r2 = certify () in
  let j1 = JsonB.to_string (Adv.Certify.report_to_json r1) in
  let j2 = JsonB.to_string (Adv.Certify.report_to_json r2) in
  let deterministic = String.equal j1 j2 in
  let report_fields =
    match Adv.Certify.report_to_json r1 with
    | JsonB.Obj fields -> fields
    | _ -> []
  in
  let doc =
    JsonB.Obj
      ([
         ("schema", JsonB.Str "csm-bench-adversary/1");
         ("bench", JsonB.Str "adversary/table2-tightness");
         ( "host",
           JsonB.Obj
             [
               ("ocaml_version", JsonB.Str Sys.ocaml_version);
               ("word_size", JsonB.Int Sys.word_size);
             ] );
         ("deterministic", JsonB.Bool deterministic);
       ]
      @ report_fields
      @ [
          ( "note",
            JsonB.Str
              "oracle-side search certification: candidate counts, \
               verdicts and the shrunk witnesses are derived from the \
               embedded seed only, so every field gates \
               host-independently" );
        ])
  in
  JsonB.write ~path:out doc;
  let ok =
    deterministic
    && r1.Adv.Certify.safety_holds_at_bound
    && r1.Adv.Certify.witness_found_above_bound
    && r1.Adv.Certify.replay_ok
  in
  Format.printf
    "wrote %s (bounds=%d deterministic=%b safe-at-bound=%b \
     witness-above=%b replay=%b)@."
    out
    (List.length r1.Adv.Certify.bounds)
    deterministic r1.Adv.Certify.safety_holds_at_bound
    r1.Adv.Certify.witness_found_above_bound r1.Adv.Certify.replay_ok;
  if not ok then exit 1

(* ----- runner ----- *)

let all_tests =
  Test.make_grouped ~name:"csm"
    [
      table1_group;
      thm1_group;
      fastpoly_group;
      rs_group;
      intermix_group;
      consensus_group;
      transport_group;
      parallel_group;
    ]

let run_benchmarks () =
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.2) ~kde:None
      ~stabilize:false ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances all_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> est
          | Some _ | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Format.printf "@[<v>== wall-clock (ns/run, OLS on monotonic clock) ==@,";
  List.iter (fun (name, ns) -> Format.printf "%-44s %14.0f ns@," name ns) rows;
  Format.printf "@]@."

let rec out_arg ~default = function
  | "--out" :: path :: _ -> path
  | _ :: rest -> out_arg ~default rest
  | [] -> default

let run_all () =
  run_benchmarks ();
  (* operation-counted table regeneration (the paper's own metric) *)
  Format.printf "@.";
  Format.printf "%a@.@." Csm_harness.Table1.pp_table
    (Csm_harness.Table1.run ~rounds:2 ~n:24 ~mu:0.25 ~d:2 ());
  Format.printf "%a@.@." Csm_harness.Table2.pp_table
    (Csm_harness.Table2.run_all ());
  Format.printf "@[<v>Throughput scaling (μ=0.25, d=2)@,%a@]@.@."
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut
       Csm_harness.Scaling.pp_scaling)
    (Csm_harness.Scaling.throughput_sweep ~mu:0.25 ~d:2 [ 12; 16; 24; 32; 48 ]);
  Format.printf "@[<v>Storage/security growth (Theorem 1)@,%a@]@.@."
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut
       Csm_harness.Scaling.pp_growth)
    (Csm_harness.Scaling.growth_sweep ~mu:0.25 ~d:2
       [ 16; 32; 64; 128; 256; 512; 1024 ]);
  Format.printf "@[<v>Coding cost: naive vs fast (§6.2)@,%a@]@."
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut
       Csm_harness.Scaling.pp_coding)
    (Csm_harness.Scaling.coding_sweep [ 16; 64; 256; 1024; 4096 ])

let () =
  let argv = Array.to_list Sys.argv in
  if List.mem "--smoke" argv then
    run_smoke ~out:(out_arg ~default:"BENCH_parallel.json" argv)
  else if List.mem "--rs-smoke" argv then
    run_rs_smoke ~out:(out_arg ~default:"BENCH_rs.json" argv)
  else if List.mem "--obs-smoke" argv then
    run_obs_smoke ~out:(out_arg ~default:"BENCH_obs.json" argv)
  else if List.mem "--live-smoke" argv then
    run_live_smoke ~out:(out_arg ~default:"BENCH_live.json" argv)
  else if List.mem "--adversary-smoke" argv then
    run_adversary_smoke ~out:(out_arg ~default:"BENCH_adversary.json" argv)
  else run_all ()
