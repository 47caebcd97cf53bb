(* CSM core: parameter calculus (Theorems 1–2, Table 2), coded states
   (Section 5.1), and the coded execution engine (Section 5.2) against
   the uncoded ground truth under Byzantine corruption and withholding. *)

open Csm_field
open Csm_core
module F = Fp.Default
module E = Engine.Make (F)
module M = E.M
module C = Coding.Make (F)

let rng = Csm_rng.create 0xC5E
let fi = F.of_int

(* ----- Params ----- *)

let params_formulas () =
  (* sync: K <= (N - 2b - 1)/d + 1 *)
  Alcotest.(check int) "sync n=16 b=2 d=1" 12
    (Params.max_machines ~network:Params.Sync ~n:16 ~b:2 ~d:1);
  Alcotest.(check int) "sync n=16 b=2 d=2" 6
    (Params.max_machines ~network:Params.Sync ~n:16 ~b:2 ~d:2);
  Alcotest.(check int) "partial n=16 b=2 d=1" 10
    (Params.max_machines ~network:Params.Partial_sync ~n:16 ~b:2 ~d:1);
  (* K can never exceed N *)
  Alcotest.(check int) "capped at n" 8
    (Params.max_machines ~network:Params.Sync ~n:8 ~b:0 ~d:1);
  (* infeasible => 0 *)
  Alcotest.(check int) "infeasible" 0
    (Params.max_machines ~network:Params.Sync ~n:4 ~b:2 ~d:1)

let params_duality () =
  (* max_faults and max_machines are inverse bounds *)
  List.iter
    (fun network ->
      for n = 4 to 40 do
        for d = 1 to 3 do
          for b = 0 to n / 3 do
            let k = Params.max_machines ~network ~n ~b ~d in
            if k >= 1 then begin
              let b' = Params.max_faults ~network ~n ~k ~d in
              if b' < b then
                Alcotest.failf "duality violated n=%d d=%d b=%d k=%d b'=%d" n
                  d b k b'
            end
          done
        done
      done)
    [ Params.Sync; Params.Partial_sync ]

let params_table2 () =
  let p = Params.make ~network:Params.Sync ~n:20 ~k:5 ~d:2 ~b:5 in
  (* 2*5+1 = 11 <= 20 - 2*4 = 12 *)
  Alcotest.(check bool) "decoding" true (Params.decoding_ok p);
  Alcotest.(check bool) "consensus" true (Params.consensus_ok p);
  Alcotest.(check bool) "delivery" true (Params.output_delivery_ok p);
  (* b = 6 must break decoding: 13 > 12 *)
  Alcotest.(check bool) "boundary" false
    (Params.decoding_ok { p with Params.b = 6 });
  (* partial sync tighter: 3b+1 <= n - d(k-1) -> b <= (12-1)/3 = 3 *)
  Alcotest.(check int) "partial max_faults" 3
    (Params.max_faults ~network:Params.Partial_sync ~n:20 ~k:5 ~d:2)

let params_theorem_scaling () =
  (* Theorem 1: K_max = Θ(N) for fixed μ, d *)
  let mu = 1.0 /. 4.0 and d = 2 in
  let k64 = Params.theorem_k_max ~network:Params.Sync ~n:64 ~mu ~d in
  let k128 = Params.theorem_k_max ~network:Params.Sync ~n:128 ~mu ~d in
  let k256 = Params.theorem_k_max ~network:Params.Sync ~n:256 ~mu ~d in
  (* linear growth: doubling N roughly doubles K *)
  Alcotest.(check bool) "k128 ~ 2*k64" true (abs (k128 - (2 * k64)) <= 2);
  Alcotest.(check bool) "k256 ~ 2*k128" true (abs (k256 - (2 * k128)) <= 2);
  (* closed form check: floor((1-2μ)N/d + 1 - 1/d) *)
  let expect n =
    int_of_float
      (floor (((1.0 -. (2.0 *. mu)) *. float_of_int n /. float_of_int d) +. 1.0 -. (1.0 /. float_of_int d)))
  in
  Alcotest.(check int) "closed form 64" (expect 64) k64;
  Alcotest.(check int) "closed form 128" (expect 128) k128

(* ----- Coding ----- *)

let coding_matches_interpolant () =
  for _ = 1 to 20 do
    let k = 1 + Csm_rng.int rng 6 in
    let n = k + Csm_rng.int rng 12 in
    let c = C.create ~n ~k in
    let values = Array.init k (fun _ -> F.random rng) in
    let coded = C.encode_scalars c values in
    Array.iteri
      (fun i x ->
        (* coded state = u(α_i) *)
        if not (F.equal x (C.interpolant_at c values c.C.alphas.(i))) then
          Alcotest.fail "coded scalar <> u(alpha)";
        if not (F.equal x (C.encode_scalar_at c ~node:i values)) then
          Alcotest.fail "per-node encode mismatch")
      coded;
    (* interpolant recovers originals at ω *)
    Array.iteri
      (fun k' w ->
        if not (F.equal values.(k') (C.interpolant_at c values w)) then
          Alcotest.fail "u(omega_k) <> S_k")
      c.C.omegas
  done

let coding_fast_matches () =
  for _ = 1 to 15 do
    let k = 1 + Csm_rng.int rng 6 in
    let n = k + 1 + Csm_rng.int rng 12 in
    let c = C.create ~n ~k in
    let dim = 1 + Csm_rng.int rng 3 in
    let vectors =
      Array.init k (fun _ -> Array.init dim (fun _ -> F.random rng))
    in
    let a = C.encode_vectors c vectors in
    let b = C.encode_vectors_fast c vectors in
    Array.iteri
      (fun i v ->
        Array.iteri
          (fun j x ->
            if not (F.equal x b.(i).(j)) then
              Alcotest.fail "fast vector encoding mismatch")
          v)
      a
  done

let coding_identity_when_k1 () =
  (* K = 1: every node stores the state itself coded as constant poly *)
  let c = C.create ~n:5 ~k:1 in
  let coded = C.encode_scalars c [| fi 42 |] in
  Array.iter
    (fun x -> Alcotest.(check int) "constant" 42 (F.to_int x))
    coded

(* ----- Engine ----- *)

let machines =
  [
    ("bank", M.bank ());
    ("interest", M.interest_market ());
    ("cubic", M.cubic_accumulator ());
    ("pair", M.pair_market ());
  ]

let random_states machine k =
  Array.init k (fun _ ->
      Array.init machine.M.state_dim (fun _ -> F.random rng))

let random_commands machine k =
  Array.init k (fun _ ->
      Array.init machine.M.input_dim (fun _ -> F.random rng))

(* Multi-round coded execution with b Byzantine nodes must match the
   uncoded fleet exactly, for every example machine. *)
let coded_matches_uncoded () =
  List.iter
    (fun (name, machine) ->
      let d = M.degree machine in
      let k = 3 in
      let b = 2 in
      let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
      let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
      let init = random_states machine k in
      let engine = E.create ~machine ~params ~init in
      let byz = Array.init n (fun i -> i < b) in
      (* shuffle byzantine positions *)
      Csm_rng.shuffle rng byz;
      let reference = ref (Array.map Array.copy init) in
      for round = 1 to 5 do
        let commands = random_commands machine k in
        let report =
          E.round engine ~commands ~byzantine:(fun i -> byz.(i)) ()
        in
        let next_ref, out_ref =
          M.run_fleet machine ~states:!reference ~commands
        in
        reference := next_ref;
        match report.E.decoded with
        | None -> Alcotest.failf "%s: decode failed at round %d" name round
        | Some dec ->
          for k' = 0 to k - 1 do
            Array.iteri
              (fun j v ->
                if not (F.equal v next_ref.(k').(j)) then
                  Alcotest.failf "%s: state mismatch" name)
              dec.E.next_states.(k');
            Array.iteri
              (fun j v ->
                if not (F.equal v out_ref.(k').(j)) then
                  Alcotest.failf "%s: output mismatch" name)
              dec.E.outputs.(k')
          done;
          (* coded storage stays consistent with the reference states *)
          if not (E.consistent_with engine ~states:!reference) then
            Alcotest.failf "%s: coded states diverged" name
      done)
    machines

(* Byzantine nodes are identified in error_nodes when they actually lie. *)
let error_nodes_identified () =
  let machine = M.bank () in
  let k = 2 and d = 1 and b = 2 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let engine = E.create ~machine ~params ~init:(random_states machine k) in
  let liars = [ 1; 3 ] in
  let report =
    E.round engine
      ~commands:(random_commands machine k)
      ~byzantine:(fun i -> List.mem i liars)
      ()
  in
  match report.E.decoded with
  | None -> Alcotest.fail "decode failed"
  | Some dec -> Alcotest.(check (list int)) "liars found" liars dec.E.error_nodes

(* Boundary: with b = max_faults the round succeeds; with one more
   corrupted node and an adversarial corruption, unique decoding fails
   (reported as None) — matching Table 2 exactly. *)
let boundary_faults () =
  let machine = M.interest_market () in
  let d = M.degree machine in
  let k = 3 in
  let n = 14 in
  let b = Params.max_faults ~network:Params.Sync ~n ~k ~d in
  Alcotest.(check bool) "b >= 1" true (b >= 1);
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init = random_states machine k in
  (* success at b *)
  let engine = E.create ~machine ~params ~init in
  let commands = random_commands machine k in
  let report = E.round engine ~commands ~byzantine:(fun i -> i < b) () in
  Alcotest.(check bool) "succeeds at b" true (report.E.decoded <> None);
  (* failure possible at b+1: corrupt b+1 nodes with random garbage;
     decoding must not return a *wrong* answer silently: either it fails,
     or (with negligible probability for random garbage) ... we assert
     failure for this deterministic seed. *)
  let engine2 = E.create ~machine ~params ~init in
  let report2 =
    E.round engine2 ~commands
      ~byzantine:(fun i -> i <= b)
      ~corruption:(fun ~node:_ g -> Array.map (fun _ -> F.random rng) g)
      ()
  in
  Alcotest.(check bool) "fails beyond b" true (report2.E.decoded = None)

(* Partial synchrony: b nodes withhold entirely, a further... no — the
   same b nodes may either withhold or lie; test the worst split allowed:
   b withholding + b lying requires 2b <= b_tolerated... The paper's model:
   up to b faulty; some subset withholds, the rest lie.  We test all
   splits w + l = b. *)
let partial_sync_splits () =
  let machine = M.bank () in
  let d = 1 and k = 3 in
  let b = 2 in
  let n = Params.composite_degree ~k ~d + (3 * b) + 1 in
  let params = Params.make ~network:Params.Partial_sync ~n ~k ~d ~b in
  for lying = 0 to b do
    (* the remaining b - lying faulty nodes withhold *)
    let init = random_states machine k in
    let engine = E.create ~machine ~params ~init in
    let commands = random_commands machine k in
    (* nodes 0..lying-1 lie; nodes lying..b-1 withhold *)
    let report =
      E.round engine ~commands
        ~byzantine:(fun i -> i < lying)
        ~withheld:(fun i -> i >= lying && i < b)
        ()
    in
    (match report.E.decoded with
    | None -> Alcotest.failf "partial sync failed (lying=%d)" lying
    | Some dec ->
      let next_ref, _ = M.run_fleet machine ~states:init ~commands in
      for k' = 0 to k - 1 do
        if not (F.equal dec.E.next_states.(k').(0) next_ref.(k').(0)) then
          Alcotest.fail "partial sync wrong state"
      done)
  done

(* Storage efficiency: a coded state is exactly state_dim field elements,
   so γ = K·state_dim / state_dim = K. *)
let storage_efficiency () =
  let machine = M.pair_market () in
  let k = 3 and d = 2 in
  let n = 12 in
  let b = Params.max_faults ~network:Params.Sync ~n ~k ~d in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let engine = E.create ~machine ~params ~init:(random_states machine k) in
  Alcotest.(check int) "per-node storage" machine.M.state_dim
    (E.storage_per_node engine);
  Alcotest.(check int) "gamma = K" k (Params.storage_efficiency params)

(* Both decoders drive the engine identically. *)
let engine_decoder_agnostic () =
  let machine = M.interest_market () in
  let k = 3 and d = 2 in
  let b = 2 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init = random_states machine k in
  let commands = random_commands machine k in
  let run algorithm =
    let e = E.create ~machine ~params ~init in
    E.round e ~algorithm ~commands ~byzantine:(fun i -> i < b) ()
  in
  let a = run E.RS.Gao and b' = run E.RS.Optimistic in
  match (a.E.decoded, b'.E.decoded) with
  | Some da, Some db ->
    for k' = 0 to k - 1 do
      if not (F.equal da.E.next_states.(k').(0) db.E.next_states.(k').(0))
      then Alcotest.fail "decoders disagree in engine"
    done
  | _ -> Alcotest.fail "engine decode failed"

(* Decoding depends only on the results it is handed: three liars past
   the radius of 2 stay undecodable when metrics are on and the liars'
   csm_node_suspicion gauges are raised, exactly as with metrics off. *)
let decode_ignores_suspicion () =
  let module Metric = Csm_obs.Metric in
  let module Tel = Csm_obs.Telemetry in
  let machine = M.degree_machine 1 in
  let k = 2 and r = Csm_rng.create 0x5A5 in
  let params = Params.make ~network:Params.Sync ~n:7 ~k ~d:1 ~b:2 in
  let vec dim = Array.init dim (fun _ -> F.random r) in
  let init = Array.init k (fun _ -> vec machine.M.state_dim) in
  let commands = Array.init k (fun _ -> vec machine.M.input_dim) in
  let engine = E.create ~machine ~params ~init in
  let received =
    List.init 7 (fun node ->
        let g =
          E.node_compute engine ~node
            ~coded_command:(E.node_encode_command engine ~node ~commands)
        in
        (node, if node <= 2 then Array.map (fun v -> F.add v F.one) g else g))
  in
  let off = E.decode_results engine received in
  Metric.enable ();
  Metric.reset ();
  let on =
    Fun.protect
      ~finally:(fun () ->
        Metric.reset ();
        Metric.disable ())
      (fun () ->
        List.iter
          (fun node -> Metric.add (Tel.node_suspicion ~node) 1.0)
          [ 0; 1; 2 ];
        E.decode_results engine received)
  in
  Alcotest.(check bool) "metrics off: undecodable" true (Option.is_none off);
  Alcotest.(check bool) "liars suspected: undecodable" true (Option.is_none on)

(* A faulty round locates its liars once: [decode_results] verifies the
   coordinates after the first faulty one on that coordinate's
   agreement set, and must equal per-coordinate Gao ([?algorithm:Gao])
   on every input.  Each coordinate of the received vectors is a random
   polynomial of degree < d(K−1)+1 at the reporters' points, from a
   random subset of the nodes, with errors at positions every
   coordinate shares (one liar's vector), at a liar's positions on some
   coordinates only, or at positions drawn per coordinate; from 0 to
   e+1 of them.  Past the radius on every coordinate of a word with
   redundancy, both are [None].
   One engine decodes several words, so its cached contexts (and their
   prepared Gao trees) are reused. *)
let same_decoded a b =
  let rows x y =
    Array.length x = Array.length y
    && Array.for_all2
         (fun u v -> Array.length u = Array.length v && Array.for_all2 F.equal u v)
         x y
  in
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    rows a.E.next_states b.E.next_states
    && rows a.E.outputs b.E.outputs
    && a.E.error_nodes = b.E.error_nodes
  | _ -> false

let qcheck_vector_decode_equals_gao =
  QCheck.Test.make ~name:"vector decode equals per-coordinate Gao" ~count:150
    QCheck.(pair (int_range 0 2) (int_range 0 1_000_000))
    (fun (mode, seed) ->
      let r = Csm_rng.create (0xD0C + seed) in
      let machine =
        M.random r ~state_dim:(1 + Csm_rng.int r 3) ~input_dim:1
          ~output_dim:(1 + Csm_rng.int r 2) ~degree:(1 + Csm_rng.int r 2)
          ~terms:3
      in
      let d = M.degree machine and k = 1 + Csm_rng.int r 3 in
      let b = 1 + Csm_rng.int r 2 and slack = Csm_rng.int r 3 in
      let n = Params.composite_degree ~k ~d + (2 * b) + 1 + slack in
      let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
      let init = Array.init k (fun _ -> Array.init machine.M.state_dim (fun _ -> F.random r)) in
      let engine = E.create ~machine ~params ~init in
      let kdim = Params.code_dimension ~k ~d and dim = E.result_dim engine in
      (* the reporters: every node but up to [slack] withheld ones *)
      let nodes =
        List.filter (fun _ -> Csm_rng.int r (n + 1) >= slack) (List.init n Fun.id)
      in
      let m = List.length nodes in
      let e = E.RS.max_errors ~n:(max m kdim) ~k:kdim in
      let word () =
        let polys =
          Array.init dim (fun _ ->
              if kdim = 1 then E.RS.P.constant (F.random r)
              else E.RS.P.random r ~degree:(kdim - 1))
        in
        let rows =
          Array.of_list
            (List.map
               (fun node ->
                 let x = engine.E.coding.E.Coding.alphas.(node) in
                 Array.map (fun p -> E.RS.P.eval p x) polys)
               nodes)
        in
        let lie i j = rows.(i).(j) <- F.add rows.(i).(j) (F.random_nonzero r) in
        let errors = min m (Csm_rng.int r (e + 2)) in
        let liars = Csm_rng.sample r ~n:m ~k:errors in
        (match mode with
        | 0 -> Array.iter (fun i -> for j = 0 to dim - 1 do lie i j done) liars
        | 1 ->
          Array.iter
            (fun i -> for j = 0 to dim - 1 do if Csm_rng.bool r then lie i j done)
            liars
        | _ ->
          for j = 0 to dim - 1 do
            Array.iter (fun i -> lie i j) (Csm_rng.sample r ~n:m ~k:errors)
          done);
        (* with no redundancy (m = kdim) every word is a codeword *)
        (List.combine nodes (Array.to_list rows), mode = 0 && errors > e && m > kdim)
      in
      List.for_all
        (fun _ ->
          let received, past_radius = word () in
          let ours = E.decode_results engine received in
          let gao = E.decode_results ~algorithm:E.RS.Gao engine received in
          same_decoded ours gao && ((not past_radius) || Option.is_none ours))
        (List.init 3 Fun.id))

(* A random round over valid (n, K, d, b) for the early-decode
   properties: the engine, every node's honest result and their decode,
   whose polynomials are the honest h_j. *)
type early_round = {
  er_engine : E.t;
  er_n : int;
  er_b : int;
  er_dk : int;  (* d(K−1) *)
  er_honest : F.t array array;
  er_reference : E.decoded;
}

let early_round r =
  let machine =
    M.random r ~state_dim:(1 + Csm_rng.int r 2) ~input_dim:1
      ~output_dim:(1 + Csm_rng.int r 2) ~degree:(1 + Csm_rng.int r 2)
      ~terms:3
  in
  let d = M.degree machine and k = 1 + Csm_rng.int r 3 in
  let b = Csm_rng.int r 3 and slack = Csm_rng.int r 3 in
  let dk = Params.composite_degree ~k ~d in
  let n = dk + (2 * b) + 1 + slack in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init = Array.init k (fun _ -> Array.init machine.M.state_dim (fun _ -> F.random r)) in
  let commands = Array.init k (fun _ -> Array.init machine.M.input_dim (fun _ -> F.random r)) in
  let engine = E.create ~machine ~params ~init in
  let honest =
    Array.init n (fun node ->
        E.node_compute engine ~node
          ~coded_command:(E.node_encode_command engine ~node ~commands))
  in
  let reference =
    match E.decode_results engine (List.init n (fun i -> (i, honest.(i)))) with
    | Some h -> h
    | None -> failwith "an honest round did not decode"
  in
  { er_engine = engine; er_n = n; er_b = b; er_dk = dk; er_honest = honest;
    er_reference = reference }

(* The round's results with [liars] reporting random vectors (mode 0),
   or the values of a wrong p_j = h_j + c_j·∏_{s∈S}(z − α_s) that
   matches the honest nodes of S = [agreeing] (mode 1). *)
let lie_results r w ~mode ~liars ~agreeing =
  let engine = w.er_engine in
  let alpha i = engine.E.coding.E.Coding.alphas.(i) in
  let dim = E.result_dim engine in
  Array.mapi
    (fun i g ->
      if not (Array.mem i liars) then g
      else if mode = 0 then Array.init dim (fun _ -> F.random r)
      else
        Array.map
          (fun h ->
            let c = F.random_nonzero r in
            let on_s =
              Array.fold_left
                (fun acc s -> F.mul acc (F.sub (alpha i) (alpha s)))
                F.one agreeing
            in
            F.add (E.RS.P.eval h (alpha i)) (F.mul c on_s))
          w.er_reference.E.polys)
    w.er_honest

let same_polys a b = Array.length a = Array.length b && Array.for_all2 E.RS.P.equal a b

(* An early decode is [None] or the round's honest decode. *)
let honest_or_none w = function
  | None -> true
  | Some e ->
    same_decoded (Some e) (Some { w.er_reference with E.error_nodes = [] })
    && same_polys e.E.polys w.er_reference.E.polys

(* The engine's early decode and liar check over (sender, vector)
   lists: they read a round's results as sender and vector arrays, and
   the convicted senders as a flag per node (none by default). *)
let no_convictions engine = Array.make engine.E.params.Params.n false

let held results =
  (Array.of_list (List.map fst results), Array.of_list (List.map snd results))

let verify_list ?convicted engine results =
  let senders, vectors = held results in
  let convicted = match convicted with Some c -> c | None -> no_convictions engine in
  E.verify_results engine ~convicted ~senders ~vectors ~count:(Array.length senders)

let liars_of engine d results =
  let senders, vectors = held results in
  E.liars engine d ~senders ~vectors ~count:(Array.length senders)

(* Decode on agreement.  Over random rounds, up to b liars report
   random vectors or the values of a wrong polynomial matching the d(K−1)
   honest nodes of S, and the received subset is random (in mode 1 it
   holds the liars and S first, so as few as d(K−1)+b+1 results can be
   all but one on p).  On any subset of m ≥ d(K−1)+b+1 results the
   early decode is [None] or the honest decode; the same subset with no
   lies is [Some]; fewer than d(K−1)+b+1 results, honest or not, give
   [None].  [liars] names the received senders whose vectors are not
   the honest ones. *)
let qcheck_early_decode =
  QCheck.Test.make ~name:"early decode is the honest decode or None" ~count:200
    QCheck.(pair (int_range 0 1) (int_range 0 1_000_000))
    (fun (mode, seed) ->
      let r = Csm_rng.create (0xEA7 + seed) in
      let w = early_round r in
      let engine = w.er_engine and n = w.er_n and honest = w.er_honest in
      let early = E.early_results engine ~convicted:(no_convictions engine) in
      let order = Csm_rng.sample r ~n ~k:n in
      let liars = Array.sub order 0 (Csm_rng.int r (w.er_b + 1)) in
      let agreeing = Array.sub order (Array.length liars) w.er_dk in
      let lied = lie_results r w ~mode ~liars ~agreeing in
      let subset m =
        let ids =
          if mode = 1 then Array.to_list (Array.sub order 0 m)
          else Array.to_list (Csm_rng.sample r ~n ~k:m)
        in
        ( List.map (fun i -> (i, lied.(i))) ids,
          List.map (fun i -> (i, honest.(i))) ids )
      in
      let agrees = honest_or_none w in
      List.for_all
        (fun _ ->
          let m = early + Csm_rng.int r (n - early + 1) in
          let with_lies, clean = subset m in
          let below_lies, below_clean = subset (Csm_rng.int r early) in
          let expected_liars =
            List.filter_map
              (fun (i, g) ->
                if Array.for_all2 F.equal g honest.(i) then None else Some i)
              with_lies
          in
          agrees (verify_list engine with_lies)
          && (match verify_list engine clean with
             | Some _ as e -> agrees e
             | None -> false)
          && Option.is_none (verify_list engine below_lies)
          && Option.is_none (verify_list engine below_clean)
          && liars_of engine w.er_reference with_lies = expected_liars)
        (List.init 4 Fun.id))

(* Convicted liars leave the early quorum.  Over the same random rounds
   a liar set L, |L| ≤ b, lies as above, and a convicted set C ⊆ L is
   handed to the early decode, which then needs d(K−1)+(b−|C|)+1
   results from outside C.  The node order is C, L∖C, S, the rest;
   mode 1 takes prefixes of it, so every liar, convicted or not,
   reports the polynomial planted on S.  A subset with u results from
   outside C: u ≥ d(K−1)+(b−|C|)+1 gives [None] or the honest decode,
   and [Some] honest when only C lies; fewer give [None] either way.
   The prefix L ∪ S, below the threshold, is always checked: a decode
   that counted C's results there would accept the planted polynomial.
   More than b convictions change nothing: the decode equals the one
   with none. *)
let qcheck_early_decode_convicted =
  QCheck.Test.make ~name:"early decode drops convicted senders" ~count:200
    QCheck.(pair (int_range 0 1) (int_range 0 1_000_000))
    (fun (mode, seed) ->
      let r = Csm_rng.create (0xC0C + seed) in
      let w = early_round r in
      let engine = w.er_engine and n = w.er_n and b = w.er_b and dk = w.er_dk in
      let order = Csm_rng.sample r ~n ~k:n in
      let nl = Csm_rng.int r (b + 1) in
      let nc = Csm_rng.int r (nl + 1) in
      let liars = Array.sub order 0 nl in
      let agreeing = Array.sub order nl dk in
      let convicted = Array.init n (fun j -> Array.exists (( = ) j) (Array.sub order 0 nc)) in
      let threshold = dk + (b - nc) + 1 in
      let lied = lie_results r w ~mode ~liars ~agreeing in
      let only_c = Array.mapi (fun i g -> if convicted.(i) then lied.(i) else g) w.er_honest in
      let results src ids = List.map (fun i -> (i, src.(i))) ids in
      let verify src ids = verify_list ~convicted engine (results src ids) in
      let check ids =
        let u = List.length (List.filter (fun i -> not convicted.(i)) ids) in
        if u >= threshold then
          honest_or_none w (verify lied ids)
          && (match verify only_c ids with
             | Some _ as e -> honest_or_none w e
             | None -> false)
        else Option.is_none (verify lied ids) && Option.is_none (verify only_c ids)
      in
      let over = Csm_rng.sample r ~n ~k:(b + 1 + Csm_rng.int r (n - b)) in
      let ignored ids =
        let unconvicted = verify_list engine (results lied ids) in
        let overconvicted =
          verify_list ~convicted:(Array.init n (fun j -> Array.exists (( = ) j) over)) engine
            (results lied ids)
        in
        match (unconvicted, overconvicted) with
        | None, None -> true
        | Some a, Some b ->
          same_decoded unconvicted overconvicted && same_polys a.E.polys b.E.polys
        | _ -> false
      in
      let prefix m = Array.to_list (Array.sub order 0 m) in
      E.early_results engine ~convicted = threshold
      && check (prefix (nl + dk))
      && List.for_all
           (fun _ ->
             let m = Csm_rng.int r (n + 1) in
             let ids = if mode = 1 then prefix m else Array.to_list (Csm_rng.sample r ~n ~k:m) in
             check ids && ignored ids)
           (List.init 4 Fun.id))

(* Two liars at 8/2/2/2 report the values of a wrong degree-2
   polynomial that matches honest nodes 2 and 3.  The first five
   results (the liars, nodes 2 and 3, and node 4) are four on the wrong
   polynomial and one on the honest one: the early decode refuses them.
   The full decode of the first seven corrects both lies. *)
let early_decode_refuses_a_planted_polynomial () =
  let machine = M.degree_machine 2 in
  let k = 2 and r = Csm_rng.create 0x2F2 in
  let params = Params.make ~network:Params.Sync ~n:8 ~k ~d:2 ~b:2 in
  let vec dim = Array.init dim (fun _ -> F.random r) in
  let engine =
    E.create ~machine ~params ~init:(Array.init k (fun _ -> vec machine.M.state_dim))
  in
  let commands = Array.init k (fun _ -> vec machine.M.input_dim) in
  let honest =
    Array.init 8 (fun node ->
        E.node_compute engine ~node
          ~coded_command:(E.node_encode_command engine ~node ~commands))
  in
  let reference =
    match E.decode_results engine (List.init 8 (fun i -> (i, honest.(i)))) with
    | Some h -> h
    | None -> Alcotest.fail "the honest round did not decode"
  in
  let alpha i = engine.E.coding.E.Coding.alphas.(i) in
  let planted x h = F.add (E.RS.P.eval h x) (F.mul (F.sub x (alpha 2)) (F.sub x (alpha 3))) in
  let results =
    List.init 8 (fun i ->
        (i, if i <= 1 then Array.map (planted (alpha i)) reference.E.polys else honest.(i)))
  in
  let first m = List.filteri (fun i _ -> i < m) results in
  Alcotest.(check int) "early quorum" 5 (E.early_results engine ~convicted:(no_convictions engine));
  Alcotest.(check bool) "four of five agree on the wrong polynomial" true
    (Option.is_none (verify_list engine (first 5)));
  (match E.decode_results engine (first 7) with
  | Some dec ->
    Alcotest.(check bool) "full decode: honest outputs" true
      (same_decoded (Some dec) (Some { reference with E.error_nodes = [ 0; 1 ] }));
    Alcotest.(check (list int)) "both liars located" [ 0; 1 ] dec.E.error_nodes
  | None -> Alcotest.fail "the full decode failed");
  Alcotest.(check (list int)) "liars among all eight" [ 0; 1 ] (liars_of engine reference results)

(* The Boolean machine path: CSM over GF(2^10) executing the majority
   register, coded, under faults. *)
let boolean_machine_coded () =
  let module G = Gf2m.Gf1024 in
  let module EG = Engine.Make (G) in
  let module BM = Csm_machine.Boolean_machine.Make (G) in
  let machine = BM.majority_register () in
  let d = BM.M.degree machine in
  let k = 2 in
  let b = 1 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let r = Csm_rng.create 31 in
  let init =
    Array.init k (fun _ -> BM.embed_bits [| Csm_rng.bool r |])
  in
  let engine = EG.create ~machine ~params ~init in
  let states = ref (Array.map Array.copy init) in
  for _round = 1 to 4 do
    let commands =
      Array.init k (fun _ ->
          BM.embed_bits [| Csm_rng.bool r; Csm_rng.bool r |])
    in
    let report =
      EG.round engine ~commands ~byzantine:(fun i -> i = 0) ()
    in
    let next_ref, _ = BM.M.run_fleet machine ~states:!states ~commands in
    states := next_ref;
    match report.EG.decoded with
    | None -> Alcotest.fail "boolean coded round failed"
    | Some dec ->
      for k' = 0 to k - 1 do
        if not (G.equal dec.EG.next_states.(k').(0) next_ref.(k').(0)) then
          Alcotest.fail "boolean coded state mismatch"
      done
  done

(* Property: for RANDOM polynomial machines, random parameters within the
   Table-2 bound, random Byzantine sets and random corruptions, multi-round
   coded execution equals the uncoded fleet. *)
let qcheck_engine_random_machines =
  QCheck.Test.make ~name:"coded = uncoded on random machines" ~count:40
    (QCheck.make (QCheck.Gen.return ()))
    (fun () ->
      let d = 1 + Csm_rng.int rng 3 in
      let state_dim = 1 + Csm_rng.int rng 2 in
      let input_dim = 1 + Csm_rng.int rng 2 in
      let output_dim = 1 + Csm_rng.int rng 2 in
      let machine =
        M.random rng ~state_dim ~input_dim ~output_dim ~degree:d ~terms:3
      in
      let d = M.degree machine in
      let k = 1 + Csm_rng.int rng 3 in
      let b = Csm_rng.int rng 3 in
      let n = Params.composite_degree ~k ~d + (2 * b) + 1 + Csm_rng.int rng 4 in
      let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
      let init =
        Array.init k (fun _ ->
            Array.init state_dim (fun _ -> F.random rng))
      in
      let engine = E.create ~machine ~params ~init in
      let byz = Array.init n (fun i -> i < b) in
      Csm_rng.shuffle rng byz;
      let states = ref (Array.map Array.copy init) in
      let ok = ref true in
      for _ = 1 to 3 do
        let commands =
          Array.init k (fun _ ->
              Array.init input_dim (fun _ -> F.random rng))
        in
        let report =
          E.round engine ~commands
            ~byzantine:(fun i -> byz.(i))
            ~corruption:(fun ~node:_ g -> Array.map (fun _ -> F.random rng) g)
            ()
        in
        let next_ref, out_ref = M.run_fleet machine ~states:!states ~commands in
        states := next_ref;
        match report.E.decoded with
        | None -> ok := false
        | Some dec ->
          let veq a b = Array.for_all2 F.equal a b in
          if
            not
              (Array.for_all2 veq dec.E.next_states next_ref
              && Array.for_all2 veq dec.E.outputs out_ref)
          then ok := false
      done;
      !ok)

(* The register-bank machine (realistic KV workload) through coded
   execution: K banks, random writes, liars corrected every round. *)
let register_bank_coded () =
  let slots = 2 in
  let machine = M.register_bank ~slots in
  let d = M.degree machine in
  let k = 2 and b = 1 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init =
    Array.init k (fun bank ->
        Array.init slots (fun i -> fi ((100 * bank) + i)))
  in
  let engine = E.create ~machine ~params ~init in
  let states = ref (Array.map Array.copy init) in
  for round = 1 to 6 do
    let commands =
      Array.init k (fun bank ->
          M.register_write ~slots
            ~slot:(Csm_rng.int rng slots)
            (fi ((round * 10) + bank)))
    in
    let report = E.round engine ~commands ~byzantine:(fun i -> i = 2) () in
    let next_ref, out_ref = M.run_fleet machine ~states:!states ~commands in
    states := next_ref;
    match report.E.decoded with
    | None -> Alcotest.fail "register bank round failed"
    | Some dec ->
      for m = 0 to k - 1 do
        Array.iteri
          (fun j v ->
            if not (F.equal v next_ref.(m).(j)) then
              Alcotest.fail "register bank state mismatch")
          dec.E.next_states.(m);
        if not (F.equal dec.E.outputs.(m).(0) out_ref.(m).(0)) then
          Alcotest.fail "register bank output mismatch"
      done
  done

(* Field genericity: the engine over the Mersenne prime (no radix-2 NTT
   support: Karatsuba + schoolbook fallbacks throughout) behaves
   identically. *)
let engine_over_mersenne () =
  let module FM = Fp.Mersenne31 in
  let module EM = Engine.Make (FM) in
  let machine = EM.M.interest_market () in
  let d = EM.M.degree machine in
  let k = 3 and b = 2 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let r = Csm_rng.create 88 in
  let init = Array.init k (fun _ -> [| FM.random r |]) in
  let engine = EM.create ~machine ~params ~init in
  let states = ref (Array.map Array.copy init) in
  for _ = 1 to 3 do
    let commands = Array.init k (fun _ -> [| FM.random r |]) in
    let report = EM.round engine ~commands ~byzantine:(fun i -> i < b) () in
    let next_ref, _ = EM.M.run_fleet machine ~states:!states ~commands in
    states := next_ref;
    match report.EM.decoded with
    | None -> Alcotest.fail "mersenne decode failed"
    | Some dec ->
      for m = 0 to k - 1 do
        if not (FM.equal dec.EM.next_states.(m).(0) next_ref.(m).(0)) then
          Alcotest.fail "mersenne state mismatch"
      done
  done

(* Tightness of the security bound: colluding liars who report values of
   a CONSISTENT alternative codeword h+δ (δ a polynomial of degree ≤
   d(K−1)).  With c colluders and decoding radius e = ⌊(N−kdim)/2⌋:
     c ≤ e            -> the true h is decoded (attack corrected);
     e < c < N−e      -> no codeword within radius: decoding fails loudly;
     c ≥ N−e          -> the adversary's codeword is certified (security
                         genuinely collapses past the IT limit).
   This shows the Table-2 bound is exactly tight, not just sufficient. *)
let collusion_tightness () =
  let machine = M.bank () in
  let d = 1 and k = 3 in
  let n = 12 in
  let kdim = Params.composite_degree ~k ~d + 1 in
  let e = (n - kdim) / 2 in
  let b_params = Params.max_faults ~network:Params.Sync ~n ~k ~d in
  Alcotest.(check int) "radius = param bound" b_params e;
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b:b_params in
  let init = random_states machine k in
  let commands = random_commands machine k in
  (* δ(z) = z^{kdim-1} + 1, same degree family as h *)
  let run colluders =
    let engine = E.create ~machine ~params ~init in
    let delta_at alpha = F.add (F.pow alpha (kdim - 1)) F.one in
    let corruption ~node (g : F.t array) =
      let alpha = engine.E.coding.E.Coding.alphas.(node) in
      Array.map (fun v -> F.add v (delta_at alpha)) g
    in
    let report =
      E.round engine ~commands ~byzantine:(fun i -> i < colluders) ~corruption ()
    in
    report.E.decoded
  in
  (* regime 1: within radius -> corrected *)
  (match run e with
  | Some dec ->
    let next_ref, _ = M.run_fleet machine ~states:init ~commands in
    if not (F.equal dec.E.next_states.(0).(0) next_ref.(0).(0)) then
      Alcotest.fail "within radius: wrong decode"
  | None -> Alcotest.fail "within radius: decode failed");
  (* regime 2: between the radii -> loud failure *)
  let mid = e + 1 in
  if mid < n - e then begin
    match run mid with
    | None -> ()
    | Some _ -> Alcotest.fail "mid regime: should not certify any codeword"
  end;
  (* regime 3: overwhelming collusion -> adversary codeword certified *)
  (match run (n - e) with
  | Some dec ->
    let next_ref, _ = M.run_fleet machine ~states:init ~commands in
    if F.equal dec.E.next_states.(0).(0) next_ref.(0).(0) then
      Alcotest.fail "overwhelming collusion: decode should be the forged one"
  | None -> Alcotest.fail "overwhelming collusion: forged codeword certified")

let suites =
  [
    ( "csm:params",
      [
        Alcotest.test_case "closed-form K bounds" `Quick params_formulas;
        Alcotest.test_case "max_faults/max_machines duality" `Quick
          params_duality;
        Alcotest.test_case "table 2 feasibility" `Quick params_table2;
        Alcotest.test_case "theorem 1 linear scaling" `Quick
          params_theorem_scaling;
      ] );
    ( "csm:coding",
      [
        Alcotest.test_case "coded scalar = u(alpha)" `Quick
          coding_matches_interpolant;
        Alcotest.test_case "fast vector encoding" `Quick coding_fast_matches;
        Alcotest.test_case "K=1 degenerate" `Quick coding_identity_when_k1;
      ] );
    ( "csm:engine",
      [
        Alcotest.test_case "coded = uncoded under faults (all machines)"
          `Quick coded_matches_uncoded;
        Alcotest.test_case "liars identified" `Quick error_nodes_identified;
        Alcotest.test_case "table-2 fault boundary" `Quick boundary_faults;
        Alcotest.test_case "partial-sync withhold/lie splits" `Quick
          partial_sync_splits;
        Alcotest.test_case "storage efficiency = K" `Quick storage_efficiency;
        Alcotest.test_case "decoder agnostic" `Quick engine_decoder_agnostic;
        Alcotest.test_case "decode ignores suspicion gauges" `Quick
          decode_ignores_suspicion;
        Alcotest.test_case "boolean machine coded over GF(2^10)" `Quick
          boolean_machine_coded;
        Alcotest.test_case "register bank coded (KV workload)" `Quick
          register_bank_coded;
        Alcotest.test_case "collusion tightness (3 regimes)" `Quick
          collusion_tightness;
        Alcotest.test_case "engine over Mersenne31 (no NTT)" `Quick
          engine_over_mersenne;
        QCheck_alcotest.to_alcotest ~long:false qcheck_engine_random_machines;
        QCheck_alcotest.to_alcotest ~long:false qcheck_vector_decode_equals_gao;
        QCheck_alcotest.to_alcotest ~long:false qcheck_early_decode;
        QCheck_alcotest.to_alcotest ~long:false qcheck_early_decode_convicted;
        Alcotest.test_case "early decode refuses a planted polynomial" `Quick
          early_decode_refuses_a_planted_polynomial;
      ] );
  ]
