(* Theorem-1 scaling experiments:

   1. K_max, storage efficiency and security vs. N (linear scaling of γ
      and β at fixed μ, d);
   2. per-node execution-phase cost vs. N for CSM decentralized vs.
      CSM + INTERMIX vs. full replication — the throughput-scaling claim
      λ_CSM = Θ(N / log²N loglog N): per-node cost must grow
      polylogarithmically for delegated CSM while decentralized CSM's
      decoding grows polynomially;
   3. fast (subproduct-tree) vs. naive coding cost, the §6.2 ablation. *)

module CF = Csm_field.Counted.Make (Csm_field.Fp.Default)
module Counter = Csm_metrics.Counter
module Params = Csm_core.Params
module Pool = Csm_parallel.Pool

type scaling_point = {
  n : int;
  k : int;
  b : int;
  gamma : int;
  lambda_full : float;
  lambda_partial : float;
  lambda_csm : float;
  lambda_csm_intermix : float;
}

(* One Table-1 measurement per N, each a self-contained simulation (own
   engines, ledgers, rngs). *)
let throughput_sweep ?(mu = 0.25) ?(d = 2) ?(rounds = 2) ns =
  Csm_obs.Event.emit
    ~attrs:[ ("points", string_of_int (List.length ns)) ]
    Csm_obs.Event.Info "scaling.throughput_sweep.start";
  List.map
    (fun n ->
      Csm_obs.Span.with_ ~name:"scaling.point"
        ~attrs:[ ("n", string_of_int n) ]
        (fun () ->
      let setup, rows = Table1.run ~rounds ~n ~mu ~d () in
      let find name =
        (List.find (fun r -> r.Table1.scheme = name) rows).Table1.throughput
      in
      let point =
        {
          n;
          k = setup.Table1.k;
          b = setup.Table1.b;
          gamma = setup.Table1.k;
          lambda_full = find "full-replication";
          lambda_partial = find "partial-replication";
          lambda_csm = find "csm-decentralized";
          lambda_csm_intermix = find "csm-intermix";
        }
      in
      Csm_obs.Event.emit
        ~attrs:
          [
            ("n", string_of_int n);
            ("lambda_csm", Printf.sprintf "%.9f" point.lambda_csm);
          ]
        Csm_obs.Event.Info "scaling.point.done";
      point))
    ns

(* Storage/security scaling: closed forms from Params, checked linear. *)
type growth_point = { gn : int; gk_max : int; gbeta : int }

let growth_sweep ?(mu = 0.25) ?(d = 2) ns =
  List.map
    (fun n ->
      let b = int_of_float (mu *. float_of_int n) in
      {
        gn = n;
        gk_max = Params.max_machines ~network:Params.Sync ~n ~b ~d;
        gbeta = b;
      })
    ns

(* Fast vs. naive polynomial coding: operation counts for encoding K
   values at N points. *)
module Sub = Csm_poly.Subproduct.Make (CF)
module Lag = Csm_poly.Lagrange.Make (CF)

type coding_cost = { cn : int; naive_ops : int; fast_ops : int }

let coding_sweep ?(ratio = 2) ns =
  Csm_obs.Event.emit
    ~attrs:[ ("points", string_of_int (List.length ns)) ]
    Csm_obs.Event.Info "scaling.coding_sweep.start";
  Pool.parallel_list_map
    (fun n ->
      Csm_obs.Span.with_ ~name:"scaling.coding_point"
        ~attrs:[ ("n", string_of_int n) ]
        (fun () ->
      (* per-point rng so each sweep point is self-contained (and the
         sweep is deterministic whatever the domain count) *)
      let rng = Csm_rng.create (0x5CA1 + n) in
      let k = max 1 (n / ratio) in
      let omegas = Array.init k (fun i -> CF.of_int i) in
      let alphas = Array.init n (fun i -> CF.of_int (k + i)) in
      let values = Array.init k (fun _ -> CF.random rng) in
      (* Both paths may precompute everything round-independent
         (Remark 4): the naive path its coefficient matrix C, the fast
         path its subproduct trees.  Only per-round work is counted. *)
      let c = Lag.coeff_matrix ~omegas ~alphas in
      let om = Sub.prepare omegas and al = Sub.prepare alphas in
      let naive = Counter.create () in
      CF.with_counter naive (fun () -> ignore (Lag.encode_with_matrix c values));
      let fast = Counter.create () in
      CF.with_counter fast (fun () ->
          let poly = Sub.interpolate_prepared om values in
          ignore (Sub.eval_prepared al poly));
      { cn = n; naive_ops = Counter.total naive; fast_ops = Counter.total fast }))
    ns

let pp_scaling ppf p =
  Format.fprintf ppf
    "N=%-5d K=%-4d b=%-4d γ=%-4d λ_full=%-10.6f λ_part=%-10.6f λ_csm=%-10.6f λ_csm_ix=%-10.6f"
    p.n p.k p.b p.gamma p.lambda_full p.lambda_partial p.lambda_csm
    p.lambda_csm_intermix

let pp_growth ppf g =
  Format.fprintf ppf "N=%-5d K_max=%-5d β=%-5d" g.gn g.gk_max g.gbeta

let pp_coding ppf c =
  Format.fprintf ppf "N=%-6d naive=%-10d fast=%-10d ratio=%.2f" c.cn
    c.naive_ops c.fast_ops
    (float_of_int c.naive_ops /. float_of_int (max 1 c.fast_ops))
