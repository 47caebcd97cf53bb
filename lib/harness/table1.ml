(* Table 1 regeneration: security, storage efficiency and throughput of
   full replication, partial replication, the information-theoretic
   limit, and CSM (decentralized and INTERMIX-delegated), measured by
   exact field-operation counting on the same machine and workload.

   Conventions (matching the paper's setup):
   - all schemes execute the same K = K_max(N, μ, d) machines (rounded
     down to a divisor of N so partial replication's disjoint groups
     exist);
   - security is the scheme's tolerated fault count at this operating
     point (Section 3 formulas; CSM: the Table-2 decoding bound) —
     every formula is separately validated by fault-injection tests;
   - storage efficiency γ = (total state size) / (per-node storage);
   - throughput λ = K / (mean per-node execution-phase cost), the
     Section-2.2 definition, with costs measured by the counted field. *)

module CF = Csm_field.Counted.Make (Csm_field.Fp.Default)
module Counter = Csm_metrics.Counter
module Ledger = Csm_metrics.Ledger
module Scope = Csm_metrics.Scope
module R = Csm_smr.Replication.Make (CF)
module E = Csm_core.Engine.Make (CF)
module D = Csm_intermix.Delegation.Make (CF)
module IX = Csm_intermix.Intermix.Make (CF)
module Params = Csm_core.Params
module M = R.M

type row = {
  scheme : string;
  security : int;
  storage_gamma : float;
  throughput : float;
  per_node_ops : float;  (* mean per-node ops per round *)
}

type setup = {
  n : int;
  mu : float;
  d : int;
  k : int;  (* machines actually run (divides n) *)
  k_csm : int;  (* CSM's K_max before divisor rounding *)
  b : int;  (* faults at the operating point: ⌊μN⌋ *)
}

let make_setup ~n ~mu ~d =
  let b = int_of_float (mu *. float_of_int n) in
  let k_csm = Params.max_machines ~network:Params.Sync ~n ~b ~d in
  if k_csm < 1 then invalid_arg "Table1.make_setup: infeasible (K_max = 0)";
  (* largest k <= k_csm dividing n *)
  let rec divisor k = if k < 1 then 1 else if n mod k = 0 then k else divisor (k - 1) in
  let k = divisor k_csm in
  { n; mu; d; k; k_csm; b }

let fresh_scope () =
  let ledger = Ledger.create () in
  (ledger, Scope.of_ledger (module CF) ledger)

let random_states rng machine k =
  Array.init k (fun _ ->
      Array.init machine.M.state_dim (fun _ -> CF.random rng))

let random_commands rng machine k =
  Array.init k (fun _ ->
      Array.init machine.M.input_dim (fun _ -> CF.random rng))

(* Mean per-node cost per round from a ledger. *)
let mean_per_node ledger ~n ~rounds =
  let costs = Ledger.per_node_costs ledger ~n in
  let total = Array.fold_left ( + ) 0 costs in
  float_of_int total /. float_of_int n /. float_of_int rounds

let lambda ~k ~per_node = if per_node = 0.0 then infinity else float_of_int k /. per_node

(* Cost of one uncoded machine step (c(f)), measured. *)
let machine_step_cost machine =
  let c = Counter.create () in
  let rng = Csm_rng.create 1 in
  let state = Array.init machine.M.state_dim (fun _ -> CF.random rng) in
  let input = Array.init machine.M.input_dim (fun _ -> CF.random rng) in
  CF.with_counter c (fun () -> ignore (M.step machine ~state ~input));
  Counter.total c

let full_row setup machine ~rounds =
  let rng = Csm_rng.create 0xF011 in
  let ledger, scope = fresh_scope () in
  let t =
    R.Full.create ~machine ~n:setup.n ~k:setup.k
      ~init:(random_states rng machine setup.k)
  in
  for _ = 1 to rounds do
    ignore
      (R.Full.round ~scope t
         ~commands:(random_commands rng machine setup.k)
         ~byzantine:(fun _ -> false)
         ~b:(R.security_full ~n:setup.n `Sync)
         ())
  done;
  let per_node = mean_per_node ledger ~n:setup.n ~rounds in
  {
    scheme = "full-replication";
    security = R.security_full ~n:setup.n `Sync;
    storage_gamma =
      float_of_int (setup.k * machine.M.state_dim)
      /. float_of_int (R.Full.storage_per_node t);
    throughput = lambda ~k:setup.k ~per_node;
    per_node_ops = per_node;
  }

let partial_row setup machine ~rounds =
  let rng = Csm_rng.create 0xF012 in
  let ledger, scope = fresh_scope () in
  let t =
    R.Partial.create ~machine ~n:setup.n ~k:setup.k
      ~init:(random_states rng machine setup.k)
  in
  for _ = 1 to rounds do
    ignore
      (R.Partial.round ~scope t
         ~commands:(random_commands rng machine setup.k)
         ~byzantine:(fun _ -> false)
         ~b:(R.security_partial ~n:setup.n ~k:setup.k `Sync)
         ())
  done;
  let per_node = mean_per_node ledger ~n:setup.n ~rounds in
  {
    scheme = "partial-replication";
    security = R.security_partial ~n:setup.n ~k:setup.k `Sync;
    storage_gamma =
      float_of_int (setup.k * machine.M.state_dim)
      /. float_of_int (R.Partial.storage_per_node t);
    throughput = lambda ~k:setup.k ~per_node;
    per_node_ops = per_node;
  }

(* CSM decentralized: every node encodes its command, computes f, decodes
   the full result set, and re-encodes its state.  Decoding is run once
   per node (that is what the decentralized protocol costs). *)
let csm_decentralized_row setup machine ~rounds =
  let rng = Csm_rng.create 0xF013 in
  let params =
    Params.make ~network:Params.Sync ~n:setup.n ~k:setup.k ~d:setup.d
      ~b:(Params.max_faults ~network:Params.Sync ~n:setup.n ~k:setup.k ~d:setup.d)
  in
  let ledger, scope = fresh_scope () in
  let engine =
    E.create ~machine ~params ~init:(random_states rng machine setup.k)
  in
  for _ = 1 to rounds do
    let commands = random_commands rng machine setup.k in
    (* steps 1-2 per node, costs attributed to each node's own role
       counter *)
    let computed =
      Array.init setup.n (fun i ->
          let cc = E.node_encode_command ~scope engine ~node:i ~commands in
          E.node_compute ~scope engine ~node:i ~coded_command:cc)
    in
    let received = Array.to_list (Array.mapi (fun i g -> (i, g)) computed) in
    (* every node decodes (cost attributed per node) *)
    let results =
      Array.init setup.n (fun i ->
          E.decode_results ~scope ~role:(Ledger.node_role i) engine received)
    in
    (match results.(0) with
    | Some d ->
      for i = 0 to setup.n - 1 do
        E.node_update_state ~scope engine ~node:i ~next_states:d.E.next_states
      done
    | None -> failwith "Table1: decode failed");
    ignore results
  done;
  let per_node = mean_per_node ledger ~n:setup.n ~rounds in
  {
    scheme = "csm-decentralized";
    security = params.Params.b;
    storage_gamma = float_of_int setup.k;
    throughput = lambda ~k:setup.k ~per_node;
    per_node_ops = per_node;
  }

(* CSM + INTERMIX delegation: worker + J auditors + commoners; costs land
   on their node roles.  [batch] verifies one random linear combination
   per shared-matrix stage instead of one instance per coordinate. *)
let csm_intermix_row ?(epsilon = 1e-6) ?(batch = false) setup machine ~rounds =
  let rng = Csm_rng.create 0xF014 in
  let params =
    Params.make ~network:Params.Sync ~n:setup.n ~k:setup.k ~d:setup.d
      ~b:(Params.max_faults ~network:Params.Sync ~n:setup.n ~k:setup.k ~d:setup.d)
  in
  let ledger, scope = fresh_scope () in
  let engine =
    E.create ~machine ~params ~init:(random_states rng machine setup.k)
  in
  let j = IX.committee_size ~epsilon ~mu:(max 0.01 setup.mu) in
  let j = min j (setup.n - 1) in
  for r = 0 to rounds - 1 do
    let commands = random_commands rng machine setup.k in
    let worker = r mod setup.n in
    let committee =
      List.init j (fun i -> (worker + 1 + i) mod setup.n)
    in
    let out =
      D.round ~scope ~batch engine ~commands
        ~byzantine:(fun _ -> false)
        ~worker ~committee ()
    in
    match out.D.decoded with
    | Some _ -> ()
    | None -> failwith "Table1: delegated round failed"
  done;
  let per_node = mean_per_node ledger ~n:setup.n ~rounds in
  {
    scheme = (if batch then "csm-intermix-batched" else "csm-intermix");
    security = params.Params.b;
    storage_gamma = float_of_int setup.k;
    throughput = lambda ~k:setup.k ~per_node;
    per_node_ops = per_node;
  }

(* Information-theoretic limits (formula row, Table 1 third line):
   β = N/2, γ = N, λ = N/c(f). *)
let it_limit_row setup machine =
  let cf = machine_step_cost machine in
  {
    scheme = "it-limit";
    security = setup.n / 2;
    storage_gamma = float_of_int setup.n;
    throughput = float_of_int setup.n /. float_of_int cf;
    per_node_ops = float_of_int cf;
  }

let run ?(rounds = 3) ~n ~mu ~d () =
  Csm_obs.Span.with_ ~name:"table1.run"
    ~attrs:[ ("n", string_of_int n) ]
    (fun () ->
      let setup = make_setup ~n ~mu ~d in
      let machine = M.degree_machine d in
      (* each scheme's measurement is fully self-contained (own rng,
         ledger, engine); [List.map] runs them in row order *)
      let rows =
        List.map
          (fun row -> row ())
          [
            (fun () -> full_row setup machine ~rounds);
            (fun () -> partial_row setup machine ~rounds);
            (fun () -> it_limit_row setup machine);
            (fun () -> csm_decentralized_row setup machine ~rounds);
            (fun () -> csm_intermix_row setup machine ~rounds);
            (fun () -> csm_intermix_row ~batch:true setup machine ~rounds);
          ]
      in
      (setup, rows))

let pp_row ppf r =
  Format.fprintf ppf "%-22s β=%-5d γ=%-8.1f λ=%-12.6f ops/node=%.0f" r.scheme
    r.security r.storage_gamma r.throughput r.per_node_ops

let pp_table ppf (setup, rows) =
  Format.fprintf ppf
    "@[<v>Table 1 @ N=%d, μ=%.3f, d=%d (K=%d, K_max=%d, b=%d)@,%a@]" setup.n
    setup.mu setup.d setup.k setup.k_csm setup.b
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_row)
    rows
