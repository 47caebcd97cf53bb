(* Centralized encoding/decoding with INTERMIX verification
   (Section 6.2): a single worker performs all coding operations with
   quasi-linear algorithms, a random committee audits each matrix–vector
   identity, and everyone else verifies alerts in constant time.

   Per round:
     1. command encoding  — worker computes X̃ = C·X (fast interpolation +
        multipoint evaluation); identity verified: X̃ = C·X;
     2. local computation — every node computes gᵢ = f(S̃ᵢ, X̃ᵢ) (O(1));
     3. decoding          — worker Reed–Solomon-decodes each coordinate,
        broadcasting the coefficients b and the agreement set τ;
        verified: |τ| ≥ ⌈(N+K'+1)/2⌉ and g_τ = V_τ·b  (equation (9));
     4. evaluation        — worker computes outputs/next states = Ω·b
        (equation (8)); verified by INTERMIX on Ω;
     5. state update      — worker computes S̃(t+1) = C·S(t+1) (fast);
        verified by INTERMIX on C.

   All verifications are per result coordinate.  Costs are attributed to
   node roles (the worker and auditors are ordinary network nodes), so a
   ledger's per-node totals are exactly the denominator of the paper's
   throughput metric. *)

module Field_intf = Csm_field.Field_intf
module Scope = Csm_metrics.Scope
module Span = Csm_obs.Span
module Params = Csm_core.Params

module Make (F : Field_intf.S) = struct
  module E = Csm_core.Engine.Make (F)
  module C = Csm_core.Coding.Make (F)
  module IX = Intermix.Make (F)
  module RS = Csm_rs.Reed_solomon.Make (F)
  module P = RS.P
  module M = IX.M
  module Sub = Csm_poly.Subproduct.Make (F)

  type worker_behavior =
    | Honest
    | Lying_encode of { node : int; offset : F.t }
        (* corrupts node's coded command *)
    | Lying_decode of { coeff : int; offset : F.t }
        (* corrupts coefficient [coeff] of the decoded polynomial *)
    | Lying_update of { node : int; offset : F.t }
        (* corrupts node's updated coded state *)

  type fraud_stage = Encode | Decode_cert | Evaluate | Update

  let fraud_stage_name = function
    | Encode -> "encode"
    | Decode_cert -> "decode_cert"
    | Evaluate -> "evaluate"
    | Update -> "update"

  type outcome = {
    decoded : E.decoded option;  (* None iff the round aborted on fraud *)
    fraud : fraud_stage option;  (* stage at which fraud was caught *)
    max_interactions : int;
  }

  let node_role = Csm_metrics.Ledger.node_role

  (* Run one INTERMIX instance with worker claims [claimed] for A·x,
     given an oracle honest about A·x asides from the initial claim
     (the §6.2 worker has nothing to gain by lying in bisection: either
     way a valid alert results; we model the adaptive liar in the unit
     tests of Algorithm 1 itself). *)
  let verify ?(scope = Scope.null) ~committee ~worker a x claimed =
    let w =
      {
        IX.claimed;
        answer =
          (fun q ->
            scope.Scope.run ~role:(node_role worker) (fun () ->
                IX.true_answer a x q));
      }
    in
    let verdict =
      IX.run_protocol ~scope w a x
        ~auditors:committee
        ~dishonest_auditor:(fun _ -> None)
    in
    verdict

  let tau_threshold ~n ~k' = (n + k' + 1 + 1) / 2  (* ⌈(N+K'+1)/2⌉ *)

  (* Batch verification: instead of one INTERMIX instance per result
     coordinate, the committee draws a random challenge r and verifies
     the single combined identity  A·(Σⱼ rʲ xⱼ) = Σⱼ rʲ yⱼ.  If any
     coordinate identity is false, the combination is false except with
     probability (dim−1)/|F| over r (Schwartz–Zippel) — negligible for
     our 31-bit field.  This cuts the committee's work by the result
     dimension. *)
  let combine_columns ~r (columns : F.t array array) =
    let dim = Array.length columns in
    let len = Array.length columns.(0) in
    let out = Array.make len F.zero in
    let power = ref F.one in
    for j = 0 to dim - 1 do
      for i = 0 to len - 1 do
        out.(i) <- F.add out.(i) (F.mul !power columns.(j).(i))
      done;
      power := F.mul !power r
    done;
    out

  (* One delegated round. *)
  let round ?(scope = Scope.null) ?(behavior = Honest) ?(batch = false)
      ?(challenge_rng = Csm_rng.create 0xBA7C)
      ?(corruption = E.default_corruption) (engine : E.t) ~commands
      ~byzantine ~worker ~committee () : outcome =
    Span.with_ ~ops:scope.Scope.ops ~name:"delegate.round" (fun () ->
    let p = engine.E.params in
    let n = p.Params.n and k = p.Params.k in
    let k' = Params.composite_degree ~k ~d:p.Params.d in
    let coding = engine.E.coding in
    let cmatrix = coding.C.cmatrix in
    let max_inter = ref 0 in
    let fraud = ref None in
    let check stage verdict =
      max_inter := max !max_inter verdict.IX.max_interactions;
      if not verdict.IX.accepted && !fraud = None then fraud := Some stage
    in
    let input_dim = engine.E.machine.E.M.input_dim in
    let wrole = node_role worker in
    (* Verify a family of identities A·xⱼ = yⱼ sharing the matrix A:
       per-coordinate, or as one random-linear-combination instance. *)
    let verify_columns stage a ~(xs : F.t array array)
        ~(claims : F.t array array) =
      if batch && Array.length xs > 1 then begin
        let r = F.random_nonzero challenge_rng in
        let x = combine_columns ~r xs in
        let y = combine_columns ~r claims in
        check stage (verify ~scope ~committee ~worker a x y)
      end
      else
        Array.iteri
          (fun j x -> check stage (verify ~scope ~committee ~worker a x claims.(j)))
          xs
    in

    (* --- Stage 1: command encoding --- *)
    let coded_commands =
      Span.with_ ~ops:scope.Scope.ops ~name:"delegate.encode" (fun () ->
      scope.Scope.run ~role:wrole (fun () ->
          let enc = C.encode_vectors_fast coding commands in
          (match behavior with
          | Lying_encode { node; offset } ->
            enc.(node) <- Array.map (fun v -> F.add v offset) enc.(node)
          | Honest | Lying_decode _ | Lying_update _ -> ());
          enc))
    in
    (* verify: column j of coded commands = C · column j *)
    verify_columns Encode cmatrix
      ~xs:(Array.init input_dim (fun j -> Array.init k (fun m -> commands.(m).(j))))
      ~claims:
        (Array.init input_dim (fun j ->
             Array.init n (fun i -> coded_commands.(i).(j))));
    if !fraud <> None then
      { decoded = None; fraud = !fraud; max_interactions = !max_inter }
    else begin
      (* --- Stage 2: local computation at every node --- *)
      let computed =
        Span.with_ ~ops:scope.Scope.ops ~name:"delegate.compute" (fun () ->
            Array.init n (fun i ->
                let g =
                  E.node_compute ~scope engine ~node:i
                    ~coded_command:coded_commands.(i)
                in
                if byzantine i then corruption ~node:i g else g))
      in
      (* --- Stage 3: worker decodes each coordinate, with certificate --- *)
      let dim = E.result_dim engine in
      let kdim = k' + 1 in
      let decode_coord j =
        scope.Scope.run ~role:wrole (fun () ->
            let pairs =
              Array.init n (fun i -> (coding.C.alphas.(i), computed.(i).(j)))
            in
            match RS.decode ~k:kdim pairs with
            | None -> None
            | Some d ->
              let coeffs = Array.make kdim F.zero in
              Array.iteri (fun c v -> coeffs.(c) <- v) (P.to_coeffs d.RS.poly);
              (match behavior with
              | Lying_decode { coeff; offset } when coeff < kdim ->
                coeffs.(coeff) <- F.add coeffs.(coeff) offset
              | Honest | Lying_encode _ | Lying_update _ | Lying_decode _ ->
                ());
              Some (coeffs, d.RS.agreement))
      in
      let per_coord =
        Span.with_ ~ops:scope.Scope.ops ~name:"delegate.decode" (fun () ->
            Array.init dim decode_coord)
      in
      if Array.exists (fun o -> o = None) per_coord then
        (* undecodable: too many faulty nodes — same outcome as the
           decentralized engine *)
        { decoded = None; fraud = None; max_interactions = !max_inter }
      else begin
        let per_coord =
          Array.map (function Some x -> x | None -> assert false) per_coord
        in
        (* verify each coordinate's certificate *)
        Array.iteri
          (fun j (coeffs, tau) ->
            if !fraud = None then begin
              (* size check (every commoner does this in O(|τ|) int ops) *)
              if List.length tau < tau_threshold ~n ~k' then begin
                fraud := Some Decode_cert
              end
              else begin
                let tau_arr = Array.of_list tau in
                let v_tau =
                  M.vandermonde
                    (Array.map (fun i -> coding.C.alphas.(i)) tau_arr)
                    ~cols:kdim
                in
                let g_tau =
                  Array.map (fun i -> computed.(i).(j)) tau_arr
                in
                check Decode_cert
                  (verify ~scope ~committee ~worker v_tau coeffs g_tau)
              end
            end)
          per_coord;
        if !fraud <> None then
          { decoded = None; fraud = !fraud; max_interactions = !max_inter }
        else begin
          (* --- Stage 4: evaluation at the ωs (equation (8)) --- *)
          let omega_vdm = M.vandermonde coding.C.omegas ~cols:kdim in
          let sd = engine.E.machine.E.M.state_dim in
          let next_states =
            Array.init k (fun _ -> Array.make sd F.zero)
          in
          let outputs =
            Array.init k (fun _ ->
                Array.make engine.E.machine.E.M.output_dim F.zero)
          in
          let eval_claims =
            Array.map
              (fun (coeffs, _tau) ->
                scope.Scope.run ~role:wrole (fun () ->
                    M.mat_vec omega_vdm coeffs))
              per_coord
          in
          verify_columns Evaluate omega_vdm
            ~xs:(Array.map fst per_coord)
            ~claims:eval_claims;
          Array.iteri
            (fun j claimed ->
              Array.iteri
                (fun m v ->
                  if j < sd then next_states.(m).(j) <- v
                  else outputs.(m).(j - sd) <- v)
                claimed)
            eval_claims;
          if !fraud <> None then
            { decoded = None; fraud = !fraud; max_interactions = !max_inter }
          else begin
            (* --- Stage 5: coded state update --- *)
            let new_coded =
              Span.with_ ~ops:scope.Scope.ops ~name:"delegate.reencode"
                (fun () ->
                  scope.Scope.run ~role:wrole (fun () ->
                      let enc = C.encode_vectors_fast coding next_states in
                      (match behavior with
                      | Lying_update { node; offset } ->
                        enc.(node) <-
                          Array.map (fun v -> F.add v offset) enc.(node)
                      | Honest | Lying_encode _ | Lying_decode _ -> ());
                      enc))
            in
            verify_columns Update cmatrix
              ~xs:
                (Array.init sd (fun j ->
                     Array.init k (fun m -> next_states.(m).(j))))
              ~claims:
                (Array.init sd (fun j ->
                     Array.init n (fun i -> new_coded.(i).(j))));
            if !fraud <> None then
              { decoded = None; fraud = !fraud; max_interactions = !max_inter }
            else begin
              (* adopt: each node stores its verified coded state *)
              engine.E.coded_states <- Array.map Array.copy new_coded;
              engine.E.round_index <- engine.E.round_index + 1;
              (* derive error set for reporting: nodes outside every τ *)
              let all_errors =
                List.sort_uniq Int.compare
                  (Array.to_list per_coord
                  |> List.concat_map (fun (_, tau) ->
                         List.filter
                           (fun i -> not (List.mem i tau))
                           (List.init n (fun i -> i))))
              in
              {
                decoded =
                  Some
                    {
                      E.next_states;
                      outputs;
                      error_nodes = all_errors;
                      polys = Array.map (fun (coeffs, _) -> P.normalize coeffs) per_coord;
                    };
                fraud = None;
                max_interactions = !max_inter;
              }
            end
          end
        end
      end
    end)
    |> fun outcome ->
    (match outcome.fraud with
    | Some stage ->
      if Csm_obs.Metric.enabled () then
        Csm_obs.Metric.inc
          (Csm_obs.Telemetry.delegation_fraud ~stage:(fraud_stage_name stage));
      Csm_obs.Event.emit
        ~attrs:[ ("stage", fraud_stage_name stage) ]
        Csm_obs.Event.Warn "delegation.fraud_caught"
    | None -> ());
    outcome
end
