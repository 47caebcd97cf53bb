(* The four bound oracles.  Each one builds the defender at the assumed
   bound [inst.b], lets the strategy control whatever nodes it names,
   and checks the paper's guarantee from the point of view of honest
   observers.  Everything is seeded: the only randomness is Csm_rng
   streams derived from [inst.seed] and the action seeds embedded in the
   strategy itself. *)

module F = Csm_field.Fp.Default
module E = Csm_core.Engine.Make (F)
module P = Csm_core.Protocol.Make (F)
module Params = Csm_core.Params
module M = E.M
module Table2 = Csm_harness.Table2

type bound = Decode_sync | Decode_partial | Output_delivery | Input_totality

let certified_bounds =
  [ Decode_sync; Decode_partial; Output_delivery; Input_totality ]

let bound_name = function
  | Decode_sync -> "decode-sync"
  | Decode_partial -> "decode-partial"
  | Output_delivery -> "output-delivery"
  | Input_totality -> "input-totality"

let bound_of_name = function
  | "decode-sync" -> Ok Decode_sync
  | "decode-partial" -> Ok Decode_partial
  | "output-delivery" -> Ok Output_delivery
  | "input-totality" -> Ok Input_totality
  | s ->
    Error
      (Printf.sprintf
         "unknown bound %S (expected decode-sync, decode-partial, \
          output-delivery or input-totality)"
         s)

let bound_inequality = function
  | Decode_sync -> "2b+1 <= N - d(K-1)"
  | Decode_partial -> "3b+1 <= N - d(K-1)"
  | Output_delivery -> "2b+1 <= N"
  | Input_totality -> "3b+1 <= N"

type instance = { n : int; k : int; d : int; b : int; rounds : int; seed : int }

let instance_for bound ~seed =
  let cases = Table2.standard_cases in
  match bound with
  | Decode_sync ->
    let n, k, d =
      match
        List.find_map
          (function Table2.Decode_sync { n; k; d } -> Some (n, k, d) | _ -> None)
          cases
      with
      | Some nkd -> nkd
      | None -> (11, 3, 2)
    in
    let b = Params.max_faults ~network:Params.Sync ~n ~k ~d in
    { n; k; d; b; rounds = 4; seed }
  | Decode_partial ->
    let n, k, d =
      match
        List.find_map
          (function
            | Table2.Decode_partial { n; k; d } -> Some (n, k, d) | _ -> None)
          cases
      with
      | Some nkd -> nkd
      | None -> (14, 3, 1)
    in
    let b = Params.max_faults ~network:Params.Partial_sync ~n ~k ~d in
    { n; k; d; b; rounds = 4; seed }
  | Output_delivery ->
    let n =
      match
        List.find_map
          (function Table2.Output { n } -> Some n | _ -> None)
          cases
      with
      | Some n -> n
      | None -> 9
    in
    { n; k = 1; d = 1; b = (n - 1) / 2; rounds = 1; seed }
  | Input_totality ->
    let n =
      match
        List.find_map
          (function Table2.Consensus_partial { n } -> Some n | _ -> None)
          cases
      with
      | Some n -> n
      | None -> 7
    in
    { n; k = 1; d = 1; b = (n - 1) / 3; rounds = 1; seed }

(* The defender's parameters must be feasible in the bound's network
   (input totality runs PBFT, the partial-synchrony consensus): the
   oracles build their engine or PBFT configuration from them. *)
let feasible bound inst =
  let network =
    match bound with
    | Decode_sync | Output_delivery -> Params.Sync
    | Decode_partial | Input_totality -> Params.Partial_sync
  in
  Params.valid
    { Params.n = inst.n; k = inst.k; d = inst.d; b = inst.b; network }

type violation_kind = Safety | Liveness

let violation_kind_name = function Safety -> "safety" | Liveness -> "liveness"

let violation_kind_of_name = function
  | "safety" -> Ok Safety
  | "liveness" -> Ok Liveness
  | s -> Error (Printf.sprintf "unknown violation kind %S" s)

type verdict = Safe | Violation of { kind : violation_kind; detail : string }
type result = { verdict : verdict; signal : float }

exception Found of { kind : violation_kind; detail : string }

let eq_vec a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (F.equal x b.(i)) then ok := false) a;
  !ok

let eq_mat a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i row -> if not (eq_vec row b.(i)) then ok := false) a;
  !ok

(* The perturbed vector node [i] reports to [observer] in round [r]
   under [act]: an execution result (decode oracles) or the client's
   output (output oracle).  Codeword: one δ(z) of degree < code_dimension
   shared by every colluder, evaluated at the liar's own point — the
   consistent fake that makes the bound exactly tight. *)
let corrupt_result engine ~act ~node:i ~round:r ~observer:o v =
  match act with
  | Strategy.Silence _ -> v (* not silenced toward this observer *)
  | Strategy.Shift c -> Array.map (fun x -> F.add x (F.of_int c)) v
  | Strategy.Coord { index; delta } ->
    let v' = Array.copy v in
    if index >= 0 && index < Array.length v' then
      v'.(index) <- F.add v'.(index) (F.of_int delta);
    v'
  | Strategy.Codeword { seed } ->
    let p = engine.E.params in
    let kdim = Params.code_dimension ~k:p.Params.k ~d:p.Params.d in
    let drng = Csm_rng.create (seed + (r * 7919)) in
    let coeffs = Array.init kdim (fun _ -> F.random drng) in
    let alpha = engine.E.coding.E.Coding.alphas.(i) in
    let dv = ref F.zero in
    for j = kdim - 1 downto 0 do
      dv := F.add (F.mul !dv alpha) coeffs.(j)
    done;
    Array.map (fun x -> F.add x !dv) v
  | Strategy.Garbage { seed } ->
    let grng = Csm_rng.create (seed + (r * 7919) + (i * 131)) in
    Array.map (fun _ -> F.random grng) v
  | Strategy.Equivocate { seed } ->
    let grng = Csm_rng.create (seed + (r * 7919) + (i * 131) + ((o + 1) * 8161)) in
    Array.map (fun _ -> F.random grng) v

(* Honest observers whose decode we audit: the lowest honest node plus
   every honest node a Silence step singles out (those see a different
   received set, so they are where equivocation/selective silence can
   bite).  Capped to keep candidate cost bounded. *)
let observers_of inst strat =
  let byz = Strategy.byz_nodes strat in
  let is_byz i = List.mem i byz in
  let base =
    let rec first i = if i >= inst.n then [] else if is_byz i then first (i + 1) else [ i ] in
    first 0
  in
  let targets =
    List.concat_map
      (fun (p : Strategy.plan) ->
        List.concat_map
          (fun (s : Strategy.step) ->
            match s.Strategy.act with Strategy.Silence ts -> ts | _ -> [])
          p.Strategy.steps)
      strat.Strategy.plans
  in
  let targets =
    List.filter (fun t -> t >= 0 && t < inst.n && not (is_byz t)) targets
  in
  let all = List.sort_uniq Int.compare (base @ targets) in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: tl -> x :: take (k - 1) tl
  in
  take 4 all

(* The instance's engine: the degree-d machine from initial states
   drawn from [inst.seed]'s stream, which the caller keeps drawing
   from. *)
let instance_engine ~network inst =
  let machine = M.degree_machine inst.d in
  let params = Params.make ~network ~n:inst.n ~k:inst.k ~d:inst.d ~b:inst.b in
  let rng = Csm_rng.create inst.seed in
  let init =
    Array.init inst.k (fun _ ->
        Array.init machine.M.state_dim (fun _ -> F.random rng))
  in
  (E.create ~machine ~params ~init, rng)

let check_decode ~partial inst strat =
  let network = if partial then Params.Partial_sync else Params.Sync in
  let engine, rng = instance_engine ~network inst in
  let machine = engine.E.machine in
  let byz = Strategy.byz_nodes strat in
  let is_byz i = List.mem i byz in
  let observers = observers_of inst strat in
  let signal = ref 0.0 in
  (* Partial synchrony: the scheduler may stall one honest result per
     faulty node — the decoder must proceed after N − x receipts (the
     model behind 3b+1, mirroring Table2.decoding_partial). *)
  let stalled_budget = if partial then Strategy.size strat else 0 in
  let verdict =
    try
      for r = 0 to inst.rounds - 1 do
        let commands =
          Array.init inst.k (fun _ ->
              Array.init machine.M.input_dim (fun _ -> F.random rng))
        in
        let report = E.round engine ~commands ~byzantine:(fun _ -> false) () in
        let truth =
          match report.E.decoded with
          | Some dcd -> dcd
          | None ->
            raise
              (Found
                 {
                   kind = Liveness;
                   detail = Printf.sprintf "round %d: honest baseline undecodable" r;
                 })
        in
        let g = report.E.computed in
        List.iter
          (fun o ->
            let stalled = ref stalled_budget in
            let received = ref [] in
            for i = inst.n - 1 downto 0 do
              if is_byz i then begin
                match Strategy.action_at strat ~node:i ~round:r with
                | None -> received := (i, g.(i)) :: !received
                | Some act ->
                  if Strategy.silent_toward act ~observer:o then
                    signal := !signal +. 0.25
                  else
                    received :=
                      (i, corrupt_result engine ~act ~node:i ~round:r ~observer:o g.(i))
                      :: !received
              end
              else if i <> o && !stalled > 0 then
                (* stall the highest-id honest results *)
                decr stalled
              else received := (i, g.(i)) :: !received
            done;
            match E.decode_results engine !received with
            | None ->
              raise
                (Found
                   {
                     kind = Liveness;
                     detail =
                       Printf.sprintf "observer %d round %d: decode failed" o r;
                   })
            | Some dcd ->
              signal := !signal +. float_of_int (List.length dcd.E.error_nodes);
              if
                not
                  (eq_mat dcd.E.next_states truth.E.next_states
                  && eq_mat dcd.E.outputs truth.E.outputs)
              then
                raise
                  (Found
                     {
                       kind = Safety;
                       detail =
                         Printf.sprintf
                           "observer %d round %d: decoded wrong results" o r;
                     }))
          observers
      done;
      Safe
    with Found { kind; detail } -> Violation { kind; detail }
  in
  { verdict; signal = !signal }

(* The client's vote on one output.  Every node answers [truth]; a
   liar's answer is its action read by [corrupt_result] with the client
   (endpoint [n]) as the observer, and any Silence withholds it. *)
let check_output inst strat =
  let engine, _ = instance_engine ~network:Params.Sync inst in
  let truth = [| F.of_int 7 |] in
  let threshold = inst.b + 1 in
  let byz = Strategy.byz_nodes strat in
  let signal = ref 0.0 in
  let responses =
    List.filter_map
      (fun i ->
        if not (List.mem i byz) then Some truth
        else
          match Strategy.action_at strat ~node:i ~round:0 with
          | None -> Some truth
          | Some (Strategy.Silence _) ->
            signal := !signal +. 0.25;
            None
          | Some act ->
            signal := !signal +. 1.0;
            Some
              (corrupt_result engine ~act ~node:i ~round:0 ~observer:inst.n
                 truth))
      (List.init inst.n (fun i -> i))
  in
  let verdict =
    match P.vote ~threshold responses with
    | None ->
      Violation { kind = Liveness; detail = "client vote reached no value" }
    | Some v ->
      if eq_vec v truth then Safe
      else
        Violation
          { kind = Safety; detail = "client accepted a forged output" }
  in
  { verdict; signal = !signal }

let check_totality inst strat =
  let module Pbft = Csm_consensus.Pbft in
  let module Net = Csm_sim.Net in
  let keyring = Csm_crypto.Auth.create_keyring (Csm_rng.create inst.seed) ~n:inst.n in
  let cfg =
    { Pbft.n = inst.n; f = inst.b; base_timeout = 2000; instance = "adv"; keyring }
  in
  let byz = Strategy.byz_nodes strat in
  (* PBFT is single-slot: gate plans on their round-0 action (timed
     schedules coarsen to "active at round 0 or not"). *)
  let act_of i = Strategy.action_at strat ~node:i ~round:0 in
  let proposals i =
    match act_of i with
    | Some (Strategy.Shift _ | Strategy.Coord _ | Strategy.Codeword _) ->
      Some "w"
    | Some (Strategy.Garbage _ | Strategy.Equivocate _) ->
      Some (Printf.sprintf "w%d" i)
    | Some (Strategy.Silence _) | None -> Some "v"
  in
  let byzantine i =
    if not (List.mem i byz) then None
    else
      match act_of i with
      | Some (Strategy.Silence []) -> Some Net.silent
      | Some (Strategy.Silence targets) ->
        Some
          (Net.filter_sends
             (fun ~dst ~now:_ -> not (List.mem dst targets))
             (Pbft.honest cfg ~me:i ~proposal:"v"
                ~on_decide:(fun _ _ -> ())
                ()))
      | _ -> None
  in
  let { Pbft.decisions; stats } = Pbft.run cfg ~proposals ~byzantine () in
  let honest =
    List.filter_map
      (fun i -> if List.mem i byz then None else Some (i, decisions.(i)))
      (List.init inst.n (fun i -> i))
  in
  let undecided =
    List.filter_map
      (fun (i, d) -> match d with None -> Some i | Some _ -> None)
      honest
  in
  (* gradient for the greedy schedule: strategies that force view
     changes push end_time up — partial progress toward a stall *)
  let delay_score =
    Float.min 8.0
      (float_of_int stats.Csm_sim.Net.end_time
      /. float_of_int (max 1 cfg.Pbft.base_timeout))
  in
  let signal =
    (0.25 *. float_of_int (Strategy.size strat))
    +. (10.0 *. float_of_int (List.length undecided))
    +. (0.5 *. delay_score)
  in
  let verdict =
    match undecided with
    | i :: _ ->
      Violation
        {
          kind = Liveness;
          detail = Printf.sprintf "honest node %d never decided" i;
        }
    | [] -> (
      let decided =
        List.filter_map
          (fun (i, d) -> match d with Some v -> Some (i, v) | None -> None)
          honest
      in
      match decided with
      | [] -> Safe (* no honest node at all: vacuous *)
      | (_, first) :: rest -> (
        match
          List.find_opt (fun (_, v) -> not (String.equal v first)) rest
        with
        | Some (i, _) ->
          Violation
            {
              kind = Safety;
              detail = Printf.sprintf "honest node %d decided differently" i;
            }
        | None -> Safe))
  in
  { verdict; signal }

let check bound inst strat =
  match bound with
  | Decode_sync -> check_decode ~partial:false inst strat
  | Decode_partial -> check_decode ~partial:true inst strat
  | Output_delivery -> check_output inst strat
  | Input_totality -> check_totality inst strat
