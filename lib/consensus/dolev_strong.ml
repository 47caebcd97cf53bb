(* Dolev–Strong authenticated broadcast (the "Byzantine generals protocol
   [28]" the paper uses for the synchronous consensus phase).

   With transferable signatures the protocol tolerates any number b < N
   of Byzantine nodes:

   - round 0: the leader signs its value and broadcasts it;
   - round r: a node that receives a value carrying r valid distinct
     signatures, the first being the leader's, adds it to its extracted
     set; if the set was previously smaller it appends its own signature
     and relays (rounds continue through f + 1);
   - after round f + 1, a node decides the unique extracted value, or
     the default ⊥ if it extracted zero or several values (the leader
     equivocated).

   Consistency holds for any b ≤ f: if an honest node extracts v in
   round r ≤ f, its relay makes all honest nodes extract v by round
   r + 1 ≤ f + 1; a value extracted in round f + 1 carries f + 1
   signatures, one of which is honest, so every honest node already
   extracted it. *)

module Auth = Csm_crypto.Auth
module Net = Csm_sim.Net

type msg = {
  value : string;
  chain : (int * Auth.signature) list;  (* leader first *)
}

type config = {
  n : int;
  f : int;  (* maximum faults tolerated; rounds = f + 1 *)
  leader : int;
  delta : int;  (* synchronous bound = round length *)
  instance : string;  (* domain separation for signatures *)
  keyring : Auth.keyring;
}

type decision = Decided of string | Bot

let decision_eq a b =
  match (a, b) with
  | Bot, Bot -> true
  | Decided x, Decided y -> String.equal x y
  | Bot, Decided _ | Decided _, Bot -> false

type node_state = {
  mutable extracted : string list;  (* values extracted so far (≤ 2 kept) *)
  mutable decision : decision option;
}

let signed_payload cfg value = cfg.instance ^ "!" ^ value

(* Validate a chain of signatures on [value]: leader first, all valid,
   pairwise-distinct signers. *)
let valid_chain cfg value chain =
  match chain with
  | [] -> false
  | (first, _) :: _ when first <> cfg.leader -> false
  | _ ->
    let payload = signed_payload cfg value in
    let rec distinct seen = function
      | [] -> true
      | (id, _) :: rest ->
        (not (List.mem id seen)) && distinct (id :: seen) rest
    in
    distinct [] chain
    && List.for_all
         (fun (id, sg) -> Auth.verify cfg.keyring ~id payload sg)
         chain

let decide_tag = 0xDEC1DE

(* Honest node behavior.  [on_decide] fires exactly once per node. *)
let honest cfg ~me ?proposal ~(on_decide : int -> decision -> unit) () :
    msg Net.behavior =
  let signer = Auth.signer cfg.keyring me in
  let st = { extracted = []; decision = None } in
  let current_round api = api.Net.now () / cfg.delta in
  let relay api value chain =
    let round = current_round api in
    if round <= cfg.f && not (List.exists (fun (id, _) -> id = me) chain) then begin
      let sg = Auth.sign signer (signed_payload cfg value) in
      api.Net.broadcast { value; chain = chain @ [ (me, sg) ] }
    end
  in
  let extract api value chain =
    if
      List.length st.extracted < 2
      && not (List.mem value st.extracted)
    then begin
      st.extracted <- value :: st.extracted;
      relay api value chain
    end
  in
  {
    Net.init =
      (fun api ->
        (* Everyone scheduls the decision point; the leader proposes. *)
        api.Net.set_timer
          ~delay:(((cfg.f + 1) * cfg.delta) + (cfg.delta / 2))
          ~tag:decide_tag;
        if me = cfg.leader then
          match proposal with
          | None -> ()
          | Some value ->
            let sg = Auth.sign signer (signed_payload cfg value) in
            st.extracted <- [ value ];
            api.Net.broadcast { value; chain = [ (me, sg) ] });
    on_message =
      (fun api ~sender:_ m ->
        let round = current_round api in
        if
          st.decision = None
          && List.length m.chain >= round
          && valid_chain cfg m.value m.chain
        then extract api m.value m.chain);
    on_timer =
      (fun _api tag ->
        if tag = decide_tag && st.decision = None then begin
          let d =
            match st.extracted with [ v ] -> Decided v | [] | _ -> Bot
          in
          st.decision <- Some d;
          on_decide me d
        end);
  }

(* ----- Byzantine strategies for experiments and tests ----- *)

(* Leader sends value_a to the first half of the nodes and value_b to
   the rest (classic equivocation; Figure 2(a) of the paper). *)
let equivocating_leader cfg ~me ~value_a ~value_b : msg Net.behavior =
  let signer = Auth.signer cfg.keyring me in
  {
    Net.init =
      (fun api ->
        let sign v = Auth.sign signer (signed_payload cfg v) in
        for dst = 0 to cfg.n - 1 do
          if dst <> me then begin
            let v = if dst < cfg.n / 2 then value_a else value_b in
            api.Net.send dst { value = v; chain = [ (me, sign v) ] }
          end
        done);
    on_message = (fun _ ~sender:_ _ -> ());
    on_timer = (fun _ _ -> ());
  }

type outcome = {
  decisions : decision array;
  stats : Net.stats;
}

(* Run one broadcast instance: [behaviors.(i)] overrides the honest
   behavior for Byzantine slots. *)
let run cfg ?proposal ?(byzantine = fun _ -> None) () : outcome =
  Csm_obs.Span.with_ ~name:"dolev_strong.run"
    ~attrs:[ ("instance", cfg.instance) ]
    (fun () ->
  let decisions = Array.make cfg.n Bot in
  let on_decide i d = decisions.(i) <- d in
  let behaviors =
    Array.init cfg.n (fun i ->
        match byzantine i with
        | Some b -> b
        | None ->
          let proposal = if i = cfg.leader then proposal else None in
          honest cfg ~me:i ?proposal ~on_decide ())
  in
  let stats =
    Net.run
      ~max_time:(((cfg.f + 2) * cfg.delta) + cfg.delta)
      ~latency:(Net.sync ~delta:cfg.delta)
        (* real wire bytes: a Commit frame whose payload carries the
           value plus 24 bytes per chain link (16-byte signature +
           signer id) *)
      ~size:(fun m ->
        Csm_wire.Frame.encoded_size
          ~payload_bytes:(String.length m.value + (24 * List.length m.chain)))
      behaviors
  in
  let module Tel = Csm_obs.Telemetry in
  let module Metric = Csm_obs.Metric in
  Tel.record_per_node ~layer:"consensus" ~sent:stats.Net.sent_by
    ~received:stats.Net.received_by ~bytes_sent:stats.Net.bytes_sent_by
    ~bytes_received:stats.Net.bytes_received_by;
  if Metric.enabled () then
    Metric.observe
      (Tel.consensus_latency ~protocol:"dolev_strong")
      (float_of_int stats.Net.end_time);
  { decisions; stats })
