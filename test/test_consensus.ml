(* Consensus: Dolev–Strong agreement/validity under equivocation and
   silence; PBFT happy path, crash/Byzantine leaders, view changes, and
   partial synchrony with adversarial pre-GST delays; randomized fuzzing
   of both protocols under random Byzantine subsets. *)

module Auth = Csm_crypto.Auth
module Net = Csm_sim.Net
module DS = Csm_consensus.Dolev_strong
module Pbft = Csm_consensus.Pbft

let keyring n = Auth.create_keyring (Csm_rng.create 0xA0A) ~n

(* ----- Dolev–Strong ----- *)

let ds_config ?(n = 7) ?(f = 2) ?(leader = 0) () =
  {
    DS.n;
    f;
    leader;
    delta = 10;
    instance = "test-ds";
    keyring = keyring n;
  }

let all_honest_agree () =
  let cfg = ds_config () in
  let { DS.decisions; _ } = DS.run cfg ~proposal:"v42" () in
  Array.iter
    (fun d -> Alcotest.(check bool) "decided v42" true (d = DS.Decided "v42"))
    decisions

let silent_leader_bot () =
  let cfg = ds_config () in
  let { DS.decisions; _ } =
    DS.run cfg
      ~byzantine:(fun i -> if i = 0 then Some Net.silent else None)
      ()
  in
  Array.iteri
    (fun i d ->
      if i <> 0 then Alcotest.(check bool) "bot" true (d = DS.Bot))
    decisions

let equivocating_leader_consistent () =
  (* consistency: all honest decide the same (Bot here, since both values
     get extracted by everyone thanks to relaying) *)
  let cfg = ds_config ~n:7 ~f:2 () in
  let { DS.decisions; _ } =
    DS.run cfg
      ~byzantine:(fun i ->
        if i = 0 then
          Some (DS.equivocating_leader cfg ~me:0 ~value_a:"A" ~value_b:"B")
        else None)
      ()
  in
  let honest = Array.to_list decisions |> List.tl in
  (match honest with
  | first :: rest ->
    List.iter
      (fun d ->
        Alcotest.(check bool) "consistent" true (d = first))
      rest
  | [] -> Alcotest.fail "no honest nodes");
  Alcotest.(check bool) "equivocation yields bot" true
    (List.hd honest = DS.Bot)

let equivocation_with_silent_colluders () =
  (* leader equivocates AND some relays stay silent; honest must still
     agree among themselves *)
  let cfg = ds_config ~n:9 ~f:3 () in
  let { DS.decisions; _ } =
    DS.run cfg
      ~byzantine:(fun i ->
        if i = 0 then
          Some (DS.equivocating_leader cfg ~me:0 ~value_a:"A" ~value_b:"B")
        else if i = 1 || i = 2 then Some Net.silent
        else None)
      ()
  in
  let honest = List.filteri (fun i _ -> i > 2) (Array.to_list decisions) in
  match honest with
  | first :: rest ->
    List.iter (fun d -> Alcotest.(check bool) "consistent" true (d = first)) rest
  | [] -> Alcotest.fail "no honest"

let forged_chain_rejected () =
  (* a message whose chain is signed by the wrong node must be invalid *)
  let cfg = ds_config () in
  let signer1 = Auth.signer cfg.DS.keyring 1 in
  let payload = DS.signed_payload cfg "evil" in
  let sg = Auth.sign signer1 payload in
  (* claims to be leader-signed but signature is node 1's *)
  Alcotest.(check bool) "rejected" false
    (DS.valid_chain cfg "evil" [ (0, sg) ]);
  (* proper leader signature accepted *)
  let signer0 = Auth.signer cfg.DS.keyring 0 in
  let sg0 = Auth.sign signer0 payload in
  Alcotest.(check bool) "accepted" true (DS.valid_chain cfg "evil" [ (0, sg0) ]);
  (* duplicate signers rejected *)
  Alcotest.(check bool) "dup rejected" false
    (DS.valid_chain cfg "evil" [ (0, sg0); (0, sg0) ])

let ds_max_fault_tolerance () =
  (* with signatures, DS tolerates f = n - 2 (all but leader+one honest):
     run n=5, f=3, 3 silent non-leader nodes *)
  let cfg = ds_config ~n:5 ~f:3 () in
  let { DS.decisions; _ } =
    DS.run cfg ~proposal:"v"
      ~byzantine:(fun i -> if i >= 2 then Some Net.silent else None)
      ()
  in
  Alcotest.(check bool) "honest 1 decides v" true
    (decisions.(1) = DS.Decided "v")

(* ----- PBFT ----- *)

let pbft_config ?(n = 7) ?(f = 2) () =
  {
    Pbft.n;
    f;
    base_timeout = 2000;
    instance = "test-pbft";
    keyring = keyring n;
  }

let check_agreement ?(expect : string option) decisions honest =
  let decided =
    List.filter_map
      (fun i -> decisions.(i))
      honest
  in
  Alcotest.(check int) "all honest decided" (List.length honest)
    (List.length decided);
  match decided with
  | [] -> Alcotest.fail "nobody decided"
  | v :: rest ->
    List.iter (fun v' -> Alcotest.(check string) "agreement" v v') rest;
    (match expect with
    | Some e -> Alcotest.(check string) "validity" e v
    | None -> ())

let pbft_happy_path () =
  let cfg = pbft_config () in
  let { Pbft.decisions; stats } =
    Pbft.run cfg ~proposals:(fun i -> Some (Printf.sprintf "val-%d" i)) ()
  in
  check_agreement ~expect:"val-0" decisions (List.init 7 (fun i -> i));
  (* happy path: the run drains by the view-0 timeout (which fires idle —
     every node has already decided), with no view-change traffic after *)
  Alcotest.(check bool) "no view change needed" true
    (stats.Net.end_time <= cfg.Pbft.base_timeout)

let pbft_crashed_leader_view_change () =
  let cfg = pbft_config () in
  let { Pbft.decisions; _ } =
    Pbft.run cfg
      ~proposals:(fun i -> Some (Printf.sprintf "val-%d" i))
      ~byzantine:(fun i -> if i = 0 then Some Net.silent else None)
      ()
  in
  (* leader of view 1 is node 1; its proposal wins *)
  check_agreement ~expect:"val-1" decisions (List.init 6 (fun i -> i + 1))

let pbft_two_crashed_leaders () =
  let cfg = pbft_config () in
  let { Pbft.decisions; _ } =
    Pbft.run cfg
      ~proposals:(fun i -> Some (Printf.sprintf "val-%d" i))
      ~byzantine:(fun i -> if i <= 1 then Some Net.silent else None)
      ()
  in
  check_agreement ~expect:"val-2" decisions (List.init 5 (fun i -> i + 2))

let pbft_partial_sync_adversarial_delays () =
  (* messages crawl before GST; liveness must resume after *)
  let cfg = pbft_config () in
  let gst = 30_000 in
  let latency =
    Net.partial_sync ~gst ~delta:10
      ~pre:(fun ~src:_ ~dst:_ ~now:_ -> 1_000_000)
  in
  let { Pbft.decisions; _ } =
    Pbft.run cfg ~latency ~max_time:2_000_000
      ~proposals:(fun i -> Some (Printf.sprintf "val-%d" i))
      ()
  in
  check_agreement decisions (List.init 7 (fun i -> i))

let pbft_equivocating_leader_safe () =
  (* leader sends different pre-prepares to two halves: safety demands no
     two honest nodes decide differently (they may go through a view
     change and decide a later leader's value). *)
  let cfg = pbft_config () in
  let keyring = cfg.Pbft.keyring in
  let equivocator : Pbft.msg Net.behavior =
    {
      Net.init =
        (fun api ->
          let signer = Auth.signer keyring 0 in
          for dst = 1 to cfg.Pbft.n - 1 do
            let value = if dst <= 3 then "X" else "Y" in
            let payload = Pbft.Pre_prepare { view = 0; value } in
            api.Net.send dst
              {
                Pbft.payload;
                signature = Auth.sign signer (Pbft.payload_string cfg payload);
                signer = 0;
              }
          done);
      on_message = (fun _ ~sender:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  let { Pbft.decisions; _ } =
    Pbft.run cfg
      ~proposals:(fun i -> Some (Printf.sprintf "val-%d" i))
      ~byzantine:(fun i -> if i = 0 then Some equivocator else None)
      ()
  in
  let decided = List.filter_map (fun i -> decisions.(i)) (List.init 6 (fun i -> i + 1)) in
  match decided with
  | [] -> () (* stuck is safe, though our timeouts should prevent it *)
  | v :: rest ->
    List.iter (fun v' -> Alcotest.(check string) "safety" v v') rest

let pbft_forged_message_ignored () =
  (* a message with a bad signature must be ignored: node 1 forges a
     pre-prepare pretending to be the leader *)
  let cfg = pbft_config () in
  let forger : Pbft.msg Net.behavior =
    {
      Net.init =
        (fun api ->
          let signer = Auth.signer cfg.Pbft.keyring 1 in
          let payload = Pbft.Pre_prepare { view = 0; value = "forged" } in
          (* signed by node 1 but claiming signer = 0 *)
          api.Net.broadcast
            {
              Pbft.payload;
              signature = Auth.sign signer (Pbft.payload_string cfg payload);
              signer = 0;
            });
      on_message = (fun _ ~sender:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  let { Pbft.decisions; _ } =
    Pbft.run cfg
      ~proposals:(fun i -> Some (Printf.sprintf "val-%d" i))
      ~byzantine:(fun i ->
        if i = 0 then Some Net.silent
        else if i = 1 then Some forger
        else None)
      ()
  in
  List.iter
    (fun i ->
      match decisions.(i) with
      | Some v -> Alcotest.(check bool) "not forged" true (v <> "forged")
      | None -> ())
    (List.init 5 (fun i -> i + 2))

(* a full Dolev–Strong instance satisfies every physical trace invariant *)
let ds_trace_invariants () =
  let module Trace = Csm_sim.Trace in
  let cfg = ds_config () in
  let t = Trace.create () in
  let decisions = Array.make cfg.DS.n DS.Bot in
  let behaviors =
    Array.init cfg.DS.n (fun i ->
        DS.honest cfg ~me:i
          ?proposal:(if i = cfg.DS.leader then Some "tv" else None)
          ~on_decide:(fun j d -> decisions.(j) <- d)
          ())
  in
  ignore
    (Net.run ~tracer:(Trace.tracer t)
       ~latency:(Net.sync ~delta:cfg.DS.delta)
       behaviors);
  Alcotest.(check (list string)) "no violations" [] (Trace.check t);
  Alcotest.(check bool) "decided" true (decisions.(1) = DS.Decided "tv")

(* ----- randomized consensus fuzzing ----- *)

(* one keyring per trial, seeded by the trial *)
let keyring n seed = Auth.create_keyring (Csm_rng.create seed) ~n

(* Random Byzantine subsets (within bounds) with random strategies:
   agreement must hold among honest nodes in every sampled scenario. *)
let fuzz_dolev_strong () =
  let rng = Csm_rng.create 0xF02 in
  for trial = 1 to 25 do
    let n = 4 + Csm_rng.int rng 6 in
    let f = Csm_rng.int rng (n - 1) in
    let cfg =
      {
        DS.n;
        f;
        leader = 0;
        delta = 10;
        instance = Printf.sprintf "fuzz-%d" trial;
        keyring = keyring n (trial * 31);
      }
    in
    let byz = Array.init n (fun _ -> Csm_rng.int rng n < f) in
    byz.(0) <- Csm_rng.bool rng && f > 0;
    let nbyz = Array.fold_left (fun a b -> if b then a + 1 else a) 0 byz in
    if nbyz <= f then begin
      let strategy i : DS.msg Net.behavior option =
        if not byz.(i) then None
        else if i = 0 then
          Some
            (DS.equivocating_leader cfg ~me:0 ~value_a:"A" ~value_b:"B")
        else Some Net.silent
      in
      let { DS.decisions; _ } = DS.run cfg ~proposal:"P" ~byzantine:strategy () in
      let honest =
        List.filter_map
          (fun i -> if byz.(i) then None else Some decisions.(i))
          (List.init n (fun i -> i))
      in
      match honest with
      | [] -> ()
      | first :: rest ->
        List.iter
          (fun d ->
            if d <> first then
              Alcotest.failf "DS fuzz trial %d: disagreement" trial)
          rest
    end
  done

let fuzz_pbft () =
  let rng = Csm_rng.create 0xF03 in
  for trial = 1 to 12 do
    let f = 1 + Csm_rng.int rng 2 in
    let n = (3 * f) + 1 in
    let cfg =
      {
        Pbft.n;
        f;
        base_timeout = 2000;
        instance = Printf.sprintf "fuzzp-%d" trial;
        keyring = keyring n (trial * 53);
      }
    in
    (* random f nodes silent *)
    let bad = Csm_rng.sample rng ~n ~k:f in
    let byz i = if Array.mem i bad then Some Net.silent else None in
    let { Pbft.decisions; _ } =
      Pbft.run cfg
        ~proposals:(fun i -> Some (Printf.sprintf "p%d" i))
        ~byzantine:byz ()
    in
    let honest =
      List.filter_map
        (fun i -> if Array.mem i bad then None else decisions.(i))
        (List.init n (fun i -> i))
    in
    (match honest with
    | [] -> Alcotest.failf "PBFT fuzz trial %d: no honest decisions" trial
    | first :: rest ->
      List.iter
        (fun d ->
          if not (String.equal d first) then
            Alcotest.failf "PBFT fuzz trial %d: disagreement" trial)
        rest);
    if List.length honest <> n - f then
      Alcotest.failf "PBFT fuzz trial %d: liveness (%d/%d decided)" trial
        (List.length honest) (n - f)
  done

let suites =
  [
    ( "consensus:dolev-strong",
      [
        Alcotest.test_case "all honest agree" `Quick all_honest_agree;
        Alcotest.test_case "silent leader -> bot" `Quick silent_leader_bot;
        Alcotest.test_case "equivocating leader: consistency" `Quick
          equivocating_leader_consistent;
        Alcotest.test_case "equivocation + silent colluders" `Quick
          equivocation_with_silent_colluders;
        Alcotest.test_case "forged chains rejected" `Quick forged_chain_rejected;
        Alcotest.test_case "tolerates n-2 silent faults" `Quick
          ds_max_fault_tolerance;
        Alcotest.test_case "trace invariants hold" `Quick ds_trace_invariants;
      ] );
    ( "consensus:pbft",
      [
        Alcotest.test_case "happy path" `Quick pbft_happy_path;
        Alcotest.test_case "crashed leader -> view change" `Quick
          pbft_crashed_leader_view_change;
        Alcotest.test_case "two crashed leaders" `Quick pbft_two_crashed_leaders;
        Alcotest.test_case "partial sync adversarial delays" `Quick
          pbft_partial_sync_adversarial_delays;
        Alcotest.test_case "equivocating leader: safety" `Quick
          pbft_equivocating_leader_safe;
        Alcotest.test_case "forged message ignored" `Quick
          pbft_forged_message_ignored;
      ] );
    ( "consensus:fuzz",
      [
        Alcotest.test_case "dolev-strong random adversaries" `Quick
          fuzz_dolev_strong;
        Alcotest.test_case "pbft random crash subsets" `Quick fuzz_pbft;
      ] );
  ]
