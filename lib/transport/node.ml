(* The per-process CSM node runtime: one node of the cluster, holding
   its own coded state S̃ᵢ inside a local engine instance and speaking
   the Frame wire protocol over an abstract {!Transport.t}.

   Round structure (client is endpoint [n]):

     Command (client → all)   the round's K command vectors
     Commit  (node → nodes)   echo of the command payload; a round
                              proceeds once b+1 endorsements of the
                              node's own view arrive (self included)
     compute                  X̃ᵢ = encode(commands), gᵢ = f(S̃ᵢ, X̃ᵢ)
     Result  (node → nodes)   gᵢ, binary vector payload
     decode                   Reed–Solomon decode of the collected gⱼ
     Output  (node → client)  decoded Ŷ rows then next-state Ŝ rows
     re-encode                S̃ᵢ(t+1) from the decoded next states

   Every inbound payload is validated at intake with the total binary
   decoders — a truncated or corrupted body counts one transport frame
   error and is dropped, so a Byzantine peer can lie (the code corrects
   lies) or babble garbage (dropped and counted) but never crash or
   wedge the node; collect loops bound their waiting with the
   [deadline] so silent peers cannot stall a round either.

   The runtime's own faults ([Drop]/[Delay]/[Corrupt]) apply to the
   frames it *sends* — that is how the cluster driver turns a node
   Byzantine at the transport layer. *)

module Field_intf = Csm_field.Field_intf
module Frame = Csm_wire.Frame
module Params = Csm_core.Params
module Clock = Csm_obs.Clock
module Flight = Csm_obs.Flight
module Agg = Csm_obs.Agg
module Span = Csm_obs.Span
module Metric = Csm_obs.Metric
module Tel = Csm_obs.Telemetry

type lie_spec = {
  l_offset : int;
  l_coord : int option;
  l_period : int;
  l_from : int;
}

let lie_default = { l_offset = 1; l_coord = None; l_period = 1; l_from = 0 }

let lie_spec_eq a b =
  a.l_offset = b.l_offset
  && (match (a.l_coord, b.l_coord) with
     | None, None -> true
     | Some x, Some y -> x = y
     | _ -> false)
  && a.l_period = b.l_period && a.l_from = b.l_from

let lie_active l ~round =
  round >= l.l_from && (round - l.l_from) mod max 1 l.l_period = 0

type fault =
  | Honest
  | Drop  (** withhold every protocol frame *)
  | Delay of float  (** send protocol frames late by this many seconds *)
  | Corrupt  (** mangle every protocol payload (detectably malformed) *)
  | Lie of lie_spec
      (** ship a well-formed but wrong Result vector — the undetectable-
          at-intake Byzantine case only the Reed–Solomon decode catches
          (and attributes, feeding the suspicion gauge); the spec
          parameterizes the perturbation (offset, optional single
          coordinate) and its round schedule (period/first round) *)

let fault_name = function
  | Honest -> "honest"
  | Drop -> "drop"
  | Delay _ -> "delay"
  | Corrupt -> "corrupt"
  | Lie l when lie_spec_eq l lie_default -> "lie"
  | Lie l ->
    Printf.sprintf "lie(o=%d,c=%s,p=%d,f=%d)" l.l_offset
      (match l.l_coord with None -> "*" | Some c -> string_of_int c)
      l.l_period l.l_from

(* Sent by a [Drop] node: nothing.  A [Corrupt] node's frames arrive but
   fail payload validation, so they add to frame errors, not to the
   protocol state.  [Delay] frames arrive late but intact; a [Lie]
   node's frames validate everywhere — only the decode unmasks them. *)
let delivers = function
  | Honest | Delay _ | Lie _ -> true
  | Drop | Corrupt -> false

module Make (F : Field_intf.S) = struct
  module W = Csm_core.Wire.Make (F)
  module E = Csm_core.Engine.Make (F)
  module M = E.M

  type config = {
    node : int;
    params : Params.t;
    machine : M.t;
    init : F.t array array;  (* the K initial states, shared by all *)
    rounds : int;
    fault : fault;
    faults : (int * fault) list;  (* the whole cluster's fault map *)
    deadline : float;  (* per-wait upper bound, seconds *)
    trace : bool;  (* stamp frame-v2 trace extensions + merge HLC *)
    telemetry : bool;  (* ship a final snapshot after the Stats reply *)
    stream : float option;
        (* also stream snapshots of the changed families to the client
           at most this often (seconds) while running, then the final
           snapshot; None = no in-flight telemetry *)
    scope : Agg.scope;
        (* what this runtime's registry snapshots describe: [Process]
           when node threads share the process registry (loopback),
           [Node] when this process owns it (forked modes) *)
  }

  (* Peers whose protocol frames will actually arrive (and validate). *)
  let expected_peers cfg =
    let n = cfg.params.Params.n in
    let dead i =
      match List.assoc_opt i cfg.faults with
      | Some f -> not (delivers f)
      | None -> false
    in
    n - List.length (List.filter dead (List.init n (fun i -> i)))

  (* Mangle a payload so every total decoder rejects it: flip a byte and
     drop the last one — the fixed-width decoders check exact length,
     the self-describing ones check exact consumption. *)
  let corrupt_payload p =
    if String.length p = 0 then "\x00"
    else begin
      let b = Bytes.of_string (String.sub p 0 (String.length p - 1)) in
      if Bytes.length b > 0 then
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
      Bytes.to_string b
    end

  (* ---- inbox: validated protocol state, filled by [pump] ---- *)

  type inbox = {
    commands : (int, string * F.t array array) Hashtbl.t;
        (* round → (payload, decoded commands), client frames only *)
    commits : (int * int, string) Hashtbl.t;  (* (round, sender) → payload *)
    results : (int * int, F.t array) Hashtbl.t;  (* (round, sender) → gⱼ *)
    traces : (int, int64) Hashtbl.t;
        (* round → causal trace id, adopted from the first valid
           extended frame of the round (the client's Command) *)
    flight : Flight.t;  (* this node's always-on black box *)
    mutable shutdown : bool;
    (* in-flight snapshot emitter state (config.stream = Some _) *)
    mutable st_emitted : int;  (* snapshots streamed so far *)
    mutable st_next : float;  (* wall time the next snapshot is due *)
    st_sent : (string, Metric.view) Hashtbl.t;
        (* family name → view as last shipped, for changed-family
           detection (views are immutable snapshots; structural
           equality is exact) *)
  }

  let make_inbox ~node () =
    {
      commands = Hashtbl.create 16;
      commits = Hashtbl.create 64;
      results = Hashtbl.create 64;
      traces = Hashtbl.create 16;
      flight = Flight.create ~node ();
      shutdown = false;
      st_emitted = 0;
      st_next = 0.0;
      st_sent = Hashtbl.create 32;
    }

  let trace_of inbox round =
    Option.value ~default:0L (Hashtbl.find_opt inbox.traces round)

  (* Stamp an outbound protocol frame (trace mode): promote it to
     wire v2 carrying the round's trace id and a fresh HLC send stamp. *)
  let stamp cfg inbox frame =
    if not cfg.trace then frame
    else
      {
        frame with
        Frame.version = Frame.ext_version;
        ext =
          Some
            {
              Frame.trace_id = trace_of inbox frame.Frame.round;
              hlc = Clock.to_wire (Clock.now ());
            };
      }

  let record_send inbox ~dst (frame : Frame.t) =
    let hlc, trace =
      match frame.Frame.ext with
      | Some e -> (Clock.of_wire e.Frame.hlc, e.Frame.trace_id)
      | None -> (Clock.now (), trace_of inbox frame.Frame.round)
    in
    Flight.record inbox.flight ~trace
      ~attrs:
        [
          ("dst", string_of_int dst);
          ("frame", Frame.kind_name frame.Frame.kind);
        ]
      ~hlc ~round:frame.Frame.round "send"

  let send_protocol cfg inbox (tr : Transport.t) ~dst frame =
    let frame = stamp cfg inbox frame in
    match cfg.fault with
    | Honest | Lie _ ->
      (* a Lie node's *protocol machinery* is honest — the lie is
         injected into the Result payload itself, in run_round *)
      record_send inbox ~dst frame;
      tr.Transport.send ~dst frame
    | Drop -> ()
    | Delay t ->
      Thread.delay t;
      record_send inbox ~dst frame;
      tr.Transport.send ~dst frame
    | Corrupt ->
      record_send inbox ~dst frame;
      tr.Transport.send ~dst
        { frame with Frame.payload = corrupt_payload frame.Frame.payload }

  (* Refresh the runtime-health gauges a snapshot is about to carry. *)
  let sample_health cfg =
    if Metric.enabled () then begin
      Tel.sample_runtime ();
      Metric.set
        (Tel.hlc_skew ~node:cfg.node)
        (Clock.skew_seconds (Clock.peek ()))
    end

  (* Ship one telemetry snapshot straight to the client.  Like Stats,
     Telemetry frames are control frames exempt from the node's fault —
     the client needs even a Byzantine node's health (it validates the
     contents, totally). *)
  let send_snapshot cfg (tr : Transport.t) inbox ~round snap =
    tr.Transport.send ~dst:cfg.params.Params.n
      (stamp cfg inbox
         (Frame.make ~kind:Frame.Telemetry ~sender:cfg.node ~round
            (Agg.encode snap)))

  (* In-flight telemetry: at most every [interval] seconds, stream a
     snapshot of the families that changed since the last one.  Values
     are cumulative and snapshots carry a per-process sequence number,
     so the client's merge is idempotent — a duplicated, reordered or
     lost frame can never corrupt the live aggregates.  Every family
     goes out first and every tenth emission, so a family whose change
     was lost in a dropped frame converges. *)
  let maybe_stream cfg (tr : Transport.t) inbox =
    match cfg.stream with
    | None -> ()
    | Some interval ->
      let now = Unix.gettimeofday () in
      if now >= inbox.st_next then begin
        inbox.st_next <- now +. interval;
        inbox.st_emitted <- inbox.st_emitted + 1;
        sample_health cfg;
        let full = inbox.st_emitted = 1 || inbox.st_emitted mod 10 = 0 in
        let views =
          List.filter
            (fun (v : Metric.view) ->
              full || Hashtbl.find_opt inbox.st_sent v.Metric.name <> Some v)
            (Metric.families ())
        in
        List.iter
          (fun (v : Metric.view) -> Hashtbl.replace inbox.st_sent v.Metric.name v)
          views;
        send_snapshot cfg tr inbox ~round:inbox.st_emitted
          (Agg.capture ~views ~node:cfg.node ~scope:cfg.scope ())
      end

  (* An adversary-chosen round number is a Hashtbl key into the inbox:
     left unvalidated, a forged stream of distinct rounds grows
     protocol state (commands/commits/results/traces) without bound.
     Rounds are dense — 0..rounds-1 for protocol frames, with [rounds]
     itself serving as the shutdown/stats epoch — so a total decoder
     bounds the key space to rounds+1 values. *)
  let decode_round ~rounds r = if r >= 0 && r <= rounds then Some r else None

  (* Intake-time validation: bound the round and decode the payload
     with the total decoders the moment the frame arrives, so a
     malformed frame is counted and dropped exactly once no matter when
     the round logic looks. *)
  let dispatch cfg (tr : Transport.t) inbox (fr : Frame.t) =
    let n = cfg.params.Params.n in
    let k = cfg.params.Params.k in
    let sender = fr.Frame.sender in
    (* HLC receive rule: fold the sender's stamp in before anything
       else, so the local clock (and the flight entry below) is already
       causally after the send *)
    let rx_hlc, rx_trace =
      match fr.Frame.ext with
      | Some e -> (Clock.observe (Clock.of_wire e.Frame.hlc), e.Frame.trace_id)
      | None -> (Clock.now (), 0L)
    in
    let record_recv ~round () =
      if rx_trace <> 0L && not (Hashtbl.mem inbox.traces round) then
        (* csm-lint: allow R6 — trace ids are opaque correlation tokens: the key is the validated round, the value fixed-width, never indexed or interpreted *)
        Hashtbl.replace inbox.traces round rx_trace;
      Flight.record inbox.flight ~trace:rx_trace
        ~attrs:
          [
            ("src", string_of_int sender);
            ("frame", Frame.kind_name fr.Frame.kind);
          ]
        ~hlc:rx_hlc ~round "recv"
    in
    let record_bad ~round reason =
      Transport.record_error tr;
      Flight.record inbox.flight ~trace:rx_trace
        ~attrs:
          [
            ("src", string_of_int sender);
            ("frame", Frame.kind_name fr.Frame.kind);
            ("reason", reason);
          ]
        ~hlc:rx_hlc ~round "error"
    in
    match decode_round ~rounds:cfg.rounds fr.Frame.round with
    | None ->
      (* the flight entry logs the forged value, but nothing keys on it *)
      record_bad ~round:fr.Frame.round "bad-round"
    | Some round -> (
      match fr.Frame.kind with
      | Frame.Command when sender = n -> (
        match
          W.decode_commands_bin ~k ~dim:cfg.machine.M.input_dim
            fr.Frame.payload
        with
        | Some cs ->
          record_recv ~round ();
          if not (Hashtbl.mem inbox.commands round) then
            Hashtbl.replace inbox.commands round (fr.Frame.payload, cs)
        | None -> record_bad ~round "bad-payload")
      | Frame.Commit when sender >= 0 && sender < n && sender <> cfg.node -> (
        match
          W.decode_commands_bin ~k ~dim:cfg.machine.M.input_dim
            fr.Frame.payload
        with
        | Some _ ->
          record_recv ~round ();
          if not (Hashtbl.mem inbox.commits (round, sender)) then
            Hashtbl.replace inbox.commits (round, sender) fr.Frame.payload
        | None -> record_bad ~round "bad-payload")
      | Frame.Result when sender >= 0 && sender < n && sender <> cfg.node -> (
        let dim = cfg.machine.M.state_dim + cfg.machine.M.output_dim in
        match W.decode_vector_bin ~dim fr.Frame.payload with
        | Some g ->
          record_recv ~round ();
          if not (Hashtbl.mem inbox.results (round, sender)) then
            Hashtbl.replace inbox.results (round, sender) g
        | None -> record_bad ~round "bad-payload")
      | Frame.Shutdown when sender = n ->
        record_recv ~round ();
        inbox.shutdown <- true
      | _ ->
        (* unexpected kind/sender combination: malformed at the
           protocol level, counted like any other bad frame *)
        record_bad ~round "unexpected-kind")

  (* Drain everything already delivered, waiting at most [within] for
     the first frame. *)
  let pump ?(within = 0.0) cfg tr inbox =
    let rec drain ~timeout =
      match tr.Transport.recv ~timeout with
      | Some fr ->
        dispatch cfg tr inbox fr;
        drain ~timeout:0.0
      | None -> ()
    in
    drain ~timeout:within

  (* Pump until [cond] holds or [cfg.deadline] passes.  Every lap also
     gives the streaming emitter a chance to fire — waits are where a
     node spends its wall time, so this is what keeps snapshots flowing
     even while a round stalls on a straggler. *)
  let wait_until cfg tr inbox cond =
    let limit = Unix.gettimeofday () +. cfg.deadline in
    let rec loop () =
      pump cfg tr inbox;
      maybe_stream cfg tr inbox;
      if cond () then true
      else if inbox.shutdown || Unix.gettimeofday () >= limit then cond ()
      else begin
        pump ~within:0.05 cfg tr inbox;
        loop ()
      end
    in
    loop ()

  (* ---- one protocol round ---- *)

  let phase inbox ~round name =
    if Metric.enabled () then Metric.inc (Tel.node_phases ~phase:name);
    Flight.record inbox.flight ~trace:(trace_of inbox round)
      ~attrs:[ ("phase", name) ]
      ~hlc:(Clock.now ()) ~round "phase"

  let run_round cfg (tr : Transport.t) engine inbox r =
    let n = cfg.params.Params.n in
    let b = cfg.params.Params.b in
    let me = cfg.node in
    (* 1. the round's commands, from the client *)
    let got_commands =
      wait_until cfg tr inbox (fun () -> Hashtbl.mem inbox.commands r)
    in
    if not got_commands then false
    else begin
      let cmd_payload, commands = Hashtbl.find inbox.commands r in
      phase inbox ~round:r "commands";
      (* 2. commit: echo the command payload to every peer, then wait
         for the peers expected to deliver; proceed on b+1 matching
         endorsements (self included) *)
      let commit = Frame.make ~kind:Frame.Commit ~sender:me ~round:r cmd_payload in
      for j = 0 to n - 1 do
        if j <> me then send_protocol cfg inbox tr ~dst:j commit
      done;
      let expected_commits = expected_peers cfg - 1 (* peers, sans self *) in
      let commits_in () =
        Hashtbl.fold
          (fun (r', _) _ acc -> if r' = r then acc + 1 else acc)
          inbox.commits 0
      in
      ignore (wait_until cfg tr inbox (fun () -> commits_in () >= expected_commits));
      let matching =
        1
        + Hashtbl.fold
            (fun (r', _) p acc -> if r' = r && p = cmd_payload then acc + 1 else acc)
            inbox.commits 0
      in
      let committed = matching >= b + 1 in
      if not committed then false
      else begin
      phase inbox ~round:r "committed";
      (* 3. compute gᵢ over the committed commands *)
      let coded_command = E.node_encode_command engine ~node:me ~commands in
      let g = E.node_compute engine ~node:me ~coded_command in
      phase inbox ~round:r "computed";
      (* 4. broadcast the result, keep our own.  A [Lie] node ships a
         well-formed but wrong vector (coordinates nudged per its
         lie_spec, on the spec's round schedule) while keeping the
         honest gᵢ locally — intake validation passes everywhere and
         only the peers' Reed–Solomon decode catches and attributes the
         lie *)
      let broadcast_g =
        match cfg.fault with
        | Lie l when lie_active l ~round:r ->
          let off = F.of_int l.l_offset in
          (match l.l_coord with
          | None -> Array.map (fun x -> F.add x off) g
          | Some c ->
            let g' = Array.copy g in
            if c >= 0 && c < Array.length g' then g'.(c) <- F.add g'.(c) off;
            g')
        | _ -> g
      in
      let result =
        Frame.make ~kind:Frame.Result ~sender:me ~round:r
          (W.encode_vector_bin broadcast_g)
      in
      for j = 0 to n - 1 do
        if j <> me then send_protocol cfg inbox tr ~dst:j result
      done;
      Hashtbl.replace inbox.results (r, me) g;
      (* 5. collect and decode *)
      let expected_results = expected_peers cfg in
      let results_in () =
        Hashtbl.fold
          (fun (r', _) _ acc -> if r' = r then acc + 1 else acc)
          inbox.results 0
      in
      ignore
        (wait_until cfg tr inbox (fun () -> results_in () >= expected_results));
      let received =
        List.sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (Hashtbl.fold
             (fun (r', j) g acc -> if r' = r then (j, g) :: acc else acc)
             inbox.results [])
      in
      (* decode algorithm comes from RS.default_algorithm (), i.e. the
         CSM_RS_FASTPATH env var: optimistic verify-first fast path by
         default, with Gao + suspicion-guided erasures as fallback *)
      match E.decode_results engine received with
      | None ->
        phase inbox ~round:r "decode-failed";
        false
      | Some d ->
        phase inbox ~round:r "decoded";
        (* attribute decoder-corrected error locations, like the
           simulator protocol does: the suspicion gauge is both the
           erasure hint for later decodes and the live alert signal *)
        if Metric.enabled () then begin
          List.iter
            (fun j ->
              Metric.inc (Tel.decode_errors ~node:j);
              Metric.add (Tel.node_suspicion ~node:j) 1.0)
            d.E.error_nodes;
          Metric.inc ~by:cfg.params.Params.k
            (Tel.commands_committed ~node:me)
        end;
        (* 6. ship the decoded outputs + next states to the client *)
        let payload =
          W.encode_matrix_bin (Array.append d.E.outputs d.E.next_states)
        in
        send_protocol cfg inbox tr ~dst:n
          (Frame.make ~kind:Frame.Output ~sender:me ~round:r payload);
        (* 7. advance our own coded state *)
        E.node_update_state engine ~node:me ~next_states:d.E.next_states;
        true
      end
    end

  (* Binary stats payload: five big-endian u64 counters. *)
  let stats_payload (s : Transport.stats) =
    let b = Bytes.create 40 in
    List.iteri
      (fun i v -> Bytes.set_int64_be b (8 * i) (Int64.of_int v))
      [
        s.Transport.frames_sent;
        s.Transport.frames_received;
        s.Transport.bytes_sent;
        s.Transport.bytes_received;
        s.Transport.frame_errors;
      ];
    Bytes.to_string b

  let decode_stats_payload p =
    if String.length p <> 40 then None
    else begin
      let v i = Int64.to_int (String.get_int64_be p (8 * i)) in
      let ok = ref true in
      for i = 0 to 4 do
        if v i < 0 then ok := false
      done;
      if not !ok then None
      else
        Some
          {
            Transport.frames_sent = v 0;
            frames_received = v 1;
            bytes_sent = v 2;
            bytes_received = v 3;
            frame_errors = v 4;
          }
    end

  (* ---- entry point: run all rounds, then answer the shutdown ---- *)

  let run cfg (tr : Transport.t) =
    if cfg.trace then Span.enable ();
    let engine =
      E.create ~machine:cfg.machine ~params:cfg.params ~init:cfg.init
    in
    let inbox = make_inbox ~node:cfg.node () in
    let n = cfg.params.Params.n in
    let node_attr = [ ("node", string_of_int cfg.node) ] in
    for r = 0 to cfg.rounds - 1 do
      if not inbox.shutdown then begin
        let t0 = Unix.gettimeofday () in
        ignore
          (Span.with_ ~name:"node.round"
             ~attrs:(("round", string_of_int r) :: node_attr)
             (fun () -> run_round cfg tr engine inbox r));
        if Metric.enabled () then
          Metric.observe Tel.round_latency (Unix.gettimeofday () -. t0)
      end
    done;
    (* wait for the client's shutdown, reply with our counters (control
       frames are exempt from the node's fault: the driver needs them) *)
    ignore (wait_until cfg tr inbox (fun () -> inbox.shutdown));
    let snap = Transport.snapshot tr in
    tr.Transport.send ~dst:n
      (Frame.make ~kind:Frame.Stats ~sender:cfg.node ~round:cfg.rounds
         (stats_payload snap));
    (* the final snapshot rides after the Stats reply, so the counters
       above never include it: every family at its end-of-run value,
       plus the spans and this node's flight ring *)
    if cfg.telemetry || Option.is_some cfg.stream then begin
      sample_health cfg;
      send_snapshot cfg tr inbox ~round:cfg.rounds
        (Agg.capture ~flight:inbox.flight ~node:cfg.node ~scope:cfg.scope ())
    end;
    tr.Transport.close ()
end
