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
     decode                   once d(K−1)+(b−c)+1 results are in
                              from senders outside the c ≤ b this
                              node has convicted (own included) and
                              agree; when they do not, Reed–Solomon
                              decode once d(K−1)+2b+1 are in
     Output  (node → client)  decoded Ŷ rows then next-state Ŝ rows
     re-encode                S̃ᵢ(t+1) from the decoded next states

   Every inbound payload is validated at intake with the total binary
   decoders — a truncated or corrupted body counts one transport frame
   error and is dropped, so a Byzantine peer can lie (the code corrects
   lies) or babble garbage (dropped and counted) but never crash or
   wedge the node; collect loops bound their waiting with the
   [deadline] so silent peers cannot stall a round either.

   Each wait stops at the paper's quorum: b+1 matching echoes, then
   d(K−1)+b+1 results when they agree (at most b of them lie, so their
   one polynomial is the honest one), else d(K−1)+2b+1.  So a round
   runs at the pace of its fastest quorum, not of its slowest sender.
   Hearing every sender that sends and the deadline stay as caps.
   Once its Output is sent, a node still hears the rest of the round
   before it moves on, so every frame of a round is taken in (and a
   malformed one counted) before the node can answer the Shutdown;
   then it checks every Result heard against the decode and convicts
   each other sender that disagrees, for the rest of the run.  The
   faulty set is fixed with at most b members, so with c ≤ b peers
   convicted at most b−c of the rest lie: later early decodes drop the
   convicted senders' results and need d(K−1)+(b−c)+1 agreeing ones
   from the rest.  A persistent liar thus costs a node one locating
   decode per run, not one per round.

   A wait checks its condition, and only while it does not hold takes
   one frame from [Transport.recv] (over sockets it wakes on the next
   frame) and dispatches it, so a node never polls an empty endpoint.
   Intake keeps one record per live round with its commit, matching
   echo and result counts, so a wait condition costs O(1).  A round's
   record is dropped once the round is decided, and a round window
   bounds how many records a node holds — memory stays flat however
   many rounds a node runs.

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

  (* Nodes this node hears from each round, itself included: every peer
     whose fault still sends protocol frames (a [Corrupt] peer's arrive
     malformed, but they arrive, and are counted as frame errors within
     the round), and this node, whose own fault bends what it sends, not
     what it receives. *)
  let expected_peers cfg =
    let live i =
      i = cfg.node
      ||
      match List.assoc_opt i cfg.faults with
      | Some Drop -> false
      | Some _ | None -> true
    in
    List.length (List.filter live (List.init cfg.params.Params.n Fun.id))

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

  (* ---- inbox: validated protocol state, filled by [dispatch] ---- *)

  (* What a round record holds from one sender: a malformed frame still
     tells the node that it has heard from that sender this round. *)
  type 'a heard = Unheard | Malformed | Valid of 'a

  (* One live round's validated intake.  [dispatch] fills it and keeps
     the counts, so a wait condition reads them in O(1). *)
  type round_in = {
    mutable command : (string * F.t array array) option;
        (* the client's payload and its decoded commands *)
    commits : string heard array;  (* sender → Commit payload *)
    mutable n_commits : int;  (* senders heard from *)
    mutable n_matching : int;
        (* valid Commits equal to the command payload; 0 until the
           Command arrives *)
    results : F.t array heard array;  (* sender → gⱼ, own included *)
    mutable n_results : int;
    mutable untrusted : bool array;
        (* sender → its results are dropped by the early decode, set
           when the result wait starts ([trust]); nobody until then *)
    mutable n_trusted : int;  (* senders heard, [untrusted] ones aside *)
    mutable early : int;  (* the early decode's quorum, set by [trust] *)
    mutable trace_id : int64;
        (* causal trace id, adopted from the first valid extended frame
           of the round (the client's Command); 0 untraced *)
  }

  (* How far ahead of its lowest undecided round a node accepts
     protocol frames.  The client sends round r+1's Command only after
     its vote on round r, which waits for this node's Output r (or the
     deadline), so an honest peer is at most one round ahead.  The
     rest is margin for a node that fell behind on a deadline to catch
     up; beyond it a frame is a forged round.  At most [window + 1]
     round records are ever live. *)
  let window = 8

  type inbox = {
    live : (int, round_in) Hashtbl.t;  (* rounds next .. next+window *)
    mutable next : int;  (* lowest round not yet decided *)
    convicted : bool array;
        (* peers a decoded round proved wrong, for the rest of the run;
           changed only between rounds, by [hear_out] *)
    nobody : bool array;  (* all false: no sender is untrusted *)
    expected : int;  (* senders heard each round, self included *)
    quorum : int;  (* results that decode past b lies, capped by [expected] *)
    held_senders : int array;
    held_vectors : F.t array array;
        (* a round's valid results in sender order, for the engine:
           rewritten by [hold] before each use *)
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

  (* Most round records one node of this instance has held at once. *)
  let peak = Atomic.make 0

  let peak_rounds () = Atomic.get peak

  let rec note_peak held =
    let p = Atomic.get peak in
    if held > p && not (Atomic.compare_and_set peak p held) then note_peak held

  let new_round n nobody =
    {
      command = None;
      commits = Array.make n Unheard;
      n_commits = 0;
      n_matching = 0;
      results = Array.make n Unheard;
      n_results = 0;
      untrusted = nobody;
      n_trusted = 0;
      early = 0;
      trace_id = 0L;
    }

  (* The record of round [r], created on first use.  (The lookups here
     raise [Not_found] rather than return an option, so a hit allocates
     nothing.) *)
  let round_in cfg inbox r =
    match Hashtbl.find inbox.live r with
    | st -> st
    | exception Not_found ->
      let st = new_round cfg.params.Params.n inbox.nobody in
      Hashtbl.replace inbox.live r st;
      note_peak (Hashtbl.length inbox.live);
      st

  (* Note what [sender] sent: its first frame of the round counts it as
     heard, and a valid frame replaces a malformed one. *)
  let hear slots sender v =
    match (slots.(sender), v) with
    | Unheard, _ ->
      slots.(sender) <- v;
      true
    | Malformed, Valid _ ->
      slots.(sender) <- v;
      false
    | (Malformed | Valid _), _ -> false

  (* A Commit also counts as matching once the slot takes a valid
     payload equal to the round's command. *)
  let hear_commit st sender v =
    let matching =
      match (st.commits.(sender), v, st.command) with
      | (Unheard | Malformed), Valid p, Some (c, _) -> String.equal p c
      | _ -> false
    in
    if hear st.commits sender v then st.n_commits <- st.n_commits + 1;
    if matching then st.n_matching <- st.n_matching + 1

  (* The first Command of the round is kept, and the Commits that came
     before it are counted against it, once. *)
  let hear_command st payload commands =
    if Option.is_none st.command then begin
      st.command <- Some (payload, commands);
      let m = ref 0 in
      for j = 0 to Array.length st.commits - 1 do
        match st.commits.(j) with
        | Valid p when String.equal p payload -> incr m
        | Unheard | Malformed | Valid _ -> ()
      done;
      st.n_matching <- !m
    end

  let hear_result st sender v =
    if hear st.results sender v then begin
      st.n_results <- st.n_results + 1;
      if not st.untrusted.(sender) then st.n_trusted <- st.n_trusted + 1
    end

  (* Fix the senders the round's early decode drops and its quorum, and
     count the results already heard from the rest; intake keeps the
     count.  Convictions change only between rounds. *)
  let trust engine inbox st =
    let convicted = inbox.convicted in
    st.untrusted <- (if E.dropped_count engine convicted > 0 then convicted else inbox.nobody);
    st.early <- E.early_results engine ~convicted;
    st.n_trusted <- 0;
    for j = 0 to Array.length st.results - 1 do
      match st.results.(j) with
      | Unheard -> ()
      | Malformed | Valid _ -> if not st.untrusted.(j) then st.n_trusted <- st.n_trusted + 1
    done

  (* Put the round's valid results, in sender order, where the engine
     reads them; their number. *)
  let hold inbox st =
    let count = ref 0 in
    for j = 0 to Array.length st.results - 1 do
      match st.results.(j) with
      | Valid g ->
        inbox.held_senders.(!count) <- j;
        inbox.held_vectors.(!count) <- g;
        incr count
      | Unheard | Malformed -> ()
    done;
    !count

  (* The held results as (sender, gⱼ) pairs, for the full decode. *)
  let held_list inbox count =
    List.init count (fun i -> (inbox.held_senders.(i), inbox.held_vectors.(i)))

  (* Round [r] is decided: forget its record and move the window. *)
  let decided inbox r =
    Hashtbl.remove inbox.live r;
    inbox.next <- r + 1

  (* Has round [r]'s Command arrived? *)
  let commanded inbox r =
    match Hashtbl.find inbox.live r with
    | st -> Option.is_some st.command
    | exception Not_found -> false

  let trace_of inbox round =
    match Hashtbl.find inbox.live round with
    | st -> st.trace_id
    | exception Not_found -> 0L

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
    let hlc =
      match frame.Frame.ext with
      | Some e -> Clock.of_wire e.Frame.hlc
      | None -> Clock.now ()
    in
    let trace =
      match frame.Frame.ext with
      | Some e -> e.Frame.trace_id
      | None -> trace_of inbox frame.Frame.round
    in
    Flight.record_fields inbox.flight ~trace ~hlc ~round:frame.Frame.round
      ~peer_key:"dst" ~peer:dst
      ~frame:(Frame.kind_name frame.Frame.kind)
      ~note_key:"" ~note:"" "send"

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

  (* Send [frame] to every peer but this node. *)
  let send_peers cfg inbox tr frame =
    for j = 0 to cfg.params.Params.n - 1 do
      if j <> cfg.node then send_protocol cfg inbox tr ~dst:j frame
    done

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
     left unchecked, a forged stream of distinct rounds grows protocol
     state without bound.  The round window is the total decoder that
     bounds it: a protocol frame is kept only for an undecided round at
     most [window] ahead and inside the run.  A frame for a decided
     round is [Error `Decided] — a late frame of a slow peer, honest
     and harmless unless malformed — and anything else is
     [Error `Bad]. *)
  let decode_round ~next ~rounds r =
    if r >= next && r <= next + window && r < rounds then Ok r
    else if r >= 0 && r < next then Error `Decided
    else Error `Bad

  (* A received frame's flight entry, with one note pair ([note_key] ""
     for none). *)
  let record_recv inbox (fr : Frame.t) ~hlc ~trace kind note_key note =
    Flight.record_fields inbox.flight ~trace ~hlc ~round:fr.Frame.round
      ~peer_key:"src" ~peer:fr.Frame.sender
      ~frame:(Frame.kind_name fr.Frame.kind)
      ~note_key ~note kind

  let record_bad tr inbox fr ~hlc ~trace reason =
    Transport.record_error tr;
    record_recv inbox fr ~hlc ~trace "error" "reason" reason

  (* A valid frame of a live round, whose record is [st]: log it, and
     adopt its trace id.  The record comes from the validated round
     alone, so the frame's other fields never reach it. *)
  let accept inbox fr ~hlc ~trace st =
    if trace <> 0L && st.trace_id = 0L then
      (* csm-lint: allow R6 — trace ids are opaque correlation tokens: the record is the validated round's, the value fixed-width, never indexed or interpreted *)
      st.trace_id <- trace;
    record_recv inbox fr ~hlc ~trace "recv" "" ""

  (* A valid frame of a decided round is logged and dropped, touching
     no state. *)
  let dropped inbox fr ~hlc ~trace = record_recv inbox fr ~hlc ~trace "recv" "dropped" "decided"

  (* Intake-time validation: bound the round and decode the payload
     with the total decoders the moment the frame arrives, so a
     malformed frame is counted and dropped exactly once no matter when
     the round logic looks.  The payload is checked for a decided round
     too: a malformed frame is a frame error whenever it arrives. *)
  let dispatch cfg (tr : Transport.t) inbox (fr : Frame.t) =
    let n = cfg.params.Params.n in
    let k = cfg.params.Params.k in
    let sender = fr.Frame.sender in
    (* HLC receive rule: fold the sender's stamp in before anything
       else, so the local clock (and the flight entry below) is already
       causally after the send *)
    let hlc =
      match fr.Frame.ext with
      | Some e -> Clock.observe (Clock.of_wire e.Frame.hlc)
      | None -> Clock.now ()
    in
    let trace = match fr.Frame.ext with Some e -> e.Frame.trace_id | None -> 0L in
    match fr.Frame.kind with
    | Frame.Shutdown when sender = n ->
      (* a control frame: it ends the run at whatever round it names *)
      record_recv inbox fr ~hlc ~trace "recv" "" "";
      inbox.shutdown <- true
    | _ -> (
      match decode_round ~next:inbox.next ~rounds:cfg.rounds fr.Frame.round with
      | Error `Bad ->
        (* the flight entry logs the forged value, but nothing keys on it *)
        record_bad tr inbox fr ~hlc ~trace "bad-round"
      | verdict -> (
        match fr.Frame.kind with
        | Frame.Command when sender = n -> (
          match
            W.decode_commands_bin ~k ~dim:cfg.machine.M.input_dim fr.Frame.payload
          with
          | Some cs -> (
            match verdict with
            | Ok round ->
              let st = round_in cfg inbox round in
              accept inbox fr ~hlc ~trace st;
              hear_command st fr.Frame.payload cs
            | Error _ -> dropped inbox fr ~hlc ~trace)
          | None -> record_bad tr inbox fr ~hlc ~trace "bad-payload")
        | Frame.Commit when sender >= 0 && sender < n && sender <> cfg.node ->
          (* an echo is compared with the Command, never used: checked,
             not decoded *)
          if W.valid_commands_bin ~k ~dim:cfg.machine.M.input_dim fr.Frame.payload then (
            match verdict with
            | Ok round ->
              let st = round_in cfg inbox round in
              accept inbox fr ~hlc ~trace st;
              hear_commit st sender (Valid fr.Frame.payload)
            | Error _ -> dropped inbox fr ~hlc ~trace)
          else begin
            record_bad tr inbox fr ~hlc ~trace "bad-payload";
            match verdict with
            | Ok round -> hear_commit (round_in cfg inbox round) sender Malformed
            | Error _ -> ()
          end
        | Frame.Result when sender >= 0 && sender < n && sender <> cfg.node -> (
          let dim = cfg.machine.M.state_dim + cfg.machine.M.output_dim in
          match W.decode_vector_bin ~dim fr.Frame.payload with
          | Some g -> (
            match verdict with
            | Ok round ->
              let st = round_in cfg inbox round in
              accept inbox fr ~hlc ~trace st;
              hear_result st sender (Valid g)
            | Error _ -> dropped inbox fr ~hlc ~trace)
          | None -> (
            record_bad tr inbox fr ~hlc ~trace "bad-payload";
            match verdict with
            | Ok round -> hear_result (round_in cfg inbox round) sender Malformed
            | Error _ -> ()))
        | _ ->
          (* unexpected kind/sender combination: malformed at the
             protocol level, counted like any other bad frame *)
          record_bad tr inbox fr ~hlc ~trace "unexpected-kind"))

  (* What a wait waits for; each reads counts [dispatch] keeps. *)
  type goal =
    | Command_in  (* the round's Command *)
    | Committed  (* b+1 matching echoes (self included) *)
    | Commits_heard  (* [Committed], or every expected peer's Commit *)
    | Agreed  (* the early quorum, or the full one *)
    | Quorum  (* the full quorum: decodes past b lies *)
    | All_heard  (* every expected peer's Commit and Result *)
    | Shutdown_in  (* the client's Shutdown *)

  let met cfg inbox st = function
    | Command_in -> Option.is_some st.command
    | Committed -> st.n_matching + 1 >= cfg.params.Params.b + 1
    | Commits_heard ->
      st.n_matching + 1 >= cfg.params.Params.b + 1 || st.n_commits >= inbox.expected - 1
    | Agreed -> st.n_trusted >= st.early || st.n_results >= inbox.quorum
    | Quorum -> st.n_results >= inbox.quorum
    | All_heard -> st.n_commits >= inbox.expected - 1 && st.n_results >= inbox.expected
    | Shutdown_in -> inbox.shutdown

  (* Take in frames one at a time until [goal] is met for round record
     [st] or [cfg.deadline] passes, or, unless [~in_round], the client's
     Shutdown arrives.  Each lap checks the goal first and then waits
     at most 50 ms in [recv] for one frame, so a node never asks for a
     frame it does not need and never polls an empty endpoint.  A goal
     is a quorum or "every expected sender heard", and is met as soon
     as the frame that completes it is dispatched: a wait takes in no
     frame past its quorum, and the rest of the round waits in
     [hear_out].  A round under way runs to its end: the client sent
     its Command before the Shutdown, so every peer that sends will
     send its frames for it, and stopping early would leave the node's
     counters short of frames already in flight.  Every lap also gives
     the streaming emitter a chance to fire — waits are where a node
     spends its wall time, so this is what keeps snapshots flowing even
     while a round stalls on a straggler.  A lap makes no closure: the
     frame goes to [dispatch] in a direct call. *)
  let rec wait_loop cfg (tr : Transport.t) inbox st goal ~in_round limit =
    maybe_stream cfg tr inbox;
    if met cfg inbox st goal then true
    else if (inbox.shutdown && not in_round) || Unix.gettimeofday () >= limit then false
    else begin
      (match tr.Transport.recv ~timeout:0.05 with
      | Some fr -> dispatch cfg tr inbox fr
      | None -> ());
      wait_loop cfg tr inbox st goal ~in_round limit
    end

  let wait_until ?(in_round = false) cfg tr inbox st goal =
    ignore
      (wait_loop cfg tr inbox st goal ~in_round (Unix.gettimeofday () +. cfg.deadline))

  (* ---- one protocol round ---- *)

  let phase inbox ~round name =
    if Metric.enabled () then Metric.inc (Tel.node_phases ~phase:name);
    Flight.record_fields inbox.flight ~trace:(trace_of inbox round)
      ~hlc:(Clock.now ()) ~round ~peer_key:"" ~peer:(-1) ~frame:""
      ~note_key:"phase" ~note:name "phase"

  (* A [Lie] node's broadcast: a well-formed but wrong vector
     (coordinates nudged per its lie_spec, on the spec's round
     schedule), while it keeps the honest gᵢ locally — intake
     validation passes everywhere and only the peers' Reed–Solomon
     decode catches and attributes the lie. *)
  let broadcast_of cfg ~round g =
    match cfg.fault with
    | Lie l when lie_active l ~round -> (
      let off = F.of_int l.l_offset in
      match l.l_coord with
      | None -> Array.map (fun x -> F.add x off) g
      | Some c ->
        let g' = Array.copy g in
        if c >= 0 && c < Array.length g' then g'.(c) <- F.add g'.(c) off;
        g')
    | _ -> g

  (* One round up to its Output: [inbox.expected] senders send each
     round, this node included (see [expected_peers]).  Each wait stops
     at its quorum, at every expected sender heard, or at the deadline.
     The round's decode, or [None] when it has none. *)
  let run_round cfg (tr : Transport.t) engine inbox r =
    let me = cfg.node in
    let st = round_in cfg inbox r in
    (* 1. the round's commands, from the client *)
    wait_until cfg tr inbox st Command_in;
    match st.command with
    | None -> None
    | Some (cmd_payload, commands) ->
      phase inbox ~round:r "commands";
      (* 2. commit: echo the command payload to every peer, then wait
         for b+1 matching endorsements (self included) *)
      send_peers cfg inbox tr (Frame.make ~kind:Frame.Commit ~sender:me ~round:r cmd_payload);
      wait_until ~in_round:true cfg tr inbox st Commits_heard;
      if not (met cfg inbox st Committed) then None
      else begin
      phase inbox ~round:r "committed";
      (* 3. compute gᵢ over the committed commands *)
      let coded_command = E.node_encode_command engine ~node:me ~commands in
      let g = E.node_compute engine ~node:me ~coded_command in
      phase inbox ~round:r "computed";
      (* 4. broadcast the result (a liar's, per [broadcast_of]), keep
         our own *)
      send_peers cfg inbox tr
        (Frame.make ~kind:Frame.Result ~sender:me ~round:r
           (W.encode_vector_bin (broadcast_of cfg ~round:r g)));
      hear_result st me (Valid g);
      (* 5. decode on agreement: with c ≤ b peers convicted, once
         d(K−1)+(b−c)+1 results are in from the rest, own included, a
         decode on which all the valid ones agree is the honest one (at
         most b−c of them lie; c = 0 before any conviction).  Only when
         they disagree does the node wait for d(K−1)+2b+1, convicted
         senders' included, any that many of which, with at most b
         lies, decode to the one polynomial.  A malformed Result counts
         as heard: its sender cannot also lie, so m of them leave at
         most b−m lies among the valid rest.  Convictions change only
         between rounds, so the trusted count is taken once here and
         kept at intake *)
      trust engine inbox st;
      wait_until ~in_round:true cfg tr inbox st Agreed;
      let count = hold inbox st in
      let decoded =
        match
          E.verify_results engine ~convicted:inbox.convicted ~senders:inbox.held_senders
            ~vectors:inbox.held_vectors ~count
        with
        | Some _ as d -> d
        | None ->
          wait_until ~in_round:true cfg tr inbox st Quorum;
          (* the default decoder: optimistic verify-first fast path,
             with Gao as fallback; a lie is located once, on the first
             faulty coordinate, and the rest are verified on its
             agreement set *)
          E.decode_results engine (held_list inbox (hold inbox st))
      in
      match decoded with
      | None ->
        phase inbox ~round:r "decode-failed";
        None
      | Some d ->
        phase inbox ~round:r "decoded";
        if Metric.enabled () then
          Metric.inc ~by:cfg.params.Params.k (Tel.commands_committed ~node:me);
        (* 6. ship the decoded outputs + next states to the client *)
        let payload =
          W.encode_matrix_bin (Array.append d.E.outputs d.E.next_states)
        in
        send_protocol cfg inbox tr ~dst:cfg.params.Params.n
          (Frame.make ~kind:Frame.Output ~sender:me ~round:r payload);
        (* 7. advance our own coded state *)
        E.node_update_state engine ~node:me ~next_states:d.E.next_states;
        decoded
      end

  (* The rest of round [r], after [run_round] returns on any path.  A
     node that sent its Result may have stopped at a quorum, so it waits
     until every expected peer's Commit and Result is heard, or for the
     deadline: the waits' caps, met later.  A frame that came after the
     quorum is thus taken in (and counted, if malformed) before the
     round is decided, and so before the node answers the Shutdown.  A
     round that ended earlier (no Command, or no commit) already waited
     to its caps.  Under a closed-loop client this costs no latency: the
     next Command follows the slowest sender's Output, which that sender
     writes after its Commits and Results.

     With the round's frames in, a decoded round finds its liars: every
     valid Result heard is checked against the decoded coordinate
     polynomials, and each sender that disagrees counts once in
     [csm_decode_errors_total] — also one the decode never saw, since
     an early decode stops at its quorum.  Each other sender that
     disagrees is convicted for the rest of the run (its
     [csm_node_suspicion] set to 1), so the next rounds' early decodes
     drop its results. *)
  let hear_out cfg tr engine inbox r decoded =
    let st = round_in cfg inbox r in
    match st.results.(cfg.node) with
    | Unheard -> ()
    | Malformed | Valid _ -> (
      wait_until ~in_round:true cfg tr inbox st All_heard;
      match decoded with
      | Some d ->
        let count = hold inbox st in
        List.iter
          (fun j ->
            if Metric.enabled () then Metric.inc (Tel.decode_errors ~node:j);
            if j <> cfg.node && not inbox.convicted.(j) then begin
              inbox.convicted.(j) <- true;
              if Metric.enabled () then Metric.set (Tel.node_suspicion ~node:j) 1.0
            end)
          (E.liars engine d ~senders:inbox.held_senders ~vectors:inbox.held_vectors
             ~count)
      | None -> ())

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

  let make_inbox cfg engine =
    let n = cfg.params.Params.n in
    let expected = expected_peers cfg in
    {
      live = Hashtbl.create 4;
      next = 0;
      convicted = Array.make n false;
      nobody = Array.make n false;
      expected;
      quorum = min (E.min_results engine) expected;
      held_senders = Array.make n 0;
      held_vectors = Array.make n [||];
      flight = Flight.create ~node:cfg.node ();
      shutdown = false;
      st_emitted = 0;
      st_next = 0.0;
      st_sent = Hashtbl.create 32;
    }

  let run cfg (tr : Transport.t) =
    (* every exit closes the endpoint: an exception must not leak its
       fds into a process that runs cluster after cluster *)
    Fun.protect ~finally:tr.Transport.close @@ fun () ->
    if cfg.trace then Span.enable ();
    let engine =
      E.create ~machine:cfg.machine ~params:cfg.params ~init:cfg.init
    in
    let n = cfg.params.Params.n in
    let inbox = make_inbox cfg engine in
    for r = 0 to cfg.rounds - 1 do
      (* after the client's Shutdown, only the rounds whose Command came
         before it still run: the client sent those, so every peer that
         sends runs them too *)
      if (not inbox.shutdown) || commanded inbox r then begin
        let t0 = Unix.gettimeofday () in
        (* the span's attribute list is built only while spans are on *)
        let decoded =
          if Span.enabled () then
            Span.with_ ~name:"node.round"
              ~attrs:[ ("round", string_of_int r); ("node", string_of_int cfg.node) ]
              (fun () -> run_round cfg tr engine inbox r)
          else run_round cfg tr engine inbox r
        in
        if Metric.enabled () then
          Metric.observe (Tel.round_latency ()) (Unix.gettimeofday () -. t0);
        hear_out cfg tr engine inbox r decoded;
        decided inbox r
      end
    done;
    (* wait for the client's shutdown, reply with our counters (control
       frames are exempt from the node's fault: the driver needs them) *)
    (* the goal reads no round record: an empty one stands in *)
    wait_until cfg tr inbox (new_round 0 inbox.nobody) Shutdown_in;
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
    end
end
