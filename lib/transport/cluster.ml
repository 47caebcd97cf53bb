(* The multi-node cluster driver: N node runtimes plus one client,
   wired over loopback (threads in this process) or real sockets (one
   forked child process per node), same protocol bytes either way.

   The client (endpoint N) drives R rounds: broadcast the round's
   commands, collect the nodes' decoded Output frames, accept the
   payload b+1 nodes agree on (the vote — up to b Byzantine nodes may
   ship arbitrary bytes, so agreement among b+1 pins the honest value).
   The per-round accepted payloads form the cluster ledger, which
   [verify] compares byte-for-byte against a fault-free single-process
   engine run at the same seed.

   Fork safety (OCaml 5): socket mode forks the node children BEFORE
   the parent touches the domain pool or spawns any thread — the
   client endpoint, the client loop and the in-process reference run
   all happen strictly after the forks, and each child pins its pool
   to one domain and leaves with [Unix._exit]. *)

module Field_intf = Csm_field.Field_intf
module Frame = Csm_wire.Frame
module Params = Csm_core.Params
module Pool = Csm_parallel.Pool
module Clock = Csm_obs.Clock
module Flight = Csm_obs.Flight
module Agg = Csm_obs.Agg
module Live = Csm_obs.Live

type mode =
  | Loopback  (** threads in this process, in-memory frames *)
  | Uds of string  (** forked processes, Unix-domain sockets in a dir *)
  | Tcp of int  (** forked processes, TCP loopback from a base port *)

let mode_name = function
  | Loopback -> "loopback"
  | Uds _ -> "socket"
  | Tcp _ -> "tcp"

module Make (F : Field_intf.S) = struct
  module N = Node.Make (F)
  module W = N.W
  module E = N.E
  module M = N.M

  type config = {
    params : Params.t;
    rounds : int;
    seed : int;
    mode : mode;
    faults : (int * Node.fault) list;
    deadline : float;
    trace : bool;  (* v2 trace extensions + per-node spans *)
    telemetry : bool;  (* gather every node's final telemetry snapshot *)
    stream : float option;
        (* nodes stream in-flight telemetry snapshots at most this
           often; loopback threads share one registry, so there only
           node 0 streams — one emitter tracks which shared families
           changed *)
    live : Live.t option;
        (* the client-side live store the snapshots merge into — also
           fed the client's own commit ticks (the λ window) *)
  }

  type result = {
    ledger : string option array;  (* accepted Output payload per round *)
    reference : string array;  (* fault-free single-process payloads *)
    outputs_received : int array;  (* validated Output frames per round *)
    stats : Transport.stats option array;  (* n nodes then the client *)
    telemetry : Agg.snapshot list;
        (* the nodes' final snapshots (ordered by node id) then the
           client's own, when cfg.telemetry; [] otherwise *)
    run_seconds : float;
        (* client wall time from the first Command broadcast to the
           last round's vote — the whole-run λ denominator *)
    ok : bool;  (* every round accepted and equal to the reference *)
  }

  (* The round's causal trace id, derived from the seed so every frame
     of one logical round shares it across all processes. *)
  let trace_id cfg r =
    Int64.add
      (Int64.mul (Int64.of_int cfg.seed) 1_000_003L)
      (Int64.of_int (r + 1))

  (* Deterministic shared inputs: both the cluster's client and the
     reference run derive them from the seed alone. *)

  let initial_states cfg =
    Array.init cfg.params.Params.k (fun i -> [| F.of_int (1000 * (i + 1)) |])

  let machine cfg = M.degree_machine cfg.params.Params.d

  let workload rng ~k r =
    Array.init k (fun m -> [| F.of_int ((10 * r) + m + 1 + Csm_rng.int rng 5) |])

  (* The byte string a correct node ships in its round-[r] Output frame:
     the decoded outputs Ŷ then the decoded next states Ŝ. *)
  let reference_ledger cfg =
    let params = cfg.params in
    let machine = machine cfg in
    let engine =
      E.create ~machine ~params ~init:(initial_states cfg)
    in
    let rng = Csm_rng.create cfg.seed in
    Array.init cfg.rounds (fun r ->
        let commands = workload rng ~k:params.Params.k r in
        let report =
          E.round engine ~commands ~byzantine:(fun _ -> false) ()
        in
        match report.E.decoded with
        | Some d -> W.encode_matrix_bin (Array.append d.E.outputs d.E.next_states)
        | None -> assert false (* fault-free decode cannot fail *))

  (* ---- the client loop ---- *)

  let fault_of cfg i =
    match List.assoc_opt i cfg.faults with Some f -> f | None -> Node.Honest

  let node_config cfg i =
    (* loopback node threads share this process's registry: their
       snapshots describe the process, and only node 0 streams in
       flight (changed-family tracking lives in one emitter).  Forked
       nodes own their registries: Node scope, everyone streams. *)
    let scope = match cfg.mode with Loopback -> Agg.Process | _ -> Agg.Node in
    let stream =
      match cfg.mode with
      | Loopback when i <> 0 -> None
      | _ -> cfg.stream
    in
    {
      N.node = i;
      params = cfg.params;
      machine = machine cfg;
      init = initial_states cfg;
      rounds = cfg.rounds;
      fault = fault_of cfg i;
      faults = cfg.faults;
      deadline = cfg.deadline;
      trace = cfg.trace;
      telemetry = cfg.telemetry;
      stream;
      scope;
    }

  let client_run cfg (tr : Transport.t) =
    let n = cfg.params.Params.n in
    let b = cfg.params.Params.b in
    let k = cfg.params.Params.k in
    let rng = Csm_rng.create cfg.seed in
    let flight = Flight.create ~node:n () in
    let expected_outputs =
      n
      - List.length
          (List.filter
             (fun i -> not (Node.delivers (fault_of cfg i)))
             (List.init n (fun i -> i)))
    in
    (* stamp client control/protocol frames exactly like the nodes do *)
    let stamp ~trace frame =
      if not cfg.trace then frame
      else
        {
          frame with
          Frame.version = Frame.ext_version;
          ext = Some { Frame.trace_id = trace; hlc = Clock.to_wire (Clock.now ()) };
        }
    in
    let send ~trace ~dst frame =
      let frame = stamp ~trace frame in
      Flight.record flight ~trace
        ~attrs:
          [ ("dst", string_of_int dst); ("frame", Frame.kind_name frame.Frame.kind) ]
        ~hlc:
          (match frame.Frame.ext with
          | Some e -> Clock.of_wire e.Frame.hlc
          | None -> Clock.now ())
        ~round:frame.Frame.round "send";
      tr.Transport.send ~dst frame
    in
    let record_recv (fr : Frame.t) =
      let hlc =
        match fr.Frame.ext with
        | Some e -> Clock.observe (Clock.of_wire e.Frame.hlc)
        | None -> Clock.now ()
      in
      Flight.record flight
        ~trace:(match fr.Frame.ext with Some e -> e.Frame.trace_id | None -> 0L)
        ~attrs:
          [
            ("src", string_of_int fr.Frame.sender);
            ("frame", Frame.kind_name fr.Frame.kind);
          ]
        ~hlc ~round:fr.Frame.round "recv"
    in
    let ledger = Array.make cfg.rounds None in
    let outputs_received = Array.make cfg.rounds 0 in
    (* Each Telemetry frame is decoded once: the live store merges every
       snapshot (idempotently — duplicates and reordering are dropped by
       the per-source sequence numbers), and each node's final snapshot
       is kept for the end-of-run merges. *)
    let finals : (int, Agg.snapshot) Hashtbl.t = Hashtbl.create 8 in
    let on_telemetry (fr : Frame.t) =
      let snap = Agg.decode fr.Frame.payload in
      Option.iter (fun live -> ignore (Live.apply live snap)) cfg.live;
      match snap with
      | None -> Transport.record_error tr
      | Some s when s.Agg.s_final ->
        record_recv fr;
        Hashtbl.replace finals fr.Frame.sender s
      | Some _ -> ()
    in
    let started = Unix.gettimeofday () in
    Option.iter Live.mark_start cfg.live;
    for r = 0 to cfg.rounds - 1 do
      let commands = workload rng ~k r in
      let payload = W.encode_commands_bin commands in
      let cmd = Frame.make ~kind:Frame.Command ~sender:n ~round:r payload in
      for i = 0 to n - 1 do
        send ~trace:(trace_id cfg r) ~dst:i cmd
      done;
      (* collect Output frames for this round; a corrupted payload fails
         matrix validation at intake — counted and dropped *)
      let got : (int, string) Hashtbl.t = Hashtbl.create 16 in
      let limit = Unix.gettimeofday () +. cfg.deadline in
      let finished () = Hashtbl.length got >= expected_outputs in
      let rec collect () =
        if (not (finished ())) && Unix.gettimeofday () < limit then begin
          (match tr.Transport.recv ~timeout:0.05 with
          | Some fr
            when Frame.kind_eq fr.Frame.kind Frame.Output
                 && fr.Frame.round = r
                 && fr.Frame.sender >= 0
                 && fr.Frame.sender < n -> (
            match W.decode_matrix_bin fr.Frame.payload with
            | Some _ ->
              record_recv fr;
              Hashtbl.replace got fr.Frame.sender fr.Frame.payload
            | None -> Transport.record_error tr)
          | Some fr when Frame.kind_eq fr.Frame.kind Frame.Stats -> ()
            (* late stats cannot occur before shutdown; ignore *)
          | Some fr
            when Frame.kind_eq fr.Frame.kind Frame.Telemetry
                 && fr.Frame.sender >= 0
                 && fr.Frame.sender < n ->
            on_telemetry fr
          | Some _ -> Transport.record_error tr
          | None -> ());
          collect ()
        end
      in
      collect ();
      outputs_received.(r) <- Hashtbl.length got;
      (* the vote: accept the payload at least b+1 nodes shipped *)
      let tally : (string, int) Hashtbl.t = Hashtbl.create 4 in
      Hashtbl.iter
        (fun _ p ->
          Hashtbl.replace tally p
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally p)))
        got;
      Hashtbl.iter
        (fun p c ->
          if c >= b + 1 && Option.is_none ledger.(r) then ledger.(r) <- Some p)
        tally;
      (* the λ feed: the client, the only endpoint that knows what was
         accepted, ticks the live window k commands per vote — never
         derived from per-node counters, which would overcount ×n *)
      if Option.is_some ledger.(r) then Option.iter Live.note_commit cfg.live
    done;
    let run_seconds = Unix.gettimeofday () -. started in
    (* shutdown: every node answers with its transport counters, then
       (with telemetry or streaming on) its final snapshot *)
    let bye = Frame.make ~kind:Frame.Shutdown ~sender:n ~round:cfg.rounds "" in
    for i = 0 to n - 1 do
      send ~trace:0L ~dst:i bye
    done;
    let stats : Transport.stats option array = Array.make (n + 1) None in
    let nodes = List.init n Fun.id in
    let finals_due =
      List.filter
        (fun i ->
          let c = node_config cfg i in
          c.N.telemetry || Option.is_some c.N.stream)
        nodes
    in
    let limit = Unix.gettimeofday () +. cfg.deadline in
    let have_all () =
      List.for_all (fun i -> Option.is_some stats.(i)) nodes
      && List.for_all (Hashtbl.mem finals) finals_due
    in
    let rec gather () =
      if (not (have_all ())) && Unix.gettimeofday () < limit then begin
        (match tr.Transport.recv ~timeout:0.05 with
        | Some fr
          when Frame.kind_eq fr.Frame.kind Frame.Stats
               && fr.Frame.sender >= 0
               && fr.Frame.sender < n -> (
          match N.decode_stats_payload fr.Frame.payload with
          | Some s -> stats.(fr.Frame.sender) <- Some s
          | None -> Transport.record_error tr)
        | Some fr
          when Frame.kind_eq fr.Frame.kind Frame.Telemetry
               && fr.Frame.sender >= 0
               && fr.Frame.sender < n ->
          on_telemetry fr
        | Some fr
          when Frame.kind_eq fr.Frame.kind Frame.Output
               && fr.Frame.sender >= 0
               && fr.Frame.sender < n -> (
          (* an Output that missed its round's vote is dropped, but a
             malformed one still counts, as it would have in time *)
          match W.decode_matrix_bin fr.Frame.payload with
          | Some _ -> ()
          | None -> Transport.record_error tr)
        | Some _ -> ()  (* other stragglers from the last round *)
        | None -> ());
        gather ()
      end
    in
    gather ();
    let node_finals =
      if cfg.telemetry then
        List.filter_map (Hashtbl.find_opt finals) (List.init n Fun.id)
      else []
    in
    (ledger, outputs_received, stats, node_finals, flight, run_seconds)

  (* ---- loopback mode: one thread per node ---- *)

  let run_loopback cfg =
    let n = cfg.params.Params.n in
    let net = Loopback.create ~endpoints:(n + 1) in
    (* The node threads all live in this domain, and the domain pool's
       job slot is strictly one-submitter: cap the effective width at 1
       while they are alive so every engine primitive runs as a plain
       inline loop on its own thread. *)
    Pool.with_domain_limit 1 (fun () ->
        let threads =
          List.init n (fun i ->
              Thread.create
                (fun () ->
                  try N.run (node_config cfg i) (Loopback.endpoint net ~id:i)
                  with _ -> ())
                ())
        in
        let client = Loopback.endpoint net ~id:n in
        let ledger, outputs_received, node_stats, finals, flight, run_seconds =
          client_run cfg client
        in
        List.iter Thread.join threads;
        let stats = Array.copy node_stats in
        stats.(n) <- Some (Transport.snapshot client);
        client.Transport.close ();
        (ledger, outputs_received, stats, finals, flight, run_seconds))

  (* ---- socket mode: one forked process per node ---- *)

  let run_socket cfg addr =
    let n = cfg.params.Params.n in
    (* fork FIRST: the children must not inherit pool domains or
       threads, so the parent does no engine/pool/thread work yet *)
    let pids =
      List.init n (fun i ->
          match Unix.fork () with
          | 0 ->
            let code =
              try
                Pool.set_domains 1;
                let tr = Socket.endpoint ~addr ~id:i ~endpoints:(n + 1) in
                N.run (node_config cfg i) tr;
                0
              with _ -> 1
            in
            Unix._exit code
          | pid -> pid)
    in
    let client = Socket.endpoint ~addr ~id:n ~endpoints:(n + 1) in
    let ledger, outputs_received, node_stats, finals, flight, run_seconds =
      client_run cfg client
    in
    let stats = Array.copy node_stats in
    stats.(n) <- Some (Transport.snapshot client);
    client.Transport.close ();
    (* bounded reaping: children exit right after their Stats reply *)
    let reap pid =
      let limit = Unix.gettimeofday () +. cfg.deadline +. 2.0 in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
          if Unix.gettimeofday () >= limit then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid)
          end
          else begin
            Thread.delay 0.01;
            wait ()
          end
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      wait ()
    in
    List.iter reap pids;
    (ledger, outputs_received, stats, finals, flight, run_seconds)

  let run cfg =
    let n = cfg.params.Params.n in
    let ledger, outputs_received, stats, node_finals, client_flight, run_seconds
        =
      match cfg.mode with
      | Loopback -> run_loopback cfg
      | Uds dir -> run_socket cfg (Socket.Uds dir)
      | Tcp base -> run_socket cfg (Socket.Tcp base)
    in
    (* the client's own final snapshot goes through the same wire codec
       as the nodes', so every entry in [telemetry] has one provenance *)
    let telemetry =
      if not cfg.telemetry then []
      else
        node_finals
        @ Option.to_list
            (Agg.decode
               (Agg.encode
                  (Agg.capture ~flight:client_flight ~node:n ~scope:Agg.Process
                     ())))
    in
    (* the reference run spins up the pool — strictly after any forks *)
    let reference = reference_ledger cfg in
    let ok = ref true in
    Array.iteri
      (fun r entry ->
        match entry with
        | Some p when p = reference.(r) -> ()
        | _ -> ok := false)
      ledger;
    { ledger; reference; outputs_received; stats; telemetry; run_seconds;
      ok = !ok }
end
