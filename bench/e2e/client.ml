(* The benchmark's own voting client, and the code that runs its clusters.

   It runs the real node runtime, [Node.Make(F).run], over loopback
   threads or forked Unix-domain-socket processes, exactly as
   [Cluster.run] does, but owns the client loop so that it can time
   every round.  Inputs, initial states and the machine come from
   [Cluster.Make(F)], so the ledger it votes equals [Cluster.run]'s and
   [Cluster.reference_ledger]'s at the same seed.

   Load model: one client thread keeps one round outstanding (closed
   loop).  Round r+1's commands go out only after round r's vote,
   which, as in [Cluster], is taken once every node expected to deliver
   has answered or the deadline passed.  Nothing delays frames on
   purpose. *)

module F = Csm_field.Fp.Default
module Frame = Csm_wire.Frame
module Params = Csm_core.Params
module Node = Csm_transport.Node
module Cluster = Csm_transport.Cluster
module Transport = Csm_transport.Transport
module Loopback = Csm_transport.Loopback
module Socket = Csm_transport.Socket
module Pool = Csm_parallel.Pool
module Agg = Csm_obs.Agg
module C = Cluster.Make (F)
module N = C.N
module W = C.W

type run = {
  started : float;  (* before any endpoint, fork or thread exists *)
  sent_at : float array;  (* per round: just before the Command broadcast *)
  voted_at : float array;  (* per round: when the vote was taken *)
  ledger : string option array;
  stats : Transport.stats option array;  (* the n nodes, then the client *)
  node_rss_kb : int;
      (* socket mode: the node processes' summed VmRSS just before
         Shutdown; 0 in loopback mode *)
  taps : Tap.t array option;  (* the n nodes, then the client *)
}

(* Rounds the client drove: all of them unless one went unaccepted. *)
let rounds_run r =
  let rec go i =
    if i < Array.length r.ledger && Option.is_some r.ledger.(i) then go (i + 1)
    else i
  in
  go 0

let setup_s r = r.voted_at.(0) -. r.started
let latency r i = r.voted_at.(i) -. r.sent_at.(i)

(* The value of a "<Field>: <value>" line of /proc/<pid>/status. *)
let proc_field ~pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ f; v ] when String.equal f field -> Some (String.trim v)
        | _ -> None)
      (String.split_on_char '\n' text)

(* A "<Field>: <n> kB" line of /proc/<pid>/status, in kB. *)
let proc_kb ~pid field =
  Option.bind (proc_field ~pid field) (fun v ->
      match String.split_on_char ' ' v with kb :: _ -> int_of_string_opt kb | [] -> None)

(* The CPUs this process may run on, from a list such as "0-1,4". *)
let cpus_allowed () =
  match proc_field ~pid:"self" "Cpus_allowed_list" with
  | None -> []
  | Some s ->
    List.concat_map
      (fun r ->
        match List.map int_of_string_opt (String.split_on_char '-' r) with
        | [ Some a ] -> [ a ]
        | [ Some a; Some b ] when a <= b -> List.init (b - a + 1) (fun i -> a + i)
        | _ -> [])
      (String.split_on_char ',' s)

let fault_of (cfg : C.config) i =
  Option.value ~default:Node.Honest (List.assoc_opt i cfg.C.faults)

let node_config (cfg : C.config) i =
  {
    N.node = i;
    params = cfg.C.params;
    machine = C.machine cfg;
    init = C.initial_states cfg;
    rounds = cfg.C.rounds;
    fault = fault_of cfg i;
    faults = cfg.C.faults;
    deadline = cfg.C.deadline;
    trace = false;
    telemetry = false;
    stream = None;
    scope = (match cfg.C.mode with Cluster.Loopback -> Agg.Process | _ -> Agg.Node);
  }

(* How long the client waits for Stats replies after Shutdown, and then
   for forked nodes to exit before it kills them.  Not the protocol
   deadline: a socket node can lose its Stats reply when
   [Socket.close] closes a connection under a sender thread that has
   already dequeued the frame (about one cluster in 150 on a 2-core
   host), and nothing measured depends on the reply. *)
let shutdown_grace = 2.0

(* The client loop over its endpoint.  [before_shutdown] runs after the
   last vote, while every node is still alive. *)
let client_loop (cfg : C.config) (tr : Transport.t) ~before_shutdown =
  let p = cfg.C.params in
  let n = p.Params.n and b = p.Params.b and k = p.Params.k in
  let rounds = cfg.C.rounds in
  let expected =
    List.length
      (List.filter
         (fun i -> Node.delivers (fault_of cfg i))
         (List.init n Fun.id))
  in
  let rng = Csm_rng.create cfg.C.seed in
  let sent_at = Array.make rounds 0.0 and voted_at = Array.make rounds 0.0 in
  let ledger = Array.make rounds None in
  let rec round r =
    if r < rounds then begin
      let commands = C.workload rng ~k r in
      let cmd =
        Frame.make ~kind:Frame.Command ~sender:n ~round:r
          (W.encode_commands_bin commands)
      in
      sent_at.(r) <- Mono.now ();
      for i = 0 to n - 1 do
        tr.Transport.send ~dst:i cmd
      done;
      let got : (int, string) Hashtbl.t = Hashtbl.create 16 in
      let limit = Mono.now () +. cfg.C.deadline in
      while Hashtbl.length got < expected && Mono.now () < limit do
        match tr.Transport.recv ~timeout:0.05 with
        | Some fr
          when Frame.kind_eq fr.Frame.kind Frame.Output
               && fr.Frame.round = r && fr.Frame.sender >= 0
               && fr.Frame.sender < n -> (
          match W.decode_matrix_bin fr.Frame.payload with
          | Some _ -> Hashtbl.replace got fr.Frame.sender fr.Frame.payload
          | None -> Transport.record_error tr)
        | Some _ -> Transport.record_error tr
        | None -> ()
      done;
      let tally : (string, int) Hashtbl.t = Hashtbl.create 4 in
      Hashtbl.iter
        (fun _ pl ->
          Hashtbl.replace tally pl
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally pl)))
        got;
      Hashtbl.iter
        (fun pl c ->
          if c >= b + 1 && Option.is_none ledger.(r) then ledger.(r) <- Some pl)
        tally;
      voted_at.(r) <- Mono.now ();
      (* an unaccepted round ends the run: later ones would only wait
         out their deadlines *)
      if Option.is_some ledger.(r) then round (r + 1)
    end
  in
  round 0;
  let node_rss_kb = before_shutdown () in
  let bye = Frame.make ~kind:Frame.Shutdown ~sender:n ~round:rounds "" in
  for i = 0 to n - 1 do
    tr.Transport.send ~dst:i bye
  done;
  let stats = Array.make (n + 1) None in
  let limit = Mono.now () +. shutdown_grace in
  while
    Array.exists Option.is_none (Array.sub stats 0 n) && Mono.now () < limit
  do
    match tr.Transport.recv ~timeout:0.05 with
    | Some fr
      when Frame.kind_eq fr.Frame.kind Frame.Stats
           && fr.Frame.sender >= 0 && fr.Frame.sender < n ->
      stats.(fr.Frame.sender) <- N.decode_stats_payload fr.Frame.payload
    | Some _ | None -> ()
  done;
  (sent_at, voted_at, ledger, stats, node_rss_kb)

let tap_path dir i = Filename.concat dir (Printf.sprintf "tap-%d.bin" i)

(* One cluster of [cfg.rounds] rounds.  [cfg.mode] is [Loopback] or
   [Uds dir]; with [~tap] every endpoint's transport is wrapped. *)
let run ?(tap = false) (cfg : C.config) =
  let n = cfg.C.params.Params.n in
  let taps =
    if tap then Some (Array.init (n + 1) (fun _ -> Tap.create ~rounds:cfg.C.rounds))
    else None
  in
  let wrap i tr = match taps with Some ts -> Tap.wrap ts.(i) tr | None -> tr in
  let started = Mono.now () in
  let finish (sent_at, voted_at, ledger, stats, node_rss_kb) client =
    let stats = Array.copy stats in
    stats.(n) <- Some (Transport.snapshot client);
    client.Transport.close ();
    { started; sent_at; voted_at; ledger; stats; node_rss_kb; taps }
  in
  match cfg.C.mode with
  | Cluster.Loopback ->
    let net = Loopback.create ~endpoints:(n + 1) in
    Pool.with_domain_limit 1 (fun () ->
        let threads =
          List.init n (fun i ->
              Thread.create
                (fun () ->
                  try N.run (node_config cfg i) (wrap i (Loopback.endpoint net ~id:i))
                  with _ -> ())
                ())
        in
        let client = Loopback.endpoint net ~id:n in
        let out =
          client_loop cfg (wrap n client) ~before_shutdown:(fun () -> 0)
        in
        List.iter Thread.join threads;
        finish out client)
  | Cluster.Uds dir ->
    let addr = Socket.Uds dir in
    (* fork before this process starts any thread of this cluster; each
       child pins its pool to one domain and leaves with _exit *)
    flush_all ();
    let pids =
      List.init n (fun i ->
          match Unix.fork () with
          | 0 ->
            let code =
              try
                Pool.set_domains 1;
                let g0 = Gc.quick_stat () in
                let tr = Socket.endpoint ~addr ~id:i ~endpoints:(n + 1) in
                N.run (node_config cfg i) (wrap i tr);
                Option.iter
                  (fun ts ->
                    let g1 = Gc.quick_stat () in
                    let t = ts.(i) in
                    t.Tap.gc_minor_words <- g1.Gc.minor_words -. g0.Gc.minor_words;
                    t.Tap.gc_major <- g1.Gc.major_collections - g0.Gc.major_collections;
                    t.Tap.gc_heap_words <- g1.Gc.heap_words;
                    Tap.save t (tap_path dir i))
                  taps;
                0
              with _ -> 1
            in
            Unix._exit code
          | pid -> pid)
    in
    let client = Socket.endpoint ~addr ~id:n ~endpoints:(n + 1) in
    let node_rss () =
      List.fold_left
        (fun acc pid ->
          acc + Option.value ~default:0 (proc_kb ~pid:(string_of_int pid) "VmRSS"))
        0 pids
    in
    let result =
      finish (client_loop cfg (wrap n client) ~before_shutdown:node_rss) client
    in
    (* bounded reaping: children exit right after their Stats reply *)
    let reap pid =
      let limit = Mono.now () +. shutdown_grace in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Mono.now () < limit ->
          Thread.delay 0.005;
          wait ()
        | 0, _ ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      wait ()
    in
    List.iter reap pids;
    let load i t =
      if i = n then t
      else begin
        let path = tap_path dir i in
        let loaded = Tap.load path in
        (try Sys.remove path with Sys_error _ -> ());
        match loaded with
        | Some t -> t
        | None -> failwith (Printf.sprintf "node %d left no tap file" i)
      end
    in
    { result with taps = Option.map (Array.mapi load) taps }
  | Cluster.Tcp _ -> invalid_arg "Client.run: TCP mode is not benchmarked"
