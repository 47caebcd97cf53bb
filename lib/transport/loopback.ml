(* In-process loopback transport: per-endpoint mailboxes of *encoded*
   frames.  Bit-compatible with the socket path — every frame goes
   through [Frame.encode] on send and [Frame.decode] on receive, so
   byte counts, size limits and corruption detection behave exactly as
   over a real socket — while delivery is immediate and in send order,
   which keeps single-process cluster tests deterministic and fast.

   Endpoints may live on different threads of one process (the cluster
   driver runs one node per thread); mailboxes are mutex-guarded and
   [recv] polls with a short sleep, which is plenty for protocol-scale
   message rates.  Unlike {!Socket}, it does not wake on arrival, on
   purpose: a loopback cluster's threads share one OCaml domain, so
   with waking receivers a round would be nothing but that process's
   CPU time, and its round time would follow the host's CPU speed from
   one run to the next.  The sleeps keep loopback timings steady.

   Counting: received frames/bytes are recorded at delivery into the
   destination mailbox (send time), mirroring the socket transport's
   count at intake — so both transports report identical counts for
   the same protocol run. *)

module Frame = Csm_wire.Frame

type slot = {
  q : string Queue.t;
  m : Mutex.t;
  stats : Transport.stats;
  sm : Mutex.t;
}

type net = { slots : slot array }

let create ~endpoints =
  if endpoints < 1 then invalid_arg "Loopback.create: endpoints >= 1";
  {
    slots =
      Array.init endpoints (fun _ ->
          {
            q = Queue.create ();
            m = Mutex.create ();
            stats = Transport.zero_stats ();
            sm = Mutex.create ();
          });
  }

let poll_interval = 0.0005

let endpoint net ~id =
  let endpoints = Array.length net.slots in
  if id < 0 || id >= endpoints then invalid_arg "Loopback.endpoint: bad id";
  let me = net.slots.(id) in
  let closed = ref false in
  let t =
    {
      Transport.id;
      endpoints;
      send = (fun ~dst:_ _ -> ());  (* replaced below *)
      recv = (fun ~timeout:_ -> None);
      close = (fun () -> closed := true);
      stats = me.stats;
      stats_mutex = me.sm;
    }
  in
  let send ~dst frame =
    if (not !closed) && dst >= 0 && dst < endpoints then begin
      let bytes = Frame.encode frame in
      let len = String.length bytes in
      Transport.record_sent t len;
      let peer = net.slots.(dst) in
      Mutex.protect peer.sm (fun () ->
          peer.stats.frames_received <- peer.stats.frames_received + 1;
          peer.stats.bytes_received <- peer.stats.bytes_received + len);
      Mutex.protect peer.m (fun () -> Queue.push bytes peer.q)
    end
  in
  let recv ~timeout =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec loop () =
      if !closed then None
      else begin
        let item =
          Mutex.protect me.m (fun () ->
              if Queue.is_empty me.q then None else Some (Queue.pop me.q))
        in
        match item with
        | Some bytes -> (
          match Frame.decode bytes with
          | Some fr -> Some fr
          | None ->
            Transport.record_error t;
            loop ())
        | None ->
          if Unix.gettimeofday () >= deadline then None
          else begin
            Thread.delay poll_interval;
            loop ()
          end
      end
    in
    loop ()
  in
  { t with Transport.send; recv }
