(* Real socket transport: one listening socket per endpoint (Unix
   domain by default, TCP loopback optionally), length-prefixed frames
   on byte streams.

   Receive path: one receiver thread waits in [select] on the listener
   and every inbound connection, all non-blocking.  It accepts new
   connections and reads whatever each ready one has delivered into
   that connection's own frame in progress { 16 header bytes, validated
   via [Frame.decode_header]; then the claimed body }, so a peer that
   stops mid-frame holds up nobody else.  Each complete frame goes into
   the endpoint's {!Mailbox}, waking a [recv] blocked on it.  A
   malformed header is unrecoverable on a byte stream (framing is
   lost), so it counts one frame error and drops the connection — the
   sender can reconnect; the receiver never crashes.

   Send path: per-peer queues drained by per-peer sender threads, so
   [send] returns immediately and a dead or silent peer cannot stall a
   protocol round.  Connections are opened lazily with retry and
   exponential backoff (peers of a freshly forked cluster come up in
   arbitrary order); a frame that cannot be written after a reconnect
   is dropped.  A write to a peer that has died fails with EPIPE rather
   than killing this process: creating an endpoint ignores SIGPIPE, so
   one crashed node costs the cluster that node only.

   Deadlines: [recv ~timeout] blocks until a frame is delivered, the
   endpoint closes or the deadline passes — the deadline is the
   receiver-side defence against withholding peers. *)

module Frame = Csm_wire.Frame
module Lockdep = Csm_parallel.Lockdep

type addr =
  | Uds of string  (* directory holding ep-<id>.sock *)
  | Tcp of int  (* base port; endpoint i listens on base + i *)

let sockaddr_of addr id =
  match addr with
  | Uds dir ->
    Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "ep-%d.sock" id))
  | Tcp base -> Unix.ADDR_INET (Unix.inet_addr_loopback, base + id)

(* Backoff schedule for connect retries: 2ms doubling, capped. *)
let backoff_delay attempt = min 0.1 (0.002 *. (2. ** float_of_int attempt))

let rec really_write fd buf pos len =
  if len > 0 then begin
    let n = Unix.write fd buf pos len in
    really_write fd buf (pos + n) (len - n)
  end

(* An inbound connection and its frame in progress: [got] bytes of the
   header, then of the body once the header has validated. *)
type inbound = {
  conn : Unix.file_descr;
  hdr : Bytes.t;
  mutable body : (Frame.header * Bytes.t) option;
  mutable got : int;
}

type peer = {
  pq : string Queue.t;
  pm : Lockdep.t;
  pc : Condition.t;
  mutable fd : Unix.file_descr option;
  mutable started : bool;
  mutable writing : bool;  (* a popped frame is mid-write; [close] waits *)
}

let endpoint ~addr ~id ~endpoints =
  if id < 0 || id >= endpoints then invalid_arg "Socket.endpoint: bad id";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let closed = ref false in
  let incoming : Frame.t Mailbox.t = Mailbox.create "socket.incoming" in
  (* --- listener --- *)
  let domain =
    match addr with Uds _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  let listener = Unix.socket domain Unix.SOCK_STREAM 0 in
  let sa = sockaddr_of addr id in
  (match addr with
  | Uds dir ->
    (try Unix.unlink (Filename.concat dir (Printf.sprintf "ep-%d.sock" id))
     with Unix.Unix_error _ -> ())
  | Tcp _ -> Unix.setsockopt listener Unix.SO_REUSEADDR true);
  Unix.bind listener sa;
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let t =
    {
      Transport.id;
      endpoints;
      send = (fun ~dst:_ _ -> ());
      recv = (fun ~timeout:_ -> None);
      close = (fun () -> ());
      stats = Transport.zero_stats ();
      stats_mutex = Lockdep.create "socket.stats";
    }
  in
  (* --- receiver --- *)
  (* Read what [c] has delivered, completing as many frames as it holds;
     [false] once the connection is done: end of stream, an error, or a
     malformed header. *)
  let rec read_frames c =
    let part, len =
      match c.body with
      | None -> (c.hdr, Frame.header_bytes)
      | Some (_, body) -> (body, Bytes.length body)
    in
    if c.got < len then
      match Unix.read c.conn part c.got (len - c.got) with
      | 0 -> false
      | k ->
        c.got <- c.got + k;
        read_frames c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        true
      | exception Unix.Unix_error _ -> false
    else begin
      c.got <- 0;
      match c.body with
      | None -> (
        match Frame.decode_header (Bytes.to_string c.hdr) with
        | None ->
          (* framing lost: count and drop the connection *)
          Transport.record_error t;
          false
        | Some h ->
          let body_len = Frame.body_bytes h in
          let body = Bytes.create body_len in
          c.body <- Some (h, body);
          read_frames c)
      | Some (h, body) ->
        c.body <- None;
        Transport.record_received t (Frame.header_bytes + Bytes.length body);
        (match Frame.of_header h ~body:(Bytes.unsafe_to_string body) with
        | Some fr -> Mailbox.push incoming fr
        | None -> Transport.record_error t);
        read_frames c
    end
  in
  (* The receiver owns the listener and every inbound connection, and
     only it closes them: [close] shuts the listener down, which wakes
     its [select].  Closing under it would let the next socket this
     process opens reuse an fd number it is about to read. *)
  let receiver () =
    let inbound = ref [] in
    let drop c =
      inbound := List.filter (fun c' -> c' != c) !inbound;
      try Unix.close c.conn with Unix.Unix_error _ -> ()
    in
    let accept () =
      match Unix.accept ~cloexec:true listener with
      | conn, _ ->
        Unix.set_nonblock conn;
        inbound :=
          { conn; hdr = Bytes.create Frame.header_bytes; body = None; got = 0 }
          :: !inbound
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
        ->
        ()
    in
    (try
       while not !closed do
         match
           Unix.select (listener :: List.map (fun c -> c.conn) !inbound) [] [] (-1.0)
         with
         | ready, _, _ ->
           if not !closed then begin
             if List.memq listener ready then accept ();
             List.iter
               (fun c -> if List.memq c.conn ready && not (read_frames c) then drop c)
               !inbound
           end
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       done
     with Unix.Unix_error _ -> ());
    List.iter (fun c -> try Unix.close c.conn with Unix.Unix_error _ -> ()) !inbound;
    try Unix.close listener with Unix.Unix_error _ -> ()
  in
  let _receiver_thread = Thread.create receiver () in
  (* --- senders --- *)
  let peers =
    Array.init endpoints (fun _ ->
        {
          pq = Queue.create ();
          pm = Lockdep.create "socket.peer";
          pc = Condition.create ();
          fd = None;
          started = false;
          writing = false;
        })
  in
  let connect_with_backoff dst =
    let rec go attempt =
      if !closed then None
      else begin
        let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
        match Unix.connect fd (sockaddr_of addr dst) with
        | () -> Some fd
        | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Thread.delay (backoff_delay attempt);
          go (attempt + 1)
      end
    in
    go 0
  in
  let sender_loop dst =
    let peer = peers.(dst) in
    let ensure_fd () =
      match peer.fd with
      | Some fd -> Some fd
      | None ->
        let fd = connect_with_backoff dst in
        peer.fd <- fd;
        fd
    in
    let write_frame bytes =
      let attempt fd =
        try
          really_write fd (Bytes.unsafe_of_string bytes) 0 (String.length bytes);
          true
        with Unix.Unix_error _ | End_of_file ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          peer.fd <- None;
          false
      in
      match ensure_fd () with
      | None -> ()  (* endpoint closed while retrying: drop *)
      | Some fd ->
        if not (attempt fd) then (
          (* one reconnect, then give up on this frame *)
          match ensure_fd () with
          | Some fd2 -> ignore (attempt fd2)
          | None -> ())
    in
    let rec loop () =
      let item =
        Lockdep.with_lock peer.pm (fun () ->
            while Queue.is_empty peer.pq && not !closed do
              Lockdep.wait peer.pc peer.pm
            done;
            let item = Queue.take_opt peer.pq in
            peer.writing <- Option.is_some item;
            item)
      in
      match item with
      | Some bytes ->
        write_frame bytes;
        Lockdep.with_lock peer.pm (fun () -> peer.writing <- false);
        loop ()
      | None -> ()  (* closed and drained *)
    in
    loop ()
  in
  let send ~dst frame =
    if (not !closed) && dst >= 0 && dst < endpoints then begin
      let bytes = Frame.encode frame in
      Transport.record_sent t (String.length bytes);
      let peer = peers.(dst) in
      Lockdep.with_lock peer.pm (fun () ->
          if not peer.started then begin
            peer.started <- true;
            ignore (Thread.create sender_loop dst)
          end;
          Queue.push bytes peer.pq;
          Condition.signal peer.pc)
    end
  in
  let recv ~timeout = Mailbox.pop incoming ~timeout in
  let close () =
    if not !closed then begin
      (* let sender threads flush their queues, including a frame already
         popped but still being written (bounded) *)
      let flush_deadline = Unix.gettimeofday () +. 1.0 in
      let pending () =
        Array.exists
          (fun p ->
            Lockdep.with_lock p.pm (fun () ->
                p.writing || not (Queue.is_empty p.pq)))
          peers
      in
      while pending () && Unix.gettimeofday () < flush_deadline do
        Thread.delay 0.002
      done;
      closed := true;
      Array.iter
        (fun p ->
          Lockdep.with_lock p.pm (fun () -> Condition.broadcast p.pc))
        peers;
      let shutdown fd =
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
      in
      (* wakes the receiver, which closes the listener and connections *)
      shutdown listener;
      Array.iter
        (fun p ->
          match p.fd with
          | Some fd -> (
            p.fd <- None;
            try Unix.close fd with Unix.Unix_error _ -> ())
          | None -> ())
        peers;
      Mailbox.close incoming;
      match addr with
      | Uds dir -> (
        try Unix.unlink (Filename.concat dir (Printf.sprintf "ep-%d.sock" id))
        with Unix.Unix_error _ -> ())
      | Tcp _ -> ()
    end
  in
  { t with Transport.send; recv; close }
