(* Real socket transport: one listening socket per endpoint (Unix
   domain by default, TCP loopback optionally), length-prefixed frames
   on byte streams.

   Receive path: an accept thread hands each inbound connection to a
   reader thread that loops { read 16 header bytes; validate via
   [Frame.decode_header]; read the claimed body } and pushes decoded
   frames into the endpoint's mailbox.  A malformed header is
   unrecoverable on a byte stream (framing is lost), so it counts one
   frame error and drops the connection — the sender can reconnect; the
   receiver never crashes.

   Send path: per-peer queues drained by per-peer sender threads, so
   [send] returns immediately and a dead or silent peer cannot stall a
   protocol round.  Connections are opened lazily with retry and
   exponential backoff (peers of a freshly forked cluster come up in
   arbitrary order); a frame that cannot be written after a reconnect
   is dropped.

   Deadlines: [recv ~timeout] bounds how long a round waits on the
   mailbox, the receiver-side defence against withholding peers. *)

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

let poll_interval = 0.0005

(* Backoff schedule for connect retries: 2ms doubling, capped. *)
let backoff_delay attempt = min 0.1 (0.002 *. (2. ** float_of_int attempt))

let rec really_read fd buf pos len =
  if len > 0 then begin
    let n = Unix.read fd buf pos len in
    if n = 0 then raise End_of_file;
    really_read fd buf (pos + n) (len - n)
  end

let rec really_write fd buf pos len =
  if len > 0 then begin
    let n = Unix.write fd buf pos len in
    really_write fd buf (pos + n) (len - n)
  end

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
  let closed = ref false in
  let incoming : Frame.t Queue.t = Queue.create () in
  let im = Lockdep.create "socket.incoming" in
  let conns : Unix.file_descr list ref = ref [] in
  let cm = Lockdep.create "socket.conns" in
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
  (* --- readers --- *)
  let reader conn =
    let hdr = Bytes.create Frame.header_bytes in
    (try
       while not !closed do
         really_read conn hdr 0 Frame.header_bytes;
         match Frame.decode_header (Bytes.to_string hdr) with
         | None ->
           (* framing lost: count and drop the connection *)
           Transport.record_error t;
           raise Exit
         | Some h ->
           let body_len = Frame.body_bytes h in
           let body = Bytes.create body_len in
           really_read conn body 0 body_len;
           Transport.record_received t (Frame.header_bytes + body_len);
           (match Frame.of_header h ~body:(Bytes.unsafe_to_string body) with
           | Some fr -> Lockdep.with_lock im (fun () -> Queue.push fr incoming)
           | None -> Transport.record_error t)
       done
     with
    | End_of_file | Exit | Unix.Unix_error _ -> ()
    | _ -> ());
    Lockdep.with_lock cm (fun () ->
        conns := List.filter (fun fd -> fd != conn) !conns);
    try Unix.close conn with Unix.Unix_error _ -> ()
  in
  (* Only the thread blocked on an fd closes it; [close] shuts fds down
     to wake it.  Closing under it would let the next socket this
     process opens reuse the fd number it is about to accept/read on. *)
  let _accept_thread =
    Thread.create
      (fun () ->
        (try
           while not !closed do
             let conn, _ = Unix.accept listener in
             Lockdep.with_lock cm (fun () -> conns := conn :: !conns);
             ignore (Thread.create reader conn)
           done
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        try Unix.close listener with Unix.Unix_error _ -> ())
      ()
  in
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
  let recv ~timeout =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec loop () =
      if !closed then None
      else begin
        let item =
          Lockdep.with_lock im (fun () ->
              if Queue.is_empty incoming then None
              else Some (Queue.pop incoming))
        in
        match item with
        | Some fr -> Some fr
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
      shutdown listener;
      Array.iter
        (fun p ->
          match p.fd with
          | Some fd -> (
            p.fd <- None;
            try Unix.close fd with Unix.Unix_error _ -> ())
          | None -> ())
        peers;
      let cs =
        Lockdep.with_lock cm (fun () ->
            let cs = !conns in
            conns := [];
            cs)
      in
      List.iter shutdown cs;
      match addr with
      | Uds dir -> (
        try Unix.unlink (Filename.concat dir (Printf.sprintf "ep-%d.sock" id))
        with Unix.Unix_error _ -> ())
      | Tcp _ -> ()
    end
  in
  { t with Transport.send; recv; close }
