(* Real socket transport: one listening socket per endpoint (Unix
   domain by default, TCP loopback optionally), length-prefixed frames
   on byte streams, every fd non-blocking.  An endpoint runs no thread:
   only the thread calling its [send], [recv] and [close] touches it,
   and bytes move only inside those calls.

   Send path: [send] appends the encoded frame to that peer's outbox
   and writes what the kernel takes now, so a dead or silent peer
   cannot stall a round; the rest waits for a later call.  A peer
   without a connection is connected on [send], and a failed connect is
   retried from [recv] with exponential backoff (peers of a freshly
   forked cluster come up in arbitrary order).  After a write error the
   head frame is rewritten whole on one new connection, then dropped.
   Creating an endpoint ignores SIGPIPE, so a write to a dead peer
   fails with EPIPE instead of killing the process.

   Receive path: [recv] returns a decoded frame if one is ready, else
   waits in one [select] on the listener, the inbound connections and
   the outboxes with bytes left (which also completes a TCP connect)
   until a frame is complete or its deadline — the receiver-side
   defence against withholding peers — passes.  Each inbound connection
   owns one byte buffer: a connection the [select] finds readable gets
   one [read], and every whole frame in the buffer is decoded and
   counted, its header validated by [Frame.decode_header] before
   anything it claims is allocated.  What one read leaves in the
   kernel, the next [select] finds again (it is level-triggered).  The
   partial tail moves to the front of the buffer, so a peer that stops
   mid-frame holds up nobody else.  A frame larger than the default
   buffer grows it to the frame's size, and the connection returns to
   a default buffer once that frame is parsed.  A malformed header
   loses framing, so it counts one frame error and drops the
   connection.

   [close] stops receiving at once.  Frames still queued (to a peer not
   yet up, or more than the kernel takes) go to a lingering writer
   thread that keeps connecting and writing for 1 s ({!linger}). *)

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

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* An inbound connection's default buffer size: room for a burst of
   protocol frames, and small enough that accepting a connection puts
   little on the major heap (64 KiB buffers made a forked node's
   setup slower). *)
let default_buf = 4096

(* An inbound connection: the first [len] bytes of [buf] are read but
   not yet parsed, the start of a frame whose rest has not arrived. *)
type inbound = {
  conn : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
}

(* One peer's outbound side: encoded frames, head first, of which the
   head's first [off] bytes are written. *)
type peer = {
  sa : Unix.sockaddr;
  out : string Queue.t;
  mutable off : int;
  mutable fd : Unix.file_descr option;
  mutable up : bool;  (* a byte has gone through on [fd] *)
  mutable failed : bool;  (* the head frame's write failed once *)
  mutable attempt : int;  (* failed connects in a row *)
  mutable retry_at : float;  (* when [recv] may connect again *)
}

let has_bytes p = not (Queue.is_empty p.out)

let release p =
  Option.iter close_quietly p.fd;
  p.fd <- None;
  p.off <- 0;
  p.up <- false

(* Connect retries back off from 2 ms, doubling up to 100 ms. *)
let backoff p =
  let delay = min 0.1 (0.002 *. (2. ** float_of_int p.attempt)) in
  p.retry_at <- Unix.gettimeofday () +. delay;
  p.attempt <- p.attempt + 1

let connect p =
  match Unix.socket (Unix.domain_of_sockaddr p.sa) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> backoff p
  | fd -> (
    Unix.set_nonblock fd;
    match Unix.connect fd p.sa with
    | () | (exception Unix.Unix_error (Unix.EINPROGRESS, _, _)) -> p.fd <- Some fd
    | exception Unix.Unix_error _ ->
      close_quietly fd;
      backoff p)

(* Write what the kernel takes of [p]'s outbox, connecting first if
   [p] has no connection.  A write error before any byte went through
   is a failed (TCP) connect. *)
let rec push p =
  if Option.is_none p.fd && has_bytes p then connect p;
  match (p.fd, Queue.peek_opt p.out) with
  | Some fd, Some s -> (
    match Unix.single_write_substring fd s p.off (String.length s - p.off) with
    | k ->
      p.up <- true;
      p.attempt <- 0;
      p.off <- p.off + k;
      if p.off = String.length s then begin
        ignore (Queue.pop p.out);
        p.off <- 0;
        p.failed <- false
      end;
      push p
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ ->
      let was_up = p.up in
      release p;
      if not was_up then backoff p
      else begin
        if p.failed then begin
          ignore (Queue.pop p.out);
          p.failed <- false
        end
        else p.failed <- true;
        push p
      end)
  | _ -> ()

(* Connect the peers whose retry is due; then the connections with
   bytes to write, and [wait] cut short by the next retry still due. *)
let outbound peers wait =
  let now = Unix.gettimeofday () in
  Array.fold_left
    (fun (writes, wait) p ->
      if has_bytes p && Option.is_none p.fd && p.retry_at <= now then push p;
      match p.fd with
      | Some fd when has_bytes p -> (fd :: writes, wait)
      | None when has_bytes p -> (writes, Float.min wait (p.retry_at -. now))
      | _ -> (writes, wait))
    ([], wait) peers

let push_writable writable p =
  match p.fd with Some fd when List.memq fd writable -> push p | _ -> ()

(* Lingering writers still running, process-wide; [linger] waits for
   them to finish. *)
let writers = ref 0
let writers_lock = Lockdep.create "socket.linger"
let writers_done = Condition.create ()

let linger () =
  Lockdep.with_lock writers_lock (fun () ->
      while !writers > 0 do
        Lockdep.wait writers_done writers_lock
      done)

(* A new thread owns [peers], a closed endpoint's: it keeps connecting
   and writing out their outboxes for at most 1 s, then closes every
   connection. *)
let linger_write peers =
  Lockdep.with_lock writers_lock (fun () -> incr writers);
  let deadline = Unix.gettimeofday () +. 1.0 in
  let rec drain () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0.0 && Array.exists has_bytes peers then begin
      let writes, wait = outbound peers left in
      (match Unix.select [] writes [] (Float.max 0.0 wait) with
      | _, writable, _ -> Array.iter (push_writable writable) peers
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      drain ()
    end
  in
  let run () =
    Fun.protect
      ~finally:(fun () ->
        Array.iter release peers;
        Lockdep.with_lock writers_lock (fun () ->
            decr writers;
            Condition.broadcast writers_done))
      (fun () -> try drain () with Unix.Unix_error _ -> ())
  in
  ignore (Thread.create run ())

let endpoint ~addr ~id ~endpoints =
  if id < 0 || id >= endpoints then invalid_arg "Socket.endpoint: bad id";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let closed = ref false in
  let sa = sockaddr_of addr id in
  let unlink () =
    match sa with
    | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Unix.ADDR_INET _ -> ()
  in
  let listener = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (match addr with
  | Uds _ -> unlink ()
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
  let inbound = ref [] in
  let ready : Frame.t Queue.t = Queue.create () in
  let peers =
    Array.init endpoints (fun dst ->
        {
          sa = sockaddr_of addr dst;
          out = Queue.create ();
          off = 0;
          fd = None;
          up = false;
          failed = false;
          attempt = 0;
          retry_at = 0.0;
        })
  in
  (* Deliver every whole frame in [c]'s buffer and move the partial
     tail to its front, in a buffer that can hold the frame the tail
     starts; [false] on a malformed header. *)
  let parse c =
    let rec frames pos =
      if c.len - pos < Frame.header_bytes then keep pos Frame.header_bytes
      else
        match Frame.decode_header ~pos (Bytes.unsafe_to_string c.buf) with
        | None ->
          (* framing lost: count and drop the connection *)
          Transport.record_error t;
          false
        | Some h ->
          let body_len = Frame.body_bytes h in
          let size = Frame.header_bytes + body_len in
          if c.len - pos < size then keep pos size
          else begin
            Transport.record_received t size;
            (match
               Frame.of_header h
                 ~body:(Bytes.sub_string c.buf (pos + Frame.header_bytes) body_len)
             with
            | Some fr -> Queue.push fr ready
            | None -> Transport.record_error t);
            frames (pos + size)
          end
    and keep pos need =
      let tail = c.len - pos in
      if need > Bytes.length c.buf then begin
        (* a size [decode_header] has held to [max_payload_bytes] *)
        let grown = Bytes.create need in
        Bytes.blit c.buf pos grown 0 tail;
        c.buf <- grown
      end
      else if Bytes.length c.buf > default_buf && need <= default_buf then begin
        (* the frame that outgrew the default buffer is parsed *)
        let default = Bytes.create default_buf in
        Bytes.blit c.buf pos default 0 tail;
        c.buf <- default
      end
      else Bytes.blit c.buf pos c.buf 0 tail;
      c.len <- tail;
      true
    in
    frames 0
  in
  (* One [read] of what [c] has delivered, then its whole frames;
     [false] once the connection is done: end of stream, an error, or
     a malformed header.  [parse] always leaves room to read into. *)
  let read_frames c =
    match Unix.read c.conn c.buf c.len (Bytes.length c.buf - c.len) with
    | 0 -> false
    | k ->
      c.len <- c.len + k;
      parse c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      true
    | exception Unix.Unix_error _ -> false
  in
  let drop c =
    inbound := List.filter (fun c' -> c' != c) !inbound;
    close_quietly c.conn
  in
  let accept () =
    match Unix.accept ~cloexec:true listener with
    | conn, _ ->
      Unix.set_nonblock conn;
      inbound := { conn; buf = Bytes.create default_buf; len = 0 } :: !inbound
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
      ->
      ()
  in
  (* One [select] of at most [wait] seconds, cut short by the next due
     connect retry, then accept, read and flush what it found ready. *)
  let poll wait =
    let writes, wait = outbound peers wait in
    match
      Unix.select
        (listener :: List.map (fun c -> c.conn) !inbound)
        writes [] (Float.max 0.0 wait)
    with
    | readable, writable, _ ->
      if List.memq listener readable then accept ();
      List.iter
        (fun c -> if List.memq c.conn readable && not (read_frames c) then drop c)
        !inbound;
      Array.iter (push_writable writable) peers
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let recv ~timeout =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      match Queue.take_opt ready with
      | Some fr -> Some fr
      | None ->
        poll (deadline -. Unix.gettimeofday ());
        if Queue.is_empty ready && Unix.gettimeofday () >= deadline then None
        else go ()
    in
    if !closed then None else go ()
  in
  let send ~dst frame =
    if (not !closed) && dst >= 0 && dst < endpoints then begin
      let bytes = Frame.encode frame in
      Transport.record_sent t (String.length bytes);
      let p = peers.(dst) in
      Queue.push bytes p.out;
      push p
    end
  in
  let close () =
    if not !closed then begin
      closed := true;
      List.iter (fun c -> close_quietly c.conn) !inbound;
      close_quietly listener;
      unlink ();
      Array.iter push peers;
      if Array.exists has_bytes peers then linger_write peers
      else Array.iter release peers
    end
  in
  { t with Transport.send; recv; close }
