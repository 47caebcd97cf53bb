(* Real socket transport: one listening socket per endpoint (Unix
   domain by default, TCP loopback optionally), length-prefixed frames
   on byte streams, every fd non-blocking.  An endpoint runs no thread:
   only the thread calling its [send], [recv] and [close] touches it,
   and bytes move only inside those calls.

   Send path: [send] appends the encoded frame to that peer's outbox
   and writes what the kernel takes now, so a dead or silent peer
   cannot stall a round; the rest waits for a later call.  A peer
   without a connection is connected on [send], and a failed connect is
   retried from [recv] after 50 us, doubling up to 100 ms: the nodes of
   a freshly forked cluster bind 0.6-2.1 ms after it starts, mostly
   after the client's first send, so the first retry must come within
   a fraction of a millisecond of the bind.  A [send] to a peer that is
   down only queues, unless the peer's retry is due or a millisecond
   has passed since its last failed connect: a failed connect costs
   three system calls, about 9 us, so a crashed peer costs at most one
   a millisecond while frames keep going to it, and a peer that comes
   back is reached by the next send a millisecond on.  After a write
   error the head frame is rewritten whole on one new connection, then
   dropped.
   An outbox holds at most [outbox_cap] bytes: past it, the oldest
   frames not yet started are dropped, so a peer that stays down costs
   bounded memory and gets the newest frames, in order, if it comes
   back.  Creating an endpoint ignores SIGPIPE, so a write to a dead
   peer fails with EPIPE instead of killing the process.

   Receive path: [recv] returns a decoded frame if one is ready, else
   waits in one [select] on the listener, the inbound connections and
   the outboxes with bytes left (which also completes a TCP connect)
   until a frame is complete or its deadline — the receiver-side
   defence against withholding peers — passes.  Each inbound connection
   owns one byte buffer: a connection the [select] finds readable gets
   one [read], and every whole frame in the buffer is decoded in place
   and counted, its header validated by [Frame.frame_bytes] before
   anything it claims is allocated; the payload is the one copy made.  What one read leaves in the
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

(* The most bytes one peer's outbox keeps queued: four times the 4 MiB
   a connected peer that is slow to read must still get whole (test
   [socket send never blocks]).  The newest frame is always kept. *)
let outbox_cap = 1 lsl 24

(* One peer's outbound side: encoded frames, head first, of which the
   head's first [off] bytes are written; [queued] is their total size. *)
type peer = {
  sa : Unix.sockaddr;
  out : string Queue.t;
  mutable queued : int;
  mutable off : int;
  mutable fd : Unix.file_descr option;
  mutable up : bool;  (* a byte has gone through on [fd] *)
  mutable failed : bool;  (* the head frame's write failed once *)
  mutable attempt : int;  (* failed connects in a row *)
  mutable retry_at : float;  (* when [recv] may connect again *)
  mutable failed_at : float;  (* when the last connect failed *)
}

let has_bytes p = not (Queue.is_empty p.out)

let pop p = p.queued <- p.queued - String.length (Queue.pop p.out)

(* Drop the oldest frames not yet started until [p]'s outbox is back
   under [outbox_cap], keeping a head frame that is partly written (its
   peer has read its start) and the newest frame. *)
let trim p =
  if p.queued > outbox_cap then begin
    let started = Queue.create () in
    if p.off > 0 then Queue.push (Queue.pop p.out) started;
    while p.queued > outbox_cap && Queue.length p.out > 1 do
      pop p;
      (* a dropped head takes its failed write with it *)
      if Queue.is_empty started then p.failed <- false
    done;
    Queue.transfer p.out started;
    Queue.transfer started p.out
  end

let release p =
  Option.iter close_quietly p.fd;
  p.fd <- None;
  p.off <- 0;
  p.up <- false

(* Connect retries back off from 50 us, doubling up to 100 ms.  A
   forked node binds its listener 0.6-2.1 ms after its cluster starts,
   mostly after the client's first send to it has failed; a retry timer
   starting at 2 ms reached the last node 1.6 ms after it bound, one
   starting at 50 us 0.3 ms after.  The doubling holds [recv]'s
   retries to a peer that stays down to about 11 in its first 0.1 s,
   then 10 a second. *)
let backoff p =
  let delay = min 0.1 (0.00005 *. (2. ** float_of_int p.attempt)) in
  let now = Unix.gettimeofday () in
  p.failed_at <- now;
  p.retry_at <- now +. delay;
  p.attempt <- p.attempt + 1

(* A send connects a peer without a connection once its retry is due,
   or once [send_retry] has passed since its last failed connect,
   whichever is sooner: at most one failed connect a millisecond while
   frames keep coming, not one a frame. *)
let send_retry = 0.001

let send_due p =
  Unix.gettimeofday () >= Float.min p.retry_at (p.failed_at +. send_retry)

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
   [p] has no connection and a send may connect it.  A write error
   before any byte went through is a failed (TCP) connect. *)
let rec push p =
  if Option.is_none p.fd && has_bytes p && send_due p then connect p;
  match p.fd with
  | Some fd when has_bytes p -> (
    let s = Queue.peek p.out in
    match Unix.single_write_substring fd s p.off (String.length s - p.off) with
    | k ->
      p.up <- true;
      p.attempt <- 0;
      p.off <- p.off + k;
      if p.off = String.length s then begin
        pop p;
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
          pop p;
          p.failed <- false
        end
        else p.failed <- true;
        push p
      end)
  | _ -> ()

(* Connect the peers whose retry is due; then the connections with
   bytes to write.  Allocates only for a peer with bytes left. *)
let outbound peers =
  let now = Unix.gettimeofday () in
  let writes = ref [] in
  for i = 0 to Array.length peers - 1 do
    let p = peers.(i) in
    if has_bytes p && Option.is_none p.fd && p.retry_at <= now then push p;
    match p.fd with
    | Some fd when has_bytes p -> writes := fd :: !writes
    | _ -> ()
  done;
  !writes

let waiting p = has_bytes p && Option.is_none p.fd

(* [wait] cut short by the next connect retry of a peer that has bytes
   and no connection; [wait] itself when there is none. *)
let retry_wait peers wait =
  if not (Array.exists waiting peers) then wait
  else begin
    let now = Unix.gettimeofday () in
    let w = ref wait in
    for i = 0 to Array.length peers - 1 do
      if waiting peers.(i) then w := Float.min !w (peers.(i).retry_at -. now)
    done;
    !w
  end

let push_writable writable peers =
  match writable with
  | [] -> ()
  | _ ->
    for i = 0 to Array.length peers - 1 do
      match peers.(i).fd with
      | Some fd when List.memq fd writable -> push peers.(i)
      | _ -> ()
    done

(* Lingering writers still running, process-wide; [linger] waits for
   them to finish. *)
let writers = ref 0
let writers_lock = Mutex.create ()
let writers_done = Condition.create ()

let linger () =
  Mutex.protect writers_lock (fun () ->
      while !writers > 0 do
        Condition.wait writers_done writers_lock
      done)

(* A new thread owns [peers], a closed endpoint's: it keeps connecting
   and writing out their outboxes for at most 1 s, then closes every
   connection. *)
let linger_write peers =
  Mutex.protect writers_lock (fun () -> incr writers);
  let deadline = Unix.gettimeofday () +. 1.0 in
  let rec drain () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0.0 && Array.exists has_bytes peers then begin
      let writes = outbound peers in
      (match Unix.select [] writes [] (Float.max 0.0 (retry_wait peers left)) with
      | _, writable, _ -> push_writable writable peers
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      drain ()
    end
  in
  let run () =
    Fun.protect
      ~finally:(fun () ->
        Array.iter release peers;
        Mutex.protect writers_lock (fun () ->
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
  (try
     (match addr with
     | Uds _ -> unlink ()
     | Tcp _ -> Unix.setsockopt listener Unix.SO_REUSEADDR true);
     Unix.bind listener sa;
     Unix.listen listener 64;
     Unix.set_nonblock listener
   with e ->
     close_quietly listener;
     raise e);
  let t =
    {
      Transport.id;
      endpoints;
      send = (fun ~dst:_ _ -> ());
      recv = (fun ~timeout:_ -> None);
      close = (fun () -> ());
      stats = Transport.zero_stats ();
      stats_mutex = Mutex.create ();
    }
  in
  let inbound = ref [] in
  (* what [select] reads: the listener and every inbound connection,
     rebuilt only when a connection comes or goes *)
  let read_fds = ref [ listener ] in
  let set_inbound cs =
    inbound := cs;
    read_fds := listener :: List.map (fun c -> c.conn) cs
  in
  (* decoded frames, each kept as the [Some] that [recv] returns *)
  let ready : Frame.t option Queue.t = Queue.create () in
  let peers =
    Array.init endpoints (fun dst ->
        {
          sa = sockaddr_of addr dst;
          out = Queue.create ();
          queued = 0;
          off = 0;
          fd = None;
          up = false;
          failed = false;
          attempt = 0;
          retry_at = 0.0;
          failed_at = 0.0;
        })
  in
  (* Deliver every whole frame in [c]'s buffer from [pos] on and move
     the partial tail to its front, in a buffer that can hold the frame
     the tail starts; [false] on a malformed header. *)
  let rec parse c pos =
    if c.len - pos < Frame.header_bytes then keep c pos Frame.header_bytes
    else
      let s = Bytes.unsafe_to_string c.buf in
      let size = Frame.frame_bytes s ~pos in
      if size < 0 then begin
        (* framing lost: count and drop the connection *)
        Transport.record_error t;
        false
      end
      else if c.len - pos < size then keep c pos size
      else begin
        Transport.record_received t size;
        (match Frame.decode_at s ~pos with
        | Some _ as fr -> Queue.push fr ready
        | None -> Transport.record_error t);
        parse c (pos + size)
      end
  and keep c pos need =
    let tail = c.len - pos in
    if need > Bytes.length c.buf then begin
      (* a size [Frame.frame_bytes] has held to [max_payload_bytes] *)
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
  (* One [read] of what [c] has delivered, then its whole frames;
     [false] once the connection is done: end of stream, an error, or
     a malformed header.  [parse] always leaves room to read into. *)
  let read_frames c =
    match Unix.read c.conn c.buf c.len (Bytes.length c.buf - c.len) with
    | 0 -> false
    | k ->
      c.len <- c.len + k;
      parse c 0
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      true
    | exception Unix.Unix_error _ -> false
  in
  let drop c =
    set_inbound (List.filter (fun c' -> c' != c) !inbound);
    close_quietly c.conn
  in
  let accept () =
    match Unix.accept ~cloexec:true listener with
    | conn, _ ->
      Unix.set_nonblock conn;
      set_inbound ({ conn; buf = Bytes.create default_buf; len = 0 } :: !inbound)
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
      ->
      ()
  in
  let rec read_ready readable = function
    | [] -> ()
    | c :: rest ->
      if List.memq c.conn readable && not (read_frames c) then drop c;
      read_ready readable rest
  in
  (* The running [recv]'s deadline, kept unboxed in a float array. *)
  let deadline = [| 0.0 |] in
  (* One [select] until the deadline at most, cut short by the next due
     connect retry, then accept, read and flush what it found ready. *)
  let poll () =
    let writes = outbound peers in
    let wait = retry_wait peers (deadline.(0) -. Unix.gettimeofday ()) in
    match Unix.select !read_fds writes [] (Float.max 0.0 wait) with
    | readable, writable, _ ->
      if List.memq listener readable then accept ();
      read_ready readable !inbound;
      push_writable writable peers
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let rec recv_ready () =
    if not (Queue.is_empty ready) then Queue.pop ready
    else begin
      poll ();
      if Queue.is_empty ready && Unix.gettimeofday () >= deadline.(0) then None
      else recv_ready ()
    end
  in
  let recv ~timeout =
    if !closed then None
    else begin
      deadline.(0) <- Unix.gettimeofday () +. timeout;
      recv_ready ()
    end
  in
  let send ~dst frame =
    if (not !closed) && dst >= 0 && dst < endpoints then begin
      let bytes = Frame.encode frame in
      Transport.record_sent t (String.length bytes);
      let p = peers.(dst) in
      Queue.push bytes p.out;
      p.queued <- p.queued + String.length bytes;
      trim p;
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
