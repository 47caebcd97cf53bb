(* The blocking receive queue of one socket endpoint: its receiver
   thread pushes every complete inbound frame, and [recv] pops.

   Any thread may [push]; only the endpoint's owner thread calls [pop]
   and [close].  An owner that finds the queue empty marks itself
   asleep and blocks in [Unix.select] on a self-pipe (a pipe the
   process writes to itself) until an item arrives or the deadline
   passes.  [push] writes one wake byte, and only while the owner is
   marked asleep, so a sleep costs at most one pipe write however many
   items arrive during it.  The pipe is opened by the first sleep, so a
   mailbox that never waits holds no fd.

   [close] closes the pipe under the lock every wake write holds, so a
   pusher never writes to an fd number the process has since reused;
   an item pushed after [close] is dropped. *)

module Lockdep = Csm_parallel.Lockdep

type 'a t = {
  q : 'a Queue.t;
  m : Lockdep.t;
  mutable pipe : (Unix.file_descr * Unix.file_descr) option;
      (* read end, write end; both non-blocking *)
  mutable asleep : bool;  (* the owner is in, or about to enter, select *)
  mutable closed : bool;
}

let create name =
  {
    q = Queue.create ();
    m = Lockdep.create name;
    pipe = None;
    asleep = false;
    closed = false;
  }

let push t x =
  Lockdep.with_lock t.m (fun () ->
      if not t.closed then begin
        Queue.push x t.q;
        if t.asleep then begin
          t.asleep <- false;
          match t.pipe with
          | Some (_, w) -> (
            try ignore (Unix.single_write_substring w "\000" 0 1)
            with Unix.Unix_error _ -> ())
          | None -> ()
        end
      end)

(* The read end, opened on first use (caller holds the lock). *)
let wake_fd t =
  match t.pipe with
  | Some (r, _) -> r
  | None ->
    let r, w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock r;
    Unix.set_nonblock w;
    t.pipe <- Some (r, w);
    r

let drain fd =
  let buf = Bytes.create 64 in
  try
    while Unix.read fd buf 0 64 = 64 do
      ()
    done
  with Unix.Unix_error _ -> ()

type 'a step = Item of 'a | Gone | Sleep of Unix.file_descr * float

let pop t ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    let step =
      Lockdep.with_lock t.m (fun () ->
          t.asleep <- false;
          if t.closed then Gone
          else
            match Queue.take_opt t.q with
            | Some x -> Item x
            | None ->
              let left = deadline -. Unix.gettimeofday () in
              if left <= 0.0 then Gone
              else begin
                let fd = wake_fd t in
                t.asleep <- true;
                Sleep (fd, left)
              end)
    in
    match step with
    | Item x -> Some x
    | Gone -> None
    | Sleep (fd, left) ->
      (match Unix.select [ fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> drain fd
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
  in
  loop ()

let close t =
  Lockdep.with_lock t.m (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Queue.clear t.q;
        match t.pipe with
        | Some (r, w) ->
          t.pipe <- None;
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ r; w ]
        | None -> ()
      end)
