(* A transport tap: one endpoint's [Transport.t] record of closures,
   wrapped so that every [send] and [recv] is counted and timed per
   protocol round.  The node runtime only ever sees a [Transport.t], so
   it runs unchanged.

   Sends are attributed to the round their frame carries.  A [recv]
   call has no round until it returns a frame, so it is attributed to
   the highest protocol round this endpoint has seen so far.  The last
   slot (index [rounds]) collects the shutdown epoch.

   Each endpoint is driven by one thread only (a node's own loop, or
   the client), so a tap needs no lock. *)

module Frame = Csm_wire.Frame
module Transport = Csm_transport.Transport

let kinds = [| "command"; "commit"; "result"; "output" |]

(* Index into [kinds]; control frames (Stats, Shutdown, Telemetry) get
   the extra last index. *)
let kind_index = function
  | Frame.Command -> 0
  | Frame.Commit -> 1
  | Frame.Result -> 2
  | Frame.Output -> 3
  | Frame.Stats | Frame.Shutdown | Frame.Telemetry -> 4

type slot = {
  frames : int array;  (* frames sent, by [kind_index] *)
  bytes : int array;  (* their on-wire bytes, by [kind_index] *)
  mutable send_s : float;
  mutable recv_s : float;
  mutable recv_calls : int;
  mutable recv_empty : int;
  (* node phase boundaries (0.0 = not seen): Command received, first
     Commit sent, first Result sent, Output sent *)
  mutable command_in : float;
  mutable commit_out : float;
  mutable result_out : float;
  mutable output_out : float;
}

type t = {
  slots : slot array;
  mutable current : int;
  (* forked nodes only: their process's GC deltas from fork to exit *)
  mutable gc_minor_words : float;
  mutable gc_major : int;
  mutable gc_heap_words : int;
}

let create ~rounds =
  {
    slots =
      Array.init (rounds + 1) (fun _ ->
          {
            frames = Array.make 5 0;
            bytes = Array.make 5 0;
            send_s = 0.0;
            recv_s = 0.0;
            recv_calls = 0;
            recv_empty = 0;
            command_in = 0.0;
            commit_out = 0.0;
            result_out = 0.0;
            output_out = 0.0;
          });
    current = 0;
    gc_minor_words = 0.0;
    gc_major = 0;
    gc_heap_words = 0;
  }

let epoch t = Array.length t.slots - 1

let slot_of t round =
  if round >= 0 && round < epoch t then t.slots.(round) else t.slots.(epoch t)

let wrap t (tr : Transport.t) =
  let send ~dst (fr : Frame.t) =
    let t0 = Mono.now () in
    tr.Transport.send ~dst fr;
    let t1 = Mono.now () in
    let s = slot_of t fr.Frame.round in
    let k = kind_index fr.Frame.kind in
    s.frames.(k) <- s.frames.(k) + 1;
    s.bytes.(k) <- s.bytes.(k) + Frame.size fr;
    s.send_s <- s.send_s +. (t1 -. t0);
    match fr.Frame.kind with
    | Frame.Commit when s.commit_out = 0.0 -> s.commit_out <- t0
    | Frame.Result when s.result_out = 0.0 -> s.result_out <- t0
    | Frame.Output when s.output_out = 0.0 -> s.output_out <- t0
    | _ -> ()
  in
  let recv ~timeout =
    let t0 = Mono.now () in
    let got = tr.Transport.recv ~timeout in
    let t1 = Mono.now () in
    (match got with
    | Some fr when kind_index fr.Frame.kind < 4 && fr.Frame.round < epoch t ->
      t.current <- max t.current fr.Frame.round
    | _ -> ());
    let s = slot_of t t.current in
    s.recv_s <- s.recv_s +. (t1 -. t0);
    s.recv_calls <- s.recv_calls + 1;
    (match got with
    | None -> s.recv_empty <- s.recv_empty + 1
    | Some fr ->
      if Frame.kind_eq fr.Frame.kind Frame.Command && s.command_in = 0.0 then
        s.command_in <- t1);
    got
  in
  { tr with Transport.send; recv }

(* Protocol frames and bytes sent over all rounds: what the endpoint's
   own [Transport.stats] counted before its Stats reply. *)
let protocol_totals t =
  Array.fold_left
    (fun (f, b) s ->
      let f' = ref f and b' = ref b in
      for k = 0 to 3 do
        f' := !f' + s.frames.(k);
        b' := !b' + s.bytes.(k)
      done;
      (!f', !b'))
    (0, 0) t.slots

(* A forked node hands its tap to the parent through a file. *)
let save t path =
  Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc t [])

let load path : t option =
  match In_channel.with_open_bin path (fun ic -> Marshal.from_channel ic) with
  | t -> Some t
  | exception (Sys_error _ | End_of_file | Failure _) -> None
