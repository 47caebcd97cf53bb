(* Domain-safe span tracer.

   A span records wall-clock start/duration, the owning domain, nesting
   depth and parent within that domain, and — when the caller supplies
   an operation source — the delta of field-operation counts (adds,
   muls, invs) observed across the span.

   Hot-path design: tracing off is one atomic load and a tail call
   (nothing is allocated, so [records] stays empty and the engine's
   per-round cost is untouched).  Tracing on appends to a per-domain
   buffer — no locks are taken while the parallel pool is fanning out;
   the only synchronized step is registering a domain's buffer the first
   time that domain traces, and the merge at flush time.  Span ids come
   from one atomic counter, so (start, id) gives a deterministic total
   order for spans emitted by a single control domain. *)

type record = {
  id : int;  (* process-unique, from an atomic counter *)
  parent : int;  (* enclosing span id in the same domain; -1 = root *)
  name : string;
  attrs : (string * string) list;
  domain : int;  (* Domain.self of the emitting domain *)
  depth : int;  (* nesting depth within the emitting domain *)
  start_s : float;  (* wall-clock, Unix.gettimeofday *)
  dur_s : float;
  d_adds : int;  (* op-count deltas over the span (0 without a source) *)
  d_muls : int;
  d_invs : int;
}

type ops = unit -> int * int * int

let on = Atomic.make false
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

let next_id = Atomic.make 0

(* Per-domain buffer: spans completed by this domain (newest first) and
   the stack of open spans ((id, depth) pairs). *)
type buf = {
  dom : int;
  mutable items : record list;
  mutable stack : (int * int) list;
}

let registry : buf list ref = ref []
let reg_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      (* csm-lint: allow R1 — the buffer is tagged with the physical
         domain id for trace attribution, not used for scheduling. *)
      let b = { dom = (Domain.self () :> int); items = []; stack = [] } in
      Mutex.protect reg_lock (fun () -> registry := b :: !registry);
      b)

let with_ ?(attrs = []) ?ops ~name f =
  if not (Atomic.get on) then f ()
  else begin
    let b = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent, depth =
      match b.stack with [] -> (-1, 0) | (p, d) :: _ -> (p, d + 1)
    in
    b.stack <- (id, depth) :: b.stack;
    let a0, m0, i0 = match ops with Some g -> g () | None -> (0, 0, 0) in
    let start_s = Unix.gettimeofday () in
    let finish () =
      let dur_s = Unix.gettimeofday () -. start_s in
      let a1, m1, i1 = match ops with Some g -> g () | None -> (0, 0, 0) in
      (match b.stack with _ :: tl -> b.stack <- tl | [] -> ());
      b.items <-
        {
          id;
          parent;
          name;
          attrs;
          domain = b.dom;
          depth;
          start_s;
          dur_s;
          d_adds = a1 - a0;
          d_muls = m1 - m0;
          d_invs = i1 - i0;
        }
        :: b.items
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Deterministic merge order: primary start time, ties broken by id
   (ids are monotone within a domain, so one domain's spans keep their
   emission order even at equal timestamps). *)
let order a b =
  match Float.compare a.start_s b.start_s with
  | 0 -> Int.compare a.id b.id
  | c -> c

let records () =
  let bufs = Mutex.protect reg_lock (fun () -> !registry) in
  List.sort order (List.concat_map (fun b -> b.items) bufs)

let reset () =
  Mutex.protect reg_lock (fun () ->
      List.iter
        (fun b ->
          b.items <- [];
          b.stack <- [])
        !registry)

let flush () =
  let rs = records () in
  reset ();
  rs
