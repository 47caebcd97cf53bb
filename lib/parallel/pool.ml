(* Shared-memory domain pool for the hot paths of the coded engine.

   Design constraints, in order:

   1. Determinism.  Every primitive writes results by index, so outputs
      are bit-identical for any domain count, and [CSM_DOMAINS=1] (or
      [with_domain_limit 1]) degenerates to a plain [for] loop executing
      the exact sequential schedule — same operations, same order.
   2. Zero cost when unused.  No domain is spawned until the first
      parallel job actually needs one; with one domain configured every
      entry point is a direct loop.
   3. Safe nesting.  A task that itself calls a parallel primitive (the
      harness sweeps run engine rounds that fan out internally) runs the
      inner loop inline in its own domain instead of deadlocking on the
      shared queue.
   4. Exact measurement.  Operation-counting state is domain-local (see
      [Csm_field.Counted]); [register_propagator] lets such state be
      captured in the submitting domain and re-installed in each worker
      before it touches a job, so cost attribution is identical under
      any domain count.

   The pool is a single global work queue: one job at a time, chunks
   claimed by an atomic cursor, submitter participating as a worker.
   This fits the engine's fan-out shape (wide, uniform, short-lived
   jobs) without the complexity of work stealing. *)

let hard_cap = 128

type job = {
  run : int -> unit;  (* execute one chunk *)
  chunks : int;
  width : int;  (* participating domains, including the submitter *)
  installs : (unit -> unit) list;  (* captured domain-local environment *)
  next : int Atomic.t;  (* next chunk to claim *)
  completed : int Atomic.t;  (* chunks finished *)
  failed : exn option Atomic.t;  (* first failure, re-raised at join *)
}

let lock = Lockdep.create "pool"
let work_cond = Condition.create ()
let done_cond = Condition.create ()

(* Generation counter + current job, both guarded by [lock].  Workers
   sleep until the generation moves past the last one they served. *)
let seq = ref 0
let job_slot : job option ref = ref None
let spawned = ref 0

(* True while this domain is executing pool work (worker domains always;
   the submitting domain for the duration of a job).  Any parallel entry
   point reached while engaged runs inline. *)
let engaged = Domain.DLS.new_key (fun () -> false)

let propagators : (unit -> (unit -> unit)) list ref = ref []
let register_propagator f = propagators := f :: !propagators

(* A lazy value that any domain may force at any time.  [Lazy.force]
   raises [CamlinternalLazy.Undefined] when two domains force the same
   suspension at once; here a racing domain computes its own copy and
   the first published value wins, so [f] must be pure. *)
let once f =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None -> (
      let v = f () in
      if Atomic.compare_and_set cell None (Some v) then v
      else match Atomic.get cell with Some w -> w | None -> v)

let env_size =
  once (fun () ->
      match Sys.getenv_opt "CSM_DOMAINS" with
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some d when d >= 1 -> min d hard_cap
        | Some _ | None -> Domain.recommended_domain_count ())
      | None -> Domain.recommended_domain_count ())

(* 0 = not yet configured: take CSM_DOMAINS / recommended on first use. *)
let configured = ref 0

let domains () = if !configured = 0 then env_size () else !configured

let set_domains d =
  if d < 1 then invalid_arg "Pool.set_domains: need at least 1 domain";
  configured := min d hard_cap

let limit = ref max_int

let with_domain_limit d f =
  if d < 1 then invalid_arg "Pool.with_domain_limit: need at least 1 domain";
  let saved = !limit in
  limit := d;
  Fun.protect ~finally:(fun () -> limit := saved) f

let effective_width () = min (domains ()) !limit

(* Claim and run chunks until the cursor runs past the end.  Shared by
   workers and the submitter.  After a failure remaining chunks are
   still claimed (so completion counting stays exact) but not run. *)
let rec work_chunks j =
  let c = Atomic.fetch_and_add j.next 1 in
  if c < j.chunks then begin
    (if Atomic.get j.failed = None then
       try j.run c
       with e -> ignore (Atomic.compare_and_set j.failed None (Some e)));
    if Atomic.fetch_and_add j.completed 1 + 1 = j.chunks then
      Lockdep.with_lock lock (fun () -> Condition.broadcast done_cond);
    work_chunks j
  end

let rec worker_loop id last_seq =
  let s, j =
    Lockdep.with_lock lock (fun () ->
        while !seq = last_seq do
          Lockdep.wait work_cond lock
        done;
        (!seq, !job_slot))
  in
  (match j with
  | Some j when id + 1 < j.width ->
    List.iter (fun install -> install ()) j.installs;
    work_chunks j
  | Some _ | None -> ());
  worker_loop id s

let ensure_workers count =
  if !spawned < count then
    Lockdep.with_lock lock (fun () ->
        let s0 = !seq in
        while !spawned < count do
          let id = !spawned in
          ignore
            (Domain.spawn (fun () ->
                 Domain.DLS.set engaged true;
                 worker_loop id s0));
          incr spawned
        done)

let run_job ~width ~chunks run =
  ensure_workers (width - 1);
  let installs = List.rev_map (fun capture -> capture ()) !propagators in
  let j =
    {
      run;
      chunks;
      width;
      installs;
      next = Atomic.make 0;
      completed = Atomic.make 0;
      failed = Atomic.make None;
    }
  in
  Domain.DLS.set engaged true;
  Lockdep.with_lock lock (fun () ->
      job_slot := Some j;
      incr seq;
      Condition.broadcast work_cond);
  work_chunks j;
  Lockdep.with_lock lock (fun () ->
      while Atomic.get j.completed < j.chunks do
        Lockdep.wait done_cond lock
      done;
      job_slot := None);
  Domain.DLS.set engaged false;
  match Atomic.get j.failed with Some e -> raise e | None -> ()

let default_chunk n width = max 1 ((n + (4 * width) - 1) / (4 * width))

let parallel_for_range ?chunk ~lo ~hi f =
  let n = hi - lo in
  if n > 0 then begin
    let width = effective_width () in
    if width <= 1 || n = 1 || Domain.DLS.get engaged then
      for i = lo to hi - 1 do
        f i
      done
    else begin
      let c =
        match chunk with
        | Some c when c >= 1 -> c
        | Some _ -> invalid_arg "Pool.parallel_for: chunk must be >= 1"
        | None -> default_chunk n width
      in
      let chunks = (n + c - 1) / c in
      if chunks <= 1 then
        for i = lo to hi - 1 do
          f i
        done
      else
        run_job ~width:(min width chunks) ~chunks (fun idx ->
            let start = lo + (idx * c) in
            let stop = min hi (start + c) in
            for i = start to stop - 1 do
              f i
            done)
    end
  end

let parallel_for ?chunk n f = parallel_for_range ?chunk ~lo:0 ~hi:n f

let parallel_init ?chunk n f =
  if n <= 0 then [||]
  else begin
    (* f 0 runs in the submitting domain and seeds the array, so f is
       called exactly once per index (no placeholder tricks, float
       arrays stay unboxed). *)
    let first = f 0 in
    let res = Array.make n first in
    parallel_for_range ?chunk ~lo:1 ~hi:n (fun i -> res.(i) <- f i);
    res
  end

let parallel_map_array ?chunk f a =
  parallel_init ?chunk (Array.length a) (fun i -> f a.(i))

let parallel_list_map f l =
  Array.to_list (parallel_map_array f (Array.of_list l))
