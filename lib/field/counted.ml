(* Operation-counting wrapper around any field.

   The wrapper writes into a swappable current counter so that a protocol
   simulation can attribute costs per role ("now node 3 is computing",
   "now the worker is computing") without changing the field type flowing
   through the algebraic code.

   The current counter is domain-local: each domain routes its own
   operations, so parallel per-node fan-out attributes every node's work
   to that node's counter without cross-domain interference.  A pool
   propagator carries the submitting domain's current counter into the
   workers, so a parallel region *inside* one attribution scope (e.g.
   the per-coordinate decodes of a single decoder role) still lands on
   the right counter; combined with atomic counters this keeps measured
   totals exact — identical for any domain count.

   When nothing is sampling — no [set_counter]/[with_counter] installed
   a counter on this domain — the DLS slot holds the shared [null]
   sentinel and every operation short-circuits past the atomic
   increment: one DLS read and one physical comparison, instead of an
   atomic read-modify-write per field op.  That keeps un-measured runs
   (wall-clock benchmarks, the transport cluster) close to the raw
   field's speed while measured runs stay exact. *)

module Make (F : Field_intf.S) : sig
  include Field_intf.S with type t = F.t

  val set_counter : Csm_metrics.Counter.t -> unit
  (** Route this domain's subsequent operation counts into the given
      counter. *)

  val counter : unit -> Csm_metrics.Counter.t
  (** The counter currently receiving this domain's counts. *)

  val with_counter : Csm_metrics.Counter.t -> (unit -> 'a) -> 'a
  (** Run a thunk with counts routed to the given counter, restoring the
      previous counter afterwards (exception-safe).  Scopes nest and are
      per-domain. *)
end = struct
  type t = F.t

  (* Sentinel meaning "no one is sampling on this domain".  Never read
     for its counts; compared physically in every hot op.  (Registered
     in lint/shared_state.allow: written only through the sentinel-aware
     ops below.) *)
  let null = Csm_metrics.Counter.create ()

  let key = Domain.DLS.new_key (fun () -> null)

  let set_counter c = Domain.DLS.set key c
  let counter () = Domain.DLS.get key

  (* Carry the submitter's current counter into pool workers for the
     duration of each parallel job. *)
  let () =
    Csm_parallel.Pool.register_propagator (fun () ->
        let c = Domain.DLS.get key in
        fun () -> Domain.DLS.set key c)

  let with_counter c f =
    let saved = Domain.DLS.get key in
    Domain.DLS.set key c;
    Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

  let zero = F.zero
  let one = F.one
  let of_int = F.of_int
  let to_int = F.to_int

  let add a b =
    let c = Domain.DLS.get key in
    if c != null then Csm_metrics.Counter.add c;
    F.add a b

  let sub a b =
    let c = Domain.DLS.get key in
    if c != null then Csm_metrics.Counter.add c;
    F.sub a b

  let neg a =
    let c = Domain.DLS.get key in
    if c != null then Csm_metrics.Counter.add c;
    F.neg a

  let mul a b =
    let c = Domain.DLS.get key in
    if c != null then Csm_metrics.Counter.mul c;
    F.mul a b

  let inv a =
    let c = Domain.DLS.get key in
    if c != null then Csm_metrics.Counter.inv c;
    F.inv a

  let div a b =
    let c = Domain.DLS.get key in
    if c != null then Csm_metrics.Counter.inv c;
    F.div a b

  let pow x n =
    (* Charge the square-and-multiply cost explicitly so that pow-heavy
       code (e.g. Vandermonde construction) is accounted for: two
       multiplications per exponent bit. *)
    let c = Domain.DLS.get key in
    if c != null then begin
      let rec count e acc = if e = 0 then acc else count (e lsr 1) (acc + 2) in
      Csm_metrics.Counter.bulk c ~adds:0 ~muls:(count (abs n) 0)
        ~invs:(if n < 0 then 1 else 0)
    end;
    F.pow x n

  let equal = F.equal
  let compare = F.compare
  let is_zero = F.is_zero
  let order = F.order
  let characteristic = F.characteristic
  let root_of_unity = F.root_of_unity
  let random = F.random
  let random_nonzero = F.random_nonzero

  (* Batch kernels: delegate to the base field's, charging the scalar
     loops' exact op counts in bulk (one fetch_and_add per kind) against
     whatever counter is sampling when the kernel runs. *)
  let charge ~adds ~muls =
    let c = Domain.DLS.get key in
    if c != null then Csm_metrics.Counter.bulk c ~adds ~muls ~invs:0

  let batch =
    Csm_parallel.Pool.once (fun () ->
        match F.batch () with
        | None -> None
        | Some b ->
          let elems v = Bytes.length v / b.Field_intf.width in
          Some
            {
              b with
              Field_intf.axpy =
                (fun ~acc ~c ~x ->
                  let n = elems x in
                  charge ~adds:n ~muls:n;
                  b.Field_intf.axpy ~acc ~c ~x);
              dot =
                (fun a v ->
                  let n = elems a in
                  charge ~adds:n ~muls:n;
                  b.Field_intf.dot a v);
              scale =
                (fun ~c ~x ->
                  charge ~adds:0 ~muls:(elems x);
                  b.Field_intf.scale ~c ~x);
              eval_many =
                (fun ~coeffs ~xs ->
                  let n = elems xs * Array.length coeffs in
                  charge ~adds:n ~muls:n;
                  b.Field_intf.eval_many ~coeffs ~xs);
            })

  let pp = F.pp
  let to_string = F.to_string
end
