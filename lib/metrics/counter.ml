(* Field-operation counters.

   The paper measures throughput in "number of additions and multiplications
   in F" (Section 2.2); a counter records exactly those, split by kind so
   that analyses can weight them differently if desired.

   Counts are atomic ints, so a counter stays exact whichever thread or
   domain charges it: loopback nodes are threads of one process, and the
   coding sweep runs its points on several domains at once. *)

type t = {
  adds : int Atomic.t;  (* additions, subtractions, negations *)
  muls : int Atomic.t;  (* multiplications *)
  invs : int Atomic.t;  (* inversions / divisions *)
}

let create () = { adds = Atomic.make 0; muls = Atomic.make 0; invs = Atomic.make 0 }

let reset t =
  Atomic.set t.adds 0;
  Atomic.set t.muls 0;
  Atomic.set t.invs 0

let add t = Atomic.incr t.adds
let mul t = Atomic.incr t.muls
let inv t = Atomic.incr t.invs

(* Bulk charge for the byte-packed batch kernels: one fetch_and_add per
   kind instead of one atomic increment per element, with identical
   totals to the element-at-a-time path. *)
let bulk t ~adds ~muls ~invs =
  if adds > 0 then ignore (Atomic.fetch_and_add t.adds adds);
  if muls > 0 then ignore (Atomic.fetch_and_add t.muls muls);
  if invs > 0 then ignore (Atomic.fetch_and_add t.invs invs)

let adds t = Atomic.get t.adds
let muls t = Atomic.get t.muls
let invs t = Atomic.get t.invs

(* Total cost in field operations.  An inversion by extended Euclid or
   Fermat costs O(log p) multiplications; we charge a flat weight so that
   totals remain architecture-independent.  The paper's complexity model
   counts additions and multiplications; inversions only appear inside
   interpolation where their count is dominated by multiplications. *)
let inv_weight = 32

let total t = adds t + muls t + (inv_weight * invs t)

(* Cheap snapshot: three atomic loads, no allocation of new atomics.
   Spans use snapshot/diff to attribute op deltas to a region without
   resetting counters that other roles/domains are still writing. *)
let snapshot t = (adds t, muls t, invs t)

let diff ~before:(a0, m0, i0) ~after:(a1, m1, i1) =
  (a1 - a0, m1 - m0, i1 - i0)

let total_of (a, m, i) = a + m + (inv_weight * i)

let copy t =
  {
    adds = Atomic.make (adds t);
    muls = Atomic.make (muls t);
    invs = Atomic.make (invs t);
  }

let pp ppf t =
  Format.fprintf ppf "{adds=%d; muls=%d; invs=%d; total=%d}" (adds t) (muls t)
    (invs t) (total t)
