(** Reed–Solomon encoding and noisy-interpolation decoding over arbitrary
    evaluation points — the error-correction engine of CSM's execution
    phase (Section 5.2) and of the verified decoding of Section 6.2. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) : sig
  module P : module type of Csm_poly.Poly.Make (F)

  val max_errors : n:int -> k:int -> int
  (** Unique-decoding radius e = ⌊(n−k)/2⌋ for length n, dimension k.
      @raise Invalid_argument when n < k. *)

  val encode : message:P.t -> points:F.t array -> F.t array
  (** Evaluate the message polynomial (degree < k) at each point.
      @raise Invalid_argument when the degree is ≥ the code length. *)

  type decoded = {
    poly : P.t;  (** recovered message polynomial, degree < k *)
    agreement : int list;
        (** positions where the codeword matches — the certificate set τ
            of equation (9) in the paper *)
    errors : int list;  (** corrected positions *)
  }

  val decode_bw : k:int -> (F.t * F.t) array -> decoded option
  (** Berlekamp–Welch: [None] when more than ⌊(n−k)/2⌋ errors. *)

  val decode_gao : k:int -> (F.t * F.t) array -> decoded option
  (** Gao's extended-Euclid decoder; same guarantee as [decode_bw]. *)

  type fast_ctx
  (** Round-independent precomputation for the optimistic decoder over a
      fixed received-point set (the Remark-4 argument): the Lagrange
      rows over the first k points and the Vandermonde rows over the
      rest, built by [prepare_fast], and the prepared subproduct tree
      over all points that the Gao fallback runs on, built by the first
      fallback through the context (so a set whose words are always
      clean never builds it).  Safe to share across domains once built:
      two domains that fall back at once each build an equal tree, and
      one is kept. *)

  val prepare_fast : k:int -> F.t array -> fast_ctx
  (** @raise Invalid_argument when the point set is shorter than k. *)

  val decode_optimistic :
    ?ctx:fast_ctx -> k:int -> (F.t * F.t) array -> decoded option
  (** Optimistic fast path: interpolate the first k received points and
      accept when the candidate explains {e every} point (the
      certificate set τ of eq. (9) is everything — the fault-free
      round), else fall back to Gao over the context's prepared tree;
      [None] when that fails.  Agrees with [decode_gao] on every input
      when k ≥ 1.  A [ctx] that does not match the pairs' points is
      ignored (a fresh one is built), so a stale cache can never
      corrupt a decode. *)

  type algorithm = Gao | Optimistic

  val decode :
    ?algorithm:algorithm ->
    ?ctx:fast_ctx ->
    k:int ->
    (F.t * F.t) array ->
    decoded option
  (** Default algorithm is [Optimistic]; [ctx] is used by it and ignored
      by [Gao]. *)

  type scratch
  (** Caller-owned room for the fast path over point sets that change
      from call to call: {!verify_columns} rebuilds [prepare_fast]'s
      matrices in it, so a call allocates only what it returns. *)

  val scratch : k:int -> n:int -> words:int -> scratch
  (** Room for up to [n] points, dimension [k], [words] words.
      @raise Invalid_argument when n < k or k < 1. *)

  val verify_columns :
    scratch ->
    points:F.t array ->
    rows:F.t array array ->
    m:int ->
    dim:int ->
    P.t array option
  (** The fast path alone over [dim] words, all or nothing, read
      column-wise: word [j] takes value [rows.(i).(j)] at [points.(i)],
      for i < [m], and is verified with [prepare_fast]'s arithmetic.
      [Some], one candidate per word, only when every word's candidate
      explains all of its values; each then counts as an optimistic
      clean hit.  [None], counting nothing, otherwise, or when [m] and
      [dim] exceed the scratch or [m] < k.  No Gao fallback: a caller
      that gets [None] decodes in full. *)

  val decode_on :
    ctx:fast_ctx -> on:int array -> k:int -> (F.t * F.t) array -> decoded option
  (** The verify-only fast path over a known agreement set: [on] lists
      positions of the pairs in rising order, at least n − e of them,
      and [ctx] is prepared over their points.  When the candidate
      interpolated there explains every value at [on], it is the unique
      decode within the radius, and so [decode_gao]'s answer; it is
      returned with the positions outside [on] classified, and counted
      as an optimistic decode.  [None], with no fallback, when it does
      not verify or [on] and [ctx] do not fit: the caller then decodes
      in full. *)

  val corrupt : Csm_rng.t -> count:int -> F.t array -> F.t array * int list
  (** [corrupt rng ~count w] flips [count] distinct positions of [w] to
      fresh wrong values; returns the corrupted word and the sorted list
      of corrupted positions. *)
end
