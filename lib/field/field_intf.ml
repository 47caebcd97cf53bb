(** Signatures for finite fields.

    Everything in the reproduction (polynomials, Reed–Solomon codes, the
    CSM engine, INTERMIX) is a functor over [S] so that the same code runs
    over prime fields and over binary extension fields (Appendix A). *)

type 'a batch = {
  width : int;  (** bytes per packed element *)
  pack : 'a array -> Bytes.t;
  unpack : Bytes.t -> 'a array;
  axpy : acc:Bytes.t -> c:'a -> x:Bytes.t -> unit;
      (** [acc.(i) <- acc.(i) + c·x.(i)] for every packed element; exactly
          one multiplication and one addition per element, like the scalar
          loop it replaces. *)
  dot : Bytes.t -> Bytes.t -> 'a;
      (** Σᵢ a.(i)·b.(i); one multiplication and one addition per
          element. *)
  scale : c:'a -> x:Bytes.t -> Bytes.t;
      (** Fresh packed vector c·x; one multiplication per element. *)
  eval_many : coeffs:'a array -> xs:Bytes.t -> Bytes.t;
      (** Horner evaluation of the (little-endian) coefficient vector at
          every packed point: |coeffs| multiplications and additions per
          point — the same count as [Poly.eval] per point. *)
}
(** A byte-packed batch backend: vectors of field elements stored [width]
    bytes each in a [Bytes.t], with the inner loops of the coding layer
    (axpy / dot / scale / Horner) running at the byte level instead of
    one boxed closure call per element.  Operation-count semantics are
    part of the contract: each function performs exactly the field
    operations of the scalar reference loop, so a counting wrapper can
    charge them in bulk and stay exact. *)

module type S = sig
  type t

  val zero : t
  val one : t

  val of_int : int -> t
  (** Canonical injection: reduces its argument into the field.  Accepts
      any int (negative ints are reduced to the equivalent residue in
      prime fields; in GF(2^m) the low [m] bits are kept). *)

  val to_int : t -> int
  (** Canonical integer representative in [\[0, order)]. *)

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t

  val inv : t -> t
  (** @raise Division_by_zero on [zero]. *)

  val div : t -> t -> t
  (** @raise Division_by_zero when the divisor is [zero]. *)

  val pow : t -> int -> t
  (** [pow x n] for any int [n] (negative exponents invert).
      [pow zero 0 = one] by convention. *)

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val is_zero : t -> bool

  val order : int
  (** Number of elements |F|.  All fields in this repo have order that
      fits in an OCaml int. *)

  val characteristic : int

  val root_of_unity : int -> t option
  (** [root_of_unity n] is a primitive n-th root of unity when one exists
      (used for NTT-based polynomial multiplication); [None] otherwise. *)

  val random : Csm_rng.t -> t
  val random_nonzero : Csm_rng.t -> t

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string

  val batch : t batch option
  (** Byte-packed batch kernels for this field, when it has them (the
      table-backed GF(2^8)/GF(2^16) instances); [None] falls back to the
      scalar functor path.  Built once, when the field is created. *)
end
