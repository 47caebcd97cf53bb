(** Dense univariate polynomials over a finite field.

    Coefficients are little-endian ([coeff p i] is the coefficient of
    z^i); the representation carries no trailing zeros and the zero
    polynomial has degree -1. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) : sig
  module F : Field_intf.S with type t = F.t

  type t = F.t array
  (** Normalized coefficient array (no trailing zero coefficients). *)

  val zero : t
  val one : t
  val is_zero : t -> bool

  val degree : t -> int
  (** [-1] for the zero polynomial. *)

  val normalize : F.t array -> t
  (** Strip trailing zeros (shares the array when already normal). *)

  val of_coeffs : F.t array -> t
  (** Copying constructor from a little-endian coefficient array. *)

  val to_coeffs : t -> F.t array

  val coeff : t -> int -> F.t
  (** Coefficient of z^i, zero beyond the degree. *)

  val constant : F.t -> t
  val monomial : F.t -> int -> t

  val equal : t -> t -> bool

  val eval : t -> F.t -> F.t
  (** Horner evaluation: [degree p] multiplications and additions. *)

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val scale : F.t -> t -> t

  val shift : t -> int -> t
  (** [shift p n] is p·z^n. *)

  val mul_schoolbook : t -> t -> t
  val mul_karatsuba : t -> t -> t

  val mul_ntt : t -> t -> t
  (** Radix-2 NTT multiplication.
      @raise Invalid_argument if the field lacks the required root of
      unity. *)

  val ntt_available : int -> bool
  (** Whether the field supports NTT of the next power of two ≥ n. *)

  val mul : t -> t -> t
  (** Dispatches schoolbook / Karatsuba / NTT on size and field support. *)

  val divmod : t -> t -> t * t
  (** [divmod p d = (q, r)] with p = q·d + r and deg r < deg d;
      dispatches between schoolbook and fast (Newton) division.
      @raise Division_by_zero if [d] is zero. *)

  val divmod_schoolbook : t -> t -> t * t

  val divmod_fast : t -> t -> t * t
  (** Division via power-series inversion of the reversed divisor:
      O(M(deg p)).  Requires no special field support (falls back to
      Karatsuba multiplication without NTT). *)

  val inv_series : t -> int -> t
  (** [inv_series d m]: x with d·x ≡ 1 (mod z^m).
      @raise Invalid_argument when d(0) = 0 or m ≤ 0. *)

  val truncate : t -> int -> t
  (** Keep coefficients of z^0..z^{m−1}. *)

  val reverse : t -> bound:int -> F.t array
  (** Coefficients reversed with respect to a stated degree bound. *)

  val div : t -> t -> t
  val rem : t -> t -> t

  val gcd : t -> t -> t

  val xgcd : t -> t -> t * t * t
  (** [xgcd p q = (g, u, v)] with g = u·p + v·q. *)

  val xgcd_until : ?stop:int -> t -> t -> t * t * t
  (** Extended Euclid stopped as soon as the remainder degree drops below
      [stop] (the partial form used by the Gao decoder); full gcd when
      [stop] is negative. *)

  val nat_scalar : int -> F.t
  (** The image of an integer under the canonical ring homomorphism
      ℤ → F (n·1), correct for extension fields too. *)

  val derivative : t -> t

  val of_roots : F.t array -> t
  (** ∏ᵢ (z − rᵢ), computed by balanced subproducts. *)

  val random : Csm_rng.t -> degree:int -> t
  (** Uniform polynomial of exactly the given degree (monic leading
      coefficient excluded from zero). *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end
