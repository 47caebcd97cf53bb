(** Dense linear algebra over a finite field: Gaussian elimination for
    Berlekamp–Welch, matrix–vector products for INTERMIX, Vandermonde
    builders for equations (8)/(9) of the paper. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) : sig
  type vec = F.t array
  type mat = F.t array array

  val rows : mat -> int
  val cols : mat -> int

  val init_mat : int -> int -> (int -> int -> F.t) -> mat
  val identity : int -> mat
  val transpose : mat -> mat

  val mat_vec : mat -> vec -> vec
  val dot : vec -> vec -> F.t

  val mat_mul : mat -> mat -> mat
  (** @raise Invalid_argument on dimension mismatch. *)

  val vec_add : vec -> vec -> vec
  val vec_equal : vec -> vec -> bool

  val rank : mat -> int

  val solve : mat -> vec -> vec option
  (** [solve a b] returns some x with A·x = b ([None] if inconsistent);
      free variables of underdetermined systems are set to zero. *)

  val inverse : mat -> mat option

  val vandermonde : vec -> cols:int -> mat
  (** [vandermonde points ~cols] is the matrix [xᵢʲ]. *)

  val random_mat : Csm_rng.t -> int -> int -> mat
  val random_vec : Csm_rng.t -> int -> vec
end
