(** Lagrange coded states/commands (Section 5.1): the universal N×K
    encoding matrix and coordinate-wise vector coding. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) : sig
  module P : module type of Csm_poly.Poly.Make (F)

  module Sub : module type of Csm_poly.Subproduct.Make (F)

  type t = {
    n : int;
    k : int;
    omegas : F.t array;
    alphas : F.t array;
    cmatrix : F.t array array;
    omega_weights : F.t array;
    omega_prepared : Sub.prepared Lazy.t;
    alpha_prepared : Sub.prepared Lazy.t;
    omega_packed : Bytes.t option;
        (** the ωs packed for the field's batch kernels, if it has any;
            strict because decode fan-outs read it from several domains *)
  }

  val create : n:int -> k:int -> t
  (** Machine points 0..K−1, node points K..K+N−1.
      @raise Invalid_argument if K > N or the field is too small. *)

  val encode_scalars : t -> F.t array -> F.t array
  (** All N coded scalars: C·values. *)

  val encode_scalar_at : t -> node:int -> F.t array -> F.t
  (** One node's coded scalar in O(K). *)

  val encode_vectors : t -> F.t array array -> F.t array array
  (** Coordinate-wise coding of K equal-dimension vectors into N coded
      vectors. *)

  val encode_vector_at : t -> node:int -> F.t array array -> F.t array

  val encode_vectors_fast : t -> F.t array array -> F.t array array
  (** Quasi-linear path (fast interpolation + multipoint evaluation) used
      by the centralized worker of Section 6.2. *)

  val eval_at_omegas : t -> P.t -> F.t array
  (** Evaluate a recovered round polynomial at every ω (the decode-side
      inner loop); runs on the byte-packed batch kernels when the field
      has them, with identical operation counts to per-point Horner. *)

  val interpolant_at : t -> F.t array -> F.t -> F.t
  (** Evaluate the degree-(K−1) interpolant of the machine values at any
      point. *)
end
