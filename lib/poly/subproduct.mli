(** Subproduct trees: quasi-linear multipoint evaluation and
    interpolation — the fast coding path of Section 6.2. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) : sig
  module P : module type of Poly.Make (F)

  type tree

  val build : F.t array -> tree
  (** Balanced subproduct tree over the given points.
      @raise Invalid_argument on an empty point set. *)

  val root_poly : tree -> P.t
  (** m(z) = ∏ᵢ (z − xᵢ). *)

  val eval_tree : P.t -> tree -> F.t array
  (** Remainder-tree evaluation of a polynomial at every leaf point. *)

  val eval_all : P.t -> F.t array -> F.t array
  (** [eval_all p points] evaluates p at each point in O(M(n)·log n). *)

  val interpolate_tree : tree -> F.t array -> P.t
  (** Fast interpolation given a prebuilt tree and the values at its
      leaves (in leaf order = original point order). *)

  val interpolate : F.t array -> F.t array -> P.t
  (** Fast interpolation through (pointsᵢ, valuesᵢ).
      @raise Invalid_argument on length mismatch. *)

  type prepared
  (** Round-independent precomputation for a fixed point set (the tree
      and the inverted m'(xᵢ) values — the Remark-4 argument). *)

  val prepare : F.t array -> prepared

  val root_prepared : prepared -> P.t
  (** m(z) = ∏ᵢ (z − xᵢ) over the prepared points. *)

  val interpolate_prepared : prepared -> F.t array -> P.t
  (** Per-round interpolation cost only: O(M(n)·log n). *)

  val eval_prepared : prepared -> P.t -> F.t array
  (** Multipoint evaluation at the prepared points. *)
end
