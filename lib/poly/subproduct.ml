(* Subproduct trees: fast multipoint evaluation and fast interpolation.

   These are the quasi-linear algorithms ([24,34] in the paper) that the
   centralized worker of Section 6.2 uses to encode commands at all N
   points and to interpolate the round polynomial, giving per-round
   coding complexity O(N log² N log log N) instead of O(N·K). *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) = struct
  module P = Poly.Make (F)
  module Lag = Lagrange.Make (F)

  type tree =
    | Leaf of F.t  (* the point x; subproduct is (z - x) *)
    | Node of P.t * tree * tree  (* product polynomial of the leaves below *)

  let tree_poly = function
    | Leaf x -> [| F.neg x; F.one |]
    | Node (p, _, _) -> p

  let rec build_range points lo hi =
    if lo = hi then Leaf points.(lo)
    else
      let mid = (lo + hi) / 2 in
      let left = build_range points lo mid in
      let right = build_range points (mid + 1) hi in
      Node (P.mul (tree_poly left) (tree_poly right), left, right)

  let build points =
    if Array.length points = 0 then
      invalid_arg "Subproduct.build: empty point set";
    build_range points 0 (Array.length points - 1)

  let root_poly t = tree_poly t

  (* Remainder tree: p mod each leaf's (z - x) is p(x). *)
  let eval_tree p t =
    let out = ref [] in
    let rec go p t =
      match t with
      | Leaf x ->
        let v = if P.degree p <= 0 then P.coeff p 0 else P.eval p x in
        out := v :: !out
      | Node (node_poly, left, right) ->
        let p = if P.degree p >= P.degree node_poly then P.rem p node_poly else p in
        go p left;
        go p right
    in
    go p t;
    Array.of_list (List.rev !out)

  (* Fast multipoint evaluation: p at every point, O(M(n) log n). *)
  let eval_all p points =
    if Array.length points = 0 then [||]
    else eval_tree p (build points)

  (* Fast interpolation through (points, values):
       m(z)  = ∏ (z - xᵢ)           (root of the tree)
       wᵢ    = yᵢ / m'(xᵢ)
       f(z)  = Σ wᵢ · m(z)/(z - xᵢ) combined up the tree.            *)
  let interpolate_tree t values =
    let m' = P.derivative (tree_poly t) in
    let denoms = eval_tree m' t in
    let weights = Array.mapi (fun i y -> F.div y denoms.(i)) values in
    let idx = ref 0 in
    let rec combine t =
      match t with
      | Leaf _ ->
        let w = weights.(!idx) in
        incr idx;
        P.constant w
      | Node (_, left, right) ->
        let cl = combine left in
        let cr = combine right in
        P.add (P.mul cl (tree_poly right)) (P.mul cr (tree_poly left))
    in
    combine t

  let interpolate points values =
    if Array.length points <> Array.length values then
      invalid_arg "Subproduct.interpolate: length mismatch";
    if Array.length points = 0 then P.zero
    else interpolate_tree (build points) values

  (* Precomputed context for a fixed point set: the tree and the
     inverted derivative values 1/m'(xᵢ) are round-independent (the
     same Remark-4 argument as the coefficient matrix C), leaving only
     the weight scaling and the O(M(n) log n) combination per round. *)
  type prepared = {
    p_tree : tree;
    p_inv_denoms : F.t array;  (* 1 / m'(xᵢ), leaf order *)
  }

  let prepare points =
    let t = build points in
    let m' = P.derivative (tree_poly t) in
    let denoms = eval_tree m' t in
    (* m'(xᵢ) ≠ 0 for distinct points; one inversion for the whole batch *)
    { p_tree = t; p_inv_denoms = Lag.batch_inv denoms }

  let root_prepared p = tree_poly p.p_tree

  let interpolate_prepared p values =
    let weights = Array.mapi (fun i y -> F.mul y p.p_inv_denoms.(i)) values in
    let idx = ref 0 in
    let rec combine t =
      match t with
      | Leaf _ ->
        let w = weights.(!idx) in
        incr idx;
        P.constant w
      | Node (_, left, right) ->
        let cl = combine left in
        let cr = combine right in
        P.add (P.mul cl (tree_poly right)) (P.mul cr (tree_poly left))
    in
    combine p.p_tree

  let eval_prepared p poly = eval_tree poly p.p_tree
end
