(* Lagrange interpolation and the CSM coding coefficients.

   The heart of the Coded State design (Section 5.1): given machine
   points ω₁..ω_K and node points α₁..α_N, node i stores
   S̃ᵢ = u(αᵢ) = Σₖ c_{ik} Sₖ with c_{ik} = ∏_{ℓ≠k} (αᵢ−ω_ℓ)/(ω_k−ω_ℓ).
   This module provides the classic O(K²) interpolation, O(K)-per-point
   coefficient rows via barycentric weights, and the full N×K matrix C
   that INTERMIX verifies products against. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) = struct
  module P = Poly.Make (F)

  let check_distinct points =
    let n = Array.length points in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if F.equal points.(i) points.(j) then
          invalid_arg "Lagrange: evaluation points must be distinct"
      done
    done

  (* Newton interpolation via divided differences, O(n^2). *)
  let interpolate pairs =
    let n = Array.length pairs in
    if n = 0 then P.zero
    else begin
      let xs = Array.map fst pairs in
      check_distinct xs;
      (* divided-difference coefficients *)
      let dd = Array.map snd pairs in
      for j = 1 to n - 1 do
        for i = n - 1 downto j do
          dd.(i) <-
            F.div (F.sub dd.(i) dd.(i - 1)) (F.sub xs.(i) xs.(i - j))
        done
      done;
      (* expand the Newton form Σ dd_i ∏_{j<i} (z - x_j) *)
      let acc = ref P.zero in
      for i = n - 1 downto 0 do
        acc := P.add (P.mul !acc [| F.neg xs.(i); F.one |]) (P.constant dd.(i))
      done;
      !acc
    end

  (* Montgomery's trick: invert a whole batch with a single field
     inversion and 3(n−1) multiplications, instead of n inversions.
     Inversions cost ~[Counter.inv_weight] multiplications each, so this
     is the difference between O(n log p) and O(n + log p) per batch.
     @raise Division_by_zero when any element is zero. *)
  let batch_inv xs =
    let n = Array.length xs in
    if n = 0 then [||]
    else begin
      let prefix = Array.make n F.one in
      let acc = ref F.one in
      for i = 0 to n - 1 do
        prefix.(i) <- !acc;
        (* prefix.(i) = x₀·…·x_{i−1} *)
        acc := F.mul !acc xs.(i)
      done;
      let out = Array.make n F.zero in
      let tail = ref (F.inv !acc) in
      (* tail = 1/(x₀·…·x_i) on entry to iteration i *)
      for i = n - 1 downto 0 do
        out.(i) <- F.mul !tail prefix.(i);
        tail := F.mul !tail xs.(i)
      done;
      out
    end

  (* Barycentric weights w_k = 1 / ∏_{ℓ≠k} (ω_k − ω_ℓ), O(n²)
     multiplications and — via [batch_inv] — one inversion total. *)
  let barycentric_weights points =
    check_distinct points;
    let n = Array.length points in
    let prods =
      Array.init n (fun k ->
          let prod = ref F.one in
          for l = 0 to n - 1 do
            if l <> k then prod := F.mul !prod (F.sub points.(k) points.(l))
          done;
          !prod)
    in
    batch_inv prods

  (* Row of Lagrange-basis values ℓ_k(x) for all k, computed in O(n) from
     precomputed weights using prefix/suffix products of (x − ω_ℓ).
     If x coincides with some ω_j the row is the indicator of j. *)
  let coeff_row ~points ~weights x =
    let n = Array.length points in
    let hit = ref (-1) in
    for j = 0 to n - 1 do
      if F.equal x points.(j) then hit := j
    done;
    if !hit >= 0 then
      Array.init n (fun k -> if k = !hit then F.one else F.zero)
    else begin
      let prefix = Array.make (n + 1) F.one in
      for i = 0 to n - 1 do
        prefix.(i + 1) <- F.mul prefix.(i) (F.sub x points.(i))
      done;
      let suffix = Array.make (n + 1) F.one in
      for i = n - 1 downto 0 do
        suffix.(i) <- F.mul suffix.(i + 1) (F.sub x points.(i))
      done;
      Array.init n (fun k ->
          F.mul (F.mul prefix.(k) suffix.(k + 1)) weights.(k))
    end

  (* The N×K encoding matrix C = [c_{ik}] of Section 5.1, row i being the
     Lagrange-basis values at αᵢ. *)
  let coeff_matrix ~omegas ~alphas =
    let weights = barycentric_weights omegas in
    Array.map (fun alpha -> coeff_row ~points:omegas ~weights alpha) alphas

  (* Encode one scalar per machine into one coded scalar per node:
     x̃ᵢ = Σₖ c_{ik} xₖ. *)
  let encode_with_matrix matrix values =
    Array.map
      (fun row ->
        let acc = ref F.zero in
        Array.iteri (fun k c -> acc := F.add !acc (F.mul c values.(k))) row;
        !acc)
      matrix

  (* Barycentric evaluation of the interpolant at x, O(n) given weights. *)
  let eval_barycentric ~points ~weights ~values x =
    let row = coeff_row ~points ~weights x in
    let acc = ref F.zero in
    Array.iteri (fun k c -> acc := F.add !acc (F.mul c values.(k))) row;
    !acc

  (* Distinct evaluation points 0, 1, ..., n-1 injected into F (requires
     |F| >= total).  [offset] lets callers place ωs and αs on disjoint
     ranges, matching the paper's "arbitrary distinct elements". *)
  let standard_points ?(offset = 0) n =
    if offset + n > F.order then
      invalid_arg "Lagrange.standard_points: field too small";
    Array.init n (fun i -> F.of_int (offset + i))
end
