(* Lagrange coded states and commands (Section 5.1).

   A coding context fixes the machine points ω₁..ω_K and node points
   α₁..α_N (arbitrary distinct field elements; we take 0..K−1 and
   K..K+N−1) and precomputes the N×K coefficient matrix
   C = [c_{ik}], c_{ik} = ∏_{ℓ≠k} (αᵢ−ω_ℓ)/(ω_k−ω_ℓ).

   Vectors (states and commands are elements of F^dim) are coded
   coordinate-wise: node i's coded state has the same dimension — hence
   the same size — as a single machine's state, giving γ = K. *)

module Field_intf = Csm_field.Field_intf
module Pool = Csm_parallel.Pool
module Span = Csm_obs.Span

module Make (F : Field_intf.S) = struct
  module P = Csm_poly.Poly.Make (F)
  module Lag = Csm_poly.Lagrange.Make (F)
  module Sub = Csm_poly.Subproduct.Make (F)

  type t = {
    n : int;
    k : int;
    omegas : F.t array;  (* K machine points *)
    alphas : F.t array;  (* N node points *)
    cmatrix : F.t array array;  (* N×K encoding matrix *)
    omega_weights : F.t array;  (* barycentric weights of the ωs *)
    omega_prepared : Sub.prepared Lazy.t;  (* fast-interp context (§6.2) *)
    alpha_prepared : Sub.prepared Lazy.t;  (* fast-eval context (§6.2) *)
    omega_packed : Bytes.t option;
        (* ωs packed for the byte kernels, when the field has them;
           computed here, not lazily, because every decode fan-out
           reads it from several domains at once *)
  }

  let create ~n ~k =
    if k < 1 || n < k then invalid_arg "Coding.create: need 1 <= K <= N";
    if F.order < n + k then
      invalid_arg "Coding.create: field too small for K+N distinct points";
    let omegas = Lag.standard_points k in
    let alphas = Lag.standard_points ~offset:k n in
    let cmatrix = Lag.coeff_matrix ~omegas ~alphas in
    let omega_weights = Lag.barycentric_weights omegas in
    {
      n;
      k;
      omegas;
      alphas;
      cmatrix;
      omega_weights;
      omega_prepared = lazy (Sub.prepare omegas);
      alpha_prepared = lazy (Sub.prepare alphas);
      omega_packed =
        (match F.batch () with
        | Some b -> Some (b.Field_intf.pack omegas)
        | None -> None);
    }

  (* Encode K scalars into N coded scalars: X̃ = C·X. *)
  let encode_scalars t (values : F.t array) =
    if Array.length values <> t.k then invalid_arg "Coding.encode_scalars";
    Lag.encode_with_matrix t.cmatrix values

  (* Encode one scalar for one node only (the per-node O(K) operation a
     node performs in the decentralized path). *)
  let encode_scalar_at t ~node (values : F.t array) =
    let row = t.cmatrix.(node) in
    let acc = ref F.zero in
    Array.iteri (fun j c -> acc := F.add !acc (F.mul c values.(j))) row;
    !acc

  (* Encode K vectors (one per machine, common dimension) into N coded
     vectors, coordinate-wise.  The N output rows are independent, so
     they fan out across the domain pool (each row written by index:
     bit-identical output for any domain count).

     When the field has byte-packed batch kernels (GF(2^8)/GF(2^16)) the
     K input rows are packed once and each output row is K axpy passes
     over packed vectors — the same K·dim multiplications and additions
     as the scalar loop, charged in bulk, an order of magnitude fewer
     closure calls. *)
  let encode_vectors t (vectors : F.t array array) =
    if Array.length vectors <> t.k then invalid_arg "Coding.encode_vectors";
    let dim = if t.k = 0 then 0 else Array.length vectors.(0) in
    Array.iter
      (fun v ->
        if Array.length v <> dim then
          invalid_arg "Coding.encode_vectors: ragged input")
      vectors;
    Span.with_ ~name:"coding.encode_vectors" (fun () ->
        match F.batch () with
        | Some b when dim > 0 ->
          let packed = Array.map b.Field_intf.pack vectors in
          Pool.parallel_init t.n (fun i ->
              let row = t.cmatrix.(i) in
              let acc = Bytes.make (dim * b.Field_intf.width) '\000' in
              for k = 0 to t.k - 1 do
                b.Field_intf.axpy ~acc ~c:row.(k) ~x:packed.(k)
              done;
              b.Field_intf.unpack acc)
        | _ ->
          Pool.parallel_init t.n (fun i ->
              let row = t.cmatrix.(i) in
              Array.init dim (fun j ->
                  let acc = ref F.zero in
                  for k = 0 to t.k - 1 do
                    acc := F.add !acc (F.mul row.(k) vectors.(k).(j))
                  done;
                  !acc)))

  let encode_vector_at t ~node (vectors : F.t array array) =
    let row = t.cmatrix.(node) in
    let dim = Array.length vectors.(0) in
    match F.batch () with
    | Some b when dim > 0 ->
      let acc = Bytes.make (dim * b.Field_intf.width) '\000' in
      for k = 0 to t.k - 1 do
        b.Field_intf.axpy ~acc ~c:row.(k) ~x:(b.Field_intf.pack vectors.(k))
      done;
      b.Field_intf.unpack acc
    | _ ->
      Array.init dim (fun j ->
          let acc = ref F.zero in
          for k = 0 to t.k - 1 do
            acc := F.add !acc (F.mul row.(k) vectors.(k).(j))
          done;
          !acc)

  (* Fast (quasi-linear) encoding used by the centralized worker:
     interpolate v_t(z) through (ω_k, value_k), then multipoint-evaluate
     at all αs, both with the round-independent prepared trees.
     Coordinate-wise over vectors. *)
  let encode_vectors_fast t (vectors : F.t array array) =
    Span.with_ ~name:"coding.encode_fast" (fun () ->
        let dim = Array.length vectors.(0) in
        let om = Lazy.force t.omega_prepared in
        let al = Lazy.force t.alpha_prepared in
        let per_coord j =
          let values = Array.init t.k (fun k -> vectors.(k).(j)) in
          let poly = Sub.interpolate_prepared om values in
          Sub.eval_prepared al poly
        in
        (* one interpolate+multievaluate per coordinate: the natural
           parallel unit of the centralized worker (§6.2) *)
        let coords = Pool.parallel_init ~chunk:1 dim per_coord in
        Array.init t.n (fun i -> Array.init dim (fun j -> coords.(j).(i))))

  (* Decode-side inner loop: evaluate a recovered round polynomial h_j
     at every machine point ω.  Horner per point either way — the byte
     kernels run it over the packed ωs with |coeffs| muls + adds per
     point, exactly the scalar [P.eval] count. *)
  let eval_at_omegas t (poly : P.t) =
    match (F.batch (), t.omega_packed) with
    | Some b, Some xs ->
      b.Field_intf.unpack (b.Field_intf.eval_many ~coeffs:poly ~xs)
    | _ -> Array.map (P.eval poly) t.omegas

  (* Evaluate the interpolant of the K machine values at an arbitrary
     point (used by tests to cross-check coded states). *)
  let interpolant_at t (values : F.t array) x =
    Lag.eval_barycentric ~points:t.omegas ~weights:t.omega_weights ~values x
end
