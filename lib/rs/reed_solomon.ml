(* Reed–Solomon codes over arbitrary evaluation points.

   CSM's execution phase is exactly noisy polynomial interpolation: the N
   coded results g_i = h(α_i) form an RS codeword of dimension
   d(K−1)+1 and length N, with up to b arbitrary errors (Section 5.2).
   Erasures (withheld messages in the partially synchronous setting) are
   handled by decoding the shortened code over the received points only.

   Three decoders are provided and cross-checked in the tests:
   - Berlekamp–Welch (the paper's named choice): one linear system,
     O(n³) by Gaussian elimination;
   - Gao: partial extended Euclid on (∏(z−xᵢ), interpolant), O(n²)
     with fast interpolation;
   - optimistic: interpolate the first k received points with a
     precomputed Lagrange coefficient matrix, verify the candidate
     against the remaining points with precomputed Vandermonde rows
     (the certificate set τ of equation (9) must be everything), and
     only on a mismatch fall back to Gao, over a subproduct tree the
     context prepares once.  The fault-free round therefore costs n
     dot products of length k instead of a full error decode, run on
     the byte-packed batch kernels when the field provides them; the
     matrices and the tree are round-independent (Remark 4) and can be
     cached by the caller via [prepare_fast].

   [decode_on] is the fast path alone over a known agreement set, for
   a word whose errors an earlier decode already located;
   [verify_columns] is the fast path alone over several words, all or
   nothing, on caller-owned scratch, for a caller that decodes in full
   when any disagrees.
   [decode]
   defaults to the optimistic decoder; the rs bench pins Gao with
   [?algorithm] to measure the fast path against it. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) = struct
  module P = Csm_poly.Poly.Make (F)
  module Lag = Csm_poly.Lagrange.Make (F)
  module Sub = Csm_poly.Subproduct.Make (F)
  module M = Csm_linalg.Linalg.Make (F)
  module Span = Csm_obs.Span
  module Metric = Csm_obs.Metric
  module Tel = Csm_obs.Telemetry

  let max_errors ~n ~k =
    if n < k then invalid_arg "Reed_solomon.max_errors: n < k";
    (n - k) / 2

  let encode ~message ~points =
    if P.degree message >= Array.length points then
      invalid_arg "Reed_solomon.encode: message degree too high for length";
    Array.map (P.eval message) points

  type decoded = {
    poly : P.t;  (* the recovered message polynomial, degree < k *)
    agreement : int list;  (* indices i with poly(xᵢ) = yᵢ (the set τ) *)
    errors : int list;  (* complement: positions corrected *)
  }

  let classify ~poly pairs =
    let agreement = ref [] and errors = ref [] in
    Array.iteri
      (fun i (x, y) ->
        if F.equal (P.eval poly x) y then agreement := i :: !agreement
        else errors := i :: !errors)
      pairs;
    (List.rev !agreement, List.rev !errors)

  (* Accept a candidate only if it satisfies the unique-decoding
     certificate: agreement on at least n - e positions. *)
  let validate ~k pairs poly =
    if P.degree poly > k - 1 then None
    else begin
      let n = Array.length pairs in
      let e = max_errors ~n ~k in
      let agreement, errors = classify ~poly pairs in
      if List.length agreement >= n - e then Some { poly; agreement; errors }
      else None
    end

  (* Berlekamp–Welch.  Unknowns: Q of degree <= k-1+e and monic E of
     degree e, satisfying Q(xᵢ) = yᵢ·E(xᵢ) for every i.  With E monic
     the linear system has k+2e unknowns and n >= k+2e equations:
       Σ_j Q_j xᵢʲ − yᵢ Σ_{j<e} E_j xᵢʲ = yᵢ xᵢᵉ. *)
  let decode_bw ~k pairs =
    let n = Array.length pairs in
    if n < k then None
    else begin
      let e = max_errors ~n ~k in
      if e = 0 then
        (* No error capacity: direct interpolation on the first k points,
           then validation against all of them. *)
        let sub = Array.sub pairs 0 k in
        let poly = Lag.interpolate sub in
        validate ~k pairs poly
      else begin
        let unknowns = k + (2 * e) in
        let a =
          M.init_mat n unknowns (fun i j ->
              let x, y = pairs.(i) in
              if j < k + e then F.pow x j
              else
                (* coefficient of E_{j-(k+e)} *)
                F.neg (F.mul y (F.pow x (j - (k + e)))))
        in
        let b =
          Array.map (fun (x, y) -> F.mul y (F.pow x e)) pairs
        in
        match M.solve a b with
        | None -> None
        | Some sol ->
          let q = P.normalize (Array.sub sol 0 (k + e)) in
          let e_coeffs = Array.make (e + 1) F.one in
          Array.blit sol (k + e) e_coeffs 0 e;
          let e_poly = P.normalize e_coeffs in
          let f, r = P.divmod q e_poly in
          if not (P.is_zero r) then None else validate ~k pairs f
      end
    end

  (* Gao decoder: partial extended Euclid on g₀ = ∏(z−xᵢ) and the full
     interpolant g₁, stopping when the remainder degree drops below
     ⌈(n+k)/2⌉; then f = g/v if the division is exact.  [gao_from]
     takes g₀ and g₁ from the caller, which may have prepared their
     tree once for the point set. *)
  let gao_from ~k pairs ~g0 ~g1 =
    if P.degree g1 <= k - 1 then validate ~k pairs g1
    else begin
      let stop = (Array.length pairs + k + 1) / 2 in
      let g, _u, v = P.xgcd_until ~stop g0 g1 in
      if P.is_zero v then None
      else
        let f, r = P.divmod g v in
        if not (P.is_zero r) then None else validate ~k pairs f
    end

  let decode_gao ~k pairs =
    if Array.length pairs < k then None
    else begin
      let tree = Sub.build (Array.map fst pairs) in
      gao_from ~k pairs ~g0:(Sub.root_poly tree)
        ~g1:(Sub.interpolate_tree tree (Array.map snd pairs))
    end

  (* ----- optimistic fast path ----- *)

  (* Round-independent precomputation for a fixed received-point set —
     the Remark-4 argument applied to decoding.  Two matrices:

       fc_interp  k×k     row i maps the first-k received values to
                          coefficient i of their interpolant (the
                          transposed Lagrange-basis coefficients)
       fc_vand    (n−k)×k row j evaluates a coefficient vector at tail
                          point x_{k+j} (Vandermonde row)

     so the per-round fast path is nothing but n dot products of length
     k — and when the field exposes byte-packed batch kernels the rows
     are additionally pre-packed (fc_interp_b / fc_vand_b) so each dot
     runs on Bytes with identical op counts.  The head needs no
     verification: interpolation is exact on its own points.

     [fc_tree] is the prepared subproduct tree over all n points that
     the Gao fallback runs on (its root ∏(z−xᵢ) and the inverted
     m'(xᵢ) do not depend on the values).  The first fallback through
     the context fills it, so a point set that only ever decodes clean
     words never builds it.  Two domains falling back at once each
     build an equal tree and one is kept, so the context stays safe to
     share. *)
  type fast_ctx = {
    fc_points : F.t array;
    fc_k : int;
    fc_interp : F.t array array;
    fc_vand : F.t array array;
    fc_interp_b : Bytes.t array option;
    fc_vand_b : Bytes.t array option;
    fc_tree : Sub.prepared option Atomic.t;
  }

  (* Room for the fast path's matrices over up to [n] points, and the
     candidates of up to [words] words: [prepare_fast] fills one for a
     context, and [verify_columns] refills a caller's on every call,
     for point sets that change from call to call (the reporters of an
     early quorum), so such a call allocates only the polynomials it
     returns. *)
  type scratch = {
    sc_k : int;
    sc_m : F.t array;  (* k + 1: ∏ (z − xⱼ) over the head *)
    sc_q : F.t array;  (* k: one Lagrange basis polynomial *)
    sc_interp : F.t array array;  (* k × k, as [fc_interp] *)
    sc_vand : F.t array array;  (* (n − k) × k, as [fc_vand] *)
    sc_coeffs : F.t array array;  (* words × k: each word's candidate *)
  }

  let scratch ~k ~n ~words =
    if n < k || k < 1 then invalid_arg "Reed_solomon.scratch";
    {
      sc_k = k;
      sc_m = Array.make (k + 1) F.zero;
      sc_q = Array.make k F.zero;
      sc_interp = Array.init k (fun _ -> Array.make k F.zero);
      sc_vand = Array.init (n - k) (fun _ -> Array.make k F.zero);
      sc_coeffs = Array.init words (fun _ -> Array.make k F.zero);
    }

  (* The matrices for the first [m] of [points], into [sc]. *)
  let prepare_scratch sc points m =
    let k = sc.sc_k and mp = sc.sc_m and q = sc.sc_q in
    (* m(z) = ∏ⱼ (z − xⱼ) over the head, expanded incrementally *)
    Array.fill mp 0 (k + 1) F.zero;
    mp.(0) <- F.one;
    for j = 0 to k - 1 do
      let x = points.(j) in
      for i = j + 1 downto 1 do
        mp.(i) <- F.sub mp.(i - 1) (F.mul x mp.(i))
      done;
      mp.(0) <- F.neg (F.mul x mp.(0))
    done;
    (* Lagrange basis Lⱼ = m/(z−xⱼ) · 1/m'(xⱼ): synthetic division
       gives qⱼ = m/(z−xⱼ), and m'(xⱼ) = qⱼ(xⱼ); Lⱼ is column j *)
    for j = 0 to k - 1 do
      let x = points.(j) in
      q.(k - 1) <- mp.(k);
      for i = k - 1 downto 1 do
        q.(i - 1) <- F.add mp.(i) (F.mul x q.(i))
      done;
      let at_x = ref F.zero in
      for i = k - 1 downto 0 do
        at_x := F.add (F.mul !at_x x) q.(i)
      done;
      let w = F.inv !at_x in
      for i = 0 to k - 1 do
        sc.sc_interp.(i).(j) <- F.mul w q.(i)
      done
    done;
    for t = 0 to m - k - 1 do
      let x = points.(k + t) and row = sc.sc_vand.(t) in
      row.(0) <- F.one;
      for i = 1 to k - 1 do
        row.(i) <- F.mul row.(i - 1) x
      done
    done

  let prepare_fast ~k points =
    let n = Array.length points in
    if n < k || k < 1 then invalid_arg "Reed_solomon.prepare_fast";
    let sc = scratch ~k ~n ~words:0 in
    prepare_scratch sc points n;
    let interp_b, vand_b =
      match F.batch with
      | None -> (None, None)
      | Some b ->
        ( Some (Array.map b.Field_intf.pack sc.sc_interp),
          Some (Array.map b.Field_intf.pack sc.sc_vand) )
    in
    {
      fc_points = Array.copy points;
      fc_k = k;
      fc_interp = sc.sc_interp;
      fc_vand = sc.sc_vand;
      fc_interp_b = interp_b;
      fc_vand_b = vand_b;
      fc_tree = Atomic.make None;
    }

  let ctx_matches ctx ~k points =
    ctx.fc_k = k
    && Array.length ctx.fc_points = Array.length points
    && (let ok = ref true in
        Array.iteri
          (fun i x -> if not (F.equal x ctx.fc_points.(i)) then ok := false)
          points;
        !ok)

  let prepared_tree ctx =
    match Atomic.get ctx.fc_tree with
    | Some tree -> tree
    | None ->
      let tree = Sub.prepare ctx.fc_points in
      Atomic.set ctx.fc_tree (Some tree);
      tree

  let record_fastpath outcome =
    if Metric.enabled () then Metric.inc (Tel.rs_fastpath ~outcome)

  (* The fast path's scalar loop over one word, column [j] of [rows]
     (its value at point i is [rows.(i).(j)]): interpolate the head
     through [interp] into [coeffs], then walk the tail's [vand] rows up
     to point [m], bailing at the first disagreeing point. *)
  let verify_column ~interp ~vand ~coeffs ~rows ~m j =
    let k = Array.length coeffs in
    for i = 0 to k - 1 do
      let row = interp.(i) in
      let acc = ref F.zero in
      for l = 0 to k - 1 do
        acc := F.add !acc (F.mul row.(l) rows.(l).(j))
      done;
      coeffs.(i) <- !acc
    done;
    let ok = ref true and t = ref 0 in
    while !ok && !t < m - k do
      let row = vand.(!t) in
      let acc = ref F.zero in
      for l = 0 to k - 1 do
        acc := F.add !acc (F.mul row.(l) coeffs.(l))
      done;
      if F.equal !acc rows.(k + !t).(j) then incr t else ok := false
    done;
    !ok

  (* The fast path on its own, over [pairs] at the context's points:
     n dot products of length k — interpolate through the head, then
     walk the tail Vandermonde rows, bailing at the first disagreeing
     point.  [Some] candidate only when it explains every value.  The
     scalar loop and the byte-packed kernels charge identical op
     counts, so ledgers are backend-independent. *)
  let verify ctx pairs =
    Span.with_ ~name:"rs.fastpath" (fun () ->
        let k = ctx.fc_k in
        let coeffs, ok =
          match (F.batch, ctx.fc_interp_b, ctx.fc_vand_b) with
          | Some b, Some irows, Some vrows ->
            let hv = b.Field_intf.pack (Array.init k (fun i -> snd pairs.(i))) in
            let coeffs = Array.map (fun row -> b.Field_intf.dot row hv) irows in
            let cv = b.Field_intf.pack coeffs in
            let ok = ref true and j = ref 0 in
            while !ok && !j < Array.length vrows do
              if F.equal (b.Field_intf.dot vrows.(!j) cv) (snd pairs.(k + !j)) then
                incr j
              else ok := false
            done;
            (coeffs, !ok)
          | _ ->
            (* one word: the column of one-value rows *)
            let coeffs = Array.make k F.zero in
            ( coeffs,
              verify_column ~interp:ctx.fc_interp ~vand:ctx.fc_vand ~coeffs
                ~rows:(Array.map (fun (_, y) -> [| y |]) pairs)
                ~m:(Array.length pairs) 0 )
        in
        if ok then Some (P.normalize coeffs) else None)

  (* Optimistic decode: accept the fast path's candidate when it
     explains every point (zero errors — the common fault-free round),
     otherwise run Gao on the context's prepared tree.  For k ≥ 1 the
     result is [decode_gao]'s on every input: the fast path only ever
     accepts a zero-error full agreement, which Gao also finds, and the
     prepared tree yields Gao's g₀ and g₁. *)
  let decode_optimistic ?ctx ~k pairs =
    let n = Array.length pairs in
    if n < k || k < 1 then None
    else begin
      let points = Array.map fst pairs in
      let ctx =
        match ctx with
        | Some c when ctx_matches c ~k points -> c
        | _ -> prepare_fast ~k points
      in
      match verify ctx pairs with
      | Some poly ->
        record_fastpath "hit";
        Some { poly; agreement = List.init n Fun.id; errors = [] }
      | None ->
        let tree = prepared_tree ctx in
        let d =
          gao_from ~k pairs ~g0:(Sub.root_prepared tree)
            ~g1:(Sub.interpolate_prepared tree (Array.map snd pairs))
        in
        if Option.is_some d then record_fastpath "fallback";
        d
    end

  type algorithm = Gao | Optimistic

  let algorithm_name = function Gao -> "gao" | Optimistic -> "optimistic"

  let count_decode algorithm result =
    if Metric.enabled () then
      match result with
      | Some d ->
        Metric.inc
          (Tel.rs_decodes ~algorithm
             ~outcome:(if d.errors = [] then "clean" else "corrected"));
        if d.errors <> [] then
          Metric.inc ~by:(List.length d.errors) (Tel.rs_corrected_symbols ())
      | None -> Metric.inc (Tel.rs_decodes ~algorithm ~outcome:"failed")

  let decode ?(algorithm = Optimistic) ?ctx ~k pairs =
    Span.with_ ~name:"rs.decode" (fun () ->
        let result =
          match algorithm with
          | Gao -> decode_gao ~k pairs
          | Optimistic -> decode_optimistic ?ctx ~k pairs
        in
        count_decode (algorithm_name algorithm) result;
        result)

  (* Word [j] of [rows] on [sc]'s matrices. *)
  let column sc ~rows ~m j =
    verify_column ~interp:sc.sc_interp ~vand:sc.sc_vand ~coeffs:sc.sc_coeffs.(j) ~rows ~m j

  (* [verify] over the [dim] column words of [rows], all or nothing, on
     [sc] rebuilt for the first [m] of [points]. *)
  let verify_columns sc ~points ~rows ~m ~dim =
    let k = sc.sc_k in
    if m < k || m - k > Array.length sc.sc_vand || dim > Array.length sc.sc_coeffs then
      None
    else begin
      prepare_scratch sc points m;
      let ok = ref true and j = ref 0 in
      while !ok && !j < dim do
        let w = !j in
        if Span.enabled () then
          ok := Span.with_ ~name:"rs.fastpath" (fun () -> column sc ~rows ~m w)
        else ok := column sc ~rows ~m w;
        incr j
      done;
      if not !ok then None
      else begin
        let polys = Array.make dim P.zero in
        for j = 0 to dim - 1 do
          polys.(j) <- P.normalize (Array.copy sc.sc_coeffs.(j));
          (* each word counts as a clean optimistic hit, as [decode]
             counts one *)
          if Metric.enabled () then begin
            record_fastpath "hit";
            Metric.inc (Tel.rs_decodes ~algorithm:(algorithm_name Optimistic) ~outcome:"clean")
          end
        done;
        Some polys
      end
    end

  (* Does [ctx] hold the points of [pairs] at positions [on], which
     must rise strictly within the word? *)
  let fits_on ctx ~on ~k pairs =
    let n = Array.length pairs in
    ctx.fc_k = k
    && Array.length ctx.fc_points = Array.length on
    && (let ok = ref true and prev = ref (-1) in
        Array.iteri
          (fun i p ->
            if p <= !prev || p >= n || not (F.equal ctx.fc_points.(i) (fst pairs.(p)))
            then ok := false
            else prev := p)
          on;
        !ok)

  (* The verify-only fast path over a known agreement set: [on] holds
     at least n − e positions and [ctx] their points.  A candidate that
     explains every value at [on] is the unique decode within the
     radius — another polynomial of degree < k agreeing with n − e
     values would share n − 2e ≥ k of them with it — so it is
     [decode_gao]'s answer, and only the positions outside [on] are
     evaluated, to classify them.  No fallback: [None] when the
     candidate does not verify or [on]/[ctx] do not fit, and the caller
     decodes in full.  Counted like a [decode], as optimistic. *)
  let decode_on ~ctx ~on ~k pairs =
    let n = Array.length pairs in
    if k < 1 || n < k || Array.length on < n - max_errors ~n ~k
       || not (fits_on ctx ~on ~k pairs)
    then None
    else
      Span.with_ ~name:"rs.decode" (fun () ->
          match verify ctx (Array.map (fun i -> pairs.(i)) on) with
          | None -> None
          | Some poly ->
            let inside = Array.make n false in
            Array.iter (fun i -> inside.(i) <- true) on;
            let agreement = ref [] and errors = ref [] in
            for i = n - 1 downto 0 do
              let x, y = pairs.(i) in
              if inside.(i) || F.equal (P.eval poly x) y then
                agreement := i :: !agreement
              else errors := i :: !errors
            done;
            let d = Some { poly; agreement = !agreement; errors = !errors } in
            record_fastpath "located";
            count_decode (algorithm_name Optimistic) d;
            d)

  (* Corrupt a codeword in [count] distinct positions chosen by [rng],
     guaranteeing each corrupted symbol actually changes.  Test/adversary
     utility. *)
  let corrupt rng ~count codeword =
    let n = Array.length codeword in
    if count > n then invalid_arg "Reed_solomon.corrupt: count > n";
    let word = Array.copy codeword in
    let idx = Csm_rng.sample rng ~n ~k:count in
    Array.iter
      (fun i ->
        let rec fresh () =
          let v = F.random rng in
          if F.equal v codeword.(i) then fresh () else v
        in
        word.(i) <- fresh ())
      idx;
    (word, Array.to_list idx |> List.sort Int.compare)
end
