(* Dense univariate polynomials over an arbitrary finite field.

   Representation: [t] is an array of coefficients, little-endian
   (index i holds the coefficient of z^i), with no trailing zeros; the
   zero polynomial is the empty array.  All functions preserve this
   normal form.

   Multiplication dispatches between schoolbook (small), Karatsuba
   (generic fields) and radix-2 NTT (fields exposing suitable roots of
   unity, e.g. the default prime 15·2^27+1), which is what gives the
   quasi-linear coding complexity of Section 6.2. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) = struct
  module F = F

  type t = F.t array

  let zero : t = [||]

  let is_zero (p : t) = Array.length p = 0

  let degree (p : t) = Array.length p - 1
  (* degree of the zero polynomial is -1 by convention *)

  let normalize (a : F.t array) : t =
    let n = Array.length a in
    let rec last i = if i >= 0 && F.is_zero a.(i) then last (i - 1) else i in
    let d = last (n - 1) in
    if d = n - 1 then a else Array.sub a 0 (d + 1)

  let of_coeffs a = normalize (Array.copy a)

  let to_coeffs (p : t) = Array.copy p

  let coeff (p : t) i =
    if i < 0 || i >= Array.length p then F.zero else p.(i)

  let constant c = if F.is_zero c then zero else [| c |]

  let one : t = [| F.one |]

  (* The monomial c * z^n. *)
  let monomial c n =
    if F.is_zero c then zero
    else begin
      let a = Array.make (n + 1) F.zero in
      a.(n) <- c;
      a
    end

  let equal (p : t) (q : t) =
    Array.length p = Array.length q
    && (let ok = ref true in
        Array.iteri (fun i c -> if not (F.equal c q.(i)) then ok := false) p;
        !ok)

  let eval (p : t) x =
    (* Horner's rule. *)
    let acc = ref F.zero in
    for i = Array.length p - 1 downto 0 do
      acc := F.add (F.mul !acc x) p.(i)
    done;
    !acc

  let add (p : t) (q : t) =
    let n = max (Array.length p) (Array.length q) in
    normalize
      (Array.init n (fun i ->
           F.add
             (if i < Array.length p then p.(i) else F.zero)
             (if i < Array.length q then q.(i) else F.zero)))

  let sub (p : t) (q : t) =
    let n = max (Array.length p) (Array.length q) in
    normalize
      (Array.init n (fun i ->
           F.sub
             (if i < Array.length p then p.(i) else F.zero)
             (if i < Array.length q then q.(i) else F.zero)))

  let neg (p : t) = Array.map F.neg p

  let scale c (p : t) =
    if F.is_zero c then zero else normalize (Array.map (F.mul c) p)

  let shift (p : t) n =
    (* multiply by z^n *)
    if is_zero p then zero
    else begin
      let a = Array.make (Array.length p + n) F.zero in
      Array.blit p 0 a n (Array.length p);
      a
    end

  let mul_schoolbook (p : t) (q : t) =
    if is_zero p || is_zero q then zero
    else begin
      let np = Array.length p and nq = Array.length q in
      let r = Array.make (np + nq - 1) F.zero in
      for i = 0 to np - 1 do
        if not (F.is_zero p.(i)) then
          for j = 0 to nq - 1 do
            r.(i + j) <- F.add r.(i + j) (F.mul p.(i) q.(j))
          done
      done;
      normalize r
    end

  let karatsuba_threshold = 32

  let rec mul_karatsuba (p : t) (q : t) =
    let np = Array.length p and nq = Array.length q in
    if np = 0 || nq = 0 then zero
    else if min np nq <= karatsuba_threshold then mul_schoolbook p q
    else begin
      let h = (max np nq + 1) / 2 in
      let lo (a : t) = normalize (Array.sub a 0 (min h (Array.length a))) in
      let hi (a : t) =
        if Array.length a <= h then zero
        else normalize (Array.sub a h (Array.length a - h))
      in
      let p0 = lo p and p1 = hi p and q0 = lo q and q1 = hi q in
      let z0 = mul_karatsuba p0 q0 in
      let z2 = mul_karatsuba p1 q1 in
      let z1 = sub (sub (mul_karatsuba (add p0 p1) (add q0 q1)) z0) z2 in
      add z0 (add (shift z1 h) (shift z2 (2 * h)))
    end

  (* ---- Radix-2 NTT multiplication (fields with 2^k-th roots) ---- *)

  let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

  (* In-place iterative Cooley-Tukey over F, length a power of two. *)
  let ntt_inplace (a : F.t array) root =
    let n = Array.length a in
    (* bit-reversal permutation *)
    let j = ref 0 in
    for i = 1 to n - 1 do
      let bit = ref (n lsr 1) in
      while !j land !bit <> 0 do
        j := !j lxor !bit;
        bit := !bit lsr 1
      done;
      j := !j lor !bit;
      if i < !j then begin
        let tmp = a.(i) in
        a.(i) <- a.(!j);
        a.(!j) <- tmp
      end
    done;
    let len = ref 2 in
    while !len <= n do
      let w_len = F.pow root (n / !len) in
      let half = !len / 2 in
      let i = ref 0 in
      while !i < n do
        let w = ref F.one in
        for k = 0 to half - 1 do
          let u = a.(!i + k) in
          let v = F.mul a.(!i + k + half) !w in
          a.(!i + k) <- F.add u v;
          a.(!i + k + half) <- F.sub u v;
          w := F.mul !w w_len
        done;
        i := !i + !len
      done;
      len := !len * 2
    done

  let ntt_available n =
    match F.root_of_unity (next_pow2 n 1) with
    | Some _ -> true
    | None -> false

  let mul_ntt (p : t) (q : t) =
    let np = Array.length p and nq = Array.length q in
    let size = next_pow2 (np + nq - 1) 1 in
    match F.root_of_unity size with
    | None -> invalid_arg "Poly.mul_ntt: field lacks required root of unity"
    | Some root ->
      let a = Array.make size F.zero and b = Array.make size F.zero in
      Array.blit p 0 a 0 np;
      Array.blit q 0 b 0 nq;
      ntt_inplace a root;
      ntt_inplace b root;
      for i = 0 to size - 1 do
        a.(i) <- F.mul a.(i) b.(i)
      done;
      ntt_inplace a (F.inv root);
      let n_inv = F.inv (F.of_int size) in
      normalize (Array.map (F.mul n_inv) a)

  let ntt_threshold = 64

  let mul (p : t) (q : t) =
    let np = Array.length p and nq = Array.length q in
    if np = 0 || nq = 0 then zero
    else if min np nq <= karatsuba_threshold then mul_schoolbook p q
    else if np + nq >= ntt_threshold && ntt_available (np + nq - 1) then
      mul_ntt p q
    else mul_karatsuba p q

  (* Euclidean division, schoolbook: p = q * d + r with deg r < deg d. *)
  let divmod_schoolbook (p : t) (d : t) =
    if is_zero d then raise Division_by_zero;
    let dd = degree d in
    let lead_inv = F.inv d.(dd) in
    let r = Array.copy p in
    let dp = degree p in
    if dp < dd then (zero, normalize r)
    else begin
      let q = Array.make (dp - dd + 1) F.zero in
      for i = dp - dd downto 0 do
        let c = F.mul r.(i + dd) lead_inv in
        q.(i) <- c;
        if not (F.is_zero c) then
          for j = 0 to dd do
            r.(i + j) <- F.sub r.(i + j) (F.mul c d.(j))
          done
      done;
      (normalize q, normalize (Array.sub r 0 dd))
    end

  let truncate (a : t) m =
    if Array.length a <= m then a else normalize (Array.sub a 0 m)

  (* Power-series inverse: x with d·x ≡ 1 (mod z^m), by Newton iteration
     x' = x + x·(1 − d·x), which doubles the precision per step and is
     valid in any characteristic.
     @raise Invalid_argument when d(0) = 0. *)
  let inv_series (d : t) m =
    if is_zero d || F.is_zero d.(0) then
      invalid_arg "Poly.inv_series: constant term is zero";
    if m <= 0 then invalid_arg "Poly.inv_series: m must be positive";
    let x = ref [| F.inv d.(0) |] in
    let prec = ref 1 in
    while !prec < m do
      prec := min m (2 * !prec);
      let dk = truncate d !prec in
      let e = sub one (truncate (mul dk !x) !prec) in
      x := truncate (add !x (mul !x e)) !prec
    done;
    !x

  (* Reverse coefficients with respect to a stated degree bound. *)
  let reverse (p : t) ~bound =
    Array.init (bound + 1) (fun i -> coeff p (bound - i))

  (* Fast Euclidean division via the reversal trick:
       rev(q) = rev(p)·rev(d)^{-1} mod z^{deg p − deg d + 1},
     costing O(M(deg p)).  Used by the remainder trees of the §6.2
     quasi-linear coding path. *)
  let divmod_fast (p : t) (d : t) =
    if is_zero d then raise Division_by_zero;
    let dp = degree p and dd = degree d in
    if dp < dd then (zero, p)
    else begin
      let k = dp - dd + 1 in
      let rev_d = normalize (reverse d ~bound:dd) in
      let rev_p = normalize (reverse p ~bound:dp) in
      let inv = inv_series rev_d k in
      let q_rev = truncate (mul rev_p inv) k in
      let q = normalize (reverse q_rev ~bound:(k - 1)) in
      let r = sub p (mul q d) in
      (q, r)
    end

  (* Fast division pays ~3 middle-sized multiplications; worth it only
     when NTT multiplication is available and the operands are large. *)
  let divmod_threshold = 64

  let divmod (p : t) (d : t) =
    let dp = degree p and dd = degree d in
    if
      dd >= divmod_threshold
      && dp - dd >= divmod_threshold
      && ntt_available (dp + 1)
    then divmod_fast p d
    else divmod_schoolbook p d

  let div p d = fst (divmod p d)
  let rem p d = snd (divmod p d)

  let rec gcd (p : t) (q : t) =
    if is_zero q then p else gcd q (rem p q)

  (* Extended Euclid with early stopping: returns (r, u, v) with
     r = u*p + v*q, for the FIRST remainder with deg r < [stop] (or the
     gcd when [stop] is negative).  The early-stopped form is exactly
     what the Gao Reed-Solomon decoder needs.  Note that the zero
     remainder qualifies: when the remainder sequence collapses to zero
     before reaching the degree bound (e.g. decoding a codeword of the
     zero polynomial), zero is the remainder to return, with its Bezout
     coefficients. *)
  let xgcd_until ?(stop = -1) (p : t) (q : t) =
    let rec go r0 r1 u0 u1 v0 v1 =
      if stop >= 0 && degree r0 < stop then (r0, u0, v0)
      else if is_zero r1 then
        if stop >= 0 then (r1, u1, v1) else (r0, u0, v0)
      else
        let q', r2 = divmod r0 r1 in
        go r1 r2 u1 (sub u0 (mul q' u1)) v1 (sub v0 (mul q' v1))
    in
    go p q one zero zero one

  let xgcd p q = xgcd_until ~stop:(-1) p q

  (* The canonical image of a natural number in F: n·1.  For prime
     fields this is [of_int]; for extension fields [of_int] is a bit
     pattern, not the ring homomorphism, so reduce mod the characteristic
     and add ones (the characteristic of our extension fields is 2, so
     this costs at most one addition). *)
  let nat_scalar n =
    let r = n mod F.characteristic in
    let r = if r < 0 then r + F.characteristic else r in
    if F.characteristic = F.order then F.of_int r
    else begin
      let acc = ref F.zero in
      for _ = 1 to r do
        acc := F.add !acc F.one
      done;
      !acc
    end

  let derivative (p : t) =
    if Array.length p <= 1 then zero
    else
      normalize
        (Array.init (Array.length p - 1) (fun i ->
             F.mul (nat_scalar (i + 1)) p.(i + 1)))

  (* ∏ (z - r_i), built by balanced products for quasi-linear growth. *)
  let of_roots roots =
    let n = Array.length roots in
    if n = 0 then one
    else begin
      let rec build lo hi =
        if lo = hi then [| F.neg roots.(lo); F.one |]
        else
          let mid = (lo + hi) / 2 in
          mul (build lo mid) (build (mid + 1) hi)
      in
      build 0 (n - 1)
    end

  let random rng ~degree:d =
    if d < 0 then zero
    else begin
      let a = Array.init (d + 1) (fun _ -> F.random rng) in
      a.(d) <- F.random_nonzero rng;
      a
    end

  let pp ppf (p : t) =
    if is_zero p then Format.pp_print_string ppf "0"
    else begin
      let first = ref true in
      for i = Array.length p - 1 downto 0 do
        if not (F.is_zero p.(i)) then begin
          if not !first then Format.pp_print_string ppf " + ";
          first := false;
          if i = 0 then F.pp ppf p.(i)
          else if F.equal p.(i) F.one then Format.fprintf ppf "z^%d" i
          else Format.fprintf ppf "%a*z^%d" F.pp p.(i) i
        end
      done
    end

  let to_string p = Format.asprintf "%a" pp p
end
