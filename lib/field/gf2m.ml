(* Binary extension fields GF(2^m), elements as m-bit ints.

   Used for the Appendix-A path: a state machine over bits is lifted to
   GF(2^m) with 2^m >= N so that Lagrange encoding has enough distinct
   evaluation points, and the Boolean transition polynomial evaluates
   identically on embedded bits (addition = XOR matches GF(2) addition).

   Multiplication is carry-less (Russian peasant) with modular reduction
   by an irreducible polynomial; for m <= 16 we additionally build
   exp/log tables over a multiplicative generator, giving O(1)
   multiplication and inversion.  The generator is found by search (the
   multiplicative group of a finite field is cyclic, so one always
   exists), which makes the tables independent of whether x itself is
   primitive — the AES polynomial 0x11B, where x has order 51, gets the
   same O(1) arithmetic as the primitive defaults.  Table construction
   is forced at functor instantiation so a silently table-less small
   field (the old behavior when x was not primitive: every mul fell back
   to the bit loop) cannot exist. *)

module type PARAMS = sig
  val m : int

  val modulus : int
  (** Bits of the irreducible degree-m reduction polynomial, including
      the leading x^m term; 0 selects a built-in default for [m]. *)
end

(* ----- GF(2)[x] arithmetic on bit-packed polynomials, used for the
   Rabin irreducibility check that validates every modulus. ----- *)
module F2x = struct
  (* position of the highest set bit *)
  let degree p =
    if p = 0 then -1
    else begin
      let d = ref 0 in
      let q = ref p in
      while !q > 1 do
        q := !q lsr 1;
        incr d
      done;
      !d
    end

  let rec pmod a b =
    let da = degree a and db = degree b in
    if da < db then a else pmod (a lxor (b lsl (da - db))) b

  (* multiplication mod f, operands of degree < deg f ≤ 31 *)
  let mulmod a b f =
    let df = degree f in
    let r = ref 0 and a = ref a and b = ref b in
    while !b <> 0 do
      if !b land 1 = 1 then r := !r lxor !a;
      b := !b lsr 1;
      a := !a lsl 1;
      if degree !a = df then a := !a lxor f
    done;
    !r

  (* x^(2^k) mod f by repeated squaring of the Frobenius image; the seed
     x itself is reduced first (it matters only when deg f = 1) *)
  let x_pow_pow2 k f =
    let x = ref (pmod 0b10 f) in
    for _ = 1 to k do
      x := mulmod !x !x f
    done;
    !x

  let rec gcd a b = if b = 0 then a else gcd b (pmod a b)

  let prime_divisors m =
    let rec go m d acc =
      if m = 1 then acc
      else if d * d > m then m :: acc
      else if m mod d = 0 then
        let rec strip m = if m mod d = 0 then strip (m / d) else m in
        go (strip m) (d + 1) (d :: acc)
      else go m (d + 1) acc
    in
    go m 2 []

  (* Rabin's test: f of degree m over GF(2) is irreducible iff
     x^(2^m) ≡ x (mod f) and gcd(x^(2^(m/q)) − x, f) = 1 for every
     prime q | m. *)
  let irreducible f =
    let m = degree f in
    if m < 1 then false
    else if m = 1 then true (* every degree-1 polynomial is irreducible *)
    else
      x_pow_pow2 m f = 0b10
      && List.for_all
           (fun q -> gcd (x_pow_pow2 (m / q) f lxor 0b10) f |> degree = 0)
           (prime_divisors m)
end

(* Standard irreducible polynomials, degree 1..31 (validated by Rabin's
   test on first use — a wrong entry fails fast, loudly). *)
let default_modulus = function
  | 1 -> 0x3
  | 2 -> 0x7
  | 3 -> 0xB
  | 4 -> 0x13
  | 5 -> 0x25
  | 6 -> 0x43
  | 7 -> 0x89
  | 8 -> 0x11D
  | 9 -> 0x211
  | 10 -> 0x409
  | 11 -> 0x805
  | 12 -> 0x1053
  | 13 -> 0x201B
  | 14 -> 0x4443
  | 15 -> 0x8003
  | 16 -> 0x1100B
  | 17 -> 0x20009
  | 18 -> 0x40081
  | 19 -> 0x80027
  | 20 -> 0x100009
  | 21 -> 0x200005  (* x^21 + x^2 + 1 *)
  | 22 -> 0x400003  (* x^22 + x + 1 *)
  | 23 -> 0x800021  (* x^23 + x^5 + 1 *)
  | 24 -> 0x100001B (* x^24 + x^4 + x^3 + x + 1 *)
  | 25 -> 0x2000009 (* x^25 + x^3 + 1 *)
  | 26 -> 0x4000047 (* x^26 + x^6 + x^2 + x + 1 *)
  | 27 -> 0x8000027 (* x^27 + x^5 + x^2 + x + 1 *)
  | 28 -> 0x10000009 (* x^28 + x^3 + 1 *)
  | 29 -> 0x20000005 (* x^29 + x^2 + 1 *)
  | 30 -> 0x40000053 (* x^30 + x^6 + x^4 + x + 1 *)
  | 31 -> 0x80000009 (* x^31 + x^3 + 1 *)
  | m -> invalid_arg (Printf.sprintf "Gf2m: no default modulus for m=%d" m)

module Make (P : PARAMS) : sig
  include Field_intf.S

  val m : int
  val embed_bit : int -> t
  (** Appendix-A embedding of a bit: 0 ↦ 00…0, 1 ↦ 00…01. *)

  val table_backed : bool
  (** Whether mul/inv run on exp/log tables (always true for m ≤ 16). *)
end = struct
  let m = P.m

  let () =
    if m < 1 || m > 31 then invalid_arg "Gf2m.Make: m must be in [1, 31]"

  let modulus = if P.modulus = 0 then default_modulus m else P.modulus

  let () =
    if modulus land (1 lsl m) = 0 || modulus >= 1 lsl (m + 1) then
      invalid_arg "Gf2m.Make: modulus must have degree exactly m";
    if not (F2x.irreducible modulus) then
      invalid_arg "Gf2m.Make: modulus is not irreducible"

  type t = int

  let order = 1 lsl m
  let characteristic = 2
  let mask = order - 1

  let zero = 0
  let one = 1

  let of_int x = x land mask
  let to_int x = x

  let add a b = a lxor b
  let sub = add
  let neg a = a

  let mul_slow a b =
    let r = ref 0 and a = ref a and b = ref b in
    while !b <> 0 do
      if !b land 1 = 1 then r := !r lxor !a;
      b := !b lsr 1;
      a := !a lsl 1;
      if !a land order <> 0 then a := !a lxor modulus
    done;
    !r

  (* exp/log tables over a multiplicative generator, found by search:
     g generates iff its powers enumerate all 2^m − 1 nonzero elements,
     which the filling loop itself detects (a repeat before the end, or
     not returning to 1, rejects g). *)
  let tables =
    lazy
      (if m > 16 then None
       else begin
         let exp = Array.make (2 * (order - 1)) 0 in
         let log = Array.make order (-1) in
         let try_generator g =
           Array.fill log 0 order (-1);
           let x = ref 1 in
           let ok = ref true in
           (try
              for i = 0 to order - 2 do
                if log.(!x) >= 0 then begin
                  ok := false;
                  raise Exit
                end;
                exp.(i) <- !x;
                log.(!x) <- i;
                x := mul_slow !x g
              done
            with Exit -> ());
           !ok && !x = 1
         in
         let rec search g =
           if g >= order then
             (* unreachable: the multiplicative group is cyclic *)
             invalid_arg "Gf2m.Make: no multiplicative generator found"
           else if try_generator g then g
           else search (g + 1)
         in
         ignore (search 2);
         (* Duplicate the exp table so that exp.(i+j) needs no mod. *)
         for i = 0 to order - 2 do
           exp.(i + order - 1) <- exp.(i)
         done;
         Some (exp, log)
       end)

  (* Fail fast: a small field must be table-backed.  [search] always
     terminates before [order] because the group is cyclic, so this is a
     pure safety net against table-construction bugs. *)
  let () =
    if m <= 16 then
      match Lazy.force tables with
      | Some _ -> ()
      | None -> invalid_arg "Gf2m.Make: exp/log table construction failed"

  let table_backed = m <= 16

  let mul a b =
    match Lazy.force tables with
    | Some (exp, log) ->
      if a = 0 || b = 0 then 0 else exp.(log.(a) + log.(b))
    | None -> mul_slow a b

  let equal (a : int) b = a = b
  let compare (a : int) b = Int.compare a b
  let is_zero a = a = 0

  let rec pow_pos base e acc =
    if e = 0 then acc
    else if e land 1 = 1 then pow_pos (mul base base) (e lsr 1) (mul acc base)
    else pow_pos (mul base base) (e lsr 1) acc

  let inv a =
    if a = 0 then raise Division_by_zero
    else
      match Lazy.force tables with
      | Some (exp, log) -> if a = 1 then 1 else exp.(order - 1 - log.(a))
      | None -> pow_pos a (order - 2) one

  let div a b = mul a (inv b)

  let pow x n =
    if n >= 0 then pow_pos x n one
    else pow_pos (inv x) (-n) one

  (* Characteristic 2: no nontrivial 2^k-th roots of unity, so NTT-based
     multiplication is unavailable; polynomial code falls back to
     Karatsuba. *)
  let root_of_unity n = if n = 1 then Some one else None

  let random rng = Csm_rng.int rng order

  let random_nonzero rng = 1 + Csm_rng.int rng (order - 1)

  let embed_bit b = b land 1

  (* Byte-packed batch kernels for the one- and two-byte fields; [mul]
     above is table-backed for these sizes, so the kernels inherit O(1)
     products. *)
  let batch =
    if m = 8 then Some (Bytes_kernel.make8 ~modulus ~mul)
    else if m = 16 then Some (Bytes_kernel.make16 ~mul)
    else None

  let pp ppf x = Format.fprintf ppf "0x%x" x
  let to_string x = Printf.sprintf "0x%x" x
end

(* GF(256): the classic Reed-Solomon field. *)
module Gf256 = Make (struct
  let m = 8
  let modulus = 0
end)

(* GF(2^10): enough evaluation points for networks up to N = 1023. *)
module Gf1024 = Make (struct
  let m = 10
  let modulus = 0
end)

(* GF(2^16): headroom for the largest scaling sweeps. *)
module Gf65536 = Make (struct
  let m = 16
  let modulus = 0
end)

let irreducible_over_gf2 = F2x.irreducible
