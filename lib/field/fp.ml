(* Prime fields F_p with p < 2^31, represented by ints in [0, p).

   Products of two residues fit in 62 bits, so native int arithmetic is
   exact without any big-integer dependency.  The default instance is the
   NTT-friendly prime p = 15 * 2^27 + 1 = 2013265921 (two-adicity 27),
   which makes radix-2 NTT polynomial multiplication available for the
   quasi-linear coding path of Section 6.2. *)

module type PRIME = sig
  val p : int
end

module Make (P : PRIME) : Field_intf.S = struct
  let () =
    if P.p < 2 then invalid_arg "Fp.Make: p must be >= 2";
    if P.p >= 1 lsl 31 then invalid_arg "Fp.Make: p must be < 2^31";
    (* Trial-division primality check; fields are instantiated once at
       startup, so the O(sqrt p) cost is irrelevant. *)
    let rec check d =
      if d * d > P.p then ()
      else if P.p mod d = 0 then invalid_arg "Fp.Make: p is not prime"
      else check (d + 1)
    in
    check 2

  type t = int

  let p = P.p
  let order = p
  let characteristic = p

  let zero = 0
  let one = 1 mod p

  let of_int x =
    let r = x mod p in
    if r < 0 then r + p else r

  let to_int x = x

  let add a b =
    let s = a + b in
    if s >= p then s - p else s

  let sub a b =
    let d = a - b in
    if d < 0 then d + p else d

  let neg a = if a = 0 then 0 else p - a

  let mul a b = a * b mod p

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
      (* Extended Euclid on (a, p); p prime so gcd = 1. *)
      let rec go r0 r1 s0 s1 =
        if r1 = 0 then s0
        else
          let q = r0 / r1 in
          go r1 (r0 - (q * r1)) s1 (s0 - (q * s1))
      in
      let s = go a p 1 0 in
      of_int s

  let div a b = mul a (inv b)

  let pow x n =
    if n >= 0 then pow_pos x n one
    else pow_pos (inv x) (-n) one

  (* Multiplicative generator of F_p^*: factor p-1 by trial division and
     search candidates g such that g^((p-1)/q) <> 1 for every prime q. *)
  let prime_factors n =
    let rec go n d acc =
      if n = 1 then acc
      else if d * d > n then n :: acc
      else if n mod d = 0 then
        let rec strip n = if n mod d = 0 then strip (n / d) else n in
        go (strip n) (d + 1) (d :: acc)
      else go n (d + 1) acc
    in
    go n 2 []

  let generator =
    if p = 2 then 1
    else
      let factors = prime_factors (p - 1) in
      let is_gen g =
        List.for_all (fun q -> not (equal (pow g ((p - 1) / q)) one)) factors
      in
      let rec search g =
        if g >= p then failwith "Fp: no generator found"
        else if is_gen g then g
        else search (g + 1)
      in
      search 2

  let root_of_unity n =
    if n <= 0 then None
    else if n = 1 then Some one
    else if (p - 1) mod n <> 0 then None
    else Some (pow generator ((p - 1) / n))

  let random rng = Csm_rng.int rng p

  let random_nonzero rng =
    if p = 2 then 1 else 1 + Csm_rng.int rng (p - 1)

  (* No packed representation for prime fields: elements span up to 31
     bits and products need the generic modular path, so the scalar
     functor interface is already the right shape. *)
  let batch = None

  let pp ppf x = Format.pp_print_int ppf x
  let to_string = string_of_int
end

(* Default field: NTT-friendly 31-bit prime, two-adicity 27. *)
module Default = Make (struct
  let p = 2013265921
end)

(* Mersenne prime 2^31 - 1: large field without radix-2 NTT support,
   exercises the generic (Karatsuba) polynomial-arithmetic path. *)
module Mersenne31 = Make (struct
  let p = 2147483647
end)

(* Small fields for exhaustive tests and boundary experiments. *)
module F97 = Make (struct
  let p = 97
end)

module F257 = Make (struct
  let p = 257
end)
