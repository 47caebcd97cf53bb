(* Byte-packed batch kernels for the table-backed binary fields.

   The coding layer's hot loops (axpy rows of the N×K Lagrange matrix,
   Horner evaluation of a recovered polynomial at many points) spend
   most of their time in per-element closure calls when driven through
   the boxed [Field_intf.S] interface.  For GF(2^8) and GF(2^16) the
   elements fit in one / two bytes, addition is XOR, and multiplication
   is a table lookup, so the same loops run an order of magnitude
   faster over packed [Bytes.t] vectors.

   Operation-count contract (see [Field_intf.batch]): every kernel
   performs exactly the field operations of the scalar reference loop —
   axpy/dot are one mul + one add per element, scale one mul, eval_many
   |coeffs| muls + adds per point — so [Counted]'s bulk accounting stays
   exact and ledgers are identical whichever backend ran.

   GF(2^8) additionally gets a sliced 256×256 product table (one flat
   64 KiB [Bytes.t]: index a·256+b holds a·b) so the inner loop is a
   single indexed load, no log/antilog arithmetic.  The table depends
   only on the reduction modulus, so it is built once per modulus and
   shared by every instantiation (registered in
   lint/shared_state.allow). *)

let mul8_lock = Mutex.create ()
let mul8_cache : (int, Bytes.t) Hashtbl.t = Hashtbl.create 2

let mul8_table ~modulus ~mul =
  Mutex.protect mul8_lock (fun () ->
      match Hashtbl.find_opt mul8_cache modulus with
      | Some t -> t
      | None ->
        let t = Bytes.create 65536 in
        for a = 0 to 255 do
          let row = a lsl 8 in
          for b = 0 to 255 do
            Bytes.unsafe_set t (row lor b) (Char.unsafe_chr (mul a b))
          done
        done;
        Hashtbl.replace mul8_cache modulus t;
        t)

(* ----- GF(2^8): one byte per element ----- *)

let make8 ~modulus ~mul : int Field_intf.batch =
  let tab = mul8_table ~modulus ~mul in
  let mul8 a b = Char.code (Bytes.unsafe_get tab ((a lsl 8) lor b)) in
  let get v i = Char.code (Bytes.unsafe_get v i) in
  let set v i x = Bytes.unsafe_set v i (Char.unsafe_chr x) in
  let len v = Bytes.length v in
  let pack a =
    let n = Array.length a in
    let v = Bytes.create n in
    for i = 0 to n - 1 do
      set v i (a.(i) land 0xFF)
    done;
    v
  in
  let unpack v = Array.init (len v) (get v) in
  let axpy ~acc ~c ~x =
    let n = len x in
    if len acc <> n then invalid_arg "Bytes_kernel.axpy: length mismatch";
    let row = c lsl 8 in
    for i = 0 to n - 1 do
      set acc i
        (get acc i lxor Char.code (Bytes.unsafe_get tab (row lor get x i)))
    done
  in
  let dot a b =
    let n = len a in
    if len b <> n then invalid_arg "Bytes_kernel.dot: length mismatch";
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc lxor mul8 (get a i) (get b i)
    done;
    !acc
  in
  let scale ~c ~x =
    let n = len x in
    let out = Bytes.create n in
    let row = c lsl 8 in
    for i = 0 to n - 1 do
      Bytes.unsafe_set out i (Bytes.unsafe_get tab (row lor get x i))
    done;
    out
  in
  let eval_many ~coeffs ~xs =
    let n = len xs in
    let acc = Bytes.make n '\000' in
    for i = Array.length coeffs - 1 downto 0 do
      let c = coeffs.(i) land 0xFF in
      for j = 0 to n - 1 do
        set acc j (mul8 (get acc j) (get xs j) lxor c)
      done
    done;
    acc
  in
  { Field_intf.width = 1; pack; unpack; axpy; dot; scale; eval_many }

(* ----- GF(2^16): two bytes per element, little-endian; multiplication
   through the field's own (table-backed) [mul] ----- *)

let make16 ~mul : int Field_intf.batch =
  let get v i = Bytes.get_uint16_le v (2 * i) in
  let set v i x = Bytes.set_uint16_le v (2 * i) x in
  let len v = Bytes.length v / 2 in
  let pack a =
    let n = Array.length a in
    let v = Bytes.create (2 * n) in
    for i = 0 to n - 1 do
      set v i (a.(i) land 0xFFFF)
    done;
    v
  in
  let unpack v = Array.init (len v) (get v) in
  let axpy ~acc ~c ~x =
    let n = len x in
    if len acc <> n then invalid_arg "Bytes_kernel.axpy: length mismatch";
    for i = 0 to n - 1 do
      set acc i (get acc i lxor mul c (get x i))
    done
  in
  let dot a b =
    let n = len a in
    if len b <> n then invalid_arg "Bytes_kernel.dot: length mismatch";
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc lxor mul (get a i) (get b i)
    done;
    !acc
  in
  let scale ~c ~x =
    let n = len x in
    let out = Bytes.create (2 * n) in
    for i = 0 to n - 1 do
      set out i (mul c (get x i))
    done;
    out
  in
  let eval_many ~coeffs ~xs =
    let n = len xs in
    let acc = Bytes.make (2 * n) '\000' in
    for i = Array.length coeffs - 1 downto 0 do
      let c = coeffs.(i) land 0xFFFF in
      for j = 0 to n - 1 do
        set acc j (mul (get acc j) (get xs j) lxor c)
      done
    done;
    acc
  in
  { Field_intf.width = 2; pack; unpack; axpy; dot; scale; eval_many }
