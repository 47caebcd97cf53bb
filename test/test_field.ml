(* Field axioms and arithmetic correctness, over every instantiated field:
   prime fields (default NTT prime, Mersenne, tiny) and binary extension
   fields.  Property tests draw random elements; small fields also get
   exhaustive checks. *)

open Csm_field

let seed = 0xF1E7D

(* Build the alcotest + qcheck suite for one field. *)
module MakeSuite (F : Field_intf.S) (N : sig
  val name : string
end) =
struct
  let rng = Csm_rng.create seed

  let arb =
    QCheck.make
      ~print:(fun x -> F.to_string x)
      (QCheck.Gen.map (fun _ -> F.random rng) QCheck.Gen.unit)

  let qtest name count law = QCheck.Test.make ~name ~count law

  let props =
    [
      qtest "add commutative" 200
        (QCheck.pair arb arb)
        (fun (a, b) -> F.equal (F.add a b) (F.add b a));
      qtest "add associative" 200
        (QCheck.triple arb arb arb)
        (fun (a, b, c) -> F.equal (F.add (F.add a b) c) (F.add a (F.add b c)));
      qtest "mul commutative" 200
        (QCheck.pair arb arb)
        (fun (a, b) -> F.equal (F.mul a b) (F.mul b a));
      qtest "mul associative" 200
        (QCheck.triple arb arb arb)
        (fun (a, b, c) -> F.equal (F.mul (F.mul a b) c) (F.mul a (F.mul b c)));
      qtest "distributivity" 200
        (QCheck.triple arb arb arb)
        (fun (a, b, c) ->
          F.equal (F.mul a (F.add b c)) (F.add (F.mul a b) (F.mul a c)));
      qtest "additive inverse" 200 arb (fun a ->
          F.is_zero (F.add a (F.neg a)));
      qtest "sub = add neg" 200
        (QCheck.pair arb arb)
        (fun (a, b) -> F.equal (F.sub a b) (F.add a (F.neg b)));
      qtest "multiplicative inverse" 200 arb (fun a ->
          F.is_zero a || F.equal (F.mul a (F.inv a)) F.one);
      qtest "div inverse of mul" 200
        (QCheck.pair arb arb)
        (fun (a, b) -> F.is_zero b || F.equal (F.div (F.mul a b) b) a);
      qtest "pow matches repeated mul" 200 arb (fun a ->
          let rec naive acc i = if i = 0 then acc else naive (F.mul acc a) (i - 1) in
          F.equal (F.pow a 7) (naive F.one 7));
      qtest "pow negative exponent" 200 arb (fun a ->
          F.is_zero a || F.equal (F.pow a (-3)) (F.inv (F.pow a 3)));
      qtest "fermat / lagrange order" 200 arb (fun a ->
          F.is_zero a || F.equal (F.pow a (F.order - 1)) F.one);
      qtest "of_int/to_int roundtrip" 200 arb (fun a ->
          F.equal (F.of_int (F.to_int a)) a);
    ]

  let unit_tests =
    [
      Alcotest.test_case "constants" `Quick (fun () ->
          Alcotest.(check bool) "zero is zero" true (F.is_zero F.zero);
          Alcotest.(check bool) "one not zero" (F.order > 1) (not (F.is_zero F.one));
          Alcotest.(check bool) "one*one" true (F.equal (F.mul F.one F.one) F.one));
      Alcotest.test_case "inv zero raises" `Quick (fun () ->
          Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
              ignore (F.inv F.zero)));
      Alcotest.test_case "div by zero raises" `Quick (fun () ->
          Alcotest.check_raises "div 0" Division_by_zero (fun () ->
              ignore (F.div F.one F.zero)));
      Alcotest.test_case "of_int negative" `Quick (fun () ->
          (* of_int is the ring hom only for prime fields; for GF(2^m)
             it is a bit-pattern constructor. *)
          if F.characteristic = F.order then
            Alcotest.(check bool)
              "-1 = neg one" true
              (F.equal (F.of_int (-1)) (F.neg F.one)));
      Alcotest.test_case "random_nonzero" `Quick (fun () ->
          let r = Csm_rng.create 42 in
          for _ = 1 to 100 do
            if F.is_zero (F.random_nonzero r) then
              Alcotest.fail "random_nonzero returned zero"
          done);
      Alcotest.test_case "root_of_unity orders" `Quick (fun () ->
          List.iter
            (fun n ->
              match F.root_of_unity n with
              | None -> ()
              | Some w ->
                Alcotest.(check bool)
                  (Printf.sprintf "w^%d = 1" n)
                  true
                  (F.equal (F.pow w n) F.one);
                if n > 1 then
                  Alcotest.(check bool)
                    (Printf.sprintf "w^%d <> 1 (primitive)" (n / 2))
                    true
                    (not (F.equal (F.pow w (n / 2)) F.one)))
            [ 1; 2; 4; 8; 16; 64; 256 ]);
    ]

  let suite =
    ( "field:" ^ N.name,
      unit_tests @ List.map (QCheck_alcotest.to_alcotest ~long:false) props )
end

module Default_suite =
  MakeSuite
    (Fp.Default)
    (struct
      let name = "fp-default(2013265921)"
    end)

module Mersenne_suite =
  MakeSuite
    (Fp.Mersenne31)
    (struct
      let name = "fp-mersenne31"
    end)

module F97_suite =
  MakeSuite
    (Fp.F97)
    (struct
      let name = "fp-97"
    end)

module Gf256_suite =
  MakeSuite
    (Gf2m.Gf256)
    (struct
      let name = "gf(2^8)"
    end)

module Gf1024_suite =
  MakeSuite
    (Gf2m.Gf1024)
    (struct
      let name = "gf(2^10)"
    end)

module Gf65536_suite =
  MakeSuite
    (Gf2m.Gf65536)
    (struct
      let name = "gf(2^16)"
    end)

(* Exhaustive checks for a tiny field: every pair. *)
let exhaustive_f97 () =
  let module F = Fp.F97 in
  for a = 0 to 96 do
    for b = 0 to 96 do
      let fa = F.of_int a and fb = F.of_int b in
      assert (F.to_int (F.add fa fb) = (a + b) mod 97);
      assert (F.to_int (F.mul fa fb) = a * b mod 97)
    done;
    if a > 0 then begin
      let fa = F.of_int a in
      assert (F.equal (F.mul fa (F.inv fa)) F.one)
    end
  done

(* GF(2^m): table-based mul must agree with a reference carry-less mul
   for every pair in GF(256). *)
let gf256_reference () =
  let module G = Gf2m.Gf256 in
  let modulus = 0x11D in
  let slow a b =
    let r = ref 0 and a = ref a and b = ref b in
    while !b <> 0 do
      if !b land 1 = 1 then r := !r lxor !a;
      b := !b lsr 1;
      a := !a lsl 1;
      if !a land 0x100 <> 0 then a := !a lxor modulus
    done;
    !r
  in
  for a = 0 to 255 do
    for b = 0 to 255 do
      let got = G.to_int (G.mul (G.of_int a) (G.of_int b)) in
      if got <> slow a b then
        Alcotest.failf "gf256 mul %d*%d: got %d want %d" a b got (slow a b)
    done
  done

(* Characteristic-2 specifics and the Appendix-A embedding. *)
let gf_char2 () =
  let module G = Gf2m.Gf1024 in
  let rng = Csm_rng.create 7 in
  for _ = 1 to 200 do
    let a = G.random rng in
    (* x + x = 0 and neg is identity *)
    Alcotest.(check bool) "a+a=0" true (G.is_zero (G.add a a));
    Alcotest.(check bool) "neg a = a" true (G.equal (G.neg a) a);
    (* Frobenius: (a+b)^2 = a^2 + b^2 *)
    let b = G.random rng in
    Alcotest.(check bool)
      "frobenius" true
      (G.equal (G.pow (G.add a b) 2) (G.add (G.pow a 2) (G.pow b 2)))
  done;
  Alcotest.(check bool) "embed 0" true (G.is_zero (G.embed_bit 0));
  Alcotest.(check bool) "embed 1" true (G.equal (G.embed_bit 1) G.one)

let fp_rejects_composite () =
  let exn = ref false in
  (try
     let module Bad = Fp.Make (struct
       let p = 91 (* 7 * 13 *)
     end) in
     ignore Bad.one
   with Invalid_argument _ -> exn := true);
  Alcotest.(check bool) "composite rejected" true !exn

let default_modulus_in_range () =
  for m = 1 to 31 do
    let p = Gf2m.default_modulus m in
    Alcotest.(check bool)
      (Printf.sprintf "degree of modulus %d" m)
      true
      (p land (1 lsl m) <> 0 && p < 1 lsl (m + 1));
    Alcotest.(check bool)
      (Printf.sprintf "irreducibility of modulus %d" m)
      true
      (Gf2m.irreducible_over_gf2 p)
  done;
  (* the Rabin test itself rejects known reducibles *)
  Alcotest.(check bool) "x^2+1 = (x+1)^2 reducible" false
    (Gf2m.irreducible_over_gf2 0b101);
  Alcotest.(check bool) "x^4+x^2+1 reducible" false
    (Gf2m.irreducible_over_gf2 0b10101);
  Alcotest.(check bool) "x^2+x+1 irreducible" true
    (Gf2m.irreducible_over_gf2 0b111)

(* every default field up to m = 31 instantiates (the functor runs the
   Rabin check) and satisfies spot-checked axioms *)
let all_extension_fields_instantiate () =
  for m = 17 to 31 do
    let module G = Gf2m.Make (struct
      let m = m
      let modulus = 0
    end) in
    let r = Csm_rng.create m in
    for _ = 1 to 20 do
      let a = G.random_nonzero r and b = G.random_nonzero r in
      if not (G.equal (G.mul a (G.inv a)) G.one) then
        Alcotest.failf "m=%d: inverse broken" m;
      if not (G.equal (G.mul a b) (G.mul b a)) then
        Alcotest.failf "m=%d: commutativity broken" m
    done
  done;
  (* a reducible custom modulus is rejected *)
  let exn = ref false in
  (try
     let module Bad = Gf2m.Make (struct
       let m = 4
       let modulus = 0b10101 lor (1 lsl 4)  (* degree-4 bits of a reducible *)
     end) in
     ignore Bad.one
   with Invalid_argument _ -> exn := true);
  Alcotest.(check bool) "reducible modulus rejected" true !exn

(* Regression: a modulus whose x is NOT a multiplicative generator (the
   AES polynomial x^8+x^4+x^3+x+1 = 0x11B; ord(x) = 51) must still get
   exp/log tables — the generator search tries 2, 3, ... — instead of
   silently dropping to the shift-and-reduce mul. *)
let gf2m_aes_modulus () =
  let module A = Gf2m.Make (struct
    let m = 8
    let modulus = 0x11B
  end) in
  Alcotest.(check bool) "AES field is table-backed" true A.table_backed;
  Alcotest.(check bool) "default gf256 is table-backed too" true
    Gf2m.Gf256.table_backed;
  let v = A.of_int in
  (* FIPS-197 worked example and a known inverse pair *)
  Alcotest.(check int) "57*83=C1" 0xC1 (A.to_int (A.mul (v 0x57) (v 0x83)));
  Alcotest.(check int) "53*CA=01" 0x01 (A.to_int (A.mul (v 0x53) (v 0xCA)));
  for a = 1 to 255 do
    if not (A.equal (A.mul (v a) (A.inv (v a))) A.one) then
      Alcotest.failf "AES field: inv broken at %d" a;
    if A.to_int (A.div (A.mul (v a) (v 0x53)) (v 0x53)) <> a then
      Alcotest.failf "AES field: div roundtrip broken at %d" a
  done

(* Byte-packed batch kernels must agree with the scalar ops, element by
   element, for every kernel entry point. *)
let batch_matches_scalar (type a) (module G : Field_intf.S with type t = a)
    name =
  match G.batch with
  | None -> Alcotest.failf "%s: expected batch kernels" name
  | Some b ->
    let rng = Csm_rng.create 0xB47C in
    for _ = 1 to 20 do
      let n = 1 + Csm_rng.int rng 40 in
      let xs = Array.init n (fun _ -> G.random rng) in
      let ys = Array.init n (fun _ -> G.random rng) in
      let c = G.random rng in
      let px = b.Field_intf.pack xs in
      (* pack/unpack roundtrip *)
      Array.iteri
        (fun i x ->
          if not (G.equal x (b.Field_intf.unpack px).(i)) then
            Alcotest.failf "%s: pack/unpack mismatch" name)
        xs;
      (* dot *)
      let expect_dot =
        Array.fold_left G.add G.zero (Array.map2 G.mul xs ys)
      in
      if not (G.equal (b.Field_intf.dot px (b.Field_intf.pack ys)) expect_dot)
      then Alcotest.failf "%s: dot mismatch" name;
      (* axpy: acc <- acc + c*x *)
      let acc = b.Field_intf.pack ys in
      b.Field_intf.axpy ~acc ~c ~x:px;
      let got = b.Field_intf.unpack acc in
      Array.iteri
        (fun i y ->
          if not (G.equal (G.add y (G.mul c xs.(i))) got.(i)) then
            Alcotest.failf "%s: axpy mismatch" name)
        ys;
      (* scale *)
      let got = b.Field_intf.unpack (b.Field_intf.scale ~c ~x:px) in
      Array.iteri
        (fun i x ->
          if not (G.equal (G.mul c x) got.(i)) then
            Alcotest.failf "%s: scale mismatch" name)
        xs;
      (* eval_many = little-endian Horner at each point *)
      let m = 1 + Csm_rng.int rng 6 in
      let coeffs = Array.init m (fun _ -> G.random rng) in
      let horner x =
        let acc = ref G.zero in
        for i = m - 1 downto 0 do
          acc := G.add (G.mul !acc x) coeffs.(i)
        done;
        !acc
      in
      let got = b.Field_intf.unpack (b.Field_intf.eval_many ~coeffs ~xs:px) in
      Array.iteri
        (fun i x ->
          if not (G.equal (horner x) got.(i)) then
            Alcotest.failf "%s: eval_many mismatch" name)
        xs
    done

let batch_kernels () =
  batch_matches_scalar (module Gf2m.Gf256) "gf256";
  batch_matches_scalar (module Gf2m.Gf65536) "gf65536";
  (* prime fields and mid-size binary fields have no byte kernels *)
  Alcotest.(check bool) "fp batch is None" true
    (Option.is_none (Fp.Default.batch));
  Alcotest.(check bool) "gf1024 batch is None" true
    (Option.is_none (Gf2m.Gf1024.batch))

let extra_suite =
  ( "field:extra",
    [
      Alcotest.test_case "exhaustive F97" `Quick exhaustive_f97;
      Alcotest.test_case "gf256 vs reference mul" `Quick gf256_reference;
      Alcotest.test_case "char-2 identities + embedding" `Quick gf_char2;
      Alcotest.test_case "Fp rejects composite modulus" `Quick
        fp_rejects_composite;
      Alcotest.test_case "gf2m default moduli degrees + irreducibility"
        `Quick default_modulus_in_range;
      Alcotest.test_case "gf2m instantiates for all m <= 31" `Quick
        all_extension_fields_instantiate;
      Alcotest.test_case "AES modulus gets tables (regression)" `Quick
        gf2m_aes_modulus;
      Alcotest.test_case "byte-packed batch kernels match scalar" `Quick
        batch_kernels;
    ] )

let suites =
  [
    Default_suite.suite;
    Mersenne_suite.suite;
    F97_suite.suite;
    Gf256_suite.suite;
    Gf1024_suite.suite;
    Gf65536_suite.suite;
    extra_suite;
  ]
