(* Reed–Solomon: round-trips, random error patterns up to the decoding
   radius for both decoders, failure beyond the radius, erasure-shortened
   decoding (the partially synchronous path), and agreement-set (τ)
   correctness used by the Section-6.2 verification. *)

open Csm_field
open Csm_rs
module F = Fp.Default
module RS = Reed_solomon.Make (F)
module P = RS.P

let rng = Csm_rng.create 0x5EED

let points n = Array.init n (fun i -> F.of_int (i + 1))

let random_message k =
  if k = 1 then P.constant (F.random rng) else P.random rng ~degree:(k - 1)

let check_decodes ~what decoder ~k pairs expect =
  match decoder ~k pairs with
  | None -> Alcotest.failf "%s: decoding failed" what
  | Some d ->
    if not (P.equal d.RS.poly expect) then
      Alcotest.failf "%s: wrong polynomial" what

let roundtrip_no_errors () =
  for _ = 1 to 40 do
    let k = 1 + Csm_rng.int rng 12 in
    let n = k + Csm_rng.int rng 20 in
    let msg = random_message k in
    let pts = points n in
    let word = RS.encode ~message:msg ~points:pts in
    let pairs = Array.map2 (fun x y -> (x, y)) pts word in
    check_decodes ~what:"bw clean" RS.decode_bw ~k pairs msg;
    check_decodes ~what:"gao clean" RS.decode_gao ~k pairs msg
  done

let decodes_up_to_radius () =
  for _ = 1 to 60 do
    let k = 1 + Csm_rng.int rng 8 in
    let extra = 2 + Csm_rng.int rng 16 in
    let n = k + extra in
    let e_max = RS.max_errors ~n ~k in
    let e = Csm_rng.int rng (e_max + 1) in
    let msg = random_message k in
    let pts = points n in
    let word = RS.encode ~message:msg ~points:pts in
    let corrupted, positions = RS.corrupt rng ~count:e word in
    let pairs = Array.map2 (fun x y -> (x, y)) pts corrupted in
    (match RS.decode_bw ~k pairs with
    | None -> Alcotest.failf "bw failed with e=%d <= %d (n=%d k=%d)" e e_max n k
    | Some d ->
      if not (P.equal d.RS.poly msg) then Alcotest.fail "bw wrong poly";
      if d.RS.errors <> positions then
        Alcotest.fail "bw reported wrong error positions");
    match RS.decode_gao ~k pairs with
    | None -> Alcotest.failf "gao failed with e=%d <= %d" e e_max
    | Some d ->
      if not (P.equal d.RS.poly msg) then Alcotest.fail "gao wrong poly";
      if d.RS.errors <> positions then
        Alcotest.fail "gao reported wrong error positions"
  done

let agreement_set_certificate () =
  (* |τ| >= n - e and τ ∪ errors partitions 1..n *)
  let k = 4 and n = 15 in
  let e_max = RS.max_errors ~n ~k in
  let msg = random_message k in
  let pts = points n in
  let word = RS.encode ~message:msg ~points:pts in
  let corrupted, _ = RS.corrupt rng ~count:e_max word in
  let pairs = Array.map2 (fun x y -> (x, y)) pts corrupted in
  match RS.decode ~k pairs with
  | None -> Alcotest.fail "decode failed"
  | Some d ->
    Alcotest.(check bool)
      "|tau| >= n - e" true
      (List.length d.RS.agreement >= n - e_max);
    let all = List.sort Int.compare (d.RS.agreement @ d.RS.errors) in
    Alcotest.(check (list int)) "partition" (List.init n (fun i -> i)) all

let fails_beyond_radius () =
  (* With e_max + 1 adversarial errors the decoder must not return the
     original message as a certified decode... it may either fail or
     return a different codeword that satisfies the certificate; what it
     must never do is certify a polynomial that disagrees with n-e of
     the received values.  We additionally construct a targeted attack:
     corrupt e_max+1 positions toward a *different* codeword, and check
     the decoder does not return the original. *)
  for _ = 1 to 30 do
    let k = 1 + Csm_rng.int rng 6 in
    let n = k + 2 + Csm_rng.int rng 10 in
    let e_max = RS.max_errors ~n ~k in
    let msg = random_message k in
    let other = random_message k in
    QCheck.assume (not (P.equal msg other));
    let pts = points n in
    let word = RS.encode ~message:msg ~points:pts in
    let other_word = RS.encode ~message:other ~points:pts in
    (* Move e_max+1 positions toward the other codeword. *)
    let w = Array.copy word in
    let moved = ref 0 in
    (try
       for i = 0 to n - 1 do
         if !moved > e_max then raise Exit;
         if not (F.equal w.(i) other_word.(i)) then begin
           w.(i) <- other_word.(i);
           incr moved
         end
       done
     with Exit -> ());
    if !moved = e_max + 1 then begin
      let pairs = Array.map2 (fun x y -> (x, y)) pts w in
      match RS.decode ~k pairs with
      | None -> ()
      | Some d ->
        (* any certified output must satisfy the agreement bound *)
        Alcotest.(check bool)
          "certificate holds" true
          (List.length d.RS.agreement >= n - e_max)
    end
  done

let erasure_decoding () =
  (* Partial-sync path: only n - b symbols arrive, up to b of them wrong.
     Decode the shortened code: need 2e <= (n - b) - k. *)
  for _ = 1 to 40 do
    let k = 1 + Csm_rng.int rng 6 in
    let b = 1 + Csm_rng.int rng 4 in
    (* choose n so that the shortened code still corrects b errors *)
    let n = k + (3 * b) + Csm_rng.int rng 6 in
    let msg = random_message k in
    let pts = points n in
    let word = RS.encode ~message:msg ~points:pts in
    (* withhold b random symbols *)
    let withheld = Csm_rng.sample rng ~n ~k:b in
    let keep =
      Array.of_list
        (List.filter
           (fun i -> not (Array.mem i withheld))
           (List.init n (fun i -> i)))
    in
    let short_pts = Array.map (fun i -> pts.(i)) keep in
    let short_word = Array.map (fun i -> word.(i)) keep in
    let m = Array.length short_word in
    let e_cap = RS.max_errors ~n:m ~k in
    let e = min b e_cap in
    let corrupted, _ = RS.corrupt rng ~count:e short_word in
    let pairs = Array.map2 (fun x y -> (x, y)) short_pts corrupted in
    check_decodes ~what:"erasure+error" RS.decode_gao ~k pairs msg
  done

let decoders_agree () =
  (* On arbitrary (possibly undecodable) inputs, BW and Gao either both
     fail or both return the same polynomial. *)
  for _ = 1 to 60 do
    let k = 1 + Csm_rng.int rng 5 in
    let n = k + Csm_rng.int rng 12 in
    let pts = points n in
    let values = Array.init n (fun _ -> F.random rng) in
    let pairs = Array.map2 (fun x y -> (x, y)) pts values in
    match (RS.decode_bw ~k pairs, RS.decode_gao ~k pairs) with
    | None, None -> ()
    | Some a, Some b ->
      if not (P.equal a.RS.poly b.RS.poly) then
        Alcotest.fail "decoders disagree on output"
    | Some _, None | None, Some _ ->
      Alcotest.fail "one decoder succeeded, the other failed"
  done

(* Regression: decoding a codeword of the ZERO polynomial with errors.
   The Gao remainder sequence collapses to zero in one division here;
   an early version returned the pre-collapse remainder and failed. *)
let zero_codeword_with_errors () =
  List.iter
    (fun (k, n) ->
      let e = RS.max_errors ~n ~k in
      let pts = points n in
      let word = Array.make n F.zero in
      let corrupted, _ = RS.corrupt rng ~count:e word in
      let pairs = Array.map2 (fun x y -> (x, y)) pts corrupted in
      (match RS.decode_gao ~k pairs with
      | Some d when P.is_zero d.RS.poly -> ()
      | Some _ -> Alcotest.fail "gao: wrong poly for zero codeword"
      | None -> Alcotest.fail "gao: failed on zero codeword");
      match RS.decode_bw ~k pairs with
      | Some d when P.is_zero d.RS.poly -> ()
      | Some _ -> Alcotest.fail "bw: wrong poly for zero codeword"
      | None -> Alcotest.fail "bw: failed on zero codeword")
    [ (3, 5); (3, 9); (1, 7); (5, 15) ]

let max_errors_formula () =
  Alcotest.(check int) "n=7,k=3" 2 (RS.max_errors ~n:7 ~k:3);
  Alcotest.(check int) "n=8,k=3" 2 (RS.max_errors ~n:8 ~k:3);
  Alcotest.(check int) "n=9,k=3" 3 (RS.max_errors ~n:9 ~k:3);
  Alcotest.(check int) "n=k" 0 (RS.max_errors ~n:5 ~k:5)

let gf256_rs () =
  (* The classic RS(255, k) field also works end to end. *)
  let module G = Gf2m.Gf256 in
  let module R = Reed_solomon.Make (G) in
  let module PG = R.P in
  let r = Csm_rng.create 3 in
  for _ = 1 to 10 do
    let k = 1 + Csm_rng.int r 8 in
    let n = k + 6 in
    let msg = if k = 1 then PG.constant (G.random r) else PG.random r ~degree:(k - 1) in
    let pts = Array.init n (fun i -> G.of_int (i + 1)) in
    let word = R.encode ~message:msg ~points:pts in
    let corrupted, _ = R.corrupt r ~count:(R.max_errors ~n ~k) word in
    let pairs = Array.map2 (fun x y -> (x, y)) pts corrupted in
    match R.decode ~k pairs with
    | None -> Alcotest.fail "gf256 decode failed"
    | Some d ->
      if not (PG.equal d.R.poly msg) then Alcotest.fail "gf256 wrong poly"
  done

(* ----- optimistic fast path ----- *)

let optimistic_hit () =
  (* clean word through a prepared context: full agreement, no errors *)
  for _ = 1 to 20 do
    let k = 1 + Csm_rng.int rng 8 in
    let n = k + 2 + Csm_rng.int rng 16 in
    let msg = random_message k in
    let pts = points n in
    let word = RS.encode ~message:msg ~points:pts in
    let pairs = Array.map2 (fun x y -> (x, y)) pts word in
    let ctx = RS.prepare_fast ~k pts in
    match RS.decode_optimistic ~ctx ~k pairs with
    | None -> Alcotest.fail "hit path failed on clean word"
    | Some d ->
      if not (P.equal d.RS.poly msg) then Alcotest.fail "hit wrong poly";
      Alcotest.(check (list int)) "no errors" [] d.RS.errors;
      Alcotest.(check int) "full agreement" n (List.length d.RS.agreement)
  done

let optimistic_fallback_matches_gao () =
  (* within the radius the optimistic decoder must equal Gao exactly
     once the fast path has missed *)
  for _ = 1 to 40 do
    let k = 1 + Csm_rng.int rng 6 in
    let n = k + 2 + Csm_rng.int rng 14 in
    let e_max = RS.max_errors ~n ~k in
    let e = if e_max = 0 then 0 else 1 + Csm_rng.int rng e_max in
    let msg = random_message k in
    let pts = points n in
    let word = RS.encode ~message:msg ~points:pts in
    let corrupted, positions = RS.corrupt rng ~count:e word in
    let pairs = Array.map2 (fun x y -> (x, y)) pts corrupted in
    (match RS.decode_optimistic ~k pairs with
    | None -> Alcotest.fail "optimistic failed within radius"
    | Some d ->
      if not (P.equal d.RS.poly msg) then Alcotest.fail "optimistic wrong poly";
      if e > 0 && d.RS.errors <> positions then
        Alcotest.fail "optimistic wrong error positions");
    match RS.decode_gao ~k pairs with
    | None -> Alcotest.fail "gao failed within radius"
    | Some d ->
      if not (P.equal d.RS.poly msg) then Alcotest.fail "gao wrong poly"
  done

(* ----- cross-decoder agreement (QCheck) ----- *)

(* On classical points (powers of a primitive n-th root of unity), all
   four decode entry points must agree: BW, Gao, optimistic, and
   [RS.decode] at its default algorithm.  Within the radius they must
   all return the original message; beyond it they must still agree
   with each other (including agreeing to fail). *)
let qcheck_cross_decoder =
  let n = 30 in
  let alpha = Option.get (F.root_of_unity n) in
  let pts = Array.init n (fun i -> F.pow alpha i) in
  QCheck.Test.make ~name:"four decoders agree on classical points" ~count:120
    QCheck.(triple (int_range 1 8) (int_range 0 15) (int_range 0 1_000_000))
    (fun (k, e, seed) ->
      let r = Csm_rng.create (0xC0DE + seed) in
      let msg =
        if k = 1 then P.constant (F.random r) else P.random r ~degree:(k - 1)
      in
      let word = Array.map (P.eval msg) pts in
      let corrupted, _ = RS.corrupt r ~count:e word in
      let pairs = Array.map2 (fun x y -> (x, y)) pts corrupted in
      let rs_results =
        [
          RS.decode_bw ~k pairs;
          RS.decode_gao ~k pairs;
          RS.decode_optimistic ~k pairs;
          RS.decode ~k pairs;
        ]
      in
      let polys = List.map (Option.map (fun d -> d.RS.poly)) rs_results in
      let same a b =
        match (a, b) with
        | None, None -> true
        | Some p, Some q -> P.equal p q
        | _ -> false
      in
      let head = List.hd polys in
      List.for_all (same head) polys
      && (e > RS.max_errors ~n ~k || same head (Some msg)))

let all_none_beyond_radius () =
  (* Random corruption just past the radius: every decoder must refuse
     (deterministic seeds — a coincidental nearby codeword would show up
     as a stable failure here, not flakiness). *)
  let n = 24 and k = 6 in
  let alpha = Option.get (F.root_of_unity n) in
  let pts = Array.init n (fun i -> F.pow alpha i) in
  let e = RS.max_errors ~n ~k + 1 in
  for _ = 1 to 20 do
    let msg = random_message k in
    let word = Array.map (P.eval msg) pts in
    let corrupted, _ = RS.corrupt rng ~count:e word in
    let pairs = Array.map2 (fun x y -> (x, y)) pts corrupted in
    Alcotest.(check bool) "bw none" true (Option.is_none (RS.decode_bw ~k pairs));
    Alcotest.(check bool) "gao none" true
      (Option.is_none (RS.decode_gao ~k pairs));
    Alcotest.(check bool) "optimistic none" true
      (Option.is_none (RS.decode_optimistic ~k pairs))
  done

let suites =
  [
    ( "reed-solomon",
      [
        Alcotest.test_case "roundtrip, both decoders, fast encode" `Quick
          roundtrip_no_errors;
        Alcotest.test_case "decodes up to radius (random errors)" `Quick
          decodes_up_to_radius;
        Alcotest.test_case "agreement set certificate" `Quick
          agreement_set_certificate;
        Alcotest.test_case "beyond radius never mis-certifies" `Quick
          fails_beyond_radius;
        Alcotest.test_case "erasure + error decoding (partial sync)" `Quick
          erasure_decoding;
        Alcotest.test_case "zero codeword with errors (regression)" `Quick
          zero_codeword_with_errors;
        Alcotest.test_case "BW and Gao agree everywhere" `Quick decoders_agree;
        Alcotest.test_case "max_errors formula" `Quick max_errors_formula;
        Alcotest.test_case "GF(256) end to end" `Quick gf256_rs;
      ] );
    ( "reed-solomon:optimistic",
      [
        Alcotest.test_case "fast-path hit on clean words" `Quick optimistic_hit;
        Alcotest.test_case "fallback equals Gao within radius" `Quick
          optimistic_fallback_matches_gao;
        QCheck_alcotest.to_alcotest ~long:false qcheck_cross_decoder;
        Alcotest.test_case "all decoders refuse beyond radius" `Quick
          all_none_beyond_radius;
      ] );
  ]
