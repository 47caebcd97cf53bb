(* Transport subsystem: frame codec round-trips and fuzzing, strict
   wire decoders, sim-sizer = real-wire-bytes equality, loopback
   transport behavior, node runtime fault payloads, and end-to-end
   cluster runs — including loopback-vs-socket equivalence through the
   csm_cluster binary. *)

module Frame = Csm_wire.Frame
module F = Csm_field.Fp.Default
module W = Csm_core.Wire.Make (F)
module Params = Csm_core.Params
module Transport = Csm_transport.Transport
module Loopback = Csm_transport.Loopback
module Node = Csm_transport.Node
module N = Node.Make (F)
module Cluster = Csm_transport.Cluster
module C = Cluster.Make (F)
module Agg = Csm_obs.Agg
module Json = Csm_obs.Json
module Metric = Csm_obs.Metric
module Live = Csm_obs.Live
module Alert = Csm_obs.Alert
module Clock = Csm_obs.Clock
module Socket = Csm_transport.Socket

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let all_kinds =
  [ Frame.Command; Frame.Commit; Frame.Result; Frame.Output; Frame.Stats;
    Frame.Shutdown; Frame.Telemetry ]

(* ----- frame codec ----- *)

let frame_round_trip () =
  List.iter
    (fun kind ->
      List.iter
        (fun (sender, round, payload) ->
          let f = Frame.make ~kind ~sender ~round payload in
          let bytes = Frame.encode f in
          check Alcotest.int "encoded size"
            (Frame.encoded_size ~payload_bytes:(String.length payload))
            (String.length bytes);
          match Frame.decode bytes with
          | None -> Alcotest.fail "round trip decode failed"
          | Some g ->
            checkb "kind" true (Frame.kind_eq g.Frame.kind kind);
            check Alcotest.int "sender" sender g.Frame.sender;
            check Alcotest.int "round" round g.Frame.round;
            check Alcotest.string "payload" payload g.Frame.payload)
        [
          (0, 0, "");
          (1, 7, "x");
          (41, 1000000, String.make 257 '\xAB');
          (0x7FFFFFFF, 0x7FFFFFFF, "payload\x00with\xFFbytes");
        ])
    all_kinds

let frame_header_round_trip () =
  let f = Frame.make ~kind:Frame.Result ~sender:3 ~round:9 "abcdef" in
  let bytes = Frame.encode f in
  match Frame.decode_header bytes with
  | None -> Alcotest.fail "header decode failed"
  | Some h ->
    checkb "kind" true (Frame.kind_eq h.Frame.h_kind Frame.Result);
    check Alcotest.int "sender" 3 h.Frame.h_sender;
    check Alcotest.int "round" 9 h.Frame.h_round;
    check Alcotest.int "payload bytes" 6 h.Frame.h_payload_bytes;
    (match
       Frame.of_header h ~body:(String.sub bytes Frame.header_bytes 6)
     with
    | Some g -> checkb "of_header" true (g = f)
    | None -> Alcotest.fail "of_header failed");
    checkb "of_header wrong length" true
      (Option.is_none (Frame.of_header h ~body:"abc"))

(* Truncations, extensions and byte flips of valid encodings must never
   raise; truncations and extensions must decode to None (exact-length
   decoding). *)
let frame_fuzz () =
  let rng = Csm_rng.create 0xF4A2E in
  let n_kinds = List.length all_kinds in
  for _ = 1 to 200 do
    let kind = List.nth all_kinds (Csm_rng.int rng n_kinds) in
    let payload =
      String.init (Csm_rng.int rng 40) (fun _ -> Char.chr (Csm_rng.int rng 256))
    in
    let f =
      Frame.make ~kind
        ~sender:(Csm_rng.int rng 1000)
        ~round:(Csm_rng.int rng 100000)
        payload
    in
    let bytes = Frame.encode f in
    let len = String.length bytes in
    (* every truncation *)
    for cut = 0 to len - 1 do
      checkb "truncated -> None" true
        (Option.is_none (Frame.decode (String.sub bytes 0 cut)))
    done;
    (* extension *)
    checkb "extended -> None" true (Option.is_none (Frame.decode (bytes ^ "\x00")));
    checkb "extended -> None" true (Option.is_none (Frame.decode (bytes ^ bytes)));
    (* random single-byte flips: must not raise, may or may not decode *)
    for _ = 1 to 16 do
      let pos = Csm_rng.int rng len in
      let b = Bytes.of_string bytes in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Csm_rng.int rng 255)));
      ignore (Frame.decode (Bytes.to_string b))
    done
  done;
  (* garbage of every small length *)
  for l = 0 to 64 do
    let s = String.init l (fun _ -> Char.chr (Csm_rng.int rng 256)) in
    ignore (Frame.decode s)
  done

let frame_rejects_bad_fields () =
  let f = Frame.make ~kind:Frame.Commit ~sender:5 ~round:2 "hello" in
  let bytes = Bytes.of_string (Frame.encode f) in
  let flip pos v =
    let b = Bytes.copy bytes in
    Bytes.set b pos (Char.chr v);
    Frame.decode (Bytes.to_string b)
  in
  checkb "bad magic 0" true (flip 0 (Char.code 'X') = None);
  checkb "bad magic 1" true (flip 1 (Char.code 'X') = None);
  checkb "bad version" true (flip 2 99 = None);
  checkb "bad kind tag" true (flip 3 0 = None);
  checkb "bad kind tag" true (flip 3 200 = None);
  (* a length claim larger than the body *)
  let b = Bytes.copy bytes in
  Bytes.set_int32_be b 12 1000l;
  checkb "overlong claim" true (Option.is_none (Frame.decode (Bytes.to_string b)));
  checkb "make rejects negative sender" true
    (try
       ignore (Frame.make ~kind:Frame.Commit ~sender:(-1) ~round:0 "");
       false
     with Invalid_argument _ -> true);
  checkb "make rejects huge payload" true
    (try
       ignore
         (Frame.make ~kind:Frame.Commit ~sender:0 ~round:0
            (String.make (Frame.max_payload_bytes + 1) 'x'));
       false
     with Invalid_argument _ -> true)

(* ----- frame v2: the trace extension ----- *)

let mk_ext trace_id hlc = { Frame.trace_id; hlc }

(* v2 frames round-trip through encode/decode and through the
   header+body streaming path, carrying the extension verbatim. *)
let frame_v2_round_trip () =
  List.iter
    (fun kind ->
      List.iter
        (fun (trace_id, hlc, payload) ->
          let ext = mk_ext trace_id hlc in
          let f = Frame.make ~ext ~kind ~sender:7 ~round:3 payload in
          check Alcotest.int "v2 version" Frame.ext_version f.Frame.version;
          let bytes = Frame.encode f in
          check Alcotest.int "v2 size"
            (Frame.header_bytes + Frame.ext_bytes + String.length payload)
            (String.length bytes);
          (match Frame.decode bytes with
          | None -> Alcotest.fail "v2 decode failed"
          | Some g ->
            checkb "v2 round trip" true (g = f);
            (match g.Frame.ext with
            | Some e ->
              checkb "trace id" true (Int64.equal e.Frame.trace_id trace_id);
              checkb "hlc" true (Int64.equal e.Frame.hlc hlc)
            | None -> Alcotest.fail "v2 lost its extension"));
          (* streaming path: header then body *)
          match Frame.decode_header bytes with
          | None -> Alcotest.fail "v2 header decode failed"
          | Some h ->
            check Alcotest.int "body bytes"
              (Frame.ext_bytes + String.length payload)
              (Frame.body_bytes h);
            let body =
              String.sub bytes Frame.header_bytes (Frame.body_bytes h)
            in
            (match Frame.of_header h ~body with
            | Some g -> checkb "of_header v2" true (g = f)
            | None -> Alcotest.fail "of_header v2 failed"))
        [
          (0L, 0L, "");
          (1L, 42L, "x");
          (0xDEADBEEFCAFEL, Int64.max_int, String.make 100 '\x80');
          (Int64.minus_one, 0x8000000000000000L, "bytes\x00\xff");
        ])
    all_kinds

(* v1 and v2 coexist on one wire: untraced frames keep the exact
   pre-extension layout, and each version rejects the other's length. *)
let frame_cross_version () =
  let payload = "cross-version" in
  let v1 = Frame.make ~kind:Frame.Output ~sender:1 ~round:5 payload in
  let v2 =
    Frame.make ~ext:(mk_ext 99L 1234L) ~kind:Frame.Output ~sender:1 ~round:5
      payload
  in
  let b1 = Frame.encode v1 and b2 = Frame.encode v2 in
  (* v1 bytes: version byte 1, no extension, old size *)
  check Alcotest.int "v1 size"
    (Frame.encoded_size ~payload_bytes:(String.length payload))
    (String.length b1);
  check Alcotest.int "v1 version byte" 1 (Char.code b1.[2]);
  check Alcotest.int "v2 version byte" Frame.ext_version (Char.code b2.[2]);
  (* the extension sits between header and payload; the payload bytes
     and the length field are identical across versions *)
  check Alcotest.string "payload bytes equal"
    (String.sub b1 Frame.header_bytes (String.length payload))
    (String.sub b2
       (Frame.header_bytes + Frame.ext_bytes)
       (String.length payload));
  check Alcotest.string "length field equal"
    (String.sub b1 12 4)
    (String.sub b2 12 4);
  (match Frame.decode b1 with
  | Some g ->
    checkb "v1 decodes ext-free" true (Option.is_none g.Frame.ext);
    check Alcotest.int "v1 stays v1" 1 g.Frame.version
  | None -> Alcotest.fail "v1 decode failed");
  (* version byte toggled without the matching body resize must fail *)
  let flip_version bytes v =
    let b = Bytes.of_string bytes in
    Bytes.set b 2 (Char.chr v);
    Frame.decode (Bytes.to_string b)
  in
  checkb "v1 bytes claiming v2" true
    (Option.is_none (flip_version b1 Frame.ext_version));
  checkb "v2 bytes claiming v1" true (Option.is_none (flip_version b2 1));
  checkb "unknown version 3" true (Option.is_none (flip_version b2 3));
  (* make: version and extension presence must agree *)
  checkb "make rejects v2 without ext" true
    (try
       ignore
         (Frame.make ~version:Frame.ext_version ~kind:Frame.Output ~sender:0
            ~round:0 "");
       false
     with Invalid_argument _ -> true);
  checkb "make rejects v1 with ext" true
    (try
       ignore
         (Frame.make ~version:1 ~ext:(mk_ext 1L 1L) ~kind:Frame.Output
            ~sender:0 ~round:0 "");
       false
     with Invalid_argument _ -> true)

(* Truncating into (or past) the 16-byte extension, or padding beyond
   it, must decode to None on both the one-shot and streaming paths. *)
let frame_v2_ext_rejection () =
  let f =
    Frame.make ~ext:(mk_ext 7L 7L) ~kind:Frame.Commit ~sender:2 ~round:1
      "payload"
  in
  let bytes = Frame.encode f in
  for cut = Frame.header_bytes to String.length bytes - 1 do
    checkb "truncated ext/payload" true
      (Option.is_none (Frame.decode (String.sub bytes 0 cut)))
  done;
  checkb "oversized" true (Option.is_none (Frame.decode (bytes ^ "\x00")));
  match Frame.decode_header bytes with
  | None -> Alcotest.fail "header decode failed"
  | Some h ->
    let body = String.sub bytes Frame.header_bytes (Frame.body_bytes h) in
    checkb "of_header short body" true
      (Option.is_none
         (Frame.of_header h ~body:(String.sub body 0 (Frame.ext_bytes - 1))));
    checkb "of_header long body" true
      (Option.is_none (Frame.of_header h ~body:(body ^ "!")))

(* QCheck: encode/decode is the identity on arbitrary well-formed
   frames, traced or not. *)
let arb_frame =
  let open QCheck in
  let gen =
    Gen.map
      (fun ((kind_i, sender, round), (payload, ext)) ->
        let kind = List.nth all_kinds (kind_i mod List.length all_kinds) in
        let ext =
          Option.map (fun (t, h) -> mk_ext (Int64.of_int t) (Int64.of_int h)) ext
        in
        match ext with
        | Some ext -> Frame.make ~ext ~kind ~sender ~round payload
        | None -> Frame.make ~kind ~sender ~round payload)
      (Gen.pair
         (Gen.triple Gen.nat Gen.nat Gen.nat)
         (Gen.pair Gen.string (Gen.opt (Gen.pair Gen.nat Gen.nat))))
  in
  QCheck.make
    ~print:(fun f -> Format.asprintf "%a" Frame.pp f)
    gen

let qcheck_frame_round_trip =
  QCheck.Test.make ~name:"frame v1/v2 encode-decode identity" ~count:500
    arb_frame (fun f ->
      match Frame.decode (Frame.encode f) with
      | Some g -> g = f
      | None -> false)

(* ----- strict wire decoders ----- *)

let binary_round_trips () =
  let rng = Csm_rng.create 0xB14 in
  for _ = 1 to 50 do
    let dim = 1 + Csm_rng.int rng 6 in
    let v = Array.init dim (fun _ -> F.random rng) in
    let s = W.encode_vector_bin v in
    check Alcotest.int "vector_bytes" (W.vector_bytes ~dim) (String.length s);
    (match W.decode_vector_bin ~dim s with
    | None -> Alcotest.fail "vector bin round trip"
    | Some w -> Array.iteri (fun i x -> checkb "elt" true (F.equal x w.(i))) v);
    let k = 1 + Csm_rng.int rng 4 in
    let cs = Array.init k (fun _ -> Array.init dim (fun _ -> F.random rng)) in
    let sc = W.encode_commands_bin cs in
    check Alcotest.int "commands_bytes"
      (W.commands_bytes ~k ~dim)
      (String.length sc);
    (match W.decode_commands_bin ~k ~dim sc with
    | None -> Alcotest.fail "commands bin round trip"
    | Some ds ->
      Array.iteri
        (fun i row ->
          Array.iteri (fun j x -> checkb "elt" true (F.equal x ds.(i).(j))) row)
        cs);
    (* matrix with mixed row widths *)
    let rows =
      Array.init (1 + Csm_rng.int rng 5) (fun _ ->
          Array.init (Csm_rng.int rng 5) (fun _ -> F.random rng))
    in
    match W.decode_matrix_bin (W.encode_matrix_bin rows) with
    | None -> Alcotest.fail "matrix bin round trip"
    | Some ds ->
      check Alcotest.int "rows" (Array.length rows) (Array.length ds);
      Array.iteri
        (fun i row ->
          check Alcotest.int "row dim" (Array.length row) (Array.length ds.(i));
          Array.iteri (fun j x -> checkb "elt" true (F.equal x ds.(i).(j))) row)
        rows
  done

(* Every binary decoder is exact: truncated and extended bodies are
   rejected, and the node's Corrupt mangling is always detected. *)
let binary_strictness () =
  let rng = Csm_rng.create 0xB57 in
  for _ = 1 to 50 do
    let dim = 1 + Csm_rng.int rng 5 in
    let v = Array.init dim (fun _ -> F.random rng) in
    let s = W.encode_vector_bin v in
    checkb "vec truncated" true
      (W.decode_vector_bin ~dim (String.sub s 0 (String.length s - 1)) = None);
    checkb "vec extended" true (W.decode_vector_bin ~dim (s ^ "\x00") = None);
    checkb "vec corrupt fault" true
      (W.decode_vector_bin ~dim (N.corrupt_payload s) = None);
    let k = 2 in
    let cs = Array.init k (fun _ -> v) in
    let sc = W.encode_commands_bin cs in
    checkb "cmds truncated" true
      (W.decode_commands_bin ~k ~dim (String.sub sc 0 (String.length sc - 1))
      = None);
    checkb "cmds corrupt fault" true
      (W.decode_commands_bin ~k ~dim (N.corrupt_payload sc) = None);
    let m = W.encode_matrix_bin [| v; v |] in
    checkb "matrix truncated" true
      (W.decode_matrix_bin (String.sub m 0 (String.length m - 1)) = None);
    checkb "matrix extended" true (W.decode_matrix_bin (m ^ "\x01") = None);
    checkb "matrix corrupt fault" true
      (W.decode_matrix_bin (N.corrupt_payload m) = None)
  done;
  (* fuzz: random garbage never raises *)
  for _ = 1 to 500 do
    let s =
      String.init (Csm_rng.int rng 64) (fun _ -> Char.chr (Csm_rng.int rng 256))
    in
    (* csm-lint: allow R7 — the fuzz oracle is "never raises"; the verdict itself is irrelevant *)
    ignore (W.decode_vector_bin ~dim:(Csm_rng.int rng 6) s);
    (* csm-lint: allow R7 — fuzz oracle, as above *)
    ignore (W.decode_commands_bin ~k:(Csm_rng.int rng 4) ~dim:(Csm_rng.int rng 4) s);
    (* csm-lint: allow R7 — fuzz oracle, as above *)
    ignore (W.decode_matrix_bin s)
  done

(* The binary formats, pinned: fixed inputs must encode to fixed bytes.
   Round trips alone would pass a rewrite that changed an encoder and
   its decoder together, and the bytes are the wire. *)
let hex s = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let binary_formats_pinned () =
  let v l = Array.of_list (List.map F.of_int l) in
  let pin name want got = check Alcotest.string name want (hex got) in
  pin "vector [0; 1; p-1]" "000000000000000000000000000000010000000078000000"
    (W.encode_vector_bin (v [ 0; 1; 2013265920 ]));
  pin "commands [[5; 6]; [7; 8]]"
    "0000000000000005000000000000000600000000000000070000000000000008"
    (W.encode_commands_bin [| v [ 5; 6 ]; v [ 7; 8 ] |]);
  pin "matrix [[3]; []; [4; 5]]"
    "00000003000000010000000000000003000000000000000200000000000000040000000000000005"
    (W.encode_matrix_bin [| v [ 3 ]; [||]; v [ 4; 5 ] |]);
  pin "frame v1" "43530103000000020000001100000003010203"
    (Frame.encode (Frame.make ~kind:Frame.Result ~sender:2 ~round:17 "\x01\x02\x03"));
  pin "frame v2" "43530202000000010000012c00000002010203040506070811121314151617186162"
    (Frame.encode
       (Frame.make
          ~ext:{ Frame.trace_id = 0x0102030405060708L; hlc = 0x1112131415161718L }
          ~kind:Frame.Commit ~sender:1 ~round:300 "ab"));
  pin "stats payload"
    "00000000000000010000000000000002000000000000012c0000000000061a800000000000000005"
    (N.stats_payload
       {
         Transport.frames_sent = 1;
         frames_received = 2;
         bytes_sent = 300;
         bytes_received = 400000;
         frame_errors = 5;
       });
  (* and the decoders read the pinned bytes back *)
  let ints a = Array.to_list (Array.map F.to_int a) in
  (match W.decode_matrix_bin (W.encode_matrix_bin [| v [ 3 ]; [||]; v [ 4; 5 ] |]) with
  | Some m -> check Alcotest.(list (list int)) "matrix back" [ [ 3 ]; []; [ 4; 5 ] ] (Array.to_list (Array.map ints m))
  | None -> Alcotest.fail "pinned matrix did not decode");
  match W.decode_commands_bin ~k:2 ~dim:2 (W.encode_commands_bin [| v [ 5; 6 ]; v [ 7; 8 ] |]) with
  | Some c -> check Alcotest.(list (list int)) "commands back" [ [ 5; 6 ]; [ 7; 8 ] ] (Array.to_list (Array.map ints c))
  | None -> Alcotest.fail "pinned commands did not decode"

(* A short payload that claims many rows is refused before anything is
   allocated for them: one 20-byte Output frame from a Byzantine node
   must not cost its client half a megabyte.  [Gc.allocated_bytes]
   counts the major heap too, where an array that large would go. *)
let matrix_claim_allocates_nothing () =
  let claims = [ "\x00\x01\x00\x00"; "\x00\x01\x00\x00" ^ String.make 16 '\x00' ] in
  List.iter
    (fun s ->
      let before = Gc.allocated_bytes () in
      let got = W.decode_matrix_bin s in
      let spent = Gc.allocated_bytes () -. before in
      checkb "refused" true (Option.is_none got);
      checkb (Printf.sprintf "allocated %.0f bytes" spent) true (spent < 256.0))
    claims

(* [valid_commands_bin] answers exactly as [decode_commands_bin] does:
   on encoded commands, on them with one byte changed (half the time
   an element's top byte, where the range check bites), truncated,
   extended or mangled as the node's Corrupt fault does, and on random
   bytes; with the encoded shape, or (one time in four) another one. *)
let qcheck_valid_commands =
  QCheck.Test.make ~name:"valid_commands_bin iff decode_commands_bin" ~count:500
    QCheck.(pair (int_range 0 4) (int_range 0 1_000_000))
    (fun (mode, seed) ->
      let r = Csm_rng.create (0x7A1 + seed) in
      let k = Csm_rng.int r 4 and dim = Csm_rng.int r 4 in
      let encoded =
        W.encode_commands_bin
          (Array.init k (fun _ -> Array.init dim (fun _ -> F.random r)))
      in
      let len = String.length encoded in
      let s =
        match mode with
        | 0 -> encoded
        | 1 when len > 0 ->
          let b = Bytes.of_string encoded in
          let at = Csm_rng.int r len in
          let at = if Csm_rng.bool r then at - (at mod W.elt_bytes) else at in
          Bytes.set b at (Char.chr (Csm_rng.int r 256));
          Bytes.to_string b
        | 2 when len > 0 -> String.sub encoded 0 (Csm_rng.int r len)
        | 3 -> if Csm_rng.bool r then encoded ^ "\x00" else N.corrupt_payload encoded
        | _ -> String.init (Csm_rng.int r 64) (fun _ -> Char.chr (Csm_rng.int r 256))
      in
      let k, dim =
        if Csm_rng.int r 4 = 0 then (Csm_rng.int r 5 - 1, Csm_rng.int r 4) else (k, dim)
      in
      W.valid_commands_bin ~k ~dim s
      = Option.is_some (W.decode_commands_bin ~k ~dim s))

(* A Commit echo is checked, not decoded: [valid_commands_bin]
   allocates nothing, on valid commands at K=2 and at the paper-scale
   K=16, and on ones it rejects. *)
let valid_commands_allocates_nothing () =
  let rng = Csm_rng.create 0xA110 in
  List.iter
    (fun (k, dim) ->
      let s =
        W.encode_commands_bin
          (Array.init k (fun _ -> Array.init dim (fun _ -> F.random rng)))
      in
      let bad = N.corrupt_payload s in
      let ok = ref true in
      for _ = 1 to 10 do
        ok := !ok && W.valid_commands_bin ~k ~dim s
      done;
      let before = Gc.minor_words () in
      for _ = 1 to 1_000 do
        ok := !ok && W.valid_commands_bin ~k ~dim s
                  && not (W.valid_commands_bin ~k ~dim bad)
      done;
      let after = Gc.minor_words () in
      checkb "valid accepted, corrupt rejected" true !ok;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "words allocated at K=%d" k)
        0.0 (after -. before))
    [ (2, 2); (16, 1) ]

(* ----- the sim's sizers equal real wire bytes ----- *)

let sim_sizes_equal_wire_bytes () =
  let rng = Csm_rng.create 0x512E in
  for _ = 1 to 30 do
    let dim = 1 + Csm_rng.int rng 8 in
    let g = Array.init dim (fun _ -> F.random rng) in
    (* the execution-phase sizer in lib/core/protocol.ml computes
       [Frame.encoded_size ~payload_bytes:(W.vector_bytes ~dim)]; a real
       Result frame carrying the same vector must measure exactly that *)
    let sim_size =
      Frame.encoded_size ~payload_bytes:(W.vector_bytes ~dim:(Array.length g))
    in
    let real_frame =
      Frame.make ~kind:Frame.Result ~sender:0 ~round:0 (W.encode_vector_bin g)
    in
    check Alcotest.int "sim size = socket bytes" sim_size
      (String.length (Frame.encode real_frame))
  done

(* ----- loopback transport ----- *)

let loopback_send_recv () =
  let net = Loopback.create ~endpoints:3 in
  let a = Loopback.endpoint net ~id:0 in
  let b = Loopback.endpoint net ~id:1 in
  let f1 = Frame.make ~kind:Frame.Commit ~sender:0 ~round:1 "one" in
  let f2 = Frame.make ~kind:Frame.Result ~sender:0 ~round:1 "two" in
  a.Transport.send ~dst:1 f1;
  a.Transport.send ~dst:1 f2;
  (match b.Transport.recv ~timeout:1.0 with
  | Some g -> checkb "first frame" true (g = f1)
  | None -> Alcotest.fail "no first frame");
  (match b.Transport.recv ~timeout:1.0 with
  | Some g -> checkb "second frame" true (g = f2)
  | None -> Alcotest.fail "no second frame");
  (* deadline on an empty mailbox *)
  let t0 = Unix.gettimeofday () in
  checkb "deadline None" true (b.Transport.recv ~timeout:0.05 = None);
  checkb "deadline waited" true (Unix.gettimeofday () -. t0 >= 0.04);
  (* stats: counted at hand-off and delivery, full frame bytes *)
  let sa = Transport.snapshot a and sb = Transport.snapshot b in
  check Alcotest.int "a sent" 2 sa.Transport.frames_sent;
  check Alcotest.int "b received" 2 sb.Transport.frames_received;
  check Alcotest.int "a bytes" (Frame.size f1 + Frame.size f2)
    sa.Transport.bytes_sent;
  check Alcotest.int "b bytes" sa.Transport.bytes_sent
    sb.Transport.bytes_received;
  a.Transport.close ();
  b.Transport.close ()

(* A fresh socket directory for [f], emptied and removed afterwards. *)
let with_sock_dir f =
  let dir = Filename.temp_file "csm_sock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* A frame handed to [send] just before [close] must still arrive, even
   when the kernel has taken only part of it as [close] starts and the
   rest is left to the lingering writer: a node's last frame (its final
   telemetry snapshot) is sent exactly that way. *)
let socket_close_flushes_last_frame () =
  let iterations = 300 in
  (* big enough that the write is still in progress when [close] looks *)
  let payload = String.make (512 * 1024) 'x' in
  let lost = ref 0 in
  with_sock_dir (fun dir ->
      for i = 1 to iterations do
        let addr = Csm_transport.Socket.Uds dir in
        let b = Csm_transport.Socket.endpoint ~addr ~id:1 ~endpoints:2 in
        let a = Csm_transport.Socket.endpoint ~addr ~id:0 ~endpoints:2 in
        let f = Frame.make ~kind:Frame.Telemetry ~sender:0 ~round:i payload in
        a.Transport.send ~dst:1 f;
        a.Transport.close ();
        (match b.Transport.recv ~timeout:1.0 with
        | Some g when g = f -> ()
        | _ -> incr lost);
        b.Transport.close ()
      done);
  check Alcotest.int "frames lost at close" 0 !lost

(* A frame queued for a peer that is not listening yet still arrives
   when that peer comes up within a second of [close]: in a freshly
   forked cluster the other nodes can finish before a slow one listens. *)
let socket_close_waits_for_late_peer () =
  with_sock_dir @@ fun dir ->
  let addr = Socket.Uds dir in
  let a = Socket.endpoint ~addr ~id:0 ~endpoints:2 in
  a.Transport.send ~dst:1 (Frame.make ~kind:Frame.Commit ~sender:0 ~round:5 "x");
  let b = ref None in
  let late =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        b := Some (Socket.endpoint ~addr ~id:1 ~endpoints:2))
      ()
  in
  a.Transport.close ();
  Thread.join late;
  match !b with
  | None -> Alcotest.fail "the late endpoint was not created"
  | Some b ->
    Fun.protect ~finally:b.Transport.close (fun () ->
        match b.Transport.recv ~timeout:2.0 with
        | Some f -> check Alcotest.int "the queued frame" 5 f.Frame.round
        | None -> Alcotest.fail "a frame queued before close was lost")

(* Sends to a peer that has gone away fail with EPIPE on that
   connection instead of killing this process (SIGPIPE), and the next
   send reconnects once a peer listens at that address again. *)
let socket_dead_peer_survives () =
  with_sock_dir @@ fun dir ->
  let addr = Csm_transport.Socket.Uds dir in
  let endpoint id = Csm_transport.Socket.endpoint ~addr ~id ~endpoints:2 in
  let frame round =
    Frame.make ~kind:Frame.Commit ~sender:0 ~round (String.make 4096 'x')
  in
  (* up to [tries] 0.1 s receive waits for the frame of [round] *)
  let rec await tr round tries =
    match tr.Transport.recv ~timeout:0.1 with
    | Some f when f.Frame.round = round -> true
    | _ -> tries > 1 && await tr round (tries - 1)
  in
  let a = endpoint 0 and b = endpoint 1 in
  let b' = ref None in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun tr -> tr.Transport.close ())
        (a :: b :: Option.to_list !b'))
    (fun () ->
      a.Transport.send ~dst:1 (frame 0);
      checkb "peer up: delivered" true (await b 0 20);
      b.Transport.close ();
      for r = 1 to 20 do
        a.Transport.send ~dst:1 (frame r);
        Thread.delay 0.005
      done;
      let again = endpoint 1 in
      b' := Some again;
      a.Transport.send ~dst:1 (frame 99);
      checkb "peer back: delivered" true (await again 99 50))

(* ----- the recv contract, on both transports ----- *)

let loopback_pair () =
  let net = Loopback.create ~endpoints:2 in
  (Loopback.endpoint net ~id:0, Loopback.endpoint net ~id:1)

let socket_pair dir =
  let addr = Socket.Uds dir in
  (Socket.endpoint ~addr ~id:0 ~endpoints:2, Socket.endpoint ~addr ~id:1 ~endpoints:2)

(* A base port with [ports] consecutive free ports from it, found by
   binding port 0 and then each next one: no fixed port that another
   run could hold. *)
let rec free_tcp_base ~ports =
  let bound port =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () -> Some s
    | exception Unix.Unix_error _ ->
      Unix.close s;
      None
  in
  match bound 0 with
  | None -> Alcotest.fail "no free TCP port on 127.0.0.1"
  | Some s0 -> (
    let base =
      match Unix.getsockname s0 with Unix.ADDR_INET (_, p) -> p | _ -> 0
    in
    let rec rest held i =
      if i = ports then Some held
      else
        match if base + i <= 65535 then bound (base + i) else None with
        | Some s -> rest (s :: held) (i + 1)
        | None ->
          List.iter Unix.close held;
          None
    in
    let held = rest [] 1 in
    Unix.close s0;
    match held with
    | Some held ->
      List.iter Unix.close held;
      base
    | None -> free_tcp_base ~ports)

let tcp_pair () =
  let addr = Socket.Tcp (free_tcp_base ~ports:2) in
  (Socket.endpoint ~addr ~id:0 ~endpoints:2, Socket.endpoint ~addr ~id:1 ~endpoints:2)

(* Endpoint 0 sends to endpoint 1: [recv] returns a frame sent during
   its wait, keeps one sender's order, waits out its deadline on an
   empty endpoint, and returns at once once closed. *)
let recv_contract ((a : Transport.t), (b : Transport.t)) =
  let frame round = Frame.make ~kind:Frame.Commit ~sender:0 ~round "x" in
  let t0 = Clock.mono () in
  let late =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        a.Transport.send ~dst:1 (frame 1))
      ()
  in
  (match b.Transport.recv ~timeout:5.0 with
  | Some f -> check Alcotest.int "the late frame" 1 f.Frame.round
  | None -> Alcotest.fail "recv missed a frame sent during its wait");
  checkb "woken within 1 s" true (Clock.mono () -. t0 < 1.0);
  Thread.join late;
  for r = 2 to 101 do
    a.Transport.send ~dst:1 (frame r)
  done;
  for r = 2 to 101 do
    match b.Transport.recv ~timeout:5.0 with
    | Some f -> check Alcotest.int "send order" r f.Frame.round
    | None -> Alcotest.failf "frame %d lost" r
  done;
  let t0 = Clock.mono () in
  checkb "empty: None" true (Option.is_none (b.Transport.recv ~timeout:0.05));
  checkb "not before the deadline" true (Clock.mono () -. t0 >= 0.05);
  b.Transport.close ();
  let t0 = Clock.mono () in
  checkb "closed: None" true (Option.is_none (b.Transport.recv ~timeout:5.0));
  checkb "closed: at once" true (Clock.mono () -. t0 < 0.5);
  a.Transport.close ()

let loopback_recv_contract () = recv_contract (loopback_pair ())

let socket_recv_contract () =
  with_sock_dir (fun dir -> recv_contract (socket_pair dir))

let tcp_recv_contract () = recv_contract (tcp_pair ())

(* [send] never blocks, even on a peer that is not reading: 64 frames
   of 64 KB to an endpoint that never calls [recv] all return at once.
   The bytes the kernel could not take move inside the sender's later
   [recv] calls, and arrive in send order. *)
let socket_send_never_blocks () =
  with_sock_dir @@ fun dir ->
  let a, b = socket_pair dir in
  Fun.protect
    ~finally:(fun () ->
      a.Transport.close ();
      b.Transport.close ())
    (fun () ->
      let payload = String.make (64 * 1024) 'x' in
      let t0 = Clock.mono () in
      for r = 0 to 63 do
        a.Transport.send ~dst:1 (Frame.make ~kind:Frame.Commit ~sender:0 ~round:r payload)
      done;
      checkb "64 sends within 1 s" true (Clock.mono () -. t0 < 1.0);
      let next = ref 0 in
      let limit = Clock.mono () +. 10.0 in
      while !next < 64 && Clock.mono () < limit do
        ignore (a.Transport.recv ~timeout:0.0);
        match b.Transport.recv ~timeout:0.01 with
        | Some f ->
          check Alcotest.int "send order" !next f.Frame.round;
          check Alcotest.int "payload" (String.length payload)
            (String.length f.Frame.payload);
          incr next
        | None -> ()
      done;
      check Alcotest.int "frames delivered" 64 !next)

(* Endpoint 0 sends to endpoint 1 before endpoint 1 exists, as a
   cluster's client sends to nodes that are still starting.  Once
   endpoint 1 is created, the frame must arrive within a fraction of a
   millisecond, not after a fixed connect-retry timer: the median over
   20 trials is held under 1.5 ms (on a 2-vCPU VM, a retry starting at
   2 ms read about 2.5 ms, one starting at 50 us about 0.55 ms). *)
let first_contact addr =
  let frame = Frame.make ~kind:Frame.Command ~sender:0 ~round:0 "x" in
  let trial () =
    let a = Socket.endpoint ~addr ~id:0 ~endpoints:2 in
    a.Transport.send ~dst:1 frame;
    let b = Socket.endpoint ~addr ~id:1 ~endpoints:2 in
    let created = Clock.mono () in
    Fun.protect
      ~finally:(fun () ->
        a.Transport.close ();
        b.Transport.close ())
      (fun () ->
        let rec arrival () =
          ignore (a.Transport.recv ~timeout:0.0002);
          match b.Transport.recv ~timeout:0.0 with
          | Some _ -> Clock.mono () -. created
          | None when Clock.mono () -. created < 5.0 -> arrival ()
          | None -> Alcotest.fail "the first frame never arrived"
        in
        arrival ())
  in
  let waits = List.sort Float.compare (List.init 20 (fun _ -> trial ())) in
  let median = (List.nth waits 9 +. List.nth waits 10) /. 2.0 in
  checkb
    (Printf.sprintf "median first contact %.2f ms, under 1.5 ms" (median *. 1e3))
    true (median < 0.0015)

let socket_first_contact () =
  with_sock_dir (fun dir -> first_contact (Socket.Uds dir));
  first_contact (Socket.Tcp (free_tcp_base ~ports:2))

(* A send to a peer that is down queues its frame and connects only
   when the peer's retry is due, not once per send.  100 sends in a row
   to an endpoint that is not bound make a handful of failed connects
   at the backoff's pace (50 us, doubling), so once it binds, the
   sender's [recv] reaches it within a few milliseconds.  A connect per
   send fails 100 times and backs the retry off to its 100 ms cap.  The
   median of 5 trials is held under 20 ms. *)
let socket_down_peer_backoff () =
  with_sock_dir @@ fun dir ->
  let addr = Socket.Uds dir in
  let trial () =
    let a = Socket.endpoint ~addr ~id:0 ~endpoints:2 in
    Fun.protect ~finally:a.Transport.close (fun () ->
        for r = 0 to 99 do
          a.Transport.send ~dst:1 (Frame.make ~kind:Frame.Commit ~sender:0 ~round:r "x")
        done;
        let b = Socket.endpoint ~addr ~id:1 ~endpoints:2 in
        let bound = Clock.mono () in
        Fun.protect ~finally:b.Transport.close (fun () ->
            let rec arrival () =
              ignore (a.Transport.recv ~timeout:0.0002);
              match b.Transport.recv ~timeout:0.0 with
              | Some _ -> Clock.mono () -. bound
              | None when Clock.mono () -. bound < 5.0 -> arrival ()
              | None -> Alcotest.fail "the queued frames never arrived"
            in
            arrival ()))
  in
  let waits = List.sort Float.compare (List.init 5 (fun _ -> trial ())) in
  let median = List.nth waits 2 in
  checkb
    (Printf.sprintf "median arrival %.2f ms after the bind, under 20 ms"
       (median *. 1e3))
    true (median < 0.02)

(* An outbox is bounded: 40 sends of 1 MiB to a peer that is not
   reading leave the live heap under the outbox cap (16 MiB) plus
   slack, because each send past the cap drops the oldest frames not
   yet started.  The peer is either not up yet or up and not reading;
   then the kernel holds the first frame or two, and the frame it took
   only part of (frames of 1 MiB are too big for one write) must still
   arrive whole.  Once the peer reads, it gets the frames it was sent,
   in order and intact, up to one gap where frames were dropped, ending
   with the last one sent. *)
let socket_outbox_is_bounded () =
  with_sock_dir @@ fun dir ->
  let addr = Socket.Uds dir in
  let sends = 40 in
  let payload r = String.make (1 lsl 20) (Char.chr (Char.code 'a' + (r mod 26))) in
  let live_bytes () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let run ~up_early =
    let before = live_bytes () in
    let a = Socket.endpoint ~addr ~id:0 ~endpoints:2 in
    let endpoint_1 () = Socket.endpoint ~addr ~id:1 ~endpoints:2 in
    let b = ref (if up_early then Some (endpoint_1 ()) else None) in
    Fun.protect
      ~finally:(fun () ->
        a.Transport.close ();
        Option.iter (fun (b : Transport.t) -> b.Transport.close ()) !b)
      (fun () ->
        for r = 0 to sends - 1 do
          a.Transport.send ~dst:1
            (Frame.make ~kind:Frame.Commit ~sender:0 ~round:r (payload r))
        done;
        let grown = live_bytes () - before in
        checkb
          (Printf.sprintf "live heap grew %.1f MiB, under 20 MiB"
             (float_of_int grown /. 1048576.0))
          true
          (grown < 20 lsl 20);
        let up = match !b with Some up -> up | None -> endpoint_1 () in
        b := Some up;
        let rounds = ref [] in
        let limit = Clock.mono () +. 10.0 in
        while
          (match !rounds with r :: _ -> r < sends - 1 | [] -> true)
          && Clock.mono () < limit
        do
          ignore (a.Transport.recv ~timeout:0.001);
          let rec drain () =
            match up.Transport.recv ~timeout:0.0 with
            | Some f ->
              checkb "payload intact" true
                (String.equal (payload f.Frame.round) f.Frame.payload);
              rounds := f.Frame.round :: !rounds;
              drain ()
            | None -> ()
          in
          drain ()
        done;
        (* [rounds] is newest first *)
        let rec in_order = function
          | r :: (r' :: _ as rest) -> r' < r && in_order rest
          | _ -> true
        in
        let rec gaps = function
          | r :: (r' :: _ as rest) -> Bool.to_int (r' < r - 1) + gaps rest
          | _ -> 0
        in
        check Alcotest.int "frame errors" 0
          (Transport.snapshot up).Transport.frame_errors;
        check Alcotest.(option int) "the last frame sent arrives last"
          (Some (sends - 1)) (List.nth_opt !rounds 0);
        checkb "older frames were dropped" true (List.length !rounds < sends);
        checkb "in send order" true (in_order !rounds);
        check Alcotest.int "gaps in the send order" (Bool.to_int up_early)
          (gaps !rounds))
  in
  run ~up_early:false;
  run ~up_early:true

(* One [select] in [recv] serves every inbound connection of a socket
   endpoint: a peer that stops mid-frame delays no other peer's frames,
   and its frame still arrives once the rest of it does. *)
let socket_stalled_peer_holds_up_nobody () =
  with_sock_dir (fun dir ->
      let a, b = socket_pair dir in
      let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          Unix.close raw;
          a.Transport.close ();
          b.Transport.close ())
        (fun () ->
          Unix.connect raw (Socket.sockaddr_of (Socket.Uds dir) 1);
          let stalled = Frame.encode (Frame.make ~kind:Frame.Commit ~sender:0 ~round:7 "late") in
          let write s = ignore (Unix.write_substring raw s 0 (String.length s)) in
          write (String.sub stalled 0 5);
          let t0 = Clock.mono () in
          a.Transport.send ~dst:1 (Frame.make ~kind:Frame.Commit ~sender:0 ~round:1 "x");
          (match b.Transport.recv ~timeout:5.0 with
          | Some f -> check Alcotest.int "the other peer's frame" 1 f.Frame.round
          | None -> Alcotest.fail "a stalled connection held up another peer");
          checkb "within 1 s" true (Clock.mono () -. t0 < 1.0);
          write (String.sub stalled 5 (String.length stalled - 5));
          match b.Transport.recv ~timeout:5.0 with
          | Some f -> check Alcotest.int "the stalled frame, completed" 7 f.Frame.round
          | None -> Alcotest.fail "the completed frame was lost"))

(* ----- the socket receive path's parser, fed by raw connections ----- *)

(* A socket endpoint (id 1 of 2) and a way to open raw Unix-domain
   connections to it, so a test can write bytes no endpoint would
   write: frames back to back, split anywhere, or a bad header. *)
let with_raw_peer f =
  with_sock_dir @@ fun dir ->
  let addr = Socket.Uds dir in
  let b = Socket.endpoint ~addr ~id:1 ~endpoints:2 in
  let raws = ref [] in
  let connect () =
    let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    raws := raw :: !raws;
    Unix.connect raw (Socket.sockaddr_of addr 1);
    raw
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !raws;
      b.Transport.close ())
    (fun () -> f b connect)

let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let recv_frame (b : Transport.t) =
  match b.Transport.recv ~timeout:5.0 with
  | Some f -> f
  | None -> Alcotest.fail "no frame within 5 s"

let check_frame what (want : Frame.t) (got : Frame.t) =
  check Alcotest.int (what ^ ": round") want.Frame.round got.Frame.round;
  checkb (what ^ ": intact") true (got = want)

(* 200 frames in one write, v1 and v2 mixed, come back in order, each
   counted once with its exact size. *)
let socket_parses_back_to_back_frames () =
  with_raw_peer @@ fun b connect ->
  let raw = connect () in
  let frames =
    List.init 200 (fun r ->
        let ext = if r mod 3 = 0 then Some (mk_ext (Int64.of_int r) 1L) else None in
        Frame.make ?ext ~kind:Frame.Commit ~sender:0 ~round:r
          (String.make (r mod 37) 'x'))
  in
  let bytes = String.concat "" (List.map Frame.encode frames) in
  write_all raw bytes;
  List.iter (fun f -> check_frame "send order" f (recv_frame b)) frames;
  let s = Transport.snapshot b in
  check Alcotest.int "frames_received" 200 s.Transport.frames_received;
  check Alcotest.int "bytes_received" (String.length bytes) s.Transport.bytes_received;
  check Alcotest.int "no frame errors" 0 s.Transport.frame_errors

(* A frame written one byte at a time, with a receive between bytes,
   is parsed across as many reads and arrives whole once. *)
let socket_parses_a_frame_byte_by_byte () =
  with_raw_peer @@ fun b connect ->
  let raw = connect () in
  let f =
    Frame.make ~ext:(mk_ext 7L 9L) ~kind:Frame.Result ~sender:0 ~round:3
      (String.init 50 Char.chr)
  in
  let bytes = Frame.encode f in
  String.iteri
    (fun i c ->
      write_all raw (String.make 1 c);
      if i < String.length bytes - 1 then
        checkb "nothing before the last byte" true
          (Option.is_none (b.Transport.recv ~timeout:0.0)))
    bytes;
  check_frame "the frame" f (recv_frame b);
  let s = Transport.snapshot b in
  check Alcotest.int "frames_received" 1 s.Transport.frames_received;
  check Alcotest.int "bytes_received" (String.length bytes) s.Transport.bytes_received

(* A 1 MiB payload, larger than a connection's default buffer, arrives
   intact, and so does the small frame written right behind it.  The
   writer is a thread: the kernel holds less than a megabyte, so the
   write completes only as the endpoint reads. *)
let socket_parses_a_frame_larger_than_its_buffer () =
  with_raw_peer @@ fun b connect ->
  let raw = connect () in
  let big =
    Frame.make ~kind:Frame.Telemetry ~sender:0 ~round:1
      (String.init (1024 * 1024) (fun i -> Char.chr (i land 0xff)))
  in
  let small = Frame.make ~kind:Frame.Commit ~sender:0 ~round:2 "after" in
  let writer =
    Thread.create
      (fun () ->
        try write_all raw (Frame.encode big ^ Frame.encode small)
        with Unix.Unix_error _ -> ())
      ()
  in
  check_frame "the big frame" big (recv_frame b);
  check_frame "the small frame after it" small (recv_frame b);
  Thread.join writer;
  let s = Transport.snapshot b in
  check Alcotest.int "frames_received" 2 s.Transport.frames_received;
  check Alcotest.int "bytes_received" (Frame.size big + Frame.size small)
    s.Transport.bytes_received

(* [fd]'s peer has closed the connection: it reads end of stream. *)
let reads_eof fd =
  match Unix.select [ fd ] [] [] 5.0 with
  | [], _, _ -> false
  | _ -> (
    match Unix.read fd (Bytes.create 1) 0 1 with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true)

(* Two valid frames then a bad-magic header in one write: both frames
   are delivered, the header costs one frame error and the connection,
   and a new connection from the same peer is served. *)
let socket_bad_header_drops_the_connection () =
  with_raw_peer @@ fun b connect ->
  let raw = connect () in
  let frame round = Frame.make ~kind:Frame.Commit ~sender:0 ~round "ok" in
  let good = Frame.encode (frame 1) ^ Frame.encode (frame 2) in
  let bad = "XX" ^ String.sub (Frame.encode (frame 3)) 2 (Frame.header_bytes - 2) in
  write_all raw (good ^ bad);
  check_frame "first" (frame 1) (recv_frame b);
  check_frame "second" (frame 2) (recv_frame b);
  let limit = Clock.mono () +. 5.0 in
  while (Transport.snapshot b).Transport.frame_errors = 0 && Clock.mono () < limit do
    ignore (b.Transport.recv ~timeout:0.01)
  done;
  let s = Transport.snapshot b in
  check Alcotest.int "frames_received" 2 s.Transport.frames_received;
  check Alcotest.int "bytes_received" (String.length good) s.Transport.bytes_received;
  check Alcotest.int "one frame error" 1 s.Transport.frame_errors;
  checkb "the connection was dropped" true (reads_eof raw);
  let again = connect () in
  write_all again (Frame.encode (frame 4));
  check_frame "a new connection is served" (frame 4) (recv_frame b)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Socket endpoints release every fd they open — listener, inbound
   and outbound connections — once closed; a lingering writer would
   close its connections a moment after [close].  So does a creation
   that fails: on a TCP port another socket listens on, and in a
   Unix-domain directory that does not exist. *)
let socket_endpoints_release_fds () =
  with_sock_dir (fun dir ->
      let pair () =
        let a, b = socket_pair dir in
        ignore (b.Transport.recv ~timeout:0.01);
        a.Transport.send ~dst:1 (Frame.make ~kind:Frame.Commit ~sender:0 ~round:0 "x");
        checkb "delivered" true (Option.is_some (b.Transport.recv ~timeout:5.0));
        a.Transport.close ();
        b.Transport.close ()
      in
      let taken = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close taken) @@ fun () ->
      Unix.bind taken (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen taken 1;
      let port =
        match Unix.getsockname taken with Unix.ADDR_INET (_, p) -> p | _ -> 0
      in
      let failed () =
        List.iter
          (fun addr ->
            match Socket.endpoint ~addr ~id:0 ~endpoints:1 with
            | tr ->
              tr.Transport.close ();
              Alcotest.fail "an endpoint was created on an unusable address"
            | exception Unix.Unix_error _ -> ())
          [ Socket.Tcp port; Socket.Uds (Filename.concat dir "missing") ]
      in
      (* wait for any lingering writer to close its fds *)
      let settled target =
        let limit = Clock.mono () +. 5.0 in
        while open_fds () > target && Clock.mono () < limit do
          Thread.delay 0.01
        done;
        open_fds ()
      in
      List.iter
        (fun (what, cycle) ->
          cycle ();
          Thread.delay 0.1;
          let before = open_fds () in
          for _ = 1 to 50 do
            cycle ()
          done;
          checkb ("no fd leaked by 50 " ^ what) true (settled before <= before))
        [ ("endpoint pairs", pair); ("pairs of failed creations", failed) ])

let stats_payload_round_trip () =
  let s =
    {
      Transport.frames_sent = 12;
      frames_received = 34;
      bytes_sent = 5678;
      bytes_received = 91011;
      frame_errors = 3;
    }
  in
  let p = N.stats_payload s in
  check Alcotest.int "payload size" 40 (String.length p);
  (match N.decode_stats_payload p with
  | Some t -> checkb "round trip" true (t = s)
  | None -> Alcotest.fail "stats decode failed");
  checkb "wrong length" true (N.decode_stats_payload (p ^ "\x00") = None);
  checkb "truncated" true (N.decode_stats_payload (String.sub p 0 39) = None)

(* ----- end-to-end cluster runs (loopback, in-process) ----- *)

let cluster_cfg ?(faults = []) ?(rounds = 2) ?(seed = 42) ?(trace = false)
    ?(telemetry = false) ?stream ?live () =
  {
    C.params = Params.make ~network:Params.Sync ~n:3 ~k:1 ~d:1 ~b:1;
    rounds;
    seed;
    mode = Cluster.Loopback;
    faults;
    deadline = 10.0;
    trace;
    telemetry;
    stream;
    live;
  }

let total_frame_errors (r : C.result) =
  Array.fold_left
    (fun acc s ->
      match s with Some s -> acc + s.Transport.frame_errors | None -> acc)
    0 r.C.stats

let cluster_loopback_fault_free () =
  let r = C.run (cluster_cfg ()) in
  checkb "verified" true r.C.ok;
  Array.iter (fun c -> check Alcotest.int "all outputs" 3 c) r.C.outputs_received;
  check Alcotest.int "no frame errors" 0 (total_frame_errors r);
  Array.iteri
    (fun i s ->
      match s with
      | Some _ -> ()
      | None -> Alcotest.failf "endpoint %d sent no stats" i)
    r.C.stats

let cluster_loopback_drop_fault () =
  let r = C.run (cluster_cfg ~faults:[ (1, Node.Drop) ] ()) in
  checkb "verified with dropping node" true r.C.ok;
  Array.iter (fun c -> check Alcotest.int "honest outputs" 2 c) r.C.outputs_received;
  check Alcotest.int "no frame errors" 0 (total_frame_errors r);
  (match r.C.stats.(1) with
  | Some s ->
    (* the snapshot precedes the Stats reply, so a dropper reports 0 *)
    check Alcotest.int "dropper sent nothing" 0 s.Transport.frames_sent
  | None -> Alcotest.fail "dropper sent no stats")

let cluster_loopback_corrupt_fault () =
  let r = C.run (cluster_cfg ~faults:[ (2, Node.Corrupt) ] ()) in
  checkb "verified with corrupting node" true r.C.ok;
  checkb "corruption detected" true (total_frame_errors r > 0)

let cluster_loopback_delay_fault () =
  let r = C.run (cluster_cfg ~faults:[ (0, Node.Delay 0.01) ] ()) in
  checkb "verified with delaying node" true r.C.ok;
  Array.iter (fun c -> check Alcotest.int "all outputs" 3 c) r.C.outputs_received

(* [Node.run] closes its endpoint on every exit: a loopback cluster
   leaves no fd behind, and neither does a run that raises. *)
let node_run_closes_transport () =
  ignore (C.run (cluster_cfg ()));
  let before = open_fds () in
  for i = 2 to 200 do
    checkb "verified" true (C.run (cluster_cfg ())).C.ok;
    check Alcotest.int (Printf.sprintf "open fds after %d loopback clusters" i) before
      (open_fds ())
  done;
  let net = Loopback.create ~endpoints:4 in
  let tr = Loopback.endpoint net ~id:0 in
  let closed = ref false in
  let broken =
    {
      tr with
      Transport.recv = (fun ~timeout:_ -> failwith "recv failed");
      close =
        (fun () ->
          closed := true;
          tr.Transport.close ());
    }
  in
  let cfg = cluster_cfg () in
  let node =
    {
      C.N.node = 0;
      params = cfg.C.params;
      machine = C.machine cfg;
      init = C.initial_states cfg;
      rounds = 2;
      fault = Node.Honest;
      faults = [];
      deadline = 1.0;
      trace = false;
      telemetry = false;
      stream = None;
      scope = Agg.Process;
    }
  in
  checkb "run raised" true
    (match C.N.run node broken with () -> false | exception Failure _ -> true);
  checkb "and closed its endpoint" true !closed

(* ----- the round window ----- *)

let params4 = Params.make ~network:Params.Sync ~n:4 ~k:1 ~d:1 ~b:1

(* Over a 2,000-round run no node holds more than window + 1 round
   records: a node forgets each round once it is decided. *)
let round_window_bounds_memory () =
  let r = C.run { (cluster_cfg ~rounds:2000 ()) with C.params = params4 } in
  checkb "verified" true r.C.ok;
  checkb "round records were held" true (C.N.peak_rounds () >= 1);
  checkb "never more than window + 1 at once" true
    (C.N.peak_rounds () <= C.N.window + 1)

(* A loopback cluster of four nodes, honest unless [faults] says
   otherwise, whose client the test drives by hand, so it can forge
   frames between rounds; [wrap i] may stand between node [i] and its
   endpoint.  Returns the per-round Output payloads each round
   gathered, each with the seconds from its Command to its arrival, the
   nodes' Stats replies, and the seconds from Shutdown to the last
   node's exit. *)
let hand_driven ?(faults = []) ?(wrap = fun _ tr -> tr) ~rounds ~stop_after ~between () =
  let cfg = { (cluster_cfg ~rounds ()) with C.params = params4 } in
  let n = 4 in
  let net = Loopback.create ~endpoints:(n + 1) in
  let node i =
    {
      C.N.node = i;
      params = params4;
      machine = C.machine cfg;
      init = C.initial_states cfg;
      rounds;
      fault = Option.value ~default:Node.Honest (List.assoc_opt i faults);
      faults;
      deadline = 10.0;
      trace = false;
      telemetry = false;
      stream = None;
      scope = Agg.Process;
    }
  in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () -> C.N.run (node i) (wrap i (Loopback.endpoint net ~id:i)))
          ())
  in
  let client = Loopback.endpoint net ~id:n in
  let send_all fr =
    for i = 0 to n - 1 do
      client.Transport.send ~dst:i fr
    done
  in
  let rng = Csm_rng.create cfg.C.seed in
  let outputs =
    List.init stop_after (fun r ->
        let commands = C.workload rng ~k:1 r in
        let sent = Clock.mono () in
        send_all
          (Frame.make ~kind:Frame.Command ~sender:n ~round:r
             (W.encode_commands_bin commands));
        let got = Array.make n None in
        let limit = sent +. 10.0 in
        while Array.exists Option.is_none got && Clock.mono () < limit do
          match client.Transport.recv ~timeout:0.5 with
          | Some fr when Frame.kind_eq fr.Frame.kind Frame.Output && fr.Frame.round = r ->
            got.(fr.Frame.sender) <- Some (fr.Frame.payload, Clock.mono () -. sent)
          | _ -> ()
        done;
        between client r;
        got)
  in
  let t0 = Clock.mono () in
  send_all (Frame.make ~kind:Frame.Shutdown ~sender:n ~round:rounds "");
  let stats = Array.make n None in
  let limit = Clock.mono () +. 10.0 in
  while Array.exists Option.is_none stats && Clock.mono () < limit do
    match client.Transport.recv ~timeout:0.5 with
    | Some fr when Frame.kind_eq fr.Frame.kind Frame.Stats ->
      stats.(fr.Frame.sender) <- C.N.decode_stats_payload fr.Frame.payload
    | _ -> ()
  done;
  List.iter Thread.join threads;
  let ended = Clock.mono () -. t0 in
  client.Transport.close ();
  (C.reference_ledger cfg, outputs, stats, ended)

(* Every node sent an Output for every round [hand_driven] gathered,
   each equal to the reference. *)
let check_outputs reference outputs =
  List.iteri
    (fun r got ->
      Array.iteri
        (fun i p ->
          match p with
          | Some (p, _) ->
            check Alcotest.string (Printf.sprintf "round %d node %d" r i) reference.(r) p
          | None -> Alcotest.failf "round %d: node %d sent no Output" r i)
        got)
    outputs

let frame_errors stats i =
  match stats.(i) with
  | Some s -> s.Transport.frame_errors
  | None -> Alcotest.failf "node %d sent no stats" i

(* Valid Commits and Results for a decided round change nothing and
   are not frame errors, but a malformed one still is; a frame more than
   [window] rounds ahead is one bad-round error; a Shutdown naming the
   last round, sent after an early stop, still ends every node within a
   second. *)
let round_window_filters_frames () =
  let rounds = 40 and stop_after = 6 in
  let forged = W.encode_commands_bin [| [| F.of_int 999 |] |] in
  let between (client : Transport.t) r =
    if r >= 1 then begin
      (* round r-1 is decided everywhere: each node has sent Output r *)
      let stale kind sender payload =
        let fr = Frame.make ~kind ~sender ~round:(r - 1) payload in
        for i = 0 to 3 do
          if i <> sender then client.Transport.send ~dst:i fr
        done
      in
      stale Frame.Commit 0 forged;
      stale Frame.Result 1 (W.encode_vector_bin [| F.of_int 7; F.of_int 7 |])
    end;
    if r = 2 then begin
      (* node 3 is at round 2 or 3: this is more than [window] ahead *)
      client.Transport.send ~dst:3
        (Frame.make ~kind:Frame.Commit ~sender:0 ~round:(r + C.N.window + 2) forged);
      client.Transport.send ~dst:2
        (Frame.make ~kind:Frame.Result ~sender:0 ~round:(r - 1) "malformed")
    end
  in
  let reference, outputs, stats, ended = hand_driven ~rounds ~stop_after ~between () in
  check_outputs reference outputs;
  List.iter
    (fun i -> check Alcotest.int (Printf.sprintf "node %d frame errors" i) 0 (frame_errors stats i))
    [ 0; 1 ];
  check Alcotest.int "node 2: one malformed late frame" 1 (frame_errors stats 2);
  check Alcotest.int "node 3: one bad-round" 1 (frame_errors stats 3);
  checkb "shutdown after an early stop ends every node within 1 s" true (ended < 1.0)

(* A node takes in frames only by waiting for one: over 50 rounds,
   fault-free and with a lying node, no node calls [recv ~timeout:0.0],
   and every node's Output of every round equals the reference. *)
let node_never_polls_empty () =
  let rounds = 50 in
  List.iter
    (fun faults ->
      let calls = Array.init 4 (fun _ -> Hashtbl.create 4) in
      let wrap i (tr : Transport.t) =
        let recv ~timeout =
          let c = Option.value ~default:0 (Hashtbl.find_opt calls.(i) timeout) in
          Hashtbl.replace calls.(i) timeout (c + 1);
          tr.Transport.recv ~timeout
        in
        { tr with Transport.recv }
      in
      let reference, outputs, _, _ =
        hand_driven ~faults ~wrap ~rounds ~stop_after:rounds ~between:(fun _ _ -> ()) ()
      in
      check_outputs reference outputs;
      Array.iteri
        (fun i h ->
          checkb (Printf.sprintf "node %d waited in recv" i) true (Hashtbl.length h > 0);
          check Alcotest.int
            (Printf.sprintf "node %d: recv ~timeout:0.0 calls" i)
            0
            (Option.value ~default:0 (Hashtbl.find_opt h 0.0)))
        calls)
    [ []; [ (1, Node.Lie Node.lie_default) ] ]

(* A node waits for b+1 matching echoes and d(K−1)+b+1 agreeing
   results (d(K−1)+2b+1 when they disagree), not for every sender:
   with node 3 sending each frame 0.1 s late, nodes 0-2 answer every
   Command within 0.05 s, and every Output equals the reference.
   Waiting for node 3 would cost each of them 0.4-0.6 s in round 0. *)
let slow_peer_holds_up_nobody () =
  let rounds = 2 in
  let reference, outputs, _, _ =
    hand_driven ~faults:[ (3, Node.Delay 0.1) ] ~rounds ~stop_after:rounds
      ~between:(fun _ _ -> ()) ()
  in
  check_outputs reference outputs;
  List.iteri
    (fun r got ->
      for i = 0 to 2 do
        match got.(i) with
        | Some (_, after) ->
          checkb
            (Printf.sprintf "round %d node %d: Output after %.3f s" r i after)
            true (after < 0.05)
        | None -> Alcotest.failf "round %d: node %d sent no Output" r i
      done)
    outputs

(* A node that decodes before hearing every sender still takes in the
   rest of the round before it answers the Shutdown.  Node 3 holds its
   last Result to node 0 until node 0 has taken in the Shutdown, so
   node 0 has long sent its Output; node 0's Stats still count every
   frame sent to it: 7 a round (Command, 3 Commits, 3 Results) and the
   Shutdown. *)
let counters_whole_after_quorum () =
  let rounds = 2 in
  let shut_at_0 = Atomic.make false in
  let held = ref None in
  let wrap i (tr : Transport.t) =
    match i with
    | 0 ->
      let recv ~timeout =
        let fr = tr.Transport.recv ~timeout in
        (match fr with
        | Some f when Frame.kind_eq f.Frame.kind Frame.Shutdown -> Atomic.set shut_at_0 true
        | _ -> ());
        fr
      in
      { tr with Transport.recv }
    | 3 ->
      let send ~dst (fr : Frame.t) =
        if dst = 0 && Frame.kind_eq fr.Frame.kind Frame.Result && fr.Frame.round = rounds - 1
        then held := Some fr
        else tr.Transport.send ~dst fr
      in
      let recv ~timeout =
        let fr = tr.Transport.recv ~timeout in
        (match (fr, !held) with
        | Some f, Some h when Frame.kind_eq f.Frame.kind Frame.Shutdown ->
          let limit = Clock.mono () +. 10.0 in
          while (not (Atomic.get shut_at_0)) && Clock.mono () < limit do
            Thread.delay 0.001
          done;
          held := None;
          tr.Transport.send ~dst:0 h
        | _ -> ());
        fr
      in
      { tr with Transport.send; recv }
    | _ -> tr
  in
  let reference, outputs, stats, _ =
    hand_driven ~wrap ~rounds ~stop_after:rounds ~between:(fun _ _ -> ()) ()
  in
  check_outputs reference outputs;
  checkb "node 3 sent the held Result" true (Option.is_none !held);
  match stats.(0) with
  | Some s ->
    check Alcotest.int "node 0 frames received" ((7 * rounds) + 1) s.Transport.frames_received;
    check Alcotest.int "node 0 frame errors" 0 s.Transport.frame_errors
  | None -> Alcotest.fail "node 0 sent no stats"

(* Determinism: two loopback runs at one seed produce identical ledgers
   and identical per-endpoint counters. *)
let cluster_loopback_deterministic () =
  let a = C.run (cluster_cfg ()) and b = C.run (cluster_cfg ()) in
  checkb "ledgers equal" true (a.C.ledger = b.C.ledger);
  checkb "stats equal" true (a.C.stats = b.C.stats)

let contains_sub hay needle =
  let nl = String.length needle in
  let found = ref false in
  for i = 0 to String.length hay - nl do
    if String.sub hay i nl = needle then found := true
  done;
  !found

(* Traced run with streaming on too: the stream ends in exactly one
   final snapshot per node (plus the client's own), flight rings pair
   cross-node send→recv flows, the merged Chrome trace carries flow
   events, and an untraced run gathers nothing. *)
let cluster_loopback_telemetry () =
  let live = Live.create ~k:1 () in
  let r =
    C.run (cluster_cfg ~trace:true ~telemetry:true ~stream:0.001 ~live ())
  in
  checkb "verified" true r.C.ok;
  check Alcotest.int "no frame errors" 0 (total_frame_errors r);
  let finals = r.C.telemetry in
  check Alcotest.int "finals: 3 nodes + client" 4 (List.length finals);
  List.iteri
    (fun i (s : Agg.snapshot) ->
      check Alcotest.int "node order" i s.Agg.s_node;
      checkb "final" true s.Agg.s_final;
      checkb "flight ring non-empty" true (s.Agg.s_flight <> []))
    finals;
  let applied, _, rejected = Live.deltas live in
  checkb "the live store merged the stream" true (applied > 0);
  check Alcotest.int "no rejected snapshots" 0 rejected;
  checkb "cross-node flows paired" true (Agg.cross_flows finals >= 1);
  checkb "hlc advanced" true (Agg.max_hlc finals > 0);
  let trace = Json.to_string (Agg.cluster_trace finals) in
  checkb "merged trace parses" true
    (match Json.parse trace with
    | _ -> true
    | exception Json.Parse_error _ -> false);
  checkb "trace has flow starts" true (contains_sub trace "\"ph\":\"s\"");
  checkb "trace has flow ends" true (contains_sub trace "\"ph\":\"f\"");
  checkb "trace has wire slices" true (contains_sub trace "\"cat\":\"csm.wire\"");
  (* telemetry off: nothing gathered, result shape unchanged *)
  let r0 = C.run (cluster_cfg ()) in
  checkb "no snapshots untraced" true
    (match r0.C.telemetry with [] -> true | _ -> false)

(* In-flight streaming: a loopback run with a live store merges the
   nodes' csm-node-telemetry/2 snapshots while rounds are still running,
   the commit ticks feed the lambda window, and a lying node (well-
   formed wrong Result vectors) trips the suspicion alert before the
   run ends — the live-observability acceptance path. *)
let cluster_loopback_streaming () =
  Metric.enable ();
  Metric.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metric.reset ();
      Metric.disable ())
    (fun () ->
      let live = Live.create ~k:1 () in
      let r =
        C.run
          (cluster_cfg ~rounds:8 ~faults:[ (1, Node.Lie Node.lie_default) ] ~stream:0.01 ~live
             ())
      in
      let lam = Live.lambda live in
      checkb "verified: the decode corrects the lie" true r.C.ok;
      check Alcotest.int "lie frames are well-formed" 0 (total_frame_errors r);
      checkb "run_seconds measured" true (r.C.run_seconds > 0.0);
      check Alcotest.int "every round committed" 8 (Live.commits live);
      let applied, _, rejected = Live.deltas live in
      checkb "snapshots applied in flight" true (applied > 0);
      check Alcotest.int "no rejected snapshots" 0 rejected;
      checkb "windowed lambda positive" true (lam > 0.0);
      (* the decoder attributed the lie: suspicion reached the live
         view through the snapshots and fired the alert mid-run *)
      checkb "suspicion alert fired" true
        (Alert.first_fired (Live.alerts live) "suspicion" <> None);
      let scrape = Live.scrape live in
      checkb "scrape carries windowed lambda" true
        (contains_sub scrape "csm_window_lambda");
      checkb "scrape carries the alert gauge" true
        (contains_sub scrape "csm_alerts_firing{rule=\"suspicion\"} 1");
      checkb "scrape carries merged node suspicion" true
        (contains_sub scrape "csm_node_suspicion");
      (match Json.parse (Json.to_string (Live.windows_json live)) with
      | Json.Obj fields ->
        checkb "windows.json has schema" true
          (List.mem_assoc "schema" fields && List.mem_assoc "lambda" fields)
      | _ -> Alcotest.fail "windows.json not an object"
      | exception Json.Parse_error m -> Alcotest.failf "windows.json: %s" m);
      (* idempotency end-to-end: re-applying a stale synthetic snapshot
         of the loopback registry changes nothing *)
      let before = Csm_obs.Prom.render_views (Live.node_views live) in
      let stale =
        { (Agg.capture ~views:[] ~node:0 ~scope:Agg.Process ()) with Agg.s_seq = 1 }
      in
      (match Live.apply live (Agg.decode (Agg.encode stale)) with
      | `Stale -> ()
      | `Applied -> Alcotest.fail "stale snapshot applied"
      | `Malformed -> Alcotest.fail "synthetic snapshot malformed");
      check Alcotest.string "state unchanged by stale snapshot" before
        (Csm_obs.Prom.render_views (Live.node_views live)))

(* In each of [nodes]' flight rings, every round from [from] on holds
   its "decoded" phase before any Result from a [slow] peer. *)
let decodes_before_slow (r : C.result) ~slow ~nodes ~from ~rounds =
  let ring i =
    match List.find_opt (fun (s : Agg.snapshot) -> s.Agg.s_node = i) r.C.telemetry with
    | Some s -> s.Agg.s_flight
    | None -> Alcotest.failf "node %d sent no final snapshot" i
  in
  let attr (e : Csm_obs.Flight.entry) key = List.assoc_opt key e.Csm_obs.Flight.f_attrs in
  List.iter
    (fun i ->
      for round = from to rounds - 1 do
        let rec scan = function
          | [] -> Alcotest.failf "node %d round %d: no decoded phase" i round
          | (e : Csm_obs.Flight.entry) :: rest ->
            if e.f_round <> round then scan rest
            else if e.f_kind = "phase" && attr e "phase" = Some "decoded" then ()
            else if
              e.f_kind = "recv"
              && attr e "frame" = Some "result"
              && List.exists (fun j -> attr e "src" = Some (string_of_int j)) slow
            then
              Alcotest.failf "node %d round %d: a slow peer's Result came before the decode" i
                round
            else scan rest
        in
        scan (ring i)
      done)
    nodes

(* Decode on agreement: at 5/1/1/2 the early quorum is d(K−1)+b+1 = 3
   and the full one d(K−1)+2b+1 = 5 = N.  With nodes 3 and 4 sending
   every frame 50 ms late, each of nodes 0-2 has three agreeing
   results, its own and the other two's, so its flight ring holds the
   round's "decoded" phase before any Result from node 3 or 4.  (A
   node that waited for all five Results would record them first.)
   Every round is accepted with the reference ledger. *)
let early_decode_skips_slow_peers () =
  let rounds = 3 and slow = [ 3; 4 ] in
  let r =
    C.run
      {
        (cluster_cfg ~rounds ~telemetry:true
           ~faults:(List.map (fun i -> (i, Node.Delay 0.05)) slow)
           ())
        with
        C.params = Params.make ~network:Params.Sync ~n:5 ~k:1 ~d:1 ~b:2;
      }
  in
  checkb "verified" true r.C.ok;
  decodes_before_slow r ~slow ~nodes:[ 0; 1; 2 ] ~from:0 ~rounds

(* Convicted liars leave the early quorum: at 8/2/2/2 with nodes 0 and
   1 lying every round and nodes 6 and 7 sending every frame 50 ms
   late, node 2's six prompt results are its own, 3, 4, 5, 0 and 1, and
   any five of them hold a liar, so round 0 waits for a slow peer's
   Result and its full decode convicts 0 and 1.  From round 1 on each
   of nodes 2-5 drops the two convicted senders and needs d(K−1)+0+1 =
   3 agreeing results from the rest, which its four prompt honest ones
   give before any Result from node 6 or 7.  Every round is accepted
   with the reference ledger. *)
let convicted_liars_leave_the_early_quorum () =
  let rounds = 4 and slow = [ 6; 7 ] in
  let r =
    C.run
      {
        (cluster_cfg ~rounds ~telemetry:true
           ~faults:
             ([ (0, Node.Lie Node.lie_default); (1, Node.Lie Node.lie_default) ]
             @ List.map (fun i -> (i, Node.Delay 0.05)) slow)
           ())
        with
        C.params = Params.make ~network:Params.Sync ~n:8 ~k:2 ~d:2 ~b:2;
      }
  in
  checkb "verified" true r.C.ok;
  decodes_before_slow r ~slow ~nodes:[ 2; 3; 4; 5 ] ~from:1 ~rounds

(* Liars are attributed at the end of a round, from every Result heard:
   at 8/2/2/2 with nodes 0 and 1 lying, whichever results a node
   decoded from, each of the seven other nodes blames each liar once a
   round (a liar holds its own honest result, so it blames the other
   one), and nobody blames an honest node. *)
let liars_attributed_once_a_round () =
  let rounds = 4 in
  Metric.enable ();
  Metric.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metric.reset ();
      Metric.disable ())
    (fun () ->
      let r =
        C.run
          {
            (cluster_cfg ~rounds
               ~faults:[ (0, Node.Lie Node.lie_default); (1, Node.Lie Node.lie_default) ]
               ())
            with
            C.params = Params.make ~network:Params.Sync ~n:8 ~k:2 ~d:2 ~b:2;
          }
      in
      checkb "verified" true r.C.ok;
      let blamed =
        match
          List.find_opt
            (fun (v : Metric.view) -> v.Metric.name = "csm_decode_errors_total")
            (Metric.families ())
        with
        | None -> []
        | Some v ->
          List.map
            (fun (s : Metric.sample) ->
              ( List.assoc "node" s.Metric.labels,
                match s.Metric.value with Metric.V_counter c -> c | _ -> -1 ))
            v.Metric.samples
      in
      check
        Alcotest.(list (pair string int))
        "csm_decode_errors_total by node"
        [ ("0", 7 * rounds); ("1", 7 * rounds) ]
        (List.sort (fun (a, _) (b, _) -> String.compare a b) blamed))

(* Every telemetry family is interned per call: after a registry reset,
   a loopback round with metrics on lists its round latency, and a
   runtime sample its gauges. *)
let telemetry_families_survive_reset () =
  Metric.enable ();
  Metric.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metric.reset ();
      Metric.disable ())
    (fun () ->
      checkb "verified" true (C.run (cluster_cfg ~rounds:1 ())).C.ok;
      Csm_obs.Telemetry.sample_runtime ();
      let names = List.map (fun (v : Metric.view) -> v.Metric.name) (Metric.families ()) in
      List.iter
        (fun name -> checkb (name ^ " listed") true (List.mem name names))
        [ "csm_round_latency_seconds"; "csm_gc_heap_words"; "csm_process_rss_bytes" ])

(* ----- loopback vs socket equivalence through the binary ----- *)

(* The driver is a declared dune dep living next to this executable's
   directory; resolve it relative to the test binary so the test works
   from any cwd (dune runtest, dune exec, direct invocation). *)
let cluster_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "csm_cluster.exe"

let run_cluster_exe ?(env = "") args out =
  let cmd =
    Printf.sprintf "%s %s %s --out %s > /dev/null 2>&1" env (Filename.quote cluster_exe)
      args (Filename.quote out)
  in
  Sys.command cmd

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The reports differ only in config.transport and the wall-clock
   fields (run_seconds and the lambda derived from it) — everything
   else (host, ledgers, per-endpoint counters) must be identical. *)
let normalize s =
  match Json.parse s with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj
         (List.filter_map
            (fun (k, v) ->
              match (k, v) with
              | ("run_seconds" | "lambda"), _ -> None
              | "config", Json.Obj cf ->
                Some
                  ( k,
                    Json.Obj
                      (List.map
                         (fun (ck, cv) ->
                           if ck = "transport" then (ck, Json.Str "X")
                           else (ck, cv))
                         cf) )
              | _ -> Some (k, v))
            fields))
  | other -> Json.to_string other
  | exception Json.Parse_error m -> Alcotest.failf "report not JSON: %s" m

(* [other] is the second run's transport flags. *)
let equivalence ~other args =
  let out_loop = Filename.temp_file "csm_cluster_loop" ".json" in
  let out_other = Filename.temp_file "csm_cluster_other" ".json" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove out_loop with Sys_error _ -> ());
      try Sys.remove out_other with Sys_error _ -> ())
    (fun () ->
      let rc1 = run_cluster_exe ("--transport loopback " ^ args) out_loop in
      check Alcotest.int "loopback exit" 0 rc1;
      let rc2 = run_cluster_exe (other ^ " " ^ args) out_other in
      check Alcotest.int (other ^ " exit") 0 rc2;
      check Alcotest.string "identical reports"
        (normalize (read_file out_loop))
        (normalize (read_file out_other)))

let socket = "--transport socket"

let loopback_socket_equivalent () =
  equivalence ~other:socket "-n 3 -k 1 -d 1 -b 1 --rounds 2 --seed 42"

let loopback_socket_equivalent_drop () =
  equivalence ~other:socket "-n 3 -k 1 -d 1 -b 1 --rounds 2 --seed 7 --faults 1:drop"

(* Every node hears each round from every peer that sends, a corrupt
   one included, so every mangled frame is counted within its round and
   the counters match across transports. *)
let loopback_socket_equivalent_corrupt () =
  equivalence ~other:socket "-n 3 -k 1 -d 1 -b 1 --rounds 2 --seed 9 --faults 2:corrupt"

(* The forked nodes and the client listen on five consecutive ports. *)
let loopback_tcp_equivalent_lie () =
  equivalence
    ~other:(Printf.sprintf "--transport tcp --port-base %d" (free_tcp_base ~ports:5))
    "-n 4 -k 1 -d 1 -b 1 --rounds 200 --seed 11 --faults 1:lie"

let socket_corrupt_detected () =
  let out = Filename.temp_file "csm_cluster_corrupt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rc =
        run_cluster_exe
          "--transport socket -n 3 -k 1 -d 1 -b 1 --rounds 2 --faults \
           2:corrupt --expect-frame-errors"
          out
      in
      check Alcotest.int "corrupt run exit" 0 rc;
      let report = read_file out in
      checkb "report says ok" true
        (let needle = "\"ok\":true" in
         let nl = String.length needle in
         let found = ref false in
         for i = 0 to String.length report - nl do
           if String.sub report i nl = needle then found := true
         done;
         !found))

(* csm_node_suspicion is a conviction flag: a 3-round 5/1/1/2 run with
   node 0 lying reads 1 for node 0 and 0 for the others in its
   CSM_METRICS exposition, over loopback, where the nodes share one
   registry, and over sockets, where the client merges the node
   registries with max. *)
let suspicion_is_a_flag () =
  List.iter
    (fun transport ->
      let prom = Filename.temp_file "csm_cluster_suspicion" ".prom" in
      let out = Filename.temp_file "csm_cluster_suspicion" ".json" in
      Fun.protect
        ~finally:(fun () ->
          (try Sys.remove prom with Sys_error _ -> ());
          try Sys.remove out with Sys_error _ -> ())
        (fun () ->
          let rc =
            run_cluster_exe
              (Printf.sprintf
                 "--transport %s -n 5 -k 1 -d 1 -b 2 --rounds 3 --faults 0:lie" transport)
              out ~env:(Printf.sprintf "CSM_METRICS=%s" (Filename.quote prom))
          in
          check Alcotest.int (transport ^ " exit") 0 rc;
          let lines = String.split_on_char '\n' (read_file prom) in
          List.iter
            (fun (node, v) ->
              let line = Printf.sprintf "csm_node_suspicion{node=\"%d\"} %d" node v in
              checkb (transport ^ ": " ^ line) true (List.mem line lines))
            [ (0, 1); (1, 0); (2, 0); (3, 0); (4, 0) ]))
    [ "loopback"; "socket" ]

let suites =
  [
    ( "transport",
      [
        Alcotest.test_case "frame round trip, all kinds" `Quick
          frame_round_trip;
        Alcotest.test_case "frame header round trip" `Quick
          frame_header_round_trip;
        Alcotest.test_case "frame fuzz: total decoding" `Quick frame_fuzz;
        Alcotest.test_case "frame rejects bad fields" `Quick
          frame_rejects_bad_fields;
        Alcotest.test_case "frame v2 round trip, all kinds" `Quick
          frame_v2_round_trip;
        Alcotest.test_case "frame v1/v2 cross-version" `Quick
          frame_cross_version;
        Alcotest.test_case "frame v2 extension rejection" `Quick
          frame_v2_ext_rejection;
        QCheck_alcotest.to_alcotest ~long:false qcheck_frame_round_trip;
        Alcotest.test_case "binary codec round trips" `Quick
          binary_round_trips;
        QCheck_alcotest.to_alcotest ~long:false qcheck_valid_commands;
        Alcotest.test_case "valid_commands_bin allocates nothing" `Quick
          valid_commands_allocates_nothing;
        Alcotest.test_case "binary decoder strictness + fuzz" `Quick
          binary_strictness;
        Alcotest.test_case "sim sizers equal real wire bytes" `Quick
          sim_sizes_equal_wire_bytes;
        Alcotest.test_case "loopback send/recv/deadline/stats" `Quick
          loopback_send_recv;
        Alcotest.test_case "socket close flushes a dequeued frame" `Quick
          socket_close_flushes_last_frame;
        Alcotest.test_case "socket close waits for a late peer" `Quick
          socket_close_waits_for_late_peer;
        Alcotest.test_case "socket send to a dead peer is not fatal" `Quick
          socket_dead_peer_survives;
        Alcotest.test_case "recv contract: loopback" `Quick
          loopback_recv_contract;
        Alcotest.test_case "recv contract: socket" `Quick socket_recv_contract;
        Alcotest.test_case "recv contract: tcp" `Quick tcp_recv_contract;
        Alcotest.test_case "socket send never blocks on a peer not reading" `Quick
          socket_send_never_blocks;
        Alcotest.test_case "socket first contact is prompt" `Quick
          socket_first_contact;
        Alcotest.test_case "socket connects to a down peer at the backoff's pace"
          `Quick socket_down_peer_backoff;
        Alcotest.test_case "socket outbox is bounded" `Quick
          socket_outbox_is_bounded;
        Alcotest.test_case "socket: a stalled peer holds up nobody" `Quick
          socket_stalled_peer_holds_up_nobody;
        Alcotest.test_case "socket parser: 200 frames in one write" `Quick
          socket_parses_back_to_back_frames;
        Alcotest.test_case "socket parser: a frame a byte at a time" `Quick
          socket_parses_a_frame_byte_by_byte;
        Alcotest.test_case "socket parser: a frame larger than its buffer" `Quick
          socket_parses_a_frame_larger_than_its_buffer;
        Alcotest.test_case "socket parser: a bad header drops the connection" `Quick
          socket_bad_header_drops_the_connection;
        Alcotest.test_case "socket endpoints release their fds" `Quick
          socket_endpoints_release_fds;
        Alcotest.test_case "stats payload round trip" `Quick
          stats_payload_round_trip;
        Alcotest.test_case "cluster loopback fault-free" `Quick
          cluster_loopback_fault_free;
        Alcotest.test_case "cluster loopback drop fault" `Quick
          cluster_loopback_drop_fault;
        Alcotest.test_case "cluster loopback corrupt fault" `Quick
          cluster_loopback_corrupt_fault;
        Alcotest.test_case "cluster loopback delay fault" `Quick
          cluster_loopback_delay_fault;
        Alcotest.test_case "cluster loopback deterministic" `Quick
          cluster_loopback_deterministic;
        Alcotest.test_case "node run closes its transport on every exit" `Quick
          node_run_closes_transport;
        Alcotest.test_case "round window bounds a node's round records" `Quick
          round_window_bounds_memory;
        Alcotest.test_case "round window filters decided and far rounds" `Quick
          round_window_filters_frames;
        Alcotest.test_case "a slow peer holds up nobody" `Quick slow_peer_holds_up_nobody;
        Alcotest.test_case "counters stay whole past a quorum" `Quick
          counters_whole_after_quorum;
        Alcotest.test_case "node waits never poll an empty endpoint" `Quick
          node_never_polls_empty;
        Alcotest.test_case "cluster loopback streaming + alerts" `Quick
          cluster_loopback_streaming;
        Alcotest.test_case "cluster loopback telemetry + trace" `Quick
          cluster_loopback_telemetry;
        Alcotest.test_case "early decode skips slow peers" `Quick
          early_decode_skips_slow_peers;
        Alcotest.test_case "convicted liars leave the early quorum" `Quick
          convicted_liars_leave_the_early_quorum;
        Alcotest.test_case "liars attributed once a round" `Quick
          liars_attributed_once_a_round;
        Alcotest.test_case "telemetry families survive a registry reset" `Quick
          telemetry_families_survive_reset;
        Alcotest.test_case "loopback = socket (binary, fault-free)" `Quick
          loopback_socket_equivalent;
        Alcotest.test_case "loopback = socket (binary, drop fault)" `Quick
          loopback_socket_equivalent_drop;
        Alcotest.test_case "loopback = socket (binary, corrupt fault)" `Quick
          loopback_socket_equivalent_corrupt;
        Alcotest.test_case "loopback = tcp (binary, lie fault)" `Quick
          loopback_tcp_equivalent_lie;
        Alcotest.test_case "socket corrupt fault detected" `Quick
          socket_corrupt_detected;
        Alcotest.test_case "suspicion reads 1 on loopback and sockets" `Quick
          suspicion_is_a_flag;
        (* appended, so that every earlier case keeps its number for
           [test_main.exe test transport N] *)
        Alcotest.test_case "binary formats pinned" `Quick binary_formats_pinned;
        Alcotest.test_case "a matrix row claim allocates nothing" `Quick
          matrix_claim_allocates_nothing;
      ] );
  ]
