(* csm-lint analyzer tests: per-rule inline fixtures (a bad snippet
   that must fire, a good twin that must stay silent), the suppression
   and baseline machinery, and a self-check that the repo itself lints
   clean against the committed baseline. *)

module Finding = Csm_analysis.Finding
module Driver = Csm_analysis.Driver
module Baseline = Csm_analysis.Baseline

let rules fs = List.map (fun (f : Finding.t) -> f.Finding.rule) fs

let fires rule ?registry ~path src =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires in %s" rule path)
    true
    (List.mem rule (rules (Driver.lint_string ?registry ~path src)))

let silent rule ?registry ~path src =
  Alcotest.(check bool)
    (Printf.sprintf "%s silent in %s" rule path)
    false
    (List.mem rule (rules (Driver.lint_string ?registry ~path src)))

(* ----- R1: determinism boundary ----- *)

let r1 () =
  fires "R1" ~path:"lib/core/x.ml" "let r () = Random.int 7";
  fires "R1" ~path:"lib/core/x.ml" "let t () = Unix.gettimeofday ()";
  fires "R1" ~path:"lib/core/x.ml" "let t () = Sys.time ()";
  fires "R1" ~path:"lib/core/x.ml" "let d () = (Domain.self () :> int)";
  (* Csm_rng is the sanctioned source *)
  silent "R1" ~path:"lib/core/x.ml" "let r g = Csm_rng.int g 7";
  (* the nondeterministic layers are allowlisted *)
  silent "R1" ~path:"lib/obs/x.ml" "let t () = Unix.gettimeofday ()";
  silent "R1" ~path:"lib/transport/x.ml" "let t () = Unix.gettimeofday ()";
  silent "R1" ~path:"lib/sim/net.ml" "let t () = Unix.gettimeofday ()"

(* ----- R2: polymorphic comparison ----- *)

let r2 () =
  fires "R2" ~path:"lib/core/x.ml" "let f a b = a.Frame.kind = b.Frame.kind";
  fires "R2" ~path:"lib/core/x.ml" "let f x = x = F.zero";
  fires "R2" ~path:"lib/core/x.ml" "let f x = compare x Fp.one";
  fires "R2" ~path:"lib/core/x.ml" "let f x = Hashtbl.hash (Gf2m.mul x x)";
  fires "R2" ~path:"lib/core/x.ml" "let f l = List.sort compare l";
  fires "R2" ~path:"lib/rs/x.ml" "let f l = List.map compare l";
  silent "R2" ~path:"lib/core/x.ml" "let f a b = F.equal a b";
  (* int-returning accessors compare fine *)
  silent "R2" ~path:"lib/core/x.ml" "let f x y = F.to_int x = F.to_int y";
  silent "R2" ~path:"lib/core/x.ml" "let f l = List.sort Int.compare l";
  (* bare compare is only banned wholesale in the algebra layers *)
  silent "R2" ~path:"lib/core/x.ml" "let f = compare"

(* ----- R3: mutex discipline ----- *)

let r3 () =
  fires "R3" ~path:"lib/core/x.ml"
    "let m = Mutex.create ()\nlet f () = Mutex.lock m; work (); Mutex.unlock m";
  (* a raw lock fires even when its release is exception-safe *)
  fires "R3" ~path:"lib/core/x.ml"
    "let m = Mutex.create ()\n\
     let f () =\n\
    \  Mutex.lock m;\n\
    \  Fun.protect ~finally:(fun () -> Mutex.unlock m) work";
  fires "R3" ~path:"lib/core/x.ml"
    "let m = Mutex.create ()\n\
     let f () =\n\
    \  Mutex.lock m;\n\
    \  (try work () with e -> Mutex.unlock m; raise e);\n\
    \  Mutex.unlock m";
  fires "R3" ~path:"bin/x.ml" "let f m = Mutex.unlock m";
  (* Mutex.protect releases on every exit *)
  silent "R3" ~path:"lib/core/x.ml"
    "let m = Mutex.create ()\nlet f () = Mutex.protect m work"

(* ----- R4: shared mutable state registry ----- *)

let r4 () =
  fires "R4" ~path:"lib/core/x.ml" "let total = ref 0";
  fires "R4" ~path:"lib/core/x.ml" "let tbl = Hashtbl.create 16";
  fires "R4" ~path:"lib/core/x.ml" "let buf = Array.make 8 0";
  (* registered state is fine *)
  (let registry = Hashtbl.create 4 in
   Hashtbl.replace registry "lib/core/x.ml:total" ();
   silent "R4" ~registry ~path:"lib/core/x.ml" "let total = ref 0");
  (* atomics are lock-free but still shared mutable state: registry *)
  fires "R4" ~path:"lib/core/x.ml" "let total = Atomic.make 0";
  (let registry = Hashtbl.create 4 in
   Hashtbl.replace registry "lib/core/x.ml:total" ();
   silent "R4" ~registry ~path:"lib/core/x.ml" "let total = Atomic.make 0");
  (* op counters wrap atomics; same rule *)
  fires "R4" ~path:"lib/core/x.ml" "let c = Csm_metrics.Counter.create ()";
  (* a bare lock holds no data; it is the locking story, not the state *)
  silent "R4" ~path:"lib/core/x.ml" "let m = Mutex.create ()";
  (* function-local state is not shared *)
  silent "R4" ~path:"lib/core/x.ml" "let f () = let c = ref 0 in incr c; !c";
  (* out of scope: tests may keep local toplevel state *)
  silent "R4" ~path:"test/x.ml" "let total = ref 0"

(* the converse: a registry entry naming no module-level mutable binding
   is stale, and reported at its line of the registry (a throwaway tree
   with one live and one stale entry, linted as the CLI lints) *)
let r4_stale () =
  let root = Filename.temp_dir "csm_lint_r4" "" in
  let files =
    [
      ("lib/core/x.ml", "let m = Mutex.create ()\nlet total = ref 0\n");
      ( "lint/shared_state.allow",
        "# header\nlib/core/x.ml:total  guarded by m\n\
         lib/core/x.ml:gone  removed\n" );
    ]
  in
  let dirs = [ "lib"; "lib/core"; "lint" ] in
  let abs rel = Filename.concat root rel in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (rel, _) -> Sys.remove (abs rel)) files;
      List.iter (fun d -> Sys.rmdir (abs d)) (List.rev dirs);
      Sys.rmdir root)
    (fun () ->
      List.iter (fun d -> Sys.mkdir (abs d) 0o755) dirs;
      List.iter
        (fun (rel, src) ->
          Out_channel.with_open_bin (abs rel) (fun oc -> output_string oc src))
        files;
      let r =
        Driver.lint_tree ~root ~baseline_path:(abs "lint/baseline.json") ()
      in
      match r.Driver.fresh with
      | [ f ] ->
        Alcotest.(check string) "rule" "R4" f.Finding.rule;
        Alcotest.(check string) "file" "lint/shared_state.allow" f.Finding.file;
        Alcotest.(check int) "line" 3 f.Finding.line
      | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

(* ----- R5: decoder totality ----- *)

let r5 () =
  fires "R5" ~path:"lib/wire/x.ml"
    "let decode s = if String.length s < 4 then failwith \"short\" else s";
  fires "R5" ~path:"lib/wire/x.ml" "let decode_header s = Option.get (parse s)";
  fires "R5" ~path:"lib/core/x.ml" "let decode_row l = List.hd l";
  fires "R5" ~path:"lib/wire/x.ml"
    "let of_header h = if bad h then raise Exit else h";
  (* a validator answers for its decoder, so it is held to the same *)
  fires "R5" ~path:"lib/core/x.ml"
    "let valid_row s = String.length s = 8 || invalid_arg \"row\"";
  silent "R5" ~path:"lib/core/x.ml" "let valid_row s = String.length s = 8";
  silent "R5" ~path:"lib/wire/x.ml"
    "let decode s = if String.length s < 4 then None else Some s";
  (* encoders may validate caller input *)
  silent "R5" ~path:"lib/wire/x.ml"
    "let encode v = if v < 0 then invalid_arg \"encode\" else string_of_int v";
  (* outside lib/ the rule does not apply *)
  silent "R5" ~path:"test/x.ml" "let decode s = failwith s"

(* ----- suppressions ----- *)

let suppressions () =
  silent "R1" ~path:"lib/core/x.ml"
    "(* csm-lint: allow R1 — fixture *)\nlet t () = Unix.gettimeofday ()";
  (* same-line comments work too *)
  silent "R4" ~path:"lib/core/x.ml"
    "let total = ref 0 (* csm-lint: allow R4 — fixture *)";
  (* a suppression for one rule does not silence another *)
  fires "R1" ~path:"lib/core/x.ml"
    "(* csm-lint: allow R2 — wrong rule *)\nlet t () = Unix.gettimeofday ()";
  (* two lines below the comment is out of range *)
  fires "R1" ~path:"lib/core/x.ml"
    "(* csm-lint: allow R1 — too far *)\nlet a = 1\nlet t () = Sys.time ()"

(* ----- parse failures are findings, not crashes ----- *)

let parse_failure () =
  let fs = Driver.lint_string ~path:"lib/core/x.ml" "let let let" in
  Alcotest.(check (list string)) "parse finding" [ "parse" ] (rules fs)

(* ----- baseline ----- *)

let baseline () =
  let f text =
    ( Finding.make ~rule:"R1" ~severity:Finding.Error ~file:"lib/x.ml" ~line:3
        ~col:0 "msg",
      text )
  in
  let entries =
    [
      {
        Baseline.rule = "R1";
        file = "lib/x.ml";
        text = "let t = Sys.time ()";
        count = 1;
        reason = "r";
      };
    ]
  in
  (* matching (rule, file, text) absorbs exactly [count] findings *)
  let fresh, baselined =
    Baseline.apply entries [ f "let t = Sys.time ()"; f "let t = Sys.time ()" ]
  in
  Alcotest.(check int) "one absorbed" 1 (List.length baselined);
  Alcotest.(check int) "one fresh" 1 (List.length fresh);
  (* a different line text does not match *)
  let fresh, baselined = Baseline.apply entries [ f "let other = 1" ] in
  Alcotest.(check int) "no match absorbed" 0 (List.length baselined);
  Alcotest.(check int) "no match fresh" 1 (List.length fresh)

(* ----- whole-program passes: taint (R6-R8), nested locks (R9) ----- *)

let wp_rules ?registry sources = rules (Driver.lint_strings ?registry sources)

let wp_fires rule ?registry sources =
  Alcotest.(check bool)
    (rule ^ " fires")
    true
    (List.mem rule (wp_rules ?registry sources))

let wp_silent rule ?registry sources =
  Alcotest.(check bool)
    (rule ^ " silent")
    false
    (List.mem rule (wp_rules ?registry sources))

let r6_taint () =
  (* a transport read sizes a buffer unsanitized *)
  wp_fires "R6"
    [ ("lib/transport/ta.ml", "let f tr = Bytes.create (Transport.recv tr)") ];
  (* the good twin crosses a total decoder first *)
  wp_silent "R6"
    [
      ( "lib/transport/ta.ml",
        "let f tr =\n\
        \  match decode_len (Transport.recv tr) with\n\
        \  | Some n -> Bytes.create n\n\
        \  | None -> Bytes.create 0" );
    ];
  (* a conjunction of range comparisons is bounds-checking: the
     guarded branch is clean, the unguarded sibling is not *)
  wp_silent "R6"
    [
      ( "lib/transport/ta.ml",
        "let f tr n =\n\
        \  let i = Transport.recv tr in\n\
        \  if i >= 0 && i < n then Bytes.create i else Bytes.create 0" );
    ];
  (* mod-bounded slot arithmetic is bounds-checked indexing *)
  wp_silent "R6"
    [
      ( "lib/transport/ta.ml",
        "let f tr arr = Array.get arr (Transport.recv tr mod Array.length arr)"
      );
    ];
  (* a comparison bounds only the operand it caps from above: a size
     that merely exceeds what is buffered is not validated ... *)
  wp_fires "R6"
    [
      ( "lib/transport/ta.ml",
        "let f tr len pos =\n\
        \  let size = Transport.recv tr in\n\
        \  if len - pos < size then Bytes.create size else Bytes.create 0" );
    ];
  (* ... while one held to a trusted limit is *)
  wp_silent "R6"
    [
      ( "lib/transport/ta.ml",
        "let f tr limit =\n\
        \  let size = Transport.recv tr in\n\
        \  if size <= limit then Bytes.create size else Bytes.create 0" );
    ]

let r6_interprocedural () =
  (* the sink lives one module away: Wa.write_at lets its index
     parameter reach Bytes.set *)
  let sink_unit = ("lib/wire/wa.ml", "let write_at buf i v = Bytes.set buf i v") in
  wp_fires "R6"
    [
      sink_unit;
      ( "lib/transport/wb.ml",
        "let f tr buf = Wa.write_at buf (Transport.recv tr) 'x'" );
    ];
  (* sanitizing in the caller satisfies the callee's summary *)
  wp_silent "R6"
    [
      sink_unit;
      ( "lib/transport/wb.ml",
        "let f tr buf =\n\
        \  match decode_idx (Transport.recv tr) with\n\
        \  | Some i -> Wa.write_at buf i 'x'\n\
        \  | None -> ()" );
    ];
  (* per-parameter precision: the value position never reaches the
     index sink, so an untrusted byte there is fine *)
  wp_silent "R6"
    [
      sink_unit;
      ( "lib/transport/wb.ml",
        "let f tr buf = Wa.write_at buf 0 (Transport.recv tr)" );
    ]

(* The node's Commit intake: an echo is checked with a total [valid_*]
   predicate, not decoded, and then kept in the round's protocol state.
   Cut the check and the unchecked payload reaches [hear_commit]'s
   array write; keep it and the guarded branch is clean.  The frame
   comes from [recv] in a direct call, so the analysis sees it. *)
let r6_commit_intake () =
  let node check =
    [
      ( "lib/transport/node.ml",
        "type 'a heard = Unheard | Malformed | Valid of 'a\n\
         type round = { commits : string heard array; mutable n : int }\n\
         let hear_commit st sender v =\n\
        \  st.commits.(sender) <- v;\n\
        \  st.n <- st.n + 1\n\
         let dispatch st n fr =\n\
        \  match fr.Frame.kind with\n\
        \  | Frame.Commit when fr.Frame.sender >= 0 && fr.Frame.sender < n ->\n\
        \    if " ^ check
        ^ " then hear_commit st fr.Frame.sender (Valid fr.Frame.payload)\n\
          \    else hear_commit st fr.Frame.sender Malformed\n\
          \  | _ -> ()\n\
           let wait st n tr =\n\
          \  match tr.Transport.recv ~timeout:0.05 with\n\
          \  | Some fr -> dispatch st n fr\n\
          \  | None -> ()" );
    ]
  in
  wp_fires "R6" (node "true");
  wp_silent "R6" (node "W.valid_commands_bin ~k:1 ~dim:1 fr.Frame.payload")

(* A guard that bounds one parameter by another validates it only
   where that bound is trusted: [put] writes at [i] when [i < n], so a
   caller that passes two wire values, the index and its bound, reaches
   the index sink, and one that bounds a wire index by its own trusted
   parameter does not.  A caller that forwards both as parameters is
   flagged at its own callers. *)
let r6_bound_param () =
  let put = ("lib/wire/wa.ml", "let put buf i n = if i < n then Bytes.set buf i 'x'") in
  wp_fires "R6"
    [
      put;
      ("lib/transport/wb.ml", "let f tr buf = Wa.put buf (Transport.recv tr) (Transport.recv tr)");
    ];
  wp_silent "R6"
    [ put; ("lib/transport/wb.ml", "let f tr buf n = Wa.put buf (Transport.recv tr) n") ];
  wp_fires "R6"
    [
      put;
      ( "lib/transport/wb.ml",
        "let g buf i n = Wa.put buf i n\n\
         let f tr buf = g buf (Transport.recv tr) (Transport.recv tr)" );
    ];
  wp_silent "R6"
    [
      put;
      ( "lib/transport/wb.ml",
        "let g buf i n = Wa.put buf i n\nlet f tr buf n = g buf (Transport.recv tr) n" );
    ]

let r7_whole_program () =
  wp_fires "R7" [ ("lib/wire/wc.ml", "let f s = ignore (decode_cmd s)") ];
  wp_fires "R7" [ ("lib/wire/wc.ml", "let f s = let _ = decode_cmd s in ()") ];
  wp_fires "R7" [ ("lib/wire/wc.ml", "let f s = Option.get (decode_cmd s)") ];
  wp_silent "R7"
    [
      ( "lib/wire/wc.ml",
        "let f s = match decode_cmd s with Some c -> c | None -> 0" );
    ]

let r8_global_escape () =
  let src =
    "let cache = Hashtbl.create 8\n\
     let g tr = Hashtbl.replace cache 0 (Transport.recv tr)"
  in
  wp_fires "R8" [ ("lib/obs/wx.ml", src) ];
  (* registering the global (with its trust story) accepts the store *)
  (let registry = Hashtbl.create 4 in
   Hashtbl.replace registry "lib/obs/wx.ml:cache" ();
   wp_silent "R8" ~registry [ ("lib/obs/wx.ml", src) ]);
  (* sanitized before the store: no escape *)
  wp_silent "R8"
    [
      ( "lib/obs/wx.ml",
        "let cache = Hashtbl.create 8\n\
         let g tr =\n\
        \  match decode_cmd (Transport.recv tr) with\n\
        \  | Some c -> Hashtbl.replace cache 0 c\n\
        \  | None -> ()" );
    ]

let r9_static_lock_order () =
  let locks = "let a = Mutex.create ()\nlet b = Mutex.create ()\n" in
  let unit_ body = [ ("lib/core/lx.ml", locks ^ body) ] in
  let nests body = wp_fires "R9" (unit_ body)
  and leaf body = wp_silent "R9" (unit_ body) in
  (* direct nesting fires in either order, anywhere in the section *)
  nests "let f () = Mutex.protect a (fun () -> Mutex.protect b work)";
  nests "let g () = Mutex.protect b (fun () -> Mutex.protect a work)";
  nests
    "let f () = Mutex.protect a (fun () -> work (); Mutex.protect b work)";
  (* sequential sections stay silent *)
  leaf "let f () = Mutex.protect a (fun () -> work ()); Mutex.protect b work";
  leaf
    "let f () = Mutex.protect a work; Mutex.protect b (fun () -> work ())";
  (* nesting through a call *)
  nests
    "let inner () = Mutex.protect b work\n\
     let outer () = Mutex.protect a (fun () -> inner ())";
  nests
    "let inner () = Mutex.protect b work\n\
     let outer () = Mutex.protect a inner";
  (* nesting through a wrapper that runs its thunk under its lock: a
     store feeding a window that locks itself *)
  wp_fires "R9"
    [
      ( "lib/obs/wx.ml",
        "type t = { lock : Mutex.t }\n\
         let locked t f = Mutex.protect t.lock f\n\
         let add t = locked t work" );
      ( "lib/obs/lv.ml",
        "type t = { lock : Mutex.t; w : Wx.t }\n\
         let locked t f = Mutex.protect t.lock f\n\
         let note t = locked t (fun () -> Wx.add t.w)" );
    ];
  (* a mutex passed as a parameter is a lock like any other *)
  nests "let both m n = Mutex.protect m (fun () -> Mutex.protect n work)";
  nests "let both m n = Mutex.protect n (fun () -> Mutex.protect m work)";
  (* a wrapper that runs its thunk after releasing its lock (the shape
     of Span.with_) does not nest *)
  leaf
    "let with_ f = Mutex.protect a work; f ()\n\
     let use () = with_ (fun () -> Mutex.protect b work)";
  (* waiting on a condition gives the lock up and takes it back: no
     second lock *)
  leaf
    "let c = Condition.create ()\n\
     let wait ready = Mutex.protect a (fun () ->\n\
    \  while not !ready do Condition.wait c a done)";
  (* a closure bound by a local let is followed like a def: through a
     locking wrapper, given by name or called from the thunk *)
  let locked = "let locked f = Mutex.protect a f\n" in
  nests (locked ^ "let use () = let h () = Mutex.protect b work in locked h");
  nests
    (locked
   ^ "let use () = let h () = Mutex.protect b work in locked (fun () -> h ())"
    );
  leaf (locked ^ "let use () = let h () = work in locked h");
  (* a local wrapper that runs its thunk under its lock *)
  nests
    "let use () =\n\
    \  let locked f = Mutex.protect a f in\n\
    \  locked (fun () -> Mutex.protect b work)";
  (* a recursive local closure that takes a lock, called under one *)
  nests
    "let use n =\n\
    \  let rec go i = if i > 0 then (Mutex.protect b work; go (i - 1)) in\n\
    \  Mutex.protect a (fun () -> go n)";
  (* a domain-local key whose initialiser takes a lock: each get may
     run it, so a get under a lock nests; keyed by module-level name
     (the shape of Span's buffer key) or by record field label (the
     shape of Metric's histogram shards) *)
  let registering =
    "let reg = Mutex.create ()\n\
     let key = Domain.DLS.new_key (fun () ->\n\
    \  Mutex.protect reg (fun () -> ()); ref 0)\n"
  in
  nests
    (registering
   ^ "let bump () = Mutex.protect a (fun () -> incr (Domain.DLS.get key))");
  nests
    (registering
   ^ "let get () = Domain.DLS.get key\n\
      let bump () = Mutex.protect a (fun () -> incr (get ()))");
  leaf (registering ^ "let bump () = incr (Domain.DLS.get key)");
  nests
    "type h = { lock : Mutex.t; shard_key : int ref Domain.DLS.key }\n\
     let make () =\n\
    \  let lock = Mutex.create () in\n\
    \  { lock; shard_key = Domain.DLS.new_key (fun () ->\n\
    \      Mutex.protect lock (fun () -> ()); ref 0) }\n\
     let observe h = incr (Domain.DLS.get h.shard_key)\n\
     let use h = Mutex.protect a (fun () -> observe h)";
  (* a key whose initialiser takes no lock (the shape of Counted's) *)
  leaf
    "let key = Domain.DLS.new_key (fun () -> ref 0)\n\
     let bump () = Mutex.protect a (fun () -> incr (Domain.DLS.get key))"

let taint_suppressions () =
  (* an allow marker covers the next line, same as the per-file rules *)
  wp_silent "R6"
    [
      ( "lib/transport/ta.ml",
        "(* csm-lint: allow R6 — fixture *)\n\
         let f tr = Bytes.create (Transport.recv tr)" );
    ];
  (* an allow at the sink inside the callee silences every caller:
     the justification covers the flow, not just the line *)
  wp_silent "R6"
    [
      ( "lib/wire/wa.ml",
        "let write_at buf i v =\n\
        \  (* csm-lint: allow R6 — fixture: caller-validated index *)\n\
        \  Bytes.set buf i v" );
      ( "lib/transport/wb.ml",
        "let f tr buf = Wa.write_at buf (Transport.recv tr) 'x'" );
    ];
  (* the wrong rule does not silence a taint finding *)
  wp_fires "R6"
    [
      ( "lib/transport/ta.ml",
        "(* csm-lint: allow R7 — wrong rule *)\n\
         let f tr = Bytes.create (Transport.recv tr)" );
    ]

(* ----- baseline normalization and reason carry-over ----- *)

let baseline_normalized () =
  let entries =
    [
      {
        Baseline.rule = "R1";
        file = "lib/x.ml";
        text = "let t =   Sys.time\t()";
        count = 1;
        reason = "r";
      };
    ]
  in
  let f text =
    ( Finding.make ~rule:"R1" ~severity:Finding.Error ~file:"lib/x.ml" ~line:3
        ~col:0 "msg",
      text )
  in
  (* reformatting (indentation, alignment, tabs) still matches *)
  let fresh, baselined = Baseline.apply entries [ f "let t = Sys.time ()" ] in
  Alcotest.(check int) "reformatted line absorbed" 1 (List.length baselined);
  Alcotest.(check int) "no fresh" 0 (List.length fresh);
  (* token changes do not *)
  let fresh, baselined = Baseline.apply entries [ f "let t = Sys.timex ()" ] in
  Alcotest.(check int) "token change not absorbed" 0 (List.length baselined);
  Alcotest.(check int) "token change fresh" 1 (List.length fresh)

let baseline_update_reasons () =
  let old =
    [
      {
        Baseline.rule = "R1";
        file = "lib/x.ml";
        text = "let t = Sys.time ()";
        count = 1;
        reason = "because reviewed";
      };
    ]
  in
  let f text =
    ( Finding.make ~rule:"R1" ~severity:Finding.Error ~file:"lib/x.ml" ~line:3
        ~col:0 "msg",
      text )
  in
  let entries =
    Baseline.of_findings ~old
      [ f "let t =   Sys.time ()"; f "let u = Unix.time ()" ]
  in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  let reason_of text =
    (List.find (fun e -> e.Baseline.text = text) entries).Baseline.reason
  in
  (* the surviving key keeps its reason even though the line was
     reformatted; the new one demands justification *)
  Alcotest.(check string)
    "carried reason" "because reviewed"
    (reason_of "let t = Sys.time ()");
  Alcotest.(check string)
    "new entry flagged" "TODO: justify or fix"
    (reason_of "let u = Unix.time ()")

(* ----- SARIF output matches the checked-in golden file ----- *)

let sarif_golden () =
  let fs =
    Driver.lint_strings
      [
        ( "lib/transport/sg.ml",
          "let f tr = Bytes.create (Transport.recv tr)\n\
           let g s = ignore (decode_cmd s)" );
      ]
  in
  let got = Csm_obs.Json.to_string (Csm_analysis.Sarif.render fs) in
  let want =
    String.trim
      (In_channel.with_open_bin "fixtures/lint_sarif_golden.json"
         In_channel.input_all)
  in
  Alcotest.(check string) "sarif matches the golden file" want got

(* ----- the repo itself lints clean ----- *)

(* dune runs tests from _build/default/test; the repo root is one up.
   The baseline and registry are declared as test deps so they are
   present in the sandbox. *)
let self_check () =
  let r =
    Driver.lint_tree ~taint:true ~root:".."
      ~baseline_path:"../lint/baseline.json" ()
  in
  Alcotest.(check bool) "scanned a real tree" true (r.Driver.files_scanned > 50);
  Alcotest.(check (list string))
    "repo lints clean (fix the finding or justify it in lint/baseline.json)"
    []
    (List.map Finding.to_line r.Driver.fresh)

let suites =
  [
    ( "lint",
      [
        Alcotest.test_case "R1 determinism boundary" `Quick r1;
        Alcotest.test_case "R2 polymorphic comparison" `Quick r2;
        Alcotest.test_case "R3 mutex discipline" `Quick r3;
        Alcotest.test_case "R4 shared state registry" `Quick r4;
        Alcotest.test_case "R4 stale registry entry" `Quick r4_stale;
        Alcotest.test_case "R5 decoder totality" `Quick r5;
        Alcotest.test_case "suppression comments" `Quick suppressions;
        Alcotest.test_case "parse failure is a finding" `Quick parse_failure;
        Alcotest.test_case "baseline keying" `Quick baseline;
        Alcotest.test_case "repo self-check" `Quick self_check;
      ] );
    ( "taint",
      [
        Alcotest.test_case "R6 untrusted to sink" `Quick r6_taint;
        Alcotest.test_case "R6 interprocedural" `Quick r6_interprocedural;
        Alcotest.test_case "R6 sees the Commit check" `Quick r6_commit_intake;
        Alcotest.test_case "R6 bound by a second wire value" `Quick r6_bound_param;
        Alcotest.test_case "R7 verdict discarded" `Quick r7_whole_program;
        Alcotest.test_case "R8 taint into global" `Quick r8_global_escape;
        Alcotest.test_case "R9 static lock order" `Quick r9_static_lock_order;
        Alcotest.test_case "taint suppressions" `Quick taint_suppressions;
        Alcotest.test_case "baseline normalization" `Quick baseline_normalized;
        Alcotest.test_case "baseline reason carry" `Quick
          baseline_update_reasons;
        Alcotest.test_case "sarif golden" `Quick sarif_golden;
      ] );
  ]
