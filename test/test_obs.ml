(* Observability layer: span tracer determinism, exporter JSON
   round-trip, the disabled fast path, and op-delta attribution against
   the metrics ledger. *)

module Span = Csm_obs.Span
module Clock = Csm_obs.Clock
module Flight = Csm_obs.Flight
module Agg = Csm_obs.Agg
module Event = Csm_obs.Event
module Summary = Csm_obs.Summary
module Exporter = Csm_obs.Exporter
module Json = Csm_obs.Json
module Metric = Csm_obs.Metric
module Prom = Csm_obs.Prom
module Pool = Csm_parallel.Pool
module Counter = Csm_metrics.Counter
module Ledger = Csm_metrics.Ledger
module Scope = Csm_metrics.Scope
module CF = Csm_field.Counted.Make (Csm_field.Fp.Default)
module E = Csm_core.Engine.Make (CF)
module M = E.M
module Params = Csm_core.Params

(* run [f] with tracing on and a clean buffer; always restore the
   disabled state so other suites see zero tracer overhead *)
let traced f =
  Span.reset ();
  Span.enable ();
  Fun.protect
    ~finally:(fun () ->
      Span.disable ();
      Span.reset ())
    f

let small_round ~scope () =
  let d = 2 and n = 11 and k = 3 and b = 2 in
  let machine = M.degree_machine d in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let rng = Csm_rng.create 0x0B5 in
  let init =
    Array.init k (fun _ ->
        Array.init machine.M.state_dim (fun _ -> CF.random rng))
  in
  let commands =
    Array.init k (fun _ ->
        Array.init machine.M.input_dim (fun _ -> CF.random rng))
  in
  let engine = E.create ~machine ~params ~init in
  let report =
    E.round ~scope engine ~commands ~byzantine:(fun i -> i >= n - b) ()
  in
  Alcotest.(check bool) "round decoded" true (report.E.decoded <> None)

(* The engine's phase spans are emitted in a fixed order and nest under
   engine.round; two runs give the same phase list and the same span
   multiset. *)
let nesting_deterministic () =
  let phase_names =
    [ "engine.round"; "engine.encode"; "engine.compute"; "engine.decode";
      "engine.reencode" ]
  in
  let capture () =
    traced (fun () ->
        small_round ~scope:Scope.null ();
        Span.records ())
  in
  let phases records =
    List.filter_map
      (fun (r : Span.record) ->
        if List.mem r.Span.name phase_names then
          Some (r.Span.name, r.Span.depth, r.Span.parent >= 0)
        else None)
      records
  in
  let name_counts records =
    List.sort String.compare
      (List.map (fun (r : Span.record) -> r.Span.name) records)
  in
  let seq = capture () in
  let again = capture () in
  Alcotest.(check (list (triple string int bool)))
    "phase spans identical across runs" (phases seq) (phases again);
  Alcotest.(check (list string))
    "span multiset identical across runs" (name_counts seq) (name_counts again);
  (* nesting: every phase sub-span is depth 1 under engine.round *)
  List.iter
    (fun (name, depth, has_parent) ->
      if name <> "engine.round" then begin
        Alcotest.(check int) (name ^ " depth") 1 depth;
        Alcotest.(check bool) (name ^ " parented") true has_parent
      end)
    (phases seq);
  (* ids strictly increase along the sorted single-domain record list *)
  let ids =
    List.filter_map
      (fun (r : Span.record) ->
        if List.mem r.Span.name phase_names then Some r.Span.id else None)
      seq
  in
  Alcotest.(check bool)
    "sorted by (start, id)" true
    (List.sort Int.compare ids = ids)

(* ----- a minimal JSON parser, enough to round-trip the exporter ----- *)

exception Bad of string

let parse_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
    then begin advance (); skip_ws () end
  in
  let expect c =
    skip_ws ();
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | 'u' ->
          advance ();
          for _ = 1 to 4 do
            (match peek () with
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
            | _ -> raise (Bad "bad \\u escape"))
          done;
          Buffer.add_char b '?'
        | ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') as c ->
          advance ();
          Buffer.add_char b c
        | _ -> raise (Bad "bad escape"));
        go ()
      | c when Char.code c < 0x20 -> raise (Bad "raw control char in string")
      | c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin advance (); `Obj [] end
      else begin
        let rec members acc =
          let key = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); skip_ws (); members ((key, v) :: acc)
          | '}' -> advance (); `Obj (List.rev ((key, v) :: acc))
          | _ -> raise (Bad "bad object")
        in
        skip_ws ();
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin advance (); `List [] end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elems (v :: acc)
          | ']' -> advance (); `List (List.rev (v :: acc))
          | _ -> raise (Bad "bad array")
        in
        elems []
      end
    | '"' -> `Str (parse_string ())
    | 't' -> pos := !pos + 4; `Bool true
    | 'f' -> pos := !pos + 5; `Bool false
    | 'n' -> pos := !pos + 4; `Null
    | '-' | '0' .. '9' ->
      let start = !pos in
      let num c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num s.[!pos] do advance () done;
      `Num (float_of_string (String.sub s start (!pos - start)))
    | c -> raise (Bad (Printf.sprintf "unexpected %c" c))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad "trailing garbage");
  v

let exporter_round_trips () =
  let records =
    traced (fun () ->
        Span.with_ ~name:"outer"
          ~attrs:[ ("weird", "quote\"back\\slash\nnewline") ]
          (fun () ->
            Span.with_ ~name:"inner" (fun () -> ());
            Span.with_ ~name:"inner" (fun () -> ()));
        Span.records ())
  in
  Alcotest.(check int) "three spans" 3 (List.length records);
  let json = Exporter.chrome_trace records in
  (match parse_json (Json.to_string json) with
  | `Obj fields ->
    (match List.assoc "traceEvents" fields with
    | `List evs ->
      Alcotest.(check int) "three events" 3 (List.length evs);
      List.iter
        (function
          | `Obj ev ->
            List.iter
              (fun key ->
                Alcotest.(check bool) ("has " ^ key) true (List.mem_assoc key ev))
              [ "name"; "ph"; "ts"; "dur"; "pid"; "tid"; "args" ]
          | _ -> Alcotest.fail "event not an object")
        evs
    | _ -> Alcotest.fail "traceEvents not a list")
  | _ -> Alcotest.fail "trace not an object");
  (* the run-report building blocks parse too *)
  (match parse_json (Json.to_string (Exporter.host ~domains:4 ())) with
  | `Obj fields ->
    Alcotest.(check bool) "host has ocaml_version" true
      (List.mem_assoc "ocaml_version" fields)
  | _ -> Alcotest.fail "host not an object");
  match
    parse_json (Json.to_string (Exporter.span_summary_json (Summary.by_name records)))
  with
  | `List (_ :: _) -> ()
  | _ -> Alcotest.fail "summary not a non-empty list"

(* with tracing disabled, the instrumented wrapper is one atomic load:
   no allocation, and nothing is buffered *)
let disabled_fast_path () =
  Span.disable ();
  Span.reset ();
  let f = fun () -> () in
  (* warm up so the closure and any lazy setup are allocated already *)
  for _ = 1 to 10 do
    Span.with_ ~name:"noop" f
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Span.with_ ~name:"noop" f
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "no allocation when disabled" 0.0 (after -. before);
  Alcotest.(check int) "no records buffered" 0 (List.length (Span.records ()))

(* the span's sampled op deltas must agree with the ledger: the
   engine.round span covers exactly the scoped work of one round, and
   its children partition it *)
let op_deltas_match_ledger () =
  let ledger = Ledger.create () in
  let scope = Scope.of_ledger (module CF) ledger in
  let records = traced (fun () -> small_round ~scope (); Span.records ()) in
  let find name =
    match
      List.filter (fun (r : Span.record) -> r.Span.name = name) records
    with
    | [ r ] -> r
    | rs -> Alcotest.failf "expected one %s span, got %d" name (List.length rs)
  in
  let round = find "engine.round" in
  let la, lm, li = Ledger.op_totals ledger in
  Alcotest.(check (triple int int int))
    "round delta = ledger totals" (la, lm, li)
    (round.Span.d_adds, round.Span.d_muls, round.Span.d_invs);
  Alcotest.(check bool) "round did real work" true (la + lm + li > 0);
  (* children partition the round's ops (the corruption callback runs
     outside the ledger scope, so nothing leaks between phases) *)
  let sum =
    List.fold_left
      (fun (a, m, i) name ->
        let r = find name in
        (a + r.Span.d_adds, m + r.Span.d_muls, i + r.Span.d_invs))
      (0, 0, 0)
      [ "engine.encode"; "engine.compute"; "engine.decode"; "engine.reencode" ]
  in
  Alcotest.(check (triple int int int))
    "phase deltas partition the round" (la, lm, li) sum;
  (* the grand total also matches the weighted ledger accounting *)
  Alcotest.(check int)
    "weighted total consistent"
    (Ledger.grand_total ledger)
    (la + lm + (Counter.inv_weight * li))

(* ----- Json: the library parser round-trips its own emitter ----- *)

let json_parse_round_trip () =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "csm-test/1");
        ("pi", Json.Float Float.pi);
        (* nanosecond-scale duration: must survive emit/parse exactly *)
        ("ns", Json.Float 1.234567891e-9);
        ("denormal", Json.Float 5e-324);
        ("neg", Json.Int (-42));
        ("big", Json.Int max_int);
        ("esc", Json.Str "quote\"back\\slash\nnewline\ttab\001ctl");
        ("unicode", Json.Str "\xce\xbb \xce\xb3 \xce\xb2");
        ( "list",
          Json.List [ Json.Null; Json.Bool true; Json.Bool false; Json.Float 0.1 ]
        );
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  let s = Json.to_string doc in
  let parsed = Json.parse s in
  (* parse ∘ emit is a fixed point on the emitted text *)
  Alcotest.(check string) "parse/re-emit fixed point" s (Json.to_string parsed);
  let fval key =
    match Option.bind (Json.member key parsed) Json.to_float_opt with
    | Some f -> f
    | None -> Alcotest.failf "missing float field %s" key
  in
  Alcotest.(check (float 0.0)) "pi exact" Float.pi (fval "pi");
  Alcotest.(check (float 0.0)) "nanoseconds exact" 1.234567891e-9 (fval "ns");
  Alcotest.(check (float 0.0)) "denormal exact" 5e-324 (fval "denormal");
  (match Option.bind (Json.member "esc" parsed) Json.to_string_opt with
  | Some str ->
    Alcotest.(check string) "escapes decode" "quote\"back\\slash\nnewline\ttab\001ctl" str
  | None -> Alcotest.fail "missing esc");
  (* shortest-form float text round-trips bit-exactly *)
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "float_repr round-trips %h" f)
        true
        (Float.equal (float_of_string (Json.float_repr f)) f))
    [ 0.1; 1.0 /. 3.0; 1e300; 5e-324; 1.234567891e-9; Float.pi; -0.0 ];
  (* malformed input is rejected, not silently truncated *)
  match Json.parse "{} trailing" with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "trailing garbage accepted"

(* ----- metrics registry ----- *)

(* run [f] with the metrics registry enabled and empty; restore the
   disabled state and drop the test instruments afterwards *)
let metered f =
  Metric.reset ();
  Metric.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metric.disable ();
      Metric.reset ())
    f

(* the quantile estimate is the upper bound of the bucket holding the
   exact nearest-rank value — i.e. within one bucket of the truth *)
let hist_quantile_within_bucket () =
  metered (fun () ->
      let buckets = Metric.log_buckets ~lo:1.0 ~factor:2.0 ~count:10 () in
      let h = Metric.histogram ~buckets "test_quantile" in
      let data = Array.init 100 (fun i -> float_of_int (i + 1)) in
      Array.iter (Metric.observe h) data;
      let snap = Metric.snapshot h in
      Alcotest.(check int) "count" 100 snap.Metric.s_count;
      let bucket_ub v =
        match Array.find_opt (fun b -> v <= b) buckets with
        | Some b -> b
        | None -> infinity
      in
      List.iter
        (fun q ->
          let rank = max 1 (int_of_float (ceil (q *. 100.))) in
          let exact = data.(rank - 1) in
          let est = Metric.quantile snap q in
          Alcotest.(check bool)
            (Printf.sprintf "q=%.2f estimate covers the exact value" q)
            true (est >= exact);
          Alcotest.(check (float 0.0))
            (Printf.sprintf "q=%.2f lands in the exact value's bucket" q)
            (bucket_ub exact) est)
        [ 0.01; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ];
      Alcotest.(check (float 0.0))
        "empty histogram quantile is 0"
        0.0
        (Metric.quantile (Metric.snapshot (Metric.histogram ~buckets "test_empty")) 0.5))

let snapshot_eq =
  Alcotest.testable
    (fun fmt (s : Metric.snapshot) ->
      Format.fprintf fmt "{count=%d; sum=%g; counts=[%s]}" s.Metric.s_count
        s.Metric.s_sum
        (String.concat ";"
           (Array.to_list (Array.map string_of_int s.Metric.s_counts))))
    ( = )

(* merge is associative and commutative, and per-domain shards merge to
   the same snapshot at any domain width (integer-valued observations
   keep the float sum exact in any accumulation order) *)
let hist_merge_schedule_independent () =
  metered (fun () ->
      let buckets = Metric.log_buckets ~lo:1.0 ~factor:2.0 ~count:12 () in
      let mk name obs =
        let h = Metric.histogram ~buckets name in
        List.iter (Metric.observe h) obs;
        Metric.snapshot h
      in
      (* include underflow (0.5), interior, and overflow (5000) buckets *)
      let a = mk "test_merge_a" [ 1.0; 3.0; 700.0 ]
      and b = mk "test_merge_b" [ 2.0; 2.0; 64.0 ]
      and c = mk "test_merge_c" [ 5000.0; 0.5 ] in
      Alcotest.check snapshot_eq "commutative" (Metric.merge a b)
        (Metric.merge b a);
      Alcotest.check snapshot_eq "associative"
        (Metric.merge (Metric.merge a b) c)
        (Metric.merge a (Metric.merge b c));
      let snap_at width =
        let h =
          Metric.histogram ~buckets (Printf.sprintf "test_width_%d" width)
        in
        let host = Pool.domains () in
        Pool.set_domains width;
        Fun.protect
          ~finally:(fun () -> Pool.set_domains host)
          (fun () ->
            ignore
              (Pool.parallel_list_map
                 (fun i -> Metric.observe h (float_of_int (1 + (i mod 100))))
                 (List.init 1000 Fun.id)));
        Metric.snapshot h
      in
      let seq = snap_at 1 in
      Alcotest.(check int) "sequential count" 1000 seq.Metric.s_count;
      List.iter
        (fun w ->
          Alcotest.check snapshot_eq
            (Printf.sprintf "width %d snapshot = sequential" w)
            seq (snap_at w))
        [ 2; 4; 8 ])

(* with metrics disabled every record call is one atomic load: no
   allocation, and nothing reaches the instruments *)
let metric_disabled_fast_path () =
  Metric.disable ();
  let c = Metric.counter "test_disabled_total" in
  let g = Metric.gauge "test_disabled_gauge" in
  let h = Metric.histogram "test_disabled_seconds" in
  let f = fun () -> () in
  (* warm up so closures and shards-to-be are already allocated *)
  for _ = 1 to 10 do
    Metric.inc c;
    Metric.set g 1.0;
    Metric.add g 1.0;
    Metric.observe h 2.0;
    Metric.time h f
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Metric.inc c;
    Metric.set g 1.0;
    Metric.add g 1.0;
    Metric.observe h 2.0;
    Metric.time h f
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "no allocation when disabled" 0.0 (after -. before);
  let value name =
    let v =
      List.find (fun v -> String.equal v.Metric.name name) (Metric.families ())
    in
    (List.hd v.Metric.samples).Metric.value
  in
  Alcotest.(check bool) "counter untouched" true
    (value "test_disabled_total" = Metric.V_counter 0);
  Alcotest.(check bool) "gauge untouched" true
    (value "test_disabled_gauge" = Metric.V_gauge 0.0);
  Alcotest.(check int) "histogram untouched" 0 (Metric.snapshot h).Metric.s_count

(* ----- Prometheus exposition: line-format checker ----- *)

(* The validator behind `make metrics-smoke`: every line of an
   exposition document must be a HELP/TYPE header or a well-formed
   sample, every sample's family must have a TYPE header, label values
   must use only the three legal escapes, and the value must parse. *)

let is_name_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false
let is_name_char c = is_name_start c || match c with '0' .. '9' -> true | _ -> false

let check_sample_line families line =
  let n = String.length line in
  let pos = ref 0 in
  while !pos < n && is_name_char line.[!pos] do incr pos done;
  if !pos = 0 || not (is_name_start line.[0]) then
    Alcotest.failf "bad sample name: %S" line;
  let name = String.sub line 0 !pos in
  if !pos < n && line.[!pos] = '{' then begin
    incr pos;
    let rec labels () =
      let start = !pos in
      while !pos < n && is_name_char line.[!pos] do incr pos done;
      if !pos = start then Alcotest.failf "empty label name: %S" line;
      if !pos >= n || line.[!pos] <> '=' then Alcotest.failf "expected '=': %S" line;
      incr pos;
      if !pos >= n || line.[!pos] <> '"' then
        Alcotest.failf "label value not quoted: %S" line;
      incr pos;
      let rec value () =
        if !pos >= n then Alcotest.failf "unterminated label value: %S" line
        else
          match line.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            if !pos + 1 >= n then Alcotest.failf "dangling escape: %S" line;
            (match line.[!pos + 1] with
            | '\\' | '"' | 'n' -> pos := !pos + 2
            | bad -> Alcotest.failf "illegal escape \\%c: %S" bad line);
            value ()
          | _ ->
            incr pos;
            value ()
      in
      value ();
      if !pos < n && line.[!pos] = ',' then begin
        incr pos;
        labels ()
      end
      else if !pos < n && line.[!pos] = '}' then incr pos
      else Alcotest.failf "bad label block: %S" line
    in
    labels ()
  end;
  if !pos >= n || line.[!pos] <> ' ' then
    Alcotest.failf "expected space before value: %S" line;
  incr pos;
  let v = String.sub line !pos (n - !pos) in
  (match float_of_string_opt v with
  | Some _ -> ()
  | None ->
    if not (List.mem v [ "+Inf"; "-Inf"; "NaN" ]) then
      Alcotest.failf "bad sample value %S: %S" v line);
  let declared nm = Hashtbl.mem families nm in
  let histo_series suffix =
    String.ends_with ~suffix name
    && declared (String.sub name 0 (String.length name - String.length suffix))
  in
  if
    not
      (declared name || histo_series "_bucket" || histo_series "_sum"
     || histo_series "_count")
  then Alcotest.failf "sample %s has no TYPE header" name

let check_header_line families line =
  match String.split_on_char ' ' line with
  | "#" :: (("HELP" | "TYPE") as kw) :: name :: rest ->
    if
      name = ""
      || (not (is_name_start name.[0]))
      || not (String.for_all is_name_char name)
    then Alcotest.failf "bad metric name in header: %S" line;
    if kw = "TYPE" then begin
      match rest with
      | [ ("counter" | "gauge" | "histogram" | "summary" | "untyped") ] ->
        Hashtbl.replace families name ()
      | _ -> Alcotest.failf "bad TYPE line: %S" line
    end
  | _ -> Alcotest.failf "bad comment line: %S" line

let check_prom_format doc =
  (match String.length doc with
  | 0 -> Alcotest.fail "empty exposition"
  | n ->
    if doc.[n - 1] <> '\n' then
      Alcotest.fail "exposition must end with a newline");
  let families = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if line <> "" then
        if line.[0] = '#' then check_header_line families line
        else check_sample_line families line)
    (String.split_on_char '\n' doc)

let prom_exposition_well_formed () =
  metered (fun () ->
      let c =
        Metric.counter ~help:"messages"
          ~labels:[ ("node", "0"); ("dir", "sent") ]
          "csm_test_messages_total"
      in
      Metric.inc ~by:3 c;
      let g =
        Metric.gauge ~help:"help with \\ backslash\nand newline"
          ~labels:[ ("node", "quote\"back\\slash\nnl") ]
          "csm_test_suspicion"
      in
      Metric.set g 1.5;
      let h =
        Metric.histogram ~help:"latency"
          ~buckets:(Metric.log_buckets ~lo:1.0 ~factor:2.0 ~count:4 ())
          "csm_test_latency_seconds"
      in
      List.iter (Metric.observe h) [ 0.5; 3.0; 100.0 ];
      let doc = Prom.render () in
      check_prom_format doc;
      let lines = String.split_on_char '\n' doc in
      let has line = List.mem line lines in
      List.iter
        (fun expected ->
          Alcotest.(check bool) (Printf.sprintf "has %S" expected) true
            (has expected))
        [
          "csm_test_messages_total{dir=\"sent\",node=\"0\"} 3";
          "csm_test_suspicion{node=\"quote\\\"back\\\\slash\\nnl\"} 1.5";
          "csm_test_latency_seconds_bucket{le=\"+Inf\"} 3";
          "csm_test_latency_seconds_sum 103.5";
          "csm_test_latency_seconds_count 3";
          "# TYPE csm_test_latency_seconds histogram";
        ];
      (* cumulative bucket counts are non-decreasing *)
      let bucket_counts =
        List.filter_map
          (fun line ->
            if
              String.length line > 0
              && String.starts_with ~prefix:"csm_test_latency_seconds_bucket{"
                   line
            then
              match String.rindex_opt line ' ' with
              | Some i ->
                Some
                  (int_of_string
                     (String.sub line (i + 1) (String.length line - i - 1)))
              | None -> None
            else None)
          lines
      in
      Alcotest.(check bool) "cumulative buckets non-decreasing" true
        (List.sort Int.compare bucket_counts = bucket_counts);
      (* the checker actually rejects malformed documents *)
      List.iter
        (fun bad ->
          match check_prom_format bad with
          | exception _ -> ()
          | () -> Alcotest.failf "checker accepted malformed %S" bad)
        [
          "no_type_header 1\n";
          "# TYPE x counter\nx{l=\"bad\\q\"} 1\n";
          "# TYPE x counter\nx notanumber\n";
          "# TYPE x counter\nx 1";
        ])

(* ----- hybrid logical clock ----- *)

let hlc_pack_accessors () =
  let s = Clock.pack ~ms:1234 ~count:7 in
  Alcotest.(check int) "ms component" 1234 (Clock.ms s);
  Alcotest.(check int) "count component" 7 (Clock.count s);
  Alcotest.(check (float 1e-9)) "seconds" 1.234 (Clock.seconds s);
  (* causal order: counter breaks ties within a millisecond *)
  Alcotest.(check bool) "count orders within ms" true
    (Clock.compare (Clock.pack ~ms:1234 ~count:7) (Clock.pack ~ms:1234 ~count:8)
    < 0);
  Alcotest.(check bool) "ms dominates count" true
    (Clock.compare
       (Clock.pack ~ms:1234 ~count:65535)
       (Clock.pack ~ms:1235 ~count:0)
    < 0);
  List.iter
    (fun (label, f) ->
      match f () with
      | exception Invalid_argument _ -> ()
      | (_ : Clock.stamp) -> Alcotest.failf "pack accepted %s" label)
    [
      ("negative ms", fun () -> Clock.pack ~ms:(-1) ~count:0);
      ("negative count", fun () -> Clock.pack ~ms:0 ~count:(-1));
      ("oversized count", fun () -> Clock.pack ~ms:0 ~count:0x10000);
    ]

let hlc_now_monotone () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 1000 do
    let s = Clock.now () in
    if Clock.compare !prev s >= 0 then
      Alcotest.failf "now not strictly increasing: %a then %a" Clock.pp !prev
        Clock.pp s;
    prev := s
  done;
  (* peek reads without advancing *)
  let p = Clock.peek () in
  Alcotest.(check bool) "peek does not advance" true
    (Clock.compare p (Clock.peek ()) = 0);
  Alcotest.(check bool) "peek at least last now" true (Clock.compare !prev p <= 0)

let hlc_observe_merges () =
  let local = Clock.now () in
  (* a remote stamp from a host whose wall clock runs 5s ahead *)
  let remote = Clock.pack ~ms:(Clock.ms local + 5000) ~count:3 in
  let recv = Clock.observe remote in
  Alcotest.(check bool) "recv after remote" true (Clock.compare remote recv < 0);
  Alcotest.(check bool) "recv after prior local" true
    (Clock.compare local recv < 0);
  Alcotest.(check bool) "later sends after recv" true
    (Clock.compare recv (Clock.now ()) < 0);
  (* causality pulled the HLC ahead of this host's wall clock *)
  Alcotest.(check bool) "skew is observable" true
    (Clock.skew_seconds (Clock.peek ()) >= 0.0);
  (* a stale remote stamp merges as a no-op on the physical component *)
  let before = Clock.peek () in
  let after = Clock.observe (Clock.pack ~ms:1 ~count:1) in
  Alcotest.(check bool) "stale observe keeps going forward" true
    (Clock.compare before after < 0);
  Alcotest.(check int) "stale observe keeps local ms" (Clock.ms before)
    (Clock.ms after)

let hlc_join_and_wire () =
  let a = Clock.pack ~ms:10 ~count:9
  and b = Clock.pack ~ms:11 ~count:2
  and c = Clock.pack ~ms:11 ~count:7 in
  Alcotest.(check int) "join = max" (max a (max b c))
    (Clock.join a (Clock.join b c));
  Alcotest.(check int) "join commutes" (Clock.join a b) (Clock.join b a);
  Alcotest.(check int) "join associative"
    (Clock.join (Clock.join a b) c)
    (Clock.join a (Clock.join b c));
  Alcotest.(check int) "join idempotent" a (Clock.join a a);
  (* wire encoding round-trips every component *)
  List.iter
    (fun s ->
      Alcotest.(check int) "of_wire inverts to_wire" s
        (Clock.of_wire (Clock.to_wire s)))
    [ a; b; c; Clock.pack ~ms:0 ~count:0; Clock.now () ];
  (* an untrusted out-of-range u64 clamps to the no-op stamp 0 *)
  Alcotest.(check int) "negative u64 clamps" 0 (Clock.of_wire Int64.minus_one);
  Alcotest.(check int) "max u64 clamps" 0 (Clock.of_wire Int64.min_int)

let hlc_mono_clock () =
  let m1 = Clock.mono () in
  let m2 = Clock.mono () in
  Alcotest.(check bool) "mono positive" true (m1 > 0.0);
  Alcotest.(check bool) "mono never decreases" true (m2 >= m1)

(* ----- flight recorder ring ----- *)

let flight_ring_bounds () =
  (match Flight.create ~capacity:0 ~node:0 () with
  | exception Invalid_argument _ -> ()
  | (_ : Flight.t) -> Alcotest.fail "created a zero-capacity ring");
  let f = Flight.create ~capacity:4 ~node:2 () in
  Alcotest.(check int) "node id" 2 (Flight.node f);
  Alcotest.(check int) "capacity" 4 (Flight.capacity f);
  for round = 0 to 5 do
    Flight.record f ~hlc:(Clock.now ()) ~round "phase"
  done;
  Alcotest.(check int) "recorded counts overwrites" 6 (Flight.recorded f);
  let entries = Flight.entries f in
  Alcotest.(check int) "ring keeps capacity entries" 4 (List.length entries);
  Alcotest.(check (list int)) "oldest first, newest kept" [ 2; 3; 4; 5 ]
    (List.map (fun e -> e.Flight.f_round) entries);
  let hlcs = List.map (fun e -> e.Flight.f_hlc) entries in
  Alcotest.(check bool) "entries in HLC order" true
    (List.sort Clock.compare hlcs = hlcs)

let flight_entry_json_total () =
  let f = Flight.create ~capacity:2 ~node:1 () in
  Flight.record f ~trace:0x1D5EEDL
    ~attrs:[ ("dst", "3"); ("frame", "Share") ]
    ~hlc:(Clock.now ()) ~round:7 "send";
  let e = List.hd (Flight.entries f) in
  (match Flight.decode_entry_json (Flight.entry_json e) with
  | None -> Alcotest.fail "entry_json did not decode"
  | Some d ->
    Alcotest.(check int) "hlc survives" e.Flight.f_hlc d.Flight.f_hlc;
    Alcotest.(check int64) "trace survives" e.Flight.f_trace d.Flight.f_trace;
    Alcotest.(check int) "round survives" e.Flight.f_round d.Flight.f_round;
    Alcotest.(check string) "kind survives" e.Flight.f_kind d.Flight.f_kind;
    Alcotest.(check (list (pair string string))) "attrs survive"
      e.Flight.f_attrs d.Flight.f_attrs);
  (* decoding is total on malformed documents *)
  List.iter
    (fun (label, j) ->
      match Flight.decode_entry_json j with
      | None -> ()
      | Some _ -> Alcotest.failf "decoded malformed entry: %s" label)
    [
      ("non-object", Json.Str "x");
      ("empty object", Json.Obj []);
      ( "wrong field type",
        Json.Obj [ ("hlc", Json.Str "nope"); ("round", Json.Int 1) ] );
    ]

(* ----- pinned flight dumps ----- *)

(* Every entry shape a node runtime and the cluster client write: sends
   (one traced), receives, a receive dropped for a decided round, an
   error per reason and each of the five phases.  Kind, round, trace,
   peer key, peer (-1: none), frame kind, note key, note. *)
let node_shapes =
  [
    ("send", 0, 0L, "dst", 1, "commit", "", "");
    ("send", 0, 0x1D5EEDL, "dst", 2, "commit", "", "");
    ("recv", 0, 0L, "src", 4, "command", "", "");
    ("phase", 0, 0L, "", -1, "", "phase", "commands");
    ("recv", 0, 0x1D5EEDL, "src", 3, "commit", "", "");
    ("phase", 0, 0L, "", -1, "", "phase", "committed");
    ("phase", 0, 0L, "", -1, "", "phase", "computed");
    ("recv", 0, 0L, "src", 2, "result", "", "");
    ("phase", 0, 0L, "", -1, "", "phase", "decode-failed");
    ("phase", 0, 0L, "", -1, "", "phase", "decoded");
    ("recv", 0, 0L, "src", 1, "commit", "dropped", "decided");
    ("error", 9, 0L, "src", 3, "result", "reason", "bad-round");
    ("error", 1, 0L, "src", 2, "commit", "reason", "bad-payload");
    ("error", 1, 0xBEEFL, "src", 0, "output", "reason", "unexpected-kind");
    ("recv", 1, 0L, "src", 4, "shutdown", "", "");
  ]

(* Three generic entries, then the node shapes at explicit HLCs: 18
   records into a ring of 16, which keeps the last generic one. *)
let pinned_flight record_shape =
  let f = Flight.create ~capacity:16 ~node:2 () in
  let hlc i = Clock.pack ~ms:1_760_000_000_123 ~count:i in
  Flight.record f ~hlc:(hlc 0) ~round:0 "phase";
  Flight.record f ~trace:7L ~attrs:[ ("dst", "9") ] ~hlc:(hlc 1) ~round:0 "send";
  Flight.record f ~trace:0xABCL
    ~attrs:[ ("src", "5"); ("frame", "commit"); ("x", "y") ]
    ~hlc:(hlc 2) ~round:3 "recv";
  List.iteri (fun i shape -> record_shape f ~hlc:(hlc (i + 3)) shape) node_shapes;
  f

(* recorded while the ring still kept one entry record per slot *)
let pinned_entries =
  [
    {|{"hlc":115343360008060930,"trace":"abc","round":3,"kind":"recv","attrs":{"src":"5","frame":"commit","x":"y"}}|};
    {|{"hlc":115343360008060931,"trace":"0","round":0,"kind":"send","attrs":{"dst":"1","frame":"commit"}}|};
    {|{"hlc":115343360008060932,"trace":"1d5eed","round":0,"kind":"send","attrs":{"dst":"2","frame":"commit"}}|};
    {|{"hlc":115343360008060933,"trace":"0","round":0,"kind":"recv","attrs":{"src":"4","frame":"command"}}|};
    {|{"hlc":115343360008060934,"trace":"0","round":0,"kind":"phase","attrs":{"phase":"commands"}}|};
    {|{"hlc":115343360008060935,"trace":"1d5eed","round":0,"kind":"recv","attrs":{"src":"3","frame":"commit"}}|};
    {|{"hlc":115343360008060936,"trace":"0","round":0,"kind":"phase","attrs":{"phase":"committed"}}|};
    {|{"hlc":115343360008060937,"trace":"0","round":0,"kind":"phase","attrs":{"phase":"computed"}}|};
    {|{"hlc":115343360008060938,"trace":"0","round":0,"kind":"recv","attrs":{"src":"2","frame":"result"}}|};
    {|{"hlc":115343360008060939,"trace":"0","round":0,"kind":"phase","attrs":{"phase":"decode-failed"}}|};
    {|{"hlc":115343360008060940,"trace":"0","round":0,"kind":"phase","attrs":{"phase":"decoded"}}|};
    {|{"hlc":115343360008060941,"trace":"0","round":0,"kind":"recv","attrs":{"src":"1","frame":"commit","dropped":"decided"}}|};
    {|{"hlc":115343360008060942,"trace":"0","round":9,"kind":"error","attrs":{"src":"3","frame":"result","reason":"bad-round"}}|};
    {|{"hlc":115343360008060943,"trace":"0","round":1,"kind":"error","attrs":{"src":"2","frame":"commit","reason":"bad-payload"}}|};
    {|{"hlc":115343360008060944,"trace":"beef","round":1,"kind":"error","attrs":{"src":"0","frame":"output","reason":"unexpected-kind"}}|};
    {|{"hlc":115343360008060945,"trace":"0","round":1,"kind":"recv","attrs":{"src":"4","frame":"shutdown"}}|};
  ]

let flight_dumps_pinned () =
  let check label record_shape =
    let f = pinned_flight record_shape in
    Alcotest.(check int) (label ^ ": recorded") 18 (Flight.recorded f);
    Alcotest.(check (list string)) (label ^ ": entries") pinned_entries
      (List.map
         (fun e -> Json.to_string (Flight.entry_json e))
         (Flight.entries f))
  in
  (* the attribute lists node.ml built per record before the ring went
     flat *)
  check "record ~attrs"
    (fun f ~hlc (kind, round, trace, peer_key, peer, frame, note_key, note) ->
      let attrs =
        (if peer < 0 then [] else [ (peer_key, string_of_int peer) ])
        @ (if frame = "" then [] else [ ("frame", frame) ])
        @ if note_key = "" then [] else [ (note_key, note) ]
      in
      Flight.record f ~trace ~attrs ~hlc ~round kind);
  check "record_fields"
    (fun f ~hlc (kind, round, trace, peer_key, peer, frame, note_key, note) ->
      Flight.record_fields f ~trace ~hlc ~round ~peer_key ~peer ~frame
        ~note_key ~note kind);
  (* the event log: attributes after the level, and a wrap past its
     capacity that drops the two oldest events *)
  let saved = Event.current_level () in
  Event.reset ();
  Event.set_level (Some Event.Debug);
  Fun.protect
    ~finally:(fun () ->
      Event.set_level saved;
      Event.reset ())
    (fun () ->
      Event.emit
        ~attrs:[ ("round", "3"); ("node", "1") ]
        Event.Error "round.decode_failed";
      Event.emit Event.Info "a";
      Event.emit ~attrs:[ ("k", "v") ] Event.Warn "b";
      for i = 0 to Event.capacity - 3 do
        Event.emit ~attrs:[ ("i", string_of_int i) ] Event.Debug "tick"
      done;
      Event.emit
        ~attrs:[ ("rule", "suspicion"); ("value", "1") ]
        Event.Warn "alert.firing";
      Alcotest.(check (pair int int)) "events total, dropped" (1026, 2)
        (Event.total (), Event.dropped ());
      let lines = List.map (Format.asprintf "%a" Event.pp) (Event.recent ()) in
      Alcotest.(check int) "ring full" Event.capacity (List.length lines);
      Alcotest.(check (list string)) "oldest survivors"
        [ "[warn] b k=v"; "[debug] tick i=0"; "[debug] tick i=1" ]
        (List.filteri (fun i _ -> i < 3) lines);
      Alcotest.(check (list string)) "newest"
        [ "[debug] tick i=1021"; "[warn] alert.firing rule=suspicion value=1" ]
        (List.filteri (fun i _ -> i >= Event.capacity - 2) lines))

(* ----- telemetry snapshots and aggregation ----- *)

let agg_bundle_round_trip () =
  let f = Flight.create ~capacity:8 ~node:3 () in
  Flight.record f ~trace:42L
    ~attrs:[ ("dst", "0"); ("frame", "Output") ]
    ~hlc:(Clock.now ()) ~round:1 "send";
  Flight.record f ~hlc:(Clock.now ()) ~round:1 "phase";
  let final = Agg.capture ~flight:f ~node:3 ~scope:Agg.Node () in
  (match Agg.decode (Agg.encode final) with
  | None -> Alcotest.fail "own final snapshot did not decode"
  | Some s ->
    Alcotest.(check bool) "codec is the identity" true (s = final);
    Alcotest.(check bool) "final" true s.Agg.s_final;
    Alcotest.(check int) "pid" (Unix.getpid ()) s.Agg.s_pid;
    Alcotest.(check bool) "snapshot hlc set" true (s.Agg.s_hlc > 0);
    Alcotest.(check int) "flight total" (Flight.recorded f)
      s.Agg.s_flight_recorded;
    Alcotest.(check (list string)) "flight kinds in order" [ "send"; "phase" ]
      (List.map (fun e -> e.Flight.f_kind) s.Agg.s_flight));
  (* one sequence per process, whichever runtime snapshots *)
  let mid = Agg.capture ~node:4 ~scope:Agg.Node () in
  Alcotest.(check bool) "seq counts per process" true
    (mid.Agg.s_seq > final.Agg.s_seq);
  Alcotest.(check bool) "mid-run snapshot carries no ring" true
    ((not mid.Agg.s_final) && mid.Agg.s_flight = []);
  (* Byzantine telemetry payloads are dropped, not fatal *)
  let doc fields = Json.to_string (Json.Obj fields) in
  let header =
    [
      ("schema", Json.Str Agg.schema);
      ("node", Json.Int 1);
      ("pid", Json.Int 7);
      ("registry", Json.Str "node");
      ("seq", Json.Int 1);
      ("hlc", Json.Int 0);
      ("metrics", Json.List []);
    ]
  in
  Alcotest.(check bool) "minimal snapshot decodes" true
    (Option.is_some (Agg.decode (doc header)));
  List.iter
    (fun (label, payload) ->
      match Agg.decode payload with
      | None -> ()
      | Some _ -> Alcotest.failf "decoded %s" label)
    [
      ("garbage", "\x00\xffnot json");
      ( "the retired end-of-run schema",
        doc (("schema", Json.Str "csm-node-telemetry/1") :: List.tl header) );
      ("schema without node", doc [ ("schema", Json.Str Agg.schema) ]);
      ( "seq 0",
        doc
          (List.map
             (fun (k, v) -> if k = "seq" then (k, Json.Int 0) else (k, v))
             header) );
      ( "final without a flight ring",
        doc (header @ [ ("final", Json.Bool true); ("spans", Json.List []) ]) );
      ("final flag not a bool", doc (header @ [ ("final", Json.Int 1) ]));
    ]

(* Random snapshots: printable strings (quotes and backslashes included)
   exercise the escaping, and finite floats survive the JSON round trip
   exactly, so the codec must be the identity. *)
let snapshot_gen =
  let open QCheck.Gen in
  let few g = list_size (int_bound 4) g in
  let str = string_size ~gen:printable (int_bound 6) in
  let attrs = few (pair str str) in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let value = function
    | Metric.K_counter -> map (fun c -> Metric.V_counter c) nat
    | Metric.K_gauge -> map (fun g -> Metric.V_gauge g) finite
    | Metric.K_histogram ->
      let* bounds = few finite in
      let+ counts = list_repeat (List.length bounds + 1) nat
      and+ s_sum = finite
      and+ s_count = nat in
      Metric.V_histogram
        {
          Metric.s_bounds = Array.of_list bounds;
          s_counts = Array.of_list counts;
          s_sum;
          s_count;
        }
  in
  let view =
    let* kind =
      oneofl [ Metric.K_counter; Metric.K_gauge; Metric.K_histogram ]
    in
    let+ name = str
    and+ help = str
    and+ samples =
      few
        (let+ labels = attrs and+ value = value kind in
         { Metric.labels; value })
    in
    { Metric.name; help; kind; samples }
  in
  let span =
    let+ id, parent, name = triple small_signed_int small_signed_int str
    and+ attrs = attrs
    and+ domain, depth, start_s, dur_s = quad nat nat finite finite
    and+ d_adds, d_muls, d_invs = triple nat nat nat in
    {
      Span.id;
      parent;
      name;
      attrs;
      domain;
      depth;
      start_s;
      dur_s;
      d_adds;
      d_muls;
      d_invs;
    }
  in
  let entry =
    let+ f_hlc, f_trace, f_round = triple nat ui64 nat
    and+ f_kind, f_attrs = pair str attrs in
    { Flight.f_hlc; f_trace; f_round; f_kind; f_attrs }
  in
  let+ s_node, s_pid, s_seq, s_hlc =
    quad nat small_signed_int (map succ nat) nat
  and+ s_scope = oneofl [ Agg.Process; Agg.Node ]
  and+ s_views = few view
  and+ s_events_total, s_events_dropped = pair nat nat
  and+ final = opt (triple (few span) (few entry) nat) in
  let s_spans, s_flight, s_flight_recorded =
    Option.value ~default:([], [], 0) final
  in
  {
    Agg.s_node;
    s_pid;
    s_scope;
    s_seq;
    s_hlc;
    s_views;
    s_events_total;
    s_events_dropped;
    s_final = Option.is_some final;
    s_spans;
    s_flight;
    s_flight_recorded;
  }

let snapshot_arb = QCheck.make ~print:Agg.encode snapshot_gen

let qcheck_snapshot_round_trip =
  QCheck.Test.make ~name:"snapshot codec round-trips" ~count:200 snapshot_arb
    (fun s -> Agg.decode (Agg.encode s) = Some s)

(* Totality: truncations and random byte flips of a valid payload
   decode without raising — truncations (never valid JSON) to [None]. *)
let qcheck_snapshot_decode_total =
  QCheck.Test.make ~name:"snapshot decode total on mangled payloads" ~count:100
    (QCheck.triple snapshot_arb
       QCheck.(small_list (int_bound 100_000))
       QCheck.(small_list (int_bound 100_000)))
    (fun (s, cuts, flips) ->
      let payload = Agg.encode s in
      let len = String.length payload in
      let prefixes_rejected =
        List.for_all
          (fun cut -> Agg.decode (String.sub payload 0 (cut mod len)) = None)
          (0 :: (len - 1) :: cuts)
      in
      let garbled =
        let b = Bytes.of_string payload in
        List.iter
          (fun i ->
            let i = i mod len in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55)))
          flips;
        Bytes.to_string b
      in
      ignore (Agg.decode garbled);
      prefixes_rejected)

let mk_snapshot ?(views = []) ?(flight = []) ?(scope = Agg.Process)
    ?(final = true) ~node ~pid ~seq () =
  {
    Agg.s_node = node;
    s_pid = pid;
    s_scope = scope;
    s_seq = seq;
    s_hlc = seq;
    s_views = views;
    s_events_total = 0;
    s_events_dropped = 0;
    s_final = final;
    s_spans = [];
    s_flight = flight;
    s_flight_recorded = List.length flight;
  }

let agg_latest_by_pid () =
  let snaps =
    [
      mk_snapshot ~node:1 ~pid:77 ~seq:10 ();
      mk_snapshot ~node:0 ~pid:77 ~seq:20 ();
      mk_snapshot ~node:2 ~pid:88 ~seq:5 ();
    ]
  in
  let reps = Agg.latest snaps in
  Alcotest.(check (list int)) "one rep per pid, sorted by node" [ 0; 2 ]
    (List.map (fun s -> s.Agg.s_node) reps);
  Alcotest.(check int) "newest sequence wins" 20
    (List.find (fun s -> s.Agg.s_pid = 77) reps).Agg.s_seq;
  Alcotest.(check int) "max_hlc joins all" 20 (Agg.max_hlc snaps)

(* Node-scope snapshots key on (pid, node index): two forked nodes on
   different hosts may collide on pid, and neither may swallow the
   other's telemetry. *)
let agg_latest_scope () =
  let snaps =
    [
      mk_snapshot ~scope:Agg.Node ~node:1 ~pid:77 ~seq:10 ();
      mk_snapshot ~scope:Agg.Node ~node:0 ~pid:77 ~seq:20 ();
      mk_snapshot ~scope:Agg.Node ~node:1 ~pid:77 ~seq:30 ();
      mk_snapshot ~scope:Agg.Node ~node:2 ~pid:88 ~seq:5 ();
    ]
  in
  let reps = Agg.latest snaps in
  Alcotest.(check (list int)) "one rep per (pid, node), sorted" [ 0; 1; 2 ]
    (List.map (fun s -> s.Agg.s_node) reps);
  Alcotest.(check int) "newest sequence wins per node" 30
    (List.find (fun s -> s.Agg.s_node = 1) reps).Agg.s_seq;
  (* a Process-scope loopback snapshot still keys on pid alone *)
  let mixed =
    [
      mk_snapshot ~scope:Agg.Process ~node:0 ~pid:99 ~seq:1 ();
      mk_snapshot ~scope:Agg.Process ~node:1 ~pid:99 ~seq:2 ();
      mk_snapshot ~scope:Agg.Node ~node:1 ~pid:99 ~seq:3 ();
    ]
  in
  Alcotest.(check int) "process scope still keys on pid" 2
    (List.length (Agg.latest mixed))

let counter_view name v =
  {
    Metric.name;
    help = "";
    kind = Metric.K_counter;
    samples = [ { Metric.labels = [ ("node", "0") ]; value = Metric.V_counter v } ];
  }

let gauge_view name v =
  {
    Metric.name;
    help = "";
    kind = Metric.K_gauge;
    samples = [ { Metric.labels = []; value = Metric.V_gauge v } ];
  }

let agg_merge_views () =
  let a = [ counter_view "csm_x_total" 3; gauge_view "csm_g" 1.5 ]
  and b = [ counter_view "csm_x_total" 4; gauge_view "csm_g" 2.5 ] in
  let value name merged =
    match List.find_opt (fun (v : Metric.view) -> v.Metric.name = name) merged with
    | Some { Metric.samples = [ { Metric.value; _ } ]; _ } -> value
    | _ -> Alcotest.failf "family %s missing from merge" name
  in
  let m = Agg.merge_views [ a; b ] in
  (match value "csm_x_total" m with
  | Metric.V_counter n -> Alcotest.(check int) "counters sum" 7 n
  | _ -> Alcotest.fail "counter kind lost");
  (match value "csm_g" m with
  | Metric.V_gauge g -> Alcotest.(check (float 0.0)) "gauges take max" 2.5 g
  | _ -> Alcotest.fail "gauge kind lost");
  (* arrival order of node bundles must not matter *)
  Alcotest.(check string) "merge commutes"
    (Prom.render_views (Agg.merge_views [ a; b ]))
    (Prom.render_views (Agg.merge_views [ b; a ]));
  Alcotest.(check string) "merge associative"
    (Prom.render_views (Agg.merge_views [ a; b; b ]))
    (Prom.render_views
       (Agg.merge_views [ Agg.merge_views [ a; b ]; b ]))

(* A forked node's final views fold into this process's registry as
   [Agg.merge_views] merges them (counters add, gauges keep the larger
   value, histograms add buckets); a sample of another kind under a
   registered name is skipped, and nothing is taken in while metrics
   are off. *)
let metric_absorb () =
  Metric.enable ();
  Metric.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metric.reset ();
      Metric.disable ())
    (fun () ->
      let bounds = [| 1.0; 10.0 |] in
      Metric.inc ~by:3 (Metric.counter ~labels:[ ("node", "0") ] "csm_x_total");
      Metric.set (Metric.gauge "csm_g") 1.5;
      let h = Metric.histogram ~buckets:bounds "csm_h" in
      Metric.observe h 0.5;
      Metric.observe h 2.0;
      let ours = Metric.families () in
      let theirs =
        [
          counter_view "csm_x_total" 4;
          gauge_view "csm_g" 2.5;
          counter_view "csm_g" 9;
          {
            Metric.name = "csm_h";
            help = "";
            kind = Metric.K_histogram;
            samples =
              [
                {
                  Metric.labels = [];
                  value =
                    Metric.V_histogram
                      { Metric.s_bounds = bounds; s_counts = [| 0; 0; 1 |]; s_sum = 20.0; s_count = 1 };
                };
              ];
          };
        ]
      in
      Metric.absorb theirs;
      let absorbed = Prom.render_views (Metric.families ()) in
      Alcotest.(check string) "absorb = merge_views" (Prom.render_views (Agg.merge_views [ ours; theirs ]))
        absorbed;
      Metric.disable ();
      Metric.absorb theirs;
      Alcotest.(check string) "disabled: nothing taken in" absorbed
        (Prom.render_views (Metric.families ())))

let agg_cross_flow_pairing () =
  Alcotest.(check string) "flow key shape" "1/Share/0->1"
    (Agg.flow_key ~round:1 ~frame:"Share" ~src:0 ~dst:1);
  let send = Flight.create ~capacity:8 ~node:0 () in
  let recv = Flight.create ~capacity:8 ~node:1 () in
  Flight.record send
    ~attrs:[ ("dst", "1"); ("frame", "Share") ]
    ~hlc:(Clock.now ()) ~round:1 "send";
  Flight.record recv
    ~attrs:[ ("src", "0"); ("frame", "Share") ]
    ~hlc:(Clock.now ()) ~round:1 "recv";
  (* unmatched: wrong round, wrong kind, missing peer attr *)
  Flight.record recv
    ~attrs:[ ("src", "0"); ("frame", "Share") ]
    ~hlc:(Clock.now ()) ~round:2 "recv";
  Flight.record recv ~attrs:[ ("frame", "Share") ] ~hlc:(Clock.now ()) ~round:1
    "recv";
  Flight.record recv ~hlc:(Clock.now ()) ~round:1 "phase";
  let finals =
    [
      mk_snapshot ~node:0 ~pid:100 ~seq:1 ~flight:(Flight.entries send) ();
      mk_snapshot ~node:1 ~pid:101 ~seq:2 ~flight:(Flight.entries recv) ();
    ]
  in
  Alcotest.(check int) "exactly the matched pair" 1 (Agg.cross_flows finals);
  (* the merged trace carries the pair as s/f flow events *)
  let trace = Json.to_string (Agg.cluster_trace finals) in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length trace && (String.sub trace i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "flow start emitted" true (has "\"ph\":\"s\"");
  Alcotest.(check bool) "flow end emitted" true (has "\"ph\":\"f\"")

(* ----- event log: HLC-stamped flight ring ----- *)

let event_stamps_ordered () =
  let saved = Event.current_level () in
  Event.reset ();
  Event.set_level (Some Event.Debug);
  Fun.protect
    ~finally:(fun () ->
      Event.set_level saved;
      Event.reset ())
    (fun () ->
      Event.emit Event.Info "a";
      Event.emit ~attrs:[ ("k", "v") ] Event.Warn "b";
      Event.emit Event.Debug "c";
      let evs = Event.recent () in
      Alcotest.(check (list string)) "all three recorded" [ "a"; "b"; "c" ]
        (List.map (fun (e : Event.t) -> e.Flight.f_kind) evs);
      Alcotest.(check (list string)) "printed with level and attrs"
        [ "[info] a"; "[warn] b k=v"; "[debug] c" ]
        (List.map (Format.asprintf "%a" Event.pp) evs);
      let stamps = List.map (fun (e : Event.t) -> e.Flight.f_hlc) evs in
      Alcotest.(check bool) "stamps positive" true
        (List.for_all (fun s -> s > 0) stamps);
      Alcotest.(check bool) "stamps strictly increasing" true
        (List.sort_uniq Int.compare stamps = stamps))

(* ----- Prometheus escaping edge cases ----- *)

let prom_escaping_edge_cases () =
  metered (fun () ->
      let bs = "\\" in
      List.iter
        (fun (name, label_value) ->
          Metric.set (Metric.gauge ~labels:[ ("l", label_value) ] name) 1.0)
        [
          ("csm_test_esc_empty", "");
          ("csm_test_esc_bs", bs);
          ("csm_test_esc_nl", "\n");
          ("csm_test_esc_trailing_bs", "x" ^ bs);
          ("csm_test_esc_mixed", "a\"b" ^ bs ^ "c\nd");
        ];
      let doc = Prom.render () in
      check_prom_format doc;
      let lines = String.split_on_char '\n' doc in
      List.iter
        (fun expected ->
          Alcotest.(check bool) (Printf.sprintf "has %S" expected) true
            (List.mem expected lines))
        [
          "csm_test_esc_empty{l=\"\"} 1";
          "csm_test_esc_bs{l=\"" ^ bs ^ bs ^ "\"} 1";
          "csm_test_esc_nl{l=\"" ^ bs ^ "n\"} 1";
          "csm_test_esc_trailing_bs{l=\"x" ^ bs ^ bs ^ "\"} 1";
          "csm_test_esc_mixed{l=\"a" ^ bs ^ "\"b" ^ bs ^ bs ^ "c" ^ bs
          ^ "nd\"} 1";
        ];
      (* label_block output is itself parseable by the line checker *)
      Alcotest.(check string) "label_block escapes"
        ("{l=\"a" ^ bs ^ bs ^ "b\"}")
        (Prom.label_block [ ("l", "a" ^ bs ^ "b") ]))

(* ----- live streaming telemetry: windows, deltas, alerts, http ----- *)

module Window = Csm_obs.Window
module Alert = Csm_obs.Alert
module Live = Csm_obs.Live
module Http = Csm_obs.Http

(* All window tests drive the clock explicitly through ?now — nothing
   here depends on wall time.  Integer-valued records keep every sum
   exact. *)
let window_total ~now w = (Window.snapshot ~now w).Metric.s_sum

let window_rate_basics () =
  let w = Window.create () in
  Alcotest.(check (float 0.0)) "empty rate" 0.0 (Window.rate ~now:10.0 w);
  Window.mark ~now:10.0 w;
  Window.add ~now:10.5 w 10.0;
  Window.add ~now:11.5 w 10.0;
  Alcotest.(check (float 0.0)) "total" 20.0 (window_total ~now:12.0 w);
  Alcotest.(check (float 1e-9)) "rate over covered span" 10.0
    (Window.rate ~now:12.0 w);
  (* far past the span every bucket has expired *)
  Alcotest.(check (float 0.0)) "expired" 0.0 (window_total ~now:100.0 w)

let window_rotation_no_double_count () =
  let w = Window.create () in
  Window.add ~now:0.025 w 7.0;
  (* the ring has span/bucket + 1 slots, so one span plus one bucket
     later bucket 0's slot is reused — the old count must be reclaimed,
     not added to *)
  let later = 0.025 +. Window.span_s +. Window.bucket_s in
  Window.add ~now:later w 3.0;
  Alcotest.(check (float 0.0)) "slot reclaimed on reuse" 3.0
    (window_total ~now:later w);
  (* an in-span revisit of the same bucket accumulates *)
  Window.add ~now:(later +. 0.01) w 2.0;
  Alcotest.(check (float 0.0)) "same live bucket accumulates" 5.0
    (window_total ~now:(later +. Window.bucket_s) w)

let window_hist_quantiles () =
  let h = Window.create ~buckets:[| 0.01; 0.1; 1.0 |] () in
  for _ = 1 to 90 do
    Window.add ~now:1.0 h 0.05
  done;
  for _ = 1 to 10 do
    Window.add ~now:1.0 h 0.5
  done;
  let s = Window.snapshot ~now:1.5 h in
  Alcotest.(check int) "count" 100 s.Metric.s_count;
  let p50 = Metric.quantile s 0.5 and p99 = Metric.quantile s 0.99 in
  Alcotest.(check bool) "p50 in the 0.01..0.1 bucket" true
    (p50 > 0.01 && p50 <= 0.1);
  Alcotest.(check bool) "p99 in the 0.1..1.0 bucket" true
    (p99 > 0.1 && p99 <= 1.0);
  (* rotation: far in the future everything has aged out *)
  Alcotest.(check int) "expired" 0
    (Window.snapshot ~now:1000.0 h).Metric.s_count

(* A snapshot delta folds in only over the window's own bound layout:
   the deltas come from untrusted node snapshots. *)
let window_add_snapshot_layout () =
  let bounds = [| 0.01; 0.1; 1.0 |] in
  let h = Window.create ~buckets:bounds () in
  let delta s_bounds s_counts =
    {
      Metric.s_bounds;
      s_counts;
      s_sum = 0.5;
      s_count = Array.fold_left ( + ) 0 s_counts;
    }
  in
  Window.add_snapshot ~now:1.0 h (delta bounds [| 1; 2; 0; 1 |]);
  Window.add_snapshot ~now:1.0 h (delta [| 0.01; 0.2; 1.0 |] [| 5; 0; 0; 0 |]);
  Window.add_snapshot ~now:1.0 h (delta bounds [| 5; 0; 0 |]);
  Window.add ~now:1.0 h 0.05;
  let s = Window.snapshot ~now:1.5 h in
  Alcotest.(check (array int)) "only the matching delta and the value"
    [| 1; 3; 0; 1 |] s.Metric.s_counts;
  Alcotest.(check int) "count" 5 s.Metric.s_count;
  Alcotest.(check (float 1e-12)) "sum" 0.55 s.Metric.s_sum;
  (match Window.create ~buckets:[| 1.0; 1.0 |] () with
  | exception Invalid_argument _ -> ()
  | (_ : Window.t) -> Alcotest.fail "accepted non-increasing bounds")

(* a synthetic mid-run payload: one node's cumulative counter value *)
let delta_payload ~node ~seq v =
  Agg.encode
    (mk_snapshot ~scope:Agg.Node ~final:false
       ~views:
         [
           {
             Metric.name = "csm_test_live_total";
             help = "";
             kind = Metric.K_counter;
             samples =
               [ { Metric.labels = [ ("node", string_of_int node) ];
                   value = Metric.V_counter v } ];
           };
         ]
       ~node ~pid:(Unix.getpid ()) ~seq ())

let apply_payload live p = Live.apply live (Agg.decode p)

let live_delta_merge_idempotent () =
  let p1 = delta_payload ~node:0 ~seq:1 5 in
  let p2 = delta_payload ~node:0 ~seq:2 8 in
  let p3 = delta_payload ~node:0 ~seq:3 12 in
  let ordered = Live.create ~k:1 () in
  List.iter (fun p -> ignore (apply_payload ordered p)) [ p1; p2; p3 ];
  let chaotic = Live.create ~k:1 () in
  (* duplicated and reordered: the per-source seq plus cumulative
     values must converge to the same state *)
  List.iter
    (fun p -> ignore (apply_payload chaotic p))
    [ p1; p1; p2; p1; p3; p2; p3; p3 ];
  Alcotest.(check string) "same merged views"
    (Prom.render_views (Live.node_views ordered))
    (Prom.render_views (Live.node_views chaotic));
  let applied, stale, rejected = Live.deltas chaotic in
  Alcotest.(check int) "three applied" 3 applied;
  Alcotest.(check int) "five stale" 5 stale;
  Alcotest.(check int) "none rejected" 0 rejected;
  Alcotest.(check bool) "garbage rejected" true
    (apply_payload chaotic "\x00nope" = `Malformed);
  (* a fresh source (different node) does not collide *)
  Alcotest.(check bool) "other node applies" true
    (apply_payload chaotic (delta_payload ~node:1 ~seq:1 2) = `Applied)

(* One rule, both merges: whatever order a mix of mid-run and final
   snapshots arrives in — duplicates included, Process and Node scope
   alike — the live store converges to the views the end-of-run merge
   computes from the final snapshots alone, and the end-of-run merge
   of the whole mix picks those same finals. *)
let qcheck_newest_seq_wins =
  let open QCheck.Gen in
  (* source [i]: seqs 1..n from one process; the last is final and
     carries every family, earlier ones only the counter, sometimes *)
  let source i =
    let* scope = oneofl [ Agg.Process; Agg.Node ] and* n = int_range 1 5 in
    let+ steps = list_repeat n (triple (int_bound 3) (int_bound 9) bool) in
    let total = ref 0 in
    List.mapi
      (fun j (thread, inc, with_gauge) ->
        total := !total + inc;
        let final = j = n - 1 in
        let node = match scope with Agg.Node -> i | Agg.Process -> thread in
        let gauge = gauge_view "csm_test_live_gauge" (float_of_int (i + j)) in
        mk_snapshot ~scope ~final
          ~views:
            (counter_view "csm_test_live_total" !total
            :: (if with_gauge || final then [ gauge ] else []))
          ~node ~pid:(100 + i) ~seq:(j + 1) ())
      steps
  in
  let arrivals =
    let* m = int_range 1 4 in
    let* snaps = flatten_l (List.init m source) in
    let all = List.concat snaps in
    shuffle_l (all @ all)
  in
  QCheck.Test.make ~name:"newest seq per source wins in any order" ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat "\n" (List.map Agg.encode l))
       arrivals)
    (fun arrivals ->
      let live = Live.create ~k:1 () in
      List.iter
        (fun s -> ignore (apply_payload live (Agg.encode s)))
        arrivals;
      let finals = List.filter (fun s -> s.Agg.s_final) arrivals in
      let expected = Prom.render_views (Agg.merged_views finals) in
      Prom.render_views (Live.node_views live) = expected
      && Prom.render_views (Agg.merged_views arrivals) = expected)

(* The expected output of [pinned_live_store] below, recorded once and
   compared verbatim: any change to what the store renders shows here. *)
let pinned_windows =
  {|{"schema":"csm-live-windows/1","commits":10,"lambda":20,"gamma":3,"round_latency":{"p50":0,"p95":0,"p99":0,"count":0},"phase_rates":{"committed":0,"decoded":0},"frame_error_rate":0,"alerts":[{"rule":"frame-errors","metric":"csm_transport_frame_errors_total","value":4}],"deltas":{"applied":5,"stale":4,"rejected":0},"sources":[{"pid":300,"node":0,"registry":"node","seq":3,"hlc":3,"events_total":0,"events_dropped":0},{"pid":301,"node":1,"registry":"node","seq":2,"hlc":2,"events_total":0,"events_dropped":0}]}|}

let pinned_scrape =
  {|# TYPE csm_node_phases_total counter
csm_node_phases_total{phase="committed"} 15
csm_node_phases_total{phase="decoded"} 11
# TYPE csm_round_latency_seconds histogram
csm_round_latency_seconds_bucket{node="0",le="1e-06"} 0
csm_round_latency_seconds_bucket{node="0",le="4e-06"} 0
csm_round_latency_seconds_bucket{node="0",le="1.6e-05"} 0
csm_round_latency_seconds_bucket{node="0",le="6.4e-05"} 0
csm_round_latency_seconds_bucket{node="0",le="0.000256"} 0
csm_round_latency_seconds_bucket{node="0",le="0.001024"} 0
csm_round_latency_seconds_bucket{node="0",le="0.004096"} 1
csm_round_latency_seconds_bucket{node="0",le="0.016384"} 3
csm_round_latency_seconds_bucket{node="0",le="0.065536"} 4
csm_round_latency_seconds_bucket{node="0",le="0.262144"} 4
csm_round_latency_seconds_bucket{node="0",le="1.048576"} 4
csm_round_latency_seconds_bucket{node="0",le="4.194304"} 4
csm_round_latency_seconds_bucket{node="0",le="16.777216"} 4
csm_round_latency_seconds_bucket{node="0",le="67.108864"} 4
csm_round_latency_seconds_bucket{node="0",le="268.435456"} 4
csm_round_latency_seconds_bucket{node="0",le="1073.741824"} 4
csm_round_latency_seconds_bucket{node="0",le="+Inf"} 4
csm_round_latency_seconds_sum{node="0"} 0.004
csm_round_latency_seconds_count{node="0"} 4
csm_round_latency_seconds_bucket{node="1",le="1e-06"} 0
csm_round_latency_seconds_bucket{node="1",le="4e-06"} 0
csm_round_latency_seconds_bucket{node="1",le="1.6e-05"} 0
csm_round_latency_seconds_bucket{node="1",le="6.4e-05"} 0
csm_round_latency_seconds_bucket{node="1",le="0.000256"} 0
csm_round_latency_seconds_bucket{node="1",le="0.001024"} 1
csm_round_latency_seconds_bucket{node="1",le="0.004096"} 1
csm_round_latency_seconds_bucket{node="1",le="0.016384"} 1
csm_round_latency_seconds_bucket{node="1",le="0.065536"} 1
csm_round_latency_seconds_bucket{node="1",le="0.262144"} 1
csm_round_latency_seconds_bucket{node="1",le="1.048576"} 1
csm_round_latency_seconds_bucket{node="1",le="4.194304"} 1
csm_round_latency_seconds_bucket{node="1",le="16.777216"} 1
csm_round_latency_seconds_bucket{node="1",le="67.108864"} 1
csm_round_latency_seconds_bucket{node="1",le="268.435456"} 1
csm_round_latency_seconds_bucket{node="1",le="1073.741824"} 1
csm_round_latency_seconds_bucket{node="1",le="+Inf"} 1
csm_round_latency_seconds_sum{node="1"} 0.001
csm_round_latency_seconds_count{node="1"} 1
# TYPE csm_transport_frame_errors_total counter
csm_transport_frame_errors_total{node="0"} 1
csm_transport_frame_errors_total{node="1"} 4
# HELP csm_window_lambda Windowed committed-command throughput λ, commands/second
# TYPE csm_window_lambda gauge
csm_window_lambda 20
# HELP csm_window_gamma Storage efficiency γ = K carried by each committed round
# TYPE csm_window_gamma gauge
csm_window_gamma 3
# HELP csm_window_round_latency_seconds Rolling protocol round latency quantiles over the live window
# TYPE csm_window_round_latency_seconds gauge
csm_window_round_latency_seconds{quantile="0.5"} 0
csm_window_round_latency_seconds{quantile="0.95"} 0
csm_window_round_latency_seconds{quantile="0.99"} 0
# HELP csm_window_frame_error_rate Windowed malformed-transport-frame rate, errors/second
# TYPE csm_window_frame_error_rate gauge
csm_window_frame_error_rate 0
# HELP csm_window_phase_rate Windowed node phase completion rate, phases/second
# TYPE csm_window_phase_rate gauge
csm_window_phase_rate{phase="committed"} 0
csm_window_phase_rate{phase="decoded"} 0
# HELP csm_alerts_firing SLO alert rules currently firing (1 firing, 0 quiet)
# TYPE csm_alerts_firing gauge
csm_alerts_firing{rule="frame-errors"} 1
csm_alerts_firing{rule="hlc-skew"} 0
csm_alerts_firing{rule="suspicion"} 0
# HELP csm_live_deltas_applied_total Streaming telemetry deltas merged into the live store
# TYPE csm_live_deltas_applied_total counter
csm_live_deltas_applied_total 5
# HELP csm_live_deltas_stale_total Duplicated or reordered deltas dropped by the sequence rule
# TYPE csm_live_deltas_stale_total counter
csm_live_deltas_stale_total 4
# HELP csm_live_deltas_rejected_total Malformed streaming telemetry payloads rejected
# TYPE csm_live_deltas_rejected_total counter
csm_live_deltas_rejected_total 0
|}

let live_lambda_window () =
  let live = Live.create ~k:2 () in
  Live.mark_start ~now:100.0 live;
  List.iter (fun t -> Live.note_commit ~now:t live) [ 100.5; 101.0; 101.5 ];
  (* 3 commits x k=2 over the 2s covered span *)
  Alcotest.(check (float 1e-6)) "windowed lambda" 3.0
    (Live.lambda ~now:102.0 live);
  Alcotest.(check int) "commits" 3 (Live.commits live)

(* A node's cumulative snapshot as a Telemetry payload: per-phase
   counters, its frame-error counter and a round-latency histogram with
   one observation per bucket index in [latency]. *)
let live_snap ~node ~seq ~phases ~errors ~latency =
  let node_l = ("node", string_of_int node) in
  let counter name labels v =
    {
      Metric.name;
      help = "";
      kind = Metric.K_counter;
      samples = [ { Metric.labels; value = Metric.V_counter v } ];
    }
  in
  let bounds = Metric.default_buckets in
  let counts = Array.make (Array.length bounds + 1) 0 in
  List.iter (fun i -> counts.(i) <- counts.(i) + 1) latency;
  let hist =
    {
      Metric.s_bounds = bounds;
      s_counts = counts;
      s_sum = 0.001 *. float_of_int (List.length latency);
      s_count = List.length latency;
    }
  in
  Agg.encode
    (mk_snapshot ~scope:Agg.Node ~final:false ~node ~pid:(300 + node) ~seq
       ~views:
         [
           {
             Metric.name = "csm_node_phases_total";
             help = "";
             kind = Metric.K_counter;
             samples =
               List.map
                 (fun (p, v) ->
                   { Metric.labels = [ ("phase", p) ]; value = Metric.V_counter v })
                 phases;
           };
           counter "csm_transport_frame_errors_total" [ node_l ] errors;
           {
             Metric.name = "csm_round_latency_seconds";
             help = "";
             kind = Metric.K_histogram;
             samples = [ { Metric.labels = [ node_l ]; value = Metric.V_histogram hist } ];
           };
         ]
       ())

(* One store driven through every ingestion path at explicit read times:
   two node sources whose snapshots arrive duplicated and reordered,
   each carrying phase-counter, frame-error and round-latency families,
   plus ten client commits.  Without [apply_at] the snapshots are
   applied at the wall clock, so at the explicit [now] their window
   feeds are out of the window and only their names (phase labels)
   show; the merged cumulative views, the λ window, the alert states
   and the delta counters are pinned byte for byte.  [apply_at i] is
   the time the [i]th arrival is applied at. *)
let pinned_live_store ?apply_at () =
  let live = Live.create ~k:3 () in
  Live.mark_start ~now:200.0 live;
  let a1 = live_snap ~node:0 ~seq:1 ~phases:[ ("committed", 2); ("decoded", 1) ] ~errors:0 ~latency:[]
  and a2 = live_snap ~node:0 ~seq:2 ~phases:[ ("committed", 5); ("decoded", 4) ] ~errors:1 ~latency:[ 6; 7; 7 ]
  and a3 = live_snap ~node:0 ~seq:3 ~phases:[ ("committed", 9); ("decoded", 8) ] ~errors:1 ~latency:[ 6; 7; 7; 8 ]
  and b1 = live_snap ~node:1 ~seq:1 ~phases:[ ("committed", 1) ] ~errors:2 ~latency:[ 5 ]
  and b2 = live_snap ~node:1 ~seq:2 ~phases:[ ("committed", 6); ("decoded", 3) ] ~errors:4 ~latency:[ 5 ] in
  List.iteri
    (fun i p ->
      let now = Option.map (fun at -> at i) apply_at in
      ignore (Live.apply ?now live (Agg.decode p)))
    [ a1; b1; a2; a1; b2; a3; b1; a2; b2 ];
  for i = 1 to 10 do
    Live.note_commit ~now:(200.0 +. (0.1 *. float_of_int i)) live
  done;
  (Json.to_string (Live.windows_json ~now:201.5 live), Live.scrape ~now:201.5 live)

let live_store_pinned () =
  let windows, scrape = pinned_live_store () in
  Alcotest.(check string) "windows.json" pinned_windows windows;
  Alcotest.(check string) "scrape" pinned_scrape scrape

(* The same store with its nine arrivals applied 0.1 s apart from
   200.1 s, inside the window read at 201.5 s: the windowed round
   latency, per-phase rates and frame-error rate are pinned too. *)
let pinned_windowed_windows =
  {|{"schema":"csm-live-windows/1","commits":10,"lambda":20,"gamma":3,"round_latency":{"p50":0.016384,"p95":0.065536,"p99":0.065536,"count":5},"phase_rates":{"committed":10.714285714285671,"decoded":7.857142857142826},"frame_error_rate":3.8461538461538125,"alerts":[{"rule":"frame-errors","metric":"csm_transport_frame_errors_total","value":4}],"deltas":{"applied":5,"stale":4,"rejected":0},"sources":[{"pid":300,"node":0,"registry":"node","seq":3,"hlc":3,"events_total":0,"events_dropped":0},{"pid":301,"node":1,"registry":"node","seq":2,"hlc":2,"events_total":0,"events_dropped":0}]}|}

(* Its [csm_window_*] samples; every other line of the scrape is the
   unwindowed store's. *)
let pinned_windowed_samples =
  [
    {|csm_window_lambda 20|};
    {|csm_window_gamma 3|};
    {|csm_window_round_latency_seconds{quantile="0.5"} 0.016384|};
    {|csm_window_round_latency_seconds{quantile="0.95"} 0.065536|};
    {|csm_window_round_latency_seconds{quantile="0.99"} 0.065536|};
    {|csm_window_frame_error_rate 3.8461538461538125|};
    {|csm_window_phase_rate{phase="committed"} 10.714285714285671|};
    {|csm_window_phase_rate{phase="decoded"} 7.857142857142826|};
  ]

let live_store_windowed_pinned () =
  let windows, scrape =
    pinned_live_store
      ~apply_at:(fun i -> 200.0 +. (0.1 *. float_of_int (i + 1)))
      ()
  in
  let windowed l = String.starts_with ~prefix:"csm_window_" l in
  let lines s = String.split_on_char '\n' s in
  let pick keep s = List.filter keep (lines s) in
  Alcotest.(check string) "windows.json" pinned_windowed_windows windows;
  Alcotest.(check (list string))
    "window samples" pinned_windowed_samples (pick windowed scrape);
  Alcotest.(check (list string))
    "other lines"
    (pick (fun l -> not (windowed l)) pinned_scrape)
    (pick (fun l -> not (windowed l)) scrape)

(* The store's one lock under contention: three domains at once, one
   applying two sources' snapshots, one noting commits, one alternating
   scrapes and windows documents.  Counts come out whole and every
   rendered document is well-formed. *)
let live_store_contended () =
  let per_source = 200 and commits = 400 and reads = 100 in
  let payloads =
    List.init (2 * per_source) (fun i ->
        let node = i mod 2 and seq = (i / 2) + 1 in
        Agg.decode
          (live_snap ~node ~seq
             ~phases:[ ("committed", seq); ("decoded", seq / 2) ]
             ~errors:(seq / 3) ~latency:(List.init (seq mod 7) (fun j -> j + 4))))
  in
  let live = Live.create ~k:2 () in
  Live.mark_start live;
  let applier =
    Domain.spawn (fun () ->
        List.iter (fun p -> ignore (Live.apply live p)) payloads)
  and committer =
    Domain.spawn (fun () ->
        for _ = 1 to commits do
          Live.note_commit live
        done)
  and reader =
    Domain.spawn (fun () ->
        List.init reads (fun _ ->
            let scrape = Live.scrape live in
            (scrape, Json.to_string (Live.windows_json live))))
  in
  Domain.join applier;
  Domain.join committer;
  let docs = Domain.join reader in
  Alcotest.(check int) "commits" commits (Live.commits live);
  let applied, stale, rejected = Live.deltas live in
  Alcotest.(check (list int)) "deltas" [ 2 * per_source; 0; 0 ]
    [ applied; stale; rejected ];
  List.iter
    (fun (scrape, windows) ->
      check_prom_format scrape;
      match Json.member "schema" (Json.parse windows) with
      | Some (Json.Str "csm-live-windows/1") -> ()
      | _ -> Alcotest.failf "windows document: %s" windows)
    docs

let alert_parse_fixpoint () =
  List.iter
    (fun spec ->
      match Alert.parse spec with
      | None -> Alcotest.failf "parse %S failed" spec
      | Some r ->
        Alcotest.(check string) ("fixpoint " ^ spec) (Alert.to_string r)
          (Alert.to_string
             (Option.get (Alert.parse (Alert.to_string r)))))
    [
      "csm_node_suspicion>0";
      "skew:csm_hlc_skew_seconds>=0.25";
      "floor:csm_window_lambda<10";
      "csm_x<=3.5";
      " spaced : csm_y > 1 ";
    ];
  List.iter
    (fun spec ->
      Alcotest.(check bool) ("rejects " ^ spec) true (Alert.parse spec = None))
    [ ""; "nope"; "m>"; ">1"; "bad name:m>1"; "m>nan"; "m!1"; ":m>1" ]

let alert_engine_edges () =
  let rule = Alert.rule ~name:"r" ~metric:"m" ~cmp:Alert.Gt 5.0 in
  let e = Alert.create [ rule ] in
  let values v metric = if metric = "m" then v else [] in
  Alcotest.(check int) "quiet below threshold" 0
    (List.length (Alert.evaluate e ~now:1.0 (values [ 4.0 ])));
  Alcotest.(check bool) "not firing" true (Alert.firing e = []);
  (* rising edge fires once, stays firing without re-edging *)
  Alcotest.(check int) "rising edge" 1
    (List.length (Alert.evaluate e ~now:2.0 (values [ 4.0; 6.0 ])));
  Alcotest.(check int) "no re-edge while firing" 0
    (List.length (Alert.evaluate e ~now:3.0 (values [ 7.0 ])));
  Alcotest.(check (option (float 0.0))) "first_fired time" (Some 2.0)
    (Alert.first_fired e "r");
  (* falling edge resolves; a later rise is a new edge, first stays *)
  Alcotest.(check int) "resolve" 0
    (List.length (Alert.evaluate e ~now:4.0 (values [ 1.0 ])));
  Alcotest.(check bool) "not firing after resolve" true (Alert.firing e = []);
  Alcotest.(check int) "re-fire" 1
    (List.length (Alert.evaluate e ~now:5.0 (values [ 9.0 ])));
  Alcotest.(check (option (float 0.0))) "first time sticky" (Some 2.0)
    (Alert.first_fired e "r");
  Alcotest.(check bool) "fired_ever" true (Alert.fired_ever e);
  (* no data = not firing *)
  ignore (Alert.evaluate e ~now:6.0 (fun _ -> []));
  Alcotest.(check bool) "missing family quiet" true (Alert.firing e = []);
  match Alert.views e with
  | [ v ] ->
    Alcotest.(check string) "gauge family" "csm_alerts_firing" v.Metric.name
  | _ -> Alcotest.fail "expected one synthesized family"

let http_serve_scrape () =
  let hits = ref 0 in
  let srv =
    Http.serve ~port:0 (fun path ->
        match path with
        | "/metrics" ->
          incr hits;
          Some (Http.text "csm_up 1\n")
        | "/healthz" -> Some (Http.text "ok\n")
        | _ -> None)
  in
  Fun.protect
    ~finally:(fun () -> Http.stop srv)
    (fun () ->
      let port = Http.port srv in
      (match Http.get ~port "/metrics" with
      | Some (200, body) -> Alcotest.(check string) "body" "csm_up 1\n" body
      | other ->
        Alcotest.failf "GET /metrics: %s"
          (match other with
          | Some (c, _) -> string_of_int c
          | None -> "no response"));
      (match Http.get ~port "/healthz" with
      | Some (200, body) -> Alcotest.(check string) "healthz" "ok\n" body
      | _ -> Alcotest.fail "GET /healthz failed");
      (match Http.get ~port "/nope" with
      | Some (404, _) -> ()
      | _ -> Alcotest.fail "expected 404");
      Alcotest.(check int) "handler ran once" 1 !hits);
  (* stop is idempotent and frees the port *)
  Http.stop srv

let http_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let http_status port path = Option.map fst (Http.get ~port path)

(* A scraper that hangs up before reading a large response makes the
   server's writes fail; that must cost the connection, not the process
   (an unignored SIGPIPE kills it). *)
let http_client_hangup_survives () =
  let big = String.make (4 * 1024 * 1024) 'x' in
  let srv =
    Http.serve ~port:0 (function
      | "/big" -> Some (Http.text big)
      | "/healthz" -> Some (Http.text "ok\n")
      | _ -> None)
  in
  Fun.protect
    ~finally:(fun () -> Http.stop srv)
    (fun () ->
      let port = Http.port srv in
      for _ = 1 to 3 do
        let fd = http_connect port in
        let req = "GET /big HTTP/1.1\r\nHost: x\r\n\r\n" in
        ignore (Unix.write_substring fd req 0 (String.length req));
        Unix.close fd;
        Thread.delay 0.05
      done;
      Alcotest.(check (option int)) "server still answers" (Some 200)
        (http_status port "/healthz"))

(* An idle connection holds the one-at-a-time loop for at most its
   receive timeout: a GET behind it is answered, and stop returns. *)
let http_idle_client_bounded () =
  let srv = Http.serve ~port:0 (fun _ -> Some (Http.text "ok\n")) in
  let port = Http.port srv in
  let idle = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Unix.close !idle;
      Http.stop srv)
    (fun () ->
      idle := [ http_connect port ];
      Alcotest.(check (option int)) "GET behind an idle client" (Some 200)
        (http_status port "/healthz");
      idle := http_connect port :: !idle;
      Thread.delay 0.3;
      let stopped = Atomic.make false in
      let th = Thread.create (fun () -> Http.stop srv; Atomic.set stopped true) () in
      let rec wait polls =
        Atomic.get stopped || (polls > 0 && (Thread.delay 0.1; wait (polls - 1)))
      in
      Alcotest.(check bool) "stop returns within 2 s" true (wait 20);
      Thread.join th)

let event_overwrite_counts_drops () =
  let saved = Event.current_level () in
  Event.reset ();
  Event.set_level (Some Event.Debug);
  Fun.protect
    ~finally:(fun () ->
      Event.set_level saved;
      Event.reset ())
    (fun () ->
      Alcotest.(check int) "clean" 0 (Event.dropped ());
      for i = 1 to Event.capacity + 5 do
        Event.emit Event.Info (string_of_int i)
      done;
      Alcotest.(check int) "overwrites counted" 5 (Event.dropped ());
      Alcotest.(check int) "ring holds capacity" Event.capacity
        (List.length (Event.recent ())))

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "nesting deterministic across runs" `Quick
          nesting_deterministic;
        Alcotest.test_case "exporter round-trips valid JSON" `Quick
          exporter_round_trips;
        Alcotest.test_case "disabled fast path allocates nothing" `Quick
          disabled_fast_path;
        Alcotest.test_case "op deltas match ledger" `Quick
          op_deltas_match_ledger;
        Alcotest.test_case "Json parser round-trips the emitter" `Quick
          json_parse_round_trip;
        Alcotest.test_case "histogram quantile within one bucket" `Quick
          hist_quantile_within_bucket;
        Alcotest.test_case "histogram merge schedule-independent" `Quick
          hist_merge_schedule_independent;
        Alcotest.test_case "metric disabled path allocates nothing" `Quick
          metric_disabled_fast_path;
        Alcotest.test_case "Prometheus exposition well-formed" `Quick
          prom_exposition_well_formed;
        Alcotest.test_case "Prometheus escaping edge cases" `Quick
          prom_escaping_edge_cases;
        Alcotest.test_case "HLC pack/accessors" `Quick hlc_pack_accessors;
        Alcotest.test_case "HLC now strictly monotone" `Quick hlc_now_monotone;
        Alcotest.test_case "HLC observe merges remote stamps" `Quick
          hlc_observe_merges;
        Alcotest.test_case "HLC join laws and wire codec" `Quick
          hlc_join_and_wire;
        Alcotest.test_case "monotonic clock never decreases" `Quick
          hlc_mono_clock;
        Alcotest.test_case "flight ring bounds and order" `Quick
          flight_ring_bounds;
        Alcotest.test_case "flight entry JSON total codec" `Quick
          flight_entry_json_total;
        Alcotest.test_case "flight dumps pinned" `Quick flight_dumps_pinned;
        Alcotest.test_case "telemetry bundle round trip" `Quick
          agg_bundle_round_trip;
        QCheck_alcotest.to_alcotest ~long:false qcheck_snapshot_round_trip;
        QCheck_alcotest.to_alcotest ~long:false qcheck_snapshot_decode_total;
        Alcotest.test_case "latest snapshot per pid" `Quick agg_latest_by_pid;
        Alcotest.test_case "latest snapshot scope-aware" `Quick
          agg_latest_scope;
        Alcotest.test_case "view merge sums/maxes, order-free" `Quick
          agg_merge_views;
        Alcotest.test_case "metric absorb merges like Agg" `Quick metric_absorb;
        Alcotest.test_case "cross-node flow pairing" `Quick
          agg_cross_flow_pairing;
        Alcotest.test_case "event log monotonic timestamps" `Quick
          event_stamps_ordered;
      ] );
    ( "live",
      [
        Alcotest.test_case "window rate over covered span" `Quick
          window_rate_basics;
        Alcotest.test_case "window rotation never double-counts" `Quick
          window_rotation_no_double_count;
        Alcotest.test_case "window histogram quantiles + expiry" `Quick
          window_hist_quantiles;
        Alcotest.test_case "window folds snapshots of its own layout" `Quick
          window_add_snapshot_layout;
        Alcotest.test_case "delta merge idempotent under dup/reorder" `Quick
          live_delta_merge_idempotent;
        QCheck_alcotest.to_alcotest ~long:false qcheck_newest_seq_wins;
        Alcotest.test_case "lambda window from commit ticks" `Quick
          live_lambda_window;
        Alcotest.test_case "live store output pinned" `Quick live_store_pinned;
        Alcotest.test_case "live store windows pinned" `Quick
          live_store_windowed_pinned;
        Alcotest.test_case "live store under contention" `Quick
          live_store_contended;
        Alcotest.test_case "alert spec parse fixpoint" `Quick
          alert_parse_fixpoint;
        Alcotest.test_case "alert engine edge detection" `Quick
          alert_engine_edges;
        Alcotest.test_case "http scrape endpoint serves and 404s" `Quick
          http_serve_scrape;
        Alcotest.test_case "http client hang-up costs the connection only"
          `Quick http_client_hangup_survives;
        Alcotest.test_case "http idle client cannot hold the loop" `Quick
          http_idle_client_bounded;
        Alcotest.test_case "event ring overwrite counts drops" `Quick
          event_overwrite_counts_drops;
      ] );
  ]
