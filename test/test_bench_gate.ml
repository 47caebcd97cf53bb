(* bin/bench_gate against every committed bench/*baseline.json, on
   reports built from each baseline's own checks: a report placed at
   every check's bound passes, and moving any one field just past its
   bound fails with exit 1 and names exactly that check.  A missing
   field, an integer field given as a float and a foreign report schema
   exit 2.

   The committed root BENCH_*.json files are deliberately not read: they
   are promote-rule targets, and depending on them would make
   `dune runtest` rerun the smoke benches. *)

module Json = Csm_obs.Json

let here = Filename.dirname Sys.executable_name
let gate_exe = Filename.concat (Filename.concat here "../bin") "bench_gate.exe"
let bench_dir = Filename.concat here "../bench"

let baselines () =
  List.sort String.compare
    (List.filter
       (fun f -> Filename.check_suffix f "baseline.json")
       (Array.to_list (Sys.readdir bench_dir)))

(* Exit code and last stdout line of one gate run. *)
let run_gate report baseline =
  let cur = Filename.temp_file "bench_gate_cur" ".json" in
  let out = Filename.temp_file "bench_gate_out" ".txt" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ cur; out ])
    (fun () ->
      Json.write ~path:cur report;
      let code =
        Sys.command
          (Printf.sprintf "%s --current %s --baseline %s > %s 2>/dev/null"
             (Filename.quote gate_exe) (Filename.quote cur)
             (Filename.quote (Filename.concat bench_dir baseline))
             (Filename.quote out))
      in
      let lines =
        String.split_on_char '\n'
          (In_channel.with_open_bin out In_channel.input_all)
      in
      (code, List.fold_left (fun l x -> if x = "" then l else x) "" lines))

let rec get j = function
  | [] -> j
  | key :: rest ->
    get (Option.value ~default:Json.Null (Json.member key j)) rest

(* Set a dotted [path] in [j]: "*" is every list element, a number one
   element, anything else an object key (created when missing); [None]
   deletes the key. *)
let rec set j path v =
  match (path, j, v) with
  | [], _, Some v -> v
  | [], _, None -> j
  | "*" :: rest, Json.List xs, _ ->
    Json.List (List.map (fun x -> set x rest v) xs)
  | i :: rest, Json.List xs, _ when Option.is_some (int_of_string_opt i) ->
    let i = int_of_string i in
    Json.List (List.mapi (fun n x -> if n = i then set x rest v else x) xs)
  | [ key ], _, None -> (
    match j with Json.Obj fs -> Json.Obj (List.remove_assoc key fs) | _ -> j)
  | key :: rest, _, _ ->
    let fields = match j with Json.Obj fs -> fs | _ -> [] in
    let old = Option.value ~default:(Json.Obj []) (List.assoc_opt key fields) in
    Json.Obj (List.remove_assoc key fields @ [ (key, set old rest v) ])

let step up = function
  | Json.Int i -> Json.Int (if up then i + 1 else i - 1)
  | Json.Float f -> Json.Float (if up then Float.succ f else Float.pred f)
  | v -> v

(* A check's field path, its value at the bound, and just past it (a
   list past its length repeats its first element). *)
let bound_of report check =
  let m key = Json.member key check in
  let path =
    match Option.bind (m "field") Json.to_string_opt with
    | Some f -> String.split_on_char '.' f
    | None -> Alcotest.failf "check without field: %s" (Json.to_string check)
  in
  let at, past =
    match (m "equals", m "min", m "max", m "near", m "length") with
    | Some (Json.Bool b), _, _, _, _ -> (Json.Bool b, Json.Bool (not b))
    | Some (Json.Str s), _, _, _, _ -> (Json.Str s, Json.Str (s ^ "x"))
    | Some v, _, _, _, _ | _, _, Some v, _, _ -> (v, step true v)
    | _, Some v, _, _, _ -> (v, step false v)
    | _, _, _, Some (Json.Int v), _ ->
      let pct =
        Option.value ~default:0.0 (Option.bind (m "pct") Json.to_float_opt)
      in
      let edge = v + int_of_float (Float.of_int (abs v) *. pct /. 100.0) in
      (Json.Int edge, Json.Int (edge + 1))
    | _, _, _, _, Some (Json.Int n) ->
      let xs = match get report path with Json.List xs -> xs | _ -> [] in
      ( Json.List (List.init n (fun _ -> Json.Obj [])),
        Json.List (match xs with x :: _ -> x :: xs | [] -> [ Json.Obj [] ]) )
    | _ -> Alcotest.failf "unsupported check %s" (Json.to_string check)
  in
  (path, at, past)

(* The gate's name for a path's first element, and the path to it. *)
let first_name path =
  String.concat ""
    (List.mapi
       (fun i s -> if s = "*" then "[0]" else if i = 0 then s else "." ^ s)
       path)

let first_path = List.map (fun s -> if s = "*" then "0" else s)

let gate_baseline baseline () =
  let base = Json.parse_file (Filename.concat bench_dir baseline) in
  let str key = Option.bind (Json.member key base) Json.to_string_opt in
  Alcotest.(check (option string))
    "baseline schema" (Some "csm-bench-baseline/2") (str "schema");
  let report = Option.value ~default:"" (str "report") in
  let checks =
    match Json.member "checks" base with
    | Some (Json.List (_ :: _ as cs)) -> cs
    | _ -> Alcotest.fail "baseline has no checks"
  in
  (* in check order, so a length check builds its list before the "*"
     checks fill it in *)
  let at_bound =
    List.fold_left
      (fun doc c ->
        let path, at, _ = bound_of doc c in
        set doc path (Some at))
      (Json.Obj [ ("schema", Json.Str report) ])
      checks
  in
  let gate doc = run_gate doc baseline in
  Alcotest.(check (pair int string))
    "report at every bound passes" (0, "bench_gate: all checks passed")
    (gate at_bound);
  List.iter
    (fun c ->
      let path, at, past = bound_of at_bound c in
      let name = first_name path and target = first_path path in
      Alcotest.(check (pair int string))
        (name ^ " past its bound")
        (1, "bench_gate: REGRESSION: " ^ name)
        (gate (set at_bound target (Some past)));
      (match at with
      | Json.Int i ->
        let float = Json.Float (Float.of_int i +. 0.5) in
        Alcotest.(check int) (name ^ " as a float exits 2") 2
          (fst (gate (set at_bound target (Some float))))
      | _ -> ());
      Alcotest.(check int) (name ^ " missing exits 2") 2
        (fst (gate (set at_bound target None))))
    checks;
  Alcotest.(check int) "foreign report schema exits 2" 2
    (fst (gate (set at_bound [ "schema" ] (Some (Json.Str (report ^ "x"))))))

let suites =
  [
    ( "bench-gate",
      Alcotest.test_case "baselines found" `Quick (fun () ->
          Alcotest.(check bool) "bench/*baseline.json" true (baselines () <> []))
      :: List.map
           (fun b -> Alcotest.test_case b `Quick (gate_baseline b))
           (baselines ()) );
  ]
