(* File discovery, parsing, and the lint pipeline:

     parse -> rules -> in-source suppressions -> baseline

   [lint_string] is the test-facing entry point (fixtures are inline
   strings); [lint_tree] walks lib/ bin/ bench/ test/ under a root and
   is what bin/csm_lint runs. *)

let scan_dirs = [ "lib"; "bin"; "bench"; "test" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let line_texts src = Array.of_list (String.split_on_char '\n' src)

let text_at lines n =
  if n >= 1 && n <= Array.length lines then String.trim lines.(n - 1) else ""

(* Findings for one source string, with in-source suppressions already
   applied.  [path] decides which rules and scopes apply and must be
   repo-relative ("lib/core/wire.ml"). *)
let lint_string ?registry ?live ~path src : Finding.t list =
  let ctx = Rules.make_ctx ?registry ?live ~path () in
  let lb = Lexing.from_string src in
  Lexing.set_filename lb path;
  let findings =
    try
      if Filename.check_suffix path ".mli" then
        Rules.run_signature ctx (Parse.interface lb)
      else Rules.run ctx (Parse.implementation lb)
    with exn ->
      let line, col =
        match exn with
        | Syntaxerr.Error err ->
          let p = (Syntaxerr.location_of_error err).Location.loc_start in
          (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
        | _ -> (1, 0)
      in
      [
        Finding.make ~rule:"parse" ~severity:Finding.Error ~file:path ~line
          ~col "source does not parse";
      ]
  in
  let sup = Suppress.scan src in
  let findings =
    List.filter
      (fun (f : Finding.t) ->
        not (Suppress.active sup ~rule:f.Finding.rule ~line:f.Finding.line))
      findings
  in
  (* nested-binding scans can report one site twice; keep one *)
  List.sort_uniq Finding.order findings

(* The R4 registry: one "<file>:<name>" token per line, '#' comments,
   free-text reason after the token.  Entries come back as (line number,
   token). *)
let registry_file = "lint/shared_state.allow"

let registry_entries src =
  List.concat
    (List.mapi
       (fun i line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then []
         else
           match String.index_opt line ' ' with
           | Some j -> [ (i + 1, String.sub line 0 j) ]
           | None -> [ (i + 1, line) ])
       (String.split_on_char '\n' src))

let registry_table entries =
  let t = Hashtbl.create 32 in
  List.iter (fun (_, tok) -> Hashtbl.replace t tok ()) entries;
  t

(* R4's converse: an entry naming no module-level mutable binding the
   R4 pass saw ([live]) is stale. *)
let stale_entries entries ~live =
  List.filter_map
    (fun (line, tok) ->
      if Hashtbl.mem live tok then None
      else
        Some
          (Finding.make ~rule:"R4" ~severity:Finding.Warning
             ~file:registry_file ~line ~col:0
             (Printf.sprintf
                "registry entry '%s' names no module-level mutable binding; \
                 delete it"
                tok)))
    entries

let is_source f =
  Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let skip_dir name =
  name = "" || name.[0] = '.' || name.[0] = '_' (* _build and friends *)

(* All source files under root's scan dirs, as repo-relative paths in
   deterministic order. *)
let source_files ~root =
  let out = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    let entries = Sys.readdir abs in
    Array.sort String.compare entries;
    Array.iter
      (fun name ->
        let rel' = rel ^ "/" ^ name in
        let abs' = Filename.concat root rel' in
        if Sys.is_directory abs' then begin
          if not (skip_dir name) then walk rel'
        end
        else if is_source name then out := rel' :: !out)
      entries
  in
  List.iter
    (fun d -> if Sys.file_exists (Filename.concat root d) then walk d)
    scan_dirs;
  List.rev !out

(* ----- whole-program passes (R6–R9) ----- *)

(* Apply each unit's in-source suppression markers to whole-program
   findings, exactly as [lint_string] does for the per-file rules. *)
let apply_suppressions units findings =
  let by_path = Hashtbl.create 16 in
  List.iter
    (fun (u : Program.unit_) -> Hashtbl.replace by_path u.Program.path u)
    units;
  List.filter
    (fun (f : Finding.t) ->
      match Hashtbl.find_opt by_path f.Finding.file with
      | Some u ->
        not
          (Suppress.active u.Program.suppress ~rule:f.Finding.rule
             ~line:f.Finding.line)
      | None -> true)
    findings

(* Taint (R6–R8) and lock-order (R9) findings over a set of parsed
   units, suppressions applied.  Also returns the static lock edges
   for [--graph-out] / lockdep-export comparison. *)
let whole_program ?registry ?(expected = []) units =
  let taint = Taint.analyze ?registry units in
  let lg = Lockgraph.analyze ~expected units in
  let findings = apply_suppressions units (taint @ lg.Lockgraph.findings) in
  (List.sort_uniq Finding.order findings, lg.Lockgraph.edges)

(* Test-facing multi-unit entry point: whole-program rules only, over
   inline fixture sources. *)
let lint_strings ?registry ?expected (sources : (string * string) list) :
    Finding.t list =
  let units =
    List.map (fun (path, src) -> Program.of_string ~path src) sources
  in
  fst (whole_program ?registry ?expected units)

type result = {
  files_scanned : int;
  fresh : Finding.t list;  (* not baselined, not suppressed *)
  baselined : Finding.t list;
  pairs : (Finding.t * string) list;  (* every finding with its line text *)
  (* static acquisition graph, with the site that created each edge *)
  lock_edges : (string * string * Location.t) list;
}

let load_expected path =
  if Sys.file_exists path then Lockgraph.parse_expected (read_file path)
  else []

let lint_tree ?(taint = false) ~root ~baseline_path () =
  let registry_src =
    let path = Filename.concat root registry_file in
    if Sys.file_exists path then read_file path else ""
  in
  let entries = registry_entries registry_src in
  let registry = registry_table entries in
  let live = Hashtbl.create 64 in
  let files = source_files ~root in
  let sources =
    List.map (fun rel -> (rel, read_file (Filename.concat root rel))) files
  in
  let with_text src findings =
    let lines = line_texts src in
    List.map (fun (f : Finding.t) -> (f, text_at lines f.Finding.line)) findings
  in
  let pairs =
    List.concat_map
      (fun (rel, src) ->
        with_text src (lint_string ~registry ~live ~path:rel src))
      sources
  in
  let pairs = pairs @ with_text registry_src (stale_entries entries ~live) in
  let wp_pairs, lock_edges =
    if not taint then ([], [])
    else begin
      let units =
        List.filter_map
          (fun (rel, src) ->
            if Filename.check_suffix rel ".ml" then
              Some (Program.of_string ~path:rel src)
            else None)
          sources
      in
      let expected =
        load_expected (Filename.concat root "lint/lock_order.expected")
      in
      let findings, edges = whole_program ~registry ~expected units in
      let by_path = Hashtbl.create 64 in
      List.iter
        (fun (u : Program.unit_) -> Hashtbl.replace by_path u.Program.path u)
        units;
      ( List.map
          (fun (f : Finding.t) ->
            let text =
              match Hashtbl.find_opt by_path f.Finding.file with
              | Some u -> Program.line_text u f.Finding.line
              | None -> ""
            in
            (f, text))
          findings,
        edges )
    end
  in
  let pairs = pairs @ wp_pairs in
  let baseline = Baseline.load baseline_path in
  let fresh, baselined = Baseline.apply baseline pairs in
  {
    files_scanned = List.length files;
    fresh = List.sort Finding.order fresh;
    baselined = List.sort Finding.order baselined;
    pairs;
    lock_edges;
  }
