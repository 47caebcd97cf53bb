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

(* The per-file rules, in-source suppressions applied: [rules] runs
   them over the parsed source, or gives the (line, column) where it
   stops parsing.  [path] decides which rules and scopes apply and must
   be repo-relative ("lib/core/wire.ml"). *)
let per_file ?registry ?live ~path ~suppress rules : Finding.t list =
  let findings =
    match rules (Rules.make_ctx ?registry ?live ~path ()) with
    | Ok findings -> findings
    | Error (line, col) ->
      [
        Finding.make ~rule:"parse" ~severity:Finding.Error ~file:path ~line
          ~col "source does not parse";
      ]
  in
  List.filter
    (fun (f : Finding.t) ->
      not (Suppress.active suppress ~rule:f.Finding.rule ~line:f.Finding.line))
    findings
  (* nested-binding scans can report one site twice; keep one *)
  |> List.sort_uniq Finding.order

let lint_unit ?registry ?live (u : Program.unit_) =
  per_file ?registry ?live ~path:u.Program.path ~suppress:u.Program.suppress
    (fun ctx -> Result.map (Rules.run ctx) u.Program.structure)

let lint_interface ?registry ?live ~path src =
  per_file ?registry ?live ~path ~suppress:(Suppress.scan src) (fun ctx ->
      Result.map (Rules.run_signature ctx)
        (Program.parse Parse.interface ~path src))

(* Findings for one source string. *)
let lint_string ?registry ?live ~path src =
  if Filename.check_suffix path ".mli" then
    lint_interface ?registry ?live ~path src
  else lint_unit ?registry ?live (Program.of_string ~path src)

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

(* Taint (R6–R8) and nested-lock (R9) findings over a set of parsed
   units, suppressions applied. *)
let whole_program ?registry units =
  let findings = Taint.analyze ?registry units @ Lockgraph.analyze units in
  List.sort_uniq Finding.order (apply_suppressions units findings)

(* Test-facing multi-unit entry point: whole-program rules only, over
   inline fixture sources. *)
let lint_strings ?registry (sources : (string * string) list) :
    Finding.t list =
  whole_program ?registry
    (List.map (fun (path, src) -> Program.of_string ~path src) sources)

type result = {
  files_scanned : int;
  fresh : Finding.t list;  (* not baselined, not suppressed *)
  baselined : Finding.t list;
  pairs : (Finding.t * string) list;  (* every finding with its line text *)
}

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
  let units =
    List.filter_map
      (fun (rel, src) ->
        if Filename.check_suffix rel ".ml" then
          Some (Program.of_string ~path:rel src)
        else None)
      sources
  in
  let by_path = Hashtbl.create 64 in
  List.iter
    (fun (u : Program.unit_) -> Hashtbl.replace by_path u.Program.path u)
    units;
  let with_text lines findings =
    List.map (fun (f : Finding.t) -> (f, text_at lines f.Finding.line)) findings
  in
  let per_file =
    List.concat_map
      (fun (rel, src) ->
        match Hashtbl.find_opt by_path rel with
        | Some u -> with_text u.Program.lines (lint_unit ~registry ~live u)
        | None ->
          with_text (line_texts src)
            (lint_interface ~registry ~live ~path:rel src))
      sources
  in
  let stale =
    with_text (line_texts registry_src) (stale_entries entries ~live)
  in
  let whole =
    if not taint then []
    else
      List.map
        (fun (f : Finding.t) ->
          match Hashtbl.find_opt by_path f.Finding.file with
          | Some u -> (f, text_at u.Program.lines f.Finding.line)
          | None -> (f, ""))
        (whole_program ~registry units)
  in
  let pairs = per_file @ stale @ whole in
  let baseline = Baseline.load baseline_path in
  let fresh, baselined = Baseline.apply baseline pairs in
  {
    files_scanned = List.length files;
    fresh = List.sort Finding.order fresh;
    baselined = List.sort Finding.order baselined;
    pairs;
  }
