(* csm-lint: the repo-invariant static analyzer (rules R1–R5 per file,
   R6–R9 whole-program with --taint; see lib/analysis and DESIGN.md
   §5.9/§5.14).

   Exit codes: 0 clean, 1 findings (or baseline entries missing
   reasons under --update-baseline), 2 usage/IO errors (cmdliner).

     csm_lint --root . --baseline lint/baseline.json
     csm_lint --root . --taint --update-baseline
     csm_lint --format sarif
     csm_lint --taint --bench-out BENCH_lint.json *)

module Json = Csm_obs.Json
module Finding = Csm_analysis.Finding
module Baseline = Csm_analysis.Baseline
module Driver = Csm_analysis.Driver
module Sarif = Csm_analysis.Sarif

let json_of_finding (f : Finding.t) =
  Json.Obj
    [
      ("rule", Json.Str f.Finding.rule);
      ("severity", Json.Str (Finding.severity_name f.Finding.severity));
      ("file", Json.Str f.Finding.file);
      ("line", Json.Int f.Finding.line);
      ("col", Json.Int f.Finding.col);
      ("message", Json.Str f.Finding.message);
    ]

(* Update the baseline from the current findings, carrying reasons over
   for surviving entries.  New entries get a TODO reason and make the
   run fail, so a refreshed baseline cannot land without a human
   writing down why each new entry is acceptable. *)
let update_baseline baseline_path (r : Driver.result) =
  let old = Baseline.load baseline_path in
  let entries = Baseline.of_findings ~old r.Driver.pairs in
  Baseline.save baseline_path entries;
  let todo =
    List.filter (fun e -> e.Baseline.reason = "TODO: justify or fix") entries
  in
  Printf.printf "csm-lint: wrote %s (%d entr%s, %d carried reasons)\n"
    baseline_path (List.length entries)
    (if List.length entries = 1 then "y" else "ies")
    (List.length entries - List.length todo);
  if todo = [] then 0
  else begin
    Printf.printf
      "csm-lint: %d new entr%s need a written reason before this baseline \
       is acceptable:\n"
      (List.length todo)
      (if List.length todo = 1 then "y" else "ies");
    List.iter
      (fun e ->
        Printf.printf "  [%s] %s: %s\n" e.Baseline.rule e.Baseline.file
          e.Baseline.text)
      todo;
    1
  end

let run root baseline_path update format taint bench_out =
  let abs p = if Filename.is_relative p then Filename.concat root p else p in
  let baseline_path = abs baseline_path in
  (* csm-lint: allow R1 — wall-clock of the lint pass itself, for the bench gate *)
  let t0 = Unix.gettimeofday () in
  let r = Driver.lint_tree ~taint ~root ~baseline_path () in
  (* csm-lint: allow R1 — wall-clock of the lint pass itself, for the bench gate *)
  let wall_s = Unix.gettimeofday () -. t0 in
  (match bench_out with
  | Some path ->
    Json.write ~path:(abs path)
      (Json.Obj
         [
           ("schema", Json.Str "csm-bench-lint/1");
           ("files_scanned", Json.Int r.Driver.files_scanned);
           ("taint", Json.Bool taint);
           ("findings", Json.Int (List.length r.Driver.fresh));
           ("baselined", Json.Int (List.length r.Driver.baselined));
           ("wall_s", Json.Float wall_s);
         ])
  | None -> ());
  if update then update_baseline baseline_path r
  else begin
    (match format with
    | `Text ->
      List.iter (fun f -> print_endline (Finding.to_line f)) r.Driver.fresh;
      Printf.printf
        "csm-lint: %d file(s) scanned, %d finding(s), %d baselined\n"
        r.Driver.files_scanned
        (List.length r.Driver.fresh)
        (List.length r.Driver.baselined)
    | `Json ->
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("files_scanned", Json.Int r.Driver.files_scanned);
                ( "findings",
                  Json.List (List.map json_of_finding r.Driver.fresh) );
                ("baselined", Json.Int (List.length r.Driver.baselined));
              ]))
    | `Sarif -> print_endline (Json.to_string (Sarif.render r.Driver.fresh)));
    if r.Driver.fresh = [] then 0 else 1
  end

open Cmdliner

let root =
  Arg.(
    value & opt string "."
    & info [ "root" ] ~docv:"DIR" ~doc:"Repository root to scan.")

let baseline =
  Arg.(
    value
    & opt string "lint/baseline.json"
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:"Baseline of accepted findings (relative to --root).")

let update =
  Arg.(
    value & flag
    & info [ "update-baseline" ]
        ~doc:
          "Rewrite the baseline from the current findings, preserving \
           reasons for surviving entries; exits 1 if any new entry still \
           needs a reason.")

let format =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text, json or sarif.")

let taint =
  Arg.(
    value & flag
    & info [ "taint" ]
        ~doc:
          "Run the whole-program passes too: interprocedural Byzantine-taint \
           tracking (R6-R8) and nested lock acquisition (R9).")

let bench_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench-out" ] ~docv:"FILE"
        ~doc:"Write a csm-bench-lint/1 report (wall-clock, counts) for the \
              bench gate.")

let cmd =
  let doc = "static analyzer for the CSM repo invariants (R1-R9)" in
  Cmd.v
    (Cmd.info "csm_lint" ~doc)
    Term.(
      const run $ root $ baseline $ update $ format $ taint $ bench_out)

let () = exit (Cmd.eval' cmd)
