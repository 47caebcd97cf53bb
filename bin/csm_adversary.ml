(* Adversary synthesis CLI:

     csm_adversary [--bound B] [--budget N] [--schedule S] [--seed N]
                   [--out FILE] [--witness-dir DIR]
     csm_adversary --replay FILE

   Without --replay: search Byzantine strategies against the Table-2
   oracles, certify tightness (no violation at the defender bound, a
   shrunk replayable witness one past it) and print the
   csm-bench-adversary-style report JSON.  Exit 0 iff every certified
   bound passed both sides.

   With --replay: load a csm-adversary-trace/1 file, check that its
   canonical re-serialization reproduces the file byte for byte, re-run
   the embedded strategy through the oracle and require the identical
   violation.  Exit 0 on an exact replay, 1 on divergence.

   Exit codes: 0 ok, 1 certification/replay failure, 2 usage/IO. *)

open Cmdliner
module Json = Csm_obs.Json
module Adv = Csm_adversary

let fail_usage fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let bound_conv =
  let parse s =
    if String.equal s "all" then Ok None
    else
      match Adv.Oracle.bound_of_name s with
      | Ok b -> Ok (Some b)
      | Error e -> Error (`Msg e)
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "all"
    | Some b -> Format.pp_print_string ppf (Adv.Oracle.bound_name b)
  in
  Arg.conv (parse, print)

let schedule_conv =
  let parse s =
    match Adv.Search.schedule_of_name s with
    | Ok sc -> Ok sc
    | Error e -> Error (`Msg e)
  in
  let print ppf s = Format.pp_print_string ppf (Adv.Search.schedule_name s) in
  Arg.conv (parse, print)

let fixture_stem = function
  | Adv.Oracle.Decode_sync -> "decode"
  | Adv.Oracle.Decode_partial -> "decode_partial"
  | Adv.Oracle.Output_delivery -> "output"
  | Adv.Oracle.Input_totality -> "totality"

let replay_file path =
  match Adv.Trace.load ~path with
  | Error e -> fail_usage "csm_adversary: %s" e
  | Ok t -> (
    let original = In_channel.with_open_bin path In_channel.input_all in
    let canonical = Adv.Trace.to_string t in
    if not (String.equal canonical original) then begin
      Printf.printf
        "FAIL  %s: not canonical bytes (re-serialization differs)\n" path;
      1
    end
    else
      match Adv.Trace.replay t with
      | Ok () ->
        Printf.printf
          "ok    %s: %s violated %s (%s) — replayed byte-for-byte\n" path
          (Adv.Strategy.name t.Adv.Trace.strategy)
          (Adv.Oracle.bound_name t.Adv.Trace.bound)
          (Adv.Oracle.violation_kind_name t.Adv.Trace.kind);
        0
      | Error e ->
        Printf.printf "FAIL  %s: %s\n" path e;
        1)

let certify bound budget schedule seed out witness_dir =
  let bounds =
    match bound with
    | None -> Adv.Oracle.certified_bounds
    | Some b -> [ b ]
  in
  let report = Adv.Certify.all ~bounds ~schedule ~budget ~seed () in
  let doc = Adv.Certify.report_to_json report in
  (match out with
  | None -> print_endline (Json.to_string doc)
  | Some path ->
    Json.write ~path doc;
    Printf.printf "csm_adversary: report written to %s\n" path);
  (match witness_dir with
  | None -> ()
  | Some dir ->
    List.iter
      (fun (r : Adv.Certify.bound_report) ->
        match r.Adv.Certify.witness with
        | None -> ()
        | Some t ->
          let path =
            Filename.concat dir
              (Printf.sprintf "adversary_%s.json" (fixture_stem r.Adv.Certify.bound))
          in
          Adv.Trace.write ~path t;
          Printf.printf "csm_adversary: witness written to %s\n" path)
      report.Adv.Certify.bounds);
  List.iter
    (fun (r : Adv.Certify.bound_report) ->
      Printf.printf
        "%s  %-16s %-22s at-bound: safe=%b (%d candidates%s)  above: \
         witness=%b replay=%b (%d candidates)\n"
        (if
           r.Adv.Certify.safety_holds_at_bound
           && r.Adv.Certify.witness_found_above_bound
           && r.Adv.Certify.replay_ok
         then "ok  "
         else "FAIL")
        (Adv.Oracle.bound_name r.Adv.Certify.bound)
        (Adv.Oracle.bound_inequality r.Adv.Certify.bound)
        r.Adv.Certify.safety_holds_at_bound r.Adv.Certify.at_candidates
        (if r.Adv.Certify.at_exhausted then ", exhausted" else "")
        r.Adv.Certify.witness_found_above_bound r.Adv.Certify.replay_ok
        r.Adv.Certify.above_candidates)
    report.Adv.Certify.bounds;
  if
    report.Adv.Certify.safety_holds_at_bound
    && report.Adv.Certify.witness_found_above_bound
    && report.Adv.Certify.replay_ok
  then 0
  else 1

let run bound budget schedule seed replay out witness_dir =
  match replay with
  | Some path -> replay_file path
  | None -> certify bound budget schedule seed out witness_dir

let () =
  let bound =
    Arg.(
      value
      & opt bound_conv None
      & info [ "bound" ] ~docv:"BOUND"
          ~doc:
            "Bound to certify: decode-sync, decode-partial, \
             output-delivery, input-totality or all (the four certified \
             Table-2 families).")
  in
  let budget =
    Arg.(
      value
      & opt int 1000
      & info [ "budget" ] ~docv:"N" ~doc:"Oracle evaluations per search.")
  in
  let schedule =
    Arg.(
      value
      & opt schedule_conv Adv.Search.Exhaustive
      & info [ "schedule" ] ~docv:"S"
          ~doc:"Exploration schedule: exhaustive, random or greedy.")
  in
  let seed =
    Arg.(
      value & opt int 0xAD5E
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for instances and the random/greedy schedules.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a csm-adversary-trace/1 file instead of searching.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the certification report JSON here (default stdout).")
  in
  let witness_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness-dir" ] ~docv:"DIR"
          ~doc:"Write each bound's shrunk counterexample trace into DIR.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "csm_adversary"
         ~doc:
           "Search Byzantine strategies and certify the Table-2 bounds are \
            tight")
      Term.(
        const run $ bound $ budget $ schedule $ seed $ replay $ out
        $ witness_dir)
  in
  exit (Cmd.eval' cmd)
