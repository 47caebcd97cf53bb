(* Bench regression gate:

     bench_gate --current REPORT.json --baseline bench/X_baseline.json

   One interpreter for every smoke report.  A baseline (schema
   csm-bench-baseline/2) names the report schema it gates ("report"),
   the make target that regenerates that report ("make"), why its
   numbers are what they are ("comment"), and a list of checks.  Each
   check names a report field by dotted path, where "*" stands for every
   element of a list, and carries exactly one rule:

     {"field": F, "equals": V}          boolean, integer or string
     {"field": F, "min": V}             floor
     {"field": F, "max": V}             ceiling
     {"field": F, "near": V, "pct": P}  within P percent of V
     {"field": F, "length": N}          a list of exactly N elements

   The bound's JSON type fixes the field's: an integer bound reads an
   integer field (a float there is a mistyped field), a float bound any
   number.  Absolute wall-clock timings are deliberately not gated by
   the committed baselines: they measure the CI host, not the code
   (ratios and agreement percentages are host-independent to first
   order).

   Exit codes: 0 ok; 1 a check failed (each failure is named in the
   summary line); 2 usage/IO/parse error, a malformed baseline, a
   report schema other than the baseline's, or a missing or mistyped
   field. *)

open Cmdliner
module Json = Csm_obs.Json

let fail_usage fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let load ?(hint = "") path =
  try Json.parse_file path with
  | Sys_error m -> fail_usage "bench_gate: %s%s" m hint
  | Json.Parse_error m -> fail_usage "bench_gate: %s: %s%s" path m hint

let str key j = Option.bind (Json.member key j) Json.to_string_opt

type rule =
  | Equals of Json.t
  | Min of Json.t
  | Max of Json.t
  | Near of Json.t * float
  | Length of int

let rule_of check =
  let keys =
    match check with
    | Json.Obj fields ->
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (List.filter (fun (k, _) -> k <> "field") fields)
    | _ -> []
  in
  match keys with
  | [ ("equals", ((Json.Bool _ | Json.Int _ | Json.Str _) as v)) ] -> Equals v
  | [ ("min", ((Json.Int _ | Json.Float _) as v)) ] -> Min v
  | [ ("max", ((Json.Int _ | Json.Float _) as v)) ] -> Max v
  | [ ("near", ((Json.Int _ | Json.Float _) as v)); ("pct", p) ]
    when Option.is_some (Json.to_float_opt p) ->
    Near (v, Option.value ~default:0.0 (Json.to_float_opt p))
  | [ ("length", Json.Int n) ] -> Length n
  | _ -> fail_usage "bench_gate: bad check %s" (Json.to_string check)

(* Every (name, value) that a dotted path reaches; "*" fans out over a
   list, naming each element by its index. *)
let rec resolve name j = function
  | [] -> [ (name, j) ]
  | "*" :: rest -> (
    match j with
    | Json.List items ->
      List.concat
        (List.mapi (fun i x -> resolve (Printf.sprintf "%s[%d]" name i) x rest)
           items)
    | _ -> fail_usage "bench_gate: field %s is not a list" name)
  | key :: rest -> (
    let name = if name = "" then key else name ^ "." ^ key in
    match Json.member key j with
    | Some v -> resolve name v rest
    | None -> fail_usage "bench_gate: missing field %s" name)

(* The report value read as the bound's type, or exit 2. *)
let typed name bound v =
  let got =
    match bound with
    | Json.Int _ -> Option.map (fun i -> Json.Int i) (Json.to_int_opt v)
    | Json.Float _ -> Option.map (fun f -> Json.Float f) (Json.to_float_opt v)
    | Json.Bool _ -> Option.map (fun b -> Json.Bool b) (Json.to_bool_opt v)
    | _ -> Option.map (fun s -> Json.Str s) (Json.to_string_opt v)
  in
  match got with
  | Some x -> x
  | None ->
    fail_usage "bench_gate: field %s is %s, need the type of %s" name
      (Json.to_string v) (Json.to_string bound)

let num j = Option.value ~default:Float.nan (Json.to_float_opt j)

let compare_values a b =
  match (a, b) with
  | Json.Int x, Json.Int y -> Int.compare x y
  | Json.Bool x, Json.Bool y -> Bool.compare x y
  | Json.Str x, Json.Str y -> String.compare x y
  | _ -> Float.compare (num a) (num b)

(* (passed, detail) of one rule on one field value. *)
let evaluate name rule v =
  let show = Json.to_string in
  let versus label b pass =
    let x = typed name b v in
    ( pass (compare_values x b),
      Printf.sprintf "current=%s %s=%s" (show x) label (show b) )
  in
  match rule with
  | Equals b -> versus "want" b (fun c -> c = 0)
  | Min b -> versus "min" b (fun c -> c >= 0)
  | Max b -> versus "max" b (fun c -> c <= 0)
  | Near (b, pct) ->
    let x = typed name b v in
    let drift = 100.0 *. Float.abs (num x -. num b) /. num b in
    ( drift <= pct,
      Printf.sprintf "current=%s baseline=%s drift=%.2f%% (tolerance %.2f%%)"
        (show x) (show b) drift pct )
  | Length n -> (
    match v with
    | Json.List items ->
      let len = List.length items in
      (len = n, Printf.sprintf "current=%d want=%d elements" len n)
    | _ -> fail_usage "bench_gate: field %s is not a list" name)

let run current baseline =
  let base = load baseline in
  if str "schema" base <> Some "csm-bench-baseline/2" then
    fail_usage "bench_gate: %s: need schema csm-bench-baseline/2" baseline;
  let report, checks =
    match (str "report" base, Json.member "checks" base) with
    | Some r, Some (Json.List cs) -> (r, cs)
    | _ -> fail_usage "bench_gate: %s: need \"report\" and \"checks\"" baseline
  in
  let hint =
    match str "make" base with
    | Some target -> Printf.sprintf " (regenerate it with `make %s`)" target
    | None -> ""
  in
  let cur = load ~hint current in
  (match str "schema" cur with
  | Some s when String.equal s report -> ()
  | s ->
    fail_usage "bench_gate: %s has schema %s; %s gates %s" current
      (Option.value ~default:"(none)" s)
      baseline report);
  let failures = ref [] in
  List.iter
    (fun check ->
      let field =
        match str "field" check with
        | Some f -> f
        | None -> fail_usage "bench_gate: bad check %s" (Json.to_string check)
      in
      let rule = rule_of check in
      List.iter
        (fun (name, v) ->
          let ok, detail = evaluate name rule v in
          Printf.printf "%s %-32s %s\n" (if ok then "ok   " else "FAIL ") name
            detail;
          if not ok then failures := name :: !failures)
        (resolve "" cur (String.split_on_char '.' field)))
    checks;
  if !failures = [] then begin
    print_endline "bench_gate: all checks passed";
    0
  end
  else begin
    Printf.printf "bench_gate: REGRESSION: %s\n"
      (String.concat ", " (List.rev !failures));
    1
  end

let () =
  let file name doc =
    Arg.(required & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench_gate"
         ~doc:"Gate CI on a smoke report against a committed baseline")
      Term.(
        const run
        $ file "current" "Smoke-bench report to gate."
        $ file "baseline" "Committed baseline (bench/*baseline.json).")
  in
  exit (Cmd.eval' cmd)
