(* Prometheus text-format exposition (version 0.0.4) of the [Metric]
   registry.

   One HELP/TYPE header per family, then one sample line per instrument
   — histograms expand to cumulative [_bucket{le=...}] series plus
   [_sum] and [_count], exactly the layout scrapers and promtool
   expect.  Label values are escaped per the spec (backslash, quote,
   newline); numbers use the shortest round-trip decimal form shared
   with [Json]. *)

let escape_label_value s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* {k1="v1",k2="v2"} — empty string when no labels *)
let label_block (labels : Metric.labels) =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           labels)
    ^ "}"

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Json.float_repr f

let kind_name = function
  | Metric.K_counter -> "counter"
  | Metric.K_gauge -> "gauge"
  | Metric.K_histogram -> "histogram"

(* escape for HELP text: backslash and newline only (spec) *)
let escape_help s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_family buf (v : Metric.view) =
  if v.Metric.help <> "" then
    Printf.bprintf buf "# HELP %s %s\n" v.Metric.name
      (escape_help v.Metric.help);
  Printf.bprintf buf "# TYPE %s %s\n" v.Metric.name (kind_name v.Metric.kind);
  List.iter
    (fun (s : Metric.sample) ->
      match s.Metric.value with
      | Metric.V_counter c ->
        Printf.bprintf buf "%s%s %d\n" v.Metric.name
          (label_block s.Metric.labels)
          c
      | Metric.V_gauge g ->
        Printf.bprintf buf "%s%s %s\n" v.Metric.name
          (label_block s.Metric.labels)
          (float_str g)
      | Metric.V_histogram h ->
        let n = Array.length h.Metric.s_bounds in
        let cumulative = ref 0 in
        for i = 0 to n - 1 do
          cumulative := !cumulative + h.Metric.s_counts.(i);
          Printf.bprintf buf "%s_bucket%s %d\n" v.Metric.name
            (label_block
               (s.Metric.labels @ [ ("le", float_str h.Metric.s_bounds.(i)) ]))
            !cumulative
        done;
        Printf.bprintf buf "%s_bucket%s %d\n" v.Metric.name
          (label_block (s.Metric.labels @ [ ("le", "+Inf") ]))
          h.Metric.s_count;
        Printf.bprintf buf "%s_sum%s %s\n" v.Metric.name
          (label_block s.Metric.labels)
          (float_str h.Metric.s_sum);
        Printf.bprintf buf "%s_count%s %d\n" v.Metric.name
          (label_block s.Metric.labels)
          h.Metric.s_count)
    v.Metric.samples

(* Render an explicit view list — the cluster driver passes the merged
   cross-node views here; [render] below is the local-registry case. *)
let render_views views =
  let buf = Buffer.create 4096 in
  List.iter (render_family buf) views;
  Buffer.contents buf

let render () = render_views (Metric.families ())

let write ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render ()))

let output oc = output_string oc (render ())

let metrics_path () = Sys.getenv_opt "CSM_METRICS"
