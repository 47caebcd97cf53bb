(* SLO/alert rules over live metric values.

   Rules are plain data (metric name, comparison, threshold) so the CLI
   can parse them from the command line; the engine adds the stateful
   part — edge detection, first-fired latching, event-log entries and
   the synthesized csm_alerts_firing gauge family.  Evaluation reads a
   [values : string -> float list] lookup rather than the registry
   directly, so the same engine works over the cluster-merged live
   views, windowed gauges included. *)

type cmp = Gt | Ge | Lt | Le

let cmp_name = function Gt -> ">" | Ge -> ">=" | Lt -> "<" | Le -> "<="

let holds cmp v thr =
  match cmp with
  | Gt -> v > thr
  | Ge -> v >= thr
  | Lt -> v < thr
  | Le -> v <= thr

type rule = {
  a_name : string;
  a_metric : string;
  a_cmp : cmp;
  a_threshold : float;
  a_help : string;
}

let rule ?name ?(help = "") ~metric ~cmp threshold =
  {
    a_name = (match name with Some n -> n | None -> metric);
    a_metric = metric;
    a_cmp = cmp;
    a_threshold = threshold;
    a_help = help;
  }

let to_string r =
  Printf.sprintf "%s:%s%s%s" r.a_name r.a_metric (cmp_name r.a_cmp)
    (Json.float_repr r.a_threshold)

(* "name:metric>=thr" with an optional name prefix.  The metric must
   look like an exposition name so "a:b:c" stays unambiguous (names
   never contain ':'). *)
let parse spec =
  let spec = String.trim spec in
  let name, rest =
    match String.index_opt spec ':' with
    | Some i ->
      ( Some (String.trim (String.sub spec 0 i)),
        String.sub spec (i + 1) (String.length spec - i - 1) )
    | None -> (None, spec)
  in
  (* longest operators first so ">=" is not read as ">" "=" *)
  let ops = [ (">=", Ge); ("<=", Le); (">", Gt); ("<", Lt) ] in
  let split_on op =
    let ol = String.length op in
    let rec find i =
      if i + ol > String.length rest then None
      else if String.sub rest i ol = op then
        Some (String.trim (String.sub rest 0 i),
              String.trim (String.sub rest (i + ol) (String.length rest - i - ol)))
      else find (i + 1)
    in
    find 0
  in
  let metric_ok m =
    m <> ""
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z')
           || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9')
           || c = '_')
         m
  in
  let rec try_ops = function
    | [] -> None
    | (op, cmp) :: rest_ops -> (
      match split_on op with
      | Some (metric, thr) when metric_ok metric -> (
        match float_of_string_opt thr with
        | Some threshold when Float.is_finite threshold ->
          Some (rule ?name ~metric ~cmp threshold)
        | _ -> None)
      | _ -> try_ops rest_ops)
  in
  let name_ok n =
    n <> ""
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z')
           || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9')
           || c = '_' || c = '-')
         n
  in
  match name with
  | Some n when not (name_ok n) -> None
  | _ -> try_ops ops

let default_rules ?lambda_floor () =
  [
    rule ~name:"suspicion" ~help:"a node accumulated decoder error locations"
      ~metric:"csm_node_suspicion" ~cmp:Gt 0.0;
    rule ~name:"hlc-skew"
      ~help:"a node's hybrid logical clock drifted off its wall clock"
      ~metric:"csm_hlc_skew_seconds" ~cmp:Gt 0.5;
    rule ~name:"frame-errors"
      ~help:"malformed transport frames were detected (and dropped)"
      ~metric:"csm_transport_frame_errors_total" ~cmp:Gt 0.0;
  ]
  @
  match lambda_floor with
  | None -> []
  | Some floor ->
    [
      rule ~name:"lambda-floor"
        ~help:"windowed committed-command throughput fell below the SLO floor"
        ~metric:"csm_window_lambda" ~cmp:Lt floor;
    ]

(* ----- the engine ----- *)

type state = {
  s_rule : rule;
  mutable s_firing : bool;
  mutable s_value : float;  (* the tripping (worst) value when firing *)
  mutable s_first : float option;  (* mono time of the first rising edge *)
  mutable s_edges : int;  (* rising edges seen *)
}

type engine = { states : state list; lock : Mutex.t }

let create rules =
  {
    states =
      List.map
        (fun r ->
          { s_rule = r; s_firing = false; s_value = 0.0; s_first = None; s_edges = 0 })
        rules;
    lock = Mutex.create ();
  }

(* The value a rule is judged on: the worst sample in its direction —
   max for upper bounds, min for lower bounds.  No samples = no data =
   not firing (a missing family must not page). *)
let worst cmp values =
  match values with
  | [] -> None
  | v :: rest ->
    let pick = match cmp with Gt | Ge -> Float.max | Lt | Le -> Float.min in
    Some (List.fold_left pick v rest)

let evaluate e ?now values =
  let now = match now with Some n -> n | None -> Clock.mono () in
  let transitions =
    Mutex.protect e.lock (fun () ->
        List.filter_map
          (fun s ->
            let r = s.s_rule in
            let fired, value =
              match worst r.a_cmp (values r.a_metric) with
              | Some v -> (holds r.a_cmp v r.a_threshold, v)
              | None -> (false, 0.0)
            in
            let edge =
              if fired && not s.s_firing then begin
                s.s_edges <- s.s_edges + 1;
                if s.s_first = None then s.s_first <- Some now;
                Some (r, true, value)
              end
              else if (not fired) && s.s_firing then Some (r, false, value)
              else None
            in
            s.s_firing <- fired;
            if fired then s.s_value <- value;
            edge)
          e.states)
  in
  (* event emission outside the engine lock: the event log has its own *)
  List.iter
    (fun (r, rising, value) ->
      let attrs =
        [
          ("rule", r.a_name);
          ("metric", r.a_metric);
          ("value", Json.float_repr value);
          ("threshold", Json.float_repr r.a_threshold);
        ]
      in
      if rising then Event.emit ~attrs Event.Warn "alert.firing"
      else Event.emit ~attrs Event.Info "alert.resolved")
    transitions;
  List.filter_map
    (fun (r, rising, value) -> if rising then Some (r, value) else None)
    transitions

let firing e =
  Mutex.protect e.lock (fun () ->
      List.filter_map
        (fun s -> if s.s_firing then Some (s.s_rule, s.s_value) else None)
        e.states)

let fired_ever e =
  Mutex.protect e.lock (fun () -> List.exists (fun s -> s.s_edges > 0) e.states)

let first_fired e name =
  Mutex.protect e.lock (fun () ->
      List.fold_left
        (fun acc s ->
          if s.s_rule.a_name = name then s.s_first else acc)
        None e.states)

let views e =
  let samples =
    Mutex.protect e.lock (fun () ->
        List.map
          (fun s ->
            {
              Metric.labels = [ ("rule", s.s_rule.a_name) ];
              value = Metric.V_gauge (if s.s_firing then 1.0 else 0.0);
            })
          e.states)
  in
  match samples with
  | [] -> []
  | _ ->
    [
      {
        Metric.name = "csm_alerts_firing";
        help = "SLO alert rules currently firing (1 firing, 0 quiet)";
        kind = Metric.K_gauge;
        samples =
          List.sort
            (fun (a : Metric.sample) b -> compare a.Metric.labels b.Metric.labels)
            samples;
      };
    ]
