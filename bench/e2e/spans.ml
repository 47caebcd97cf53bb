(* Spans of one traced run, as [Csm_obs.Span] records.  The replay's
   come from [Span.with_]; the tapped cluster's are built here from the
   taps' phase stamps, which need explicit start and stop times.  They
   are kept in memory and written once, at the end, by
   [Exporter.chrome_trace]. *)

module Span = Csm_obs.Span
module Exporter = Csm_obs.Exporter

(* A span over [start, stop], shown on Chrome-trace thread [lane]. *)
let make ~id ~parent ~depth ~name ~attrs ~lane start stop =
  {
    Span.id;
    parent;
    name;
    attrs;
    domain = lane;
    depth;
    start_s = start;
    dur_s = stop -. start;
    d_adds = 0;
    d_muls = 0;
    d_invs = 0;
  }

let stop (s : Span.record) = s.Span.start_s +. s.Span.dur_s

(* A span's duration minus the part of it that its children cover.
   Children may overlap one another or reach outside the parent: only
   the union of their intervals, clipped to the parent, is taken off. *)
let self_time (s : Span.record) children =
  let clipped =
    List.filter_map
      (fun (c : Span.record) ->
        let a = Float.max s.Span.start_s c.Span.start_s and b = Float.min (stop s) (stop c) in
        if b > a then Some (a, b) else None)
      children
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, Float.neg_infinity) clipped
  in
  s.Span.dur_s -. covered

let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun (s : Span.record) -> if s.Span.parent >= 0 then Hashtbl.add kids s.Span.parent s)
    spans;
  List.map (fun (s : Span.record) -> (s, self_time s (Hashtbl.find_all kids s.Span.id))) spans

(* Total self time and span count per span name, sorted by name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((s : Span.record), self) ->
      let t, c = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl s.Span.name) in
      Hashtbl.replace tbl s.Span.name (t +. self, c + 1))
    (self_times spans);
  Hashtbl.fold (fun name (t, c) acc -> (name, t, c) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* The Chrome trace, each event's self time in its "self_us" arg. *)
let to_json spans =
  Exporter.chrome_trace
    (List.map
       (fun ((s : Span.record), self) ->
         { s with Span.attrs = s.Span.attrs @ [ ("self_us", Printf.sprintf "%.3f" (self *. 1e6)) ] })
       (self_times spans))
