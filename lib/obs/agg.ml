(* Cluster telemetry: the one snapshot format every node streams to the
   client, and the merges and renderings built on it.

   Node side, [capture] takes this process's observability state — its
   metric registry, event-log counters and HLC — under a per-process
   sequence number, and [encode] renders it as the
   [csm-node-telemetry/2] JSON payload of a Telemetry frame.  While a
   run is in flight a streaming node sends snapshots of the families
   that changed; its last snapshot of the run is [final]: every family,
   plus the process's span buffers and the node's own flight-recorder
   ring.

   Client side, [decode] parses a payload back (total: a Byzantine
   node's garbage yields [None] and is counted like any other malformed
   frame).  One rule merges snapshots, both in the live store as they
   arrive and in the end-of-run merges below: per source (one metric
   registry), the newest sequence number wins.  The merges fold the
   sources into
   - one cluster-wide metric-view list (counters sum, gauges take the
     max, histograms use [Metric.merge] — all associative and
     commutative, so arrival order cannot change the exposition), and
   - one merged Chrome trace where every node's spans appear under its
     own pid and matched flight-recorder send/recv entries render as
     flow arrows between processes, timestamped from their HLC stamps
     so the arrows are ordered consistently even across hosts whose
     wall clocks disagree.

   Loopback wrinkle: node runtimes in one process share the registry
   and span buffers, so their snapshots are copies of one source; the
   per-process sequence makes the newest copy win.  Flight rings are
   per-instance and are always all kept. *)

let schema = "csm-node-telemetry/2"

(* What a snapshot's metric views describe.  Loopback node runtimes
   share one process-wide registry (scope [Process]): their snapshots
   are copies of one source, keyed by pid alone.  Forked node processes
   own their registry (scope [Node]): even if two hosts' pids collide,
   their (pid, node) keys cannot. *)
type scope = Process | Node

let scope_name = function Process -> "process" | Node -> "node"

let scope_of_name = function
  | "process" -> Some Process
  | "node" -> Some Node
  | _ -> None

type snapshot = {
  s_node : int;
  s_pid : int;
  s_scope : scope;
  s_seq : int;  (* per-process emission number, from 1 *)
  s_hlc : Clock.stamp;  (* the node's clock when it snapshotted *)
  s_views : Metric.view list;  (* CUMULATIVE values for the families carried *)
  s_events_total : int;
  s_events_dropped : int;
  s_final : bool;
  s_spans : Span.record list;  (* final snapshots only *)
  s_flight : Flight.entry list;  (* final snapshots only *)
  s_flight_recorded : int;
}

(* ----- node side ----- *)

(* Sequence numbers count per process, not per node runtime: loopback
   threads snapshot one shared registry, and numbering their copies
   from one counter lets "newest sequence wins" pick the newest copy. *)
let last_seq = Atomic.make 0

let capture ?views ?flight ~node ~scope () =
  let seq = Atomic.fetch_and_add last_seq 1 + 1 in
  let views = match views with Some vs -> vs | None -> Metric.families () in
  let base =
    {
      s_node = node;
      s_pid = Unix.getpid ();
      s_scope = scope;
      s_seq = seq;
      s_hlc = Clock.peek ();
      s_views = views;
      s_events_total = Event.total ();
      s_events_dropped = Event.dropped ();
      s_final = false;
      s_spans = [];
      s_flight = [];
      s_flight_recorded = 0;
    }
  in
  match flight with
  | None -> base
  | Some f ->
    {
      base with
      s_final = true;
      s_spans = Span.records ();
      s_flight = Flight.entries f;
      s_flight_recorded = Flight.recorded f;
    }

let attrs_json attrs =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs)

let span_json (r : Span.record) =
  Json.Obj
    [
      ("id", Json.Int r.Span.id);
      ("parent", Json.Int r.Span.parent);
      ("name", Json.Str r.Span.name);
      ("attrs", attrs_json r.Span.attrs);
      ("domain", Json.Int r.Span.domain);
      ("depth", Json.Int r.Span.depth);
      ("start_s", Json.Float r.Span.start_s);
      ("dur_s", Json.Float r.Span.dur_s);
      ("adds", Json.Int r.Span.d_adds);
      ("muls", Json.Int r.Span.d_muls);
      ("invs", Json.Int r.Span.d_invs);
    ]

let value_json = function
  | Metric.V_counter c -> [ ("value", Json.Int c) ]
  | Metric.V_gauge g -> [ ("value", Json.Float g) ]
  | Metric.V_histogram h ->
    [
      ( "buckets",
        Json.List
          (Array.to_list (Array.map (fun b -> Json.Float b) h.Metric.s_bounds)) );
      ( "counts",
        Json.List
          (Array.to_list (Array.map (fun c -> Json.Int c) h.Metric.s_counts)) );
      ("sum", Json.Float h.Metric.s_sum);
      ("count", Json.Int h.Metric.s_count);
    ]

let view_json (v : Metric.view) =
  Json.Obj
    [
      ("name", Json.Str v.Metric.name);
      ("help", Json.Str v.Metric.help);
      ( "kind",
        Json.Str
          (match v.Metric.kind with
          | Metric.K_counter -> "counter"
          | Metric.K_gauge -> "gauge"
          | Metric.K_histogram -> "histogram") );
      ( "samples",
        Json.List
          (List.map
             (fun (s : Metric.sample) ->
               Json.Obj
                 (("labels", attrs_json s.Metric.labels) :: value_json s.Metric.value))
             v.Metric.samples) );
    ]

let encode s =
  Json.to_string
    (Json.Obj
       ([
          ("schema", Json.Str schema);
          ("node", Json.Int s.s_node);
          ("pid", Json.Int s.s_pid);
          ("registry", Json.Str (scope_name s.s_scope));
          ("seq", Json.Int s.s_seq);
          ("hlc", Json.Int s.s_hlc);
          ("events_total", Json.Int s.s_events_total);
          ("events_dropped", Json.Int s.s_events_dropped);
          ("metrics", Json.List (List.map view_json s.s_views));
        ]
       @
       if not s.s_final then []
       else
         [
           ("final", Json.Bool true);
           ("spans", Json.List (List.map span_json s.s_spans));
           ( "flight",
             Json.Obj
               [
                 ("recorded", Json.Int s.s_flight_recorded);
                 ("entries", Json.List (List.map Flight.entry_json s.s_flight));
               ] );
         ]))

(* ----- client side: total parsing ----- *)

let opt_all f xs =
  List.fold_right
    (fun x acc ->
      match (f x, acc) with
      | Some y, Some ys -> Some (y :: ys)
      | _ -> None)
    xs (Some [])

let attrs_of_json = function
  | Some (Json.Obj kvs) ->
    Some
      (List.filter_map
         (fun (k, v) ->
           match Json.to_string_opt v with Some s -> Some (k, s) | None -> None)
         kvs)
  | None -> Some []
  | _ -> None

let mem_int key j = Option.bind (Json.member key j) Json.to_int_opt
let mem_float key j = Option.bind (Json.member key j) Json.to_float_opt
let mem_str key j = Option.bind (Json.member key j) Json.to_string_opt

let span_of_json j =
  match
    ( (mem_int "id" j, mem_int "parent" j, mem_str "name" j),
      (mem_int "domain" j, mem_int "depth" j),
      (mem_float "start_s" j, mem_float "dur_s" j),
      (mem_int "adds" j, mem_int "muls" j, mem_int "invs" j),
      attrs_of_json (Json.member "attrs" j) )
  with
  | ( (Some id, Some parent, Some name),
      (Some domain, Some depth),
      (Some start_s, Some dur_s),
      (Some d_adds, Some d_muls, Some d_invs),
      Some attrs ) ->
    Some
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
  | _ -> None

let sample_of_json kind j =
  match attrs_of_json (Json.member "labels" j) with
  | None -> None
  | Some labels -> (
    match kind with
    | Metric.K_counter -> (
      match mem_int "value" j with
      | Some c when c >= 0 -> Some { Metric.labels; value = Metric.V_counter c }
      | _ -> None)
    | Metric.K_gauge -> (
      match mem_float "value" j with
      | Some g -> Some { Metric.labels; value = Metric.V_gauge g }
      | None -> None)
    | Metric.K_histogram -> (
      match
        ( Json.member "buckets" j,
          Json.member "counts" j,
          mem_float "sum" j,
          mem_int "count" j )
      with
      (* counts carries the +Inf overflow bucket last: |counts| = |bounds|+1 *)
      | Some (Json.List bs), Some (Json.List cs), Some s_sum, Some s_count
        when List.length cs = List.length bs + 1 && s_count >= 0 -> (
        match (opt_all Json.to_float_opt bs, opt_all Json.to_int_opt cs) with
        | Some bounds, Some counts when List.for_all (fun c -> c >= 0) counts ->
          Some
            {
              Metric.labels;
              value =
                Metric.V_histogram
                  {
                    Metric.s_bounds = Array.of_list bounds;
                    s_counts = Array.of_list counts;
                    s_sum;
                    s_count;
                  };
            }
        | _ -> None)
      | _ -> None))

let view_of_json j =
  match (mem_str "name" j, mem_str "kind" j, Json.member "samples" j) with
  | Some name, Some kind_s, Some (Json.List samples) -> (
    let kind =
      match kind_s with
      | "counter" -> Some Metric.K_counter
      | "gauge" -> Some Metric.K_gauge
      | "histogram" -> Some Metric.K_histogram
      | _ -> None
    in
    match kind with
    | None -> None
    | Some kind -> (
      match opt_all (sample_of_json kind) samples with
      | Some samples ->
        Some
          {
            Metric.name;
            help = Option.value ~default:"" (mem_str "help" j);
            kind;
            samples;
          }
      | None -> None))
  | _ -> None

(* The final-only sections as (final, spans, flight entries, recorded
   count): all empty for a mid-run snapshot, [None] when malformed. *)
let final_sections j =
  match Json.member "final" j with
  | None | Some (Json.Bool false) -> Some (false, [], [], 0)
  | Some (Json.Bool true) -> (
    match (Json.member "spans" j, Json.member "flight" j) with
    | Some (Json.List spans), Some flight -> (
      match (opt_all span_of_json spans, Json.member "entries" flight) with
      | Some spans, Some (Json.List entries) -> (
        match opt_all Flight.decode_entry_json entries with
        | Some entries ->
          let recorded =
            Option.value ~default:(List.length entries)
              (mem_int "recorded" flight)
          in
          Some (true, spans, entries, recorded)
        | None -> None)
      | _ -> None)
    | _ -> None)
  | Some _ -> None

let decode payload =
  match Json.parse payload with
  | exception Json.Parse_error _ -> None
  | j -> (
    match
      ( (mem_str "schema" j, mem_int "node" j, mem_int "pid" j),
        (Option.bind (mem_str "registry" j) scope_of_name, mem_int "seq" j),
        (mem_int "hlc" j, Json.member "metrics" j) )
    with
    | ( (Some s, Some s_node, Some s_pid),
        (Some s_scope, Some s_seq),
        (Some s_hlc, Some (Json.List metrics)) )
      when s = schema && s_node >= 0 && s_seq >= 1 && s_hlc >= 0 -> (
      match (opt_all view_of_json metrics, final_sections j) with
      | Some s_views, Some (s_final, s_spans, s_flight, s_flight_recorded) ->
        let counter key = max 0 (Option.value ~default:0 (mem_int key j)) in
        Some
          {
            s_node;
            s_pid;
            s_scope;
            s_seq;
            s_hlc;
            s_views;
            s_events_total = counter "events_total";
            s_events_dropped = counter "events_dropped";
            s_final;
            s_spans;
            s_flight;
            s_flight_recorded;
          }
      | _ -> None)
    | _ -> None)

(* ----- merging ----- *)

(* The registry a snapshot describes: forked nodes' own registries key
   on (pid, node index), a shared loopback registry on pid alone. *)
let source s =
  match s.s_scope with Process -> (s.s_pid, -1) | Node -> (s.s_pid, s.s_node)

let by_node a b =
  match Int.compare a.s_node b.s_node with
  | 0 -> (
    match Int.compare a.s_pid b.s_pid with
    | 0 -> Int.compare a.s_seq b.s_seq
    | c -> c)
  | c -> c

let latest snaps =
  let best : (int * int, snapshot) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let key = source s in
      match Hashtbl.find_opt best key with
      | Some prev when prev.s_seq >= s.s_seq -> ()
      | _ -> Hashtbl.replace best key s)
    snaps;
  List.sort by_node (Hashtbl.fold (fun _ s acc -> s :: acc) best [])

let merge_samples (a : Metric.sample) (b : Metric.sample) =
  let value =
    match (a.Metric.value, b.Metric.value) with
    | Metric.V_counter x, Metric.V_counter y -> Metric.V_counter (x + y)
    | Metric.V_gauge x, Metric.V_gauge y -> Metric.V_gauge (Float.max x y)
    | Metric.V_histogram x, Metric.V_histogram y -> (
      match Metric.merge x y with
      | m -> Metric.V_histogram m
      | exception Invalid_argument _ ->
        (* bucket-layout mismatch from an untrusted snapshot: keep ours *)
        Metric.V_histogram x)
    | v, _ -> v  (* kind mismatch inside one family: keep the first *)
  in
  { a with Metric.value }

let merge_views (lists : Metric.view list list) : Metric.view list =
  let families : (string, Metric.view) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (List.iter (fun (v : Metric.view) ->
         match Hashtbl.find_opt families v.Metric.name with
         | None ->
           Hashtbl.replace families v.Metric.name v;
           order := v.Metric.name :: !order
         | Some prev when prev.Metric.kind = v.Metric.kind ->
           (* fold v's samples into prev's, matching on labels *)
           let samples =
             List.fold_left
               (fun acc (s : Metric.sample) ->
                 let rec fold = function
                   | [] -> acc @ [ s ]
                   | (p : Metric.sample) :: _ when p.Metric.labels = s.Metric.labels
                     ->
                     List.map
                       (fun (q : Metric.sample) ->
                         if q.Metric.labels = s.Metric.labels then
                           merge_samples q s
                         else q)
                       acc
                   | _ :: rest -> fold rest
                 in
                 fold acc)
               prev.Metric.samples v.Metric.samples
           in
           let help =
             if prev.Metric.help <> "" then prev.Metric.help else v.Metric.help
           in
           Hashtbl.replace families v.Metric.name
             { prev with Metric.samples; help }
         | Some _ -> ()  (* kind clash across snapshots: first wins *)))
    lists;
  List.sort
    (fun (a : Metric.view) b -> String.compare a.Metric.name b.Metric.name)
    (List.map
       (fun name ->
         let v = Hashtbl.find families name in
         {
           v with
           Metric.samples =
             List.sort
               (fun (a : Metric.sample) b ->
                 compare a.Metric.labels b.Metric.labels)
               v.Metric.samples;
         })
       !order)

let merged_views snaps =
  merge_views (List.map (fun s -> s.s_views) (latest snaps))

let max_hlc snaps = List.fold_left (fun acc s -> Clock.join acc s.s_hlc) 0 snaps

(* ----- the merged Chrome trace ----- *)

(* Flow pairing key: within one run, a (round, frame kind, src, dst)
   triple identifies at most one protocol send, so matching flight
   entries on it links each send to its receive. *)
let flow_key ~round ~frame ~src ~dst =
  Printf.sprintf "%d/%s/%d->%d" round frame src dst

let flight_us (e : Flight.entry) =
  (* µs from the HLC: milliseconds widened, the logical counter as a
     sub-millisecond offset — so trace order IS HLC order *)
  (Clock.ms e.f_hlc * 1000) + min (Clock.count e.f_hlc) 999

(* The cross-node message a flight entry is one end of, if any: a "send"
   naming its "dst" or a "recv" naming its "src", with its pairing key. *)
let flow_end ~node (e : Flight.entry) =
  let frame = Option.value ~default:"" (List.assoc_opt "frame" e.f_attrs) in
  let peer attr =
    Option.map
      (fun v -> Option.value ~default:(-1) (int_of_string_opt v))
      (List.assoc_opt attr e.f_attrs)
  in
  match (e.Flight.f_kind, peer "dst", peer "src") with
  | "send", Some dst, _ ->
    Some (`Send, flow_key ~round:e.f_round ~frame ~src:node ~dst)
  | "recv", _, Some src ->
    Some (`Recv, flow_key ~round:e.f_round ~frame ~src ~dst:node)
  | _ -> None

let wire_tid = 999  (* the per-process "wire" track for flight slices *)

let cluster_trace (snaps : snapshot list) : Json.t =
  let reps = latest snaps in
  let by_node_id = List.sort (fun a b -> Int.compare a.s_node b.s_node) snaps in
  (* one shared time base across spans and flight entries, so rebased
     microsecond integers stay small and exact *)
  let base_us =
    List.fold_left
      (fun acc s ->
        let acc =
          List.fold_left
            (fun acc (r : Span.record) ->
              min acc (int_of_float (r.Span.start_s *. 1e6)))
            acc s.s_spans
        in
        List.fold_left
          (fun acc e -> min acc (flight_us e))
          acc s.s_flight)
      max_int snaps
  in
  let base_us = if base_us = max_int then 0 else base_us in
  let events = ref [] in
  let emit e = events := e :: !events in
  (* process-name metadata, one per node *)
  List.iter
    (fun s ->
      emit
        (Json.Obj
           [
             ("name", Json.Str "process_name");
             ("ph", Json.Str "M");
             ("pid", Json.Int s.s_node);
             ( "args",
               Json.Obj
                 [ ("name", Json.Str (Printf.sprintf "node %d" s.s_node)) ] );
           ]))
    by_node_id;
  (* spans: one X event each, under the owning process's pid *)
  List.iter
    (fun s ->
      List.iter
        (fun (r : Span.record) ->
          emit
            (Json.Obj
               [
                 ("name", Json.Str r.Span.name);
                 ("cat", Json.Str "csm");
                 ("ph", Json.Str "X");
                 ( "ts",
                   Json.Int (int_of_float (r.Span.start_s *. 1e6) - base_us) );
                 ("dur", Json.Float (r.Span.dur_s *. 1e6));
                 ("pid", Json.Int s.s_node);
                 ("tid", Json.Int r.Span.domain);
                 ( "args",
                   Json.Obj
                     (List.map (fun (k, v) -> (k, Json.Str v)) r.Span.attrs
                     @ [ ("span_id", Json.Int r.Span.id) ]) );
               ]))
        s.s_spans)
    reps;
  (* flight entries: a thin slice on the wire track of every node (all
     snapshots — rings are per-instance even in loopback), plus a flow
     event for each end of a cross-node message *)
  let flow_ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let flow_id key =
    match Hashtbl.find_opt flow_ids key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length flow_ids in
      Hashtbl.replace flow_ids key id;
      id
  in
  List.iter
    (fun s ->
      List.iter
        (fun (e : Flight.entry) ->
          let ts = flight_us e - base_us in
          let frame = Option.value ~default:"" (List.assoc_opt "frame" e.f_attrs) in
          let name =
            if frame = "" then e.Flight.f_kind
            else e.Flight.f_kind ^ ":" ^ frame
          in
          emit
            (Json.Obj
               [
                 ("name", Json.Str name);
                 ("cat", Json.Str "csm.wire");
                 ("ph", Json.Str "X");
                 ("ts", Json.Int ts);
                 ("dur", Json.Int 1);
                 ("pid", Json.Int s.s_node);
                 ("tid", Json.Int wire_tid);
                 ( "args",
                   Json.Obj
                     (("round", Json.Int e.f_round)
                     :: ("hlc", Json.Int e.f_hlc)
                     :: List.map (fun (k, v) -> (k, Json.Str v)) e.f_attrs) );
               ]);
          match flow_end ~node:s.s_node e with
          | None -> ()
          | Some (dir, key) ->
            let phase =
              match dir with
              | `Send -> [ ("ph", Json.Str "s") ]
              | `Recv -> [ ("ph", Json.Str "f"); ("bp", Json.Str "e") ]
            in
            emit
              (Json.Obj
                 ([ ("name", Json.Str frame); ("cat", Json.Str "csm.flow") ]
                 @ phase
                 @ [
                     ("id", Json.Int (flow_id key));
                     ("ts", Json.Int ts);
                     ("pid", Json.Int s.s_node);
                     ("tid", Json.Int wire_tid);
                   ])))
        s.s_flight)
    by_node_id;
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.Str "ms");
    ]

(* Matched cross-node send→recv pairs among the snapshots' flight rings:
   the obs-smoke assertion that the merged trace really links
   processes.  (Send and recv live on different nodes by construction —
   a node never sends to itself.) *)
let cross_flows (snaps : snapshot list) : int =
  let ends =
    List.concat_map
      (fun s -> List.filter_map (flow_end ~node:s.s_node) s.s_flight)
      snaps
  in
  let sends : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter (function `Send, k -> Hashtbl.replace sends k () | _ -> ()) ends;
  List.length
    (List.filter (function `Recv, k -> Hashtbl.mem sends k | _ -> false) ends)
