(* What one run of the benchmark reports, and the end-to-end metrics
   computed from its clusters. *)

type t = {
  attempted : int;  (* rounds *)
  failed : int;
  errors : string list;  (* why the run is not correct *)
  metrics : (string * string * float) list;  (* name, unit, value *)
  notes : string list;  (* extra lines for the human-readable summary *)
}

(* One cluster of an untraced run. *)
type sample = {
  timed : float array;
      (* latencies of the timed rounds, seconds; empty unless every
         round was accepted *)
  setup : float;  (* seconds from cluster start to round 0's vote *)
  rate : float;  (* K x timed rounds / their span, cmd/s; nan unless complete *)
  rounds_failed : int;
  rounds_attempted : int;
}

(* [rss_mb] is [None] when /proc gave no reading.  A run with a failed
   round reports no metrics. *)
let end_to_end ~rss_mb samples =
  let sum f = List.fold_left (fun a s -> a + f s) 0 samples in
  let failed = sum (fun s -> s.rounds_failed) in
  let lat = Array.concat (List.map (fun s -> s.timed) samples) in
  let base =
    {
      attempted = sum (fun s -> s.rounds_attempted);
      failed;
      errors = [];
      metrics = [];
      notes =
        [ Printf.sprintf "clusters=%d timed_rounds=%d" (List.length samples) (Array.length lat) ];
    }
  in
  let median f = Stats.median (Array.of_list (List.map f samples)) in
  if failed > 0 then { base with errors = [ Printf.sprintf "%d rounds failed" failed ] }
  else
    match (Stats.latency_percentiles lat, rss_mb) with
    | Error e, _ -> { base with errors = [ e ] }
    | Ok _, None -> { base with errors = [ "no VmRSS in /proc" ] }
    | Ok (p50, p90), Some rss ->
      {
        base with
        metrics =
          [
            ("round_ms_p50", "ms", 1e3 *. p50);
            ("round_ms_p90", "ms", 1e3 *. p90);
            ("commands_per_s", "cmd/s", median (fun s -> s.rate));
            ("setup_s", "s", median (fun s -> s.setup));
            ("rss_mb", "MB", rss);
          ];
      }
