(* Structured, leveled event log with a fixed-capacity ring buffer.

   Protocol-health events (decode failures, consensus skips, suspicion
   flips, fraud alerts) are emitted here so a run can be inspected
   without replaying a full span trace.  Gated by [CSM_EVENTS]
   (debug|info|warn|error); disabled, [emit] is one atomic load and
   allocates nothing.  The ring keeps the newest [capacity] events —
   old entries are overwritten, never blocking the emitting domain for
   longer than the buffer mutex. *)

type level = Debug | Info | Warn | Error

let level_value = function Debug -> 1 | Info -> 2 | Warn -> 3 | Error -> 4

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" | "1" | "on" | "true" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type t = {
  seq : int;  (* process-unique, monotone *)
  ts : float;  (* wall clock, Unix.gettimeofday *)
  mono : float;  (* never-decreasing clock (Clock.mono), for deltas *)
  level : level;
  name : string;
  attrs : (string * string) list;
}

let capacity = 1024

(* 0 = disabled; otherwise the minimum level_value recorded. *)
let threshold = Atomic.make 0

let set_level = function
  | None -> Atomic.set threshold 0
  | Some l -> Atomic.set threshold (level_value l)

let current_level () =
  match Atomic.get threshold with
  | 1 -> Some Debug
  | 2 -> Some Info
  | 3 -> Some Warn
  | 4 -> Some Error
  | _ -> None

let enabled l = Atomic.get threshold <> 0 && level_value l >= Atomic.get threshold

let ring : t option array = Array.make capacity None
let ring_lock = Mutex.create ()
let next_seq = ref 0  (* guarded by ring_lock *)
let emitted = Atomic.make 0
let overwritten = Atomic.make 0

let locked f =
  Mutex.lock ring_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock ring_lock) f

let emit ?(attrs = []) level name =
  let th = Atomic.get threshold in
  if th <> 0 && level_value level >= th then begin
    let ts = Unix.gettimeofday () in
    let mono = Clock.mono () in
    let dropped_one =
      locked (fun () ->
          let seq = !next_seq in
          next_seq := seq + 1;
          let slot = seq mod capacity in
          let displaced = ring.(slot) <> None in
          ring.(slot) <- Some { seq; ts; mono; level; name; attrs };
          displaced)
    in
    Atomic.incr emitted;
    if dropped_one then begin
      (* the ring reclaimed an entry nobody read: make the truncation
         observable instead of silent (metric update outside the ring
         lock — the registry has its own) *)
      Atomic.incr overwritten;
      if Metric.enabled () then Metric.inc Telemetry.events_dropped
    end
  end

let total () = Atomic.get emitted
let dropped () = Atomic.get overwritten

(* Oldest-first chronological view of the surviving events. *)
let recent () =
  let items =
    locked (fun () -> Array.to_list ring |> List.filter_map (fun x -> x))
  in
  List.sort (fun a b -> Int.compare a.seq b.seq) items

let reset () =
  locked (fun () ->
      Array.fill ring 0 capacity None;
      next_seq := 0);
  Atomic.set emitted 0;
  Atomic.set overwritten 0

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    match Sys.getenv_opt "CSM_EVENTS" with
    | None -> ()
    | Some v -> set_level (level_of_string v)
  end

let pp ppf e =
  Format.fprintf ppf "[%s] %s%s" (level_name e.level) e.name
    (match e.attrs with
    | [] -> ""
    | attrs ->
      " "
      ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs))
