(* Structured, leveled event log, stored in a flight ring.

   Protocol-health events (decode failures, consensus skips, suspicion
   flips, fraud alerts) are emitted here so a run can be inspected
   without replaying a full span trace.  Gated by [CSM_EVENTS]
   (debug|info|warn|error, read by [Exporter.install]); disabled,
   [emit] is one atomic load and allocates nothing.

   The entries live in one process-global {!Flight} ring: an entry's
   kind is the event name, its first attribute is [("level", ...)],
   and its stamp is the process HLC.  Every thread emits into that one
   ring, and a flight ring takes no lock of its own, so [lock] guards
   each record and read.  The ring keeps the newest [capacity] events;
   one atomic emit counter gives [total], and every emit past
   [capacity] has overwritten an unread entry. *)

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

type t = Flight.entry

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

let fresh_ring () = Flight.create ~capacity ~node:0 ()
let ring = Atomic.make (fresh_ring ())
let lock = Mutex.create ()
let emitted = Atomic.make 0

let emit ?(attrs = []) level name =
  let th = Atomic.get threshold in
  if th <> 0 && level_value level >= th then begin
    let attrs = ("level", level_name level) :: attrs in
    (* stamped under the lock, so ring order stays HLC order *)
    Mutex.protect lock (fun () ->
        Flight.record (Atomic.get ring) ~attrs ~hlc:(Clock.now ()) ~round:0
          name);
    (* past [capacity], this entry displaced one nobody read: make the
       truncation observable instead of silent *)
    if Atomic.fetch_and_add emitted 1 >= capacity && Metric.enabled () then
      Metric.inc (Telemetry.events_dropped ())
  end

let total () = Atomic.get emitted
let dropped () = max 0 (total () - capacity)
let recent () = Mutex.protect lock (fun () -> Flight.entries (Atomic.get ring))

let reset () =
  Atomic.set ring (fresh_ring ());
  Atomic.set emitted 0

let pp ppf (e : t) =
  let level, attrs =
    match e.Flight.f_attrs with
    | ("level", l) :: attrs -> (l, attrs)
    | attrs -> ("", attrs)
  in
  Format.fprintf ppf "[%s] %s%s" level e.Flight.f_kind
    (match attrs with
    | [] -> ""
    | attrs ->
      " "
      ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs))
