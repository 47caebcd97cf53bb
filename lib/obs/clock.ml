(* Hybrid logical clock (Kulkarni et al.): a per-process clock whose
   stamps are close to wall time yet respect causality — a frame's
   receive stamp always exceeds its send stamp even across hosts whose
   wall clocks disagree.

   A stamp packs into one native int:

     bits 16..62   physical component, milliseconds since the epoch
     bits  0..15   logical counter, breaking ties within one millisecond

   so integer comparison IS the happened-before-consistent order, and a
   stamp survives a wire round trip through the frame extension's u64
   untouched.  46 bits of milliseconds overflow in ~year 4180.

   All updates go through one [Atomic.t] CAS loop, so any domain or
   thread may stamp concurrently; a successful CAS yields a stamp
   strictly above every stamp previously issued by this process.

   [mono] is the clock's other face: a never-decreasing wall-clock read
   (the stdlib exposes no monotonic clock and mtime is not vendored),
   clamped so a wall-clock step backwards — NTP, VM migration — cannot
   make event-log deltas negative. *)

type stamp = int

let logical_bits = 16
let logical_mask = (1 lsl logical_bits) - 1
let ms s = s lsr logical_bits
let count s = s land logical_mask

let pack ~ms ~count =
  if ms < 0 || count < 0 || count > logical_mask then
    invalid_arg "Clock.pack"
  else (ms lsl logical_bits) lor count

let compare = Int.compare

(* Componentwise max: the commutative, associative, idempotent join the
   aggregator folds over node stamps.  Equals plain integer max because
   of the packing. *)
let join a b = if a >= b then a else b

let seconds s = float_of_int (ms s) /. 1000.0

let to_wire s = Int64.of_int s

(* Total: a crafted u64 from the wire (negative, or wider than a native
   int) clamps to 0 — an "ancient" stamp that merges as a no-op. *)
let of_wire w =
  if Int64.compare w 0L < 0 || Int64.compare w (Int64.of_int max_int) > 0 then 0
  else Int64.to_int w

let state = Atomic.make 0

let wall_ms () = int_of_float (Unix.gettimeofday () *. 1000.0)

(* Successor of [prev] at physical time [pt]: take the later of the two
   physical components, bump the counter on a tie, carry counter
   overflow into the millisecond. *)
let advance prev pt =
  if pt > ms prev then pack ~ms:pt ~count:0
  else if count prev < logical_mask then prev + 1
  else pack ~ms:(ms prev + 1) ~count:0

let rec now () =
  let cur = Atomic.get state in
  let next = advance cur (wall_ms ()) in
  if Atomic.compare_and_set state cur next then next else now ()

(* Receive rule: fold the remote stamp in, then advance past both — the
   returned stamp strictly exceeds the remote one and everything this
   process issued before, which is what orders a Recv after its Send in
   the merged trace. *)
let rec observe remote =
  let cur = Atomic.get state in
  let next = advance (join cur remote) (wall_ms ()) in
  if Atomic.compare_and_set state cur next then next else observe remote

let peek () = Atomic.get state

(* |HLC physical - wall now|: how far causality has dragged this
   process's clock ahead of (or a step has put it behind) real time.
   Feeds csm_hlc_skew_seconds. *)
let skew_seconds s =
  Float.abs (seconds s -. Unix.gettimeofday ())

let mono_last = Atomic.make 0L

let rec mono () =
  let last = Atomic.get mono_last in
  let now_bits = Int64.bits_of_float (Unix.gettimeofday ()) in
  (* both values are positive floats, whose IEEE-754 bit patterns order
     like the floats themselves *)
  if Int64.compare now_bits last <= 0 then Int64.float_of_bits last
  else if Atomic.compare_and_set mono_last last now_bits then
    Int64.float_of_bits now_bits
  else mono ()

let pp ppf s = Format.fprintf ppf "%d.%03d+%d" (ms s / 1000) (ms s mod 1000) (count s)
