(* The benchmark's clock: CLOCK_MONOTONIC in seconds, with nanosecond
   resolution.  Forked socket nodes read the same system-wide clock as
   the client, so their stamps line up with its own. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
