(** Deterministic binary min-heap of timestamped events (FIFO among
    equal timestamps). *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills unused array slots; it is never returned. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Earliest event (insertion order among ties). *)
