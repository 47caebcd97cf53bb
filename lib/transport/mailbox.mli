(** The blocking receive queue of one socket endpoint.  Any thread
    may {!push}; only the endpoint's owner thread calls {!pop} and
    {!close}.  A waiting owner sleeps on a self-pipe and is woken by the
    first push, at the cost of at most one pipe write per sleep. *)

type 'a t

val create : string -> 'a t
(** [create name]: an empty, open mailbox whose lock is the
    {!Csm_parallel.Lockdep} lock [name]. *)

val push : 'a t -> 'a -> unit
(** Enqueue, waking the owner if it sleeps.  Dropped after {!close}. *)

val pop : 'a t -> timeout:float -> 'a option
(** The next item, waiting at most [timeout] seconds for one; [None] at
    the deadline, or at once when the mailbox is closed. *)

val close : 'a t -> unit
(** Drop the queued items and release the wake pipe.  Idempotent. *)
