(** Runtime lock-order checker: a [Mutex] wrapper recording per-thread
    acquisition stacks into one process-global order graph, with cycle
    detection — two code paths taking the same pair of locks in
    opposite orders (the ABBA deadlock seed) raise {!Order_violation}.

    Enabled by [CSM_LOCKDEP=1] in the environment or {!enable};
    disabled, [lock]/[unlock] cost one atomic load over the raw mutex
    and allocate nothing.  The ledger and transport mutexes are
    all of this type, so a [CSM_LOCKDEP=1] cluster run checks the whole
    concurrent stack. *)

type t

exception Order_violation of string

val create : string -> t
(** [create name] makes a checked mutex; [name] labels violations. *)

val name : t -> string

val lock : t -> unit
(** Acquire; when checking is on, record every held→this edge and flag
    any edge that closes a cycle in the global order graph. *)

val unlock : t -> unit
(** Release.  @raise Order_violation when checking is on and an
    inversion was detected since the last release on this thread. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock t f] runs [f] with [t] held; releases on any exit,
    exceptional included.  The preferred form everywhere a condition
    variable is not involved. *)

val wait : Condition.t -> t -> unit
(** [Condition.wait] on the underlying mutex (caller must hold [t]);
    the lock stays on the acquisition stack across the wait, as it is
    re-held before control returns. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val violations : unit -> string list
(** Every violation recorded since the last {!reset}, oldest first
    (including ones already raised). *)

val reset : unit -> unit
(** Clear the order graph, acquisition stacks and violation log (for
    tests that deliberately invert a pair). *)

val edges : unit -> (string * string) list
(** Every held→acquired edge observed since the last {!reset}, as
    (held, acquired) name pairs, deduplicated and sorted. *)

val export : string -> unit
(** Write {!edges} to [path] in the [lint/lock_order.expected] format
    ("a -> b" lines, ['#'] comments).  Also runs automatically at
    process exit when [CSM_LOCKDEP_EXPORT=path] is set, so a
    [CSM_LOCKDEP=1] run can refresh the committed expectation that
    csm-lint's static R9 pass cross-checks. *)
