(** Domain fan-out for coarse, independent harness work (the coding-cost
    sweep).  The engine and the protocol run sequentially; this is the
    only place the repository uses more than one domain.

    Width: [CSM_DOMAINS] in the environment (default
    [Domain.recommended_domain_count ()], capped at 128), overridable at
    runtime with [set_domains] / [with_domain_limit]. *)

val domains : unit -> int
(** Configured domain count (env / [set_domains]); at least 1. *)

val set_domains : int -> unit
(** Override the configured domain count (capped at 128).  Call from
    the main domain only. *)

val with_domain_limit : int -> (unit -> 'a) -> 'a
(** [with_domain_limit d f] runs [f] with the effective width capped at
    [d] (1 = run on the calling domain).  Restores on exit, including
    exceptional exit. *)

val parallel_list_map : ('a -> 'b) -> 'a list -> 'b list
(** [List.map f l] on up to [min (List.length l) width] domains, the
    caller's included: the call spawns the other domains and joins them
    all before it returns.  Results keep the list order.  When [f]
    raises, items not yet started are skipped and the first exception
    is re-raised once every domain has stopped.  A call from inside a
    task, or at width 1, runs [List.map] on the calling domain. *)
