(** Lazily-initialized domain pool with deterministic chunked fan-out.

    Sizing: [CSM_DOMAINS] in the environment (default
    [Domain.recommended_domain_count ()], clamped to [1, 128]), overridable
    at runtime with [set_domains] / [with_domain_limit].  No domain is
    spawned until the first job that needs one.

    Determinism guarantee: every primitive writes results by index, so
    outputs are bit-identical for any domain count; with an effective
    width of 1 the primitives are plain sequential loops executing the
    exact sequential schedule.  Nested calls (a task invoking a parallel
    primitive) run inline in the calling domain. *)

val domains : unit -> int
(** Configured domain count (env / [set_domains]); at least 1. *)

val set_domains : int -> unit
(** Override the configured domain count (clamped to [1, 128]).  Call
    from the main domain only; growth spawns workers lazily. *)

val with_domain_limit : int -> (unit -> 'a) -> 'a
(** [with_domain_limit d f] runs [f] with the effective width capped at
    [d] (1 = exact sequential execution).  Restores on exit, including
    exceptional exit.  Used by benches and tests to compare domain
    counts within one process. *)

val register_propagator : (unit -> (unit -> unit)) -> unit
(** [register_propagator capture] registers domain-local state to carry
    into workers: at each job submission [capture ()] runs in the
    submitting domain and returns an [install] function that each
    participating worker runs before claiming chunks.  Used by the
    counted field to route operation counts to the submitter's current
    counter, keeping measured totals exact under any domain count. *)

val once : (unit -> 'a) -> unit -> 'a
(** [once f] is a domain-safe lazy value: the first call computes
    [f ()], later calls return the published result.  Unlike
    [Lazy.force], callers on two domains may race: each may compute,
    one result is published and all of them get it, so [f] must be
    pure.  Use it for values a pool body may reach. *)

val parallel_for : ?chunk:int -> int -> (int -> unit) -> unit
(** [parallel_for ?chunk n f] runs [f i] for every [i] in [0, n);
    [chunk] indices per task (default: enough for ~4 chunks per
    domain).  Exceptions raised by [f] are re-raised at the call site
    (first one wins); remaining chunks are skipped. *)

val parallel_for_range : ?chunk:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for] over [lo, hi). *)

val parallel_init : ?chunk:int -> int -> (int -> 'a) -> 'a array
(** Like [Array.init] with the body parallelized; [f] is called exactly
    once per index, results written by index ([f 0] runs first, in the
    calling domain). *)

val parallel_map_array : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map] with the body parallelized. *)

val parallel_list_map : ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map] with the body parallelized (order preserved).  Meant
    for coarse-grained work such as independent harness configurations. *)
