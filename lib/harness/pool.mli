(** Domain-parallel execution of independent simulation runs.

    A single global pool fans submitted thunks across OCaml 5 domains.
    With [jobs () = 1] (the library default) everything runs inline on the
    calling domain, byte-identical to the historical sequential harness;
    drivers opt into parallelism with {!set_jobs} (the CLI's [--jobs]
    flag, default {!default_jobs}).

    Thunks must be self-contained: they may not share mutable state with
    each other (each experiment builds its own simulator, RNG streams and
    metrics, so whole experiment runs qualify — see DESIGN.md, "Parallel
    safety").  Results are collected in submission order, so {!map} is
    observationally equivalent to [List.map] regardless of [jobs].

    Awaiting is {e work-helping}: an executor blocked on a pending future
    runs other queued tasks meanwhile, so tasks may themselves call {!map}
    (nested fan-out) without deadlocking the fixed-size pool. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI default for [--jobs]. *)

val jobs : unit -> int
(** Currently configured parallelism (1 = sequential, no domains). *)

val set_jobs : int -> unit
(** Set the number of concurrent executors (clamped to >= 1).  Shuts down
    any existing worker domains; the pool respawns lazily at the next
    parallel call.  Call from the main domain only, between parallel
    sections. *)

val shutdown : unit -> unit
(** Join all worker domains (also registered via [at_exit]). *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map], results in submission (list) order.  Exceptions
    raised by [f] are re-raised at the corresponding position. *)
