(** Discrete-event simulation engine.

    The engine owns virtual time (in milliseconds) and a priority queue of
    events, plus any number of FIFO {!lane}s for timers armed in time
    order.  Everything in the reproduction — network delivery, node
    processing, client think time, failure injection — is an event.  Events
    scheduled for the same instant fire in scheduling order, which together
    with the seeded {!Util.Rng} makes every experiment fully deterministic. *)

type t

val create : ?tracer:Obs.Tracer.t -> unit -> t
(** [tracer] (default {!Obs.Tracer.null}, i.e. disabled) is the structured
    event log every component built on this engine reports into.  The engine
    itself only carries it — components cache it at construction — so
    tracing adds no events, no RNG draws and no time perturbation: runs are
    byte-identical with tracing on or off. *)

val now : t -> float
(** Current virtual time in milliseconds. *)

val tracer : t -> Obs.Tracer.t
(** The tracer supplied at {!create} — the engine is the single place the
    whole component stack fetches it from. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. max 0. delay]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past fire immediately (at [now]). *)

type lane
(** A FIFO queue of events owned by one engine, for a call site whose
    timers are usually armed in nondecreasing time order (a fixed timeout
    or delay added to the clock).  Pushing and popping a lane is O(1),
    against O(log n) for the heap, and a lane's events do not grow the
    heap. *)

val new_lane : t -> lane
(** A fresh empty lane.  Every lane is consulted on each dispatch, so an
    engine should have a handful, not one per object. *)

type handle [@@immediate]
(** Names one event scheduled with {!schedule_in}, for {!disarm}. *)

val no_handle : handle
(** A handle that names no event: disarming it does nothing. *)

val schedule_in : t -> lane -> time:float -> (unit -> unit) -> handle
(** [schedule_in t lane ~time f] is [schedule_at t ~time f], queued on
    [lane] when [time] is no earlier than the lane's newest event and on the
    heap otherwise.  The event takes a fresh seq either way, and dispatch
    always fires the earliest [(time, seq)] across the heap and every lane,
    so the firing order is exactly that of [schedule_at]: a lane only
    changes where an event waits.  The result names the event for
    {!disarm}. *)

val disarm : t -> handle -> unit
(** [disarm t h] replaces the action of [h]'s event with a no-op, so the
    engine stops retaining the closure (a timer whose purpose has passed).
    The event itself stays queued: it still fires at its [(time, seq)],
    counts in {!pending} until then and in {!events_processed} after, so
    disarming changes no seq, no count and no firing order.  Disarming an
    event that has already fired, or one already disarmed, does nothing,
    even when a later event has reused its slot: a handle records its
    event's seq, and only the low 32 bits of it, so it could name a
    stranger only after four billion further events in the same slot. *)

val run : ?until:float -> t -> unit
(** Drain the event queue, advancing virtual time.  With [until], stops once
    the next event lies strictly beyond that time (the clock is then set to
    [until]). *)

val step : t -> bool
(** Execute exactly one event; [false] when the queue is empty. *)

val pending : t -> int
(** Number of queued events, lanes included. *)

val events_processed : t -> int
(** Total events executed since creation. *)
