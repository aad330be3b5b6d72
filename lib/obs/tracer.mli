(** Ring-buffered structured event log.

    A tracer is either the shared {!null} (disabled — emission is a single
    mutable-field load and branch, no allocation) or an enabled ring buffer
    of fixed capacity holding the most recent events.  Timestamps are
    simulated time, so traces are deterministic per seed: the same seed
    produces a byte-identical event stream, and enabling tracing never
    perturbs the simulation itself (no events scheduled, no RNG draws).

    Event payloads are deliberately flat — one interned kind, a node, a
    transaction id, an object id, two generic integer slots and one float
    slot.  The ring stores them as a structure of arrays (unboxed float
    columns, int columns), so the enabled path of {!emit8} allocates
    nothing at all; the {!event} record below is a read-side view
    materialised only by {!iter}/{!events}.  Per-kind payload meaning is
    documented in {!Sem} and OBSERVABILITY.md. *)

type event = {
  time : float;  (** simulated ms *)
  ekind : Kind.t;  (** event kind, see {!Sem} *)
  node : int;  (** emitting node, -1 if n/a *)
  txn : int;  (** transaction id, -1 if n/a *)
  oid : int;  (** object id, -1 if n/a *)
  a : int;  (** kind-specific, -1 if n/a *)
  b : int;  (** kind-specific, -1 if n/a *)
  x : float;  (** kind-specific, 0. if n/a *)
}

type t

val null : t
(** The shared disabled tracer: {!enabled} is [false], emission is a no-op,
    {!events} is empty.  Every instrumented component defaults to it. *)

val create : ?capacity:int -> unit -> t
(** An enabled tracer retaining the last [capacity] events (default 2^20).
    Older events are dropped oldest-first; {!dropped} counts them. *)

val enabled : t -> bool
(** Guard for call sites that would otherwise compute payloads eagerly. *)

val emit :
  t ->
  time:float ->
  kind:Kind.t ->
  ?node:int ->
  ?txn:int ->
  ?oid:int ->
  ?a:int ->
  ?b:int ->
  ?x:float ->
  unit ->
  unit
(** Append one event (no-op on a disabled tracer).  Optional-argument
    convenience wrapper over {!emit8}; prefer {!emit8} on hot paths — each
    labelled optional argument boxes an option at the call site. *)

val emit8 :
  t ->
  time:float ->
  kind:Kind.t ->
  node:int ->
  txn:int ->
  oid:int ->
  a:int ->
  b:int ->
  x:float ->
  unit
(** Allocation-free emission: every slot explicit ([-1] / [0.] for n/a).
    The hot-path form — a disabled tracer costs one load and branch, an
    enabled one eight array stores. *)

type sink =
  time:float ->
  kind:int ->
  node:int ->
  txn:int ->
  oid:int ->
  a:int ->
  b:int ->
  x:float ->
  unit
(** A streaming consumer of the event firehose, called from inside
    {!emit8} with the same flat payload.  Sinks see {e every} emitted
    event — including ones the ring subsequently evicts — so a streaming
    consumer (the online protocol checker, {!Online}) is immune to ring
    truncation.  A sink must uphold the determinism contract itself:
    schedule no simulator events, draw no RNG. *)

val set_sink : t -> sink -> unit
(** Install the tracer's sink (one at a time; replaces any previous).
    Raises [Invalid_argument] on the shared disabled {!null} tracer, whose
    emission path is a no-op. *)

val length : t -> int
(** Events currently retained. *)

val dropped : t -> int
(** Events evicted by ring overflow — when nonzero, offline analyses (the
    trace checker in particular) may see a truncated history. *)

val events : t -> event list
(** Retained events, oldest first. *)

val iter : t -> (event -> unit) -> unit
(** Iterate retained events oldest first without materialising a list. *)

val clear : t -> unit
(** Drop all retained events and zero {!dropped}; keeps the capacity. *)
