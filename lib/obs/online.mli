(** Protocol-invariant checking over the trace event stream, with bounded
    state.

    The checker consumes events one {!feed}/{!feed8} call at a time and
    runs them through per-rule state machines, reporting every violation it
    can localise.  Two feeding paths share this one engine, so their
    verdicts agree by construction (pinned by test/test_online.ml across
    chaos seeds):

    - {b online}: subscribe to a live run with {!attach}.  The checker
      becomes the tracer's sink and sees {e every} emitted event, including
      ones the ring subsequently evicts — streaming verdicts are immune to
      ring truncation;
    - {b offline}: {!replay} a completed trace (oldest first, as
      {!Tracer.events} yields it).  Traces with ring-buffer overflow
      ({!Tracer.dropped} > 0) have lost prefix events and can produce false
      positives — callers must treat that verdict as {e inconclusive} (the
      CLI exits with a distinct code), or check online instead.

    Rules:

    - [commit-quorum]: every replicated commit ([txn.commit] without the
      read-only flag) must be decided by rounds in which {e every} received
      vote said commit, and each round's voter set must form a valid write
      quorum — via [is_write_quorum] when supplied (single-round commits
      only), otherwise by checking pairwise intersection against every
      other committed voter set {e of the same shard and membership epoch}
      in the trace (quorum intersection does not hold across
      reconfigurations or shards).  A cross-shard commit contributes one
      round per participant shard ([commit.send] events whose [x] slot
      names the shard).
    - [epoch-fencing]: no commit may rest on evidence from two incompatible
      views — every vote must arrive in the epoch of its round's shard as
      of [commit.send] (epochs are tracked per shard from [view.change]
      events, whose [x] slot names the shard), and that epoch must still
      be in force when the commit is decided.  Traces with no
      [view.change] events are vacuously clean.
    - [cross-shard-atomicity]: a committed cross-shard transaction
      ([xshard.decide] with [a = 1]) must show an [xshard.prepare] round
      for every participant shard, and once the decision is commit no
      replica may subsequently presume abort for that transaction
      ([presumed.abort]) — the termination protocol must surface rescue
      evidence first.  Unsharded traces are vacuously clean.
    - [lease-overlap]: no [lease.grant] for an (object, replica) pair while
      a different transaction's lease is still held there.
    - [partial-abort-scope]: each [txn.partial_abort] targeting scope/
      checkpoint [t] must resume at exactly [t] ([scope.resume] with
      [a = t]), unless the attempt falls back to a root abort first.
    - [rescue-evidence]: a [rescue] whose status round saw a peer report
      the transaction applied (payload [b = 0]) must be preceded in the
      trace by commit evidence for that transaction — an [apply] at some
      replica or the coordinator's own [txn.commit].  Version-advance
      rescues ([b = 1]) are exempt: another transaction's commit can move a
      leased copy across membership views.
    - [widen-read]: once a stale witness is flagged ([widen.add]), every
      subsequent read fan-out by that transaction must include all
      currently-flagged witnesses of the read's shard (until they are
      pruned by [widen.drop]).  A witness binds its current home shard: a
      split that re-homes it ([view.rehome]) rebinds it.
    - [batch-order]: within one batch round ([batch.decide] events sharing
      a batch id), entries decide in strictly increasing queue position —
      decide order is version-install order, so a regression would apply
      versions against queue order.  And a speculative transaction (one
      with a [spec.read] of an undecided predecessor's image, [b = 1])
      never commits in a round its predecessor aborted in, nor before the
      predecessor is decided at all.  Traces from sequential-commit runs
      have no batch events and are vacuously clean.

    Per-transaction rule state retires at [txn.end] and [txn.root_abort]
    (each attempt runs under a fresh txn id) and lease entries at
    [lease.release], so checker memory is O(in-flight transactions) plus
    bounded side tables, not O(trace).  Feeding draws no RNG and schedules
    no simulator events, so an attached checker keeps traced runs
    byte-identical.

    Bounded side tables: commit evidence, cross-shard decisions and batch
    outcomes are consulted only within a bounded horizon of their
    producing transaction (a rescue references a lease-recent txn, a batch
    dependency a queue-recent one), so they live in insertion-order-
    evicting maps of [horizon] entries.  Distinct committed voter sets are
    deduplicated per (shard, epoch) — bounded by the handful of quorums a
    view can produce, not by the number of commits. *)

type violation = {
  rule : string;
  time : float;  (** time of the event that exposed the violation *)
  txn : int;  (** transaction involved, -1 if n/a *)
  detail : string;
}

exception Violation of violation
(** Raised by a [~fail_fast] checker at the first violation, aborting the
    experiment from inside the emission path. *)

type t

val create :
  ?is_write_quorum:(int list -> bool) ->
  ?fail_fast:bool ->
  ?on_violation:(violation -> unit) ->
  ?horizon:int ->
  unit ->
  t
(** [is_write_quorum] enables the structural quorum rule for single-round
    commits (otherwise the pairwise-intersection fallback applies, scoped
    per shard and epoch).  [on_violation] fires at each violation as it is
    detected, with the offending event's simulated time.  [fail_fast]
    additionally raises {!Violation} (after [on_violation]).  [horizon]
    sizes the bounded side tables (default 65536 retained transactions). *)

val feed : t -> Tracer.event -> unit
(** Advance the state machines by one event (record view). *)

val feed8 :
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
(** Flat-payload feeding — the {!Tracer.sink}-shaped hot path. *)

val attach : t -> Tracer.t -> unit
(** Install the checker as [tracer]'s sink ({!Tracer.set_sink}): every
    subsequent emission is fed to the checker as it happens. *)

val flush : t -> unit
(** End-of-stream: judge any still-open read fan-outs (smallest txn id
    first, matching the offline checker's end-of-trace order).  Call when
    the run has drained; idempotent. *)

val finish : t -> violation list
(** {!flush}, then all violations in stream order. *)

val violations : t -> violation list
(** Violations detected so far, in stream order (without flushing). *)

val n_violations : t -> int

val tracked_txns : t -> int
(** Transactions currently holding rule state — the live-memory gauge;
    returns to (near) zero once a run drains. *)

val peak_tracked : t -> int
(** High-water mark of {!tracked_txns} — bounded by the maximum number of
    in-flight transactions, not by trace length. *)

val events_seen : t -> int

val replay :
  ?is_write_quorum:(int list -> bool) -> Tracer.event list -> violation list
(** Offline check of a completed trace: a fresh checker fed every event in
    order, then {!finish}ed.  Violations in trace order.  [is_write_quorum]
    receives the sorted voter node list of a committed transaction. *)

val pp_violation : violation -> string
