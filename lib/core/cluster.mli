(** A complete QR-DTM deployment: simulated nodes, replicated store, tree
    quorums, failure detection, and a transaction executor.

    This is the top of the core library's public API — the examples, the
    experiment harness, and most tests build a cluster, install objects,
    submit transaction programs, and read the metrics back.

    Quorum assignment follows the paper: each node is designated a read and
    a write quorum, derived from the ternary tree with the node id as the
    rotation salt so load spreads over equivalent majorities.  Assignments
    are cached and recomputed when a failure is detected.

    {b Membership is a first-class mutable view}: the cluster tracks an
    epoch number and the current member set.  A {!view_change} — a node
    joining (a spare machine state-syncs and enters the next view), a
    graceful leave (lease drain and state handoff), an atomic replace (for
    rolling restarts), an object move or a shard split — runs mid-experiment
    through {!view_change_at}.  Every protocol envelope carries the sender's
    epoch; traffic from a superseded view is fenced (see
    {!Sim.Rpc.set_fencing}).  Departed nodes return to the spare pool and
    may be joined again later.

    {b The object space can be sharded}: with [~shards:k], the machines are
    partitioned into [k] disjoint shards, each with its own member view,
    epoch and quorum tree; a shard directory maps every object to its
    owning shard.  Transactions touching one shard run today's one-round
    commit; transactions spanning shards commit through a presumed-abort
    two-phase protocol across the participant shards' write quorums
    (PROTOCOL.md §10).  Moves and splits reshape the directory mid-run.
    With the default [~shards:1] everything below behaves —
    byte-identically — as the unsharded cluster. *)

type t

val create :
  ?nodes:int ->
  ?spares:int ->
  ?seed:int ->
  ?topology:Sim.Topology.t ->
  ?service_time:float ->
  ?read_level:int ->
  ?detection_delay:float ->
  ?detection_jitter:float ->
  ?with_oracle:bool ->
  ?tracer:Obs.Tracer.t ->
  ?batch_commit:bool ->
  ?shards:int ->
  Config.t ->
  t
(** Defaults: 13 nodes (the paper's Fig. 3 tree), metric-space topology with
    ~15 ms mean one-way latency, 0.25 ms per-message service time,
    [read_level = 1], oracle enabled, tracing disabled.  Passing an enabled
    [tracer] threads it through every layer (engine, network, RPC, servers,
    replicas, executor); tracing draws no randomness and schedules no
    events, so results stay byte-identical to an untraced run.

    [batch_commit] (default off) turns on queue-oriented speculative batch
    commit (PROTOCOL.md §9): commit requests are queued and decided one
    quorum round per batch, with queued successors executing speculatively
    against predecessors' write images.  Off, behavior is byte-identical
    to the sequential per-transaction protocol.

    [spares] (default 0) provisions that many extra machines beyond
    [nodes]: they exist on the topology but start decommissioned (network
    down, outside the view) until a [Join] or [Replace] view change brings
    them in.  {!nodes} reports total capacity ([nodes + spares]);
    {!members} is the current view.

    [shards] (default 1) partitions the initial members into that many
    contiguous, near-equal shards ({!View.initial_shards}); objects map to
    shard [oid mod shards] until moved.  Raises [Invalid_argument] when
    {!View.layout_error} rejects the layout (a shard of fewer than
    {!View.min_members}). *)

val engine : t -> Sim.Engine.t

val network : t -> (Messages.request, Messages.reply) Sim.Rpc.envelope Sim.Network.t
val executor : t -> Executor.t
val metrics : t -> Metrics.t
val oracle : t -> Oracle.t option
val failure : t -> Sim.Failure.t

val nodes : t -> int
(** Total machine capacity, including spares and departed nodes — the
    valid range of node ids.  See {!members} for the current view. *)

val members : t -> int list
(** The current membership view — the union of every shard's members —
    sorted ascending. *)

val is_member : t -> int -> bool

val epoch : t -> int
(** The cluster-wide view epoch: the sum of the shard epochs, 0 at
    creation (with one shard, exactly that shard's epoch).  A view change
    bumps the epoch of every shard it involves; a split's new shard starts
    at its parent's new epoch. *)

(** {2 Shards} *)

val shard_count : t -> int
(** Number of shards (1 unless created with [~shards] or grown by a
    [Split]). *)

val shard_of_oid : t -> Ids.obj_id -> int
(** The shard directory: which shard owns this object right now. *)

val shard_members : t -> shard:int -> int list
(** One shard's current member view, sorted ascending. *)

val home_shard_of : t -> node:int -> int
(** The shard a node replicates (spares report the shard they last
    served, 0 before any join). *)

val view : t -> View.t
(** A copy of the live view — members, homes, directory — to check a
    schedule against ({!View.check}).  The cluster never records crashes
    in it. *)

val ids : t -> Ids.gen
val now : t -> float

val alloc_object : t -> init:Txn.value -> Ids.obj_id
(** Allocate a fresh object id and install it (version 0) on every member
    replica. *)

val install_object : t -> oid:Ids.obj_id -> init:Txn.value -> unit
(** (Re)install an object at version 0 on every member of its owning
    shard — setup-time only.  Nodes joining later receive state through
    the view-change pipeline instead. *)

val store_of : t -> node:int -> Store.Replica.t
(** Direct replica access, for tests and white-box assertions. *)

val server_of : t -> node:int -> Server.t
(** Direct protocol-handler access, for tests that hand-deliver requests
    (e.g. staging a decided-but-partially-applied commit). *)

val read_quorum_of : t -> node:int -> int list
(** The node's designated read quorum over its {e home} shard (empty while
    that shard is wedged or quorum-starved). *)

val write_quorum_of : t -> node:int -> int list

val submit :
  t -> node:int -> (unit -> Txn.t) -> on_done:(Executor.outcome -> unit) -> unit
(** Run a root transaction on [node] (see {!Executor.run_root}). *)

val run_program : t -> node:int -> (unit -> Txn.t) -> Executor.outcome
(** Convenience for tests and examples: submit, then drive the engine until
    the transaction finishes.  Other concurrently submitted work also runs. *)

val fail_node_at : t -> at:float -> node:int -> unit
(** Schedule a fail-stop.  Quorum caches refresh when detection fires. *)

val recover_node_at : t -> at:float -> node:int -> unit
(** Schedule a crashed node to restart at [at]: its network presence is
    revived and it rejoins through the pipeline below, re-entering quorum
    construction only once it holds its home shard's frontier. *)

val suspect_node_at : ?clear_after:float -> t -> at:float -> node:int -> unit
(** Inject a false suspicion: the live node is excluded from new quorums at
    [at] and (if [clear_after] is given) rejoins, as a recovered node does,
    that much later. *)

(** {2 View changes}

    Every change to a shard's members or to the object directory, and
    every rejoin of a recovered or cleared node, runs the same fenced
    pipeline (PROTOCOL.md §8): wedge the involved shards (quorum
    construction pauses; in-flight rounds land or expire), pull the source
    shard's committed frontier through an outgoing-view read ∪ write
    quorum ([Sync_req]), install the new view and bump every involved
    shard's epoch, push the frontier to the reachable incoming-view
    members, unwedge, and — when a node departs — drain the leaver (it
    sheds its leases and live coordinators before going dark).  Rejoiners
    instead adopt the frontier and re-enter quorum construction.

    A replace is one atomic swap under one epoch bump (the rolling-restart
    building block); a move pushes the object's committed row to the
    destination members before the directory entry flips, and bumps both
    shards' epochs.

    One run goes at a time across the whole cluster, each starting one
    request timeout after the previous one finishes.  Waiting rejoins go
    first, all in one run; changes queue FIFO.  A change is checked when it
    starts, with {!View.check} against the live view of that moment, and a
    change it rejects raises [Invalid_argument "Cluster: <rule>"]. *)

val view_change_at : ?on_done:(unit -> unit) -> t -> at:float -> View.change -> unit
(** Submit [change] at simulated time [at].  [on_done] fires when its
    pipeline completes. *)

val run_for : t -> float -> unit
(** Advance simulated time by the given number of milliseconds. *)

val drain : t -> unit
(** Run the engine until the event queue is empty — e.g. to let in-flight
    commit-apply messages land before inspecting replicas.  Only terminates
    once no client keeps resubmitting work. *)

val check_consistency : t -> (unit, string) result
(** Run the 1-copy-serializability oracle (error if the oracle is off). *)

val reset_counters : t -> unit
(** Zero the metrics and network counters — call at the end of warm-up so
    only the measurement window is reported. *)

val messages_sent : t -> int
val messages_by_kind : t -> (string * int) list
val messages_dropped : t -> int
val messages_duplicated : t -> int

val retransmit_exhausted : t -> int
(** At-least-once deliveries (Apply / Release) that ran out of
    retransmission attempts without an acknowledgement — previously silent;
    see {!Sim.Rpc.give_ups}. *)

val fenced_messages : t -> int
(** Stale-epoch envelopes dropped by the membership fence (see
    {!Sim.Rpc.fenced}). *)

val in_flight : t -> (int * Ids.txn_id) list
(** Live root transactions as [(coordinator node, txn id)] — stall-report
    diagnostics. *)

val held_leases : t -> (int * Ids.obj_id * int * float) list
(** Every write-lock lease currently held across the cluster, as
    [(replica node, oid, owner txn, expiry)] — stall-report diagnostics. *)
