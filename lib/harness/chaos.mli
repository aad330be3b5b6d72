(** Chaos testing: seeded random fault schedules with safety and liveness
    oracles.

    [run_one] draws a fault schedule from the seed (crash/recover pairs —
    including nodes hosting active clients — minority partitions, loss,
    duplication, latency spikes, flaky links, false suspicions), runs a
    bank workload with clients on every node, drains to quiescence and
    checks:

    - {b safety}: the 1-copy-serializability oracle and the bank's
      total-balance invariant;
    - {b liveness}: a watchdog samples commit progress on a fixed grid
      sized from the lease-termination pipeline and the schedule's longest
      fault window; a window with in-flight transactions but no new
      commits is reported as a stall, with the held leases and live
      coordinators attached.

    Runs are deterministic per seed: a failing seed reproduces exactly
    (same schedule, same interleaving).  The rendered schedule replays
    under [qr-dtm scenario] for interactive debugging. *)

type knobs = {
  nodes : int;
  clients : int;  (** closed-loop clients, round-robin over {e all} nodes *)
  horizon : float;  (** ms of fault + load window before drain *)
  max_crashes : int;  (** crash/recover pairs drawn per schedule: 0..max *)
  read_level : int;
  accounts : int;  (** bank accounts (contention knob) *)
  calls : int;  (** transfers/audits per transaction *)
  read_ratio : float;
  spares : int;  (** extra machines, dark until a join/replace uses them *)
  reconfigs : int;
      (** membership operations drawn per schedule: 0..max — joins, graceful
          leaves and replaces, interleaved with the classic faults *)
  shards : int;  (** shards the cluster partitions the object space into *)
  shard_ops : int;
      (** shard-directory operations drawn per schedule: 0..max — object
          moves and shard splits, valid against a mirror of the evolving
          directory (requires [shards > 1]) *)
  cross_shard_prob : float;
      (** fraction of bank transfers forced across shard boundaries *)
}

val default_knobs : knobs
(** 9 nodes, 18 clients, 8 s horizon, up to 2 crashes, 24 accounts, no
    spares, no membership churn, unsharded. *)

val rolling_knobs : knobs
(** Preset for {!generate_rolling}: 16 s horizon, 2 spares, at most 1
    crash. *)

val initial_shard_of : nodes:int -> shards:int -> int -> int
(** The shard an initial member replicates in {!Core.Cluster.create}'s
    contiguous layout of [nodes] members over [shards] shards. *)

val generate : knobs -> seed:int -> Scenario.event list
(** The fault schedule for [seed] — pure, so tooling can show what a seed
    does without running it.  With [reconfigs > 0] the schedule also draws
    membership churn: join/leave/replace operations over nodes not already
    cast as crash, partition or suspicion victims, valid against the
    evolving member set (a [knobs] with [reconfigs = 0] reproduces the
    pre-churn schedule for the same seed byte-for-byte).  With
    [shards > 1] crash draws are post-filtered so no schedule kills an
    entire shard, churn never draws a leave that takes a shard below 3
    members, and [shard_ops > 0] additionally draws object moves and
    shard splits against a mirror of the evolving directory (never
    splitting a shard the churn shrinks); all the shard draws come after
    the classic ones, so unsharded schedules are byte-identical. *)

val generate_rolling : knobs -> seed:int -> Scenario.event list
(** A rolling-restart schedule: every initial node is replaced exactly
    once (spares and departed nodes recycling through a pool), alongside
    an early crash/recover, a minority partition over the last-replaced
    nodes, and optional message loss.  Raises [Invalid_argument] when
    [spares < 1] or [nodes < 5]. *)

val render_schedule : Scenario.event list -> string
(** Scenario-DSL text of a schedule (replayable via [qr-dtm scenario]). *)

type stall = {
  stall_at : float;
  stall_in_flight : (int * Core.Ids.txn_id) list;  (** (node, txn) *)
  stall_leases : (int * Core.Ids.obj_id * int * float) list;
      (** (replica, oid, owner txn, expiry) *)
}

type result = {
  seed : int;
  events : Scenario.event list;
  commits : int;
  root_aborts : int;
  oracle : (unit, string) Stdlib.result;
  invariant : (unit, string) Stdlib.result;
  stalls : stall list;
  report : Scenario.report;
  quiesced_at : float;  (** simulated ms at full quiescence *)
  view_changes : int;  (** reconfigurations completed *)
  fenced : int;  (** stale-epoch envelopes dropped by the fence *)
  final_epoch : int;
  shards : int;  (** shard count at quiescence (splits can grow it) *)
  xshard_commits : int;  (** commits decided through the cross-shard 2PC *)
  xshard_aborts : int;  (** cross-shard 2PC rounds ending in abort *)
}

val passed : result -> bool
(** Oracle ok, invariant ok, no stalls. *)

val run_one :
  ?config:Core.Config.t ->
  ?tracer:Obs.Tracer.t ->
  ?batch_commit:bool ->
  ?rolling:bool ->
  knobs ->
  seed:int ->
  result
(** The cluster and bank workload come from the knobs through
    {!Experiment.setup}.  Default config: [Config.default Closed] (leases
    enabled).  [tracer] threads a lifecycle tracer through the cluster;
    tracing never perturbs the run, so re-running a failing seed with a
    tracer reproduces it exactly.  [batch_commit] (default off) runs the
    cluster in speculative batch-commit mode (PROTOCOL.md §9) — the same
    oracles and watchdog apply.  [rolling]
    swaps the random schedule for {!generate_rolling}'s full rolling
    restart.  Clients are membership-aware: one whose home node was
    decommissioned resubmits through the next member up (a {e crashed}
    home is still a member, so crash-death semantics are unchanged). *)

val failures : result list -> result list

val pp_stall : Format.formatter -> stall -> unit
val pp_result : Format.formatter -> result -> unit

val result_to_json : result -> string
val results_to_json : result list -> string

val summary : result list -> string
(** One-line aggregate, naming failing seeds if any. *)
