(** Chaos testing: seeded random fault schedules with safety and liveness
    oracles.

    Chaos is a schedule generator.  {!generate} draws a fault schedule
    from the knobs and the run spec's seed (crash/recover pairs —
    including nodes hosting active clients — minority partitions, loss,
    duplication, latency spikes, flaky links, false suspicions,
    membership churn, shard moves and splits).  {!run} runs it through
    {!Experiment.run} with clients on every node and no warm-up, and
    checks:

    - {b safety}: the 1-copy-serializability oracle and the workload's
      invariant (the bank's total balance);
    - {b liveness}: {!Experiment.run}'s watchdog, sized from the
      lease-termination pipeline and the schedule's longest fault window;
      a window with in-flight transactions but no new commits is reported
      as a stall, with the held leases and live coordinators attached.

    Runs are deterministic per seed, and [qr-dtm scenario] runs a schedule
    the same way, so a failing seed's printed schedule replays exactly
    (same interleaving, same verdict). *)

type knobs = {
  horizon : float;  (** ms of fault + load window before the drain *)
  max_crashes : int;  (** crash/recover pairs drawn per schedule: 0..max *)
  reconfigs : int;
      (** membership operations drawn per schedule: 0..max — joins, graceful
          leaves and replaces, interleaved with the classic faults *)
  shard_ops : int;
      (** shard-directory operations drawn per schedule: 0..max — object
          moves and shard splits, valid against a mirror of the evolving
          directory (needs a spec with [shards > 1]) *)
}
(** What the schedule draws.  Everything else — nodes, spares, shards,
    the workload — comes from the {!Experiment.spec}. *)

val default_knobs : knobs
(** 8 s horizon, up to 2 crashes, no membership or directory churn. *)

val rolling_knobs : knobs
(** Preset for {!generate_rolling}: 16 s horizon, at most 1 crash.  Run it
    on a spec with spares (the CLI's [--rolling] default is 2). *)

val default_spec : Experiment.spec
(** Chaos's workload: 9 nodes, seed 1, no spares, one shard, closed
    nesting, the bank with 24 accounts, 3 calls per transaction, 30 %
    reads and key skew 0.5. *)

val generate : knobs -> Experiment.spec -> Scenario.event list
(** The fault schedule for [spec.seed] over [spec]'s nodes, spares, shards
    and objects — pure, so tooling can show what a seed does without
    running it.  With [reconfigs > 0] the schedule also draws membership
    churn: join/leave/replace operations over nodes not already cast as
    crash, partition or suspicion victims, valid against the evolving
    member set (a [knobs] with [reconfigs = 0] reproduces the pre-churn
    schedule for the same seed).  With [shards > 1] crash draws are
    post-filtered so no schedule kills an entire shard, churn never draws
    a leave that takes a shard below 3 members, and [shard_ops > 0]
    additionally draws object moves and shard splits against a mirror of
    the evolving directory (never splitting a shard the churn shrinks);
    all the shard draws come after the classic ones, so unsharded
    schedules are unchanged. *)

val generate_rolling : knobs -> Experiment.spec -> Scenario.event list
(** A rolling-restart schedule: every initial node is replaced exactly
    once (spares and departed nodes recycling through a pool), alongside
    an early crash/recover, a minority partition over the last-replaced
    nodes, and optional message loss.  Raises [Invalid_argument] when
    [spec.spares < 1] or [spec.nodes < 5]. *)

type result = {
  seed : int;
  events : Scenario.event list;
  run : Experiment.result;  (** its [report] is always present *)
}

val passed : result -> bool
(** {!Experiment.passed} of the run: oracle ok, invariant ok, no stalls. *)

val run : clients:int -> horizon:float -> Experiment.spec -> Scenario.event list -> result
(** Run a schedule: {!Experiment.run} with [clients] closed-loop clients
    round-robin over every initial node, no warm-up and a [horizon]-long
    window, then the drain.  [qr-dtm scenario] runs its schedule through
    here too.  A tracer in [spec] never perturbs the run. *)

val run_one : ?rolling:bool -> clients:int -> knobs -> Experiment.spec -> result
(** [run] on {!generate}'s schedule, or {!generate_rolling}'s with
    [rolling]. *)

val failures : result list -> result list

val pp_result : Format.formatter -> result -> unit
(** The verdict block: seed and pass/fail, the schedule, the end-of-run
    counters, the oracle and invariant, and any stalls. *)

val result_to_json : result -> string
val results_to_json : result list -> string

val summary : result list -> string
(** One-line aggregate, naming failing seeds if any. *)
