(** Single-configuration experiment runner.

    One run = build a cluster, set up a benchmark, install a fault
    schedule, drive closed-loop clients through warm-up and a measurement
    window, snapshot the counters at the window's close, drive the engine
    to quiescence under a liveness watchdog, and verify both the benchmark
    invariant and the 1-copy oracle.  [qr-dtm run], [scenario] and [chaos]
    and the figures all run through {!run}.  All defaults mirror the
    paper's testbed scaled to the simulator (see DESIGN.md). *)

type stall = {
  stall_at : float;
  stall_in_flight : (int * Core.Ids.txn_id) list;  (** (node, txn) *)
  stall_leases : (int * Core.Ids.obj_id * int * float) list;
      (** (replica, oid, owner txn, expiry) *)
}
(** A watchdog window with transactions in flight but no new commit, or
    a run abandoned without quiescing. *)

type result = {
  label : string;
  duration : float;  (** measurement window, ms *)
  commits : int;
  read_only_commits : int;
  throughput : float;  (** committed transactions per second *)
  root_aborts : int;
  partial_aborts : int;
  abort_rate : float;  (** aborts / (commits + aborts) *)
  ct_commits : int;
  checkpoints : int;
  messages : int;
  messages_by_kind : (string * int) list;
  remote_reads : int;
  local_reads : int;
  mean_latency : float;
  p50_latency : float;
  p95_latency : float;
  p99_latency : float;
  speculation_aborts : int;
      (** batch mode: retries forced by a failed predecessor (0 sequential) *)
  batches : int;  (** batch quorum rounds sent (0 sequential) *)
  batch_occupancy_p50 : float;  (** median transactions per batch round *)
  batch_occupancy_p95 : float;
  cross_shard_commits : int;
      (** commits decided through the cross-shard 2PC (0 unsharded) *)
  cross_shard_aborts : int;  (** cross-shard 2PC rounds ending in abort *)
  cross_shard_share : float;  (** fraction of commits that were cross-shard *)
  stalls : stall list;  (** the liveness watchdog's findings, in time order *)
  report : Scenario.report option;
      (** the fault report, taken once the run quiesced ([None] from
          {!run_system}) *)
  invariant : (unit, string) Stdlib.result;
  consistent : (unit, string) Stdlib.result;
}

val passed : result -> bool
(** Invariant ok, oracle ok, no stalls. *)

val pp_result : Format.formatter -> result -> unit

(** {2 Run setup}

    Both QR-DTM drivers — the closed loop below and {!Openloop.run} —
    build their cluster and workload from one [spec] through {!setup};
    each driver adds only its own knobs. *)

type spec = {
  nodes : int;  (** initial members *)
  spares : int;  (** dark stand-by machines outside the initial view *)
  seed : int;
  read_level : int;
  service_time : float;  (** per-message processing cost, ms *)
  with_oracle : bool;  (** record history for the 1-copy oracle *)
  tracer : Obs.Tracer.t;
  batch_commit : bool;
  shards : int;
  config : Core.Config.t;
  benchmark : Benchmarks.Workload.benchmark;
  params : Benchmarks.Workload.params;
}

val spec :
  ?nodes:int ->
  ?spares:int ->
  ?seed:int ->
  ?read_level:int ->
  ?service_time:float ->
  ?with_oracle:bool ->
  ?tracer:Obs.Tracer.t ->
  ?batch_commit:bool ->
  ?shards:int ->
  config:Core.Config.t ->
  benchmark:Benchmarks.Workload.benchmark ->
  params:Benchmarks.Workload.params ->
  unit ->
  spec
(** Defaults: 13 nodes, no spares, seed 97, read level 1, 0.25 ms service
    time, oracle on, tracing off, sequential commit, one shard.  The
    cluster-level fields mean what they mean to {!Core.Cluster.create}. *)

val setup : spec -> Core.Cluster.t * Benchmarks.Workload.instance
(** Create the cluster and install the benchmark on it. *)

val run :
  ?clients:int ->
  ?warmup:float ->
  ?duration:float ->
  ?client_nodes:int list ->
  ?events:Scenario.event list ->
  ?telemetry:Obs.Telemetry.t ->
  spec ->
  result
(** The closed loop: 26 clients (2 per node) by default, 2 s warm-up,
    30 s measurement.  Client [c] lives on [client_nodes.(c mod n)]
    (default: every initial member) and draws its transactions from its
    own split of a [seed * 7919] generator.  Clients are membership-aware:
    one whose node left the view resubmits through the next member up; one
    whose node crashed dies with it.

    [events] (default none) is installed with {!Scenario.install} before
    the clients start; it raises [Invalid_argument] when
    {!Scenario.validate} rejects them.  After the measurement window the
    engine runs to quiescence in watchdog windows sized from the config
    and the schedule; commit-free windows with transactions in flight are
    reported in [stalls], and a run that stops committing past the window
    without quiescing is abandoned with a stall.  [telemetry] samples
    windowed time series on its own grid while the engine runs,
    pull-model, without scheduling any engine event, so it never perturbs
    results (nor does [spec.tracer]). *)

(** {2 Generic systems (Fig. 9 baselines)}

    A first-class handle over any DTM in the repository so one client loop
    drives QR-DTM, TFA and Decent-STM identically. *)

type system = {
  name : string;
  node_count : int;
  alloc : init:Core.Txn.value -> Core.Ids.obj_id;
  submit :
    node:int -> (unit -> Core.Txn.t) -> on_done:(Core.Executor.outcome -> unit) -> unit;
  run_for : float -> unit;
  drain : unit -> unit;
  now : unit -> float;
  metrics : Core.Metrics.t;
  messages : unit -> int;
  reset : unit -> unit;
  check : unit -> (unit, string) Stdlib.result;
}

val qr_system :
  ?nodes:int -> ?seed:int -> ?read_level:int -> Core.Config.t -> system

val tfa_system : ?nodes:int -> ?seed:int -> unit -> system
val decent_system : ?nodes:int -> ?seed:int -> unit -> system

val run_system :
  system ->
  ?clients:int ->
  ?warmup:float ->
  ?duration:float ->
  gen_txn:(Util.Rng.t -> unit -> Core.Txn.t) ->
  seed:int ->
  unit ->
  result
(** Drive [clients] closed-loop clients of [gen_txn] transactions over the
    given system and report the measurement window. *)
