(** Single-configuration experiment runner.

    One run = build a cluster, set up a benchmark, install a fault
    schedule, drive a {!load} (closed-loop clients or open-loop arrivals)
    through warm-up and a measurement window, snapshot the counters at the
    window's close, drive the engine to quiescence under a liveness
    watchdog, and verify both the benchmark invariant and the 1-copy
    oracle.  [qr-dtm run], [scenario], [chaos] and the figures all run
    through {!run}.  All defaults mirror the paper's testbed scaled to the
    simulator (see DESIGN.md). *)

type stall = {
  stall_at : float;
  stall_in_flight : (int * Core.Ids.txn_id) list;  (** (node, txn) *)
  stall_leases : (int * Core.Ids.obj_id * int * float) list;
      (** (replica, oid, owner txn, expiry) *)
}
(** A watchdog window with transactions in flight but no new commit, or
    a run abandoned without quiescing. *)

type open_stats = {
  offered_load : float;  (** configured arrivals per second *)
  achieved_load : float;  (** completions per second inside the window *)
  population : int;  (** logical clients *)
  arrivals : int;  (** arrivals inside the measurement window *)
  completions : int;  (** completions inside the measurement window *)
  service_mean : float;
  service_p50 : float;
  service_p95 : float;
  service_p99 : float;
  queue_mean : float;
  queue_p50 : float;
  queue_p95 : float;
  queue_p99 : float;
  peak_backlog : int;
      (** high-water mark of queued-but-unadmitted requests (measurement
          window onwards) *)
  final_backlog : int;
      (** backlog at window close — growing/nonzero means the offered load
          exceeded capacity (saturation) *)
}
(** What an open-loop run adds to its {!result}.  Service latency
    (admission → completion) and queueing delay (arrival → admission) are
    reported apart, from the constant-memory {!Util.Hdr} histograms on
    {!Core.Metrics}; they cover the warm-up's end to quiescence, so they
    include the requests still queued at the window's close. *)

type result = {
  label : string;
  duration : float;  (** measurement window, ms *)
  commits : int;
      (** committed client roots: an open-nested sub-transaction or a
          compensation commits as a root of its own and is not counted
          here.  Every other counter, the latency percentiles and abort
          counts included, still counts them. *)
  read_only_commits : int;
  throughput : float;  (** committed client roots per second *)
  root_aborts : int;
  partial_aborts : int;
  abort_rate : float;
      (** aborts / (commits + aborts), over every root, sub-transactions
          included *)
  ct_commits : int;
  compensations : int;  (** open-nesting compensations started *)
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
  open_loop : open_stats option;  (** [Some] exactly for an {!Open} load *)
  report : Scenario.report option;
      (** the fault report, taken once the run quiesced ([None] from
          {!run_system}) *)
  invariant : (unit, string) Stdlib.result;
  consistent : (unit, string) Stdlib.result;
}

val passed : result -> bool
(** Invariant ok, oracle ok, no stalls. *)

val pp_result : Format.formatter -> result -> unit
(** One line.  An open-loop run prints its offered and achieved load,
    arrivals, service and queueing percentiles and backlog in place of
    the closed loop's counters. *)

(** {2 Run setup}

    Every QR-DTM run builds its cluster and workload from one [spec]
    through {!setup}. *)

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

(** {2 Running} *)

type load =
  | Closed of { clients : int; client_nodes : int list option }
      (** [clients] closed-loop clients, each submitting its next
          transaction when the last one finishes.  Client [c] lives on
          [client_nodes.(c mod n)] ([None]: every initial member) and draws
          its transactions from its own split of a [seed * 7919]
          generator.  Clients are membership-aware: one whose node left
          the view resubmits through the next member up; one whose node
          crashed dies with it. *)
  | Open of { rate : float; population : int; max_per_node : int }
      (** Poisson arrivals at [rate] requests per second of simulated
          time, drawn from a [seed * 7919] generator, from [population]
          logical clients.  A client is only a number: its home node is
          [client mod nodes], and each request derives its own generator
          from (seed, client, arrival ordinal), so resident state is
          O(backlog), not O(population).  Each node admits at most
          [max_per_node] requests at once; later arrivals wait in the
          node's FIFO and accrue queueing delay.  Arrivals do not wait for
          the system, so an overloaded run shows a growing backlog rather
          than flattened latencies (the coordinated-omission mistake of
          closed loops). *)
(** The offered load of a {!run}. *)

val load_error : load -> string option
(** Why {!run} would reject [load]: an open load's [rate] must be positive
    and finite, its [population] and [max_per_node] at least 1. *)

val run :
  ?load:load ->
  ?warmup:float ->
  ?duration:float ->
  ?events:Scenario.event list ->
  ?telemetry:Obs.Telemetry.t ->
  spec ->
  result
(** Drive [load] (default [Closed { clients = 26; client_nodes = None }],
    2 per node) through a 2 s warm-up and a 30 s measurement window.  The
    warm-up's end zeroes the counters (and an open load's arrival count
    and backlog watermark); the window's close stops the load and takes
    the counters.  Raises [Invalid_argument] when {!load_error} rejects
    [load].

    [events] (default none) is installed with {!Scenario.install} before
    the load starts; it raises [Invalid_argument] when
    {!Scenario.validate} rejects them.  After the measurement window the
    engine runs to quiescence in watchdog windows sized from the config
    and the schedule; commit-free windows with transactions in flight are
    reported in [stalls], and a run that stops committing past the window
    without quiescing is abandoned with a stall.  Either load shape can
    stall: under open load, requests admitted on a crashed node never
    complete, and the backlog queued behind them stays queued.
    [telemetry] samples windowed time series on its own grid while the
    engine runs, pull-model, without scheduling any engine event, so it
    never perturbs results (nor does [spec.tracer]). *)

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
