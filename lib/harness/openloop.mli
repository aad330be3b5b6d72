(** Open-loop workload driver: Poisson arrivals at a configured offered
    load over a logical client population in the millions.

    Closed-loop harnesses ({!Experiment.run}) measure the system the
    clients let them measure: when the system slows, the clients slow with
    it and latency percentiles flatten.  Here arrivals do not wait —
    inter-arrival gaps are exponential with mean [1000/rate] ms, and
    excess offered load piles into per-node admission queues.  The driver
    therefore reports {b queueing delay} (arrival → admission) separately
    from {b service latency} (admission → completion): under saturation
    the former grows without bound while the latter stays flat, and
    conflating them is the classic coordinated-omission mistake.

    {b Lazy client state.}  A logical client is nothing but a number in
    [0, population): its home node is [client mod nodes] and each of its
    requests derives a fresh RNG from (seed, client, arrival ordinal), so
    no per-client record exists — resident memory is O(backlog), not
    O(population), and a ≥1M-client run fits comfortably.  Object and
    shard skew come from the workload's own [params] (Zipf [key_skew] /
    [shard_skew]), exactly as in closed-loop runs.

    {b Percentiles.}  Latency and queue-delay samples land in the
    constant-memory {!Util.Hdr} histograms on {!Core.Metrics}, so
    p50/p95/p99 survive millions of samples without storing them.

    Deterministic per seed, like every other driver in the harness. *)

type result = {
  label : string;
  duration : float;  (** measurement window, simulated ms *)
  offered_load : float;  (** configured arrivals per second *)
  achieved_load : float;  (** completions per second inside the window *)
  population : int;  (** logical clients *)
  arrivals : int;  (** arrivals inside the measurement window *)
  completions : int;
  commits : int;
  aborts : int;
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
  invariant : (unit, string) Stdlib.result;
  consistent : (unit, string) Stdlib.result;
}

val run :
  ?warmup:float ->
  ?duration:float ->
  ?population:int ->
  ?max_per_node:int ->
  rate:float ->
  Experiment.spec ->
  result
(** [rate] is the offered load in requests per second of simulated time
    ([Invalid_argument] if nonpositive).  [population] (default 1,000,000)
    sizes the logical client space; [max_per_node] (default 4) caps
    concurrently admitted requests per node — beyond it arrivals queue and
    accrue queueing delay.  Warm-up (default 2 s) completions are
    discarded (counter reset), arrivals stop at the close of the
    [duration] window (default 30 s), and the remaining backlog drains
    before the invariant/oracle checks run.  The cluster and workload come
    from the spec, through {!Experiment.setup}. *)

val pp_result : Format.formatter -> result -> unit
val to_json : result -> string
