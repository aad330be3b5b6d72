type t = {
  mutable resets : int;
  mutable latencies : Util.Stats.t;
  mutable commits : int;
  mutable read_only_commits : int;
  mutable root_aborts : int;
  mutable partial_aborts : int;
  mutable ct_commits : int;
  mutable checkpoints : int;
  mutable local_reads : int;
  mutable remote_reads : int;
  mutable quorum_retries : int;
  mutable open_commits : int;
  mutable compensations : int;
  mutable syncs : int;
  mutable recoveries : int;
  mutable recovery_times : Util.Stats.t;
  mutable lease_expirations : int;
  mutable presumed_aborts : int;
  mutable status_rescued_commits : int;
  mutable commit_deadline_aborts : int;
  mutable read_widenings : int;
  mutable stalls_detected : int;
  mutable view_changes : int;
  mutable speculative_reads : int;
  mutable speculation_aborts : int;
  mutable batches : int;
  mutable batch_occupancy : Util.Stats.t;
  mutable cross_shard_commits : int;
  mutable cross_shard_aborts : int;
  (* Open-loop load channel (Harness.Experiment's open load): constant-memory
     HDR histograms so SLO percentiles survive millions of samples.  Queueing
     delay (arrival -> admission) is kept apart from service latency
     (admission -> completion): under saturation the former grows without
     bound while the latter stays flat — conflating them is the classic
     closed-loop reporting mistake. *)
  mutable open_completions : int;
  open_queue_delay : Util.Hdr.t;
  open_service : Util.Hdr.t;
}

let create () =
  {
    resets = 0;
    commits = 0;
    read_only_commits = 0;
    root_aborts = 0;
    partial_aborts = 0;
    ct_commits = 0;
    checkpoints = 0;
    local_reads = 0;
    remote_reads = 0;
    quorum_retries = 0;
    open_commits = 0;
    compensations = 0;
    syncs = 0;
    recoveries = 0;
    recovery_times = Util.Stats.create ();
    latencies = Util.Stats.create ();
    lease_expirations = 0;
    presumed_aborts = 0;
    status_rescued_commits = 0;
    read_widenings = 0;
    commit_deadline_aborts = 0;
    stalls_detected = 0;
    view_changes = 0;
    speculative_reads = 0;
    speculation_aborts = 0;
    batches = 0;
    batch_occupancy = Util.Stats.create ();
    cross_shard_commits = 0;
    cross_shard_aborts = 0;
    open_completions = 0;
    open_queue_delay = Util.Hdr.create ();
    open_service = Util.Hdr.create ();
  }

let reset t =
  t.resets <- t.resets + 1;
  t.commits <- 0;
  t.read_only_commits <- 0;
  t.root_aborts <- 0;
  t.partial_aborts <- 0;
  t.ct_commits <- 0;
  t.checkpoints <- 0;
  t.local_reads <- 0;
  t.remote_reads <- 0;
  t.quorum_retries <- 0;
  t.open_commits <- 0;
  t.compensations <- 0;
  t.syncs <- 0;
  t.recoveries <- 0;
  t.recovery_times <- Util.Stats.create ();
  t.latencies <- Util.Stats.create ();
  t.lease_expirations <- 0;
  t.presumed_aborts <- 0;
  t.status_rescued_commits <- 0;
  t.read_widenings <- 0;
  t.commit_deadline_aborts <- 0;
  t.stalls_detected <- 0;
  t.view_changes <- 0;
  t.speculative_reads <- 0;
  t.speculation_aborts <- 0;
  t.batches <- 0;
  t.batch_occupancy <- Util.Stats.create ();
  t.cross_shard_commits <- 0;
  t.cross_shard_aborts <- 0;
  t.open_completions <- 0;
  Util.Hdr.reset t.open_queue_delay;
  Util.Hdr.reset t.open_service

let note_commit t ~latency =
  t.commits <- t.commits + 1;
  Util.Stats.add t.latencies latency

let note_read_only_commit t ~latency =
  t.commits <- t.commits + 1;
  t.read_only_commits <- t.read_only_commits + 1;
  Util.Stats.add t.latencies latency

let note_root_abort t = t.root_aborts <- t.root_aborts + 1
let note_partial_abort t = t.partial_aborts <- t.partial_aborts + 1
let note_ct_commit t = t.ct_commits <- t.ct_commits + 1
let note_checkpoint t = t.checkpoints <- t.checkpoints + 1
let note_local_read t = t.local_reads <- t.local_reads + 1
let note_remote_read t = t.remote_reads <- t.remote_reads + 1
let note_quorum_retry t = t.quorum_retries <- t.quorum_retries + 1
let note_open_commit t = t.open_commits <- t.open_commits + 1
let note_compensation t = t.compensations <- t.compensations + 1
let note_sync t = t.syncs <- t.syncs + 1

let note_recovery t ~duration =
  t.recoveries <- t.recoveries + 1;
  Util.Stats.add t.recovery_times duration

let note_lease_expired t = t.lease_expirations <- t.lease_expirations + 1
let note_presumed_abort t = t.presumed_aborts <- t.presumed_aborts + 1
let note_status_rescue t = t.status_rescued_commits <- t.status_rescued_commits + 1
let note_read_widening t = t.read_widenings <- t.read_widenings + 1

let note_commit_deadline_abort t =
  t.commit_deadline_aborts <- t.commit_deadline_aborts + 1

let note_stall t = t.stalls_detected <- t.stalls_detected + 1
let note_speculative_read t = t.speculative_reads <- t.speculative_reads + 1

let note_speculation_abort t =
  (* a speculation abort is also a root abort (the attempt retries) *)
  t.speculation_aborts <- t.speculation_aborts + 1

let note_batch t ~occupancy =
  t.batches <- t.batches + 1;
  Util.Stats.add t.batch_occupancy (Float.of_int occupancy)
let note_view_change t = t.view_changes <- t.view_changes + 1
let note_cross_shard_commit t = t.cross_shard_commits <- t.cross_shard_commits + 1

let note_cross_shard_abort t =
  (* counted alongside the root abort the 2PC failure also records *)
  t.cross_shard_aborts <- t.cross_shard_aborts + 1

let note_open_loop_done t ~queue_delay ~service =
  t.open_completions <- t.open_completions + 1;
  Util.Hdr.add t.open_queue_delay queue_delay;
  Util.Hdr.add t.open_service service

let resets t = t.resets
let commits t = t.commits
let read_only_commits t = t.read_only_commits
let root_aborts t = t.root_aborts
let partial_aborts t = t.partial_aborts
let total_aborts t = t.root_aborts + t.partial_aborts
let ct_commits t = t.ct_commits
let checkpoints t = t.checkpoints
let local_reads t = t.local_reads
let remote_reads t = t.remote_reads
let quorum_retries t = t.quorum_retries
let open_commits t = t.open_commits
let compensations t = t.compensations
let syncs t = t.syncs
let recoveries t = t.recoveries
let lease_expirations t = t.lease_expirations
let presumed_aborts t = t.presumed_aborts
let status_rescued_commits t = t.status_rescued_commits
let read_widenings t = t.read_widenings
let commit_deadline_aborts t = t.commit_deadline_aborts
let stalls_detected t = t.stalls_detected
let view_changes t = t.view_changes
let speculative_reads t = t.speculative_reads
let speculation_aborts t = t.speculation_aborts
let batches t = t.batches
let cross_shard_commits t = t.cross_shard_commits
let cross_shard_aborts t = t.cross_shard_aborts

let cross_shard_share t =
  if t.commits = 0 then 0.
  else Float.of_int t.cross_shard_commits /. Float.of_int t.commits

let batch_occupancy_percentile t p =
  if Util.Stats.count t.batch_occupancy = 0 then 0.
  else Util.Stats.percentile t.batch_occupancy p

let recovery_time_stats t = t.recovery_times
let latency_stats t = t.latencies
let open_loop_completions t = t.open_completions
let open_queue_delay t = t.open_queue_delay
let open_service t = t.open_service

let throughput t ~duration_ms =
  if duration_ms <= 0. then 0. else Float.of_int t.commits /. (duration_ms /. 1000.)

let abort_rate t =
  let attempts = t.commits + total_aborts t in
  if attempts = 0 then 0. else Float.of_int (total_aborts t) /. Float.of_int attempts

let latency_percentile t p =
  if Util.Stats.count t.latencies = 0 then 0. else Util.Stats.percentile t.latencies p

let summary t ~duration_ms =
  Printf.sprintf
    "commits=%d (ro=%d) throughput=%.1f/s aborts[root=%d partial=%d] ct_commits=%d \
     checkpoints=%d reads[local=%d remote=%d] latency{%s p50=%.1f p95=%.1f p99=%.1f}"
    t.commits t.read_only_commits
    (throughput t ~duration_ms)
    t.root_aborts t.partial_aborts t.ct_commits t.checkpoints t.local_reads
    t.remote_reads
    (Util.Stats.summary t.latencies)
    (latency_percentile t 50.) (latency_percentile t 95.) (latency_percentile t 99.)
