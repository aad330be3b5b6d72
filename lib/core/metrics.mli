(** Transaction-level metrics.

    One accumulator per experiment run.  Message counts live in
    {!Sim.Network}; this module tracks the executor-side events the paper
    reports: commits, root aborts, partial aborts (closed-nested aborts /
    checkpoint rollbacks), local vs remote reads, checkpoints created, and
    commit latencies. *)

type t

val create : unit -> t

val reset : t -> unit
(** Zero every counter (used to exclude warm-up from measurements). *)

val resets : t -> int
(** How many times {!reset} has run: a reader that snapshots a counter can
    tell whether it was zeroed since. *)

val note_commit : t -> latency:float -> unit
val note_read_only_commit : t -> latency:float -> unit
val note_root_abort : t -> unit
val note_partial_abort : t -> unit
val note_ct_commit : t -> unit
val note_checkpoint : t -> unit
val note_local_read : t -> unit
val note_remote_read : t -> unit
val note_quorum_retry : t -> unit

val note_open_commit : t -> unit
(** An open-nested sub-transaction committed (extension). *)

val note_compensation : t -> unit
(** A compensation transaction ran after a root abort (extension). *)

val note_sync : t -> unit
(** A recovering node started a state-transfer round. *)

val note_recovery : t -> duration:float -> unit
(** A node completed recovery (state-synced and re-admitted to quorums);
    [duration] is restart-to-re-admission in simulated ms. *)

val note_lease_expired : t -> unit
(** A replica found a write-lock lease past its horizon and started the
    termination protocol (one event per expired lease batch). *)

val note_presumed_abort : t -> unit
(** A status query found no commit evidence; the expired lease was released
    under presumed abort. *)

val note_status_rescue : t -> unit
(** A status query found the owning transaction had decided commit; the
    replica adopted the committed write instead of aborting it. *)

val note_commit_deadline_abort : t -> unit
(** A coordinator refused to commit because its own lease horizon had
    passed by the time the votes arrived. *)

val note_read_widening : t -> unit
(** A commit was vetoed as stale with no lock conflict: the coordinator's
    read quorum missed a committed version (possible across membership
    views), and subsequent reads were widened to the vetoing replicas. *)

val note_stall : t -> unit
(** The liveness watchdog saw no commit progress for a full stall window
    while transactions were in flight. *)

val note_view_change : t -> unit
(** A view change bumped one shard's epoch. *)

val note_speculative_read : t -> unit
(** Batch mode: a read was served from a queued transaction's write image
    instead of a remote quorum round. *)

val note_speculation_abort : t -> unit
(** Batch mode: a speculative transaction aborted because a predecessor it
    read from failed to commit.  Distinct from plain conflict aborts so
    speculation retries are not misread as contention; the retry's root
    abort is counted separately by {!note_root_abort}. *)

val note_batch : t -> occupancy:int -> unit
(** Batch mode: one batch quorum round was sent carrying [occupancy]
    queued transactions. *)

val note_cross_shard_commit : t -> unit
(** A transaction spanning several shards committed through the cross-shard
    2PC (counted on top of {!note_commit}). *)

val note_cross_shard_abort : t -> unit
(** A cross-shard 2PC ended in abort (veto, missed quorum member past the
    retry budget, or the lease deadline) — distinct from single-shard
    conflict aborts; the accompanying root abort is still counted by
    {!note_root_abort}. *)

val note_open_loop_done : t -> queue_delay:float -> service:float -> unit
(** An open-loop request completed: [queue_delay] is arrival-to-admission
    (time spent waiting behind the concurrency cap), [service] is
    admission-to-completion.  Both land in constant-memory {!Util.Hdr}
    histograms so SLO percentiles survive millions of samples. *)

val commits : t -> int
(** All commits, including read-only. *)

val read_only_commits : t -> int
val root_aborts : t -> int
val partial_aborts : t -> int

val total_aborts : t -> int
(** Root plus partial aborts — the paper's "total number of aborts". *)

val ct_commits : t -> int
val checkpoints : t -> int
val local_reads : t -> int
val remote_reads : t -> int
val quorum_retries : t -> int
val open_commits : t -> int
val compensations : t -> int
val syncs : t -> int
val recoveries : t -> int
val lease_expirations : t -> int
val presumed_aborts : t -> int
val status_rescued_commits : t -> int
val commit_deadline_aborts : t -> int
val read_widenings : t -> int
val stalls_detected : t -> int
val view_changes : t -> int
val speculative_reads : t -> int
val speculation_aborts : t -> int

val batches : t -> int
(** Batch quorum rounds sent. *)

val batch_occupancy_stats : t -> Util.Stats.t
(** Transactions carried per batch round. *)

val batch_occupancy_percentile : t -> float -> float
(** Batch-occupancy percentile (e.g. [50.], [95.]); 0 when no batches have
    been sent. *)

val cross_shard_commits : t -> int
val cross_shard_aborts : t -> int

val cross_shard_share : t -> float
(** Fraction of commits that were cross-shard ([0.] with no commits). *)

val recovery_time_stats : t -> Util.Stats.t
(** Restart-to-re-admission durations of completed recoveries. *)

val latency_stats : t -> Util.Stats.t

val open_loop_completions : t -> int

val open_queue_delay : t -> Util.Hdr.t
(** Arrival-to-admission delay histogram (open-loop runs only). *)

val open_service : t -> Util.Hdr.t
(** Admission-to-completion latency histogram (open-loop runs only). *)

val latency_percentile : t -> float -> float
(** Commit-latency percentile (e.g. [50.], [95.], [99.]); 0 when no commits
    have been recorded. *)

val throughput : t -> duration_ms:float -> float
(** Committed transactions per second of simulated time. *)

val abort_rate : t -> float
(** Aborts per commit attempt: [total_aborts / (commits + total_aborts)]. *)

val summary : t -> duration_ms:float -> string
