(** Protocol configuration.

    One record selects the execution model and tunables; the defaults
    reproduce the paper's setup (ternary tree quorums, ~30 ms round trips
    supplied by the topology, fine-grained checkpoints). *)

type mode =
  | Flat  (** QR: the original quorum-based replication protocol *)
  | Closed  (** QR-CN: closed nesting with read-quorum validation *)
  | Checkpoint  (** QR-CHK: automatic checkpoints with partial rollback *)

val mode_name : mode -> string

(** {2 Fixed timings} All in simulated ms; the same in every run. *)

val local_op_cost : float
(** CPU cost of one local DSL step (0.02). *)

val request_timeout : float
(** RPC timeout used to detect dead quorum members (400). *)

val backoff_base : float
(** Root-abort retry backoff base (4); attempt [k] waits a jittered
    [min backoff_max (backoff_base * 2^k)]. *)

val backoff_max : float
(** 250. *)

val ct_retry_delay : float
(** Delay before retrying an aborted closed-nested scope or checkpoint
    (1). *)

val lease_duration : float
(** Write-lock lease horizon (800): locks granted during the 2PC vote
    expire this long after the grant, renewed by any further traffic from
    the owning transaction. *)

val lease_safety_margin : float
(** The coordinator refuses to commit within this many ms of its own lease
    expiry (100): the decision would race the replicas' presumed abort. *)

val status_grace : float
(** How long past expiry a replica waits before its status query (200),
    covering Apply messages sent just before the coordinator's commit
    deadline. *)

val status_attempts : int
(** Status-query rounds against an unreachable read quorum before the
    replica presumes abort (3), so a partitioned replica terminates. *)

val retransmit_backoff_base : float
(** Apply/Release retransmission backoff (8): re-send [k] of an unacked
    one-way message waits a jittered [min retransmit_backoff_max
    (retransmit_backoff_base * 2^k)], so lossy-link bursts are not
    hammered in lock-step. *)

val retransmit_backoff_max : float
(** 200. *)

(** {2 Settable values} *)

type t = {
  mode : mode;
  rqv_for_flat : bool;
      (** validate incrementally on reads even for flat transactions
          (ablation; the paper's flat baseline detects conflicts at commit) *)
  checkpoint_threshold : int;
      (** objects read/written between automatic checkpoints (QR-CHK);
          the paper's implementation is fine-grained — default 1 *)
  checkpoint_overhead : float;
      (** local cost of saving a continuation, ms; calibrated to the
          paper's measured ~6% checkpoint-creation overhead *)
  commit_lock_retries : int;
      (** how many times a commit request that failed purely on a lock
          (protected object) is retried before aborting the root (ablation;
          0 = the paper's behaviour: abort immediately) *)
  max_attempts : int;  (** safety valve for tests; 0 = unbounded *)
  max_steps_per_attempt : int;
      (** zombie-transaction guard: flat transactions (which validate only
          at commit) can observe an inconsistent snapshot across a
          concurrent structural update and chase a pointer cycle forever;
          an attempt exceeding this many DSL steps is aborted and retried.
          Closed nesting / checkpointing validate on remote reads but can
          still cycle through locally cached entries, so the guard applies
          to every mode. *)
  batch_size : int;
      (** batch-commit mode: cut the commit queue as soon as this many
          transactions are waiting (and no batch round is in flight).
          Ignored when the executor runs with [batch_commit] off. *)
  batch_delay : float;
      (** batch-commit mode: maximum ms an enqueued transaction waits for
          the queue to fill before a deadline cut ships a partial batch *)
}

val make : ?rqv_for_flat:bool -> ?checkpoint_threshold:int -> ?checkpoint_overhead:float ->
  ?commit_lock_retries:int -> ?max_attempts:int -> ?max_steps_per_attempt:int ->
  ?batch_size:int -> ?batch_delay:float -> mode -> t

val default : mode -> t
