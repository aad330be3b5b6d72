(** Client-side transaction executor for QR, QR-CN and QR-CHK.

    The executor interprets {!Txn.t} programs over the simulated network,
    implementing the three execution models of the paper:

    - {b Flat} (QR): nesting boundaries are flattened; conflicts are
      detected by the write quorum during the 2PC vote; any abort retries
      the whole transaction.
    - {b Closed} (QR-CN): each [Nested] call pushes a scope with its own
      read/write sets and a savepoint (id = its depth, resumed by re-running
      the call's body).  Reads carry the accumulated data-set for
      read-quorum validation (Rqv); a validation failure aborts exactly the
      scope named by [abortClosed] (the minimum owner depth over invalid
      entries).  A closed-nested commit pops its savepoint and merges its
      sets into the parent locally, with no remote communication; read-only
      roots also commit locally.
    - {b Checkpoint} (QR-CHK): the transaction runs flat but pushes a
      savepoint of its continuation and sets every [checkpoint_threshold]
      fetched objects (id = the next checkpoint id).  A validation failure
      rolls back to [abortChk] (the oldest checkpoint among invalid
      entries); a 2PC failure retries the whole transaction, exactly as the
      paper specifies.

    Both partial rollbacks run through one savepoint stack: an entry's
    owner tag is the newest savepoint's id, so the abort target names the
    savepoint to resume; a target naming none aborts the root.

    Latency accounting: a transaction's latency runs from its first attempt
    to its final commit, across aborts. *)

type quorums = {
  read_quorum : shard:int -> node:int -> int list;
  write_quorum : shard:int -> node:int -> int list;
  node_alive : int -> bool;
      (** Ground-truth fail-stop state (not detector suspicion) — gates the
          pruning of widened-read witnesses that stop answering. *)
  epoch : shard:int -> int;
      (** Current membership-view epoch of one shard.  A commit round whose
          votes were solicited under an older epoch is released and retried:
          the write quorum that answered need not intersect current-view
          quorums. *)
  shard_of : int -> int;
      (** Object id -> owning shard (the shard directory).  Determines which
          shard's quorums serve a read and which shards participate in a
          commit; a transaction touching several shards commits through the
          cross-shard 2PC. *)
  home_shard : int -> int;
      (** Node -> the shard it replicates.  Gates widened-read witnesses:
          a witness from another shard cannot serve this shard's objects. *)
}

type t

val create :
  engine:Sim.Engine.t ->
  rpc:(Messages.request, Messages.reply) Sim.Rpc.t ->
  quorums:quorums ->
  config:Config.t ->
  metrics:Metrics.t ->
  ?oracle:Oracle.t ->
  ?batch_commit:bool ->
  ids:Ids.gen ->
  seed:int ->
  unit ->
  t
(** [batch_commit] (default [false]) turns on queue-oriented speculative
    batch commit (PROTOCOL.md §9): roots reaching their commit point are
    enqueued, cut into batches of up to {!Config.batch_size} (or after
    {!Config.batch_delay} ms), and decided by one quorum round per batch;
    queued successors read predecessors' uncommitted write images and abort
    speculatively if a predecessor fails.  Off, the executor behaves
    byte-identically to the sequential per-transaction 2PC. *)

type outcome =
  | Committed of Txn.value
  | Failed of string
      (** a [Txn.Fail] program step, or [max_attempts] exceeded *)

val run_root : t -> node:int -> program:(unit -> Txn.t) -> on_done:(outcome -> unit) -> unit
(** Start a root transaction on [node].  [program] must be re-runnable: it
    is re-invoked from scratch on every root retry.  [on_done] fires exactly
    once, when the transaction finally commits or fails permanently. *)

val kill_node : t -> node:int -> unit
(** Fail-stop every root whose coordinator runs on [node]: their threads die
    with the machine.  No outcome is delivered (in particular [on_done]
    never fires), so a closed-loop client hosted there stops resubmitting —
    matching the simulator's crash model, where a node loses its volatile
    state.  Replies in flight to a killed root are dropped. *)

val in_flight : t -> (int * Ids.txn_id) list
(** The live roots as [(node, current txn id)] pairs — diagnostic input for
    stall reports. *)

val config : t -> Config.t
val metrics : t -> Metrics.t
