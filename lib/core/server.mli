(** QR replica: the node-side protocol handler.

    Each simulated node runs one server over its local {!Store.Replica.t}.  The
    handler is synchronous (replies are computed within the node's service
    slot, see {!Sim.Network}):

    - [Read_req]: run Rqv over the carried data-set (if any), then serve the
      local copy of the requested object, flagged [leased] when another
      transaction's lease protects it.  Reads are invisible: the paper's
      PR/PW registration is omitted, as nothing here reads those lists.
    - [Commit_req]: 2PC vote — validate the full data-set, lock the
      write-set objects on success.  It is the one-entry batch: the same
      per-transaction vote as [Batch_commit_req], with no predecessors.
    - [Batch_commit_req]: vote on each queued transaction in order, each
      validated against the versions its locally-valid predecessors
      install and taking over their in-batch leases (PROTOCOL.md §9).
      Both commit requests are answered with [Votes], one entry per
      transaction, and every vote renews the transaction's leases.
    - [Apply]: 2PC second phase — install writes that are newer than the
      local copy and release locks; acked so the coordinator can
      retransmit over lossy links.
    - [Release]: abort path — drop locks held by the transaction (acked,
      idempotent).
    - [Sync_req]: crash-recovery catch-up — reply with a snapshot of the
      committed local state.
    - [Status_req]: lease-termination protocol — reply whether this replica
      observed the transaction's Apply, plus its current copies of the
      queried objects.
    - [Handoff]: reconfiguration re-replication — merge the pushed snapshot
      version-guarded (acked, idempotent).

    With {!enable_termination}, write locks become {e leases}: they carry an
    expiry stamped at grant time and renewed by any traffic from the owning
    transaction (a heartbeat).  A lease found expired (plus a grace period)
    triggers presumed-abort termination: the replica asks a read quorum for
    commit evidence ([Status_req]); evidence rescues the commit (the replica
    adopts the newer copies), no evidence across a full quorum releases the
    lease under presumed abort.  Without [enable_termination] leases are
    granted with an infinite horizon and behaviour is unchanged. *)

type t

val create : node:int -> store:Store.Replica.t -> t

val instrument : t -> tracer:Obs.Tracer.t -> clock:(unit -> float) -> unit
(** Attach a tracer (and a simulated-time source) so protocol handling
    emits server-side trace events: Rqv verdicts, votes, applies, releases,
    lease expiry, status rounds, presumed aborts and rescues.  The cluster
    wires this automatically; without it the server stays silent. *)

val enable_termination :
  ?node_alive:(int -> bool) ->
  t ->
  engine:Sim.Engine.t ->
  watch_lane:Sim.Engine.lane ->
  rpc:(Messages.request, Messages.reply) Sim.Rpc.t ->
  status_peers:(unit -> int list) ->
  metrics:Metrics.t ->
  unit
(** Arm the lease/termination machinery.  [status_peers] is the set queried
    for commit evidence; it must intersect every write quorum (a read
    quorum is the minimum — extending it with the replica's write quorum
    makes the intersection multi-member, so one lossy link cannot hide a
    decided commit).  Consulted lazily at status time so membership changes
    are respected; it may return [[]] when no quorum is reachable, in which
    case the status round retries and eventually presumes abort.  A status
    round for a cross-shard transaction additionally queries the peers its
    [Commit_req.peers] pinned — commit evidence may live exclusively on
    another participant shard — filtered through [node_alive] (default:
    everyone), because unlike [status_peers] that frozen set cannot route
    around permanent crashes by recomputation.  Leases then run for
    {!Config.lease_duration}.  Lease watchers are queued on [watch_lane] (a lane of
    [engine]; servers may share one). *)

val node : t -> int
val store : t -> Store.Replica.t

val handle : t -> src:int -> Messages.request -> Messages.reply option
(** Every request currently yields a reply ([Ack] for Apply / Release);
    whether it is sent back depends on the RPC layer's [wants_reply]. *)

val validations_run : t -> int
(** Rqv runs on a read's piggybacked data-set plus batch-entry votes; a
    [Commit_req] vote is not counted. *)

val validations_failed : t -> int
