(** Per-replica versioned object store.

    A replica hosts a copy of each object of the shards it is a member of
    (unsharded, every object: paper §II property 1) — installed at setup,
    or received through state transfer on recovery or a view change.  A
    copy is a value, a monotonically increasing version and a [protected]
    lease set during the vote phase of 2PC.  Copies are indexed by object
    id, which is dense from 0.  The paper's potential-readers /
    potential-writers (PR/PW) lists are not kept: they feed contention
    management, which this implementation does not have, and no protocol
    step reads them.

    The per-transaction bookkeeping (the lease index, the applied-evidence
    window with its retained rows, the cross-shard termination peers) is
    keyed by transaction id in {!Util.Int_table}s and one {!Util.Window}:
    every attempt draws a fresh id, so a slot per id would grow with the
    run. *)

type lease = {
  owner : int;
  mutable expires : float;
  mutable round : int;
  mutable prev : lease option;
      (** lease displaced by a batch-commit handover; restored on unlock *)
}
(** A write lock with an owner, an expiry instant (simulated ms) and the
    owner's commit-round number that granted (or last re-granted) it;
    [expires = infinity] never expires (callers without the termination
    protocol).  The round lets a replica drop a stale [Release] from an
    abandoned earlier commit round of the same transaction — retransmitted
    at-least-once, it can land after a later round re-acquired the lock.
    [prev] holds the lease a batch-commit handover ({!handover}) displaced:
    it may be the only protection for a committed-but-not-yet-applied
    predecessor write, so {!unlock} restores it rather than clearing —
    except on the Apply path, where the installed write makes it moot. *)

type copy = {
  mutable version : int;
  mutable value : Value.t;
  mutable protected_by : lease option;  (** committing transaction's lease *)
}

type t

val create : unit -> t

val instrument : t -> tracer:Obs.Tracer.t -> node:int -> clock:(unit -> float) -> unit
(** Attach a tracer (with the hosting node id and a simulated-time source)
    so lease transitions emit [lease.grant] / [lease.renew] /
    [lease.release] trace events.  The store layer has no engine handle, so
    the cluster injects these after construction; without instrumentation
    the replica stays silent. *)

val ensure : t -> oid:int -> init:Value.t -> unit
(** Install the object with version 0 if absent; no-op otherwise.
    @raise Invalid_argument on a negative oid (so do {!install} and
    {!sync_copy}). *)

val install : t -> oid:int -> init:Value.t -> unit
(** Unconditionally (re)install the object with version 0 and no lock;
    setup-time only — never call once transactions are running. *)

val mem : t -> int -> bool

val find : t -> int -> copy option
(** The hosted copy, or [None] — also for a negative oid or one past every
    installed oid.  Allocates nothing. *)

val get : t -> int -> copy
(** @raise Invalid_argument if the object was never installed. *)

val version : t -> int -> int
(** Version of the local copy.
    @raise Invalid_argument on missing object. *)

val is_protected : t -> oid:int -> against:int -> bool
(** Whether [oid] is locked by a transaction other than [against].  Lease
    expiry is *not* consulted: an expired lease still blocks until the
    termination protocol resolves it (presumed abort or rescued commit). *)

val lease_of : t -> int -> lease option
(** The lease currently protecting [oid], if any.
    @raise Invalid_argument on missing object. *)

val try_lock : ?expires:float -> ?round:int -> t -> oid:int -> txn:int -> bool
(** Set the protected lease for the vote phase; idempotent for the same
    transaction (re-granting renews the expiry and keeps the highest round
    seen); [false] if another transaction holds it.  [expires] defaults to
    [infinity], [round] to [0]. *)

val handover :
  ?expires:float -> ?round:int -> t -> oid:int -> prev_owner:int -> txn:int -> bool
(** Transfer the lease on [oid] from [prev_owner] — an in-batch chain
    predecessor, or a decided transaction whose Apply is still in flight —
    to [txn], keeping the displaced lease so {!unlock} can restore it.
    Falls back to {!try_lock} if [prev_owner] no longer holds the lease. *)

val unlock : ?round:int -> ?restore:bool -> t -> oid:int -> txn:int -> unit
(** Clear the protected lease if held by [txn].  With [round], the release
    is ignored when the lease was (re-)granted by a later round than the
    one being released — a stale Release retransmission must not free a
    newer round's lock.  Without [round] the release is unconditional
    (decided-commit cleanup, presumed abort).  If the lease was obtained by
    {!handover}, the displaced lease is restored instead of cleared unless
    [restore] is [false] (Apply-path cleanup). *)

val set_on_restore : t -> (oid:int -> owner:int -> expires:float -> unit) -> unit
(** Hook fired when {!unlock} restores a displaced lease — the restored
    lease may have outlived its original termination watcher, so the server
    re-arms one.  Inert by default. *)

val renew : t -> txn:int -> expires:float -> unit
(** Push the expiry of every lease [txn] holds out to [expires] (never
    shortens) — called on any traffic from the owning coordinator. *)

val leased_oids : t -> txn:int -> int list
(** Objects currently leased by [txn]. *)

val held_leases : t -> (int * int * float) list
(** Every live lease as [(oid, owner txn, expires)], ascending by oid —
    stall diagnostics. *)

val note_applied : t -> txn:int -> retain:(int * int * Value.t) list -> unit
(** Record that [txn]'s 2PC second phase reached this replica, once per
    Apply however many rows it installs.  [retain] is [[]], or [txn]'s full
    write rows [(oid, version, value)] when the Apply carried rows for
    objects this replica does not host: a cross-shard Apply carries the
    whole write set to every participant shard, and the foreign rows let a
    status query from another shard's lease holder be answered with the
    write it must adopt to rescue the commit.  The first rows retained win
    (Apply is idempotent).  The evidence and its rows are kept for the
    newest 4096 applied transactions and forgotten together. *)

val was_applied : t -> txn:int -> bool
(** Whether this replica observed an Apply from [txn] — the local evidence
    behind a [Status_rep.committed] answer. *)

val retained_writes : t -> txn:int -> (int * int * Value.t) list
(** The rows retained by {!note_applied}, or [[]]. *)

val set_status_peers : t -> txn:int -> int list -> unit
(** Remember the cross-shard termination peers a status round for [txn]
    must also query (from [Commit_req.peers]); no-op on [[]].  Transient:
    cleared with the other volatile state on crash wipe. *)

val status_peers_of : t -> txn:int -> int list
val clear_status_peers : t -> txn:int -> unit

val write : t -> oid:int -> version:int -> value:Value.t -> txn:int -> unit
(** Install a committed write if [version] is newer than the local copy
    (stale applies from lagging quorum members are ignored), releasing the
    lock if [txn] held it.  Records no evidence: an Apply of several rows
    writes each and then calls {!note_applied} once. *)

val apply : t -> oid:int -> version:int -> value:Value.t -> txn:int -> unit
(** {!write}, then record [txn] as applied with no retained rows. *)

val dump : t -> (int * int * Value.t) list
(** Snapshot of committed state as [(oid, version, value)] triples,
    ascending by oid — the payload of a crash-recovery [Sync_rep].  Leases
    are transient and not included. *)

val sync_copy : t -> oid:int -> version:int -> value:Value.t -> unit
(** Merge one copy received during catch-up: adopt it if strictly newer
    than the local copy (clearing any stale lock), install it if the object
    is unknown locally, ignore it otherwise. *)

val reset_transients : t -> unit
(** Clear every lease (walking the copies in ascending oid order, which
    orders their [lease.release] trace events) and the apply evidence — a
    crashed process loses its volatile state; called when the node rejoins
    after recovery. *)
