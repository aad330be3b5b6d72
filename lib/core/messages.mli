(** Wire protocol between transaction executors and QR replicas.

    A read request carries the requesting transaction's accumulated
    data-set (object id, base version, owner tag) so the replica can run
    read-quorum validation (Rqv) before serving the object — this inlines
    the paper's per-copy [ownerTxn]/[ownerChk] bookkeeping into the request
    (see DESIGN.md, semantics notes).

    Commit requests implement the vote phase of 2PC: the replica validates
    the full data-set and, on success, locks the write-set objects.  A
    [Commit_req] is a batch of one: both it and [Batch_commit_req] are
    answered with {!Votes}, one entry per transaction.  Apply and Release
    are the one-way second phase.

    The bulk payloads ({!dataset}, {!writes}) are structures of flat [int]
    arrays rather than lists of records: a steady-state commit wave builds
    each payload as three array allocations instead of a cons cell and a
    record per entry, and replicas validate by indexed loops without
    chasing pointers.  Payloads are frozen at construction and shared by
    reference across deliveries (fan-out, retransmission) — never mutated
    after sending. *)

type dataset_entry = { oid : Ids.obj_id; version : int; owner : int }
(** Convenience view of one data-set row (construction and tests; the wire
    form is the flat {!dataset}). *)

type dataset = {
  ds_oids : int array;
  ds_versions : int array;  (** base version per oid *)
  ds_owners : int array;  (** owner tag per oid (scope depth / checkpoint id) *)
}
(** Parallel arrays, one row per data-set entry. *)

val empty_dataset : dataset
(** The shared zero-length data-set ([dataset_len] 0 skips Rqv). *)

val dataset_len : dataset -> int
val dataset_of_list : dataset_entry list -> dataset
type writes = {
  wr_oids : int array;
  wr_versions : int array;  (** new version to install per oid *)
  wr_values : Txn.value array;
}
(** Parallel arrays, one row per written object. *)

val empty_writes : writes
val writes_len : writes -> int
val writes_of_list : (Ids.obj_id * int * Txn.value) list -> writes
val writes_entries : writes -> (Ids.obj_id * int * Txn.value) list

type request =
  | Read_req of {
      txn : Ids.txn_id;  (** root transaction id *)
      oid : Ids.obj_id;
      dataset : dataset;  (** entries to validate; empty skips Rqv *)
      write_intent : bool;
      record : bool;
          (** [write_intent] and [record] are ignored: they asked the
              replica to register the reader in its PR/PW lists, which are
              not kept (see {!Store.Replica}).  Coordinators send [false];
              the fields remain until the layered benchmark, which builds
              this request, stops naming them. *)
    }
  | Commit_req of {
      txn : Ids.txn_id;
      dataset : dataset;  (** full read+write set *)
      locks : Ids.obj_id list;  (** write-set objects to protect *)
      round : int;
          (** the coordinator's commit-round number; replicas pin granted
              locks to it so a stale [Release] from an abandoned earlier
              round cannot free a later round's lock *)
      peers : int list;
          (** cross-shard 2PC only ([] for single-shard commits): the other
              participant shards' read∪write quorum members, to be included
              in any termination-protocol [Status_req] round for [txn] —
              commit evidence for a cross-shard transaction may live
              exclusively on another shard's replicas *)
    }
  | Apply of {
      txn : Ids.txn_id;
      writes : writes;  (** (oid, new version, value) rows *)
    }
  | Release of { txn : Ids.txn_id; oids : Ids.obj_id list; round : int }
      (** walk away from [round]'s locks; replicas ignore it if a later
          round of [txn] has re-locked (at-least-once delivery can reorder
          a retransmitted Release past the next round's Commit_req) *)
  | Sync_req
      (** crash-recovery catch-up: a recovering node asks a read quorum for
          snapshots of their committed state *)
  | Status_req of { txn : Ids.txn_id; oids : Ids.obj_id list }
      (** termination protocol: a replica holding an expired lease of [txn]
          over [oids] asks a read quorum whether the transaction decided
          commit before releasing (presumed abort) or adopting its write
          (rescued commit) *)
  | Handoff of { objects : (Ids.obj_id * int * Txn.value) list }
      (** reconfiguration re-replication: a per-object maximum snapshot of
          the outgoing view, pushed to every member of the incoming view and
          merged version-guarded ([sync_copy]) — idempotent, so at-least-once
          delivery and stale rows are harmless *)
  | Batch_commit_req of {
      txns : Ids.txn_id array;  (** one entry per queued transaction, queue order *)
      rounds : int array;  (** per-entry commit round (lease pinning, as [Commit_req]) *)
      ds_offsets : int array;
          (** length n+1: entry i's data-set rows are
              [[ds_offsets.(i), ds_offsets.(i+1))] of [dataset] *)
      dataset : dataset;  (** all entries' data-sets, concatenated *)
      wr_offsets : int array;  (** length n+1, segments of [writes] as above *)
      writes : writes;
          (** all entries' write-sets, concatenated; an entry's lock set is
              its segment's oids (the write set IS what [Commit_req] locks) *)
      decided : Ids.txn_id array;
          (** transactions committed in recent batch rounds whose Applies
              may still be in flight: a lease they hold is moribund (their
              Apply will release it version-guarded), so a batch entry that
              read {e past} their write may take the lease over instead of
              conflicting on it *)
    }
      (** batch-commit mode: one quorum round for a whole commit queue.
          Replicas validate and lock the entries in queue order, each
          against the overlay of its locally-valid predecessors, handing
          in-batch leases from predecessor to successor, so a chain of
          speculative transactions votes in a single round trip
          (PROTOCOL.md §9) *)

type reply =
  | Read_ok of { oid : Ids.obj_id; version : int; value : Txn.value; leased : bool }
      (** [leased]: another transaction's lease protects this copy, whose
          decided commit may still be on its way to it *)
  | Read_abort of { target : int }
      (** validation failed; [target] is [abortClosed] (a scope depth) or
          [abortChk] (a checkpoint id) depending on the executor's mode *)
  | Sync_rep of { objects : (Ids.obj_id * int * Txn.value) list }
      (** committed state snapshot: (oid, version, value), ascending by
          oid; locks are transient and not transferred *)
  | Status_rep of { committed : bool; objects : (Ids.obj_id * int * Txn.value) list }
      (** [committed]: this replica observed the transaction's Apply;
          [objects]: its current copies of the queried oids — a newer
          version among them is equally valid commit evidence, and carries
          the value the asking replica must adopt *)
  | Ack
      (** acknowledges the idempotent one-way messages (Apply / Release) so
          they can be retransmitted over lossy links *)
  | Votes of { commits : bool array; conflicts : bool array }
      (** the commit vote: one entry per [Batch_commit_req] entry (indexed
          like its [txns]), and exactly one for a [Commit_req], which is the
          one-entry batch.  [conflicts.(i)] distinguishes a foreign lease
          (the holder may release soon) from version staleness
          (hopeless) *)

(** {2 Message-accounting labels}

    Pre-interned {!Sim.Network.Kind} tokens, one per request constructor;
    senders pass these so per-kind accounting never touches a string on the
    hot path.  The rendered names ("read_req", "commit_req", "commit_apply",
    "release", "sync_req") are unchanged from the string-labelled protocol. *)

val read_req_kind : Sim.Network.Kind.t
val commit_req_kind : Sim.Network.Kind.t
val apply_kind : Sim.Network.Kind.t
val release_kind : Sim.Network.Kind.t
val sync_req_kind : Sim.Network.Kind.t
val status_req_kind : Sim.Network.Kind.t
val handoff_kind : Sim.Network.Kind.t
val batch_commit_req_kind : Sim.Network.Kind.t

val kind_token_of_request : request -> Sim.Network.Kind.t
(** The interned accounting label of a request. *)
