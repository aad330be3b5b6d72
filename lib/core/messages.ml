type dataset_entry = { oid : Ids.obj_id; version : int; owner : int }

(* The flat payloads below are frozen at construction and shared by
   reference across every delivery of the message (fan-out waves,
   at-least-once retransmissions) — never mutate one after sending. *)

type dataset = {
  ds_oids : int array;
  ds_versions : int array;
  ds_owners : int array;
}

let empty_dataset = { ds_oids = [||]; ds_versions = [||]; ds_owners = [||] }
let dataset_len d = Array.length d.ds_oids

let dataset_of_list entries =
  match entries with
  | [] -> empty_dataset
  | _ ->
    let n = List.length entries in
    let d =
      {
        ds_oids = Array.make n 0;
        ds_versions = Array.make n 0;
        ds_owners = Array.make n 0;
      }
    in
    List.iteri
      (fun i e ->
        d.ds_oids.(i) <- e.oid;
        d.ds_versions.(i) <- e.version;
        d.ds_owners.(i) <- e.owner)
      entries;
    d

type writes = {
  wr_oids : int array;
  wr_versions : int array;
  wr_values : Txn.value array;
}

let empty_writes = { wr_oids = [||]; wr_versions = [||]; wr_values = [||] }
let writes_len w = Array.length w.wr_oids

let writes_of_list entries =
  match entries with
  | [] -> empty_writes
  | _ ->
    let n = List.length entries in
    let w =
      {
        wr_oids = Array.make n 0;
        wr_versions = Array.make n 0;
        wr_values = Array.make n Store.Value.Unit;
      }
    in
    List.iteri
      (fun i (oid, version, value) ->
        w.wr_oids.(i) <- oid;
        w.wr_versions.(i) <- version;
        w.wr_values.(i) <- value)
      entries;
    w

let writes_entries w =
  List.init (writes_len w) (fun i -> (w.wr_oids.(i), w.wr_versions.(i), w.wr_values.(i)))

type request =
  | Read_req of {
      txn : Ids.txn_id;
      oid : Ids.obj_id;
      dataset : dataset;
      write_intent : bool;
      record : bool;
    }
  | Commit_req of {
      txn : Ids.txn_id;
      dataset : dataset;
      locks : Ids.obj_id list;
      round : int;
          (* the coordinator's commit-round number for this transaction:
             quorum retries re-send with a higher round, and a replica pins
             granted locks to it so a stale Release (below) cannot free a
             later round's lock *)
      peers : int list;
          (* cross-shard 2PC only ([] for single-shard commits): the other
             participant shards' read∪write quorum members.  A replica whose
             lease of [txn] expires must include them in its Status_req
             round — commit evidence for a cross-shard transaction may live
             exclusively on another shard's replicas *)
    }
  | Apply of { txn : Ids.txn_id; writes : writes }
  | Release of { txn : Ids.txn_id; oids : Ids.obj_id list; round : int }
      (* [round] is the commit round whose locks are being walked away
         from; at-least-once retransmission can deliver it after a later
         round of the same transaction re-locked, and the replica must
         ignore it then *)
  | Sync_req
      (* catch-up request from a recovering node: the receiver answers with
         a snapshot of its committed state *)
  | Status_req of { txn : Ids.txn_id; oids : Ids.obj_id list }
      (* termination protocol: a replica holding an expired lease of [txn]
         over [oids] asks a read quorum whether the transaction decided
         commit (presumed abort otherwise) *)
  | Handoff of { objects : (Ids.obj_id * int * Txn.value) list }
      (* reconfiguration re-replication: the orchestrator pushes the
         per-object maximum of the outgoing view's committed state to every
         member of the incoming view; merged version-guarded (sync_copy),
         so duplicates and stale rows are harmless *)
  | Batch_commit_req of {
      txns : Ids.txn_id array;  (* one entry per queued transaction, queue order *)
      rounds : int array;  (* per-entry commit round (lease pinning, as Commit_req) *)
      ds_offsets : int array;
          (* length n+1: entry i's data-set rows are [ds_offsets.(i),
             ds_offsets.(i+1)) of [dataset] *)
      dataset : dataset;  (* all entries' data-sets, concatenated *)
      wr_offsets : int array;  (* length n+1, segments of [writes] as above *)
      writes : writes;
          (* all entries' write-sets, concatenated; an entry's lock set is
             its segment's oids (the write set IS what Commit_req locks) *)
      decided : Ids.txn_id array;
          (* transactions committed in recent batch rounds whose Applies may
             still be in flight: a lease they hold here is moribund (their
             Apply will release it version-guarded), so a batch entry that
             read PAST their write may take the lease over instead of
             conflicting on it *)
    }
      (* one quorum round for a whole commit queue: replicas validate and
         lock the entries in order, each against the overlay of its
         locally-valid predecessors, so a batch of chained speculative
         transactions votes in a single round trip *)

type reply =
  | Read_ok of { oid : Ids.obj_id; version : int; value : Txn.value }
  | Read_abort of { target : int }
  | Sync_rep of { objects : (Ids.obj_id * int * Txn.value) list }
  | Status_rep of { committed : bool; objects : (Ids.obj_id * int * Txn.value) list }
      (* [committed]: this replica observed the transaction's Apply;
         [objects]: its current copies of the queried oids, so a decided
         commit's write can be adopted by the asking replica *)
  | Ack  (* acknowledges idempotent one-way messages (Apply, Release) *)
  | Votes of { commits : bool array; conflicts : bool array }
      (* one vote per entry of a Batch_commit_req (indexed like [txns]),
         or the single entry of a Commit_req; [conflicts]: the entry
         failed on a foreign lease, not hopeless staleness *)

(* Accounting labels, interned once at module load so the network layer
   counts messages with an array increment rather than a string lookup. *)
let read_req_kind = Sim.Network.Kind.intern "read_req"
let commit_req_kind = Sim.Network.Kind.intern "commit_req"
let apply_kind = Sim.Network.Kind.intern "commit_apply"
let release_kind = Sim.Network.Kind.intern "release"
let sync_req_kind = Sim.Network.Kind.intern "sync_req"
let status_req_kind = Sim.Network.Kind.intern "status_req"
let handoff_kind = Sim.Network.Kind.intern "handoff"
let batch_commit_req_kind = Sim.Network.Kind.intern "batch_commit_req"

let kind_token_of_request = function
  | Read_req _ -> read_req_kind
  | Commit_req _ -> commit_req_kind
  | Apply _ -> apply_kind
  | Release _ -> release_kind
  | Sync_req -> sync_req_kind
  | Status_req _ -> status_req_kind
  | Handoff _ -> handoff_kind
  | Batch_commit_req _ -> batch_commit_req_kind
