(* The event-kind catalogue: every instrumentation point in the stack emits
   one of these tokens.  Payload-slot conventions (what [a]/[b]/[x] mean per
   kind) are documented inline and, for users, in OBSERVABILITY.md.

   Interned at module initialisation so token values are fixed before any
   tracer exists; the trace checker and exporters match on these tokens. *)

(* -- Transaction lifecycle (emitted by Core.Executor; [node] = coordinator,
      [txn] = root transaction id of the current attempt). -- *)

let txn_begin = Kind.intern "txn.begin" (* a = attempt number (1-based) *)
let txn_read = Kind.intern "txn.read" (* oid; a = version; b = 1 if remote *)
let txn_write = Kind.intern "txn.write" (* oid *)
let txn_checkpoint = Kind.intern "txn.checkpoint" (* a = checkpoint id *)
let scope_push = Kind.intern "scope.push" (* a = new nesting depth *)
let scope_pop = Kind.intern "scope.pop" (* a = depth of the popped scope *)
let scope_resume = Kind.intern "scope.resume" (* a = depth/chk restored to *)
let txn_partial_abort = Kind.intern "txn.partial_abort" (* a = target *)
let txn_root_abort = Kind.intern "txn.root_abort" (* a = attempt *)
let txn_commit = Kind.intern "txn.commit" (* b = 1 if read-only; x = latency *)
let txn_end = Kind.intern "txn.end" (* a = 1 committed / 0 aborted *)
let read_send = Kind.intern "read.send" (* oid; a = dst replica; b = oid's shard *)
let widen_add = Kind.intern "widen.add" (* a = witness node; b = its home shard *)
let widen_drop = Kind.intern "widen.drop" (* a = dead witness pruned *)
let commit_send = Kind.intern "commit.send" (* oid = commit round; a = #locks; b = quorum size *)
let vote_recv = Kind.intern "vote.recv" (* a = voter; b = bit0 commit, bit1 lock-conflict *)
let deadline_abort = Kind.intern "deadline.abort" (* x = lease deadline *)

(* -- Batch-commit mode (emitted by Core.Executor; PROTOCOL.md §9). -- *)

let spec_read = Kind.intern "spec.read"
(* oid served from a queued write image; a = writer txn, b = 1 if the
   writer is still undecided (a speculative dependency) / 0 committed *)

let batch_entry = Kind.intern "batch.entry"
(* txn cut into a batch; a = batch id, b = queue position *)

let batch_send = Kind.intern "batch.send"
(* node = coordinator the round is sent from; a = batch occupancy,
   b = quorum size; txn = first entry *)

let batch_decide = Kind.intern "batch.decide"
(* per-entry outcome of a batch round, emitted in queue order;
   a = batch id, b = 1 commit / 0 abort *)

let spec_abort = Kind.intern "spec.abort"
(* speculation failed: a predecessor this txn read from did not commit;
   a = the failed predecessor's txn id *)

(* -- Server / replica side (emitted by Core.Server and Store.Replica;
      [node] = the replica). -- *)

let rqv_ok = Kind.intern "rqv.ok" (* oid; read validated against rset *)
let rqv_fail = Kind.intern "rqv.fail" (* oid; a = abort target *)
let vote = Kind.intern "vote" (* a = 1 commit; b = 1 lock conflict *)
let apply = Kind.intern "apply" (* a = #writes installed *)
let release = Kind.intern "release" (* locks released for txn *)
let lease_grant = Kind.intern "lease.grant" (* oid; txn = owner; x = expiry *)
let lease_renew = Kind.intern "lease.renew" (* oid; x = new expiry *)
let lease_release = Kind.intern "lease.release"
(* oid; a = 0 unlock / 1 stale-sync / 2 crash-wipe *)

let lease_expire = Kind.intern "lease.expire" (* oid; x = expiry it blew *)
let status_round = Kind.intern "status.round" (* a = attempt; b = #peers *)
let presumed_abort = Kind.intern "presumed.abort" (* oid of the guarded lease *)
let rescue = Kind.intern "rescue"
(* txn rescued to commit; a = #oids; b = evidence kind: 0 = a peer reported
   the txn applied, 1 = the leased copy's version advanced (possibly another
   transaction's commit across membership views) *)
let sync_start = Kind.intern "sync.start" (* node state-transferring in *)
let sync_done = Kind.intern "sync.done" (* a = #sync replies merged *)

(* -- View changes (emitted by Core.Cluster; [node] = the joiner, else the
      leaver, or -1 for a directory change; x = the shard). -- *)

let view_wedge = Kind.intern "view.wedge"
(* view change started, on its source shard; a = kind (0 join / 1 leave /
   2 replace / 3 move / 4 split), b = the joining node for a membership
   change, the moved oid for a move, else -1 *)

let view_change = Kind.intern "view.change"
(* one shard's new view installed; a = new epoch, b = member count *)

let view_done = Kind.intern "view.done"
(* view change complete, once per involved shard; a = the shard's epoch,
   b = kind (as in view.wedge) *)

let view_rehome = Kind.intern "view.rehome"
(* a split moved [node] to the new shard; a = its new home shard, b = the
   shard it left *)

let epoch_fence = Kind.intern "epoch.fence"
(* stale-epoch message rejected at [node]; a = src, b = message epoch,
   x = the receiver's epoch *)

(* -- Cross-shard 2PC (emitted by Core.Executor; [node] = coordinator). -- *)

let xshard_prepare = Kind.intern "xshard.prepare"
(* one per participant shard's prepare round, ascending shard order;
   oid = the commit round, a = the shard being prepared, b = total
   participant count *)

let xshard_decide = Kind.intern "xshard.decide"
(* the coordinator's cross-shard decision, once per transaction;
   a = 1 commit / 0 abort, b = participant count *)

(* -- Network / RPC (emitted by Sim.Network and Sim.Rpc; [b] = the interned
      message kind, resolvable with [Kind.name]). -- *)

let net_send = Kind.intern "net.send" (* node = src; a = dst *)
let net_deliver = Kind.intern "net.deliver" (* node = dst; a = src *)
let net_drop = Kind.intern "net.drop" (* node = src; a = dst *)
let net_dup = Kind.intern "net.dup" (* node = src; a = dst *)
let rpc_timeout = Kind.intern "rpc.timeout" (* node = caller; a = #missing *)
let rpc_giveup = Kind.intern "rpc.giveup" (* node = src; a = dst *)

let is_net k =
  k = net_send || k = net_deliver || k = net_drop || k = net_dup
  || k = rpc_timeout || k = rpc_giveup
