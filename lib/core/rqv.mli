(** Read-quorum validation (paper §III-B, Algorithms 1 and 4).

    A replica validates a transaction's accumulated data-set against its
    local copies: an entry is invalid if the local copy has a newer version
    or is protected (locked by a committing transaction).  The returned
    abort target is the minimum owner tag over the invalid entries — which
    is simultaneously Algorithm 1's [abortClosed] (the scope *highest* in
    the nesting hierarchy, since depth decreases towards the root) and
    Algorithm 4's [abortChk] (the oldest checkpoint among the invalid
    objects, whose snapshot excludes all of them). *)

val validate :
  Store.Replica.t -> txn:Ids.txn_id -> dataset:Messages.dataset -> int option
(** [None] when every entry is valid; [Some target] otherwise.  Algorithm 1
    line 8 also drops the invalid entries' owners from the replica's PR/PW
    lists; those lists are not kept here (see {!Store.Replica}), so
    validation only reads the store.  An indexed loop over the flat
    data-set: no allocation until the final [Some]. *)
