(** Read/write sets.

    An entry records the object copy a transaction is working with: the
    base version it was fetched at, the current (possibly locally written)
    value, and its *owner* tag — the nesting depth of the scope that fetched
    it (closed nesting) or the checkpoint id in effect when it was fetched
    (checkpointing).  Owner tags are what the read-quorum validation returns
    as the abort target ([abortClosed] / [abortChk]).

    Sets are persistent maps so that checkpoint snapshots are O(1). *)

type entry = {
  oid : Ids.obj_id;
  version : int;  (** base version the copy was fetched at *)
  value : Txn.value;
  owner : int;  (** scope depth (QR-CN) or checkpoint id (QR-CHK); 0 for flat *)
}

type t

val empty : t
val is_empty : t -> bool
val size : t -> int
val add : t -> entry -> t
(** Insert or replace by [oid]. *)

val find : t -> Ids.obj_id -> entry option
val mem : t -> Ids.obj_id -> bool
val remove : t -> Ids.obj_id -> t

val merge_into : child:t -> parent:t -> t
(** QR-CN commit of a closed-nested transaction (Algorithm 3): the child's
    entries replace the parent's on collision (the child worked on the
    fresher copy). *)

val retag : t -> owner:int -> t
(** Set every entry's owner (used when merging a child scope into its
    parent, whose depth the surviving entries now belong to). *)

val iter : t -> (entry -> unit) -> unit
(** Ascending by object id, allocating nothing (unlike {!entries}). *)

val entries : t -> entry list
(** Ascending by object id. *)

val oids : t -> Ids.obj_id list
