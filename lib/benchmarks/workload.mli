(** Benchmark workload interface.

    Every benchmark in the paper's evaluation is packaged as a {!benchmark}:
    setup installs the shared objects on a cluster and returns an
    {!instance} that generates root-transaction programs and can check the
    benchmark's structural invariants after a run.

    Generated programs are {b re-runnable}: all random choices (keys,
    amounts, operation types) are fixed at generation time, so a retry
    replays the same logical transaction — the requirement the executor
    places on programs.

    Parameter semantics follow the paper's three sweeps:
    - [read_ratio]: fraction of data-structure operations that are
      read-only (Fig. 5);
    - [calls]: closed-nested calls (operations) per root transaction,
      controlling transaction length (Fig. 6);
    - [objects]: benchmark-specific population size (Fig. 7) — accounts for
      Bank, keys for Hashmap/SList/RBTree/BST, offers for Vacation. *)

type params = {
  objects : int;
  calls : int;
  read_ratio : float;
  key_skew : float;  (** Zipf skew of key selection; 0. = uniform *)
  cross_shard_prob : float;
      (** fraction of operations steered across shard boundaries (Bank:
          transfer pairs spanning two shards; Hashmap: keys homed on a
          drawn target shard); 0. = shard-local, and the workload draws
          no extra randomness, so unsharded runs are byte-identical *)
  shard_skew : float;
      (** Zipf skew of the target-shard draw on cross-shard operations;
          0. = uniform over shards *)
}

val default_params : params
(** 64 objects, 3 calls, 50% reads, skew 0.6, no cross-shard traffic. *)

type instance = {
  generate : Util.Rng.t -> unit -> Core.Txn.t;
      (** A fresh root-transaction program; the [unit -> _] thunk is
          re-runnable. *)
  check : unit -> (unit, string) result;
      (** Post-run structural invariant check against the replicas. *)
}

type benchmark = {
  name : string;
  min_objects : int;  (** the smallest [objects] the workload can run on *)
  setup : Core.Cluster.t -> params -> instance;
}

(** {2 Helpers shared by benchmark implementations} *)

val pick_key : Util.Rng.t -> params -> int
(** Zipf-distributed key in [\[0, params.objects)]. *)

val pick_shard : Util.Rng.t -> params -> shards:int -> int
(** Zipf-distributed target shard in [\[0, shards)] using [shard_skew].
    Call only on the cross-shard branch — see the determinism note on
    {!type-params}. *)

val latest_value : Core.Cluster.t -> oid:Core.Ids.obj_id -> Core.Txn.value
(** The highest-versioned copy across all replicas — the committed state an
    omniscient observer sees; used by invariant checks. *)

val seq : Core.Txn.t list -> Core.Txn.t
(** Run programs in sequence, returning the last result ([Return Unit] when
    empty). *)

val ops_as_cts : Core.Txn.t list -> Core.Txn.t
(** Wrap each program as a closed-nested call and run them in sequence —
    the paper's transaction shape (a root enclosing one CT per operation). *)
