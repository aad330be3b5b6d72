type params = {
  objects : int;
  calls : int;
  read_ratio : float;
  key_skew : float;
  cross_shard_prob : float;
  shard_skew : float;
}

let default_params =
  {
    objects = 64;
    calls = 3;
    read_ratio = 0.5;
    key_skew = 0.6;
    cross_shard_prob = 0.;
    shard_skew = 0.;
  }

type instance = {
  generate : Util.Rng.t -> unit -> Core.Txn.t;
  check : unit -> (unit, string) result;
}

type benchmark = {
  name : string;
  min_objects : int;
  setup : Core.Cluster.t -> params -> instance;
}

let pick_key rng params = Util.Rng.zipf rng ~n:params.objects ~skew:params.key_skew

(* Benchmarks draw from this ONLY on the cross-shard branch (guarded by
   [cross_shard_prob > 0.] and a passed [chance] draw), so unsharded runs
   consume the exact same random sequence as before the knob existed. *)
let pick_shard rng params ~shards = Util.Rng.zipf rng ~n:shards ~skew:params.shard_skew

(* Invariants are evaluated over the membership view at verdict time:
   a decommissioned node's copies are no longer part of the replicated
   object (and may be arbitrarily stale), so counting them — or treating
   their absence as missing copies — would misjudge a cluster that
   reconfigured mid-run. *)
let latest_value cluster ~oid =
  let best = ref (-1, Store.Value.Unit) in
  List.iter
    (fun node ->
      let store = Core.Cluster.store_of cluster ~node in
      match Store.Replica.find store oid with
      | Some copy -> if copy.version > fst !best then best := (copy.version, copy.value)
      | None -> ())
    (Core.Cluster.members cluster);
  snd !best

let seq programs =
  List.fold_left
    (fun acc program -> Core.Txn.bind acc (fun _ -> program))
    (Core.Txn.return Store.Value.Unit)
    programs

let ops_as_cts programs =
  seq (List.map (fun program -> Core.Txn.nested (fun () -> program)) programs)
