open Core
open Txn.Syntax

let bucket_count = 8
let nil = -1

(* Node encoding: List [Int key; Int data; Int next]. Bucket head: Int. *)
let node_value ~key ~data ~next = Store.Value.(List [ Int key; Int data; Int next ])
let node_key v = Store.Value.(to_int (field v 0))
let node_data v = Store.Value.(to_int (field v 1))
let node_next v = Store.Value.(to_int (field v 2))

type handle = {
  heads : Core.Ids.obj_id array; (* one per bucket *)
  pool : Core.Ids.obj_id array; (* one node object per key *)
  keys : int;
}

let bucket_of key = key mod bucket_count

(* Every other key of each chain is pre-populated, installed as the
   objects' initial values so every replica starts with identical chains. *)
let preloaded key = key / bucket_count mod 2 = 0

let create cluster ~keys =
  (* Keys of bucket [b] are b, b+B, b+2B, ... — chains are kept sorted. *)
  let rec next_loaded k = if k >= keys then nil else if preloaded k then k else next_loaded (k + bucket_count) in
  (* Allocate placeholder objects first (oids are assigned sequentially),
     then install the linked initial values. *)
  let pool =
    Array.init keys (fun _ -> Cluster.alloc_object cluster ~init:Store.Value.Unit)
  in
  Array.iteri
    (fun key oid ->
      let next_key = if preloaded key then next_loaded (key + bucket_count) else nil in
      let next_oid = if next_key = nil then nil else pool.(next_key) in
      Cluster.install_object cluster ~oid ~init:(node_value ~key ~data:key ~next:next_oid))
    pool;
  let heads =
    Array.init bucket_count (fun b ->
        let k = next_loaded b in
        let target = if k = nil then nil else pool.(k) in
        Cluster.alloc_object cluster ~init:(Store.Value.Int target))
  in
  { heads; pool; keys }

(* Traverse the sorted chain of [key]'s bucket.  Continues with
   [k ~prev ~found ~succ]: [prev = None] means the head pointer is the
   predecessor; [found] carries the node oid + value when present; [succ]
   is the first oid with a larger key (the insertion point's successor). *)
let search h ~key ~k =
  let head = h.heads.(bucket_of key) in
  let rec walk ~prev oid =
    if oid = nil then k ~prev ~found:None ~succ:nil
    else
      let* v = Txn.read oid in
      let nk = node_key v in
      if nk = key then k ~prev ~found:(Some (oid, v)) ~succ:(node_next v)
      else if nk > key then k ~prev ~found:None ~succ:oid
      else walk ~prev:(Some (oid, v)) (node_next v)
  in
  let* head_v = Txn.read head in
  walk ~prev:None (Store.Value.to_int head_v)

let write_pred h ~key ~prev ~target =
  match prev with
  | None -> Txn.write h.heads.(bucket_of key) (Store.Value.Int target)
  | Some (oid, v) -> Txn.write oid (Store.Value.with_field v 2 (Store.Value.Int target))

let put h ~key ~data =
  search h ~key ~k:(fun ~prev ~found ~succ ->
      match found with
      | Some (oid, v) ->
        if node_data v = data then Txn.return Store.Value.Unit
        else Txn.write oid (Store.Value.with_field v 1 (Store.Value.Int data))
      | None ->
        let node = h.pool.(key) in
        let* _ = Txn.write node (node_value ~key ~data ~next:succ) in
        write_pred h ~key ~prev ~target:node)

let remove h ~key =
  search h ~key ~k:(fun ~prev ~found ~succ:_ ->
      match found with
      | None -> Txn.return Store.Value.Unit
      | Some (_, v) -> write_pred h ~key ~prev ~target:(node_next v))

let get h ~key =
  search h ~key ~k:(fun ~prev:_ ~found ~succ:_ ->
      match found with
      | None -> Txn.return Store.Value.Unit
      | Some (_, v) -> Txn.return (Store.Value.Int (node_data v)))

let committed_bindings cluster h =
  let bindings = ref [] in
  Array.iter
    (fun head ->
      let rec walk oid steps =
        if oid <> nil && steps < h.keys + 1 then begin
          let v = Workload.latest_value cluster ~oid in
          bindings := (node_key v, node_data v) :: !bindings;
          walk (node_next v) (steps + 1)
        end
      in
      walk (Store.Value.to_int (Workload.latest_value cluster ~oid:head)) 0)
    h.heads;
  List.sort compare !bindings

let check_chains cluster h =
  let rec check_bucket b =
    if b >= bucket_count then Ok ()
    else begin
      let head = h.heads.(b) in
      let rec walk oid last steps =
        if steps > h.keys then Error (Printf.sprintf "bucket %d: cycle detected" b)
        else if oid = nil then Ok ()
        else begin
          let v = Workload.latest_value cluster ~oid in
          let key = node_key v in
          if bucket_of key <> b then
            Error (Printf.sprintf "bucket %d: key %d misplaced" b key)
          else if key <= last then
            Error (Printf.sprintf "bucket %d: keys not strictly increasing at %d" b key)
          else walk (node_next v) key (steps + 1)
        end
      in
      match
        walk (Store.Value.to_int (Workload.latest_value cluster ~oid:head)) min_int 0
      with
      | Ok () -> check_bucket (b + 1)
      | Error _ as e -> e
    end
  in
  check_bucket 0

let setup cluster (params : Workload.params) =
  let h = create cluster ~keys:(Stdlib.max params.objects bucket_count) in
  (* Cross-shard steering: a [cross_shard_prob] fraction of operations
     targets a key whose node object is homed on a Zipf-drawn shard, so
     the chain walk (bucket head on its own shard, nodes on the target's)
     spans shard boundaries.  Gated so shard-local runs consume the exact
     pre-knob random sequence. *)
  let shards = Cluster.shard_count cluster in
  let keys_by_shard =
    if params.cross_shard_prob <= 0. || shards <= 1 then [||]
    else begin
      let buckets = Array.make shards [] in
      Array.iteri
        (fun key oid ->
          let s = Cluster.shard_of_oid cluster oid in
          buckets.(s) <- key :: buckets.(s))
        h.pool;
      Array.map (fun l -> Array.of_list (List.rev l)) buckets
    end
  in
  let populated =
    Array.fold_left
      (fun n b -> if Array.length b > 0 then n + 1 else n)
      0 keys_by_shard
  in
  let xshard = populated > 1 in
  let pick_sharded rng =
    let rec target () =
      let s = Workload.pick_shard rng params ~shards in
      if Array.length keys_by_shard.(s) = 0 then target () else s
    in
    let s = target () in
    keys_by_shard.(s).(Util.Rng.int rng (Array.length keys_by_shard.(s)))
  in
  let generate rng =
    let ops =
      List.init params.calls (fun _ ->
          let key =
            if xshard && Util.Rng.chance rng params.cross_shard_prob then
              pick_sharded rng
            else Workload.pick_key rng { params with objects = h.keys }
          in
          if Util.Rng.chance rng params.read_ratio then get h ~key
          else if Util.Rng.bool rng then put h ~key ~data:(Util.Rng.int rng 1000)
          else remove h ~key)
    in
    fun () -> Workload.ops_as_cts ops
  in
  let check () = check_chains cluster h in
  { Workload.generate; check }

let benchmark = { Workload.name = "hashmap"; min_objects = 1; setup }
