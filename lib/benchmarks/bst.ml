open Core
open Txn.Syntax

let nil = -1

(* Node encoding: List [Int key; Int left; Int right; Bool present]. *)
let node_value ~key ~left ~right ~present =
  Store.Value.(List [ Int key; Int left; Int right; Bool present ])

let node_key v = Store.Value.(to_int (field v 0))
let node_left v = Store.Value.(to_int (field v 1))
let node_right v = Store.Value.(to_int (field v 2))
let node_present v = Store.Value.(to_bool (field v 3))
let with_present v present = Store.Value.(with_field v 3 (Bool present))

type handle = { root : Core.Ids.obj_id; pool : Core.Ids.obj_id array; keys : int }

let preloaded key = key mod 2 = 0

let create cluster ~keys =
  assert (keys >= 1);
  let pool = Array.init keys (fun _ -> Cluster.alloc_object cluster ~init:Store.Value.Unit) in
  (* Perfectly balanced shape over the sorted key space. *)
  let rec build lo hi =
    if lo > hi then nil
    else begin
      let mid = (lo + hi) / 2 in
      let left = build lo (mid - 1) in
      let right = build (mid + 1) hi in
      Cluster.install_object cluster ~oid:pool.(mid)
        ~init:(node_value ~key:mid ~left ~right ~present:(preloaded mid));
      pool.(mid)
    end
  in
  let root = build 0 (keys - 1) in
  { root; pool; keys }

let search h ~key ~k =
  let rec walk oid =
    if oid = nil then k None
    else
      let* v = Txn.read oid in
      let nk = node_key v in
      if nk = key then k (Some (oid, v))
      else walk (if key < nk then node_left v else node_right v)
  in
  walk h.root

let add h ~key =
  search h ~key ~k:(fun found ->
      match found with
      | Some (oid, v) when not (node_present v) ->
        let* _ = Txn.write oid (with_present v true) in
        Txn.return (Store.Value.Bool true)
      | Some _ | None -> Txn.return (Store.Value.Bool false))

let remove h ~key =
  search h ~key ~k:(fun found ->
      match found with
      | Some (oid, v) when node_present v ->
        let* _ = Txn.write oid (with_present v false) in
        Txn.return (Store.Value.Bool true)
      | Some _ | None -> Txn.return (Store.Value.Bool false))

let contains h ~key =
  search h ~key ~k:(fun found ->
      match found with
      | Some (_, v) -> Txn.return (Store.Value.Bool (node_present v))
      | None -> Txn.return (Store.Value.Bool false))

let committed_keys cluster h =
  let rec inorder oid acc =
    if oid = nil then acc
    else begin
      let v = Workload.latest_value cluster ~oid in
      let acc = inorder (node_right v) acc in
      let acc = if node_present v then node_key v :: acc else acc in
      inorder (node_left v) acc
    end
  in
  inorder h.root []

let check_structure cluster h =
  let count = ref 0 in
  let rec check oid lo hi =
    if oid = nil then Ok ()
    else begin
      incr count;
      if !count > h.keys then Error "bst: cycle detected"
      else begin
        let v = Workload.latest_value cluster ~oid in
        let key = node_key v in
        if key < lo || key > hi then
          Error (Printf.sprintf "bst: key %d violates search order" key)
        else
          match check (node_left v) lo (key - 1) with
          | Ok () -> check (node_right v) (key + 1) hi
          | Error _ as e -> e
      end
    end
  in
  check h.root min_int max_int

let setup cluster (params : Workload.params) =
  let h = create cluster ~keys:params.objects in
  let generate rng =
    let ops =
      List.init params.calls (fun _ ->
          let key = Workload.pick_key rng params in
          if Util.Rng.chance rng params.read_ratio then contains h ~key
          else if Util.Rng.bool rng then add h ~key
          else remove h ~key)
    in
    fun () -> Workload.ops_as_cts ops
  in
  let check () = check_structure cluster h in
  { Workload.generate; check }

let benchmark = { Workload.name = "bst"; min_objects = 1; setup }
