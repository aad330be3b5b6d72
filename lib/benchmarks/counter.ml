open Core
open Txn.Syntax

let increment oid =
  let* v = Txn.read oid in
  Txn.write oid (Store.Value.Int (Store.Value.to_int v + 1))

let total cluster ~oids =
  List.fold_left
    (fun acc oid -> acc + Store.Value.to_int (Workload.latest_value cluster ~oid))
    0 oids

let setup cluster (params : Workload.params) =
  let oids =
    List.init params.objects (fun _ -> Cluster.alloc_object cluster ~init:(Store.Value.Int 0))
  in
  let table = Array.of_list oids in
  let generate rng =
    let ops =
      List.init params.calls (fun _ ->
          let oid = table.(Workload.pick_key rng params) in
          if Util.Rng.chance rng params.read_ratio then Txn.read oid else increment oid)
    in
    fun () -> Workload.ops_as_cts ops
  in
  let check () =
    if total cluster ~oids >= 0 then Ok () else Error "counter went negative"
  in
  { Workload.generate; check }

let benchmark = { Workload.name = "counter"; min_objects = 1; setup }
