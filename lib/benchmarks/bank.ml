open Core
open Txn.Syntax

let initial_balance = 1_000

let transfer ~from_ ~to_ ~amount =
  let* src = Txn.read from_ in
  let* dst = Txn.read to_ in
  let* _ = Txn.write from_ (Store.Value.Int (Store.Value.to_int src - amount)) in
  Txn.write to_ (Store.Value.Int (Store.Value.to_int dst + amount))

let audit a b =
  let* va = Txn.read a in
  let* vb = Txn.read b in
  Txn.return (Store.Value.Int (Store.Value.to_int va + Store.Value.to_int vb))

let total_balance cluster ~accounts =
  Array.fold_left
    (fun acc oid -> acc + Store.Value.to_int (Workload.latest_value cluster ~oid))
    0 accounts

(* A transfer moves money between two distinct accounts. *)
let min_accounts = 2

let setup cluster (params : Workload.params) =
  if params.objects < min_accounts then
    invalid_arg
      (Printf.sprintf "Bank.setup: %d accounts (a transfer needs %d)" params.objects
         min_accounts);
  let accounts =
    Array.init params.objects (fun _ ->
        Cluster.alloc_object cluster ~init:(Store.Value.Int initial_balance))
  in
  (* Cross-shard transfers: a [cross_shard_prob] fraction of pairs is
     forced to span two shards — the second account is drawn from a
     Zipf-chosen target shard other than the first account's.  All of
     this (including the bucket index) is gated so that shard-local runs
     consume the exact pre-knob random sequence. *)
  let shards = Cluster.shard_count cluster in
  let by_shard =
    if params.cross_shard_prob <= 0. || shards <= 1 then [||]
    else begin
      let buckets = Array.make shards [] in
      Array.iteri
        (fun i oid ->
          let s = Cluster.shard_of_oid cluster oid in
          buckets.(s) <- i :: buckets.(s))
        accounts;
      Array.map (fun l -> Array.of_list (List.rev l)) buckets
    end
  in
  let populated =
    Array.fold_left (fun n b -> if Array.length b > 0 then n + 1 else n) 0 by_shard
  in
  let xshard = populated > 1 in
  (* [by_shard] is fixed at setup, but the account's home is read live:
     after a move, [a]'s old bucket still lists it.  Redraw rather than
     return [a] itself — [transfer a a] reads [a] twice and writes it
     twice, creating [amount] out of thin air. *)
  let rec pick_cross rng a =
    let home = Cluster.shard_of_oid cluster accounts.(a) in
    let rec target () =
      let s = Workload.pick_shard rng params ~shards in
      if s = home || Array.length by_shard.(s) = 0 then target () else s
    in
    let s = target () in
    let b = by_shard.(s).(Util.Rng.int rng (Array.length by_shard.(s))) in
    if b = a then pick_cross rng a else b
  in
  let pick_two rng =
    let a = Workload.pick_key rng params in
    if xshard && Util.Rng.chance rng params.cross_shard_prob then
      (accounts.(a), accounts.(pick_cross rng a))
    else
      let rec other () =
        let b = Workload.pick_key rng params in
        if b = a then other () else b
      in
      (accounts.(a), accounts.(other ()))
  in
  let generate rng =
    let ops =
      List.init params.calls (fun _ ->
          let a, b = pick_two rng in
          if Util.Rng.chance rng params.read_ratio then audit a b
          else transfer ~from_:a ~to_:b ~amount:(1 + Util.Rng.int rng 10))
    in
    fun () -> Workload.ops_as_cts ops
  in
  let check () =
    let expected = params.objects * initial_balance in
    let actual = total_balance cluster ~accounts in
    if actual = expected then Ok ()
    else Error (Printf.sprintf "bank: total balance %d, expected %d" actual expected)
  in
  { Workload.generate; check }

let benchmark = { Workload.name = "bank"; min_objects = min_accounts; setup }
