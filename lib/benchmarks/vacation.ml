open Core
open Txn.Syntax

let categories = 3
let offers_scanned = 2
let initial_stock = 20

(* Offer encoding: List [Int available; Int price; Int total]. *)
let offer_value ~available ~price ~total =
  Store.Value.(List [ Int available; Int price; Int total ])

let offer_available v = Store.Value.(to_int (field v 0))
let offer_price v = Store.Value.(to_int (field v 1))
let offer_total v = Store.Value.(to_int (field v 2))

type handle = { tables : Core.Ids.obj_id array array (* category -> offers *) }

let create cluster ~offers_per_category =
  assert (offers_per_category >= 1);
  let seed_rng = Util.Rng.create 1009 in
  let tables =
    Array.init categories (fun _ ->
        Array.init offers_per_category (fun _ ->
            let price = 50 + Util.Rng.int seed_rng 450 in
            Cluster.alloc_object cluster
              ~init:(offer_value ~available:initial_stock ~price ~total:initial_stock)))
  in
  { tables }

let pick_offers h rng ~category =
  let table = h.tables.(category) in
  List.init offers_scanned (fun _ -> table.(Util.Rng.int rng (Array.length table)))

(* Scan the chosen offers, remember the cheapest available one. *)
let scan offers ~k =
  let rec go best = function
    | [] -> k best
    | oid :: rest ->
      let* v = Txn.read oid in
      let best =
        if offer_available v > 0 then
          match best with
          | Some (_, bv) when offer_price bv <= offer_price v -> best
          | Some _ | None -> Some (oid, v)
        else best
      in
      go best rest
  in
  go None offers

let reserve h rng ~category =
  let offers = pick_offers h rng ~category in
  scan offers ~k:(fun best ->
      match best with
      | None -> Txn.return Store.Value.Unit
      | Some (oid, v) ->
        let updated =
          offer_value
            ~available:(offer_available v - 1)
            ~price:(offer_price v) ~total:(offer_total v)
        in
        let* _ = Txn.write oid updated in
        Txn.return (Store.Value.Int (offer_price v)))

let query h rng ~category =
  let offers = pick_offers h rng ~category in
  scan offers ~k:(fun best ->
      match best with
      | None -> Txn.return Store.Value.Unit
      | Some (_, v) -> Txn.return (Store.Value.Int (offer_price v)))

let fold_offers cluster h f init =
  Array.fold_left
    (fun acc table ->
      Array.fold_left
        (fun acc oid -> f acc (Workload.latest_value cluster ~oid))
        acc table)
    init h.tables

let check_offers cluster h =
  fold_offers cluster h
    (fun acc v ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        let available = offer_available v and total = offer_total v in
        if available < 0 then Error (Printf.sprintf "offer oversold: available %d" available)
        else if available > total then
          Error (Printf.sprintf "offer refunded beyond stock: %d > %d" available total)
        else Ok ())
    (Ok ())

let total_reserved cluster h =
  fold_offers cluster h (fun acc v -> acc + (offer_total v - offer_available v)) 0

let setup cluster (params : Workload.params) =
  let offers_per_category = Stdlib.max 1 (params.objects / categories) in
  let h = create cluster ~offers_per_category in
  let generate rng =
    let ops =
      List.init params.calls (fun i ->
          let category = i mod categories in
          if Util.Rng.chance rng params.read_ratio then query h rng ~category
          else reserve h rng ~category)
    in
    fun () -> Workload.ops_as_cts ops
  in
  let check () = check_offers cluster h in
  { Workload.generate; check }

let benchmark = { Workload.name = "vacation"; min_objects = 1; setup }
