module Int_map = Map.Make (Int)

type entry = { oid : Ids.obj_id; version : int; value : Txn.value; owner : int }
type t = entry Int_map.t

let empty = Int_map.empty
let is_empty = Int_map.is_empty
let size = Int_map.cardinal
let add t e = Int_map.add e.oid e t
let find t oid = Int_map.find_opt oid t
let mem t oid = Int_map.mem oid t
let remove t oid = Int_map.remove oid t

let merge_into ~child ~parent =
  Int_map.union (fun _oid child_entry _parent_entry -> Some child_entry) child parent

let retag t ~owner = Int_map.map (fun e -> { e with owner }) t
let iter t f = Int_map.iter (fun _oid e -> f e) t
let entries t = List.map snd (Int_map.bindings t)
let oids t = List.map fst (Int_map.bindings t)
