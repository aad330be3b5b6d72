open Core
open Txn.Syntax

let max_level = 3
let nil = -1

(* Node encoding: List [Int key; List [Int next_0; ...; Int next_{h-1}]].
   The head node has key = min_int and full height. *)
let node_value ~key ~nexts =
  Store.Value.(List [ Int key; List (List.map (fun n -> Int n) nexts) ])

let node_key v = Store.Value.(to_int (field v 0))
let node_nexts v = Store.Value.(List.map to_int (to_list (field v 1)))

let node_next v level =
  let nexts = node_nexts v in
  match List.nth_opt nexts level with Some n -> n | None -> nil

let with_next v level target =
  let nexts = List.mapi (fun l n -> if l = level then target else n) (node_nexts v) in
  node_value ~key:(node_key v) ~nexts

(* Deterministic p=1/2 tower height from a key hash. *)
let height_of key =
  let h = ref 1 in
  let bits = ref (Int64.to_int (Int64.shift_right_logical
    (Int64.mul (Int64.of_int (key + 0x9E37)) 0x2545F4914F6CDD1DL) 17) land 0xFFFF) in
  while !h < max_level && !bits land 1 = 1 do
    incr h;
    bits := !bits lsr 1
  done;
  !h

type handle = {
  head : Core.Ids.obj_id;
  pool : Core.Ids.obj_id array;
  keys : int;
}

(* Pre-populate every other key via initial values. *)
let preloaded key = key mod 2 = 0

let create cluster ~keys =
  let pool = Array.init keys (fun _ -> Cluster.alloc_object cluster ~init:Store.Value.Unit) in
  let rec next_loaded_at k level =
    if k >= keys then nil
    else if preloaded k && height_of k > level then pool.(k)
    else next_loaded_at (k + 1) level
  in
  Array.iteri
    (fun key oid ->
      let h = height_of key in
      let nexts =
        List.init h (fun level ->
            if preloaded key then next_loaded_at (key + 1) level else nil)
      in
      Cluster.install_object cluster ~oid ~init:(node_value ~key ~nexts))
    pool;
  let head_nexts = List.init max_level (fun level -> next_loaded_at 0 level) in
  let head = Cluster.alloc_object cluster ~init:(node_value ~key:min_int ~nexts:head_nexts) in
  { head; pool; keys }

(* Search for [key]: returns the predecessor (oid, value) at every level,
   top-down order reversed into ascending level order, and whether level 0's
   successor is the key itself. *)
let search h ~key ~k =
  let rec descend ~oid ~v ~level ~preds =
    let next = node_next v level in
    if next <> nil then
      let* nv = Txn.read next in
      if node_key nv < key then descend ~oid:next ~v:nv ~level ~preds
      else finish ~oid ~v ~level ~preds ~succ:(Some (next, nv))
    else finish ~oid ~v ~level ~preds ~succ:None
  and finish ~oid ~v ~level ~preds ~succ =
    let preds = (oid, v) :: preds in
    if level = 0 then begin
      let found =
        match succ with
        | Some (soid, sv) when node_key sv = key -> Some (soid, sv)
        | Some _ | None -> None
      in
      k ~preds ~found
    end
    else descend ~oid ~v ~level:(level - 1) ~preds
  in
  let* hv = Txn.read h.head in
  descend ~oid:h.head ~v:hv ~level:(max_level - 1) ~preds:[]

(* [preds] is ascending by level (level 0 first) after search. *)
let add h ~key =
  search h ~key ~k:(fun ~preds ~found ->
      match found with
      | Some _ -> Txn.return (Store.Value.Bool false)
      | None ->
        let height = height_of key in
        let node = h.pool.(key) in
        let relevant = List.filteri (fun level _ -> level < height) preds in
        let succs =
          List.mapi (fun level (_, pv) -> node_next pv level) relevant
        in
        let* _ = Txn.write node (node_value ~key ~nexts:succs) in
        let rec link level = function
          | [] -> Txn.return (Store.Value.Bool true)
          | (poid, _) :: rest ->
            (* Re-read through the transaction: an earlier level's write to
               the same predecessor must be visible. *)
            let* pv = Txn.read poid in
            let* _ = Txn.write poid (with_next pv level node) in
            link (level + 1) rest
        in
        link 0 relevant)

let remove h ~key =
  search h ~key ~k:(fun ~preds ~found ->
      match found with
      | None -> Txn.return (Store.Value.Bool false)
      | Some (noid, nv) ->
        let rec unlink level = function
          | [] -> Txn.return (Store.Value.Bool true)
          | (poid, _) :: rest ->
            let* pv = Txn.read poid in
            if node_next pv level = noid then
              let* _ = Txn.write poid (with_next pv level (node_next nv level)) in
              unlink (level + 1) rest
            else Txn.return (Store.Value.Bool true)
        in
        unlink 0 preds)

let contains h ~key =
  search h ~key ~k:(fun ~preds:_ ~found ->
      Txn.return (Store.Value.Bool (Option.is_some found)))

let level_keys cluster h level =
  let rec walk oid acc steps =
    if oid = nil || steps > h.keys + 2 then List.rev acc
    else begin
      let v = Workload.latest_value cluster ~oid in
      let key = node_key v in
      let acc = if key = min_int then acc else key :: acc in
      walk (node_next v level) acc (steps + 1)
    end
  in
  walk h.head [] 0

let committed_keys cluster h = level_keys cluster h 0

let check_structure cluster h =
  let rec sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a < b && sorted rest
  in
  let level0 = level_keys cluster h 0 in
  if List.length level0 > h.keys then Error "skiplist: level-0 cycle"
  else if not (sorted level0) then Error "skiplist: level-0 keys not sorted"
  else begin
    let rec check_level level =
      if level >= max_level then Ok ()
      else begin
        let ks = level_keys cluster h level in
        if not (sorted ks) then
          Error (Printf.sprintf "skiplist: level-%d keys not sorted" level)
        else if not (List.for_all (fun k -> List.mem k level0) ks) then
          Error (Printf.sprintf "skiplist: level-%d not a subsequence of level 0" level)
        else check_level (level + 1)
      end
    in
    check_level 1
  end

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

let benchmark = { Workload.name = "slist"; min_objects = 1; setup }
