open Core
open Txn.Syntax

let nil = -1
let red = 0
let black = 1

type node = { key : int; color : int; left : int; right : int; present : bool }

let encode n =
  Store.Value.(List [ Int n.key; Int n.color; Int n.left; Int n.right; Bool n.present ])

let decode v =
  Store.Value.
    {
      key = to_int (field v 0);
      color = to_int (field v 1);
      left = to_int (field v 2);
      right = to_int (field v 3);
      present = to_bool (field v 4);
    }

type handle = { rootp : Core.Ids.obj_id; pool : Core.Ids.obj_id array; keys : int }

let with_node oid k =
  let* v = Txn.read oid in
  k (decode v)

let write_node oid n = Txn.write oid (encode n)

(* Parent links during fix-up: either the root pointer or a node whose child
   field currently points at the rotated subtree's old root. *)
type link = Root | Parent of int

let set_link h link ~was ~now =
  match link with
  | Root -> Txn.write h.rootp (Store.Value.Int now)
  | Parent p ->
    with_node p (fun pn ->
        if pn.left = was then write_node p { pn with left = now }
        else write_node p { pn with right = now })

(* Left-rotate around [x]; afterwards x's old right child sits where x was. *)
let rotate_left h x ~link =
  with_node x (fun xn ->
      let y = xn.right in
      with_node y (fun yn ->
          let* _ = write_node x { xn with right = yn.left } in
          let* _ = write_node y { yn with left = x } in
          set_link h link ~was:x ~now:y))

let rotate_right h x ~link =
  with_node x (fun xn ->
      let y = xn.left in
      with_node y (fun yn ->
          let* _ = write_node x { xn with left = yn.right } in
          let* _ = write_node y { yn with right = x } in
          set_link h link ~was:x ~now:y))

let link_above = function [] -> Root | gg :: _ -> Parent gg

(* CLRS insert fix-up.  [path] lists ancestor oids of [z], nearest first.
   Every read below is a local read-set hit for nodes already on the path;
   only uncle reads can go remote. *)
let rec fixup h z path =
  match path with
  | [] ->
    (* z is the root: must be black. *)
    with_node z (fun zn ->
        if zn.color = red then
          let* _ = write_node z { zn with color = black } in
          Txn.return (Store.Value.Bool true)
        else Txn.return (Store.Value.Bool true))
  | p :: rest ->
    with_node p (fun pn ->
        if pn.color = black then Txn.return (Store.Value.Bool true)
        else begin
          match rest with
          | [] ->
            (* Red parent is the root: just re-blacken it. *)
            let* _ = write_node p { pn with color = black } in
            Txn.return (Store.Value.Bool true)
          | g :: above ->
            with_node g (fun gn ->
                let p_is_left = gn.left = p in
                let uncle = if p_is_left then gn.right else gn.left in
                let with_uncle_red k =
                  if uncle = nil then k false
                  else with_node uncle (fun un -> k (un.color = red))
                in
                with_uncle_red (fun uncle_is_red ->
                    if uncle_is_red then
                      (* Case 1: recolour and ascend. *)
                      let* _ = write_node p { pn with color = black } in
                      with_node uncle (fun un ->
                          let* _ = write_node uncle { un with color = black } in
                          let* _ = write_node g { gn with color = red } in
                          fixup h g above)
                    else begin
                      let z_is_inner = if p_is_left then pn.right = z else pn.left = z in
                      let glink = link_above above in
                      let finish top =
                        (* Case 3: recolour the new subtree top black, the
                           old grandparent red, rotate at the grandparent. *)
                        with_node top (fun tn ->
                            let* _ = write_node top { tn with color = black } in
                            with_node g (fun gn2 ->
                                let* _ = write_node g { gn2 with color = red } in
                                if p_is_left then rotate_right h g ~link:glink
                                else rotate_left h g ~link:glink))
                      in
                      if z_is_inner then
                        (* Case 2: rotate the parent first; z takes its place. *)
                        let* _ =
                          if p_is_left then rotate_left h p ~link:(Parent g)
                          else rotate_right h p ~link:(Parent g)
                        in
                        let* _ = finish z in
                        Txn.return (Store.Value.Bool true)
                      else
                        let* _ = finish p in
                        Txn.return (Store.Value.Bool true)
                    end))
        end)

let insert h ~key =
  let rec descend oid path =
    if oid = nil then attach path
    else
      with_node oid (fun n ->
          if n.key = key then
            if n.present then Txn.return (Store.Value.Bool false)
            else
              let* _ = write_node oid { n with present = true } in
              Txn.return (Store.Value.Bool true)
          else descend (if key < n.key then n.left else n.right) (oid :: path))
  and attach path =
    let z = h.pool.(key) in
    let* _ =
      write_node z { key; color = red; left = nil; right = nil; present = true }
    in
    let* _ =
      match path with
      | [] -> Txn.write h.rootp (Store.Value.Int z)
      | p :: _ ->
        with_node p (fun pn ->
            if key < pn.key then write_node p { pn with left = z }
            else write_node p { pn with right = z })
    in
    fixup h z path
  in
  let* rv = Txn.read h.rootp in
  descend (Store.Value.to_int rv) []

let search h ~key ~k =
  let rec descend oid =
    if oid = nil then k None
    else
      with_node oid (fun n ->
          if n.key = key then k (Some (oid, n))
          else descend (if key < n.key then n.left else n.right))
  in
  let* rv = Txn.read h.rootp in
  descend (Store.Value.to_int rv)

let remove h ~key =
  search h ~key ~k:(fun found ->
      match found with
      | Some (oid, n) when n.present ->
        let* _ = write_node oid { n with present = false } in
        Txn.return (Store.Value.Bool true)
      | Some _ | None -> Txn.return (Store.Value.Bool false))

let contains h ~key =
  search h ~key ~k:(fun found ->
      match found with
      | Some (_, n) -> Txn.return (Store.Value.Bool n.present)
      | None -> Txn.return (Store.Value.Bool false))

(* Half the key space (the even keys) is pre-installed as a balanced tree:
   nodes on incomplete deepest level are red, everything above black, which
   satisfies all red-black invariants for any population size. *)
let create cluster ~keys =
  let pool = Array.init keys (fun _ -> Cluster.alloc_object cluster ~init:Store.Value.Unit) in
  let preloaded = Array.init keys (fun key -> key) |> Array.to_list
                  |> List.filter (fun key -> key mod 2 = 0) in
  let preloaded = Array.of_list preloaded in
  let n = Array.length preloaded in
  let max_depth =
    (* Deepest level of the midpoint-balanced tree: floor(log2 n).  All
       nodes there are leaves, so colouring exactly that level red creates
       no red-red edge and equalises black heights. *)
    let rec lg k = if k <= 1 then 0 else 1 + lg (k / 2) in
    lg n
  in
  let rec build lo hi depth =
    if lo > hi then nil
    else begin
      let mid = (lo + hi) / 2 in
      let key = preloaded.(mid) in
      let left = build lo (mid - 1) (depth + 1) in
      let right = build (mid + 1) hi (depth + 1) in
      let color = if depth = max_depth then red else black in
      Cluster.install_object cluster ~oid:pool.(key)
        ~init:(encode { key; color; left; right; present = true });
      pool.(key)
    end
  in
  let root = if n = 0 then nil else build 0 (n - 1) 0 in
  (* The root must be black. *)
  if root <> nil then begin
    let rv = Workload.latest_value cluster ~oid:root in
    Cluster.install_object cluster ~oid:root
      ~init:(encode { (decode rv) with color = black })
  end;
  Array.iteri
    (fun key oid ->
      if key mod 2 = 1 then
        Cluster.install_object cluster ~oid
          ~init:(encode { key; color = red; left = nil; right = nil; present = false }))
    pool;
  let rootp = Cluster.alloc_object cluster ~init:(Store.Value.Int root) in
  { rootp; pool; keys }

let committed_node cluster oid = decode (Workload.latest_value cluster ~oid)

let committed_keys cluster h =
  let root = Store.Value.to_int (Workload.latest_value cluster ~oid:h.rootp) in
  let rec inorder oid acc =
    if oid = nil then acc
    else begin
      let n = committed_node cluster oid in
      let acc = inorder n.right acc in
      let acc = if n.present then n.key :: acc else acc in
      inorder n.left acc
    end
  in
  inorder root []

let check_structure cluster h =
  let root = Store.Value.to_int (Workload.latest_value cluster ~oid:h.rootp) in
  let visited = ref 0 in
  (* Returns the black height of the subtree, or an error. *)
  let rec check oid lo hi parent_red =
    if oid = nil then Ok 1
    else begin
      incr visited;
      if !visited > h.keys then Error "rbtree: cycle detected"
      else begin
        let n = committed_node cluster oid in
        if n.key < lo || n.key > hi then
          Error (Printf.sprintf "rbtree: key %d violates search order" n.key)
        else if parent_red && n.color = red then
          Error (Printf.sprintf "rbtree: red-red edge at key %d" n.key)
        else
          match check n.left lo (n.key - 1) (n.color = red) with
          | Error _ as e -> e
          | Ok lh ->
            begin
              match check n.right (n.key + 1) hi (n.color = red) with
              | Error _ as e -> e
              | Ok rh ->
                if lh <> rh then
                  Error
                    (Printf.sprintf "rbtree: black-height mismatch at key %d (%d vs %d)"
                       n.key lh rh)
                else Ok (lh + if n.color = black then 1 else 0)
            end
      end
    end
  in
  if root = nil then Ok ()
  else begin
    let rn = committed_node cluster root in
    if rn.color <> black then Error "rbtree: root is not black"
    else match check root min_int max_int false with Ok _ -> Ok () | Error _ as e -> e
  end

let setup cluster (params : Workload.params) =
  let h = create cluster ~keys:params.objects in
  let generate rng =
    let ops =
      List.init params.calls (fun _ ->
          let key = Workload.pick_key rng params in
          if Util.Rng.chance rng params.read_ratio then contains h ~key
          else if Util.Rng.bool rng then insert h ~key
          else remove h ~key)
    in
    fun () -> Workload.ops_as_cts ops
  in
  let check () = check_structure cluster h in
  { Workload.generate; check }

let benchmark = { Workload.name = "rbtree"; min_objects = 1; setup }
