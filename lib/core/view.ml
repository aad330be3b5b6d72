type change =
  | Join of { node : int; shard : int }
  | Leave of int
  | Replace of { leaving : int; joining : int }
  | Move of { oid : int; to_shard : int }
  | Split of int

type transition = Change of change | Crash of int | Recover of int

type t = {
  capacity : int;
  mutable shards : int list array; (* shard -> members, ascending *)
  home : int array; (* machine -> the shard it replicates or last served *)
  mutable dir : int array; (* oid -> owning shard, for allocated oids *)
  mutable dir_len : int;
  dir_default : int;
      (* the initial shard count: an oid without a directory entry maps to
         [oid mod dir_default].  Frozen at creation — shards minted by
         splits receive objects only through the split and explicit moves,
         so the default mapping stays stable across the run. *)
  crashed : bool array;
}

let min_members = 3

let layout_error ~nodes ~shards =
  if shards < 1 then Some "shards must be >= 1"
  else if nodes < shards * min_members then
    Some
      (Printf.sprintf "%d initial members cannot populate %d shards (minimum %d each)"
         nodes shards min_members)
  else None

let initial_shards ~nodes ~shards =
  let base = nodes / shards and rem = nodes mod shards in
  List.init shards (fun s ->
      let start = (s * base) + Stdlib.min s rem in
      List.init (base + if s < rem then 1 else 0) (fun i -> start + i))

let make ~capacity layout =
  let home = Array.make capacity 0 in
  List.iteri (fun s members -> List.iter (fun n -> home.(n) <- s) members) layout;
  {
    capacity;
    shards = Array.of_list (List.map (List.sort_uniq Int.compare) layout);
    home;
    dir = [||];
    dir_len = 0;
    dir_default = List.length layout;
    crashed = Array.make capacity false;
  }

let initial ?(spares = 0) ~nodes ~shards () =
  Option.iter (fun msg -> invalid_arg ("View.initial: " ^ msg)) (layout_error ~nodes ~shards);
  make ~capacity:(nodes + spares) (initial_shards ~nodes ~shards)

let copy v =
  {
    v with
    shards = Array.copy v.shards;
    home = Array.copy v.home;
    dir = Array.copy v.dir;
    crashed = Array.copy v.crashed;
  }

let allocate v ~oid =
  if oid >= Array.length v.dir then begin
    let grown = Array.make (Stdlib.max (oid + 1) (2 * (Array.length v.dir + 1))) 0 in
    Array.blit v.dir 0 grown 0 v.dir_len;
    v.dir <- grown
  end;
  for i = v.dir_len to oid do
    v.dir.(i) <- i mod v.dir_default
  done;
  v.dir_len <- Stdlib.max v.dir_len (oid + 1)

let capacity v = v.capacity
let shard_count v = Array.length v.shards
let shard_members v shard = v.shards.(shard)

let members v =
  List.sort Int.compare (Array.fold_left (fun acc ms -> List.rev_append ms acc) [] v.shards)

let is_member v node =
  node >= 0 && node < v.capacity && List.mem node v.shards.(v.home.(node))

let home v node = v.home.(node)

let shard_of_oid v oid =
  if oid >= 0 && oid < v.dir_len then v.dir.(oid) else oid mod v.dir_default

let check v transition =
  let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let shards = shard_count v in
  let joinable node =
    if node < 0 || node >= v.capacity then
      err "cannot join node %d: no such machine (capacity %d)" node v.capacity
    else if is_member v node then
      err "cannot join node %d: already a member (view=[%s])" node
        (String.concat ";" (List.map string_of_int (members v)))
    else Ok ()
  in
  let removable node =
    if not (is_member v node) then err "cannot remove node %d: not a member" node
    else if v.crashed.(node) then
      err "cannot remove node %d: crashed (a graceful departure needs a live node)" node
    else Ok ()
  in
  match transition with
  | Change (Join { node; shard }) ->
    if shard < 0 || shard >= shards then err "no such shard %d (%d shards)" shard shards
    else joinable node
  | Change (Leave node) ->
    Result.bind (removable node) (fun () ->
        let shard = v.home.(node) in
        let size = List.length v.shards.(shard) - 1 in
        if size < min_members then
          err
            "cannot remove node %d: shard %d would have %d members, below the \
             quorum-viable minimum (%d)"
            node shard size min_members
        else Ok ())
  | Change (Replace { leaving; joining }) ->
    Result.bind (removable leaving) (fun () -> joinable joining)
  | Change (Move { oid; to_shard }) ->
    if to_shard < 0 || to_shard >= shards then
      err "cannot move object %d: no such shard %d (%d shards)" oid to_shard shards
    else if oid < 0 || oid >= v.dir_len then
      err "cannot move object %d: not an allocated object" oid
    else if v.dir.(oid) = to_shard then
      err "cannot move object %d: already on shard %d" oid to_shard
    else Ok ()
  | Change (Split shard) ->
    if shard < 0 || shard >= shards then
      err "cannot split shard %d: no such shard (%d shards)" shard shards
    else
      let m = List.length v.shards.(shard) in
      if m < 2 * min_members then
        err
          "cannot split shard %d: %d members cannot form two quorum-viable shards \
           (minimum %d each)"
          shard m min_members
      else Ok ()
  | Crash node ->
    if not (is_member v node) then err "cannot crash node %d: not a member" node
    else if v.crashed.(node) then err "cannot crash node %d: already crashed" node
    else
      let shard = v.home.(node) in
      if List.for_all (fun m -> m = node || v.crashed.(m)) v.shards.(shard) then
        err "cannot crash node %d: the last live member of shard %d" node shard
      else Ok ()
  | Recover node ->
    if node < 0 || node >= v.capacity || not v.crashed.(node) then
      err "cannot recover node %d: not crashed" node
    else Ok ()

let add node members = List.merge Int.compare [ node ] members
let remove node members = List.filter (fun m -> m <> node) members

let apply v = function
  | Change (Join { node; shard }) ->
    v.shards.(shard) <- add node v.shards.(shard);
    v.home.(node) <- shard
  | Change (Leave node) ->
    let shard = v.home.(node) in
    v.shards.(shard) <- remove node v.shards.(shard)
  | Change (Replace { leaving; joining }) ->
    let shard = v.home.(leaving) in
    v.shards.(shard) <- add joining (remove leaving v.shards.(shard));
    v.home.(joining) <- shard
  | Change (Move { oid; to_shard }) -> v.dir.(oid) <- to_shard
  | Change (Split shard) ->
    let members = v.shards.(shard) in
    let keep_n = (List.length members + 1) / 2 in
    let fresh = shard_count v in
    let moved = List.filteri (fun i _ -> i >= keep_n) members in
    v.shards.(shard) <- List.filteri (fun i _ -> i < keep_n) members;
    v.shards <- Array.append v.shards [| moved |];
    List.iter (fun n -> v.home.(n) <- fresh) moved;
    let idx = ref 0 in
    for oid = 0 to v.dir_len - 1 do
      if v.dir.(oid) = shard then begin
        if !idx land 1 = 1 then v.dir.(oid) <- fresh;
        incr idx
      end
    done
  | Crash node -> v.crashed.(node) <- true
  | Recover node -> v.crashed.(node) <- false
