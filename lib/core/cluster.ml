(* A view change: a membership change on one shard, or an edit of the
   object -> shard directory.  Every kind runs the same fenced pipeline. *)
type view_change =
  | Join of { node : int; shard : int }
  | Leave of int
  | Replace of { leaving : int; joining : int }
  | Move of { oid : int; to_shard : int }
  | Split of int

(* One shard: an independent membership view over a disjoint slice of the
   machines, with its own quorum tree, epoch and wedge flag.  The epoch and
   wedge are refs so the executor's quorum closures and the RPC fencing
   hook — built before the cluster record — share them. *)
type shard_state = {
  sh_tq : Quorum.Tree_quorum.t;
  sh_epoch : int ref;
  sh_wedged : bool ref;
}

(* The shard directory and per-shard state.  [states] and [dir] are
   mutable fields (not just mutable contents) because a split appends a
   shard and the directory grows with the object space; every closure
   capturing this record sees the updates. *)
type sharding = {
  mutable states : shard_state array;
  mutable dir : int array; (* oid -> owning shard, for allocated oids *)
  mutable dir_len : int;
  dir_default : int;
      (* the initial shard count: an oid without a directory entry maps to
         [oid mod dir_default].  Deliberately frozen at creation — shards
         minted by splits receive objects only through explicit moves, so
         the default mapping stays stable across the run. *)
  home : int array; (* node -> the shard it replicates *)
  read_level : int; (* for quorum trees minted by splits *)
}

type t = {
  engine : Sim.Engine.t;
  network : (Messages.request, Messages.reply) Sim.Rpc.envelope Sim.Network.t;
  rpc : (Messages.request, Messages.reply) Sim.Rpc.t;
  servers : Server.t array;
  sharding : sharding;
  failure : Sim.Failure.t;
  executor : Executor.t;
  metrics : Metrics.t;
  oracle : Oracle.t option;
  config : Config.t;
  ids : Ids.gen;
  mutable changing : bool; (* a view change is between wedge and done *)
  (* View changes waiting behind the active one, in submission order.
     FIFO matters: a replace may legitimately re-use a machine an earlier
     queued change decommissions, so reordering would make a valid
     schedule fail validation. *)
  pending : (view_change * (unit -> unit) option) Queue.t;
}

let min_members = 3

(* Read ∪ write quorum of [tq] salted by [salt]: the status peer set and the
   quorum a state pull goes through.  Commits decided just before may still
   have Applies in flight, and the wider set maximises the chance of
   including a member that already installed them; the union intersects
   every write quorum in several members. *)
let sync_quorum tq ~salt =
  let of_opt q = Option.value ~default:[] q in
  List.sort_uniq Int.compare
    (of_opt (Quorum.Tree_quorum.read_quorum ~salt tq)
    @ of_opt (Quorum.Tree_quorum.write_quorum ~salt tq))

let shard_of_oid_s sharding oid =
  if oid >= 0 && oid < sharding.dir_len then sharding.dir.(oid)
  else oid mod sharding.dir_default

(* Record [oid]'s directory entry (default placement) if it has none. *)
let ensure_dir sharding ~oid =
  if oid >= Array.length sharding.dir then begin
    let cap = Stdlib.max (oid + 1) (2 * (Array.length sharding.dir + 1)) in
    let grown = Array.make cap 0 in
    Array.blit sharding.dir 0 grown 0 sharding.dir_len;
    sharding.dir <- grown
  end;
  if oid >= sharding.dir_len then begin
    for i = sharding.dir_len to oid do
      sharding.dir.(i) <- i mod sharding.dir_default
    done;
    sharding.dir_len <- oid + 1
  end

(* The shard whose epoch fences a request, keyed on the payload: the owner
   of the first object the message names.  Keyed on the payload — not the
   receiving node — so sender stamp and receiver fence always evaluate the
   same epoch, even for cross-shard traffic (a Status_req from shard A's
   termination protocol delivered to a shard-B peer is fenced by A's
   epoch, the view its lease evidence belongs to). *)
let request_shard sharding = function
  | Messages.Read_req { oid; _ } -> shard_of_oid_s sharding oid
  | Messages.Commit_req { locks = oid :: _; _ } -> shard_of_oid_s sharding oid
  | Messages.Commit_req { dataset; _ } | Messages.Batch_commit_req { dataset; _ }
    ->
    if Array.length dataset.Messages.ds_oids > 0 then
      shard_of_oid_s sharding dataset.Messages.ds_oids.(0)
    else 0
  | Messages.Apply { writes; _ } ->
    if Array.length writes.Messages.wr_oids > 0 then
      shard_of_oid_s sharding writes.Messages.wr_oids.(0)
    else 0
  | Messages.Release { oids = oid :: _; _ } -> shard_of_oid_s sharding oid
  | Messages.Release _ -> 0
  | Messages.Status_req { oids = oid :: _; _ } -> shard_of_oid_s sharding oid
  | Messages.Status_req _ -> 0
  | Messages.Handoff { objects = (oid, _, _) :: _ } -> shard_of_oid_s sharding oid
  | Messages.Handoff _ -> 0
  | Messages.Sync_req -> 0

let shard_count t = Array.length t.sharding.states
let shard_of_oid t oid = shard_of_oid_s t.sharding oid

let shard_members t ~shard =
  Quorum.Tree_quorum.members t.sharding.states.(shard).sh_tq

let home_shard_of t ~node = t.sharding.home.(node)

(* A shard's read or write quorum salted by [salt].  Memoisation lives in
   [Tree_quorum] (generation-keyed, per salt); an unconstructible quorum
   degrades to [[]], as do all quorums while a view change has the shard
   wedged — callers treat an empty quorum as "retry politely". *)
let quorum ~write st ~salt =
  if !(st.sh_wedged) then []
  else
    Option.value ~default:[]
      (if write then Quorum.Tree_quorum.write_quorum ~salt st.sh_tq
       else Quorum.Tree_quorum.read_quorum ~salt st.sh_tq)

(* The per-node accessors serve the node's {e home} shard (the objects it
   replicates). *)
let read_quorum_of t ~node =
  quorum ~write:false t.sharding.states.(t.sharding.home.(node)) ~salt:node

let write_quorum_of t ~node =
  quorum ~write:true t.sharding.states.(t.sharding.home.(node)) ~salt:node

let nodes t = Array.length t.servers

let members t =
  List.sort_uniq Int.compare
    (Array.fold_left
       (fun acc st -> Quorum.Tree_quorum.members st.sh_tq @ acc)
       [] t.sharding.states)

let is_member t node = List.mem node (members t)

(* The cluster-wide epoch: the sum of the shard epochs, i.e. the number of
   completed view changes across the whole deployment (identical to the
   single epoch when there is one shard). *)
let epoch t =
  Array.fold_left (fun acc st -> acc + !(st.sh_epoch)) 0 t.sharding.states

(* Re-admit a node to quorum construction.  This runs only after state
   transfer completed — for recovered crashes AND cleared false
   suspicions alike (see [resync]).  Liveness flags are keyed by physical
   id in every quorum tree, so reviving across all shards is exact. *)
let readmit t node =
  Array.iter
    (fun st -> Quorum.Tree_quorum.revive st.sh_tq node)
    t.sharding.states;
  Sim.Failure.clear_suspicion t.failure node

(* Pull the committed state of every member of [dsts] ([Sync_req]) and hand
   the replies, in reply order, to [k]; an empty [dsts] or any missing
   reply calls [retry] instead. *)
let pull t ~src ~dsts ~retry k =
  if dsts = [] then retry ()
  else
    Sim.Rpc.multicall t.rpc ~kind:Messages.sync_req_kind ~src ~dsts
      ~timeout:t.config.Config.request_timeout Messages.Sync_req
      ~on_done:(fun ~replies ~missing -> if missing <> [] then retry () else k replies)

(* Per-object maximum over the [Sync_rep] replies of a pull, sorted by oid:
   the committed frontier of the view the pull went through. *)
let frontier replies =
  let best = Hashtbl.create 256 in
  List.iter
    (fun (_, reply) ->
      match reply with
      | Messages.Sync_rep { objects } ->
        List.iter
          (fun (oid, version, value) ->
            match Hashtbl.find_opt best oid with
            | Some (v, _) when v >= version -> ()
            | _ -> Hashtbl.replace best oid (version, value))
          objects
      | Messages.Read_ok _ | Messages.Read_abort _ | Messages.Votes _
      | Messages.Status_rep _ | Messages.Ack ->
        ())
    replies;
  Hashtbl.fold (fun oid (version, value) acc -> (oid, version, value) :: acc) best []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

(* Push [objects] from [src] to the nodes [dsts ()] names ([Handoff]), then
   call [k].  While a destination that is still alive has not acked, retry
   a timeout later, at most ten times; each try asks [dsts] again, and an
   empty set or nothing to push skips straight to [k].  [sync_copy] is
   version-guarded and idempotent, so duplicates and stale rows are
   harmless. *)
let rec push t ~src ~dsts ~objects ?(tries = 0) k =
  match (objects, dsts ()) with
  | [], _ | _, [] -> k ()
  | _, targets ->
    Sim.Rpc.multicall t.rpc ~kind:Messages.handoff_kind ~src ~dsts:targets
      ~timeout:t.config.Config.request_timeout
      (Messages.Handoff { objects })
      ~on_done:(fun ~replies:_ ~missing ->
        if
          tries < 10
          && List.exists (fun n -> not (Sim.Network.is_failed t.network n)) missing
        then
          Sim.Engine.schedule t.engine ~delay:t.config.Config.request_timeout (fun () ->
              push t ~src ~dsts ~objects ~tries:(tries + 1) k)
        else k ())

let live_others t ~src among =
  List.filter (fun n -> n <> src && not (Sim.Network.is_failed t.network n)) among

(* Catch-up protocol for a node rejoining the membership view: refresh the
   stale replica from a full read quorum of its home shard (which
   intersects every write quorum {e of the current view}, so the
   per-object maximum version over the replies covers every committed
   write), then rejoin.  The node itself is still marked failed in the
   quorum layer, so the sync quorum never includes it.

   Crucially this runs for cleared false suspicions too, not just crash
   recoveries: while a node is suspected, quorum construction routes
   around it, so commits during that window may touch {e no} member of a
   quorum the rejoining node later serves in.  Tree-quorum intersection
   only holds between quorums built under the same view — a node that was
   out of the view must state-transfer before serving again, or a
   post-heal read quorum made of bypassed members can miss a
   during-partition commit entirely (observed as a stale-read livelock:
   deterministic quorums re-serve the same stale version every retry,
   and write-quorum members that are ahead vote the commit down
   forever). *)
let rec resync t ~node ~started ~was_killed =
  let tq = t.sharding.states.(t.sharding.home.(node)).sh_tq in
  let retry () =
    Sim.Engine.schedule t.engine ~delay:t.config.Config.request_timeout (fun () ->
        resync t ~node ~started ~was_killed)
  in
  (* Mutual-rescue deadlock breaker: if {e every} member of the home shard
     is out of the view at once (e.g. one member crashed while the rest sat
     in a suspected partition minority — impossible unsharded, where the
     sync quorum comes from the whole cluster, but routine with 3-member
     shards), no member can ever build the sync quorum the others are
     waiting on, and the shard wedges forever.  The safe escape is a
     full-membership round: every committed write reached a write quorum of
     the members under some view, so the per-object maximum version over
     {e all} members' durable stores (the node's own retained copies
     included — [reset_transients] keeps them) covers every commit.  Hard
     requirement: all other members must reply, so the round keeps
     retrying until crashed members come back — exactly the durability
     assumption the unsharded recovery already makes. *)
  let quorum =
    match sync_quorum tq ~salt:node with
    | [] ->
      let failed = Quorum.Tree_quorum.failed tq in
      let others =
        List.filter (fun m -> m <> node) (Quorum.Tree_quorum.members tq)
      in
      if others <> [] && List.for_all (fun m -> List.mem m failed) others then
        others
      else []
    | q -> q
  in
  match quorum with
  | [] -> retry ()
  | dsts ->
    Metrics.note_sync t.metrics;
    let tracer = Sim.Engine.tracer t.engine in
    if Obs.Tracer.enabled tracer then
      Obs.Tracer.emit tracer ~time:(Sim.Engine.now t.engine)
        ~kind:Obs.Sem.sync_start ~node ~a:(List.length dsts) ();
    (* Merged in reply order rather than through [frontier]: [sync_copy]
       already keeps the maximum, and the order in which it installs
       objects unknown here fixes the store's table order, which later
       dumps expose. *)
    pull t ~src:node ~dsts ~retry (fun replies ->
        let store = Server.store t.servers.(node) in
        Store.Replica.reset_transients store;
        List.iter
          (fun (_, reply) ->
            match reply with
            | Messages.Sync_rep { objects } ->
              List.iter
                (fun (oid, version, value) ->
                  Store.Replica.sync_copy store ~oid ~version ~value)
                objects
            | Messages.Read_ok _ | Messages.Read_abort _ | Messages.Votes _
            | Messages.Status_rep _ | Messages.Ack ->
              ())
          replies;
        if Obs.Tracer.enabled tracer then
          Obs.Tracer.emit tracer ~time:(Sim.Engine.now t.engine)
            ~kind:Obs.Sem.sync_done ~node ~a:(List.length replies) ();
        readmit t node;
        if was_killed then
          Metrics.note_recovery t.metrics ~duration:(Sim.Engine.now t.engine -. started))

let create ?(nodes = 13) ?(spares = 0) ?(seed = 1) ?topology ?(service_time = 0.25)
    ?(read_level = 1) ?(detection_delay = 50.) ?(detection_jitter = 0.)
    ?(with_oracle = true) ?(tracer = Obs.Tracer.null) ?(batch_commit = false)
    ?(shards = 1) config =
  if shards < 1 then invalid_arg "Cluster: shards must be >= 1";
  if nodes < shards * min_members then
    invalid_arg
      (Printf.sprintf
         "Cluster: %d initial members cannot populate %d shards (minimum %d each)"
         nodes shards min_members);
  let total = nodes + spares in
  let engine = Sim.Engine.create ~tracer () in
  let topology =
    match topology with
    | Some t -> t
    | None -> Sim.Topology.create ~seed:(seed + 1) ~nodes:total ()
  in
  assert (Sim.Topology.nodes topology = total);
  let network =
    Sim.Network.create ~engine ~topology ~service_time ~seed:(seed + 2) ()
  in
  let rpc =
    Sim.Rpc.create ~seed:(seed + 6)
      ~retry_base:config.Config.retransmit_backoff_base
      ~retry_max:config.Config.retransmit_backoff_max ~network ()
  in
  let servers =
    Array.init total (fun node ->
        Server.create ~node ~store:(Store.Replica.create ()))
  in
  let clock () = Sim.Engine.now engine in
  Array.iter
    (fun server ->
      Server.instrument server ~tracer ~clock;
      Store.Replica.instrument (Server.store server) ~tracer
        ~node:(Server.node server) ~clock;
      Sim.Rpc.serve rpc ~node:(Server.node server) (fun ~src request ->
          Server.handle server ~src request))
    servers;
  (* Each shard's quorum tree spans its slice of the initial members —
     contiguous, near-equal partitions of 0..nodes-1 — with capacity sized
     to the full machine pool so spares can join any shard.  Spare machines
     exist only as capacity (dark until a join maps a position onto
     them). *)
  let states =
    Array.init shards (fun s ->
        let base = nodes / shards and rem = nodes mod shards in
        let size = base + if s < rem then 1 else 0 in
        let start = (s * base) + Stdlib.min s rem in
        let tq =
          Quorum.Tree_quorum.create ~read_level ~capacity:total ~nodes:size ()
        in
        if start > 0 then
          Quorum.Tree_quorum.set_members tq (List.init size (fun i -> start + i));
        { sh_tq = tq; sh_epoch = ref 0; sh_wedged = ref false })
  in
  let home = Array.make total 0 in
  Array.iteri
    (fun s st -> List.iter (fun n -> home.(n) <- s) (Quorum.Tree_quorum.members st.sh_tq))
    states;
  let sharding =
    {
      states;
      dir = [||];
      dir_len = 0;
      dir_default = shards;
      home;
      read_level;
    }
  in
  (* Membership fence: every envelope is stamped with its shard's epoch at
     send time (see [request_shard]); requests carrying quorum evidence
     from a superseded view are dropped on arrival.  Apply/Release stay
     unfenced — they are idempotent version-guarded installers of
     *decided* commits, and fencing a retransmission would risk losing
     one.  Sync_req is catch-up traffic from nodes that are stale by
     definition. *)
  Sim.Rpc.set_fencing rpc
    ~epoch_of:(fun req -> !(sharding.states.(request_shard sharding req).sh_epoch))
    ~fenceable:(function
      | Messages.Read_req _ | Messages.Commit_req _ | Messages.Batch_commit_req _
      | Messages.Status_req _ | Messages.Handoff _ ->
        true
      | Messages.Apply _ | Messages.Release _ | Messages.Sync_req -> false);
  let metrics = Metrics.create () in
  let oracle = if with_oracle then Some (Oracle.create ()) else None in
  let ids = Ids.gen () in
  let quorums =
    {
      Executor.read_quorum =
        (fun ~shard ~node -> quorum ~write:false sharding.states.(shard) ~salt:node);
      write_quorum =
        (fun ~shard ~node -> quorum ~write:true sharding.states.(shard) ~salt:node);
      node_alive = (fun node -> not (Sim.Network.is_failed network node));
      epoch = (fun ~shard -> !(sharding.states.(shard).sh_epoch));
      shard_of = (fun oid -> shard_of_oid_s sharding oid);
      home_shard = (fun node -> sharding.home.(node));
    }
  in
  let executor =
    Executor.create ~engine ~rpc ~quorums ~config ~metrics ?oracle ~batch_commit
      ~ids ~seed:(seed + 3) ()
  in
  (* Arm the lease-termination machinery on every replica.  The peer set —
     read quorum extended with the write quorum of the replica's home
     shard, both salted by the asking node — is consulted lazily at status
     time so node failures and membership changes are respected.  The
     union intersects the lease owner's write quorum in several members
     (every write quorum shares the root and overlapping child
     majorities), so a decided commit stays visible even when a lossy
     link starved one intersection node of its Apply.  [node_alive] gates
     the cross-shard peers a Commit_req pinned (they cannot be recomputed
     from this shard's trees). *)
  let watch_lane = Sim.Engine.new_lane engine in
  Array.iter
    (fun server ->
      Server.enable_termination server
        ~node_alive:(fun n -> not (Sim.Network.is_failed network n))
        ~engine ~watch_lane ~rpc
        ~status_peers:(fun () ->
          let node = Server.node server in
          let st = sharding.states.(sharding.home.(node)) in
          if !(st.sh_wedged) then [] else sync_quorum st.sh_tq ~salt:node)
        ~metrics ~config)
    servers;
  let failure =
    Sim.Failure.create ~engine ~detection_delay ~detection_jitter ~seed:(seed + 5)
      ~kill:(fun node ->
        Sim.Network.fail network node;
        (* Fail-stop loses volatile state: locks, leases and the applied
           set die with the node (durable copies survive until the
           recovery resync refreshes them).  This also silences the dead
           node's lease watchdogs — behind a failed NIC their status
           rounds could never complete and would retry forever. *)
        Store.Replica.reset_transients (Server.store servers.(node));
        (* Coordinators hosted on the node die with it (fail-stop). *)
        Executor.kill_node executor ~node)
      ()
  in
  Sim.Failure.on_detect failure (fun node ->
      Array.iter
        (fun st -> Quorum.Tree_quorum.mark_failed st.sh_tq node)
        sharding.states);
  let t =
    {
      engine;
      network;
      rpc;
      servers;
      sharding;
      failure;
      executor;
      metrics;
      oracle;
      config;
      ids;
      changing = false;
      pending = Queue.create ();
    }
  in
  Sim.Failure.on_recover failure (fun ~node ~was_killed ->
      Sim.Network.revive t.network node;
      (* Both paths state-transfer before rejoining: a falsely suspected
         node kept its disk but was bypassed by quorums, so it may have
         missed commits just like a crashed one. *)
      resync t ~node ~started:(Sim.Engine.now t.engine) ~was_killed);
  (* Spares start decommissioned: powered machines outside the view, dark
     on the network until a join (or replace) maps a tree position onto
     them and re-replicates state. *)
  for node = nodes to total - 1 do
    Sim.Network.fail t.network node
  done;
  t

let engine t = t.engine
let network t = t.network
let executor t = t.executor
let metrics t = t.metrics
let oracle t = t.oracle
let failure t = t.failure
let ids t = t.ids
let now t = Sim.Engine.now t.engine

(* Objects live on their owning shard's members only; the directory entry
   is recorded at install time, so later splits relocate exactly the oids
   that exist. *)
let install_object t ~oid ~init =
  ensure_dir t.sharding ~oid;
  List.iter
    (fun node -> Store.Replica.install (Server.store t.servers.(node)) ~oid ~init)
    (shard_members t ~shard:(shard_of_oid t oid))

let alloc_object t ~init =
  let oid = Ids.fresh_obj t.ids in
  install_object t ~oid ~init;
  oid

let store_of t ~node = Server.store t.servers.(node)
let server_of t ~node = t.servers.(node)

let submit t ~node program ~on_done = Executor.run_root t.executor ~node ~program ~on_done

let run_program t ~node program =
  let result = ref None in
  submit t ~node program ~on_done:(fun outcome -> result := Some outcome);
  let rec drive () =
    match !result with
    | Some outcome -> outcome
    | None ->
      if Sim.Engine.step t.engine then drive ()
      else invalid_arg "Cluster.run_program: engine drained without completion"
  in
  drive ()

let fail_node_at t ~at ~node = Sim.Failure.schedule t.failure ~at ~node
let recover_node_at t ~at ~node = Sim.Failure.schedule_recovery t.failure ~at ~node

let suspect_node_at ?clear_after t ~at ~node =
  Sim.Failure.schedule_false_suspicion ?clear_after t.failure ~at ~node

(* ------------------------------------------------------------------ *)
(* View changes.  Every change to a shard's members or to the object
   directory runs one fenced pipeline, one change at a time across the
   whole cluster (PROTOCOL.md §8):

   1. wedge the involved shards — every quorum closure returns [[]], so
      executors and lease watchdogs retry politely — and wait two request
      timeouts for in-flight rounds to land or expire; a joiner comes back
      on the network now so it can take part in the state transfer;
   2. pull the source shard's committed frontier through a read ∪ write
      quorum of its {e outgoing} view ([Sync_req], as [resync] does);
   3. install the new members or directory entries, bump every involved
      epoch, and let a joiner adopt the frontier locally;
   4. push the frontier ([Handoff]) to the reachable incoming-view
      members: old- and new-view quorums need not intersect, so without
      it a new-view read quorum could miss an old-view commit.  A move
      pushes its one row first and flips the directory after;
   5. unwedge — envelopes stamped with an old epoch are now fenced;
   6. drain a leaver, then fail it off the network.  Departed nodes
      return to the spare pool and may be re-joined later.

   The kinds differ only in data: the source node, the involved shards,
   what the install edits, and whether the push set is fixed up front. *)

let trace_view t ~kind ~node ~a ~b ~shard =
  let tracer = Sim.Engine.tracer t.engine in
  if Obs.Tracer.enabled tracer then
    Obs.Tracer.emit8 tracer ~time:(Sim.Engine.now t.engine) ~kind ~node ~txn:(-1)
      ~oid:(-1) ~a ~b ~x:(Float.of_int shard)

let kind_code = function
  | Join _ -> 0 | Leave _ -> 1 | Replace _ -> 2 | Move _ -> 3 | Split _ -> 4

let joiner = function
  | Join { node; _ } | Replace { joining = node; _ } -> Some node
  | Leave _ | Move _ | Split _ -> None

let leaver = function
  | Leave node | Replace { leaving = node; _ } -> Some node
  | Join _ | Move _ | Split _ -> None

(* The node a membership change is about, the traces' [node]: the joiner,
   else the leaver; -1 for directory changes. *)
let subject change =
  match joiner change with Some n -> n | None -> Option.value ~default:(-1) (leaver change)

(* The shards a change wedges and re-epochs, the source shard first (a
   split adds the shard it creates at install). *)
let involved t = function
  | Join { shard; _ } | Split shard -> [ shard ]
  | Leave node | Replace { leaving = node; _ } -> [ t.sharding.home.(node) ]
  | Move { oid; to_shard } -> [ t.sharding.dir.(oid); to_shard ]

(* Checked when the change starts, against the view of that moment. *)
let validate t change =
  let fail fmt = Printf.ksprintf invalid_arg ("Cluster: " ^^ fmt) in
  let total = nodes t and nsh = shard_count t in
  let check_joining node ~shard =
    if node < 0 || node >= total then
      fail "cannot join node %d: no such machine (capacity %d)" node total;
    let mem = members t in
    if List.mem node mem then
      fail "cannot join node %d: already a member (t=%.1f epoch=%d view=[%s])" node
        (now t)
        !(t.sharding.states.(shard).sh_epoch)
        (String.concat ";" (List.map string_of_int mem))
  in
  let check_leaving node =
    if
      node < 0 || node >= total
      || not (List.mem node (shard_members t ~shard:t.sharding.home.(node)))
    then fail "cannot remove node %d: not a member" node
  in
  match change with
  | Join { node; shard } ->
    if shard < 0 || shard >= nsh then fail "no such shard %d (%d shards)" shard nsh;
    check_joining node ~shard
  | Leave node ->
    check_leaving node;
    let shard = t.sharding.home.(node) in
    let size = List.length (shard_members t ~shard) - 1 in
    if size < min_members then
      fail
        "cannot remove node %d: shard %d would have %d members, below the \
         quorum-viable minimum (%d)"
        node shard size min_members
  | Replace { leaving; joining } ->
    check_leaving leaving;
    check_joining joining ~shard:t.sharding.home.(leaving)
  | Move { oid; to_shard } ->
    if to_shard < 0 || to_shard >= nsh then
      fail "cannot move object %d: no such shard %d (%d shards)" oid to_shard nsh;
    if oid < 0 || oid >= t.sharding.dir_len then
      fail "cannot move object %d: not an allocated object" oid;
    if t.sharding.dir.(oid) = to_shard then
      fail "cannot move object %d: already on shard %d" oid to_shard
  | Split shard ->
    if shard < 0 || shard >= nsh then
      fail "cannot split shard %d: no such shard (%d shards)" shard nsh;
    let m = List.length (shard_members t ~shard) in
    if m < 2 * min_members then
      fail
        "cannot split shard %d: %d members cannot form two quorum-viable shards \
         (minimum %d each)"
        shard m min_members

(* Split: the first half of the member list keeps the shard, the second
   half becomes a brand-new shard, wedged like its parent; the shard's
   objects alternate between the halves (even directory positions stay,
   odd ones move).  Returns the new shard's id. *)
let split_shard t shard =
  let st = t.sharding.states.(shard) in
  let old_members = Quorum.Tree_quorum.members st.sh_tq in
  let keep_n = (List.length old_members + 1) / 2 in
  let keep = List.filteri (fun i _ -> i < keep_n) old_members in
  let moved = List.filteri (fun i _ -> i >= keep_n) old_members in
  let new_id = Array.length t.sharding.states in
  let ntq =
    Quorum.Tree_quorum.create ~read_level:t.sharding.read_level ~capacity:(nodes t)
      ~nodes:(List.length moved) ()
  in
  Quorum.Tree_quorum.set_members ntq moved;
  (* Carry the failure knowledge over: liveness flags are keyed by
     physical id, and a crashed member must not appear in the new shard's
     quorums before its recovery resync. *)
  List.iter (Quorum.Tree_quorum.mark_failed ntq) (Quorum.Tree_quorum.failed st.sh_tq);
  Quorum.Tree_quorum.set_members st.sh_tq keep;
  let idx = ref 0 in
  for oid = 0 to t.sharding.dir_len - 1 do
    if t.sharding.dir.(oid) = shard then begin
      if !idx land 1 = 1 then t.sharding.dir.(oid) <- new_id;
      incr idx
    end
  done;
  List.iter (fun nd -> t.sharding.home.(nd) <- new_id) moved;
  let nst = { sh_tq = ntq; sh_epoch = ref !(st.sh_epoch); sh_wedged = ref true } in
  t.sharding.states <- Array.append t.sharding.states [| nst |];
  new_id

(* Install the change's new view and bump every involved shard's epoch;
   a joiner then adopts the pulled frontier directly (the Sync_req /
   Sync_rep catch-up path, applied locally) and becomes one of the shard's
   replicas.  Returns the involved shards, a split's new one included. *)
let install t change shards ~snapshot =
  let shards =
    match change with
    | Join _ | Leave _ | Replace _ ->
      let tq = t.sharding.states.(List.hd shards).sh_tq in
      let stay =
        List.filter (fun n -> Some n <> leaver change) (Quorum.Tree_quorum.members tq)
      in
      Quorum.Tree_quorum.set_members tq (Option.to_list (joiner change) @ stay);
      shards
    | Move { oid; to_shard } ->
      t.sharding.dir.(oid) <- to_shard;
      shards
    | Split shard -> shards @ [ split_shard t shard ]
  in
  List.iter
    (fun s ->
      let st = t.sharding.states.(s) in
      incr st.sh_epoch;
      Metrics.note_view_change t.metrics;
      trace_view t ~kind:Obs.Sem.view_change ~node:(subject change) ~a:!(st.sh_epoch)
        ~b:(List.length (Quorum.Tree_quorum.members st.sh_tq))
        ~shard:s)
    shards;
  Option.iter
    (fun j ->
      t.sharding.home.(j) <- List.hd shards;
      let store = Server.store t.servers.(j) in
      Store.Replica.reset_transients store;
      List.iter
        (fun (oid, version, value) -> Store.Replica.sync_copy store ~oid ~version ~value)
        snapshot)
    (joiner change);
  shards

let rec launch t change ~on_done =
  validate t change;
  let shards = involved t change in
  t.changing <- true;
  List.iter (fun s -> t.sharding.states.(s).sh_wedged := true) shards;
  trace_view t ~kind:Obs.Sem.view_wedge ~node:(subject change) ~a:(kind_code change)
    ~b:
      (match change with
      | Move { oid; _ } -> oid
      | _ -> Option.value ~default:(-1) (joiner change))
    ~shard:(List.hd shards);
  Option.iter
    (fun j ->
      Sim.Network.revive t.network j;
      readmit t j)
    (joiner change);
  (* The wedge stops new rounds; two request timeouts bound the stragglers
     (a round started just before the wedge plus its reply). *)
  Sim.Engine.schedule t.engine ~delay:(2. *. t.config.Config.request_timeout) (fun () ->
      pull_phase t change shards ~on_done)

(* The source node — the subject, else the source shard's first member —
   pulls the committed frontier of the source shard's outgoing view. *)
and pull_phase t change shards ~on_done =
  let tq = t.sharding.states.(List.hd shards).sh_tq in
  let src =
    match subject change with -1 -> List.hd (Quorum.Tree_quorum.members tq) | n -> n
  in
  pull t ~src ~dsts:(sync_quorum tq ~salt:src)
    ~retry:(fun () ->
      Sim.Engine.schedule t.engine ~delay:t.config.Config.request_timeout (fun () ->
          pull_phase t change shards ~on_done))
    (fun replies ->
      let snapshot = frontier replies in
      let unwedge shards () =
        List.iter (fun s -> t.sharding.states.(s).sh_wedged := false) shards;
        drain t change shards ~polls:0 ~on_done
      in
      match change with
      | Move { oid; to_shard } ->
        (* Push the row to the destination members live before the first
           try, then flip the directory. *)
        let dsts = live_others t ~src (shard_members t ~shard:to_shard) in
        push t ~src ~dsts:(fun () -> dsts)
          ~objects:(List.filter (fun (o, _, _) -> o = oid) snapshot)
          (fun () -> unwedge (install t change shards ~snapshot) ())
      | Join _ | Leave _ | Replace _ | Split _ ->
        (* Members down right now are skipped: their recovery resync
           refreshes them from the post-push view. *)
        let shards = install t change shards ~snapshot in
        push t ~src ~objects:snapshot
          ~dsts:(fun () ->
            live_others t ~src
              (List.sort Int.compare
                 (List.concat_map (fun shard -> shard_members t ~shard) shards)))
          (unwedge shards))

(* Graceful departure: wait until the leaver neither holds write-lock
   leases nor hosts a live coordinator, then take it off the network and
   clear its volatile state — exactly what a crash would do, except
   nothing of value is lost.  The poll count is bounded: a coordinator
   wedged behind a partition would otherwise hold the machine hostage,
   and killing it after the grace window is the fail-stop the protocol
   already tolerates. *)
and drain t change shards ~polls ~on_done =
  match leaver change with
  | None -> finish t change shards ~on_done
  | Some node
    when polls < 20
         && (Store.Replica.held_leases (Server.store t.servers.(node)) <> []
            || List.exists (fun (n, _) -> n = node) (Executor.in_flight t.executor)) ->
    Sim.Engine.schedule t.engine ~delay:t.config.Config.request_timeout (fun () ->
        drain t change shards ~polls:(polls + 1) ~on_done)
  | Some node ->
    Sim.Network.fail t.network node;
    Store.Replica.reset_transients (Server.store t.servers.(node));
    Executor.kill_node t.executor ~node;
    finish t change shards ~on_done

(* Done: start the next queued change after a quiet timeout, so retried
   transactions see the new quorums before the next wedge.  The head stays
   queued until then, so [start] keeps later arrivals behind it. *)
and finish t change shards ~on_done =
  List.iter
    (fun s ->
      trace_view t ~kind:Obs.Sem.view_done ~node:(subject change)
        ~a:!(t.sharding.states.(s).sh_epoch) ~b:(kind_code change) ~shard:s)
    (List.sort_uniq Int.compare shards);
  t.changing <- false;
  Option.iter (fun f -> f ()) on_done;
  if not (Queue.is_empty t.pending) then
    Sim.Engine.schedule t.engine ~delay:t.config.Config.request_timeout (fun () ->
        match Queue.take_opt t.pending with
        | Some (next, on_done) -> launch t next ~on_done
        | None -> ())

let view_change_at ?on_done t ~at change =
  Sim.Engine.schedule t.engine
    ~delay:(Float.max 0. (at -. now t))
    (fun () ->
      (* Queue behind the active change.  The queue check matters even when
         nothing is active: [finish] starts the head after a grace delay,
         and a change arriving inside that gap must not jump ahead of it. *)
      if t.changing || not (Queue.is_empty t.pending) then
        Queue.add (change, on_done) t.pending
      else launch t change ~on_done)

let run_for t duration =
  Sim.Engine.run ~until:(Sim.Engine.now t.engine +. duration) t.engine

let drain t = Sim.Engine.run t.engine

let check_consistency t =
  match t.oracle with
  | Some oracle -> Oracle.check oracle
  | None -> Error "oracle disabled for this cluster"

let reset_counters t =
  Metrics.reset t.metrics;
  Sim.Network.reset_counters t.network;
  Sim.Rpc.reset_give_ups t.rpc;
  Sim.Rpc.reset_fenced t.rpc

let messages_sent t = Sim.Network.messages_sent t.network
let messages_by_kind t = Sim.Network.messages_by_kind t.network
let messages_dropped t = Sim.Network.messages_dropped t.network
let messages_duplicated t = Sim.Network.messages_duplicated t.network
let retransmit_exhausted t = Sim.Rpc.give_ups t.rpc
let fenced_messages t = Sim.Rpc.fenced t.rpc
let in_flight t = Executor.in_flight t.executor

let held_leases t =
  let acc = ref [] in
  Array.iteri
    (fun node server ->
      List.iter
        (fun (oid, owner, expires) -> acc := (node, oid, owner, expires) :: !acc)
        (Store.Replica.held_leases (Server.store server)))
    t.servers;
  List.rev !acc
