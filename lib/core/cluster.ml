(* One shard: an independent membership view over a disjoint slice of the
   machines, with its own quorum tree, epoch and wedge flag.  The epoch and
   wedge are refs so the executor's quorum closures and the RPC fencing
   hook — built before the cluster record — share them. *)
type shard_state = {
  sh_tq : Quorum.Tree_quorum.t;
  sh_epoch : int ref;
  sh_wedged : bool ref;
}

(* The live view (members, homes, directory) and per-shard state, index
   for index.  [states] is a mutable field (not just mutable contents)
   because a split appends a shard; every closure capturing this record
   sees the update. *)
type sharding = {
  mutable states : shard_state array;
  view : View.t;
  read_level : int; (* for quorum trees minted by splits *)
}

(* A pipeline run: a view change, or the rejoin of nodes coming back into
   their home shards' quorums after a crash or a cleared suspicion. *)
type rejoiner = { node : int; started : float; was_killed : bool }
type run = Change of View.change | Rejoin of rejoiner list

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
  mutable changing : bool; (* a run is between wedge and done *)
  (* Rejoiners waiting for a run, in arrival order.  They go ahead of the
     queued changes, whose pulls and drains may need the quorums they
     restore, and one rejoin run takes them all. *)
  mutable waiting : rejoiner list;
  (* View changes waiting behind the active run, in submission order.  FIFO
     matters: a replace may legitimately re-use a machine an earlier queued
     change decommissions, so reordering would make a valid schedule fail
     validation. *)
  pending : (View.change * (unit -> unit) option) Queue.t;
}

(* Read ∪ write quorum of [tq] salted by [salt]: the status peer set, and
   where a state pull goes ([pull_set]).  Commits decided just before may
   still have Applies in flight, and the wider set maximises the chance of
   including a member that already installed them; the union intersects
   every write quorum in several members. *)
let sync_quorum tq ~salt =
  let of_opt q = Option.value ~default:[] q in
  List.sort_uniq Int.compare
    (of_opt (Quorum.Tree_quorum.read_quorum ~salt tq)
    @ of_opt (Quorum.Tree_quorum.write_quorum ~salt tq))

(* Where [src] pulls a shard's frontier from: its sync quorum while a read
   quorum exists.  Without one, the view's write quorum may miss an older
   commit held by members now out of the view, so the pull goes to every
   member, [src] included, and retries until crashed ones come back.
   Never empty. *)
let pull_set tq ~src =
  match Quorum.Tree_quorum.read_quorum ~salt:src tq with
  | Some _ -> sync_quorum tq ~salt:src
  | None -> Quorum.Tree_quorum.members tq

let shard_of_oid_s sharding oid = View.shard_of_oid sharding.view oid

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
let shard_members t ~shard = View.shard_members t.sharding.view shard
let home_shard_of t ~node = View.home t.sharding.view node
let view t = View.copy t.sharding.view

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
  quorum ~write:false t.sharding.states.(home_shard_of t ~node) ~salt:node

let write_quorum_of t ~node =
  quorum ~write:true t.sharding.states.(home_shard_of t ~node) ~salt:node

let nodes t = Array.length t.servers
let members t = View.members t.sharding.view
let is_member t node = View.is_member t.sharding.view node

(* The cluster-wide epoch: the sum of the shard epochs, i.e. the number of
   completed view changes across the whole deployment (identical to the
   single epoch when there is one shard). *)
let epoch t =
  Array.fold_left (fun acc st -> acc + !(st.sh_epoch)) 0 t.sharding.states

(* Re-admit a node holding its home shard's frontier to quorum construction.
   Liveness flags are keyed by physical id, so reviving everywhere is exact. *)
let readmit t node =
  Array.iter (fun st -> Quorum.Tree_quorum.revive st.sh_tq node) t.sharding.states;
  Sim.Failure.clear_suspicion t.failure node

let is_up t n = not (Sim.Network.is_failed t.network n)
let later t f = Sim.Engine.schedule t.engine ~delay:Config.request_timeout f

let merge store rows =
  List.iter (fun (oid, version, value) -> Store.Replica.sync_copy store ~oid ~version ~value) rows

(* [src] pulls the committed state of every member of [dsts] ([Sync_req])
   and hands [k] the per-object maximum, ascending by oid: the committed
   frontier of the view the pull went through.  A missing reply runs
   [again] a timeout later instead. *)
let pull t ~src ~dsts ~again k =
  Sim.Rpc.multicall t.rpc ~kind:Messages.sync_req_kind ~src ~dsts
    ~timeout:Config.request_timeout Messages.Sync_req ~on_done:(fun ~replies ~missing ->
      if missing <> [] then later t again
      else
        let frontier = Store.Replica.create () in
        List.iter
          (fun (_, reply) ->
            match reply with
            | Messages.Sync_rep { objects } -> merge frontier objects
            | Messages.Read_ok _ | Messages.Read_abort _ | Messages.Votes _
            | Messages.Status_rep _ | Messages.Ack ->
              ())
          replies;
        k (Store.Replica.dump frontier))

(* A joiner or a rejoiner takes a pulled frontier as its state. *)
let adopt t node snapshot =
  let store = Server.store t.servers.(node) in
  Store.Replica.reset_transients store;
  merge store snapshot

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
      ~timeout:Config.request_timeout
      (Messages.Handoff { objects })
      ~on_done:(fun ~replies:_ ~missing ->
        if tries < 10 && List.exists (is_up t) missing then
          later t (fun () -> push t ~src ~dsts ~objects ~tries:(tries + 1) k)
        else k ())

(* ------------------------------------------------------------------ *)
(* The pipeline.  Every change to a shard's members or to the object
   directory, and every node coming back into its shard's quorums, runs one
   fenced pipeline, one run at a time across the whole cluster
   (PROTOCOL.md §8):

   1. wedge the involved shards — every quorum closure returns [[]], so
      executors and lease watchdogs retry politely — and wait two request
      timeouts for in-flight rounds to land or expire; a joiner comes back
      on the network now so it can take part in the state transfer;
   2. pull the source shard's committed frontier from the [pull_set] of its
      {e outgoing} view ([Sync_req]);
   3. a rejoin's nodes adopt the frontier and are readmitted, then step 5.
      A view change installs the new members or directory entries, bumps
      every involved epoch, and lets a joiner adopt the frontier;
   4. push the frontier ([Handoff]) to the reachable incoming-view
      members: old- and new-view quorums need not intersect, so without
      it a new-view read quorum could miss an old-view commit.  A move
      pushes its one row first and flips the directory after;
   5. unwedge — envelopes stamped with an old epoch are now fenced;
   6. drain a leaver, then fail it off the network.  Departed nodes
      return to the spare pool and may be re-joined later.

   A rejoiner down at pull time is dropped (its next recovery rejoins
   afresh); a change whose subject is down pulls through a live member. *)

(* View traces carry the shard in [x]. *)
let trace t ~kind ~node ~a ~b ~x =
  let tracer = Sim.Engine.tracer t.engine in
  if Obs.Tracer.enabled tracer then
    Obs.Tracer.emit8 tracer ~time:(Sim.Engine.now t.engine) ~kind ~node ~txn:(-1)
      ~oid:(-1) ~a ~b ~x

let kind_code : View.change -> int = function
  | Join _ -> 0 | Leave _ -> 1 | Replace _ -> 2 | Move _ -> 3 | Split _ -> 4

let joiner : View.change -> int option = function
  | Join { node; _ } | Replace { joining = node; _ } -> Some node
  | Leave _ | Move _ | Split _ -> None

let leaver : View.change -> int option = function
  | Leave node | Replace { leaving = node; _ } -> Some node
  | Join _ | Move _ | Split _ -> None

(* The node a membership change is about, the traces' [node]: the joiner,
   else the leaver; -1 for directory changes. *)
let subject change =
  match joiner change with Some n -> n | None -> Option.value ~default:(-1) (leaver change)

(* The shards a change wedges and re-epochs, the source shard first (a
   split adds the shard it creates at install). *)
let involved t : View.change -> int list = function
  | Join { shard; _ } | Split shard -> [ shard ]
  | Leave node | Replace { leaving = node; _ } -> [ home_shard_of t ~node ]
  | Move { oid; to_shard } -> [ shard_of_oid t oid; to_shard ]

(* Split: the view computes the halves and the re-homed objects; the new
   shard gets a quorum tree over its half, wedged like its parent.  A
   re-homed node is traced so the online checker rebinds it (a widened-read
   witness obliges only reads of its current home shard).  Returns the new
   shard's id. *)
let split_shard t shard =
  let st = t.sharding.states.(shard) in
  View.apply t.sharding.view (Change (Split shard));
  let fresh = Array.length t.sharding.states in
  let moved = shard_members t ~shard:fresh in
  let ntq =
    Quorum.Tree_quorum.create ~read_level:t.sharding.read_level ~capacity:(nodes t)
      ~nodes:(List.length moved) ()
  in
  Quorum.Tree_quorum.set_members ntq moved;
  (* Carry the failure knowledge over: liveness flags are keyed by
     physical id, and a crashed member must not appear in the new shard's
     quorums before it rejoins. *)
  List.iter (Quorum.Tree_quorum.mark_failed ntq) (Quorum.Tree_quorum.failed st.sh_tq);
  Quorum.Tree_quorum.set_members st.sh_tq (shard_members t ~shard);
  List.iter
    (fun node ->
      trace t ~kind:Obs.Sem.view_rehome ~node ~a:fresh ~b:shard ~x:(Float.of_int fresh))
    moved;
  let nst = { sh_tq = ntq; sh_epoch = ref !(st.sh_epoch); sh_wedged = ref true } in
  t.sharding.states <- Array.append t.sharding.states [| nst |];
  fresh

(* Install the change's new view and bump every involved shard's epoch;
   a joiner then adopts the pulled frontier and becomes one of the shard's
   replicas.  Returns the involved shards, a split's new one included. *)
let install t (change : View.change) shards ~snapshot =
  let shards =
    match change with
    | Join _ | Leave _ | Replace _ ->
      let shard = List.hd shards in
      View.apply t.sharding.view (Change change);
      Quorum.Tree_quorum.set_members t.sharding.states.(shard).sh_tq
        (shard_members t ~shard);
      shards
    | Move _ ->
      View.apply t.sharding.view (Change change);
      shards
    | Split shard -> shards @ [ split_shard t shard ]
  in
  List.iter
    (fun s ->
      let st = t.sharding.states.(s) in
      incr st.sh_epoch;
      Metrics.note_view_change t.metrics;
      trace t ~kind:Obs.Sem.view_change ~node:(subject change) ~a:!(st.sh_epoch)
        ~b:(List.length (shard_members t ~shard:s))
        ~x:(Float.of_int s))
    shards;
  Option.iter (fun j -> adopt t j snapshot) (joiner change);
  shards

let unwedge t shards = List.iter (fun s -> t.sharding.states.(s).sh_wedged := false) shards
let idle t = (not t.changing) && t.waiting = [] && Queue.is_empty t.pending

(* Wedge the run's shards and wait.  A change is checked against the view
   of this moment.  A rejoin wedges its rejoiners' home shards, and takes
   along those shards' rejoiners waiting when the wait ends. *)
let rec launch t run ~on_done =
  let shards, next =
    match run with
    | Rejoin rs ->
      let home r = home_shard_of t ~node:r.node in
      let shards = List.sort_uniq Int.compare (List.map home rs) in
      ( shards,
        fun () ->
          let here, rest = List.partition (fun q -> List.mem (home q) shards) t.waiting in
          t.waiting <- rest;
          let left = ref (List.length shards) in
          List.iter
            (fun shard ->
              rejoin_phase t shard (List.filter (fun r -> home r = shard) (rs @ here))
                ~close:(fun () ->
                  unwedge t [ shard ];
                  decr left;
                  if !left = 0 then finish t ~on_done))
            shards )
    | Change change ->
      Result.iter_error
        (fun msg -> invalid_arg ("Cluster: " ^ msg))
        (View.check t.sharding.view (Change change));
      let shards = involved t change in
      trace t ~kind:Obs.Sem.view_wedge ~node:(subject change) ~a:(kind_code change)
        ~b:
          (match change with
          | Move { oid; _ } -> oid
          | _ -> Option.value ~default:(-1) (joiner change))
        ~x:(Float.of_int (List.hd shards));
      Option.iter (fun j -> Sim.Network.revive t.network j; readmit t j) (joiner change);
      (shards, fun () -> change_phase t change shards ~on_done)
  in
  t.changing <- true;
  List.iter (fun s -> t.sharding.states.(s).sh_wedged := true) shards;
  (* The wedge stops new rounds; two request timeouts bound the stragglers
     (a round started just before the wedge plus its reply). *)
  Sim.Engine.schedule t.engine ~delay:(2. *. Config.request_timeout) next

(* One shard of a rejoin run: its first rejoiner still up pulls, and every
   one still up when the frontier arrives adopts it, then re-enters quorum
   construction. *)
and rejoin_phase t shard rejoiners ~close =
  match List.filter (fun r -> is_up t r.node) rejoiners with
  | [] -> close ()
  | first :: _ as up ->
    let dsts = pull_set t.sharding.states.(shard).sh_tq ~src:first.node in
    List.iter
      (fun r ->
        Metrics.note_sync t.metrics;
        trace t ~kind:Obs.Sem.sync_start ~node:r.node ~a:(List.length dsts) ~b:(-1) ~x:0.)
      up;
    pull t ~src:first.node ~dsts
      ~again:(fun () -> rejoin_phase t shard up ~close)
      (fun snapshot ->
        List.iter
          (fun r ->
            if is_up t r.node then begin
              adopt t r.node snapshot;
              trace t ~kind:Obs.Sem.sync_done ~node:r.node ~a:(List.length dsts) ~b:(-1) ~x:0.;
              readmit t r.node;
              if r.was_killed then
                Metrics.note_recovery t.metrics
                  ~duration:(Sim.Engine.now t.engine -. r.started)
            end)
          up;
        close ())

(* The source node — the subject while it is up, else the source shard's
   first live member — pulls the committed frontier of the source shard's
   outgoing view. *)
and change_phase t change shards ~on_done =
  let tq = t.sharding.states.(List.hd shards).sh_tq in
  let candidates =
    List.filter (fun n -> n >= 0) (subject change :: Quorum.Tree_quorum.members tq)
  in
  let src = Option.value ~default:(List.hd candidates) (List.find_opt (is_up t) candidates) in
  let live_others among = List.filter (fun n -> n <> src && is_up t n) among in
  pull t ~src ~dsts:(pull_set tq ~src)
    ~again:(fun () -> change_phase t change shards ~on_done)
    (fun snapshot ->
      let reopen shards () =
        unwedge t shards;
        drain t change shards ~polls:0 ~on_done
      in
      match change with
      | Move { oid; to_shard } ->
        (* Push the row to the destination members live before the first
           try, then flip the directory. *)
        let dsts = live_others (shard_members t ~shard:to_shard) in
        push t ~src ~dsts:(fun () -> dsts)
          ~objects:(List.filter (fun (o, _, _) -> o = oid) snapshot)
          (fun () -> reopen (install t change shards ~snapshot) ())
      | Join _ | Leave _ | Replace _ | Split _ ->
        (* Members down right now are skipped: their rejoin refreshes them
           from the post-push view. *)
        let shards = install t change shards ~snapshot in
        push t ~src ~objects:snapshot
          ~dsts:(fun () ->
            live_others
              (List.sort Int.compare
                 (List.concat_map (fun shard -> shard_members t ~shard) shards)))
          (reopen shards))

(* Graceful departure: wait until the leaver neither holds write-lock
   leases nor hosts a live coordinator, then take it off the network and
   clear its volatile state — exactly what a crash would do, except
   nothing of value is lost.  The poll count is bounded: a coordinator
   wedged behind a partition would otherwise hold the machine hostage,
   and killing it after the grace window is the fail-stop the protocol
   already tolerates. *)
and drain t change shards ~polls ~on_done =
  match leaver change with
  | Some node
    when polls < 20
         && (Store.Replica.held_leases (Server.store t.servers.(node)) <> []
            || List.exists (fun (n, _) -> n = node) (Executor.in_flight t.executor)) ->
    later t (fun () -> drain t change shards ~polls:(polls + 1) ~on_done)
  | leaving ->
    Option.iter
      (fun node ->
        Sim.Network.fail t.network node;
        Store.Replica.reset_transients (Server.store t.servers.(node));
        Executor.kill_node t.executor ~node)
      leaving;
    List.iter
      (fun s ->
        trace t ~kind:Obs.Sem.view_done ~node:(subject change)
          ~a:!(t.sharding.states.(s).sh_epoch) ~b:(kind_code change) ~x:(Float.of_int s))
      (List.sort_uniq Int.compare shards);
    finish t ~on_done

(* Done: start the next run after a quiet timeout, so retried transactions
   see the new quorums before the next wedge.  The queues keep their heads
   until then, so [idle] keeps later arrivals behind them. *)
and finish t ~on_done =
  t.changing <- false;
  Option.iter (fun f -> f ()) on_done;
  if not (idle t) then later t (fun () -> start_next t)

and start_next t =
  match t.waiting with
  | _ :: _ as rs ->
    t.waiting <- [];
    launch t (Rejoin rs) ~on_done:None
  | [] ->
    Option.iter
      (fun (change, on_done) -> launch t (Change change) ~on_done)
      (Queue.take_opt t.pending)

let view_change_at ?on_done t ~at change =
  Sim.Engine.schedule t.engine
    ~delay:(Float.max 0. (at -. Sim.Engine.now t.engine))
    (fun () ->
      if idle t then launch t (Change change) ~on_done
      else Queue.add (change, on_done) t.pending)

(* A recovered or cleared node comes back on the network and rejoins; nodes
   cleared at one instant (a healed partition's minority) share a run. *)
let rejoin t ~node ~was_killed =
  Sim.Network.revive t.network node;
  let r = { node; started = Sim.Engine.now t.engine; was_killed } in
  let start = idle t in
  t.waiting <- t.waiting @ [ r ];
  if start then Sim.Engine.schedule t.engine ~delay:0. (fun () -> start_next t)

let create ?(nodes = 13) ?(spares = 0) ?(seed = 1) ?topology ?(service_time = 0.25)
    ?(read_level = 1) ?(detection_delay = 50.) ?(detection_jitter = 0.)
    ?(with_oracle = true) ?(tracer = Obs.Tracer.null) ?(batch_commit = false)
    ?(shards = 1) config =
  Option.iter (fun msg -> invalid_arg ("Cluster: " ^ msg)) (View.layout_error ~nodes ~shards);
  let total = nodes + spares in
  let view = View.initial ~spares ~nodes ~shards () in
  let engine = Sim.Engine.create ~tracer () in
  let topology =
    match topology with
    | Some t -> t
    | None -> Sim.Topology.create ~seed:(seed + 1) ~nodes:total ()
  in
  assert (Sim.Topology.nodes topology = total);
  let network = Sim.Network.create ~engine ~topology ~service_time ~seed:(seed + 2) () in
  let rpc =
    Sim.Rpc.create ~seed:(seed + 6)
      ~retry_base:Config.retransmit_backoff_base
      ~retry_max:Config.retransmit_backoff_max ~network ()
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
        let members = View.shard_members view s in
        let tq =
          Quorum.Tree_quorum.create ~read_level ~capacity:total ~nodes:(List.length members)
            ()
        in
        if List.hd members > 0 then Quorum.Tree_quorum.set_members tq members;
        { sh_tq = tq; sh_epoch = ref 0; sh_wedged = ref false })
  in
  let sharding = { states; view; read_level } in
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
      home_shard = (fun node -> View.home view node);
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
          let st = sharding.states.(View.home view node) in
          if !(st.sh_wedged) then [] else sync_quorum st.sh_tq ~salt:node)
        ~metrics)
    servers;
  let failure =
    Sim.Failure.create ~engine ~detection_delay ~detection_jitter ~seed:(seed + 5)
      ~kill:(fun node ->
        Sim.Network.fail network node;
        (* Fail-stop loses volatile state: locks, leases and the applied
           set die with the node (durable copies survive until the
           node's rejoin refreshes them).  This also silences the dead
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
      waiting = [];
      pending = Queue.create ();
    }
  in
  (* A falsely suspected node kept its disk but was bypassed by quorums, so
     it may have missed commits just like a crashed one: both rejoin. *)
  Sim.Failure.on_recover failure (fun ~node ~was_killed -> rejoin t ~node ~was_killed);
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
  View.allocate t.sharding.view ~oid;
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
