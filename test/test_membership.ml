(* Epoch-based reconfiguration: view changes, the membership fence,
   re-replication, and the churn generators. *)

open Core

let expect_consistent cluster =
  match Cluster.check_consistency cluster with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "oracle: %s" msg

let increment cluster ~node oid =
  match
    Cluster.run_program cluster ~node (fun () -> Benchmarks.Counter.increment oid)
  with
  | Executor.Committed _ -> ()
  | Executor.Failed msg -> Alcotest.failf "increment on node %d failed: %s" node msg

let expect_counter cluster ~node ~oid expected =
  match Cluster.run_program cluster ~node (fun () -> Txn.read oid) with
  | Executor.Committed (Store.Value.Int v) ->
    Alcotest.(check int) (Printf.sprintf "counter read on node %d" node) expected v
  | Executor.Committed v ->
    Alcotest.failf "unexpected value %s" (Store.Value.to_string v)
  | Executor.Failed msg -> Alcotest.failf "read on node %d failed: %s" node msg

(* {2 The membership fence, at the RPC layer}

   The acceptance-level property: a message stamped with a superseded
   epoch is provably rejected — the handler never runs, the caller times
   out, and the drop is counted. *)

let make_rpc ?(nodes = 4) () =
  let engine = Sim.Engine.create () in
  let topology = Sim.Topology.uniform ~latency:10. ~nodes () in
  let network = Sim.Network.create ~engine ~topology ~service_time:0.5 ~jitter:0. () in
  let rpc = Sim.Rpc.create ~network () in
  (engine, rpc)

let test_stale_epoch_request_fenced () =
  let engine, rpc = make_rpc () in
  (* The epoch is keyed on the request payload (the shard its objects live
     on); here a view change lands while the request is in flight, so the
     envelope's send-time stamp is superseded on arrival. *)
  let epoch = ref 0 in
  Sim.Rpc.set_fencing rpc ~epoch_of:(fun _ -> !epoch) ~fenceable:(fun _ -> true);
  let handled = ref 0 in
  Sim.Rpc.serve rpc ~node:1 (fun ~src:_ req ->
      incr handled;
      Some (req + 1));
  let timed_out = ref false in
  Sim.Rpc.call rpc ~src:0 ~dst:1 ~timeout:200. 7
    ~on_reply:(fun _ -> Alcotest.fail "a stale-epoch request must not be served")
    ~on_timeout:(fun () -> timed_out := true);
  (* The view changes before the envelope is delivered. *)
  epoch := 1;
  Sim.Engine.run engine;
  Alcotest.(check int) "handler never invoked" 0 !handled;
  Alcotest.(check bool) "caller timed out" true !timed_out;
  Alcotest.(check int) "drop counted" 1 (Sim.Rpc.fenced rpc);
  (* A fresh call is stamped with the current epoch and goes through. *)
  let answer = ref None in
  Sim.Rpc.call rpc ~src:0 ~dst:1 ~timeout:200. 7
    ~on_reply:(fun rep -> answer := Some rep)
    ~on_timeout:(fun () -> Alcotest.fail "current-epoch call timed out");
  Sim.Engine.run engine;
  Alcotest.(check (option int)) "served after catching up" (Some 8) !answer;
  Alcotest.(check int) "no further drops" 1 (Sim.Rpc.fenced rpc)

let test_stale_epoch_reply_fenced () =
  let engine, rpc = make_rpc () in
  (* The view changes after the request was served but before its reply
     lands: the reply carries the old epoch and must be dropped at the
     caller, whose retry would re-stamp. *)
  let epoch = ref 0 in
  Sim.Rpc.set_fencing rpc ~epoch_of:(fun _ -> !epoch) ~fenceable:(fun _ -> false);
  let handled = ref 0 in
  Sim.Rpc.serve rpc ~node:1 (fun ~src:_ req ->
      incr handled;
      Some req);
  let timed_out = ref false in
  Sim.Rpc.call rpc ~src:0 ~dst:1 ~timeout:200. 7
    ~on_reply:(fun _ -> Alcotest.fail "a stale-epoch reply must be dropped")
    ~on_timeout:(fun () -> timed_out := true);
  (* One-way latency is 10 ms: bump the epoch while the reply is on the
     wire (after the request was served at ~10.5 ms, before the reply
     lands at ~21 ms). *)
  Sim.Engine.schedule engine ~delay:15. (fun () -> epoch := 1);
  Sim.Engine.run engine;
  Alcotest.(check int) "request itself was served" 1 !handled;
  Alcotest.(check bool) "caller timed out" true !timed_out;
  Alcotest.(check int) "stale reply counted" 1 (Sim.Rpc.fenced rpc)

(* {2 Join / leave / replace, end to end} *)

let test_join_syncs_state_and_extends_view () =
  let cluster = Cluster.create ~nodes:5 ~spares:1 ~seed:71 (Config.default Config.Closed) in
  let oid = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  for i = 0 to 9 do
    increment cluster ~node:(i mod 5) oid
  done;
  Alcotest.(check (list int)) "initial view" [ 0; 1; 2; 3; 4 ] (Cluster.members cluster);
  Alcotest.(check int) "initial epoch" 0 (Cluster.epoch cluster);
  Alcotest.(check int) "capacity includes the spare" 6 (Cluster.nodes cluster);
  let joined = ref false in
  Cluster.view_change_at cluster
    ~on_done:(fun () -> joined := true)
    ~at:(Cluster.now cluster +. 10.)
    (Join { node = 5; shard = 0 });
  Cluster.drain cluster;
  Alcotest.(check bool) "join completed" true !joined;
  Alcotest.(check (list int)) "view extended" [ 0; 1; 2; 3; 4; 5 ] (Cluster.members cluster);
  Alcotest.(check int) "epoch bumped" 1 (Cluster.epoch cluster);
  (* The joiner received the committed frontier through the snapshot. *)
  let copy = Store.Replica.get (Cluster.store_of cluster ~node:5) oid in
  Alcotest.(check int) "joiner synced version" 10 copy.Store.Replica.version;
  Alcotest.(check bool) "joiner synced value" true
    (copy.Store.Replica.value = Store.Value.Int 10);
  (* And serves transactions in the new view. *)
  increment cluster ~node:5 oid;
  Cluster.drain cluster;
  expect_counter cluster ~node:5 ~oid 11;
  expect_consistent cluster

let test_leave_hands_off_and_shrinks_view () =
  let cluster = Cluster.create ~nodes:5 ~seed:72 (Config.default Config.Closed) in
  let oid = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  for i = 0 to 4 do
    increment cluster ~node:i oid
  done;
  let left = ref false in
  Cluster.view_change_at cluster
    ~on_done:(fun () -> left := true)
    ~at:(Cluster.now cluster +. 10.)
    (Leave 4);
  Cluster.drain cluster;
  Alcotest.(check bool) "leave completed" true !left;
  Alcotest.(check (list int)) "view shrank" [ 0; 1; 2; 3 ] (Cluster.members cluster);
  Alcotest.(check int) "epoch bumped" 1 (Cluster.epoch cluster);
  Alcotest.(check bool) "leaver is no longer a member" false (Cluster.is_member cluster 4);
  (* No committed state was lost, and no quorum routes through the leaver. *)
  expect_counter cluster ~node:0 ~oid 5;
  List.iter
    (fun node ->
      let q = Cluster.read_quorum_of cluster ~node @ Cluster.write_quorum_of cluster ~node in
      Alcotest.(check bool)
        (Printf.sprintf "node %d's quorums avoid the departed node" node)
        false (List.mem 4 q))
    (Cluster.members cluster);
  increment cluster ~node:2 oid;
  Cluster.drain cluster;
  expect_counter cluster ~node:3 ~oid 6;
  expect_consistent cluster

let test_rolling_replaces_recycle_departed_nodes () =
  let cluster = Cluster.create ~nodes:5 ~spares:1 ~seed:73 (Config.default Config.Closed) in
  let oid = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  for i = 0 to 4 do
    increment cluster ~node:i oid
  done;
  (* Replace every original node once; from the second step on, each
     joiner is a machine an earlier replace decommissioned, so this also
     exercises FIFO queueing of overlapping reconfigurations. *)
  let completed = ref 0 in
  let t0 = Cluster.now cluster in
  List.iteri
    (fun i (leaving, joining) ->
      Cluster.view_change_at cluster
        ~on_done:(fun () -> incr completed)
        ~at:(t0 +. 10. +. (10. *. Float.of_int i))
        (Replace { leaving; joining }))
    [ (0, 5); (1, 0); (2, 1); (3, 2); (4, 3) ];
  Cluster.drain cluster;
  Alcotest.(check int) "all five replaces completed" 5 !completed;
  Alcotest.(check int) "one epoch per replace" 5 (Cluster.epoch cluster);
  Alcotest.(check (list int)) "final view" [ 0; 1; 2; 3; 5 ] (Cluster.members cluster);
  (* The counter survived five successive state handoffs. *)
  expect_counter cluster ~node:5 ~oid 5;
  increment cluster ~node:0 oid;
  Cluster.drain cluster;
  expect_counter cluster ~node:1 ~oid 6;
  expect_consistent cluster

let test_departed_node_cannot_be_removed_again () =
  let cluster = Cluster.create ~nodes:5 ~seed:74 (Config.default Config.Closed) in
  let left = ref false in
  Cluster.view_change_at cluster ~on_done:(fun () -> left := true) ~at:10. (Leave 4);
  Cluster.drain cluster;
  Alcotest.(check bool) "leave completed" true !left;
  Alcotest.check_raises "removing a non-member raises"
    (Invalid_argument "Cluster: cannot remove node 4: not a member")
    (fun () ->
      Cluster.view_change_at cluster ~at:(Cluster.now cluster) (Leave 4);
      Cluster.drain cluster);
  (* Shrinking below the quorum-viable minimum is rejected too. *)
  let try_leave node =
    Cluster.view_change_at cluster ~at:(Cluster.now cluster) (Leave node);
    Cluster.drain cluster
  in
  try_leave 3;
  Alcotest.check_raises "the message states the size after the leave"
    (Invalid_argument
       "Cluster: cannot remove node 2: shard 0 would have 2 members, below the \
        quorum-viable minimum (3)")
    (fun () -> try_leave 2);
  Alcotest.(check (list int)) "view never shrinks below 3" [ 0; 1; 2 ]
    (Cluster.members cluster)

(* {2 One queue across kinds}

   A leave, a move into the same shard and a join, submitted at the same
   instant, run one at a time in submission order, each starting at least
   one request timeout after the previous one finished. *)

let test_view_changes_queue_across_kinds () =
  let config = Config.default Config.Closed in
  let tracer = Obs.Tracer.create () in
  let cluster = Cluster.create ~nodes:8 ~spares:1 ~shards:2 ~seed:76 ~tracer config in
  let oids = List.init 4 (fun i -> Cluster.alloc_object cluster ~init:(Store.Value.Int i)) in
  Alcotest.(check (list int)) "shard 1 starts as nodes 4-7" [ 4; 5; 6; 7 ]
    (Cluster.shard_members cluster ~shard:1);
  let finished = ref [] in
  List.iter
    (fun (name, change) ->
      Cluster.view_change_at cluster
        ~on_done:(fun () -> finished := name :: !finished)
        ~at:10. change)
    [
      ("leave", Cluster.Leave 5);
      ("move", Cluster.Move { oid = List.hd oids; to_shard = 1 });
      ("join", Cluster.Join { node = 8; shard = 1 });
    ];
  Cluster.drain cluster;
  Alcotest.(check (list string)) "on_done in submission order" [ "leave"; "move"; "join" ]
    (List.rev !finished);
  let views =
    List.filter
      (fun e -> e.Obs.Tracer.ekind = Obs.Sem.view_wedge || e.ekind = Obs.Sem.view_done)
      (Obs.Tracer.events tracer)
  in
  (* One wedge, then one done per involved shard: the move holds both. *)
  let shape =
    List.map
      (fun e ->
        ( (if e.Obs.Tracer.ekind = Obs.Sem.view_wedge then "wedge" else "done"),
          int_of_float e.x ))
      views
  in
  Alcotest.(check (list (pair string int)))
    "wedge/done sequence"
    [
      ("wedge", 1); ("done", 1); ("wedge", 0); ("done", 0); ("done", 1); ("wedge", 1);
      ("done", 1);
    ]
    shape;
  let rec gaps last_done = function
    | [] -> ()
    | e :: rest when e.Obs.Tracer.ekind = Obs.Sem.view_wedge ->
      Option.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "wedge at %.1f waits a timeout after done at %.1f"
               e.Obs.Tracer.time d)
            true
            (e.time -. d >= config.Config.request_timeout))
        last_done;
      gaps last_done rest
    | e :: rest -> gaps (Some e.Obs.Tracer.time) rest
  in
  gaps None views;
  (* Each done reports the shard's epoch and the change's kind code. *)
  let dones =
    List.filter_map
      (fun e ->
        if e.Obs.Tracer.ekind = Obs.Sem.view_done then Some (int_of_float e.x, e.a, e.b)
        else None)
      views
  in
  Alcotest.(check (list (triple int int int)))
    "(shard, epoch, kind) per done"
    [ (1, 1, 1); (0, 1, 3); (1, 2, 3); (1, 3, 0) ]
    dones;
  Alcotest.(check int) "cluster epoch sums the shards" 4 (Cluster.epoch cluster);
  Alcotest.(check int) "one view change per bumped epoch" 4
    (Metrics.view_changes (Cluster.metrics cluster));
  Alcotest.(check (list int)) "final shard 1 view" [ 4; 6; 7; 8 ]
    (Cluster.shard_members cluster ~shard:1);
  Alcotest.(check int) "object moved" 1 (Cluster.shard_of_oid cluster (List.hd oids));
  expect_counter cluster ~node:8 ~oid:(List.hd oids) 0;
  expect_consistent cluster

(* {2 State transfer racing lease termination}

   A decided commit is stranded under a lease at replica 7 (its coordinator
   died mid-apply) while a join's Sync_req/Sync_rep state transfer runs.
   Whichever of the rescue and the handoff reaches the replica first, the
   decided commit must survive, the lease must fall, and the joiner must
   end up with the committed copy. *)

let test_sync_races_lease_rescue () =
  let config = Config.default Config.Closed in
  let cluster = Cluster.create ~nodes:9 ~spares:1 ~seed:62 config in
  let oid = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  let txn = Ids.fresh_txn (Cluster.ids cluster) in
  (* Stage the decided-but-unreleased commit by hand (same staging as the
     lease-rescue test): replica 7 votes and holds the lock; the Apply
     reached the rest of the write quorum before the coordinator died. *)
  let holder = Cluster.server_of cluster ~node:7 in
  (match
     Server.handle holder ~src:3
       (Messages.Commit_req
          {
            txn;
            dataset = Messages.dataset_of_list [ { Messages.oid; version = 0; owner = 0 } ];
            locks = [ oid ];
            round = 1;
            peers = [];
          })
   with
  | Some (Messages.Votes { commits = [| true |]; _ }) -> ()
  | _ -> Alcotest.fail "replica 7 refused the vote");
  Alcotest.(check bool) "lease held at replica 7" true (Cluster.held_leases cluster <> []);
  List.iter
    (fun node ->
      ignore
        (Server.handle (Cluster.server_of cluster ~node) ~src:3
           (Messages.Apply
              {
                txn;
                writes = Messages.writes_of_list [ (oid, 1, Store.Value.Int 7) ];
                reads = [||];
              })))
    [ 0; 2; 3; 8 ];
  (match Cluster.oracle cluster with
  | Some oracle ->
    Oracle.note_commit oracle ~txn ~decision:(Cluster.now cluster)
      ~window_start:(Cluster.now cluster) ~reads:[ (oid, 0) ] ~writes:[ (oid, 1) ]
  | None -> ());
  (* Now race a join against the lease's termination pipeline. *)
  let joined = ref false in
  Cluster.view_change_at cluster ~on_done:(fun () -> joined := true) ~at:1.
    (Join { node = 9; shard = 0 });
  Cluster.drain cluster;
  Alcotest.(check bool) "join completed" true !joined;
  Alcotest.(check int) "epoch bumped" 1 (Cluster.epoch cluster);
  Alcotest.(check int) "decided commit never presumed aborted" 0
    (Metrics.presumed_aborts (Cluster.metrics cluster));
  Alcotest.(check bool) "all leases released" true (Cluster.held_leases cluster = []);
  let check_copy node =
    let copy = Store.Replica.get (Cluster.store_of cluster ~node) oid in
    Alcotest.(check int) (Printf.sprintf "node %d adopted the version" node) 1
      copy.Store.Replica.version;
    Alcotest.(check bool) (Printf.sprintf "node %d adopted the value" node) true
      (copy.Store.Replica.value = Store.Value.Int 7)
  in
  check_copy 7;
  check_copy 9;
  (match Cluster.run_program cluster ~node:9 (fun () -> Txn.read oid) with
  | Executor.Committed (Store.Value.Int 7) -> ()
  | Executor.Committed v -> Alcotest.failf "unexpected value %s" (Store.Value.to_string v)
  | Executor.Failed msg -> Alcotest.failf "post-join read failed: %s" msg);
  expect_consistent cluster

(* {2 The 1-copy oracle evaluates over the evolving member set} *)

let test_latest_value_ignores_departed_replicas () =
  let cluster = Cluster.create ~nodes:5 ~seed:75 (Config.default Config.Closed) in
  let oid = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  for i = 0 to 3 do
    increment cluster ~node:i oid
  done;
  Cluster.view_change_at cluster ~at:(Cluster.now cluster +. 5.) (Leave 4);
  Cluster.drain cluster;
  (* Plant a bogus higher version on the departed machine: a verdict that
     scanned all capacity instead of the current members would pick it up. *)
  Store.Replica.sync_copy
    (Cluster.store_of cluster ~node:4)
    ~oid ~version:99 ~value:(Store.Value.Int 999_999);
  Alcotest.(check bool) "verdict reads only current members" true
    (Benchmarks.Workload.latest_value cluster ~oid = Store.Value.Int 4)

(* {2 Scenario validation of membership operations} *)

let contains ~substring msg =
  let n = String.length substring and m = String.length msg in
  let rec scan i = i + n <= m && (String.sub msg i n = substring || scan (i + 1)) in
  n = 0 || scan 0

let expect_error ~substring result =
  match result with
  | Ok () -> Alcotest.failf "expected an error mentioning %S" substring
  | Error msg ->
    if not (contains ~substring msg) then
      Alcotest.failf "error %S does not mention %S" msg substring

let test_scenario_validate_membership () =
  let members = [ 0; 1; 2; 3; 4 ] in
  let validate events = Harness.Scenario.validate ~members ~nodes:7 events in
  expect_error ~substring:"already a member"
    (validate [ Harness.Scenario.Join { node = 2; at = 0. } ]);
  expect_error ~substring:"not a member"
    (validate [ Harness.Scenario.Leave { node = 5; at = 0. } ]);
  expect_error ~substring:"crashed"
    (validate
       [
         Harness.Scenario.Crash { node = 3; at = 0. };
         Harness.Scenario.Leave { node = 3; at = 10. };
       ]);
  expect_error ~substring:"below the quorum-viable minimum"
    (validate
       [
         Harness.Scenario.Leave { node = 4; at = 0. };
         Harness.Scenario.Leave { node = 3; at = 1. };
         Harness.Scenario.Leave { node = 2; at = 2. };
       ]);
  expect_error ~substring:"outside"
    (validate [ Harness.Scenario.Join { node = 9; at = 0. } ]);
  (* A departed node is a legal joiner, and order is what matters. *)
  Alcotest.(check bool) "replace then rejoin is valid" true
    (validate
       [
         Harness.Scenario.Replace { leaving = 0; joining = 5; at = 0. };
         Harness.Scenario.Join { node = 0; at = 10. };
       ]
    = Ok ());
  expect_error ~substring:"already a member"
    (validate
       [
         Harness.Scenario.Join { node = 0; at = 0. };
         Harness.Scenario.Replace { leaving = 1; joining = 5; at = 10. };
       ])

(* {2 The offline epoch-fencing rule} *)

let synthetic_trace events =
  let tracer = Obs.Tracer.create ~capacity:64 () in
  List.iter
    (fun (time, kind, txn, a, b) ->
      Obs.Tracer.emit tracer ~time ~kind ?txn ~a ~b ())
    events;
  Obs.Tracer.events tracer

let test_checker_epoch_fencing_rule () =
  let t txn = Some txn in
  (* A commit whose round was sent in epoch 0 but collected a vote after
     the view changed must be flagged. *)
  let mixed =
    synthetic_trace
      [
        (1., Obs.Sem.commit_send, t 5, 2, 3);
        (2., Obs.Sem.vote_recv, t 5, 1, 1);
        (3., Obs.Sem.view_change, None, 1, 4);
        (4., Obs.Sem.vote_recv, t 5, 2, 1);
        (5., Obs.Sem.txn_commit, t 5, -1, 0);
      ]
  in
  (match Obs.Online.replay mixed with
  | [ v ] ->
    Alcotest.(check string) "rule name" "epoch-fencing" v.Obs.Online.rule;
    Alcotest.(check int) "transaction" 5 v.Obs.Online.txn
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs));
  (* A commit decided after the view changed, over an old-epoch round, is
     flagged even when every vote matched the send epoch. *)
  let late =
    synthetic_trace
      [
        (1., Obs.Sem.commit_send, t 6, 2, 3);
        (2., Obs.Sem.vote_recv, t 6, 1, 1);
        (3., Obs.Sem.vote_recv, t 6, 2, 1);
        (4., Obs.Sem.view_change, None, 1, 4);
        (5., Obs.Sem.txn_commit, t 6, -1, 0);
      ]
  in
  (match Obs.Online.replay late with
  | [ v ] -> Alcotest.(check string) "rule name" "epoch-fencing" v.Obs.Online.rule
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs));
  (* Rounds wholly inside one view are clean — including after a change. *)
  let clean =
    synthetic_trace
      [
        (1., Obs.Sem.view_change, None, 1, 4);
        (2., Obs.Sem.commit_send, t 7, 2, 3);
        (3., Obs.Sem.vote_recv, t 7, 1, 1);
        (4., Obs.Sem.vote_recv, t 7, 2, 1);
        (5., Obs.Sem.txn_commit, t 7, -1, 0);
      ]
  in
  Alcotest.(check int) "clean trace has no violations" 0
    (List.length (Obs.Online.replay clean));
  (* Commits in different epochs may use disjoint voter sets: the pairwise
     write-quorum intersection fallback must not compare across views. *)
  let cross_view =
    synthetic_trace
      [
        (1., Obs.Sem.commit_send, t 8, 2, 3);
        (2., Obs.Sem.vote_recv, t 8, 1, 1);
        (3., Obs.Sem.vote_recv, t 8, 2, 1);
        (4., Obs.Sem.txn_commit, t 8, -1, 0);
        (5., Obs.Sem.view_change, None, 1, 4);
        (6., Obs.Sem.commit_send, t 9, 2, 3);
        (7., Obs.Sem.vote_recv, t 9, 8, 1);
        (8., Obs.Sem.vote_recv, t 9, 9, 1);
        (9., Obs.Sem.txn_commit, t 9, -1, 0);
      ]
  in
  Alcotest.(check int) "disjoint voter sets across views are legal" 0
    (List.length (Obs.Online.replay cross_view))

(* {2 Churn generators} *)

let churn_knobs =
  { Harness.Chaos.default_knobs with spares = 2; reconfigs = 3; horizon = 6_000. }

let test_churn_schedule_deterministic_and_valid () =
  let a = Harness.Chaos.generate churn_knobs ~seed:42 in
  let b = Harness.Chaos.generate churn_knobs ~seed:42 in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  (* Membership churn rides on top of the classic schedule: switching it
     off reproduces the pre-churn prefix byte-for-byte. *)
  let classic = Harness.Chaos.generate { churn_knobs with reconfigs = 0 } ~seed:42 in
  let prefix n l = List.filteri (fun i _ -> i < n) l in
  Alcotest.(check bool) "classic schedule is a prefix" true
    (prefix (List.length classic) a = classic);
  (* Every generated schedule must pass static membership validation. *)
  for seed = 1 to 40 do
    let events = Harness.Chaos.generate churn_knobs ~seed in
    match
      Harness.Scenario.validate
        ~members:(List.init churn_knobs.Harness.Chaos.nodes Fun.id)
        ~nodes:(churn_knobs.Harness.Chaos.nodes + churn_knobs.Harness.Chaos.spares)
        events
    with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d generated an invalid schedule: %s" seed msg
  done

let test_rolling_schedule_replaces_every_node () =
  let knobs = { Harness.Chaos.rolling_knobs with nodes = 7 } in
  for seed = 1 to 20 do
    let events = Harness.Chaos.generate_rolling knobs ~seed in
    let leavers =
      List.filter_map
        (function Harness.Scenario.Replace { leaving; _ } -> Some leaving | _ -> None)
        events
      |> List.sort Int.compare
    in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d replaces every node once" seed)
      [ 0; 1; 2; 3; 4; 5; 6 ] leavers;
    match
      Harness.Scenario.validate ~members:(List.init 7 Fun.id)
        ~nodes:(7 + knobs.Harness.Chaos.spares) events
    with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d rolling schedule invalid: %s" seed msg
  done;
  Alcotest.check_raises "rolling needs a spare"
    (Invalid_argument "Chaos.generate_rolling: rolling restarts need spares >= 1")
    (fun () ->
      ignore
        (Harness.Chaos.generate_rolling
           { Harness.Chaos.rolling_knobs with spares = 0 }
           ~seed:1))

let test_rolling_chaos_run_passes () =
  (* Seed 3 at this size once exposed a reconfiguration-queue reordering
     bug (a replace validated against a view an earlier queued replace had
     yet to leave); keep it as a regression anchor. *)
  let knobs = { Harness.Chaos.rolling_knobs with nodes = 7; clients = 10 } in
  let result = Harness.Chaos.run_one ~rolling:true knobs ~seed:3 in
  Alcotest.(check bool) "rolling run passed" true (Harness.Chaos.passed result);
  Alcotest.(check int) "every node replaced once" 7 result.Harness.Chaos.view_changes;
  Alcotest.(check int) "final epoch" 7 result.Harness.Chaos.final_epoch;
  Alcotest.(check bool) "made commit progress" true (result.Harness.Chaos.commits > 0)

let suite =
  [
    Alcotest.test_case "stale-epoch request is fenced" `Quick
      test_stale_epoch_request_fenced;
    Alcotest.test_case "stale-epoch reply is fenced" `Quick test_stale_epoch_reply_fenced;
    Alcotest.test_case "join syncs state and extends the view" `Quick
      test_join_syncs_state_and_extends_view;
    Alcotest.test_case "leave hands off state and shrinks the view" `Quick
      test_leave_hands_off_and_shrinks_view;
    Alcotest.test_case "rolling replaces recycle departed nodes" `Quick
      test_rolling_replaces_recycle_departed_nodes;
    Alcotest.test_case "malformed reconfigurations are rejected" `Quick
      test_departed_node_cannot_be_removed_again;
    Alcotest.test_case "view changes queue across kinds" `Quick
      test_view_changes_queue_across_kinds;
    Alcotest.test_case "state transfer races lease rescue" `Quick
      test_sync_races_lease_rescue;
    Alcotest.test_case "verdicts read only current members" `Quick
      test_latest_value_ignores_departed_replicas;
    Alcotest.test_case "scenario validation of membership ops" `Quick
      test_scenario_validate_membership;
    Alcotest.test_case "checker epoch-fencing rule" `Quick
      test_checker_epoch_fencing_rule;
    Alcotest.test_case "churn schedules deterministic and valid" `Quick
      test_churn_schedule_deterministic_and_valid;
    Alcotest.test_case "rolling schedules replace every node" `Quick
      test_rolling_schedule_replaces_every_node;
    Alcotest.test_case "rolling chaos run passes" `Quick test_rolling_chaos_run_passes;
  ]
