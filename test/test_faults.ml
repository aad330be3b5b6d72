(* Fault-injection acceptance tests: crash-recovery with state transfer,
   partitions, and safety (no lost updates, 1-copy serializability) under an
   imperfect detector and message loss. *)

open Core

let increments cluster ~oid ~nodes ~per_node ~on_commit =
  let rec client node remaining =
    if remaining > 0 then
      Cluster.submit cluster ~node (fun () -> Benchmarks.Counter.increment oid)
        ~on_done:(fun outcome ->
          match outcome with
          | Executor.Committed _ ->
            on_commit node;
            client node (remaining - 1)
          | Executor.Failed msg -> Alcotest.failf "client on %d failed: %s" node msg)
  in
  List.iter (fun node -> client node per_node) nodes

let expect_counter cluster ~node ~oid expected =
  match Cluster.run_program cluster ~node (fun () -> Txn.read oid) with
  | Executor.Committed (Store.Value.Int n) ->
    Alcotest.(check int) (Printf.sprintf "counter read from node %d" node) expected n
  | Executor.Committed v -> Alcotest.failf "unexpected value %s" (Store.Value.to_string v)
  | Executor.Failed msg -> Alcotest.failf "read from node %d failed: %s" node msg

let expect_consistent cluster =
  match Cluster.check_consistency cluster with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "oracle: %s" msg

(* Crash a replica mid-workload, restart it after the workload drains, and
   verify the catch-up protocol: state transfer from a read quorum, quorum
   re-admission, and the recovered node serving reads of the synced state. *)
let test_crash_recover_state_sync () =
  let cluster = Cluster.create ~nodes:13 ~seed:41 (Config.default Config.Closed) in
  let oid = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  Cluster.fail_node_at cluster ~at:300. ~node:11;
  (* Recovery well after the 40 increments finish, so the synced copy must
     reflect every one of them. *)
  Cluster.recover_node_at cluster ~at:60_000. ~node:11;
  increments cluster ~oid ~nodes:[ 4; 5; 6; 7 ] ~per_node:10 ~on_commit:(fun _ -> ());
  Cluster.drain cluster;
  let metrics = Cluster.metrics cluster in
  Alcotest.(check int) "one recovery completed" 1 (Metrics.recoveries metrics);
  Alcotest.(check bool) "at least one sync round" true (Metrics.syncs metrics >= 1);
  Alcotest.(check bool) "recovery time measured" true
    (Util.Stats.mean (Metrics.recovery_time_stats metrics) > 0.);
  (* The recovered replica caught up to the freshest copy (node 0 — the
     tree root — is in every write quorum, so it is always current). *)
  let fresh = Store.Replica.get (Cluster.store_of cluster ~node:0) oid in
  let synced = Store.Replica.get (Cluster.store_of cluster ~node:11) oid in
  Alcotest.(check int) "synced version" fresh.Store.Replica.version
    synced.Store.Replica.version;
  Alcotest.(check bool) "synced value" true
    (synced.Store.Replica.value = Store.Value.Int 40);
  (* Fully re-admitted: alive, not suspected, and able to serve. *)
  Alcotest.(check bool) "network alive" true
    (List.mem 11 (Sim.Network.alive_nodes (Cluster.network cluster)));
  Alcotest.(check bool) "suspicion cleared" false
    (Sim.Failure.is_suspected (Cluster.failure cluster) 11);
  expect_counter cluster ~node:11 ~oid 40;
  expect_consistent cluster

(* While a minority {11,12} is partitioned off, the majority side keeps
   committing and the minority side commits nothing (the tree root, a member
   of every write quorum, is on the majority side).  After heal everyone
   finishes and no update is lost. *)
let test_partition_minority_stalls () =
  let cluster = Cluster.create ~nodes:13 ~seed:42 (Config.default Config.Closed) in
  let oid = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  let majority = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  let events =
    [ Harness.Scenario.Partition { groups = [ majority; [ 11; 12 ] ]; at = 1.; duration = 1500. } ]
  in
  let tracker = Harness.Scenario.install cluster events in
  let majority_commits = ref 0 and minority_commits = ref 0 in
  increments cluster ~oid ~nodes:[ 4; 5; 6 ] ~per_node:10 ~on_commit:(fun _ ->
      incr majority_commits);
  increments cluster ~oid ~nodes:[ 11 ] ~per_node:3 ~on_commit:(fun _ ->
      incr minority_commits);
  (* Sample just before the heal at t = 1501. *)
  Cluster.run_for cluster 1400.;
  Alcotest.(check int) "minority made no progress" 0 !minority_commits;
  Alcotest.(check bool) "majority kept committing" true (!majority_commits > 0);
  Cluster.drain cluster;
  Alcotest.(check int) "minority finished after heal" 3 !minority_commits;
  Alcotest.(check int) "majority finished" 30 !majority_commits;
  expect_counter cluster ~node:11 ~oid 33;
  let report = Harness.Scenario.report tracker in
  Alcotest.(check bool) "degraded window spans the partition" true
    (report.Harness.Scenario.degraded_time >= 1500.);
  Alcotest.(check int) "both cut-off nodes were suspected" 2
    report.Harness.Scenario.false_suspicions;
  Alcotest.(check bool) "boundary drops counted" true
    (report.Harness.Scenario.dropped > 0);
  expect_consistent cluster

(* Safety net: a wrongly suspected (perfectly live) node plus 5% global
   message loss must not cost a single update or break one-copy
   serializability, on every seed tried. *)
let test_false_suspicion_and_loss_safe () =
  List.iter
    (fun seed ->
      let cluster = Cluster.create ~nodes:13 ~seed (Config.default Config.Closed) in
      let oid = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
      let events =
        [
          Harness.Scenario.Drop { p = 0.05; at = 0.; duration = None };
          Harness.Scenario.Suspect { node = 3; at = 400.; duration = 600. };
        ]
      in
      let tracker = Harness.Scenario.install cluster events in
      increments cluster ~oid ~nodes:[ 5; 6; 7; 8 ] ~per_node:8 ~on_commit:(fun _ -> ());
      Cluster.drain cluster;
      expect_counter cluster ~node:3 ~oid 32;
      let report = Harness.Scenario.report tracker in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: false suspicion recorded" seed)
        1 report.Harness.Scenario.false_suspicions;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: loss actually happened" seed)
        true
        (report.Harness.Scenario.dropped > 0);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: suspicion cleared" seed)
        false
        (Sim.Failure.is_suspected (Cluster.failure cluster) 3);
      expect_consistent cluster)
    [ 21; 22; 23 ]

(* A scenario run as [qr-dtm scenario] makes it: the bank workload with 26
   clients, a 2 s warm-up and then the measured window. *)
let scenario_run ~seed ~duration spec =
  let events =
    match Harness.Scenario.parse spec with
    | Ok events -> events
    | Error msg -> Alcotest.failf "parse %S: %s" spec msg
  in
  let benchmark = Option.get (Benchmarks.Registry.find "bank") in
  let params =
    {
      Benchmarks.Workload.objects = Harness.Figures.benchmark_objects "bank";
      calls = 3;
      read_ratio = 0.5;
      key_skew = 0.5;
      cross_shard_prob = 0.;
      shard_skew = 0.;
    }
  in
  let result =
    Harness.Experiment.run ~load:(Closed { clients = 26; client_nodes = None })
      ~duration ~events
      (Harness.Experiment.spec ~seed ~config:(Config.default Config.Closed) ~benchmark ~params ())
  in
  (result, Option.get result.report)

(* The members a partition spec leaves unnamed form one more group, in the
   suspicions as in the network: naming only the minority must suspect the
   minority, exactly as naming both sides does. *)
let test_partition_unnamed_majority () =
  let run spec = scenario_run ~seed:3 ~duration:8000. spec in
  let result, minority = run "partition 7,8 @2000 for 3000" in
  let _, both = run "partition 7,8|0,1,2,3,4,5,6,9,10,11,12 @2000 for 3000" in
  Alcotest.(check int) "only the two cut-off nodes suspected" 2
    minority.Harness.Scenario.false_suspicions;
  Alcotest.(check bool) "same report as naming both sides" true (minority = both);
  Alcotest.(check bool) "1-copy serializable" true (result.Harness.Experiment.consistent = Ok ())

(* A degraded window open across the warm-up counter reset counts only the
   commits after the reset, as the total does. *)
let test_degraded_window_spans_reset () =
  let _, report = scenario_run ~seed:3 ~duration:4000. "suspect 3 @1500 for 1000" in
  let degraded = report.Harness.Scenario.degraded_commits
  and total = report.Harness.Scenario.total_commits in
  if not (0 < degraded && degraded <= total) then
    Alcotest.failf "degraded commits %d / %d total" degraded total

(* {2 Scenario DSL parsing} *)

let parse_ok spec =
  match Harness.Scenario.parse spec with
  | Ok events -> events
  | Error msg -> Alcotest.failf "parse %S failed: %s" spec msg

let test_scenario_parse () =
  (match parse_ok "crash 11 @500; recover 11 @2500;" with
   | [ Harness.Scenario.Crash { node = 11; at = 500. };
       Harness.Scenario.Recover { node = 11; at = 2500. } ] ->
     ()
   | events -> Alcotest.failf "unexpected events (%d)" (List.length events));
  (match parse_ok "partition 0,1,2|11,12 @100 for 50" with
   | [ Harness.Scenario.Partition { groups = [ [ 0; 1; 2 ]; [ 11; 12 ] ]; at = 100.; duration = 50. } ]
     -> ()
   | _ -> Alcotest.fail "partition parse");
  (match parse_ok "drop 0.05 @0" with
   | [ Harness.Scenario.Drop { p = 0.05; at = 0.; duration = None } ] -> ()
   | _ -> Alcotest.fail "drop parse");
  (match parse_ok "spike 0.2 8 @10 for 200" with
   | [ Harness.Scenario.Spike { p = 0.2; factor = 8.; at = 10.; duration = Some 200. } ] -> ()
   | _ -> Alcotest.fail "spike parse");
  (match parse_ok "flaky 0-2 0.5 @10 for 20; dup 0.1 @5" with
   | [ Harness.Scenario.Flaky { a = 0; b = 2; p = 0.5; at = 10.; duration = Some 20. };
       Harness.Scenario.Duplicate { p = 0.1; at = 5.; duration = None } ] ->
     ()
   | _ -> Alcotest.fail "flaky/dup parse");
  (match parse_ok "suspect 4 @100 for 300" with
   | [ Harness.Scenario.Suspect { node = 4; at = 100.; duration = 300. } ] -> ()
   | _ -> Alcotest.fail "suspect parse")

let test_scenario_parse_errors () =
  let expect_error spec =
    match Harness.Scenario.parse spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %S to be rejected" spec
  in
  expect_error "crash 1"; (* missing @time *)
  expect_error "drop 1.5 @0"; (* probability out of range *)
  expect_error "suspect 1 @5"; (* missing mandatory duration *)
  expect_error "crash 1 @5 for 10"; (* crash takes no duration *)
  expect_error "explode 3 @1"; (* unknown verb *)
  expect_error "flaky 0+2 0.5 @1"; (* malformed link *)
  expect_error "partition | @1 for 5" (* empty group *)

(* {2 Scenario validation} *)

let test_scenario_validation () =
  let expect_invalid ~why events =
    match Harness.Scenario.validate ~nodes:9 events with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "expected validation to reject: %s" why
  in
  let expect_valid events =
    match Harness.Scenario.validate ~nodes:9 events with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "expected validation to accept, got: %s" msg
  in
  expect_valid
    [
      Harness.Scenario.Crash { node = 3; at = 10. };
      Harness.Scenario.Recover { node = 3; at = 50. };
      Harness.Scenario.Crash { node = 3; at = 90. };
      Harness.Scenario.Partition { groups = [ [ 0; 1 ]; [ 2; 3 ] ]; at = 5.; duration = 10. };
    ];
  expect_invalid ~why:"node id out of range"
    [ Harness.Scenario.Crash { node = 9; at = 1. } ];
  expect_invalid ~why:"negative node id"
    [ Harness.Scenario.Suspect { node = -1; at = 1.; duration = 5. } ];
  expect_invalid ~why:"double crash"
    [
      Harness.Scenario.Crash { node = 2; at = 1. };
      Harness.Scenario.Crash { node = 2; at = 5. };
    ];
  expect_invalid ~why:"recover without crash"
    [ Harness.Scenario.Recover { node = 2; at = 5. } ];
  expect_invalid ~why:"partition group member out of range"
    [ Harness.Scenario.Partition { groups = [ [ 0; 42 ]; [ 1 ] ]; at = 1.; duration = 5. } ];
  expect_invalid ~why:"flaky endpoint out of range"
    [ Harness.Scenario.Flaky { a = 0; b = 12; p = 0.5; at = 1.; duration = None } ];
  (* [install] runs the same checks and raises. *)
  let cluster = Cluster.create ~nodes:9 ~seed:77 (Config.default Config.Closed) in
  (try
     ignore
       (Harness.Scenario.install cluster
          [ Harness.Scenario.Crash { node = 12; at = 1. } ]);
     Alcotest.fail "install accepted an out-of-range node"
   with Invalid_argument _ -> ())

(* {2 Lease termination} *)

let step_until cluster ~what p =
  let engine = Cluster.engine cluster in
  let rec go () =
    if p () then ()
    else if Sim.Engine.step engine then go ()
    else Alcotest.failf "engine drained before %s" what
  in
  go ()

(* The tentpole scenario: a coordinator crashes after its write-quorum
   replicas granted locks (votes collected) but before it could decide —
   pre-lease, those locks would deadlock the objects forever.  The leases
   must expire, the status protocol must find no commit evidence, and the
   locks must fall under presumed abort within the termination pipeline's
   horizon, after which other transactions write the same object again. *)
let test_coordinator_crash_presumed_abort () =
  let config = Config.default Config.Closed in
  let cluster = Cluster.create ~nodes:9 ~seed:61 config in
  let oid = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  let outcome_delivered = ref false in
  Cluster.submit cluster ~node:4 (fun () -> Benchmarks.Counter.increment oid)
    ~on_done:(fun _ -> outcome_delivered := true);
  (* Run to the instant the first replica grants a write lock: the
     coordinator has sent its commit requests and is collecting votes. *)
  step_until cluster ~what:"a lease was granted" (fun () ->
      Cluster.held_leases cluster <> []);
  let t_kill = Cluster.now cluster in
  Cluster.fail_node_at cluster ~at:t_kill ~node:4;
  step_until cluster ~what:"the leases fell" (fun () ->
      Cluster.held_leases cluster = []);
  let t_clear = Cluster.now cluster in
  let horizon =
    config.Config.lease_duration +. config.Config.status_grace
    +. (float_of_int config.Config.status_attempts *. config.Config.request_timeout)
    +. 500.
  in
  Alcotest.(check bool)
    (Printf.sprintf "locks released within the termination horizon (%.0f <= %.0f)"
       (t_clear -. t_kill) horizon)
    true
    (t_clear -. t_kill <= horizon);
  Cluster.drain cluster;
  let metrics = Cluster.metrics cluster in
  Alcotest.(check bool) "fail-stop: no outcome delivered" false !outcome_delivered;
  Alcotest.(check bool) "the dead coordinator left no live transaction" true
    (Cluster.in_flight cluster = []);
  Alcotest.(check bool) "lease expiry detected" true
    (Metrics.lease_expirations metrics >= 1);
  Alcotest.(check bool) "presumed abort (no rescue applies: nothing committed)" true
    (Metrics.presumed_aborts metrics >= 1);
  Alcotest.(check int) "nothing was rescued" 0 (Metrics.status_rescued_commits metrics);
  (* The object is writable again by everyone else. *)
  (match
     Cluster.run_program cluster ~node:5 (fun () -> Benchmarks.Counter.increment oid)
   with
  | Executor.Committed _ -> ()
  | Executor.Failed msg -> Alcotest.failf "post-crash increment failed: %s" msg);
  (* Let the increment's apply fan-out land before reading. *)
  Cluster.drain cluster;
  expect_counter cluster ~node:8 ~oid 1;
  expect_consistent cluster

(* The other half of termination: the coordinator DID decide commit (an
   Apply reached a status peer) and then died before this replica's copy
   arrived.  Presuming abort here would un-commit a decided transaction;
   the status exchange must instead rescue it — adopt the newer copy and
   release the lease. *)
let test_status_rescues_decided_commit () =
  let config = Config.default Config.Closed in
  let cluster = Cluster.create ~nodes:9 ~seed:62 config in
  let oid = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  let txn = Ids.fresh_txn (Cluster.ids cluster) in
  (* Stage the decided commit by hand over the write quorum {0,2,3,7,8}
     (root + the subtree majorities under children 2 and 3): replica 7
     granted the lock (vote collected), and the second-phase Apply reached
     every other member — node 0 in particular is in 7's status peer set —
     before the coordinator died, leaving 7's copy stale and locked. *)
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
  Alcotest.(check bool) "lease held at replica 7" true
    (Cluster.held_leases cluster <> []);
  List.iter
    (fun node ->
      ignore
        (Server.handle (Cluster.server_of cluster ~node) ~src:3
           (Messages.Apply
              { txn; writes = Messages.writes_of_list [ (oid, 1, Store.Value.Int 7) ] })))
    [ 0; 2; 3; 8 ];
  (* The oracle must know about the decided commit, as the coordinator
     would have reported it. *)
  (match Cluster.oracle cluster with
  | Some oracle ->
    Core.Oracle.note_commit oracle ~txn ~decision:(Cluster.now cluster)
      ~window_start:(Cluster.now cluster) ~reads:[ (oid, 0) ] ~writes:[ (oid, 1) ]
  | None -> ());
  Cluster.drain cluster;
  let metrics = Cluster.metrics cluster in
  Alcotest.(check bool) "commit rescued" true (Metrics.status_rescued_commits metrics >= 1);
  Alcotest.(check int) "not presumed aborted" 0 (Metrics.presumed_aborts metrics);
  Alcotest.(check bool) "all leases released" true (Cluster.held_leases cluster = []);
  let copy = Store.Replica.get (Cluster.store_of cluster ~node:7) oid in
  Alcotest.(check int) "replica 7 adopted the committed version" 1
    copy.Store.Replica.version;
  Alcotest.(check bool) "replica 7 adopted the committed value" true
    (copy.Store.Replica.value = Store.Value.Int 7);
  (match Cluster.run_program cluster ~node:8 (fun () -> Txn.read oid) with
  | Executor.Committed (Store.Value.Int 7) -> ()
  | Executor.Committed v -> Alcotest.failf "unexpected value %s" (Store.Value.to_string v)
  | Executor.Failed msg -> Alcotest.failf "post-rescue read failed: %s" msg);
  expect_consistent cluster

(* {2 Chaos harness} *)

let small_knobs = { Harness.Chaos.default_knobs with horizon = 3000.; max_crashes = 1 }

let small_run seed =
  Harness.Chaos.run_one ~clients:8 small_knobs { Harness.Chaos.default_spec with seed }

let test_chaos_deterministic () =
  let a = small_run 5 and b = small_run 5 in
  let report r = Option.get r.Harness.Chaos.run.report in
  Alcotest.(check string) "same schedule"
    (Harness.Scenario.to_string a.Harness.Chaos.events)
    (Harness.Scenario.to_string b.Harness.Chaos.events);
  Alcotest.(check int) "same commits" (report a).total_commits (report b).total_commits;
  Alcotest.(check int) "same aborts" (report a).root_aborts (report b).root_aborts;
  Alcotest.(check (float 0.)) "same quiescence time" (report a).taken_at (report b).taken_at

let test_chaos_small_batch () =
  List.iter
    (fun seed ->
      let r = small_run seed in
      if not (Harness.Chaos.passed r) then
        Alcotest.failf "seed %d failed:@ %a" r.Harness.Chaos.seed
          (fun fmt -> Format.fprintf fmt "%a" Harness.Chaos.pp_result)
          r;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d made progress" r.Harness.Chaos.seed)
        true
        ((Option.get r.run.report).total_commits > 0))
    [ 1; 2; 3 ]

let suite =
  [
    Alcotest.test_case "crash, recover, state-sync, serve" `Quick
      test_crash_recover_state_sync;
    Alcotest.test_case "partitioned minority stalls" `Quick test_partition_minority_stalls;
    Alcotest.test_case "false suspicion + 5% loss safe" `Quick
      test_false_suspicion_and_loss_safe;
    Alcotest.test_case "partition spec: unnamed members are a group" `Quick
      test_partition_unnamed_majority;
    Alcotest.test_case "degraded window across the warm-up reset" `Quick
      test_degraded_window_spans_reset;
    Alcotest.test_case "scenario parse" `Quick test_scenario_parse;
    Alcotest.test_case "scenario parse errors" `Quick test_scenario_parse_errors;
    Alcotest.test_case "scenario validation" `Quick test_scenario_validation;
    Alcotest.test_case "coordinator crash mid-2PC: presumed abort" `Quick
      test_coordinator_crash_presumed_abort;
    Alcotest.test_case "decided commit rescued, not presumed aborted" `Quick
      test_status_rescues_decided_commit;
    Alcotest.test_case "chaos runs are deterministic per seed" `Quick
      test_chaos_deterministic;
    Alcotest.test_case "chaos small batch passes" `Quick test_chaos_small_batch;
  ]
