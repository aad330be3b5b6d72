(* Sharded object space: cross-shard 2PC commit/abort atomicity,
   coordinator-failure termination (presumed abort and cross-shard rescue),
   shard-aware scenario validation, and seeded shard-chaos determinism.

   Layout used throughout: 9 nodes / 3 shards — nodes 0-2 serve shard 0,
   3-5 shard 1, 6-8 shard 2; oids place round-robin (oid mod 3), so the
   first two allocations land on shards 0 and 1. *)

open Core

let config () = Config.default Config.Closed

let sharded_cluster ?(nodes = 9) ?(shards = 3) ?(seed = 11) ?tracer () =
  Cluster.create ~nodes ~shards ~seed ?tracer (config ())

let step_until cluster ~what p =
  let engine = Cluster.engine cluster in
  let rec go () =
    if p () then ()
    else if Sim.Engine.step engine then go ()
    else Alcotest.failf "engine drained before %s" what
  in
  go ()

let expect_consistent cluster =
  match Cluster.check_consistency cluster with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "oracle: %s" msg

let read_int cluster ~node oid =
  match Cluster.run_program cluster ~node (fun () -> Txn.read oid) with
  | Executor.Committed v -> Store.Value.to_int v
  | Executor.Failed msg -> Alcotest.failf "read back failed: %s" msg

(* {2 Commit paths} *)

let test_single_cross_shard_commit () =
  let cluster = sharded_cluster () in
  let a = Cluster.alloc_object cluster ~init:(Store.Value.Int 100) in
  let b = Cluster.alloc_object cluster ~init:(Store.Value.Int 100) in
  Alcotest.(check bool) "accounts on different shards" true
    (Cluster.shard_of_oid cluster a <> Cluster.shard_of_oid cluster b);
  let outcome = ref None in
  Cluster.submit cluster ~node:0
    (fun () -> Benchmarks.Bank.transfer ~from_:a ~to_:b ~amount:10)
    ~on_done:(fun o -> outcome := Some o);
  Cluster.run_for cluster 5_000.;
  (match !outcome with
  | Some (Executor.Committed _) -> ()
  | Some (Executor.Failed msg) -> Alcotest.failf "cross-shard commit failed: %s" msg
  | None -> Alcotest.fail "cross-shard commit did not finish within 5 s");
  Alcotest.(check int) "debit applied" 90 (read_int cluster ~node:4 a);
  Alcotest.(check int) "credit applied" 110 (read_int cluster ~node:7 b);
  Alcotest.(check int) "counted as cross-shard" 1
    (Metrics.cross_shard_commits (Cluster.metrics cluster));
  expect_consistent cluster

(* A transaction confined to one shard must keep the one-round fast path:
   no 2PC, no cross-shard metrics and no cross-shard trace events, even on
   a sharded cluster. *)
let test_same_shard_fast_path () =
  let tracer = Obs.Tracer.create ~capacity:4096 () in
  let cluster = sharded_cluster ~tracer () in
  let a = Cluster.alloc_object cluster ~init:(Store.Value.Int 100) in
  let _b = Cluster.alloc_object cluster ~init:(Store.Value.Int 100) in
  let _c = Cluster.alloc_object cluster ~init:(Store.Value.Int 100) in
  let d = Cluster.alloc_object cluster ~init:(Store.Value.Int 100) in
  Alcotest.(check int) "a and d share shard 0" (Cluster.shard_of_oid cluster a)
    (Cluster.shard_of_oid cluster d);
  (match
     Cluster.run_program cluster ~node:1 (fun () ->
         Benchmarks.Bank.transfer ~from_:a ~to_:d ~amount:25)
   with
  | Executor.Committed _ -> ()
  | Executor.Failed msg -> Alcotest.failf "same-shard transfer failed: %s" msg);
  Cluster.drain cluster;
  let metrics = Cluster.metrics cluster in
  Alcotest.(check int) "no cross-shard commit counted" 0
    (Metrics.cross_shard_commits metrics);
  Alcotest.(check int) "no cross-shard abort counted" 0
    (Metrics.cross_shard_aborts metrics);
  Alcotest.(check int) "debit applied" 75 (read_int cluster ~node:2 a);
  Alcotest.(check int) "credit applied" 125 (read_int cluster ~node:2 d);
  Alcotest.(check int) "trace did not overflow" 0 (Obs.Tracer.dropped tracer);
  let count kind =
    List.length
      (List.filter (fun (e : Obs.Tracer.event) -> e.ekind = kind) (Obs.Tracer.events tracer))
  in
  Alcotest.(check bool) "commit round traced" true (count Obs.Sem.commit_send > 0);
  Alcotest.(check int) "no xshard.prepare" 0 (count Obs.Sem.xshard_prepare);
  Alcotest.(check int) "no xshard.decide" 0 (count Obs.Sem.xshard_decide);
  expect_consistent cluster

(* Rqv validates each shard on its own, so a QR-CN read-only root whose
   reads span shards must take the commit round instead of committing
   locally: only the per-shard validations, one after another, certify a
   snapshot consistent across shards.  Sharded vacation (mostly read-only
   multi-shard queries) exposed mixed snapshots on these seeds when such
   roots committed locally. *)
let test_cross_shard_read_only_snapshot () =
  let benchmark = Option.get (Benchmarks.Registry.find "vacation") in
  let params =
    {
      Benchmarks.Workload.default_params with
      objects = Harness.Figures.benchmark_objects "vacation";
      key_skew = 0.5;
    }
  in
  List.iter
    (fun seed ->
      let r =
        Harness.Experiment.run ~duration:50_000.
          (Harness.Experiment.spec ~seed ~shards:4 ~config:(config ()) ~benchmark ~params ())
      in
      Alcotest.(check bool) "transactions committed" true (r.Harness.Experiment.commits > 0);
      (match r.consistent with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed %d oracle: %s" seed msg);
      match r.invariant with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed %d invariant: %s" seed msg)
    [ 2; 5 ]

(* A participant-shard lock conflict must veto the whole 2PC: the
   transaction aborts atomically (the already-prepared shard releases, no
   shard applies) and the abort lands in the cross-shard counter.  The
   conflicting lock is staged by hand and never decided, so it falls under
   presumed abort, after which the client's retry commits — final state
   must show exactly one transfer. *)
let test_cross_shard_conflict_aborts_atomically () =
  let cluster = sharded_cluster ~seed:13 () in
  let a = Cluster.alloc_object cluster ~init:(Store.Value.Int 100) in
  let b = Cluster.alloc_object cluster ~init:(Store.Value.Int 100) in
  let blocker = Ids.fresh_txn (Cluster.ids cluster) in
  let shard1_wq = Cluster.write_quorum_of cluster ~node:4 in
  Alcotest.(check bool) "shard 1 write quorum constructible" true (shard1_wq <> []);
  List.iter
    (fun node ->
      match
        Server.handle (Cluster.server_of cluster ~node) ~src:4
          (Messages.Commit_req
             {
               txn = blocker;
               dataset =
                 Messages.dataset_of_list [ { Messages.oid = b; version = 0; owner = 0 } ];
               locks = [ b ];
               round = 1;
               peers = [];
             })
      with
      | Some (Messages.Votes { commits = [| true |]; _ }) -> ()
      | _ -> Alcotest.failf "staged lock refused at node %d" node)
    shard1_wq;
  let outcome = ref None in
  Cluster.submit cluster ~node:0
    (fun () -> Benchmarks.Bank.transfer ~from_:a ~to_:b ~amount:10)
    ~on_done:(fun o -> outcome := Some o);
  Cluster.run_for cluster 10_000.;
  Cluster.drain cluster;
  (match !outcome with
  | Some (Executor.Committed _) -> ()
  | Some (Executor.Failed msg) -> Alcotest.failf "transfer never recovered: %s" msg
  | None -> Alcotest.fail "transfer still in flight after the blocker fell");
  let metrics = Cluster.metrics cluster in
  Alcotest.(check bool) "the vetoed 2PC round counted as a cross-shard abort" true
    (Metrics.cross_shard_aborts metrics >= 1);
  Alcotest.(check int) "exactly one transfer applied (debit)" 90
    (read_int cluster ~node:1 a);
  Alcotest.(check int) "exactly one transfer applied (credit)" 110
    (read_int cluster ~node:4 b);
  expect_consistent cluster

(* {2 Coordinator failure} *)

(* The coordinator dies after shard 0 granted its locks (votes in flight)
   but before shard 1 was ever contacted: prepares run sequentially in
   ascending shard order, so at the instant shard 0's first lease appears
   no Commit_req has left for shard 1.  Every contacted replica must
   presume abort — there is no commit evidence anywhere — and both
   balances must stand. *)
let test_coordinator_crash_before_second_prepare () =
  let cluster = sharded_cluster ~seed:17 () in
  let a = Cluster.alloc_object cluster ~init:(Store.Value.Int 100) in
  let b = Cluster.alloc_object cluster ~init:(Store.Value.Int 100) in
  let outcome_delivered = ref false in
  Cluster.submit cluster ~node:0
    (fun () -> Benchmarks.Bank.transfer ~from_:a ~to_:b ~amount:10)
    ~on_done:(fun _ -> outcome_delivered := true);
  step_until cluster ~what:"shard 0 granted a lock" (fun () ->
      Cluster.held_leases cluster <> []);
  (* Sequential prepares: shard 1 untouched while shard 0's votes are
     still out. *)
  List.iter
    (fun (replica, oid, _, _) ->
      Alcotest.(check int) "lease is on shard 0's object" a oid;
      Alcotest.(check int) "lease holder serves shard 0" 0
        (Cluster.home_shard_of cluster ~node:replica))
    (Cluster.held_leases cluster);
  Cluster.fail_node_at cluster ~at:(Cluster.now cluster) ~node:0;
  step_until cluster ~what:"the leases fell" (fun () ->
      Cluster.held_leases cluster = []);
  Cluster.drain cluster;
  let metrics = Cluster.metrics cluster in
  Alcotest.(check bool) "fail-stop: no outcome delivered" false !outcome_delivered;
  Alcotest.(check bool) "locks fell by presumed abort" true
    (Metrics.presumed_aborts metrics >= 1);
  Alcotest.(check int) "nothing was rescued" 0 (Metrics.status_rescued_commits metrics);
  Alcotest.(check int) "no cross-shard commit decided" 0
    (Metrics.cross_shard_commits metrics);
  Alcotest.(check int) "debit never applied" 100 (read_int cluster ~node:1 a);
  Alcotest.(check int) "credit never applied" 100 (read_int cluster ~node:4 b);
  (* Both shards take writes again. *)
  (match
     Cluster.run_program cluster ~node:1 (fun () ->
         Benchmarks.Bank.transfer ~from_:a ~to_:b ~amount:5)
   with
  | Executor.Committed _ -> ()
  | Executor.Failed msg -> Alcotest.failf "post-crash transfer failed: %s" msg);
  Cluster.drain cluster;
  Alcotest.(check int) "post-crash debit" 95 (read_int cluster ~node:2 a);
  Alcotest.(check int) "post-crash credit" 105 (read_int cluster ~node:5 b);
  expect_consistent cluster

(* The other half: both shards voted, the decision was applied on shard 0,
   and the coordinator died with shard 1's Applies undelivered.  Presuming
   abort on shard 1 would un-commit a decided cross-shard transaction; its
   lease holders' status rounds — widened to the peers pinned in the
   Commit_req — must find the commit evidence on shard 0 (which retained
   the foreign rows of the full write set) and adopt shard 1's new copy. *)
let test_rescue_from_other_shard () =
  let cluster = sharded_cluster ~seed:19 () in
  let a = Cluster.alloc_object cluster ~init:(Store.Value.Int 100) in
  let b = Cluster.alloc_object cluster ~init:(Store.Value.Int 100) in
  let txn = Ids.fresh_txn (Cluster.ids cluster) in
  let shard0_wq = Cluster.write_quorum_of cluster ~node:0 in
  let shard1_wq = Cluster.write_quorum_of cluster ~node:4 in
  (* Shard 1's prepare round: every quorum member locks b and votes, with
     shard 0's quorum pinned as cross-shard termination peers. *)
  List.iter
    (fun node ->
      match
        Server.handle (Cluster.server_of cluster ~node) ~src:0
          (Messages.Commit_req
             {
               txn;
               dataset =
                 Messages.dataset_of_list [ { Messages.oid = b; version = 0; owner = 0 } ];
               locks = [ b ];
               round = 1;
               peers = shard0_wq;
             })
      with
      | Some (Messages.Votes { commits = [| true |]; _ }) -> ()
      | _ -> Alcotest.failf "shard 1 node %d refused the vote" node)
    shard1_wq;
  Alcotest.(check bool) "shard 1 holds the locks" true
    (Cluster.held_leases cluster <> []);
  (* The decision lands on shard 0 only (full write set: a's row installs,
     b's row is retained as evidence); shard 1's Applies die with the
     coordinator. *)
  let writes =
    Messages.writes_of_list [ (a, 1, Store.Value.Int 90); (b, 1, Store.Value.Int 110) ]
  in
  List.iter
    (fun node ->
      ignore
        (Server.handle (Cluster.server_of cluster ~node) ~src:0
           (Messages.Apply { txn; writes; reads = [||] })))
    shard0_wq;
  (match Cluster.oracle cluster with
  | Some oracle ->
    Core.Oracle.note_commit oracle ~txn ~decision:(Cluster.now cluster)
      ~window_start:(Cluster.now cluster)
      ~reads:[ (a, 0); (b, 0) ]
      ~writes:[ (a, 1); (b, 1) ]
  | None -> ());
  Cluster.drain cluster;
  let metrics = Cluster.metrics cluster in
  Alcotest.(check bool) "shard 1 rescued the decision" true
    (Metrics.status_rescued_commits metrics >= 1);
  Alcotest.(check int) "nothing presumed aborted" 0 (Metrics.presumed_aborts metrics);
  Alcotest.(check bool) "all leases released" true (Cluster.held_leases cluster = []);
  List.iter
    (fun node ->
      let copy = Store.Replica.get (Cluster.store_of cluster ~node) b in
      Alcotest.(check int)
        (Printf.sprintf "shard 1 node %d adopted the committed version" node)
        1 copy.Store.Replica.version)
    shard1_wq;
  Alcotest.(check int) "debit visible" 90 (read_int cluster ~node:1 a);
  Alcotest.(check int) "credit visible" 110 (read_int cluster ~node:4 b);
  expect_consistent cluster

(* {2 Scenario validation} *)

let shard_layout = [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7; 8 ] ]

let validate_sharded events =
  Harness.Scenario.validate ~shards:3 ~shard_members:shard_layout ~nodes:9 events

let expect_invalid ~why events =
  match validate_sharded events with
  | Ok () -> Alcotest.failf "expected validation failure (%s)" why
  | Error _ -> ()

let test_validate_rejects_bad_shard_ops () =
  expect_invalid ~why:"move to nonexistent shard"
    [ Harness.Scenario.ShardMove { oid = 4; to_shard = 3; at = 100. } ];
  expect_invalid ~why:"split below two quorum-viable halves"
    [ Harness.Scenario.ShardSplit { shard = 1; at = 100. } ];
  expect_invalid ~why:"split of nonexistent shard"
    [ Harness.Scenario.ShardSplit { shard = 7; at = 100. } ];
  expect_invalid ~why:"leave below a shard's quorum-viable minimum"
    [ Harness.Scenario.Leave { node = 1; at = 100. } ];
  expect_invalid ~why:"killing a shard's last live member"
    [
      Harness.Scenario.Crash { node = 3; at = 10. };
      Harness.Scenario.Crash { node = 4; at = 20. };
      Harness.Scenario.Crash { node = 5; at = 30. };
    ];
  (* Sane ops pass, including a move whose target only exists after a
     split of a 6-member shard. *)
  (match
     Harness.Scenario.validate ~shards:2
       ~shard_members:[ [ 0; 1; 2; 3; 4; 5 ]; [ 6; 7; 8 ] ]
       ~nodes:9
       [
         Harness.Scenario.ShardSplit { shard = 0; at = 50. };
         Harness.Scenario.ShardMove { oid = 9; to_shard = 2; at = 100. };
       ]
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid split+move rejected: %s" msg);
  (* Two of a 3-member shard may die — the kill-gate only rejects the
     last one. *)
  match
    validate_sharded
      [
        Harness.Scenario.Crash { node = 3; at = 10. };
        Harness.Scenario.Crash { node = 4; at = 20. };
      ]
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "two-of-three kill rejected: %s" msg

let test_shard_ops_parse_roundtrip () =
  let spec = "shardmove 5 2 @100; shardsplit 1 @200" in
  let events =
    match Harness.Scenario.parse spec with
    | Ok events -> events
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  (match events with
  | [
   Harness.Scenario.ShardMove { oid = 5; to_shard = 2; at = 100. };
   Harness.Scenario.ShardSplit { shard = 1; at = 200. };
  ] ->
    ()
  | _ -> Alcotest.fail "unexpected parse");
  let rendered =
    String.concat "; "
      (List.map
         (fun e -> Format.asprintf "%a" Harness.Scenario.pp_event e)
         events)
  in
  match Harness.Scenario.parse rendered with
  | Ok reparsed -> Alcotest.(check bool) "round-trip" true (reparsed = events)
  | Error msg -> Alcotest.failf "reparse failed: %s" msg

(* {2 Shard chaos} *)

let shard_knobs =
  {
    Harness.Chaos.default_knobs with
    shards = 3;
    shard_ops = 2;
    cross_shard_prob = 0.3;
  }

(* Same seed, same knobs, run twice: byte-identical result (schedule,
   counters, quiescence time), exercising moves/splits and cross-shard
   traffic under chaos. *)
let test_shard_chaos_deterministic () =
  let one () = Harness.Chaos.run_one shard_knobs ~seed:5 in
  let r1 = one () and r2 = one () in
  Alcotest.(check string) "byte-identical verdict"
    (Harness.Chaos.result_to_json r1)
    (Harness.Chaos.result_to_json r2);
  Alcotest.(check bool) "seed 5 passes" true (Harness.Chaos.passed r1);
  Alcotest.(check bool) "cross-shard traffic exercised" true
    (r1.Harness.Chaos.xshard_commits > 0)

let test_shard_chaos_seeds_pass () =
  List.iter
    (fun seed ->
      let r = Harness.Chaos.run_one shard_knobs ~seed in
      if not (Harness.Chaos.passed r) then
        Alcotest.failf "shard chaos seed %d failed: %s" seed
          (Format.asprintf "%a" Harness.Chaos.pp_result r))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "single cross-shard commit" `Quick test_single_cross_shard_commit;
    Alcotest.test_case "same-shard fast path" `Quick test_same_shard_fast_path;
    Alcotest.test_case "cross-shard read-only snapshot" `Quick
      test_cross_shard_read_only_snapshot;
    Alcotest.test_case "conflict aborts atomically" `Quick
      test_cross_shard_conflict_aborts_atomically;
    Alcotest.test_case "coordinator crash presumes abort" `Quick
      test_coordinator_crash_before_second_prepare;
    Alcotest.test_case "rescue evidence crosses shards" `Quick
      test_rescue_from_other_shard;
    Alcotest.test_case "validate rejects bad shard ops" `Quick
      test_validate_rejects_bad_shard_ops;
    Alcotest.test_case "shard op parse round-trip" `Quick test_shard_ops_parse_roundtrip;
    Alcotest.test_case "shard chaos deterministic" `Quick test_shard_chaos_deterministic;
    Alcotest.test_case "shard chaos seeds pass" `Quick test_shard_chaos_seeds_pass;
  ]
