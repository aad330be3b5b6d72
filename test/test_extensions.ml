(* Extension features: open nesting (early global commit + compensation on
   root abort) and programmer-placed checkpoints. *)

open Core

let bump_everywhere cluster ~at ~oid ~version =
  Sim.Engine.schedule_at (Cluster.engine cluster) ~time:at (fun () ->
      for node = 0 to Cluster.nodes cluster - 1 do
        Store.Replica.apply
          (Cluster.store_of cluster ~node)
          ~oid ~version ~value:(Store.Value.Int 777) ~txn:888_888
      done)

let read_back cluster oid =
  match Cluster.run_program cluster ~node:0 (fun () -> Txn.read oid) with
  | Executor.Committed v -> Store.Value.to_int v
  | Executor.Failed msg -> Alcotest.failf "read back failed: %s" msg

let increment oid = Benchmarks.Counter.increment oid

let decrement oid _result =
  Txn.bind (Txn.read oid) (fun v ->
      Txn.write oid (Store.Value.Int (Store.Value.to_int v - 1)))

(* The open-nested commit must be globally visible while the parent is
   still running. *)
let test_open_commit_visible_early () =
  let cluster =
    Cluster.create ~nodes:13 ~seed:31 ~with_oracle:false (Config.default Config.Closed)
  in
  let a = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  let slow = List.init 6 (fun _ -> Cluster.alloc_object cluster ~init:Store.Value.Unit) in
  let program () =
    Txn.bind
      (Txn.open_nested ~body:(fun () -> increment a) ~compensate:(decrement a))
      (fun _ -> Benchmarks.Workload.seq (List.map Txn.read slow))
  in
  let parent_done = ref false in
  Cluster.submit cluster ~node:5 program ~on_done:(fun _ -> parent_done := true);
  (* Give the open sub-transaction time to commit; the parent is still
     ploughing through its slow reads. *)
  Cluster.run_for cluster 250.;
  Alcotest.(check bool) "parent still running" false !parent_done;
  Alcotest.(check int) "open commit already visible" 1 (read_back cluster a);
  Cluster.drain cluster;
  Alcotest.(check bool) "parent finished" true !parent_done;
  Alcotest.(check int) "one open commit" 1 (Metrics.open_commits (Cluster.metrics cluster))

(* When the root aborts, the registered compensation must undo the open
   commit before the retry re-executes it. *)
let test_compensation_on_root_abort () =
  let cluster =
    Cluster.create ~nodes:13 ~seed:32 ~with_oracle:false (Config.default Config.Closed)
  in
  let a = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  let slow = List.init 6 (fun _ -> Cluster.alloc_object cluster ~init:Store.Value.Unit) in
  let program () =
    Txn.bind
      (Txn.open_nested ~body:(fun () -> increment a) ~compensate:(decrement a))
      (fun _ -> Benchmarks.Workload.seq (List.map Txn.read slow))
  in
  (* Invalidate one of the parent's reads mid-flight: the root aborts, the
     compensation runs, and the retry increments [a] again. *)
  bump_everywhere cluster ~at:250. ~oid:(List.nth slow 1) ~version:1;
  let outcome = ref None in
  Cluster.submit cluster ~node:5 program ~on_done:(fun o -> outcome := Some o);
  Cluster.drain cluster;
  begin
    match !outcome with
    | Some (Executor.Committed _) -> ()
    | Some (Executor.Failed msg) -> Alcotest.failf "failed: %s" msg
    | None -> Alcotest.fail "never finished"
  end;
  let metrics = Cluster.metrics cluster in
  Alcotest.(check bool) "root aborted at least once" true (Metrics.root_aborts metrics >= 1);
  Alcotest.(check bool) "compensation ran" true (Metrics.compensations metrics >= 1);
  Alcotest.(check bool) "open committed more than once" true
    (Metrics.open_commits metrics >= 2);
  (* Net effect of commit-compensate-recommit is exactly one increment. *)
  Alcotest.(check int) "net one increment" 1 (read_back cluster a)

(* Open bodies that conflict retry independently without disturbing the
   parent; concurrent open increments must not lose updates. *)
let test_open_nested_concurrent () =
  let cluster = Cluster.create ~nodes:13 ~seed:33 (Config.default Config.Closed) in
  let a = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  let finished = ref 0 in
  let program () =
    Txn.bind
      (Txn.open_nested ~body:(fun () -> increment a) ~compensate:(decrement a))
      (fun _ -> Txn.return Store.Value.Unit)
  in
  for c = 0 to 9 do
    Cluster.submit cluster ~node:(c mod 13) program ~on_done:(fun _ -> incr finished)
  done;
  Cluster.drain cluster;
  Alcotest.(check int) "all parents finished" 10 !finished;
  Alcotest.(check int) "no lost updates" 10 (read_back cluster a);
  match Cluster.check_consistency cluster with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "oracle: %s" msg

(* Manual checkpoints create snapshots under QR-CHK and are no-ops
   elsewhere. *)
let test_manual_checkpoint () =
  let count_checkpoints mode =
    let cluster =
      Cluster.create ~nodes:13 ~seed:34 ~with_oracle:false
        (Config.make ~checkpoint_threshold:1000 mode)
    in
    let oids = List.init 4 (fun _ -> Cluster.alloc_object cluster ~init:Store.Value.Unit) in
    let program () =
      Benchmarks.Workload.seq
        (List.concat_map (fun oid -> [ Txn.read oid; Txn.checkpoint () ]) oids)
    in
    begin
      match Cluster.run_program cluster ~node:2 program with
      | Executor.Committed _ -> ()
      | Executor.Failed msg -> Alcotest.failf "txn failed: %s" msg
    end;
    Metrics.checkpoints (Cluster.metrics cluster)
  in
  (* Threshold 1000 disables automatic checkpoints, isolating the manual ones. *)
  Alcotest.(check int) "chk mode takes manual checkpoints" 4
    (count_checkpoints Config.Checkpoint);
  Alcotest.(check int) "flat ignores checkpoints" 0 (count_checkpoints Config.Flat);
  Alcotest.(check int) "closed ignores checkpoints" 0 (count_checkpoints Config.Closed)

(* A conflict after a manual checkpoint rolls back to it rather than
   restarting. *)
let test_manual_checkpoint_rollback () =
  let cluster =
    Cluster.create ~nodes:13 ~seed:35 ~with_oracle:false
      (Config.make ~checkpoint_threshold:1000 Config.Checkpoint)
  in
  let before = List.init 3 (fun _ -> Cluster.alloc_object cluster ~init:Store.Value.Unit) in
  let after = List.init 3 (fun _ -> Cluster.alloc_object cluster ~init:Store.Value.Unit) in
  let program () =
    Txn.bind
      (Benchmarks.Workload.seq (List.map Txn.read before))
      (fun _ ->
        Txn.bind (Txn.checkpoint ()) (fun _ ->
            Benchmarks.Workload.seq (List.map Txn.read after)))
  in
  (* Invalidate an object read *after* the checkpoint, mid-flight. *)
  bump_everywhere cluster ~at:190. ~oid:(List.hd after) ~version:1;
  let outcome = ref None in
  Cluster.submit cluster ~node:4 program ~on_done:(fun o -> outcome := Some o);
  Cluster.drain cluster;
  begin
    match !outcome with
    | Some (Executor.Committed _) -> ()
    | Some (Executor.Failed msg) -> Alcotest.failf "failed: %s" msg
    | None -> Alcotest.fail "never finished"
  end;
  let metrics = Cluster.metrics cluster in
  Alcotest.(check bool) "partial rollback, not restart" true
    (Metrics.partial_aborts metrics >= 1);
  Alcotest.(check int) "no root abort" 0 (Metrics.root_aborts metrics)

(* Every root makes [k] open calls, each its own committed root in the
   executor.  The result counts client roots only: warm-up is 0, so the
   roots generated bound the window's commits from above, and the roots
   still in flight at its close from below. *)
let test_open_calls_count_one_commit_per_root () =
  let k = 3 and clients = 4 and generated = ref 0 in
  let setup cluster (params : Benchmarks.Workload.params) =
    let oids =
      Array.init params.objects (fun _ -> Cluster.alloc_object cluster ~init:(Store.Value.Int 0))
    in
    let generate rng =
      incr generated;
      let calls =
        List.init k (fun _ ->
            let oid = oids.(Util.Rng.int rng params.objects) in
            Txn.open_nested ~body:(fun () -> increment oid) ~compensate:(decrement oid))
      in
      fun () -> Benchmarks.Workload.seq calls
    in
    { Benchmarks.Workload.generate; check = (fun () -> Ok ()) }
  in
  let r =
    Harness.Experiment.run ~load:(Closed { clients; client_nodes = None }) ~warmup:0.
      ~duration:2_000.
      (Harness.Experiment.spec ~seed:3 ~config:(Config.default Config.Closed)
         ~benchmark:{ Benchmarks.Workload.name = "open-calls"; min_objects = 1; setup }
         ~params:{ Benchmarks.Workload.default_params with objects = 64 }
         ())
  in
  if r.commits > !generated || r.commits < !generated - clients then
    Alcotest.failf "%d commits for %d client roots" r.commits !generated;
  Alcotest.(check bool) "roots committed" true (r.commits > 0)

let suite =
  [
    Alcotest.test_case "open calls count one commit per root" `Quick
      test_open_calls_count_one_commit_per_root;
    Alcotest.test_case "open commit visible before parent commits" `Quick
      test_open_commit_visible_early;
    Alcotest.test_case "compensation runs on root abort" `Quick
      test_compensation_on_root_abort;
    Alcotest.test_case "concurrent open increments" `Quick test_open_nested_concurrent;
    Alcotest.test_case "manual checkpoints per mode" `Quick test_manual_checkpoint;
    Alcotest.test_case "manual checkpoint rollback" `Quick test_manual_checkpoint_rollback;
  ]
