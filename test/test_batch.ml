(* Queue-oriented speculative batch commit (PROTOCOL.md §9).

   The batch path shares every safety oracle with the sequential protocol
   (1-copy serializability, bank conservation, the trace checker), plus a
   rule of its own: within a batch, decisions respect queue order, and a
   speculative transaction never commits over an aborted predecessor. *)

open Core

let contended_params =
  (* few hot accounts, write-heavy: commit queues actually fill *)
  { Benchmarks.Workload.default_params with objects = 4; calls = 2; read_ratio = 0.1; key_skew = 0.5 }

let rules violations =
  List.sort_uniq String.compare
    (List.map (fun v -> v.Obs.Online.rule) violations)

(* Contended bank under batch commit: commits flow, batches carry more
   than one transaction, both safety oracles hold, and the traced run
   passes every checker rule — batch-order included. *)
let test_batch_bank_smoke () =
  let tracer = Obs.Tracer.create ~capacity:(1 lsl 18) () in
  let r =
    Harness.Experiment.run ~clients:24 ~warmup:500. ~duration:3_000.
      (Harness.Experiment.spec ~nodes:9 ~seed:71 ~tracer ~batch_commit:true
         ~config:(Config.default Config.Flat)
         ~benchmark:Benchmarks.Bank.benchmark ~params:contended_params ())
  in
  Alcotest.(check bool) "commits" true (r.Harness.Experiment.commits > 0);
  Alcotest.(check bool) "batch rounds sent" true (r.Harness.Experiment.batches > 0);
  Alcotest.(check bool) "batches amortize (p95 occupancy > 1)" true
    (r.Harness.Experiment.batch_occupancy_p95 > 1.);
  (match r.Harness.Experiment.invariant with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "bank invariant: %s" msg);
  (match r.Harness.Experiment.consistent with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "oracle: %s" msg);
  Alcotest.(check int) "trace did not overflow" 0 (Obs.Tracer.dropped tracer);
  Alcotest.(check (list string)) "checker rules all pass" []
    (rules (Obs.Online.replay (Obs.Tracer.events tracer)))

(* Speculation aborts on order violation: A enqueues a write of X and B
   speculatively reads A's image; A's validation is then invalidated
   (every replica's copy of X is bumped past A's base), so the batch
   round aborts A — and B, whose read was of state that never committed,
   must speculation-abort rather than commit. *)
let test_speculation_abort_on_failed_predecessor () =
  let config =
    Config.make ~max_attempts:1 ~batch_size:64 ~batch_delay:500. Config.Flat
  in
  let cluster = Cluster.create ~nodes:5 ~seed:23 ~batch_commit:true config in
  let x = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  let y = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  let outcomes = ref [] in
  let record label outcome = outcomes := (label, outcome) :: !outcomes in
  Cluster.submit cluster ~node:1
    (fun () -> Benchmarks.Counter.increment x)
    ~on_done:(record "A");
  (* let A reach its commit point and publish its write image *)
  Cluster.run_for cluster 150.;
  Cluster.submit cluster ~node:2
    (fun () -> Txn.bind (Txn.read x) (fun v -> Txn.write y v))
    ~on_done:(record "B");
  Cluster.run_for cluster 150.;
  let metrics = Cluster.metrics cluster in
  Alcotest.(check bool) "B read speculatively" true
    (Metrics.speculative_reads metrics >= 1);
  (* invalidate A before the batch cuts: every replica's copy of X jumps
     past A's base version, so the round votes A stale *)
  for node = 0 to 4 do
    Store.Replica.sync_copy
      (Cluster.store_of cluster ~node)
      ~oid:x ~version:10 ~value:(Store.Value.Int 999)
  done;
  Cluster.drain cluster;
  Alcotest.(check bool) "speculation abort counted" true
    (Metrics.speculation_aborts metrics >= 1);
  List.iter
    (fun (label, outcome) ->
      match outcome with
      | Executor.Failed _ -> ()
      | Executor.Committed v ->
        Alcotest.failf "%s committed %s over an invalidated base" label
          (Store.Value.to_string v))
    !outcomes

(* A membership change mid-batch: the uncut tail is requeued under the new
   epoch, never decided by the stale round.  A counter under continuous
   batch-mode increments across a join must lose no update. *)
let test_mid_batch_epoch_bump () =
  let config = Config.make ~batch_size:4 ~batch_delay:2. Config.Flat in
  let cluster =
    Cluster.create ~nodes:7 ~spares:1 ~seed:31 ~batch_commit:true config
  in
  let counter = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  let committed = ref 0 in
  let rec client node remaining =
    if remaining > 0 then
      Cluster.submit cluster ~node
        (fun () -> Benchmarks.Counter.increment counter)
        ~on_done:(fun outcome ->
          match outcome with
          | Executor.Committed _ ->
            incr committed;
            client node (remaining - 1)
          | Executor.Failed msg -> Alcotest.failf "client failed: %s" msg)
  in
  List.iter (fun node -> client node 8) [ 0; 1; 2; 3; 4; 5 ];
  (* the join wedges admission and bumps the epoch while batches are in
     flight; in-flight rounds must walk away and requeue, not decide *)
  Cluster.view_change_at cluster ~at:40. (Join { node = 7; shard = 0 });
  Cluster.drain cluster;
  Alcotest.(check int) "all increments committed" 48 !committed;
  Alcotest.(check bool) "epoch bumped" true (Cluster.epoch cluster > 0);
  (match
     Cluster.run_program cluster ~node:2 (fun () -> Txn.read counter)
   with
  | Executor.Committed (Store.Value.Int 48) -> ()
  | Executor.Committed v ->
    Alcotest.failf "lost updates: %s" (Store.Value.to_string v)
  | Executor.Failed msg -> Alcotest.failf "final read failed: %s" msg);
  match Cluster.check_consistency cluster with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "oracle: %s" msg

(* Batch mode under the chaos harness: same verdict machinery as the
   sequential protocol (1-copy oracle, bank invariant, stall watchdog). *)
let test_batch_chaos () =
  let knobs = { Harness.Chaos.default_knobs with horizon = 3_000.; max_crashes = 1 } in
  List.iter
    (fun seed ->
      let spec = { Harness.Chaos.default_spec with nodes = 7; seed; batch_commit = true } in
      let r = Harness.Chaos.run_one ~clients:8 knobs spec in
      if not (Harness.Chaos.passed r) then
        Alcotest.failf "batch chaos seed %d failed:@.%a" seed
          Harness.Chaos.pp_result r)
    [ 301; 302; 303 ]

let suite =
  [
    Alcotest.test_case "contended bank smoke" `Quick test_batch_bank_smoke;
    Alcotest.test_case "speculation abort on failed predecessor" `Quick
      test_speculation_abort_on_failed_predecessor;
    Alcotest.test_case "mid-batch epoch bump loses nothing" `Quick
      test_mid_batch_epoch_bump;
    Alcotest.test_case "chaos verdicts under batch mode" `Quick test_batch_chaos;
  ]
