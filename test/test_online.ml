(* Online (streaming) protocol checker: equivalence with the offline
   checker across chaos seeds, immunity to ring truncation, and bounded
   memory.  Plus the open-loop driver's basic contract. *)

let violation =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Obs.Online.pp_violation v))
    (fun a b -> a = b)

(* Run one chaos seed with a big ring (no truncation) and a streaming
   checker attached as the tracer's sink; return both verdicts. *)
let both_verdicts ?(spec = Harness.Chaos.default_spec) ?rolling knobs ~seed =
  let tracer = Obs.Tracer.create () in
  let online = Obs.Online.create () in
  Obs.Online.attach online tracer;
  let result = Harness.Chaos.run_one ?rolling ~clients:18 knobs { spec with seed; tracer } in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: untruncated trace" seed)
    0
    (Obs.Tracer.dropped tracer);
  let online_v = Obs.Online.finish online in
  let offline_v = Obs.Online.replay (Obs.Tracer.events tracer) in
  (result, online, online_v, offline_v)

let check_seeds ?spec ?rolling knobs seeds =
  List.iter
    (fun seed ->
      let _, _, online_v, offline_v = both_verdicts ?spec ?rolling knobs ~seed in
      Alcotest.(check (list violation))
        (Printf.sprintf "seed %d: online verdict = offline verdict" seed)
        offline_v online_v;
      Alcotest.(check (list violation))
        (Printf.sprintf "seed %d: healthy chaos run is clean" seed)
        [] online_v)
    seeds

(* 20+ seeds across schedule families (classic faults, membership churn,
   rolling restart, batch commit, sharded): the streaming checker must
   agree with the offline replay on every one. *)

let test_equivalence_classic () =
  check_seeds Harness.Chaos.default_knobs [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_equivalence_churn () =
  check_seeds
    ~spec:{ Harness.Chaos.default_spec with spares = 2 }
    { Harness.Chaos.default_knobs with reconfigs = 2 }
    [ 11; 12; 13; 14 ]

let test_equivalence_rolling () =
  check_seeds ~rolling:true
    ~spec:{ Harness.Chaos.default_spec with spares = 2 }
    Harness.Chaos.rolling_knobs [ 21; 22 ]

let test_equivalence_batch () =
  check_seeds
    ~spec:{ Harness.Chaos.default_spec with batch_commit = true }
    Harness.Chaos.default_knobs [ 31; 32; 33 ]

let test_equivalence_shard () =
  let spec = Harness.Chaos.default_spec in
  check_seeds
    ~spec:{ spec with shards = 2; params = { spec.params with cross_shard_prob = 0.3 } }
    { Harness.Chaos.default_knobs with shard_ops = 2 }
    [ 41; 42; 43 ]

(* The sink sees every emission before ring eviction: a checker attached
   to a tiny ring reaches the same verdict as one attached to an
   unbounded ring, even though the offline replay of the tiny ring is
   truncated (and would be reported inconclusive). *)
let test_truncation_immunity () =
  let seed = 7 in
  let knobs = Harness.Chaos.default_knobs in
  let _, _, online_full, _ = both_verdicts knobs ~seed in
  let tiny = Obs.Tracer.create ~capacity:256 () in
  let online = Obs.Online.create () in
  Obs.Online.attach online tiny;
  let _ =
    Harness.Chaos.run_one ~clients:18 knobs
      { Harness.Chaos.default_spec with seed; tracer = tiny }
  in
  Alcotest.(check bool) "tiny ring truncated" true (Obs.Tracer.dropped tiny > 0);
  Alcotest.(check bool) "sink saw more than the ring holds" true
    (Obs.Online.events_seen online > Obs.Tracer.length tiny);
  Alcotest.(check (list violation)) "verdict unaffected by ring size"
    online_full (Obs.Online.finish online)

(* Checker memory is O(in-flight transactions): per-txn rule state
   retires at txn.end, so the high-water mark tracks the client count,
   not the trace length, and a drained run leaves (almost) nothing. *)
let test_bounded_memory () =
  let knobs = Harness.Chaos.default_knobs in
  let _, online, _, _ = both_verdicts knobs ~seed:3 in
  let tracer = Obs.Tracer.create () in
  let distinct = Hashtbl.create 1024 in
  let spec = { Harness.Chaos.default_spec with seed = 3; tracer } in
  ignore (Harness.Chaos.run_one ~clients:18 knobs spec);
  Obs.Tracer.iter tracer (fun e ->
      if e.Obs.Tracer.txn >= 0 then Hashtbl.replace distinct e.txn ());
  let txns = Hashtbl.length distinct in
  let peak = Obs.Online.peak_tracked online in
  Alcotest.(check bool)
    (Printf.sprintf "trace exercises many txns (%d)" txns)
    true (txns > 200);
  Alcotest.(check bool)
    (Printf.sprintf "peak tracked (%d) bounded by in-flight, not trace (%d)"
       peak txns)
    true
    (peak <= (4 * 18) + spec.nodes);
  Alcotest.(check bool)
    (Printf.sprintf "retired state freed (still tracking %d)"
       (Obs.Online.tracked_txns online))
    true
    (Obs.Online.tracked_txns online <= 2)

(* fail_fast raises from inside the emission path at the first violation,
   after on_violation fires. *)
let test_fail_fast () =
  let seen = ref [] in
  let ck =
    Obs.Online.create ~fail_fast:true
      ~on_violation:(fun v -> seen := v :: !seen)
      ()
  in
  let feed kind ~txn ~a ~b =
    Obs.Online.feed8 ck ~time:1. ~kind ~node:0 ~txn ~oid:(-1) ~a ~b ~x:0.
  in
  feed Obs.Sem.lease_grant ~txn:7 ~a:42 ~b:(-1);
  (match feed Obs.Sem.lease_grant ~txn:8 ~a:42 ~b:(-1) with
  | () -> Alcotest.fail "expected Violation"
  | exception Obs.Online.Violation v ->
    Alcotest.(check string) "rule" "lease-overlap" v.Obs.Online.rule);
  Alcotest.(check int) "on_violation fired once" 1 (List.length !seen)

(* {2 The checker's tables} *)

let checker () = Obs.Online.create ()

let feed ck ?(time = 1.) ?(node = 0) ?(txn = -1) ?(oid = -1) ?(a = -1) ?(b = -1) ?(x = 0.) kind =
  Obs.Online.feed8 ck ~time ~kind ~node ~txn ~oid ~a ~b ~x

let rules_of ck = List.map (fun v -> v.Obs.Online.rule) (Obs.Online.finish ck)

(* Lease owners are indexed by replica and oid, so a grant on a replica or
   an oid past the tables' first growth, or outside the indexed range
   altogether, must be tracked like any other. *)
let test_lease_table_growth () =
  let ck = checker () in
  let grant ~node ~oid txn = feed ck ~node ~oid ~txn Obs.Sem.lease_grant in
  List.iter
    (fun (node, oid) ->
      grant ~node ~oid 1;
      grant ~node ~oid 1 (* the holder re-granted: no overlap *);
      grant ~node ~oid:(oid + 1) 2 (* another oid: no overlap *);
      grant ~node:(node + 1) ~oid 3 (* another replica: no overlap *))
    [ (0, 0); (40, 5_000); (5_000, 7); (2, -3); (1, 1 lsl 30) ];
  Alcotest.(check int) "no overlap yet" 0 (Obs.Online.n_violations ck);
  grant ~node:40 ~oid:5_000 2;
  grant ~node:5_000 ~oid:7 2;
  grant ~node:2 ~oid:(-3) 2;
  Alcotest.(check (list string)) "each overlap reported"
    [ "lease-overlap"; "lease-overlap"; "lease-overlap" ]
    (rules_of ck)

(* A release frees the lease for the next grant when the owner releases
   it, or when a crash wipes it (txn < 0); a stranger's release does not. *)
let test_lease_release () =
  let ck = checker () in
  let ev kind txn = feed ck ~node:3 ~oid:7 ~txn kind in
  ev Obs.Sem.lease_grant 1;
  ev Obs.Sem.lease_release 1;
  ev Obs.Sem.lease_grant 2 (* re-grant after release *);
  ev Obs.Sem.lease_release (-1) (* crash-wipe *);
  ev Obs.Sem.lease_grant 3;
  Alcotest.(check int) "released leases re-grant cleanly" 0 (Obs.Online.n_violations ck);
  ev Obs.Sem.lease_release 4 (* not the owner: still held by 3 *);
  ev Obs.Sem.lease_grant 5;
  Alcotest.(check (list string)) "a stranger's release frees nothing" [ "lease-overlap" ]
    (rules_of ck)

(* One committed round of [voters] for [txn], on shard [shard]. *)
let commit ck ~txn ?(shard = 0) voters =
  feed ck ~txn ~x:(Float.of_int shard) Obs.Sem.commit_send;
  List.iter (fun v -> feed ck ~txn ~a:v ~b:1 Obs.Sem.vote_recv) voters;
  feed ck ~txn ~b:0 Obs.Sem.txn_commit;
  feed ck ~txn ~a:1 Obs.Sem.txn_end

let view_change ck ~shard ~epoch = feed ck ~a:epoch ~b:3 ~x:(Float.of_int shard) Obs.Sem.view_change

let test_pairwise_quorums () =
  let details ck = List.map (fun v -> v.Obs.Online.detail) (Obs.Online.finish ck) in
  (* Two disjoint voter sets in one (shard, epoch). *)
  let ck = checker () in
  commit ck ~txn:1 [ 0; 1 ];
  commit ck ~txn:2 [ 3; 2 ];
  commit ck ~txn:3 [ 1; 0 ] (* the first set again: logged once *);
  Alcotest.(check (list string)) "disjoint sets in one view"
    [
      "voter set [2;3] does not intersect txn 1's write quorum";
      "voter set [0;1] does not intersect txn 2's write quorum";
    ]
    (details ck);
  (* The same sets split across epochs, or across shards: silent. *)
  let ck = checker () in
  commit ck ~txn:1 [ 0; 1 ];
  view_change ck ~shard:0 ~epoch:1;
  commit ck ~txn:2 [ 2; 3 ];
  commit ck ~txn:3 ~shard:1 [ 4; 5 ];
  Alcotest.(check (list string)) "different views and shards" [] (details ck);
  (* Voters past the mask's range, and a repeated voter, take the list
     path: a repeat makes a distinct set, as it always has. *)
  let ck = checker () in
  commit ck ~txn:1 [ 70; 71 ];
  commit ck ~txn:2 [ 71; 90 ];
  commit ck ~txn:3 [ 1; 1; 2 ];
  commit ck ~txn:4 [ 1; 2 ];
  Alcotest.(check (list string)) "list path"
    [
      "voter set [1;1;2] does not intersect txn 2's write quorum";
      "voter set [1;1;2] does not intersect txn 1's write quorum";
      "voter set [1;2] does not intersect txn 2's write quorum";
      "voter set [1;2] does not intersect txn 1's write quorum";
    ]
    (details ck)

(* A restarted cross-shard commit: round 1 prepares shards 0 and 1, the
   view of shard 0 changes, and round 2 prepares shards 1 and 2 and
   commits.  Only round 2 stands behind the commit.  A trace without the
   round stamp (-1) keeps round 1's shard-0 prepare and round. *)
let test_restarted_commit () =
  let run ~stamp =
    let ck = checker () in
    let prepare ~round shard =
      let oid = if stamp then round else -1 in
      feed ck ~txn:9 ~oid ~a:shard ~b:2 Obs.Sem.xshard_prepare;
      feed ck ~txn:9 ~oid ~x:(Float.of_int shard) Obs.Sem.commit_send;
      List.iter (fun v -> feed ck ~txn:9 ~a:((3 * shard) + v) ~b:1 Obs.Sem.vote_recv) [ 0; 1 ]
    in
    prepare ~round:1 0;
    prepare ~round:1 1;
    view_change ck ~shard:0 ~epoch:1;
    prepare ~round:2 1;
    prepare ~round:2 2;
    feed ck ~txn:9 ~a:1 ~b:2 Obs.Sem.xshard_decide;
    feed ck ~txn:9 ~b:0 Obs.Sem.txn_commit;
    rules_of ck
  in
  Alcotest.(check (list string)) "stamped rounds: clean" [] (run ~stamp:true);
  Alcotest.(check (list string)) "unstamped rounds: the old round counts"
    [ "cross-shard-atomicity"; "epoch-fencing" ]
    (run ~stamp:false)

(* The cost gate: on a fixed fault run, what the checker allocates per
   event it is fed.  Counted inside [feed8] calls only, so the run's own
   allocation does not enter; the figure is deterministic. *)
let test_feed_allocation_budget () =
  let tracer = Obs.Tracer.create ~capacity:1024 () in
  let online = Obs.Online.create () in
  let words = Float.Array.make 1 0. in
  Obs.Tracer.set_sink tracer (fun ~time ~kind ~node ~txn ~oid ~a ~b ~x ->
      let before = Gc.minor_words () in
      Obs.Online.feed8 online ~time ~kind ~node ~txn ~oid ~a ~b ~x;
      Float.Array.set words 0 (Float.Array.get words 0 +. (Gc.minor_words () -. before)));
  let knobs = Harness.Chaos.default_knobs in
  let spec = { Harness.Chaos.default_spec with seed = 3; tracer } in
  ignore (Harness.Chaos.run_one ~clients:18 knobs spec);
  let events = Obs.Online.events_seen online in
  let per_event = Float.Array.get words 0 /. Float.of_int events in
  Alcotest.(check bool) (Printf.sprintf "fed many events (%d)" events) true (events > 20_000);
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per fed event within the 0.25 budget" per_event)
    true (per_event <= 0.25)

(* {2 Open-loop load} *)

let open_loop ?(rate = 200.) ?(population = 1_000_000) ?(duration = 5_000.) ()
    =
  Harness.Experiment.run ~warmup:500. ~duration
    ~load:(Open { rate; population; max_per_node = 4 })
    (Harness.Experiment.spec ~nodes:5 ~seed:19
       ~config:(Core.Config.default Core.Config.Closed)
       ~benchmark:Benchmarks.Counter.benchmark
       ~params:
         {
           Benchmarks.Workload.default_params with
           objects = 512;
           calls = 1;
           read_ratio = 0.5;
         }
       ())

let stats (r : Harness.Experiment.result) = Option.get r.open_loop

let test_open_loop_underload () =
  let r = open_loop () in
  let o = stats r in
  Alcotest.(check bool) "invariant holds" true (r.invariant = Ok ());
  Alcotest.(check bool) "oracle holds" true (r.consistent = Ok ());
  Alcotest.(check bool) "million-client population" true
    (o.population = 1_000_000);
  Alcotest.(check bool)
    (Printf.sprintf "achieved (%.1f/s) tracks offered (%.1f/s)"
       o.achieved_load o.offered_load)
    true
    (o.achieved_load > 0.8 *. o.offered_load
    && o.achieved_load < 1.2 *. o.offered_load);
  Alcotest.(check bool)
    (Printf.sprintf "underloaded queueing is small (p99=%.2fms)" o.queue_p99)
    true
    (o.queue_p99 < o.service_p99 *. 10.);
  Alcotest.(check bool) "percentiles ordered" true
    (o.service_p50 <= o.service_p95 && o.service_p95 <= o.service_p99);
  (* A transient handful can be queued at the window-close instant; a
     saturated run would close with hundreds. *)
  Alcotest.(check bool)
    (Printf.sprintf "no saturated backlog (final=%d)" o.final_backlog)
    true (o.final_backlog < 50)

let test_open_loop_deterministic () =
  let r1 = open_loop ~duration:2_000. () in
  let r2 = open_loop ~duration:2_000. () in
  Alcotest.(check bool) "same seed, same result" true (r1 = r2)

(* Saturation: offered load far beyond capacity.  Queueing delay blows
   past service latency while service latency itself stays bounded —
   the separation that closed-loop drivers cannot show. *)
let test_open_loop_saturation () =
  let o = stats (open_loop ~rate:5_000. ~duration:2_000. ()) in
  Alcotest.(check bool)
    (Printf.sprintf "achieved (%.1f/s) saturates below offered (%.1f/s)"
       o.achieved_load o.offered_load)
    true
    (o.achieved_load < 0.8 *. o.offered_load);
  Alcotest.(check bool)
    (Printf.sprintf "queueing (p50=%.1fms) dominates service (p99=%.2fms)"
       o.queue_p50 o.service_p99)
    true
    (o.queue_p50 > o.service_p99);
  Alcotest.(check bool) "backlog at close" true (o.final_backlog > 0)

(* A 3-member shard that loses a member for good livelocks (ROADMAP item
   1, family 3).  Under open load the shared watchdog reports it and the
   run returns, rather than draining forever. *)
let test_open_loop_stall () =
  let r =
    Harness.Experiment.run ~warmup:0. ~duration:2_000.
      ~load:(Open { rate = 200.; population = 1_000_000; max_per_node = 4 })
      ~events:[ Harness.Scenario.Crash { node = 1; at = 500. } ]
      (Harness.Experiment.spec ~nodes:9 ~shards:3 ~seed:1
         ~config:(Core.Config.default Core.Config.Closed)
         ~benchmark:Benchmarks.Bank.benchmark
         ~params:Benchmarks.Workload.default_params ())
  in
  Alcotest.(check bool) "stalls reported" true (r.stalls <> []);
  Alcotest.(check bool) "run does not pass" false (Harness.Experiment.passed r)

let suite =
  [
    Alcotest.test_case "equivalence: classic chaos" `Slow
      test_equivalence_classic;
    Alcotest.test_case "equivalence: membership churn" `Slow
      test_equivalence_churn;
    Alcotest.test_case "equivalence: rolling restart" `Slow
      test_equivalence_rolling;
    Alcotest.test_case "equivalence: batch commit" `Slow test_equivalence_batch;
    Alcotest.test_case "equivalence: sharded" `Slow test_equivalence_shard;
    Alcotest.test_case "truncation immunity" `Slow test_truncation_immunity;
    Alcotest.test_case "bounded memory" `Slow test_bounded_memory;
    Alcotest.test_case "fail fast" `Quick test_fail_fast;
    Alcotest.test_case "lease table growth" `Quick test_lease_table_growth;
    Alcotest.test_case "lease release" `Quick test_lease_release;
    Alcotest.test_case "pairwise quorum log" `Quick test_pairwise_quorums;
    Alcotest.test_case "restarted commit" `Quick test_restarted_commit;
    Alcotest.test_case "feed allocation budget" `Slow test_feed_allocation_budget;
    Alcotest.test_case "open loop: underload" `Slow test_open_loop_underload;
    Alcotest.test_case "open loop: deterministic" `Slow
      test_open_loop_deterministic;
    Alcotest.test_case "open loop: saturation" `Slow test_open_loop_saturation;
    Alcotest.test_case "open loop: stall under crash" `Slow test_open_loop_stall;
  ]
