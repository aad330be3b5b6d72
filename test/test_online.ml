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

(* {2 Open-loop driver} *)

let open_loop ?(rate = 200.) ?(population = 1_000_000) ?(duration = 5_000.) ()
    =
  Harness.Openloop.run ~warmup:500. ~duration ~rate ~population
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

let test_open_loop_underload () =
  let r = open_loop () in
  Alcotest.(check bool) "invariant holds" true (r.Harness.Openloop.invariant = Ok ());
  Alcotest.(check bool) "oracle holds" true (r.consistent = Ok ());
  Alcotest.(check bool) "million-client population" true
    (r.population = 1_000_000);
  Alcotest.(check bool)
    (Printf.sprintf "achieved (%.1f/s) tracks offered (%.1f/s)"
       r.achieved_load r.offered_load)
    true
    (r.achieved_load > 0.8 *. r.offered_load
    && r.achieved_load < 1.2 *. r.offered_load);
  Alcotest.(check bool)
    (Printf.sprintf "underloaded queueing is small (p99=%.2fms)" r.queue_p99)
    true
    (r.queue_p99 < r.service_p99 *. 10.);
  Alcotest.(check bool) "percentiles ordered" true
    (r.service_p50 <= r.service_p95 && r.service_p95 <= r.service_p99);
  (* A transient handful can be queued at the window-close instant; a
     saturated run would close with hundreds. *)
  Alcotest.(check bool)
    (Printf.sprintf "no saturated backlog (final=%d)" r.final_backlog)
    true (r.final_backlog < 50)

let test_open_loop_deterministic () =
  let r1 = open_loop ~duration:2_000. () in
  let r2 = open_loop ~duration:2_000. () in
  Alcotest.(check bool) "same seed, same result" true (r1 = r2)

(* Saturation: offered load far beyond capacity.  Queueing delay blows
   past service latency while service latency itself stays bounded —
   the separation that closed-loop drivers cannot show. *)
let test_open_loop_saturation () =
  let r = open_loop ~rate:5_000. ~duration:2_000. () in
  Alcotest.(check bool)
    (Printf.sprintf "achieved (%.1f/s) saturates below offered (%.1f/s)"
       r.achieved_load r.offered_load)
    true
    (r.achieved_load < 0.8 *. r.offered_load);
  Alcotest.(check bool)
    (Printf.sprintf "queueing (p50=%.1fms) dominates service (p99=%.2fms)"
       r.queue_p50 r.service_p99)
    true
    (r.queue_p50 > r.service_p99);
  Alcotest.(check bool) "backlog at close" true (r.final_backlog > 0)

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
    Alcotest.test_case "open loop: underload" `Slow test_open_loop_underload;
    Alcotest.test_case "open loop: deterministic" `Slow
      test_open_loop_deterministic;
    Alcotest.test_case "open loop: saturation" `Slow test_open_loop_saturation;
  ]
