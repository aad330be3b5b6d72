(* Determinism regression tests for the domain-parallel harness.

   The harness's contract (DESIGN.md, "Parallel safety") is that every
   experiment run is a self-contained simulation — own engine, RNG streams,
   metrics — so (a) a run is a pure function of its configuration and seed,
   and (b) fanning independent runs across domains cannot change any
   result.  Both halves are pinned here: re-running one configuration must
   reproduce the result record exactly, and the ablation sweep must render
   identically at jobs=1 and jobs=4. *)

let params =
  { Benchmarks.Workload.default_params with objects = 48; calls = 2; read_ratio = 0.5; key_skew = 0.5 }

let run_once ~seed =
  Harness.Experiment.run ~load:(Closed { clients = 6; client_nodes = None })
    ~warmup:200. ~duration:1_000.
    (Harness.Experiment.spec ~nodes:7 ~seed ~config:(Core.Config.default Core.Config.Closed)
       ~benchmark:Benchmarks.Bank.benchmark ~params ())

(* Every counter of the result record, not just throughput: a single stray
   source of nondeterminism (iteration order, shared RNG, clock) shows up in
   at least one of these. *)
let check_results_equal label (a : Harness.Experiment.result) (b : Harness.Experiment.result)
    =
  Alcotest.(check string) (label ^ ": label") a.label b.label;
  Alcotest.(check int) (label ^ ": commits") a.commits b.commits;
  Alcotest.(check int) (label ^ ": ro commits") a.read_only_commits b.read_only_commits;
  Alcotest.(check (float 0.)) (label ^ ": throughput") a.throughput b.throughput;
  Alcotest.(check int) (label ^ ": root aborts") a.root_aborts b.root_aborts;
  Alcotest.(check int) (label ^ ": partial aborts") a.partial_aborts b.partial_aborts;
  Alcotest.(check int) (label ^ ": messages") a.messages b.messages;
  Alcotest.(check (list (pair string int)))
    (label ^ ": messages by kind")
    a.messages_by_kind b.messages_by_kind;
  Alcotest.(check int) (label ^ ": remote reads") a.remote_reads b.remote_reads;
  Alcotest.(check int) (label ^ ": local reads") a.local_reads b.local_reads;
  Alcotest.(check (float 0.)) (label ^ ": mean latency") a.mean_latency b.mean_latency;
  Alcotest.(check (float 0.)) (label ^ ": p95 latency") a.p95_latency b.p95_latency

let test_same_seed_same_result () =
  let a = run_once ~seed:5 and b = run_once ~seed:5 in
  check_results_equal "rerun" a b;
  let c = run_once ~seed:6 in
  Alcotest.(check bool)
    "different seed differs somewhere" true
    (a.commits <> c.commits || a.messages <> c.messages
   || not (Float.equal a.throughput c.throughput))

let render_ablations () =
  String.concat "" (List.map Harness.Report.render (Harness.Figures.ablations ()))

let with_jobs jobs f =
  let before = Harness.Pool.jobs () in
  Harness.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Harness.Pool.set_jobs before) f

let test_sweep_jobs_invariant () =
  let sequential = with_jobs 1 render_ablations in
  let parallel = with_jobs 4 render_ablations in
  Alcotest.(check string) "jobs=1 and jobs=4 render identically" sequential parallel

let test_pool_map_order_and_exceptions () =
  with_jobs 4 (fun () ->
      let xs = List.init 64 Fun.id in
      Alcotest.(check (list int))
        "map preserves order"
        (List.map (fun x -> x * x) xs)
        (Harness.Pool.map (fun x -> x * x) xs);
      (* Nested fan-out exercises work-helping: must complete, in order. *)
      let nested =
        Harness.Pool.map
          (fun x -> List.fold_left ( + ) 0 (Harness.Pool.map (fun y -> x + y) xs))
          xs
      in
      Alcotest.(check int) "nested maps complete" (List.length xs) (List.length nested);
      Alcotest.check_raises "exceptions propagate" (Failure "boom") (fun () ->
          ignore (Harness.Pool.map (fun x -> if x = 3 then failwith "boom" else x) xs)))

let suite =
  [
    Alcotest.test_case "same config+seed reproduces result record" `Quick
      test_same_seed_same_result;
    Alcotest.test_case "sweep identical at jobs=1 and jobs=4" `Slow
      test_sweep_jobs_invariant;
    Alcotest.test_case "pool map order, nesting, exceptions" `Quick
      test_pool_map_order_and_exceptions;
  ]
