(* Batch-commit verdict agreement and self-identity, kind-counter
   pre-sizing, and the GC allocation budget.

   The fan-out equivalence that used to live here (cluster runs with the
   network's wave batching on and off) is now a property of the layer that
   makes the claim: test_sim.ml checks [Network.multicast_batch] against a
   loop of per-destination [Network.send]s under generated fault plans,
   partitions and interleaved timers.  End to end, the committed goldens
   and the layerbench ledger pin the simulated numbers byte for byte. *)

open Core

let bank_params =
  { Benchmarks.Workload.default_params with objects = 48; calls = 2; read_ratio = 0.5; key_skew = 0.4 }

let chaos_knobs =
  { Harness.Chaos.default_knobs with horizon = 3_000.; max_crashes = 1 }

(* --- batch commit on/off ------------------------------------------------ *)

(* Batch-commit mode changes the protocol (one quorum round per batch), so
   runs are NOT byte-identical to sequential ones — but the {e verdicts}
   must agree: over many chaos seeds, both modes pass the 1-copy oracle,
   conserve the bank balance, and stall nowhere.  22 seeds cover schedules
   with crashes, partitions, lossy links and suspicions. *)
let test_batch_mode_verdict_equivalence () =
  List.iter
    (fun seed ->
      let run batch_commit =
        Harness.Chaos.run_one ~clients:8 chaos_knobs
          { Harness.Chaos.default_spec with seed; batch_commit }
      in
      let on = run true and off = run false in
      let verdict (r : Harness.Chaos.result) =
        (Harness.Chaos.passed r, r.run.consistent, r.run.invariant)
      in
      if not (Harness.Chaos.passed on) then
        Alcotest.failf "seed %d: batch-mode chaos failed:@.%a" seed
          Harness.Chaos.pp_result on;
      if verdict on <> verdict off then
        Alcotest.failf "seed %d: batch on/off verdicts differ" seed)
    (List.init 22 (fun i -> 500 + i))

(* Same seed, batch mode on, run twice: the batch scheduler (cut timers,
   speculation, requeues) must be a pure function of the seed — the full
   result records compare equal, floats bitwise included. *)
let test_batch_mode_self_identity () =
  List.iter
    (fun seed ->
      let run () =
        Harness.Experiment.run ~clients:8 ~warmup:200. ~duration:1_000.
          (Harness.Experiment.spec ~seed ~batch_commit:true
             ~config:(Config.default Config.Flat)
             ~benchmark:Benchmarks.Bank.benchmark ~params:bank_params ())
      in
      let a = run () and b = run () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: batch run commits" seed)
        true
        (a.Harness.Experiment.commits > 0);
      if a <> b then
        Alcotest.failf "seed %d: two batch-mode runs differ:@.%a@.vs@.%a" seed
          Harness.Experiment.pp_result a Harness.Experiment.pp_result b)
    [ 601; 602; 603 ]

(* --- kind-counter pre-sizing -------------------------------------------- *)

(* [Network.create] pre-sizes the per-kind counter array from the global
   [Obs.Kind] registry; a kind interned {e after} the network exists must
   grow the array on first use instead of faulting past its end. *)
let test_kind_interned_after_create () =
  let engine = Sim.Engine.create () in
  let topology = Sim.Topology.create ~seed:3 ~nodes:3 () in
  let network = Sim.Network.create ~engine ~topology () in
  let got = ref [] in
  for node = 0 to 2 do
    Sim.Network.set_handler network ~node (fun ~src:_ msg -> got := msg :: !got)
  done;
  let late = Sim.Network.Kind.intern "late-interned-kind" in
  Sim.Network.send network ~kind:late ~src:0 ~dst:1 "hello";
  Sim.Network.multicast_batch network ~kind:late ~src:0 ~dsts:[ 1; 2 ] "wave";
  Sim.Engine.run engine;
  Alcotest.(check int) "all delivered" 3 (List.length !got);
  let count =
    match List.assoc_opt "late-interned-kind" (Sim.Network.messages_by_kind network) with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check int) "late kind counted" 3 count

(* --- allocation budget -------------------------------------------------- *)

(* Steady-state commit cost in minor-heap words, measured exactly as
   [bench wall] measures it (same 13-node closed-loop bank workload).
   The pooled-envelope + flat-payload hot path measures ~7_100 minor
   words per committed transaction; the budget is that figure plus the
   >20%-regression allowance from the benchmark gate, rounded up for
   cross-machine slack.  If this trips, something reintroduced per-event
   or per-message allocation — run [bench wall] to bisect. *)
let minor_words_budget = 9_500.

let test_allocation_budget () =
  let cluster =
    Cluster.create ~nodes:13 ~seed:11 ~with_oracle:false (Config.default Config.Closed)
  in
  let accounts =
    Array.init 64 (fun _ ->
        Cluster.alloc_object cluster
          ~init:(Store.Value.Int Benchmarks.Bank.initial_balance))
  in
  let rng = Util.Rng.create 23 in
  let stop = ref false in
  let rec client node r =
    if not !stop then begin
      let i = Util.Rng.int r 64 in
      let j = (i + 1 + Util.Rng.int r 63) mod 64 in
      Cluster.submit cluster ~node
        (fun () ->
          Benchmarks.Bank.transfer ~from_:accounts.(i) ~to_:accounts.(j) ~amount:1)
        ~on_done:(fun _ -> client node r)
    end
  in
  for c = 0 to 25 do
    client (c mod 13) (Util.Rng.split rng)
  done;
  (* Warm the pools first so the budget reflects steady state, not the
     free-list and scratch-buffer growth of the first few waves. *)
  Cluster.run_for cluster 1_000.;
  let commits0 = Metrics.commits (Cluster.metrics cluster) in
  let minor0 = Gc.minor_words () in
  Cluster.run_for cluster 3_000.;
  let minor1 = Gc.minor_words () in
  stop := true;
  Cluster.drain cluster;
  let commits = Metrics.commits (Cluster.metrics cluster) - commits0 in
  Alcotest.(check bool) "measured some commits" true (commits > 50);
  let per_commit = (minor1 -. minor0) /. Float.of_int commits in
  if per_commit > minor_words_budget then
    Alcotest.failf "allocation regression: %.0f minor words/commit (budget %.0f)"
      per_commit minor_words_budget

let suite =
  [
    Alcotest.test_case "chaos: batch-commit on/off verdicts agree" `Quick
      test_batch_mode_verdict_equivalence;
    Alcotest.test_case "batch-commit runs are self-identical" `Quick
      test_batch_mode_self_identity;
    Alcotest.test_case "kind interned after network create" `Quick
      test_kind_interned_after_create;
    Alcotest.test_case "minor words per commit within budget" `Quick
      test_allocation_budget;
  ]
