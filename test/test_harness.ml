(* Harness tests: experiment runner plumbing, sweep averaging, figure data
   generation at tiny scale, report rendering, and the Fig. 10 failure
   schedule. *)

let tiny = { Harness.Figures.warmup = 200.; duration = 1_200.; clients = 8; trials = 1 }

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_experiment_smoke () =
  let result =
    Harness.Experiment.run ~clients:8 ~warmup:200. ~duration:1_500.
      (Harness.Experiment.spec ~seed:5 ~config:(Core.Config.default Core.Config.Closed)
         ~benchmark:Benchmarks.Bank.benchmark
         ~params:{ Benchmarks.Workload.default_params with objects = 64; calls = 2; read_ratio = 0.5; key_skew = 0.3 }
         ())
  in
  Alcotest.(check bool) "some commits" true (result.Harness.Experiment.commits > 0);
  Alcotest.(check bool) "throughput positive" true (result.throughput > 0.);
  Alcotest.(check bool) "messages counted" true (result.messages > 0);
  begin
    match result.invariant with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "invariant: %s" msg
  end;
  match result.consistent with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "oracle: %s" msg

let test_sweep_averaging () =
  let calls = ref 0 in
  let fake ~seed =
    incr calls;
    let base =
      Harness.Experiment.run ~clients:4 ~warmup:100. ~duration:500.
        (Harness.Experiment.spec ~seed ~config:(Core.Config.default Core.Config.Flat)
           ~benchmark:Benchmarks.Counter.benchmark
           ~params:Benchmarks.Workload.default_params ())
    in
    base
  in
  let averaged = Harness.Sweep.averaged ~trials:3 fake in
  Alcotest.(check int) "three trials ran" 3 !calls;
  Alcotest.(check bool) "result sane" true (averaged.Harness.Experiment.commits >= 0)

let test_failure_schedule_grows_quorum () =
  let nodes = 28 in
  let victims = Harness.Figures.failure_schedule ~nodes ~read_level:0 ~count:6 in
  Alcotest.(check int) "six victims" 6 (List.length victims);
  Alcotest.(check bool) "root dies first" true (List.hd victims = 0);
  (* Replaying the schedule grows the read quorum by one per failure (until
     leaves are reached). *)
  let tq = Quorum.Tree_quorum.create ~read_level:0 ~nodes () in
  let sizes =
    List.map
      (fun v ->
        Quorum.Tree_quorum.mark_failed tq v;
        match Quorum.Tree_quorum.read_quorum ~salt:0 tq with
        | Some q -> List.length q
        | None -> -1)
      victims
  in
  Alcotest.(check (list int)) "quorum growth" [ 2; 3; 4; 5; 6; 7 ] sizes

let test_fig5_tiny () =
  let series =
    Harness.Figures.fig5 ~scale:tiny ~benchmark:Benchmarks.Counter.benchmark ()
  in
  Alcotest.(check int) "six read ratios" 6 (List.length series.Harness.Report.rows);
  Alcotest.(check (list string)) "mode columns" [ "flat"; "closed"; "checkpoint" ]
    series.columns;
  List.iter
    (fun (_, values) ->
      Alcotest.(check int) "three values per row" 3 (List.length values);
      List.iter
        (fun v -> Alcotest.(check bool) "non-negative throughput" true (v >= 0.))
        values)
    series.rows

let test_report_rendering () =
  let series =
    {
      Harness.Report.title = "Test series";
      x_label = "x";
      columns = [ "a"; "b" ];
      rows = [ ("1", [ 1.5; 2.5 ]); ("2", [ 3.; 4. ]) ];
      notes = [ "a note" ];
    }
  in
  let text = Harness.Report.render series in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true (contains text fragment))
    [ "Test series"; "1.50"; "note: a note" ];
  let csv = Harness.Report.to_csv series in
  Alcotest.(check bool) "csv row" true (contains csv "1,1.5000,2.5000")

let test_pct_change () =
  Alcotest.(check (float 1e-9)) "increase" 50. (Harness.Report.pct_change ~baseline:10. 15.);
  Alcotest.(check (float 1e-9)) "decrease" (-25.) (Harness.Report.pct_change ~baseline:4. 3.);
  Alcotest.(check bool) "zero baseline, nonzero value" true
    (Float.is_nan (Harness.Report.pct_change ~baseline:0. 9.));
  Alcotest.(check (float 1e-9)) "zero baseline, zero value" 0.
    (Harness.Report.pct_change ~baseline:0. 0.)

let test_run_system_qr_and_baselines () =
  List.iter
    (fun make_system ->
      let system : Harness.Experiment.system = make_system () in
      let oid = system.alloc ~init:(Store.Value.Int 0) in
      let gen _rng () = Benchmarks.Counter.increment oid in
      let result =
        Harness.Experiment.run_system system ~clients:4 ~warmup:100. ~duration:800.
          ~gen_txn:gen ~seed:3 ()
      in
      Alcotest.(check bool)
        (system.name ^ " commits")
        true
        (result.Harness.Experiment.commits > 0);
      match result.consistent with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s oracle: %s" system.name msg)
    [
      (fun () ->
        Harness.Experiment.qr_system ~nodes:7 ~seed:21
          (Core.Config.default Core.Config.Closed));
      (fun () -> Harness.Experiment.tfa_system ~nodes:7 ~seed:22 ());
      (fun () -> Harness.Experiment.decent_system ~nodes:7 ~seed:23 ());
    ]

(* {2 Schedules replay exactly} *)

(* A random chaos draw: generator, knobs and the spec fields a schedule
   depends on (seed, nodes, spares, shards, objects). *)
let schedule_gen =
  let open QCheck.Gen in
  let* rolling = bool and* seed = int_bound 1_000_000 and* nodes = int_range 5 15 in
  let* spares = int_range (if rolling then 1 else 0) 3
  and* shards = int_range 1 (min 3 (nodes / 3))
  and* objects = int_range 8 64
  and* horizon = float_range 1_000. 20_000.
  and* max_crashes = int_bound 3
  and* reconfigs = int_bound 3
  and* shard_ops = int_bound 3 in
  let spec = Harness.Chaos.default_spec in
  let spec =
    { spec with seed; nodes; spares; shards; params = { spec.params with objects } }
  in
  let knobs = { Harness.Chaos.horizon; max_crashes; reconfigs; shard_ops } in
  return
    ((if rolling then Harness.Chaos.generate_rolling else Harness.Chaos.generate) knobs spec)

(* Polymorphic compare orders floats as [Float.compare], so [compare _ _ = 0]
   is [Float.equal] on every time, duration and probability. *)
let schedule_roundtrip =
  QCheck.Test.make ~name:"parse (print s) = s for chaos schedules" ~count:300
    (QCheck.make ~print:Harness.Scenario.to_string schedule_gen)
    (fun events ->
      match Harness.Scenario.parse (Harness.Scenario.to_string events) with
      | Ok parsed -> compare parsed events = 0
      | Error msg -> QCheck.Test.fail_report msg)

(* A chaos run and a run of its printed schedule through the runner agree
   on every field: schedule, counters, verdicts, stalls and fault report. *)
let test_chaos_replays_exactly () =
  let spec = Harness.Chaos.default_spec and knobs = Harness.Chaos.default_knobs in
  List.iter
    (fun (family, rolling, (knobs : Harness.Chaos.knobs), (spec : Harness.Experiment.spec), seeds) ->
      List.iter
        (fun seed ->
          let spec = { spec with seed } in
          let r = Harness.Chaos.run_one ~rolling ~clients:18 knobs spec in
          let events =
            match Harness.Scenario.parse (Harness.Scenario.to_string r.events) with
            | Ok events -> events
            | Error msg -> Alcotest.failf "%s seed %d: reparse failed: %s" family seed msg
          in
          let replay = Harness.Chaos.run ~clients:18 ~horizon:knobs.horizon spec events in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d: same verdict" family seed)
            (Format.asprintf "%a" Harness.Chaos.pp_result r)
            (Format.asprintf "%a" Harness.Chaos.pp_result replay);
          if compare r replay <> 0 then
            Alcotest.failf "%s seed %d: replay differs in some field" family seed)
        seeds)
    [
      ("default", false, knobs, spec, [ 7; 8 ]);
      ("rolling", true, Harness.Chaos.rolling_knobs, { spec with spares = 2 }, [ 5; 6 ]);
      ("batch", false, knobs, { spec with batch_commit = true }, [ 503; 504 ]);
      ( "sharded",
        false,
        { knobs with shard_ops = 2 },
        { spec with shards = 3; params = { spec.params with cross_shard_prob = 0.3 } },
        [ 964; 965 ] );
    ]

let suite =
  [
    Alcotest.test_case "experiment smoke" `Quick test_experiment_smoke;
    Alcotest.test_case "sweep averaging" `Quick test_sweep_averaging;
    Alcotest.test_case "failure schedule grows quorum" `Quick
      test_failure_schedule_grows_quorum;
    Alcotest.test_case "fig5 tiny series" `Quick test_fig5_tiny;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "pct change" `Quick test_pct_change;
    Alcotest.test_case "run_system over all DTMs" `Quick test_run_system_qr_and_baselines;
    QCheck_alcotest.to_alcotest schedule_roundtrip;
    Alcotest.test_case "chaos runs replay exactly" `Quick test_chaos_replays_exactly;
  ]
