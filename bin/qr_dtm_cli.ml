(* qr-dtm: regenerate the paper's figures/tables or run custom experiments.

   Examples:
     qr-dtm figure 5 --bench slist
     qr-dtm figure 10 --scale full
     qr-dtm table
     qr-dtm summary
     qr-dtm run --bench bank --mode closed --reads 0.2 --calls 4
     qr-dtm scenario "crash 11 @500; recover 11 @2500; drop 0.05 @0"
     qr-dtm all --scale quick *)

open Cmdliner

let scale_of_string = function
  | "full" -> Harness.Figures.full
  | "quick" -> Harness.Figures.quick
  | other -> failwith (Printf.sprintf "unknown scale %S (quick|full)" other)

let scale_arg =
  let doc = "Run scale: $(b,quick) (seconds per point) or $(b,full) (paper-like)." in
  Arg.(value & opt string "quick" & info [ "scale" ] ~docv:"SCALE" ~doc)

let jobs_arg =
  let doc =
    "Independent simulation runs executed concurrently (OCaml domains). \
     Defaults to the machine's core count; output is identical at any value."
  in
  Arg.(
    value
    & opt int (Harness.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let set_jobs jobs = Harness.Pool.set_jobs jobs

let bench_arg =
  let doc = "Benchmark name (bank, hashmap, slist, rbtree, vacation, bst, counter)." in
  Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"BENCH" ~doc)

let lookup_bench name =
  match Benchmarks.Registry.find name with
  | Some b -> b
  | None ->
    failwith
      (Printf.sprintf "unknown benchmark %S (expected one of: %s)" name
         (String.concat ", " (Benchmarks.Registry.names ())))

let selected_benchmarks = function
  | Some name -> [ lookup_bench name ]
  | None -> Benchmarks.Registry.paper_suite

let print_series series = print_string (Harness.Report.render series)

let batch_commit_arg =
  let doc =
    "Speculative batch-commit mode (PROTOCOL.md §9): coordinators queue commit \
     requests and decide each batch with a single quorum round; queued successors \
     read predecessors' uncommitted write images speculatively."
  in
  Arg.(value & flag & info [ "batch-commit" ] ~doc)

let parse_mode = function
  | "flat" -> Core.Config.Flat
  | "closed" -> Core.Config.Closed
  | "checkpoint" -> Core.Config.Checkpoint
  | other -> failwith (Printf.sprintf "unknown mode %S" other)

let shards_arg =
  let doc =
    "Shards the object space is partitioned into (each shard runs its own \
     member view, epoch and tree quorum; needs at least 3 nodes per shard). \
     1 reproduces the unsharded protocol byte-for-byte."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let cross_shard_prob_arg =
  let doc =
    "Fraction of workload operations steered across shard boundaries \
     (bank transfer pairs spanning two shards; hashmap keys homed on a \
     drawn shard).  Requires --shards > 1 to have any effect."
  in
  Arg.(value & opt float 0. & info [ "cross-shard-prob" ] ~docv:"P" ~doc)

let shard_skew_arg =
  let doc = "Zipf skew of the target-shard draw on cross-shard operations (0 = uniform)." in
  Arg.(value & opt float 0. & info [ "shard-skew" ] ~docv:"S" ~doc)

let figure_cmd =
  let number_arg =
    let doc = "Figure number: 5, 6, 7, 9 or 10." in
    Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc)
  in
  let run number scale bench jobs =
    set_jobs jobs;
    let scale = scale_of_string scale in
    begin
      match number with
      | 5 ->
        List.iter
          (fun benchmark -> print_series (Harness.Figures.fig5 ~scale ~benchmark ()))
          (selected_benchmarks bench)
      | 6 ->
        List.iter
          (fun benchmark -> print_series (Harness.Figures.fig6 ~scale ~benchmark ()))
          (selected_benchmarks bench)
      | 7 ->
        List.iter
          (fun benchmark -> print_series (Harness.Figures.fig7 ~scale ~benchmark ()))
          (selected_benchmarks bench)
      | 9 -> List.iter print_series (Harness.Figures.fig9 ~scale ())
      | 10 -> print_series (Harness.Figures.fig10 ~scale ())
      | n -> failwith (Printf.sprintf "no figure %d (5, 6, 7, 9, 10)" n)
    end
  in
  let info = Cmd.info "figure" ~doc:"Regenerate one of the paper's figures" in
  Cmd.v info Term.(const run $ number_arg $ scale_arg $ bench_arg $ jobs_arg)

let table_cmd =
  let run scale jobs =
    set_jobs jobs;
    print_series (Harness.Figures.table8 ~scale:(scale_of_string scale) ())
  in
  let info = Cmd.info "table" ~doc:"Regenerate the abort/message table (paper Fig. 8)" in
  Cmd.v info Term.(const run $ scale_arg $ jobs_arg)

let summary_cmd =
  let run scale jobs =
    set_jobs jobs;
    print_series (Harness.Figures.summary ~scale:(scale_of_string scale) ())
  in
  let info = Cmd.info "summary" ~doc:"Headline paper-claim aggregates" in
  Cmd.v info Term.(const run $ scale_arg $ jobs_arg)

let run_cmd =
  let mode_arg =
    let doc = "Execution model: flat, closed or checkpoint." in
    Arg.(value & opt string "closed" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let reads_arg =
    Arg.(value & opt float 0.5 & info [ "reads" ] ~docv:"R" ~doc:"Read ratio in [0,1].")
  in
  let calls_arg =
    Arg.(value & opt int 3 & info [ "calls" ] ~docv:"N" ~doc:"Closed-nested calls per txn.")
  in
  let objects_arg =
    Arg.(value & opt (some int) None & info [ "objects" ] ~docv:"N" ~doc:"Population size.")
  in
  let nodes_arg = Arg.(value & opt int 13 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.") in
  let clients_arg =
    Arg.(value & opt int 26 & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop clients.")
  in
  let duration_arg =
    Arg.(value & opt float 10_000. & info [ "duration" ] ~docv:"MS" ~doc:"Window, ms.")
  in
  let seed_arg = Arg.(value & opt int 97 & info [ "seed" ] ~docv:"SEED" ~doc:"Run seed.") in
  let skew_arg =
    Arg.(value & opt float 0.5 & info [ "skew" ] ~docv:"S" ~doc:"Zipf key skew.")
  in
  let open_loop_arg =
    let doc =
      "Open-loop mode: Poisson arrivals at $(docv) requests per second of simulated \
       time over a logical client population (--population), instead of closed-loop \
       clients.  Reports p50/p95/p99 service latency and queueing delay separately."
    in
    Arg.(value & opt (some float) None & info [ "open-loop" ] ~docv:"RATE" ~doc)
  in
  let population_arg =
    let doc = "Logical client population for --open-loop (clients are lazy: no per-client state)." in
    Arg.(value & opt int 1_000_000 & info [ "population" ] ~docv:"N" ~doc)
  in
  let max_per_node_arg =
    let doc = "Admission cap per node for --open-loop; arrivals beyond it queue and accrue queueing delay." in
    Arg.(value & opt int 4 & info [ "max-per-node" ] ~docv:"N" ~doc)
  in
  let check_online_arg =
    let doc =
      "Attach the online protocol checker (Obs.Online) to the run via a tracer sink: \
       every rule is checked as events stream, with memory bounded by in-flight \
       transactions; exits 1 on violations.  Immune to ring truncation."
    in
    Arg.(value & flag & info [ "check-online" ] ~doc)
  in
  let run bench mode reads calls objects nodes clients duration seed skew batch_commit
      shards cross_shard_prob shard_skew open_loop population max_per_node check_online =
    let benchmark = lookup_bench (Option.value ~default:"bank" bench) in
    let mode = parse_mode mode in
    let params =
      {
        Benchmarks.Workload.objects =
          Option.value ~default:(Harness.Figures.benchmark_objects benchmark.name) objects;
        calls;
        read_ratio = reads;
        key_skew = skew;
        cross_shard_prob;
        shard_skew;
      }
    in
    let config = Core.Config.default mode in
    (* The online checker rides a tracer sink; the ring itself can stay
       tiny — the sink sees every event before eviction. *)
    let tracer =
      if check_online then Obs.Tracer.create ~capacity:(1 lsl 12) ()
      else Obs.Tracer.null
    in
    let online =
      if not check_online then None
      else begin
        let is_write_quorum =
          (* The structural rule only holds for the static single-shard
             view; sharded runs fall back to pairwise intersection. *)
          if shards = 1 then begin
            let tree = Quorum.Tree.create ~nodes () in
            Some (fun set -> Quorum.Check.covers_write_quorum tree set)
          end
          else None
        in
        let ck = Obs.Online.create ?is_write_quorum () in
        Obs.Online.attach ck tracer;
        Some ck
      end
    in
    (match open_loop with
    | Some rate ->
      let result =
        Harness.Openloop.run ~nodes ~seed ~duration ~batch_commit ~shards ~tracer
          ~population ~max_per_node ~rate ~config ~benchmark ~params ()
      in
      Format.printf "%a@." Harness.Openloop.pp_result result
    | None ->
      let result =
        Harness.Experiment.run ~nodes ~seed ~clients ~duration ~batch_commit ~shards
          ~tracer ~config ~benchmark ~params ()
      in
      Format.printf "%a@." Harness.Experiment.pp_result result);
    match online with
    | None -> ()
    | Some ck -> (
      match Obs.Online.finish ck with
      | [] ->
        Format.eprintf "online checker: ok (%d events, 0 violations)@."
          (Obs.Online.events_seen ck)
      | violations ->
        List.iter (fun v -> prerr_endline (Obs.Online.pp_violation v)) violations;
        Format.eprintf "online checker: %d violation(s)@." (List.length violations);
        exit 1)
  in
  let info = Cmd.info "run" ~doc:"Run one custom experiment point" in
  Cmd.v info
    Term.(
      const run $ bench_arg $ mode_arg $ reads_arg $ calls_arg $ objects_arg $ nodes_arg
      $ clients_arg $ duration_arg $ seed_arg $ skew_arg $ batch_commit_arg $ shards_arg
      $ cross_shard_prob_arg $ shard_skew_arg $ open_loop_arg $ population_arg
      $ max_per_node_arg $ check_online_arg)

let scenario_cmd =
  let spec_arg =
    let doc =
      "Fault scenario, e.g. 'crash 11 @500; recover 11 @2500; drop 0.05 @0'. \
       Events: crash/recover/suspect N @T [for D], partition a,b|c,d @T for D, \
       drop/dup P @T [for D], spike P F @T [for D], flaky A-B P @T [for D], \
       join N @T, leave N @T, replace L J @T, shardmove OID S @T, shardsplit S @T."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)
  in
  let spares_arg =
    let doc = "Stand-by machines outside the initial view (targets for join/replace)." in
    Arg.(value & opt int 0 & info [ "spares" ] ~docv:"N" ~doc)
  in
  let mode_arg =
    let doc = "Execution model: flat, closed or checkpoint." in
    Arg.(value & opt string "closed" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let nodes_arg = Arg.(value & opt int 13 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.") in
  let clients_arg =
    Arg.(value & opt int 16 & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop clients.")
  in
  let duration_arg =
    Arg.(value & opt float 5_000. & info [ "duration" ] ~docv:"MS" ~doc:"Window, ms.")
  in
  let seed_arg = Arg.(value & opt int 97 & info [ "seed" ] ~docv:"SEED" ~doc:"Run seed.") in
  let run spec bench mode nodes spares clients duration seed shards cross_shard_prob
      shard_skew =
    let benchmark = lookup_bench (Option.value ~default:"bank" bench) in
    let mode = parse_mode mode in
    let events =
      match Harness.Scenario.parse spec with
      | Ok events -> events
      | Error msg -> failwith (Printf.sprintf "bad scenario: %s" msg)
    in
    let crashed = Harness.Scenario.crashed_nodes events in
    let client_nodes =
      List.init nodes Fun.id |> List.filter (fun n -> not (List.mem n crashed))
    in
    let params =
      {
        Benchmarks.Workload.objects = Harness.Figures.benchmark_objects benchmark.name;
        calls = 3;
        read_ratio = 0.5;
        key_skew = 0.5;
        cross_shard_prob;
        shard_skew;
      }
    in
    let tracker = ref None in
    let result =
      Harness.Experiment.run ~nodes ~spares ~seed ~clients ~duration ~client_nodes ~shards
        ~prepare:(fun cluster -> tracker := Some (Harness.Scenario.install cluster events))
        ~config:(Core.Config.default mode) ~benchmark ~params ()
    in
    Format.printf "%a@." Harness.Experiment.pp_result result;
    Option.iter
      (fun t -> Format.printf "%a@." Harness.Scenario.pp_report (Harness.Scenario.report t))
      !tracker
  in
  let info =
    Cmd.info "scenario"
      ~doc:"Run a workload under an injected fault scenario (crashes, partitions, loss, \
            membership changes, shard moves/splits)"
  in
  Cmd.v info
    Term.(
      const run $ spec_arg $ bench_arg $ mode_arg $ nodes_arg $ spares_arg $ clients_arg
      $ duration_arg $ seed_arg $ shards_arg $ cross_shard_prob_arg $ shard_skew_arg)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let warn_dropped tracer =
  let dropped = Obs.Tracer.dropped tracer in
  if dropped > 0 then
    Printf.eprintf
      "warning: trace ring buffer overflowed, %d oldest events dropped (raise \
       --trace-capacity); checker verdicts may be unreliable\n"
      dropped

let trace_cmd =
  let mode_arg =
    let doc = "Execution model: flat, closed or checkpoint." in
    Arg.(value & opt string "closed" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let nodes_arg = Arg.(value & opt int 13 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.") in
  let clients_arg =
    Arg.(value & opt int 26 & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop clients.")
  in
  let duration_arg =
    Arg.(value & opt float 5_000. & info [ "duration" ] ~docv:"MS" ~doc:"Window, ms.")
  in
  let seed_arg = Arg.(value & opt int 97 & info [ "seed" ] ~docv:"SEED" ~doc:"Run seed.") in
  let txn_arg =
    let doc = "Print the causal history of one transaction id instead of full JSON." in
    Arg.(value & opt (some int) None & info [ "txn" ] ~docv:"TXN" ~doc)
  in
  let out_arg =
    let doc = "Write the Chrome trace_event JSON to $(docv) (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let telemetry_arg =
    let doc = "Also sample windowed telemetry and write it as CSV to $(docv)." in
    Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)
  in
  let window_arg =
    Arg.(value & opt float 250. & info [ "window" ] ~docv:"MS" ~doc:"Telemetry sampling window, ms.")
  in
  let capacity_arg =
    let doc = "Trace ring-buffer capacity (events); oldest events drop past this." in
    Arg.(value & opt int (1 lsl 20) & info [ "trace-capacity" ] ~docv:"N" ~doc)
  in
  let check_arg =
    Arg.(value & flag & info [ "check" ] ~doc:"Run the offline protocol checker over the trace; exit 1 on violations.")
  in
  let run bench mode seed nodes clients duration txn out telemetry window capacity check =
    let benchmark = lookup_bench (Option.value ~default:"bank" bench) in
    let config = Core.Config.default (parse_mode mode) in
    let params =
      {
        Benchmarks.Workload.default_params with
        objects = Harness.Figures.benchmark_objects benchmark.name;
        calls = 3;
        read_ratio = 0.5;
        key_skew = 0.5;
      }
    in
    let tracer = Obs.Tracer.create ~capacity () in
    let tele = Option.map (fun _ -> Obs.Telemetry.create ~window) telemetry in
    let result =
      Harness.Experiment.run ~nodes ~seed ~clients ~duration ~tracer ?telemetry:tele
        ~config ~benchmark ~params ()
    in
    Format.eprintf "%a@." Harness.Experiment.pp_result result;
    Format.eprintf "trace: %d events captured@." (Obs.Tracer.length tracer);
    warn_dropped tracer;
    (match (txn, out) with
    | Some txn, _ ->
      let history = Obs.Export.txn_history tracer ~txn in
      if history = "" then Printf.printf "txn %d does not appear in the trace\n" txn
      else print_string history;
      Option.iter (fun path -> write_file path (Obs.Export.chrome_json tracer)) out
    | None, Some path -> write_file path (Obs.Export.chrome_json tracer)
    | None, None -> print_string (Obs.Export.chrome_json tracer));
    Option.iter
      (fun path -> Option.iter (fun t -> write_file path (Obs.Telemetry.to_csv t)) tele)
      telemetry;
    if check then begin
      let tree = Quorum.Tree.create ~nodes () in
      let violations =
        Obs.Online.replay
          ~is_write_quorum:(fun set -> Quorum.Check.covers_write_quorum tree set)
          (Obs.Tracer.events tracer)
      in
      let dropped = Obs.Tracer.dropped tracer in
      if dropped > 0 then begin
        (* The ring lost the prefix: pass/fail over the remainder would be
           unreliable either way (lost evidence looks like violations,
           lost violations look like passes).  Hard inconclusive. *)
        List.iter (fun v -> prerr_endline (Obs.Online.pp_violation v)) violations;
        Format.eprintf
          "checker: INCONCLUSIVE — ring dropped %d events (%d violation(s) \
           over the truncated trace are unreliable); raise --trace-capacity \
           or use qr-dtm run --check-online@."
          dropped (List.length violations);
        exit 3
      end
      else
        match violations with
        | [] -> Format.eprintf "checker: ok (%d events, 0 violations)@." (Obs.Tracer.length tracer)
        | violations ->
          List.iter (fun v -> prerr_endline (Obs.Online.pp_violation v)) violations;
          Format.eprintf "checker: %d violation(s)@." (List.length violations);
          exit 1
    end
  in
  let info =
    Cmd.info "trace"
      ~doc:"Run one traced experiment and export its transaction-lifecycle trace"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Runs a single experiment point with the lifecycle tracer enabled and \
             exports the trace as Chrome trace_event JSON (chrome://tracing or \
             ui.perfetto.dev).  Tracing never perturbs the simulation: results are \
             byte-identical to an untraced run with the same seed.";
        ]
  in
  Cmd.v info
    Term.(
      const run $ bench_arg $ mode_arg $ seed_arg $ nodes_arg $ clients_arg $ duration_arg
      $ txn_arg $ out_arg $ telemetry_arg $ window_arg $ capacity_arg $ check_arg)

let chaos_cmd =
  let runs_arg =
    Arg.(value & opt int 25 & info [ "runs" ] ~docv:"N" ~doc:"Seeded schedules to run.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"First seed; runs use SEED..SEED+N-1.")
  in
  let nodes_arg = Arg.(value & opt int 9 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.") in
  let clients_arg =
    Arg.(value & opt int 18 & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop clients (all nodes).")
  in
  let horizon_arg =
    Arg.(value & opt float 8_000. & info [ "horizon" ] ~docv:"MS" ~doc:"Fault+load window, ms.")
  in
  let crashes_arg =
    Arg.(value & opt int 2 & info [ "max-crashes" ] ~docv:"N" ~doc:"Crash/recover pairs per schedule: 0..N.")
  in
  let spares_arg =
    let doc = "Stand-by machines outside the initial view (join/replace targets)." in
    Arg.(value & opt int 0 & info [ "spares" ] ~docv:"N" ~doc)
  in
  let reconfigs_arg =
    let doc = "Membership operations (join/leave/replace) drawn per schedule: 0..N." in
    Arg.(value & opt int 0 & info [ "reconfigs" ] ~docv:"N" ~doc)
  in
  let shard_ops_arg =
    let doc =
      "Shard-directory operations (object moves, shard splits) drawn per schedule: \
       0..N.  Requires --shards > 1."
    in
    Arg.(value & opt int 0 & info [ "shard-ops" ] ~docv:"N" ~doc)
  in
  let rolling_arg =
    let doc =
      "Rolling-restart schedules: replace every initial node exactly once under load \
       (implies at least one spare; uses the rolling preset horizon when --horizon is \
       left at its default)."
    in
    Arg.(value & flag & info [ "rolling" ] ~doc)
  in
  let mode_arg =
    let doc = "Execution model: flat, closed or checkpoint." in
    Arg.(value & opt string "closed" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON array of per-seed results.")
  in
  let failures_arg =
    let doc = "Write failing schedules (seed + scenario DSL) to $(docv) for reproduction." in
    Arg.(value & opt (some string) None & info [ "failures-to" ] ~docv:"FILE" ~doc)
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print every per-seed result, not just failures.")
  in
  let show_arg =
    Arg.(value & flag & info [ "show" ] ~doc:"Print each seed's generated schedule without running it.")
  in
  let trace_dir_arg =
    let doc =
      "Re-run each failing seed with tracing enabled (deterministic, so the failure \
       reproduces exactly) and dump per-seed artifacts into $(docv): the schedule, the \
       Chrome trace_event JSON, and the offline protocol-checker verdicts."
    in
    Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)
  in
  let trace_all_arg =
    Arg.(value & flag & info [ "trace-all" ] ~doc:"With --trace-dir: dump every seed, not just failures.")
  in
  let check_online_arg =
    let doc =
      "Run each seed with the online protocol checker attached (tracer sink, \
       pairwise-intersection quorum rule): violations are detected as events \
       stream, immune to ring truncation, with memory bounded by in-flight \
       transactions.  Any violation fails the sweep (exit 1)."
    in
    Arg.(value & flag & info [ "check-online" ] ~doc)
  in
  let fail_fast_arg =
    let doc =
      "With --check-online: abort at the first violation, mid-run — the \
       offending seed's schedule is written to --failures-to before exiting."
    in
    Arg.(value & flag & info [ "fail-fast" ] ~doc)
  in
  let run runs seed nodes clients horizon max_crashes spares reconfigs rolling mode
      batch_commit json failures_to verbose show trace_dir trace_all shards shard_ops
      cross_shard_prob check_online fail_fast =
    let mode = parse_mode mode in
    let spares = if rolling && spares = 0 then Harness.Chaos.rolling_knobs.spares else spares in
    let horizon = if rolling && horizon = 8_000. then Harness.Chaos.rolling_knobs.horizon else horizon in
    let max_crashes =
      if rolling then min max_crashes Harness.Chaos.rolling_knobs.max_crashes else max_crashes
    in
    let knobs =
      {
        Harness.Chaos.default_knobs with
        nodes;
        clients;
        horizon;
        max_crashes;
        spares;
        reconfigs;
        shards;
        shard_ops;
        cross_shard_prob;
      }
    in
    let generate = if rolling then Harness.Chaos.generate_rolling else Harness.Chaos.generate in
    if show then begin
      for s = seed to seed + runs - 1 do
        Printf.printf "seed %d: %s\n" s
          (Harness.Chaos.render_schedule (generate knobs ~seed:s))
      done;
      exit 0
    end;
    let checker_failed = ref false in
    let results =
      if not check_online then
        Harness.Chaos.run_many ~config:(Core.Config.default mode) ~batch_commit ~rolling
          knobs ~seed ~runs
      else
        (* Same seeds, same verdicts (tracing never perturbs a run), but
           with the streaming checker riding the tracer sink.  The ring can
           stay tiny: the sink sees every event before eviction. *)
        List.init runs (fun i ->
            let s = seed + i in
            let tracer = Obs.Tracer.create ~capacity:(1 lsl 12) () in
            let ck = Obs.Online.create ~fail_fast () in
            Obs.Online.attach ck tracer;
            match
              Harness.Chaos.run_one ~config:(Core.Config.default mode) ~tracer
                ~batch_commit ~rolling knobs ~seed:s
            with
            | r ->
              (match Obs.Online.finish ck with
              | [] -> ()
              | violations ->
                checker_failed := true;
                List.iter
                  (fun v ->
                    Printf.eprintf "online checker (seed %d): %s\n" s
                      (Obs.Online.pp_violation v))
                  violations);
              r
            | exception Obs.Online.Violation v ->
              (* fail-fast: the checker aborted the run from inside the
                 emission path; dump the schedule for replay and stop. *)
              Printf.eprintf "online checker (seed %d, fail-fast): %s\n" s
                (Obs.Online.pp_violation v);
              Option.iter
                (fun path ->
                  let oc = open_out path in
                  Printf.fprintf oc "# seed %d (online checker fail-fast)\n%s\n" s
                    (Harness.Chaos.render_schedule (generate knobs ~seed:s));
                  close_out oc)
                failures_to;
              exit 1)
    in
    let failed = Harness.Chaos.failures results in
    if json then print_endline (Harness.Chaos.results_to_json results)
    else begin
      List.iter
        (fun r ->
          if verbose || not (Harness.Chaos.passed r) then
            Format.printf "%a@." Harness.Chaos.pp_result r)
        results;
      print_endline (Harness.Chaos.summary results)
    end;
    Option.iter
      (fun path ->
        if failed <> [] then begin
          let oc = open_out path in
          List.iter
            (fun (r : Harness.Chaos.result) ->
              Printf.fprintf oc "# seed %d\n%s\n" r.Harness.Chaos.seed
                (Harness.Chaos.render_schedule r.Harness.Chaos.events))
            failed;
          close_out oc
        end)
      failures_to;
    let checker_inconclusive = ref false in
    Option.iter
      (fun dir ->
        let to_dump = if trace_all then results else failed in
        if to_dump <> [] then begin
          (if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
          List.iter
            (fun (r : Harness.Chaos.result) ->
              let seed = r.Harness.Chaos.seed in
              let tracer = Obs.Tracer.create () in
              let replay =
                Harness.Chaos.run_one ~config:(Core.Config.default mode) ~tracer
                  ~batch_commit ~rolling knobs ~seed
              in
              warn_dropped tracer;
              let violations = Harness.Chaos.check_trace knobs tracer in
              let dropped = Obs.Tracer.dropped tracer in
              (* A truncated trace makes the offline verdict unreliable in
                 both directions — report inconclusive (exit 3), never a
                 silent pass or a spurious fail. *)
              if dropped > 0 then checker_inconclusive := true
              else if violations <> [] then checker_failed := true;
              let verdict =
                match (violations, dropped) with
                | [], 0 -> "checker: ok (0 violations)"
                | vs, 0 ->
                  String.concat "\n" (List.map Obs.Online.pp_violation vs)
                  ^ Printf.sprintf "\nchecker: %d violation(s)" (List.length vs)
                | vs, d ->
                  String.concat "\n" (List.map Obs.Online.pp_violation vs)
                  ^ Printf.sprintf
                      "\nchecker: INCONCLUSIVE — ring dropped %d events (%d \
                       violation(s) over the truncated trace are unreliable)"
                      d (List.length vs)
              in
              let prefix = Filename.concat dir (Printf.sprintf "seed-%d" seed) in
              write_file (prefix ^ ".trace.json") (Obs.Export.chrome_json tracer);
              write_file (prefix ^ ".txt")
                (Format.asprintf "%a@.%s@." Harness.Chaos.pp_result replay verdict);
              Printf.eprintf "traced seed %d -> %s.{trace.json,txt} (%d events, %d violations%s)\n"
                seed prefix (Obs.Tracer.length tracer) (List.length violations)
                (if dropped > 0 then ", INCONCLUSIVE" else ""))
            to_dump
        end)
      trace_dir;
    if failed <> [] || !checker_failed then exit 1;
    if !checker_inconclusive then exit 3
  in
  let info =
    Cmd.info "chaos"
      ~doc:"Run seeded random fault schedules and check safety + liveness oracles"
  in
  Cmd.v info
    Term.(
      const run $ runs_arg $ seed_arg $ nodes_arg $ clients_arg $ horizon_arg
      $ crashes_arg $ spares_arg $ reconfigs_arg $ rolling_arg $ mode_arg
      $ batch_commit_arg $ json_arg $ failures_arg $ verbose_arg $ show_arg
      $ trace_dir_arg $ trace_all_arg $ shards_arg $ shard_ops_arg
      $ cross_shard_prob_arg $ check_online_arg $ fail_fast_arg)

let all_cmd =
  let run scale jobs =
    set_jobs jobs;
    let scale = scale_of_string scale in
    List.iter print_series (Harness.Figures.everything ~scale ())
  in
  let info = Cmd.info "all" ~doc:"Regenerate every figure and table" in
  Cmd.v info Term.(const run $ scale_arg $ jobs_arg)

let main =
  let info =
    Cmd.info "qr-dtm"
      ~doc:"Quorum-based replicated DTM with closed nesting and checkpointing"
  in
  Cmd.group info
    [ figure_cmd; table_cmd; summary_cmd; run_cmd; scenario_cmd; trace_cmd; chaos_cmd; all_cmd ]

let () = exit (Cmd.eval main)
