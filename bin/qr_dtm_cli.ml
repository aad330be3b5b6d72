(* qr-dtm: regenerate the paper's figures/tables or run custom experiments.

   Examples:
     qr-dtm figure 5 --bench slist
     qr-dtm figure 10 --scale full
     qr-dtm table
     qr-dtm summary
     qr-dtm ablations
     qr-dtm run --bench bank --mode closed --reads 0.2 --calls 4
     qr-dtm scenario "crash 11 @500; recover 11 @2500; drop 0.05 @0"
     qr-dtm all --scale quick *)

open Cmdliner

let scale_arg =
  let doc = "Run scale: $(b,quick) (seconds per point) or $(b,full) (paper-like)." in
  let scales = [ ("quick", Harness.Figures.quick); ("full", Harness.Figures.full) ] in
  Arg.(value & opt (enum scales) Harness.Figures.quick & info [ "scale" ] ~docv:"SCALE" ~doc)

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
  let benches =
    List.map (fun (b : Benchmarks.Workload.benchmark) -> (b.name, b)) Benchmarks.Registry.all
  in
  Arg.(value & opt (some (enum benches)) None & info [ "bench" ] ~docv:"BENCH" ~doc)

let print_series series = print_string (Harness.Report.render series)

(* {2 The shared run flags}

   [run], [scenario], [trace] and [chaos] set up a run from the same
   flags, each defined once here.  A command passes its defaults as a
   [shared] record; a flag group it leaves out is not offered, and its
   fields keep those defaults. *)

type shared = {
  bench : Benchmarks.Workload.benchmark;
  mode : Core.Config.mode;
  nodes : int;
  clients : int;
  duration : float;
  seed : int;
  spares : int option;  (** [None] unless given *)
  shards : int;
  cross_shard_prob : float;
  shard_skew : float;
  objects : int option;  (** [None]: the benchmark's paper operating point *)
  calls : int;
  reads : float;
  skew : float;
  batch_commit : bool;
  check_online : bool;
}

(* The scenario command's defaults; a chaos repro line names every flag
   that differs from them. *)
let scenario_defaults =
  {
    bench = Benchmarks.Bank.benchmark;
    mode = Core.Config.Closed;
    nodes = 13;
    clients = 16;
    duration = 5_000.;
    seed = 97;
    spares = None;
    shards = 1;
    cross_shard_prob = 0.;
    shard_skew = 0.;
    objects = None;
    calls = 3;
    reads = 0.5;
    skew = 0.5;
    batch_commit = false;
    check_online = false;
  }

(* A run no cluster can take is a usage error (exit 124), caught before
   any command sets it up. *)
let shape_error (f : shared) =
  let outside_unit p = not (p >= 0. && p <= 1.) in
  match Core.View.layout_error ~nodes:f.nodes ~shards:f.shards with
  | Some msg -> Some (Printf.sprintf "--nodes %d --shards %d: %s" f.nodes f.shards msg)
  | None ->
    let least = f.bench.min_objects in
    if Option.fold ~none:false ~some:(fun n -> n < least) f.objects then
      Some (Printf.sprintf "--objects must be at least %d for %s" least f.bench.name)
    else if outside_unit f.reads then Some "--reads must be in [0, 1]"
    else if outside_unit f.cross_shard_prob then Some "--cross-shard-prob must be in [0, 1]"
    else None

let shared_term ?(bench = true) ?(duration = true) ?(spares = false) ?(sharding = true)
    ?(shard_skew = true) ?(checks = true) (d : shared) =
  let open Term.Syntax in
  let offered present default arg = if present then arg else Term.const default in
  Term.ret
  @@ let+ bench =
    offered bench d.bench (Term.map (Option.value ~default:d.bench) bench_arg)
  and+ mode =
    let doc = "Execution model: flat, closed or checkpoint." in
    let modes = List.map (fun m -> (Core.Config.mode_name m, m)) Harness.Figures.modes in
    Arg.(value & opt (enum modes) d.mode & info [ "mode" ] ~docv:"MODE" ~doc)
  and+ nodes = Arg.(value & opt int d.nodes & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  and+ clients =
    Arg.(value & opt int d.clients & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop clients.")
  and+ duration =
    offered duration d.duration
      Arg.(value & opt float d.duration & info [ "duration" ] ~docv:"MS" ~doc:"Window, ms.")
  and+ seed =
    let doc = "Run seed (chaos: the first seed; runs use SEED..SEED+N-1)." in
    Arg.(value & opt int d.seed & info [ "seed" ] ~docv:"SEED" ~doc)
  and+ spares =
    let doc =
      "Stand-by machines outside the initial view (join/replace targets); default 0, \
       or 2 for chaos --rolling."
    in
    offered spares d.spares Arg.(value & opt (some int) None & info [ "spares" ] ~docv:"N" ~doc)
  and+ shards =
    let doc =
      "Shards the object space is partitioned into (each shard runs its own \
       member view, epoch and tree quorum; needs at least 3 nodes per shard). \
       1 reproduces the unsharded protocol byte-for-byte."
    in
    offered sharding d.shards Arg.(value & opt int d.shards & info [ "shards" ] ~docv:"N" ~doc)
  and+ cross_shard_prob =
    let doc =
      "Fraction of workload operations steered across shard boundaries \
       (bank transfer pairs spanning two shards; hashmap keys homed on a \
       drawn shard).  Requires --shards > 1 to have any effect."
    in
    offered sharding d.cross_shard_prob
      Arg.(value & opt float d.cross_shard_prob & info [ "cross-shard-prob" ] ~docv:"P" ~doc)
  and+ shard_skew =
    let doc = "Zipf skew of the target-shard draw on cross-shard operations (0 = uniform)." in
    offered (sharding && shard_skew) d.shard_skew
      Arg.(value & opt float d.shard_skew & info [ "shard-skew" ] ~docv:"S" ~doc)
  and+ objects =
    Arg.(value & opt (some int) d.objects & info [ "objects" ] ~docv:"N" ~doc:"Population size.")
  and+ calls =
    Arg.(value & opt int d.calls & info [ "calls" ] ~docv:"N" ~doc:"Closed-nested calls per txn.")
  and+ reads =
    Arg.(value & opt float d.reads & info [ "reads" ] ~docv:"R" ~doc:"Read ratio in [0,1].")
  and+ skew = Arg.(value & opt float d.skew & info [ "skew" ] ~docv:"S" ~doc:"Zipf key skew.")
  and+ batch_commit =
    let doc =
      "Speculative batch-commit mode (PROTOCOL.md §9): coordinators queue commit \
       requests and decide each batch with a single quorum round; queued successors \
       read predecessors' uncommitted write images speculatively."
    in
    offered checks d.batch_commit Arg.(value & flag & info [ "batch-commit" ] ~doc)
  and+ check_online =
    let doc =
      "Attach the online protocol checker (Obs.Online) through a tracer sink: every \
       rule is checked as events stream, with memory bounded by in-flight \
       transactions, immune to ring truncation.  Voter sets are checked against the \
       tree's structural write-quorum rule when there is one shard and the faults are \
       message faults only (loss, duplication, spikes, flaky links), by pairwise \
       intersection otherwise.  Any violation exits 1."
    in
    offered checks d.check_online Arg.(value & flag & info [ "check-online" ] ~doc)
  in
  let f =
    {
      bench;
      mode;
      nodes;
      clients;
      duration;
      seed;
      spares;
      shards;
      cross_shard_prob;
      shard_skew;
      objects;
      calls;
      reads;
      skew;
      batch_commit;
      check_online;
    }
  in
  match shape_error f with Some msg -> `Error (true, msg) | None -> `Ok f

let spec_of ?(tracer = Obs.Tracer.null) f =
  Harness.Experiment.spec ~nodes:f.nodes
    ~spares:(Option.value f.spares ~default:0)
    ~seed:f.seed ~tracer ~batch_commit:f.batch_commit ~shards:f.shards
    ~config:(Core.Config.default f.mode) ~benchmark:f.bench
    ~params:
      {
        Benchmarks.Workload.objects =
          Option.value f.objects ~default:(Harness.Figures.benchmark_objects f.bench.name);
        calls = f.calls;
        read_ratio = f.reads;
        key_skew = f.skew;
        cross_shard_prob = f.cross_shard_prob;
        shard_skew = f.shard_skew;
      }
    ()

(* The [qr-dtm scenario] command that replays a chaos run of [events]
   from flags [f] over [horizon] ms: every flag whose value differs from
   the scenario command's default. *)
let repro_line f ~horizon ~seed events =
  let s = spec_of f and d = spec_of scenario_defaults in
  let num = Harness.Scenario.float_to_string in
  let flag name show value default = if value = default then [] else [ name; show value ] in
  let switch name on = if on then [ name ] else [] in
  String.concat " "
    ([ "qr-dtm"; "scenario"; "'" ^ Harness.Scenario.to_string events ^ "'"; "--seed";
       string_of_int seed ]
    @ flag "--bench" Fun.id s.benchmark.name d.benchmark.name
    @ flag "--mode" Core.Config.mode_name f.mode scenario_defaults.mode
    @ flag "--nodes" string_of_int s.nodes d.nodes
    @ flag "--clients" string_of_int f.clients scenario_defaults.clients
    @ flag "--duration" num horizon scenario_defaults.duration
    @ flag "--spares" string_of_int s.spares d.spares
    @ flag "--shards" string_of_int s.shards d.shards
    @ flag "--cross-shard-prob" num s.params.cross_shard_prob d.params.cross_shard_prob
    @ flag "--shard-skew" num s.params.shard_skew d.params.shard_skew
    @ flag "--objects" string_of_int s.params.objects d.params.objects
    @ flag "--calls" string_of_int s.params.calls d.params.calls
    @ flag "--reads" num s.params.read_ratio d.params.read_ratio
    @ flag "--skew" num s.params.key_skew d.params.key_skew
    @ switch "--batch-commit" f.batch_commit
    @ switch "--check-online" f.check_online)

(* {2 The online checker}

   One helper for run, scenario and chaos.  The structural write-quorum
   rule holds only while every shard sees one static, fully live view of
   one tree: quorum construction lets a suspected leaf drop out, and a view
   change rebuilds the tree.  So it applies to a single shard whose fault
   spec has only message faults (loss, duplication, spikes, flaky links);
   a crash, suspicion, partition, membership or shard event switches the
   checker to pairwise intersection of voter sets.  The ring can stay
   tiny: the sink sees every event before eviction. *)

let structural_rule ~nodes =
  let tree = Quorum.Tree.create ~nodes () in
  fun set -> Quorum.Check.covers_write_quorum tree set

let changes_view = function
  | Harness.Scenario.Drop _ | Duplicate _ | Spike _ | Flaky _ -> false
  | Crash _ | Recover _ | Suspect _ | Partition _ | Join _ | Leave _ | Replace _
  | ShardMove _ | ShardSplit _ ->
    true

let online_checker ?(fail_fast = false) f events =
  if not f.check_online then (Obs.Tracer.null, None)
  else begin
    let is_write_quorum =
      if f.shards = 1 && not (List.exists changes_view events) then
        Some (structural_rule ~nodes:f.nodes)
      else None
    in
    let tracer = Obs.Tracer.create ~capacity:(1 lsl 12) () in
    let checker = Obs.Online.create ?is_write_quorum ~fail_fast () in
    Obs.Online.attach checker tracer;
    (tracer, Some checker)
  end

(* Print the checker's verdict on stderr; [true] when it saw no violation. *)
let online_clean ?(who = "online checker") checker =
  match Obs.Online.finish checker with
  | [] ->
    Format.eprintf "%s: ok (%d events, 0 violations)@." who
      (Obs.Online.events_seen checker);
    true
  | violations ->
    List.iter (fun v -> Format.eprintf "%s: %s@." who (Obs.Online.pp_violation v)) violations;
    Format.eprintf "%s: %d violation(s)@." who (List.length violations);
    false

(* The end of a [run] or [scenario]: the checker's verdict, then exit 1
   unless the run [passed] (invariant, oracle, no stall) and the checker
   saw no violation. *)
let finish ~passed online =
  let clean = Option.fold ~none:true ~some:(fun ck -> online_clean ck) online in
  if not (passed && clean) then exit 1

let figure_cmd =
  let number_arg =
    let doc = "Figure number: 5, 6, 7, 9 or 10." in
    let figures = List.map (fun n -> (string_of_int n, n)) [ 5; 6; 7; 9; 10 ] in
    Arg.(required & pos 0 (some (enum figures)) None & info [] ~docv:"N" ~doc)
  in
  let run number scale bench jobs =
    set_jobs jobs;
    let benchmarks =
      match bench with Some b -> [ b ] | None -> Benchmarks.Registry.paper_suite
    in
    let per_benchmark fig = List.iter (fun benchmark -> print_series (fig benchmark)) benchmarks in
    match number with
    | 5 -> per_benchmark (fun benchmark -> Harness.Figures.fig5 ~scale ~benchmark ())
    | 6 -> per_benchmark (fun benchmark -> Harness.Figures.fig6 ~scale ~benchmark ())
    | 7 -> per_benchmark (fun benchmark -> Harness.Figures.fig7 ~scale ~benchmark ())
    | 9 -> List.iter print_series (Harness.Figures.fig9 ~scale ())
    | _ (* 10: the enum admits nothing else *) -> print_series (Harness.Figures.fig10 ~scale ())
  in
  let info = Cmd.info "figure" ~doc:"Regenerate one of the paper's figures" in
  Cmd.v info Term.(const run $ number_arg $ scale_arg $ bench_arg $ jobs_arg)

let table_cmd =
  let run scale jobs =
    set_jobs jobs;
    print_series (Harness.Figures.table8 ~scale ())
  in
  let info = Cmd.info "table" ~doc:"Regenerate the abort/message table (paper Fig. 8)" in
  Cmd.v info Term.(const run $ scale_arg $ jobs_arg)

let summary_cmd =
  let run scale jobs =
    set_jobs jobs;
    print_series (Harness.Figures.summary ~scale ())
  in
  let info = Cmd.info "summary" ~doc:"Headline paper-claim aggregates" in
  Cmd.v info Term.(const run $ scale_arg $ jobs_arg)

let ablations_cmd =
  let run scale jobs =
    set_jobs jobs;
    List.iter print_series (Harness.Figures.ablations ~scale ())
  in
  let info = Cmd.info "ablations" ~doc:"Ablations of the design choices DESIGN.md calls out" in
  Cmd.v info Term.(const run $ scale_arg $ jobs_arg)

let run_cmd =
  (* The load: closed-loop --clients, or open-loop arrivals when
     --open-loop is given; a load the library would reject is a usage
     error. *)
  let load_term =
    let open Term.Syntax in
    Term.ret
    @@ let+ open_loop =
      let doc =
        "Open-loop mode: Poisson arrivals at $(docv) requests per second of simulated \
         time over a logical client population (--population), instead of closed-loop \
         clients.  Reports p50/p95/p99 service latency and queueing delay separately."
      in
      Arg.(value & opt (some float) None & info [ "open-loop" ] ~docv:"RATE" ~doc)
    and+ population =
      let doc =
        "Logical client population for --open-loop (clients are lazy: no per-client state)."
      in
      Arg.(value & opt int 1_000_000 & info [ "population" ] ~docv:"N" ~doc)
    and+ max_per_node =
      let doc =
        "Admission cap per node for --open-loop; arrivals beyond it queue and accrue \
         queueing delay."
      in
      Arg.(value & opt int 4 & info [ "max-per-node" ] ~docv:"N" ~doc)
    in
    match open_loop with
    | None -> `Ok None
    | Some rate -> (
      let load = Harness.Experiment.Open { rate; population; max_per_node } in
      match Harness.Experiment.load_error load with
      | Some msg ->
        `Error
          ( true,
            Printf.sprintf "--open-loop %g --population %d --max-per-node %d: %s" rate
              population max_per_node msg )
      | None -> `Ok (Some load))
  in
  let run f open_load =
    let tracer, online = online_checker f [] in
    let closed = Harness.Experiment.Closed { clients = f.clients; client_nodes = None } in
    let load = Option.value open_load ~default:closed in
    let r = Harness.Experiment.run ~load ~duration:f.duration (spec_of ~tracer f) in
    Format.printf "%a@." Harness.Experiment.pp_result r;
    finish ~passed:(Harness.Experiment.passed r) online
  in
  let info = Cmd.info "run" ~doc:"Run one custom experiment point" in
  Cmd.v info
    Term.(
      const run
      $ shared_term { scenario_defaults with clients = 26; duration = 10_000. }
      $ load_term)

let scenario_cmd =
  let events_arg =
    let doc =
      "Fault scenario, e.g. 'crash 11 @500; recover 11 @2500; drop 0.05 @0'. \
       Events: crash/recover/suspect N @T [for D], partition a,b|c,d @T for D, \
       drop/dup P @T [for D], spike P F @T [for D], flaky A-B P @T [for D], \
       join N @T, leave N @T, replace L J @T, shardmove OID S @T, shardsplit S @T."
    in
    let scenario =
      Arg.conv
        ( (fun s -> Result.map_error (fun m -> `Msg m) (Harness.Scenario.parse s)),
          fun ppf events -> Format.pp_print_string ppf (Harness.Scenario.to_string events) )
    in
    Arg.(required & pos 0 (some scenario) None & info [] ~docv:"SPEC" ~doc)
  in
  (* The schedule is checked once, by [Scenario.install] against the
     cluster's view after setup, before any simulated event runs. *)
  let rejected = "Scenario.install: " in
  let run events f =
    let tracer, online = online_checker f events in
    match
      Harness.Chaos.run ~clients:f.clients ~horizon:f.duration (spec_of ~tracer f) events
    with
    | exception Invalid_argument msg when String.starts_with ~prefix:rejected msg ->
      let n = String.length rejected in
      `Error (false, "bad scenario: " ^ String.sub msg n (String.length msg - n))
    | r ->
      Format.printf "%a@.%a@.%a@." Harness.Experiment.pp_result r.run
        Harness.Scenario.pp_report (Option.get r.run.report) Harness.Chaos.pp_result r;
      finish ~passed:(Harness.Chaos.passed r) online;
      `Ok ()
  in
  let info =
    Cmd.info "scenario"
      ~doc:"Run a workload under an injected fault scenario (crashes, partitions, loss, \
            membership changes, shard moves/splits), exactly as chaos runs a schedule: \
            clients on every node, no warm-up, --duration ms of load"
  in
  Cmd.v info Term.(ret (const run $ events_arg $ shared_term ~spares:true scenario_defaults))

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* The checker is the tracer's sink, so only the exported trace loses
   what the ring evicts. *)
let warn_dropped tracer =
  let dropped = Obs.Tracer.dropped tracer in
  if dropped > 0 then
    Printf.eprintf
      "warning: trace ring buffer overflowed, %d oldest events dropped from the \
       exported trace (trace --trace-capacity raises the ring's size)\n"
      dropped

let trace_cmd =
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
    let doc =
      "Check the protocol invariants on every event as the run emits it, with the \
       structural write-quorum rule; exit 1 on violations."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run f txn out telemetry window capacity check =
    let tracer = Obs.Tracer.create ~capacity () in
    let checker =
      if not check then None
      else begin
        let checker = Obs.Online.create ~is_write_quorum:(structural_rule ~nodes:f.nodes) () in
        Obs.Online.attach checker tracer;
        Some checker
      end
    in
    let tele = Option.map (fun _ -> Obs.Telemetry.create ~window) telemetry in
    let result =
      Harness.Experiment.run
        ~load:(Closed { clients = f.clients; client_nodes = None })
        ~duration:f.duration ?telemetry:tele (spec_of ~tracer f)
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
    Option.iter (fun checker -> if not (online_clean ~who:"checker" checker) then exit 1) checker
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
      const run
      $ shared_term ~sharding:false ~checks:false { scenario_defaults with clients = 26 }
      $ txn_arg $ out_arg $ telemetry_arg $ window_arg $ capacity_arg $ check_arg)

(* Chaos's workload is {!Harness.Chaos.default_spec}'s, with 18 clients. *)
let chaos_defaults =
  let s = Harness.Chaos.default_spec in
  let p = s.params in
  { scenario_defaults with mode = s.config.mode; nodes = s.nodes; clients = 18; seed = s.seed;
    objects = Some p.objects; calls = p.calls; reads = p.read_ratio; skew = p.key_skew }

let chaos_cmd =
  let runs_arg =
    Arg.(value & opt int 25 & info [ "runs" ] ~docv:"N" ~doc:"Seeded schedules to run.")
  in
  let horizon_arg =
    let doc = "Fault+load window, ms (default 8000, or 16000 with --rolling)." in
    Arg.(value & opt (some float) None & info [ "horizon" ] ~docv:"MS" ~doc)
  in
  let crashes_arg =
    Arg.(value & opt int 2 & info [ "max-crashes" ] ~docv:"N" ~doc:"Crash/recover pairs per schedule: 0..N.")
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
       (needs at least one spare; uses the rolling preset's spares and horizon unless \
       --spares or --horizon is given)."
    in
    Arg.(value & flag & info [ "rolling" ] ~doc)
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
       Chrome trace_event JSON, and the verdicts of the protocol checker, which sees \
       every event of the re-run."
    in
    Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)
  in
  let trace_all_arg =
    Arg.(value & flag & info [ "trace-all" ] ~doc:"With --trace-dir: dump every seed, not just failures.")
  in
  let fail_fast_arg =
    let doc =
      "With --check-online: abort at the first violation, mid-run — the \
       offending seed's schedule is written to --failures-to before exiting."
    in
    Arg.(value & flag & info [ "fail-fast" ] ~doc)
  in
  let run f runs horizon max_crashes reconfigs shard_ops rolling json failures_to verbose
      show trace_dir trace_all fail_fast =
    let preset = if rolling then Harness.Chaos.rolling_knobs else Harness.Chaos.default_knobs in
    let knobs =
      {
        Harness.Chaos.horizon = Option.value horizon ~default:preset.horizon;
        max_crashes = (if rolling then min max_crashes preset.max_crashes else max_crashes);
        reconfigs;
        shard_ops;
      }
    in
    let f = { f with spares = Some (Option.value f.spares ~default:(if rolling then 2 else 0)) } in
    let spec_at ?tracer seed = { (spec_of ?tracer f) with seed } in
    let generate = if rolling then Harness.Chaos.generate_rolling else Harness.Chaos.generate in
    let repro seed events = repro_line f ~horizon:knobs.horizon ~seed events in
    match List.init runs (fun i -> generate knobs (spec_at (f.seed + i))) with
    | exception Invalid_argument msg -> `Error (false, msg)
    | schedules when show ->
      List.iteri
        (fun i events ->
          Printf.printf "seed %d: %s\n" (f.seed + i) (Harness.Scenario.to_string events))
        schedules;
      `Ok ()
    | schedules ->
      let checker_failed = ref false in
      let results =
        List.mapi
          (fun i events ->
            let seed = f.seed + i in
            (* Same seeds, same verdicts: tracing never perturbs a run. *)
            let tracer, online = online_checker ~fail_fast f events in
            match
              Harness.Chaos.run ~clients:f.clients ~horizon:knobs.horizon (spec_at ~tracer seed)
                events
            with
            | r ->
              let who = Printf.sprintf "online checker (seed %d)" seed in
              Option.iter
                (fun ck -> if not (online_clean ~who ck) then checker_failed := true)
                online;
              r
            | exception Obs.Online.Violation v ->
              (* fail-fast: the checker aborted the run from inside the
                 emission path; write the repro line and stop. *)
              Printf.eprintf "online checker (seed %d, fail-fast): %s\n" seed
                (Obs.Online.pp_violation v);
              Option.iter
                (fun path ->
                  write_file path
                    (Printf.sprintf "# seed %d (online checker fail-fast)\n%s\n" seed
                       (repro seed events)))
                failures_to;
              exit 1)
          schedules
      in
      let failed = Harness.Chaos.failures results in
      if json then print_endline (Harness.Chaos.results_to_json results)
      else begin
        List.iter
          (fun (r : Harness.Chaos.result) ->
            if verbose || not (Harness.Chaos.passed r) then
              Format.printf "%a@.%s@." Harness.Chaos.pp_result r (repro r.seed r.events))
          results;
        print_endline (Harness.Chaos.summary results)
      end;
      Option.iter
        (fun path ->
          if failed <> [] then
            write_file path
              (String.concat ""
                 (List.map
                    (fun (r : Harness.Chaos.result) ->
                      Printf.sprintf "# seed %d\n%s\n" r.seed (repro r.seed r.events))
                    failed)))
        failures_to;
      Option.iter
        (fun dir ->
          let to_dump = if trace_all then results else failed in
          if to_dump <> [] then begin
            (if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
            List.iter
              (fun (r : Harness.Chaos.result) ->
                let seed = r.seed in
                let tracer = Obs.Tracer.create () in
                (* Chaos changes the view mid-run and the trace does not
                   record it, so the checker validates voter sets by its
                   view-independent rule: pairwise intersection. *)
                let checker = Obs.Online.create () in
                Obs.Online.attach checker tracer;
                let replay =
                  Harness.Chaos.run ~clients:f.clients ~horizon:knobs.horizon
                    (spec_at ~tracer seed) r.events
                in
                warn_dropped tracer;
                let violations = Obs.Online.finish checker in
                if violations <> [] then checker_failed := true;
                let verdict =
                  match violations with
                  | [] -> "checker: ok (0 violations)"
                  | vs ->
                    String.concat "\n" (List.map Obs.Online.pp_violation vs)
                    ^ Printf.sprintf "\nchecker: %d violation(s)" (List.length vs)
                in
                let prefix = Filename.concat dir (Printf.sprintf "seed-%d" seed) in
                write_file (prefix ^ ".trace.json") (Obs.Export.chrome_json tracer);
                write_file (prefix ^ ".txt")
                  (Format.asprintf "%a@.%s@." Harness.Chaos.pp_result replay verdict);
                Printf.eprintf "traced seed %d -> %s.{trace.json,txt} (%d events, %d violations)\n"
                  seed prefix (Obs.Tracer.length tracer) (List.length violations))
              to_dump
          end)
        trace_dir;
      if failed <> [] || !checker_failed then exit 1;
      `Ok ()
  in
  let info =
    Cmd.info "chaos"
      ~doc:"Run seeded random fault schedules and check safety + liveness oracles"
  in
  Cmd.v info
    Term.(
      ret
        (const run
        $ shared_term ~bench:false ~duration:false ~spares:true ~shard_skew:false
            chaos_defaults
        $ runs_arg $ horizon_arg $ crashes_arg $ reconfigs_arg $ shard_ops_arg
        $ rolling_arg $ json_arg $ failures_arg $ verbose_arg $ show_arg $ trace_dir_arg
        $ trace_all_arg $ fail_fast_arg))

let all_cmd =
  let run scale jobs =
    set_jobs jobs;
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
    [ figure_cmd; table_cmd; summary_cmd; ablations_cmd; run_cmd; scenario_cmd; trace_cmd;
      chaos_cmd; all_cmd ]

let () = exit (Cmd.eval main)
