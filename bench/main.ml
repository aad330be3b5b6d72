(* Wall-clock benchmark harness.

   Entry points:

   1. Default: Bechamel micro-benchmarks of the core operations.
   2. `wall`: wall-clock benchmark of the figure-regeneration suite at
      --jobs 1 vs --jobs N, verifying byte-identical output, plus the
      simulator hot path's throughput and GC words per committed
      transaction, emitting BENCH_harness.json (see EXPERIMENTS.md for the
      format).

   Simulated figures come from `qr-dtm all` and `qr-dtm ablations`;
   `dune runtest` pins the headline ones and checks the batch-speedup and
   open-loop saturation gates.

   Run with: dune exec bench/main.exe -- [wall] [--jobs N]
                                          [--scale quick|full] [--out FILE] *)

open Core

(* --- command line ------------------------------------------------------ *)

type cli = {
  mutable wall : bool;
  mutable jobs : int;
  mutable scale_name : string;
  mutable out : string;
  mutable baseline : string option;
  mutable max_regression : float;
  mutable max_traced_overhead : float;
  mutable max_alloc_regression : float;
}

let cli =
  {
    wall = false;
    jobs = Harness.Pool.default_jobs ();
    scale_name = "quick";
    out = "BENCH_harness.json";
    baseline = None;
    max_regression = 2.0;
    max_traced_overhead = 15.0;
    max_alloc_regression = 20.0;
  }

let usage () =
  prerr_endline
    "usage: bench/main.exe [wall] [--jobs N] [--scale quick|full] [--out FILE]\n\
    \                      [--baseline FILE] [--max-regression PCT]\n\
    \                      [--max-traced-overhead PCT] [--max-alloc-regression PCT]";
  exit 2

let () =
  let rec parse = function
    | [] -> ()
    | "wall" :: rest -> cli.wall <- true; parse rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with Some j when j >= 1 -> cli.jobs <- j | _ -> usage ());
      parse rest
    | "--scale" :: s :: rest ->
      if s = "quick" || s = "full" then cli.scale_name <- s else usage ();
      parse rest
    | "--out" :: file :: rest -> cli.out <- file; parse rest
    | "--baseline" :: file :: rest -> cli.baseline <- Some file; parse rest
    | "--max-regression" :: p :: rest ->
      (match float_of_string_opt p with Some v when v > 0. -> cli.max_regression <- v | _ -> usage ());
      parse rest
    | "--max-traced-overhead" :: p :: rest ->
      (match float_of_string_opt p with
      | Some v when v > 0. -> cli.max_traced_overhead <- v
      | _ -> usage ());
      parse rest
    | "--max-alloc-regression" :: p :: rest ->
      (match float_of_string_opt p with
      | Some v when v > 0. -> cli.max_alloc_regression <- v
      | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv))

(* Satellite of the zero-allocation work: asking for more workers than the
   machine has cores used to *slow the bench down* (domains time-slicing one
   core) and then fail the speedup sanity check.  Record what was asked and
   what was granted; skip the parallel pass entirely on a single core. *)
let jobs_requested = cli.jobs
let jobs_effective = Stdlib.max 1 (Stdlib.min cli.jobs (Harness.Pool.default_jobs ()))

let scale =
  if cli.scale_name = "full" then Harness.Figures.full else Harness.Figures.quick

(* --- Bechamel micro-benchmarks ----------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let tree_quorum =
    let tq = Quorum.Tree_quorum.create ~nodes:40 () in
    Test.make ~name:"tree_quorum.read+write" (Staged.stage (fun () ->
        ignore (Quorum.Tree_quorum.read_quorum ~salt:3 tq);
        ignore (Quorum.Tree_quorum.write_quorum ~salt:3 tq)))
  in
  let replica_ops =
    let store = Store.Replica.create () in
    for oid = 0 to 255 do
      Store.Replica.ensure store ~oid ~init:(Store.Value.Int oid)
    done;
    let counter = ref 0 in
    Test.make ~name:"replica.lock+apply" (Staged.stage (fun () ->
        let oid = !counter land 255 in
        incr counter;
        ignore (Store.Replica.try_lock store ~oid ~txn:1);
        Store.Replica.apply store ~oid ~version:(!counter) ~value:(Store.Value.Int !counter)
          ~txn:1))
  in
  (* Every call applies a transaction never seen before to a replica whose
     applied-evidence window is already full, so each one evicts. *)
  let replica_apply_full =
    let store = Store.Replica.create () in
    for oid = 0 to 255 do
      Store.Replica.ensure store ~oid ~init:(Store.Value.Int oid)
    done;
    let txn = ref 0 in
    for _ = 1 to 4096 do
      incr txn;
      Store.Replica.apply store ~oid:(!txn land 255) ~version:!txn ~value:Store.Value.Unit ~txn:!txn
    done;
    Test.make ~name:"replica.apply (full window)" (Staged.stage (fun () ->
        incr txn;
        Store.Replica.apply store ~oid:(!txn land 255) ~version:!txn ~value:Store.Value.Unit
          ~txn:!txn))
  in
  (* A speculative chain of four entries, each reading the version its
     predecessor installs on a shared object and a private object of its
     own, then the Releases (newest first) that free the chain, so every run
     finds the replica in the same state. *)
  let server_batch_commit =
    let store = Store.Replica.create () in
    for oid = 0 to 31 do
      Store.Replica.ensure store ~oid ~init:Store.Value.Unit
    done;
    let server = Server.create ~node:0 ~store in
    let txns = [| 11; 12; 13; 14 |] in
    let dataset =
      Messages.dataset_of_list
        (List.concat_map
           (fun i ->
             [ { Messages.oid = 3; version = i; owner = 0 }; { oid = 10 + i; version = 0; owner = 0 } ])
           [ 0; 1; 2; 3 ])
    in
    let writes =
      Messages.writes_of_list (List.map (fun i -> (3, i + 1, Store.Value.Unit)) [ 0; 1; 2; 3 ])
    in
    let round = ref 0 in
    Test.make ~name:"server.batch_commit (4 entries)" (Staged.stage (fun () ->
        incr round;
        let round = !round in
        ignore
          (Server.handle server ~src:1
             (Messages.Batch_commit_req
                {
                  txns;
                  rounds = Array.make 4 round;
                  ds_offsets = [| 0; 2; 4; 6; 8 |];
                  dataset;
                  wr_offsets = [| 0; 1; 2; 3; 4 |];
                  writes;
                  decided = [||];
                }));
        for i = 3 downto 0 do
          ignore
            (Server.handle server ~src:1 (Messages.Release { txn = txns.(i); oids = [ 3 ]; round }))
        done))
  in
  let rqv_validate =
    let store = Store.Replica.create () in
    for oid = 0 to 31 do
      Store.Replica.ensure store ~oid ~init:Store.Value.Unit
    done;
    let dataset =
      Messages.dataset_of_list
        (List.init 16 (fun oid -> { Messages.oid; version = 0; owner = oid land 3 }))
    in
    Test.make ~name:"rqv.validate(16 entries)" (Staged.stage (fun () ->
        ignore (Rqv.validate store ~txn:1 ~dataset)))
  in
  let rwset_ops =
    Test.make ~name:"rwset.add x16 + merge" (Staged.stage (fun () ->
        let set =
          List.fold_left
            (fun s oid ->
              Rwset.add s { Rwset.oid; version = 0; value = Store.Value.Int oid; owner = 0 })
            Rwset.empty
            (List.init 16 Fun.id)
        in
        ignore (Rwset.merge_into ~child:set ~parent:set)))
  in
  let rng_ops =
    let rng = Util.Rng.create 5 in
    Test.make ~name:"rng.zipf" (Staged.stage (fun () -> ignore (Util.Rng.zipf rng ~n:256 ~skew:0.8)))
  in
  (* Dispatch against a standing queue: each run schedules one event and
     fires the earliest, so 256 stay pending and every event sifts through
     a heap of that depth (layerbench's [engine.dispatch_ns] runs on a
     one-event heap and sees no sift at all). *)
  let engine_dispatch =
    let engine = Sim.Engine.create () in
    let noop () = () in
    let k = ref 0 in
    let next_delay () =
      incr k;
      Float.of_int ((!k * 97) land 255)
    in
    for _ = 1 to 256 do
      Sim.Engine.schedule engine ~delay:(next_delay ()) noop
    done;
    Test.make ~name:"engine.dispatch (256 pending)" (Staged.stage (fun () ->
        Sim.Engine.schedule engine ~delay:(next_delay ()) noop;
        ignore (Sim.Engine.step engine)))
  in
  let txn_interpret =
    let cluster = Cluster.create ~nodes:13 ~seed:77 ~with_oracle:false (Config.default Config.Closed) in
    let oid = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
    Test.make ~name:"cluster.txn end-to-end" (Staged.stage (fun () ->
        ignore (Cluster.run_program cluster ~node:3 (fun () -> Txn.read oid))))
  in
  [
    tree_quorum;
    replica_ops;
    replica_apply_full;
    server_batch_commit;
    rqv_validate;
    rwset_ops;
    rng_ops;
    engine_dispatch;
    txn_interpret;
  ]

let micro () =
  let open Bechamel in
  print_endline "==================================================================";
  print_endline "Bechamel micro-benchmarks (ns per run, OLS fit)";
  print_endline "==================================================================";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysis = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> Printf.sprintf "%12.1f ns/run" e
            | Some _ | None -> "(no estimate)"
          in
          Printf.printf "%-32s %s\n%!" name estimate)
        analysis)
    (micro_tests ())

(* --- wall-clock bench (`wall` mode) ------------------------------------ *)

(* The figure-regeneration suite rendered to one string: the unit of work
   the wall bench times, and the artifact the jobs-1-vs-N identity check
   compares byte for byte. *)
let render_everything () =
  let series = Harness.Figures.everything ~scale () in
  String.concat "" (List.map Harness.Report.render series)

let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (Unix.gettimeofday () -. t0, result)

(* Raw simulator event throughput: drive a closed-loop bank workload for a
   fixed stretch of virtual time and divide dispatched events by wall
   seconds.  This isolates the per-event constant factor from the
   parallel-harness speedup.  [tracer] lets the wall bench measure the cost
   of lifecycle tracing (enabled vs the default null tracer); the commit
   latency percentiles of the workload and the GC allocation counters over
   the measured stretch ride along for BENCH_harness.json. *)
type eps_stats = {
  eps : float;
  events : int;
  commits : int;
  minor_words_per_commit : float;
  major_words_per_commit : float;
  promoted_words_per_commit : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let events_per_second ?(tracer = Obs.Tracer.null) () =
  let cluster =
    Cluster.create ~nodes:13 ~seed:11 ~with_oracle:false ~tracer
      (Config.default Config.Closed)
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
      let program () =
        Benchmarks.Bank.transfer ~from_:accounts.(i) ~to_:accounts.(j) ~amount:1
      in
      Cluster.submit cluster ~node program ~on_done:(fun _ -> client node r)
    end
  in
  for c = 0 to 25 do
    client (c mod 13) (Util.Rng.split rng)
  done;
  (* GC deltas bracket exactly the measured stretch (setup allocations and
     the drain are excluded), so words/commit reflects steady state. *)
  let stat0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let wall, () = timed (fun () -> Cluster.run_for cluster 10_000.) in
  let minor1 = Gc.minor_words () in
  let stat1 = Gc.quick_stat () in
  stop := true;
  Cluster.drain cluster;
  let events = Sim.Engine.events_processed (Cluster.engine cluster) in
  let metrics = Cluster.metrics cluster in
  let commits = Metrics.commits metrics in
  let per_commit w = w /. Float.of_int (Stdlib.max 1 commits) in
  {
    eps = Float.of_int events /. wall;
    events;
    commits;
    minor_words_per_commit = per_commit (minor1 -. minor0);
    major_words_per_commit = per_commit (stat1.Gc.major_words -. stat0.Gc.major_words);
    promoted_words_per_commit =
      per_commit (stat1.Gc.promoted_words -. stat0.Gc.promoted_words);
    p50 = Metrics.latency_percentile metrics 50.;
    p95 = Metrics.latency_percentile metrics 95.;
    p99 = Metrics.latency_percentile metrics 99.;
  }

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Pull one numeric field out of a previous BENCH_harness.json without a
   JSON dependency: find the quoted key, parse the float after the colon. *)
let baseline_field path key =
  let contents =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let needle = Printf.sprintf "\"%s\":" key in
  let n = String.length contents and m = String.length needle in
  let rec find i =
    if i + m > n then None
    else if String.sub contents i m = needle then Some (i + m)
    else find (i + 1)
  in
  Option.bind (find 0) (fun start ->
      let stop = ref start in
      while !stop < n && not (List.mem contents.[!stop] [ ','; '\n'; '}' ]) do
        incr stop
      done;
      float_of_string_opt (String.trim (String.sub contents start (!stop - start))))

(* JSON tail: simulator throughput, tracing overhead, latency and
   allocation-rate fields, so the CI gate can diff the artifact against a
   cached baseline. *)
let emit_sim_fields oc ~(untraced : eps_stats) ~(traced : eps_stats)
    ~tracing_overhead_pct =
  Printf.fprintf oc
    "  \"events_per_second\": %.1f,\n\
    \  \"events_per_second_traced\": %.1f,\n\
    \  \"tracing_overhead_pct\": %.2f,\n\
    \  \"latency_p50_ms\": %.3f,\n\
    \  \"latency_p95_ms\": %.3f,\n\
    \  \"latency_p99_ms\": %.3f,\n\
    \  \"events_measured\": %d,\n\
    \  \"commits_measured\": %d,\n\
    \  \"minor_words_per_commit\": %.1f,\n\
    \  \"major_words_per_commit\": %.1f,\n\
    \  \"promoted_words_per_commit\": %.1f,\n\
    \  \"minor_words_per_commit_traced\": %.1f,\n\
    \  \"jobs_requested\": %d,\n\
    \  \"jobs_effective\": %d,\n\
    \  \"available_cores\": %d\n"
    untraced.eps traced.eps tracing_overhead_pct untraced.p50 untraced.p95
    untraced.p99 untraced.events untraced.commits untraced.minor_words_per_commit
    untraced.major_words_per_commit untraced.promoted_words_per_commit
    traced.minor_words_per_commit jobs_requested jobs_effective
    (Harness.Pool.default_jobs ())

(* Measure untraced and traced hot-path stats; the delta is the cost of
   emitting ~1 ring-buffer write per protocol step.  The headline
   [events_per_second] stays the tracing-disabled figure — the
   zero-overhead-when-disabled claim is what the --baseline gate guards.

   One stretch is ~160k events, a fraction of a second, so a single
   untraced/traced pair mostly measures host noise (on a 2-core host,
   single pairs on the same code read from -0.9% to 27.7%).  The stretches alternate, so a
   slow patch of the host hits both sides, and each side reports its
   median stretch. *)
let stretches = 11

let measure_simulator () =
  let pairs =
    List.init stretches (fun _ ->
        let untraced = events_per_second () in
        (untraced, events_per_second ~tracer:(Obs.Tracer.create ()) ()))
  in
  let median runs =
    List.nth (List.sort (fun a b -> Float.compare a.eps b.eps) runs) (stretches / 2)
  in
  let untraced = median (List.map fst pairs) and traced = median (List.map snd pairs) in
  let overhead (untraced : eps_stats) (traced : eps_stats) =
    if traced.eps > 0. then ((untraced.eps /. traced.eps) -. 1.) *. 100. else 0.
  in
  let tracing_overhead_pct = overhead untraced traced in
  Printf.printf "  simulator: %.0f events/s (%d events, bank workload, median of %d)\n%!"
    untraced.eps untraced.events stretches;
  Printf.printf "  simulator (traced): %.0f events/s (tracing overhead %.2f%%)\n%!"
    traced.eps tracing_overhead_pct;
  Printf.printf "  tracing overhead per pair:%s\n%!"
    (String.concat ""
       (List.map (fun (u, t) -> Printf.sprintf " %.1f%%" (overhead u t)) pairs));
  Printf.printf
    "  allocation: %.0f minor + %.0f major words/commit, %.0f promoted (traced: %.0f \
     minor)\n%!"
    untraced.minor_words_per_commit untraced.major_words_per_commit
    untraced.promoted_words_per_commit traced.minor_words_per_commit;
  Printf.printf "  commit latency: p50=%.1f p95=%.1f p99=%.1f ms (simulated)\n%!"
    untraced.p50 untraced.p95 untraced.p99;
  (untraced, traced, tracing_overhead_pct)

(* The regression gates of `wall`.  A baseline written
   before this bench grew a field reports "n/a" and skips that check rather
   than comparing against nan or 0. *)
let run_gates ~(untraced : eps_stats) ~tracing_overhead_pct =
  if tracing_overhead_pct > cli.max_traced_overhead then begin
    Printf.eprintf "FAIL: tracing overhead %.2f%% exceeds limit %.1f%%\n"
      tracing_overhead_pct cli.max_traced_overhead;
    exit 1
  end;
  Option.iter
    (fun path ->
      let audit key ~current ~limit ~higher_is_worse ~what =
        match baseline_field path key with
        | None ->
          Printf.printf "  baseline %s: n/a (field missing in %s); check skipped\n%!"
            key path
        | Some base when base <= 0. ->
          Printf.printf "  baseline %s: n/a (non-positive in %s); check skipped\n%!"
            key path
        | Some base ->
          let regression_pct =
            if higher_is_worse then ((current /. base) -. 1.) *. 100.
            else (1. -. (current /. base)) *. 100.
          in
          Printf.printf
            "  baseline %s (%s): %.0f -> %.0f, regression %.2f%% (limit %.1f%%)\n%!"
            key path base current regression_pct limit;
          if regression_pct > limit then begin
            Printf.eprintf "FAIL: %s regressed %.2f%% vs baseline (limit %.1f%%)\n"
              what regression_pct limit;
            exit 1
          end
      in
      audit "events_per_second" ~current:untraced.eps ~limit:cli.max_regression
        ~higher_is_worse:false ~what:"tracing-disabled simulator throughput";
      audit "minor_words_per_commit" ~current:untraced.minor_words_per_commit
        ~limit:cli.max_alloc_regression ~higher_is_worse:true
        ~what:"minor allocation per committed transaction";
      audit "major_words_per_commit" ~current:untraced.major_words_per_commit
        ~limit:cli.max_alloc_regression ~higher_is_worse:true
        ~what:"major allocation per committed transaction";
      audit "promoted_words_per_commit" ~current:untraced.promoted_words_per_commit
        ~limit:cli.max_alloc_regression ~higher_is_worse:true
        ~what:"words promoted per committed transaction")
    cli.baseline

let wall_bench () =
  Printf.printf "wall bench: figure regeneration at --scale %s, --jobs 1 vs --jobs %d\n%!"
    cli.scale_name jobs_effective;
  if jobs_effective < jobs_requested then
    Printf.printf "  (clamped --jobs %d to %d available core%s)\n%!" jobs_requested
      jobs_effective
      (if jobs_effective = 1 then "" else "s");
  Harness.Pool.set_jobs 1;
  let seq_seconds, seq_output = timed render_everything in
  Printf.printf "  jobs=1: %.2f s\n%!" seq_seconds;
  (* On a single core a second pass measures only scheduler noise: skip it,
     and publish null speedup/identity so downstream tooling knows the
     comparison never ran (rather than seeing a fake 1.0x). *)
  let par_ran = jobs_effective > 1 in
  let par_seconds, par_output =
    if par_ran then begin
      Harness.Pool.set_jobs jobs_effective;
      let r = timed render_everything in
      Harness.Pool.set_jobs 1;
      r
    end
    else (0., seq_output)
  in
  if par_ran then Printf.printf "  jobs=%d: %.2f s\n%!" jobs_effective par_seconds
  else Printf.printf "  jobs=%d pass skipped (single core)\n%!" jobs_requested;
  let identical = String.equal seq_output par_output in
  let speedup = if par_seconds > 0. then seq_seconds /. par_seconds else 0. in
  if par_ran then
    Printf.printf "  speedup: %.2fx, identical output: %b\n%!" speedup identical;
  let untraced, traced, tracing_overhead_pct = measure_simulator () in
  let oc = open_out cli.out in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"harness_wall\",\n\
    \  \"scale\": \"%s\",\n\
    \  \"jobs\": %d,\n\
    \  \"wall_seconds_jobs1\": %.6f,\n"
    (json_escape cli.scale_name) jobs_effective seq_seconds;
  if par_ran then
    Printf.fprintf oc
      "  \"wall_seconds_jobsN\": %.6f,\n\
      \  \"speedup\": %.4f,\n\
      \  \"output_identical\": %b,\n"
      par_seconds speedup identical
  else
    Printf.fprintf oc
      "  \"wall_seconds_jobsN\": null,\n\
      \  \"speedup\": null,\n\
      \  \"output_identical\": null,\n";
  emit_sim_fields oc ~untraced ~traced ~tracing_overhead_pct;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" cli.out;
  if par_ran && not identical then begin
    prerr_endline "FAIL: parallel output differs from sequential output";
    exit 1
  end;
  run_gates ~untraced ~tracing_overhead_pct

let () = if cli.wall then wall_bench () else micro ()
