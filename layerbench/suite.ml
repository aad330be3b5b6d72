(* Layered benchmark of QR-DTM: five workloads that separate the protocol's
   commit paths, its fault paths and an open-loop serving view; end-to-end
   metrics from untraced runs; per-layer metrics from a traced run and
   micro-benchmarks.  See README.md in this directory.

   Every repeat runs in a fresh single-domain child process (this binary,
   re-executed), one at a time.  Simulated metrics depend only on the seed
   and must agree exactly between repeats of a sub-seed; wall-clock
   metrics are rescaled by a host-speed calibration and taken over
   repeats.

     suite.exe run --workload W --seed S --seconds T --trace 0|1
         one measurement of one workload; the last stdout line is the result
     suite.exe suite [--seed S] [--repeats N] [--traced] [--out FILE]
                     [--check-ledger | --bless] [--smoke]
                     [--benchmark-json FILE]
         every workload, every metric, printed and written as JSON
     suite.exe benchmark-json
         print BENCHMARK.json from the tables below *)

open Core

(* --- workloads --------------------------------------------------------- *)

type drive =
  | Closed of { clients : int }
  | Open of {
      rate : float;  (** reference offered load, req/s *)
      max_per_node : int;
      population : int;
      lo : float;  (** sustained-rate bisection range, req/s *)
      hi : float;
      probe_window : float;  (** simulated ms per bisection probe *)
    }

type workload = {
  name : string;
  why : string;
  nodes : int;
  shards : int;
  mode : Config.mode;
  batch_commit : bool;
  benchmark : Benchmarks.Workload.benchmark;
  params : Benchmarks.Workload.params;
  drive : drive;
  window : float;  (** simulated ms *)
  faults : at:(float -> float) -> span:(float -> float) -> Harness.Scenario.event list;
      (** the fault schedule, placed by fractions of the window; a workload
          with faults also runs the online protocol checker, fail-fast *)
}

let bank_mix =
  { Benchmarks.Workload.default_params with objects = 64; calls = 3; read_ratio = 0.5; key_skew = 0.5 }

let no_faults ~at:_ ~span:_ = []

(* A loss window, then four crash-and-recover cycles of client-hosting
   nodes (node 0 is also the tree root, in every write quorum).  Each crash
   kills the node's in-flight coordinators; its clients resubmit their lost
   requests when it recovers.  Minority partitions are left out: with them
   the 1-copy oracle fails on some seeds (README.md, "Known failures"). *)
let fault_schedule ~at ~span =
  let open Harness.Scenario in
  Drop { p = 0.02; at = at 0.05; duration = Some (span 0.1) }
  :: List.concat_map
       (fun (node, from) -> [ Crash { node; at = at from }; Recover { node; at = at (from +. 0.1) } ])
       [ (11, 0.25); (0, 0.45); (5, 0.65); (8, 0.85) ]

let workloads =
  [
    {
      name = "bank-cn";
      why = "QR-CN bank at high contention (paper Fig. 5): Rqv partial aborts, remote reads and the single-shard commit path";
      nodes = 13;
      shards = 1;
      mode = Config.Closed;
      batch_commit = false;
      benchmark = Benchmarks.Bank.benchmark;
      params = bank_mix;
      drive = Closed { clients = 26 };
      window = 400_000.;
      faults = no_faults;
    };
    {
      name = "vacation-chk-4s";
      why = "QR-CHK vacation over 4 shards: checkpoints and cross-shard 2PC prepare rounds at low contention";
      nodes = 13;
      shards = 4;
      mode = Config.Checkpoint;
      batch_commit = false;
      benchmark = Benchmarks.Vacation.benchmark;
      (* 1,000 offers per category: with the default 21, stock runs out
         within seconds and the window measures a drifting, sold-out mix. *)
      params = { Benchmarks.Workload.default_params with objects = 3_000; calls = 3; read_ratio = 0.5; key_skew = 0.5 };
      drive = Closed { clients = 26 };
      window = 170_000.;
      faults = no_faults;
    };
    {
      name = "bank-batch-hot";
      why = "flat bank on 8 hot accounts with batch commit: the queue-oriented speculative commit path; Rqv idle";
      nodes = 9;
      shards = 1;
      mode = Config.Flat;
      batch_commit = true;
      benchmark = Benchmarks.Bank.benchmark;
      params = { Benchmarks.Workload.default_params with objects = 8; calls = 2; read_ratio = 0.1; key_skew = 0.5 };
      drive = Closed { clients = 24 };
      window = 100_000.;
      faults = no_faults;
    };
    {
      name = "bank-faults";
      why = "bank-cn's mix under message loss and four coordinator crashes: state sync, retransmission, lease termination, online checker";
      nodes = 13;
      shards = 1;
      mode = Config.Closed;
      batch_commit = false;
      benchmark = Benchmarks.Bank.benchmark;
      params = bank_mix;
      drive = Closed { clients = 26 };
      window = 400_000.;
      faults = fault_schedule;
    };
    {
      name = "counter-openloop";
      why = "Poisson arrivals from 1M lazy clients, one-call counter txns: engine, network and admission dominate";
      nodes = 5;
      shards = 1;
      mode = Config.Closed;
      batch_commit = false;
      benchmark = Benchmarks.Counter.benchmark;
      params = { Benchmarks.Workload.default_params with objects = 512; calls = 1; read_ratio = 0.5 };
      drive =
        Open { rate = 150.; max_per_node = 4; population = 1_000_000; lo = 50.; hi = 400.; probe_window = 60_000. };
      (* At ~30 us per commit, a shorter window measures too little wall
         time per repeat for a steady per-commit cost. *)
      window = 480_000.;
      faults = no_faults;
    };
  ]

(* Every repeat warms up for this long before its window opens. *)
let warmup_ms = 5_000.

(* The open-loop service objective behind the sustained rate. *)
let slo_p99_ms = 250.
let slo_achieved = 0.95
let slo_backlog = 20
let bisection_resolution = 0.01

(* Every cluster and client seed derives from the one --seed. *)
let derive seed w salt =
  let index =
    let rec go i = function [] -> 0 | x :: rest -> if x.name = w.name then i else go (i + 1) rest in
    go 0 workloads
  in
  ((seed * 1_000_003) + (index * 7_919) + (salt * 104_729)) land 0x3FFF_FFFF

(* --- one measured point ------------------------------------------------ *)

(* Load-side bookkeeping of one run: request outcomes, the commit-gap
   watch, and the open loop's response-time histogram. *)
type load = {
  mutable submitted : int;
  mutable committed : int;
  mutable failed : int;
  mutable stop : bool;
  mutable in_window : bool;
  mutable last_commit : float;
  mutable max_gap : float;
  response : Util.Stats.t;  (** open loop: due time -> completion *)
  mutable window_arrivals : int;
  mutable window_queued : int;
  mutable window_done : int;
  mutable backlog : int;
  mutable peak_backlog : int;
}

let new_load () =
  {
    submitted = 0;
    committed = 0;
    failed = 0;
    stop = false;
    in_window = false;
    last_commit = 0.;
    max_gap = 0.;
    response = Util.Stats.create ();
    window_arrivals = 0;
    window_queued = 0;
    window_done = 0;
    backlog = 0;
    peak_backlog = 0;
  }

let finish load cluster outcome =
  match outcome with
  | Executor.Committed _ ->
    load.committed <- load.committed + 1;
    if load.in_window then begin
      let now = Cluster.now cluster in
      load.max_gap <- Float.max load.max_gap (now -. load.last_commit);
      load.last_commit <- now
    end
  | Executor.Failed _ -> load.failed <- load.failed + 1

(* Closed loop: each client submits its next transaction when the last one
   commits.  A client whose node crashes loses its in-flight transaction
   with the machine; when the node recovers the client submits that same
   request again, as an application retries a request its server lost. *)
let start_closed w cluster instance load ~seed ~clients ~events =
  let rng = Util.Rng.create (derive seed w 1) in
  let pending = Array.make clients None in
  let rec submit c node program =
    pending.(c) <- Some program;
    Cluster.submit cluster ~node program ~on_done:(fun outcome ->
        pending.(c) <- None;
        finish load cluster outcome;
        next c node)
  and next c node =
    if not load.stop then begin
      load.submitted <- load.submitted + 1;
      submit c node (instance.Benchmarks.Workload.generate rngs.(c))
    end
  and rngs = Array.init clients (fun _ -> Util.Rng.split rng) in
  List.iter
    (function
      | Harness.Scenario.Recover { node; at } ->
        Sim.Engine.schedule_at (Cluster.engine cluster) ~time:at (fun () ->
            Array.iteri
              (fun c p ->
                match p with Some program when c mod w.nodes = node -> submit c node program | _ -> ())
              pending)
      | _ -> ())
    events;
  for c = 0 to clients - 1 do
    next c (c mod w.nodes)
  done

(* Open loop: arrivals fire at their exact due time (so the generator is
   never late); a node admits [max_per_node] at once and queues the rest.
   Response time runs from the due time to the commit. *)
let start_open w cluster instance load ~seed ~rate ~max_per_node ~population =
  let engine = Cluster.engine cluster in
  let arrivals = Util.Rng.create (derive seed w 1) in
  let queues = Array.init w.nodes (fun _ -> Queue.create ()) in
  let in_service = Array.make w.nodes 0 in
  let rec admit node (client, nth, due, counted) =
    in_service.(node) <- in_service.(node) + 1;
    let rng = Util.Rng.create ((derive seed w 2 * 31) lxor (client * 0x85ebca6b) lxor (nth * 0xc2b2ae35)) in
    Cluster.submit cluster ~node (instance.Benchmarks.Workload.generate rng) ~on_done:(fun outcome ->
        finish load cluster outcome;
        if counted then Util.Stats.add load.response (Sim.Engine.now engine -. due);
        if load.in_window then load.window_done <- load.window_done + 1;
        in_service.(node) <- in_service.(node) - 1;
        match Queue.take_opt queues.(node) with
        | None -> ()
        | Some request ->
          load.backlog <- load.backlog - 1;
          admit node request)
  in
  let nth = ref 0 in
  let arrive () =
    let client = Util.Rng.int arrivals population in
    let node = client mod w.nodes in
    let request = (client, !nth, Sim.Engine.now engine, load.in_window) in
    incr nth;
    load.submitted <- load.submitted + 1;
    if load.in_window then load.window_arrivals <- load.window_arrivals + 1;
    if in_service.(node) < max_per_node then admit node request
    else begin
      if load.in_window then load.window_queued <- load.window_queued + 1;
      Queue.push request queues.(node);
      load.backlog <- load.backlog + 1;
      load.peak_backlog <- max load.peak_backlog load.backlog
    end
  in
  let mean_gap = 1000. /. rate in
  let rec pump () =
    let gap = Util.Rng.exponential arrivals ~mean:mean_gap in
    Sim.Engine.schedule engine ~delay:gap (fun () ->
        if not load.stop then begin
          arrive ();
          pump ()
        end)
  in
  pump ()

let wall () = Unix.gettimeofday ()

(* Host-speed calibration.  A shared host's speed drifts by a quarter
   within seconds (other tenants contending for memory), which a median
   over a few repeats cannot remove.  So wall time is measured in slices,
   each between two runs of this fixed loop (random updates over an 8 MB
   table outside the OCaml heap, no allocation) that no change to the
   program can speed up, and each slice is rescaled to a host on which the
   loop takes [reference_ms]. *)
let calib_table = Bigarray.(Array1.create int c_layout (1 lsl 20))
let reference_ms = 5.

let calibrate () =
  let t0 = wall () in
  let x = ref 12345 in
  for _ = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
    let i = !x land (Bigarray.Array1.dim calib_table - 1) in
    calib_table.{i} <- calib_table.{i} + !x
  done;
  (wall () -. t0) *. 1000.

let window_slices = 20

let validations cluster =
  List.fold_left
    (fun (run, failed) node ->
      let s = Cluster.server_of cluster ~node in
      (run + Server.validations_run s, failed + Server.validations_failed s))
    (0, 0)
    (List.init (Cluster.nodes cluster) Fun.id)

(* Run the engine until it is empty, but report a stall instead of hanging:
   the drain fails once [idle_limit] simulated-time chunks pass with no
   commit while events are still pending. *)
let drain cluster load =
  let engine = Cluster.engine cluster in
  let chunk = 10_000. and idle_limit = 30 in
  let rec go idle =
    if Sim.Engine.pending engine = 0 then Ok ()
    else if idle >= idle_limit then
      Error
        (Printf.sprintf "stall: no commit in %.0f s of drain, %d in flight" (chunk *. Float.of_int idle /. 1000.)
           (List.length (Cluster.in_flight cluster)))
    else begin
      let before = load.committed in
      Cluster.run_for cluster chunk;
      go (if load.committed > before then 0 else idle + 1)
    end
  in
  go 0

(* A window with this long a stretch without a commit has stalled. *)
let stall_gap_ms = 60_000.

type point = {
  sim : (string * float) list;
  runtime : (string * float) list;
  trace_sim : (string * float) list;
  trace_wall : (string * float) list;
  errors : string list;
  load : load;
  rate_ok : bool;  (** open loop: the point met the service objective *)
}

let ratio num den = if den = 0 then 0. else Float.of_int num /. Float.of_int den

let message_kinds =
  [ "read_req"; "commit_req"; "commit_apply"; "release"; "reply"; "batch_commit_req"; "status_req"; "sync_req" ]

(* Build the cluster, warm up, measure one window, drain and check.  Only a
   [measured] point calibrates and slices its window: the wall time of the
   others (bisection probes, smoke runs) is thrown away. *)
let run_point ?window w ~seed ~scale ~measured ~traced ~rate =
  let warmup = warmup_ms *. scale and window = Option.value window ~default:w.window *. scale in
  let events = w.faults ~at:(fun f -> warmup +. (f *. window)) ~span:(fun f -> f *. window) in
  let calibrate () = if measured then calibrate () else reference_ms in
  let slices = if measured then window_slices else 1 in
  let calib_setup = calibrate () in
  let t_setup = wall () in
  let online = if events = [] then None else Some (Obs.Online.create ~fail_fast:true ()) in
  let sink = if traced then Some (Layers.create_sink ?online ()) else None in
  let tracer = if traced || online <> None then Obs.Tracer.create ~capacity:1024 () else Obs.Tracer.null in
  (match (sink, online) with
  | Some s, _ -> Obs.Tracer.set_sink tracer (Layers.feed s)
  | None, Some o -> Obs.Online.attach o tracer
  | None, None -> ());
  (* The network is part of the workload, like a testbed's: a seeded
     topology would make every seed a different machine room. *)
  let topology = Sim.Topology.create ~seed:1 ~nodes:w.nodes () in
  let cluster =
    Cluster.create ~topology ~nodes:w.nodes ~seed:(derive seed w 0) ~tracer ~batch_commit:w.batch_commit
      ~shards:w.shards (Config.default w.mode)
  in
  let instance = w.benchmark.setup cluster w.params in
  ignore (Harness.Scenario.install cluster events : Harness.Scenario.tracker);
  let load = new_load () in
  (match w.drive with
  | Closed { clients } -> start_closed w cluster instance load ~seed ~clients ~events
  | Open { max_per_node; population; _ } ->
    start_open w cluster instance load ~seed ~rate ~max_per_node ~population);
  let errors = ref [] in
  let error e = errors := e :: !errors in
  let guard f = try f () with Obs.Online.Violation v -> error ("online checker: " ^ Obs.Online.pp_violation v) in
  guard (fun () -> Cluster.run_for cluster warmup);
  let setup_wall = wall () -. t_setup in
  let calib = ref (calibrate ()) in
  let setup_s = setup_wall /. ((calib_setup +. !calib) /. 2. /. reference_ms) in
  (* The window: counters zeroed at its start, read at its close. *)
  Cluster.reset_counters cluster;
  let engine = Cluster.engine cluster in
  let events0 = Sim.Engine.events_processed engine in
  let valid0, invalid0 = validations cluster in
  load.in_window <- true;
  load.last_commit <- Cluster.now cluster;
  load.peak_backlog <- load.backlog;
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_words in
  (* Each slice is rescaled by the calibrations on either side of it. *)
  let window_s = ref 0. and slowdown = ref 0. in
  for _ = 1 to slices do
    Option.iter Layers.resume sink;
    let t0 = wall () in
    guard (fun () -> Cluster.run_for cluster (window /. Float.of_int slices));
    let seconds = wall () -. t0 in
    Option.iter Layers.pause sink;
    let after = calibrate () in
    let s = (!calib +. after) /. 2. /. reference_ms in
    window_s := !window_s +. (seconds /. s);
    slowdown := !slowdown +. (s /. Float.of_int slices);
    calib := after
  done;
  let window_s = !window_s in
  let minor = Gc.minor_words () -. minor0 and major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  load.in_window <- false;
  load.max_gap <- Float.max load.max_gap (Cluster.now cluster -. load.last_commit);
  let m = Cluster.metrics cluster in
  let commits = Metrics.commits m in
  let per_commit x = ratio x commits in
  let valid, invalid = validations cluster in
  let by_kind = Cluster.messages_by_kind cluster in
  let achieved = Float.of_int load.window_done /. (rate *. window /. 1000.) in
  let final_backlog = load.backlog in
  let sim =
    [
      ("commits_per_s", Float.of_int commits /. (window /. 1000.));
      ("latency_p50_ms", Metrics.latency_percentile m 50.);
      ("latency_p99_ms", Metrics.latency_percentile m 99.);
      ("msgs_per_commit", per_commit (Cluster.messages_sent cluster));
      ("engine.events_per_commit", per_commit (Sim.Engine.events_processed engine - events0));
    ]
    @ List.map
        (fun kind ->
          ("network.msgs_per_commit." ^ kind, per_commit (Option.value ~default:0 (List.assoc_opt kind by_kind))))
        message_kinds
    @ [
        ("network.dropped_share", ratio (Cluster.messages_dropped cluster) (Cluster.messages_sent cluster));
        ("rpc.giveups", Float.of_int (Cluster.retransmit_exhausted cluster));
        ("rpc.fenced", Float.of_int (Cluster.fenced_messages cluster));
        ("replica.lease_expirations", Float.of_int (Metrics.lease_expirations m));
        ("replica.presumed_aborts", Float.of_int (Metrics.presumed_aborts m));
        ("replica.rescued_commits", Float.of_int (Metrics.status_rescued_commits m));
        ("server.validations_per_commit", per_commit (valid - valid0));
        ("server.validation_fail_share", ratio (invalid - invalid0) (valid - valid0));
        ("executor.commits", Float.of_int commits);
        ("executor.attempts_per_commit", per_commit (commits + Metrics.root_aborts m));
        ("executor.partial_aborts_per_commit", per_commit (Metrics.partial_aborts m));
        ("executor.remote_reads_per_commit", per_commit (Metrics.remote_reads m));
        ("executor.local_read_share", ratio (Metrics.local_reads m) (Metrics.local_reads m + Metrics.remote_reads m));
        ("executor.checkpoints_per_commit", per_commit (Metrics.checkpoints m));
        ("batch.occupancy_p50", Metrics.batch_occupancy_percentile m 50.);
        ("batch.occupancy_p95", Metrics.batch_occupancy_percentile m 95.);
        ("batch.rounds_per_commit", per_commit (Metrics.batches m));
        ("batch.spec_reads_per_commit", per_commit (Metrics.speculative_reads m));
        ("batch.spec_aborts_per_commit", per_commit (Metrics.speculation_aborts m));
        ("xshard.share", Metrics.cross_shard_share m);
        ( "xshard.abort_share",
          ratio (Metrics.cross_shard_aborts m) (Metrics.cross_shard_aborts m + Metrics.cross_shard_commits m) );
        ("cluster.syncs", Float.of_int (Metrics.syncs m));
        ("cluster.recoveries", Float.of_int (Metrics.recoveries m));
        ("cluster.read_widenings", Float.of_int (Metrics.read_widenings m));
        ("cluster.commit_deadline_aborts", Float.of_int (Metrics.commit_deadline_aborts m));
        ("cluster.max_commit_gap_ms", load.max_gap);
        ("openloop.achieved_ratio", match w.drive with Closed _ -> 0. | Open _ -> achieved);
        ("openloop.peak_backlog", Float.of_int load.peak_backlog);
        ("openloop.queued_share", ratio load.window_queued load.window_arrivals);
      ]
  in
  let trace_sim, trace_wall =
    match sink with
    | None -> ([], [])
    | Some s -> (Layers.sink_sim s ~commits, Layers.sink_wall s)
  in
  load.stop <- true;
  guard (fun () -> match drain cluster load with Ok () -> () | Error e -> error e);
  let t_oracle = wall () in
  (match Cluster.check_consistency cluster with Ok () -> () | Error e -> error ("1-copy oracle: " ^ e));
  let oracle_s = wall () -. t_oracle in
  (match instance.check () with Ok () -> () | Error e -> error ("invariant: " ^ e));
  Option.iter
    (fun o -> List.iter (fun v -> error ("online checker: " ^ Obs.Online.pp_violation v)) (Obs.Online.finish o))
    online;
  if load.max_gap > stall_gap_ms then error (Printf.sprintf "stall: %.0f ms without a commit" load.max_gap);
  if commits = 0 then error "no commit in the window";
  let unfinished = load.submitted - load.committed - load.failed in
  if unfinished > 0 then error (Printf.sprintf "%d requests unfinished after drain" unfinished);
  (* An open loop's window arrivals have all completed once drained. *)
  let response p = Util.Stats.percentile load.response p in
  let sim =
    List.map
      (fun (k, v) ->
        match (w.drive, k) with
        | Open _, "latency_p50_ms" -> (k, response 50.)
        | Open _, "latency_p99_ms" -> (k, response 99.)
        | _ -> (k, v))
      sim
    @ [ ("online.peak_tracked", match online with Some o -> Float.of_int (Obs.Online.peak_tracked o) | None -> 0.) ]
  in
  let rate_ok = response 99. <= slo_p99_ms && achieved >= slo_achieved && final_backlog <= slo_backlog in
  let runtime =
    [
      ("wall_us_per_commit", window_s *. 1e6 /. Float.of_int (max 1 commits));
      ("host.slowdown", !slowdown);
      ("setup_s", setup_s);
      ("engine.events_per_s", Float.of_int (Sim.Engine.events_processed engine - events0) /. window_s);
      ("gc.minor_words_per_commit", minor /. Float.of_int (max 1 commits));
      ("gc.major_words_per_commit", major /. Float.of_int (max 1 commits));
      ("oracle.check_s", oracle_s);
    ]
  in
  { sim; runtime; trace_sim; trace_wall; errors = List.rev !errors; load; rate_ok }

(* --- one repeat (the child process) ------------------------------------ *)

type rep = {
  r_sim : (string * float) list;
  r_runtime : (string * float) list;
  r_trace_sim : (string * float) list;
  r_trace_wall : (string * float) list;
  r_attempted : int;
  r_failed : int;
  r_errors : string list;
}

(* The open loop's sustained rate: bisect the offered load for the highest
   rate whose point meets the service objective, to 1% resolution. *)
let sustained_rate w ~seed ~scale ~lo ~hi ~window =
  let probes = ref [] in
  let ok rate =
    let p = run_point w ~window ~seed ~scale ~measured:false ~traced:false ~rate in
    probes := p :: !probes;
    p.rate_ok && p.errors = []
  in
  let rec bisect lo hi =
    if (hi -. lo) /. lo <= bisection_resolution then lo
    else
      let mid = (lo +. hi) /. 2. in
      if ok mid then bisect mid hi else bisect lo mid
  in
  let rate = if not (ok lo) then 0. else if ok hi then hi else bisect lo hi in
  (rate, List.rev !probes)

let heap_mb () = Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* One repeat: the point at the workload's reference load and, for the open
   loop's traced repeat, the sustained-rate bisection, which only feeds the
   per-layer [openloop.sustained_rate]. *)
let run_rep w ~seed ~scale ~measured ~traced =
  let rate = match w.drive with Open { rate; _ } -> rate | Closed _ -> 0. in
  let p = run_point w ~seed ~scale ~measured ~traced ~rate in
  (* Wall and heap figures are the measured point's alone: the bisection's
     probes run at rates that differ between seeds. *)
  let heap = heap_mb () in
  let sustained, probes =
    match w.drive with
    | Open { lo; hi; probe_window; _ } when traced -> sustained_rate w ~seed ~scale ~lo ~hi ~window:probe_window
    | _ -> (0., [])
  in
  let points = p :: probes in
  let total f = List.fold_left (fun acc q -> acc + f q.load) 0 points in
  {
    r_sim = p.sim;
    r_runtime = p.runtime @ [ ("peak_heap_mb", heap) ];
    r_trace_sim = (if traced then p.trace_sim @ [ ("openloop.sustained_rate", sustained) ] else []);
    r_trace_wall = p.trace_wall;
    r_attempted = total (fun l -> l.submitted);
    r_failed = total (fun l -> l.submitted - l.committed);
    r_errors = List.concat_map (fun q -> q.errors) points;
  }

(* Re-execute this binary and read back the value it marshals to its
   stdout.  Parent and child are the same binary, so the value's type is
   the one the caller expects. *)
let spawn args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  set_binary_mode_in ic true;
  let value = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
  match (Unix.close_process_in ic, value) with
  | Unix.WEXITED 0, Some v -> v
  | _ -> failwith (Printf.sprintf "child %s failed" (String.concat " " args))

let reply v =
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout v [];
  flush stdout

(* A measurement averages its simulated end-to-end metrics over this many
   sub-seeds of the one --seed, one repeat each; further repeats cycle
   through them again and must reproduce them exactly. *)
let sub_seeds = 3
let sub_seed seed sub = (seed * 65_537) + sub

let child_rep w ~seed ~sub ~traced ~timeout : rep =
  spawn
    ([ "child"; "--workload"; w.name; "--seed"; string_of_int (sub_seed seed sub); "--timeout"; string_of_int timeout ]
    @ if traced then [ "--traced" ] else [])

let child_micro ~quota ~timeout : (string * float) list =
  spawn [ "micro"; "--quota"; Printf.sprintf "%.3f" quota; "--timeout"; string_of_int timeout ]

(* --- metric tables ----------------------------------------------------- *)

type e2e = { e_name : string; e_unit : string; better : string; bound : float }

let end_to_end =
  [
    { e_name = "commits_per_s"; e_unit = "txn/s"; better = "higher"; bound = 0.15 };
    { e_name = "latency_p50_ms"; e_unit = "ms"; better = "lower"; bound = 0.15 };
    { e_name = "latency_p99_ms"; e_unit = "ms"; better = "lower"; bound = 0.25 };
    { e_name = "msgs_per_commit"; e_unit = "msg/txn"; better = "lower"; bound = 0.1 };
    { e_name = "wall_us_per_commit"; e_unit = "us"; better = "lower"; bound = 0.25 };
    { e_name = "setup_s"; e_unit = "s"; better = "lower"; bound = 0.25 };
    { e_name = "peak_heap_mb"; e_unit = "MB"; better = "lower"; bound = 0.1 };
  ]

(* Per-layer metrics by module, with their units; README.md says which
   end-to-end metric each should move, and on which workload. *)
let per_layer =
  [
    ("engine.events_per_commit", "event/txn");
    ("engine.events_per_s", "1/s");
    ("engine.dispatch_ns", "ns");
  ]
  @ List.map (fun k -> ("network.msgs_per_commit." ^ k, "msg/txn")) message_kinds
  @ [
      ("network.deliver_ns", "ns");
      ("network.dropped_share", "fraction");
      ("rpc.multicall_ns", "ns");
      ("rpc.timeouts_per_commit", "count/txn");
      ("rpc.giveups", "count");
      ("rpc.fenced", "count");
      ("replica.lease_grants_per_commit", "count/txn");
      ("replica.lease_expirations", "count");
      ("replica.presumed_aborts", "count");
      ("replica.rescued_commits", "count");
      ("server.validations_per_commit", "count/txn");
      ("server.validation_fail_share", "fraction");
      ("server.lock_conflict_share", "fraction");
      ("server.handle_read_ns", "ns");
      ("server.handle_commit_ns", "ns");
      ("executor.commits", "count");
      ("executor.attempts_per_commit", "count/txn");
      ("executor.partial_aborts_per_commit", "count/txn");
      ("executor.remote_reads_per_commit", "count/txn");
      ("executor.local_read_share", "fraction");
      ("executor.checkpoints_per_commit", "count/txn");
      ("executor.read_round_share", "fraction");
      ("executor.commit_round_ms", "ms");
      ("executor.wasted_attempt_ms_per_commit", "ms/txn");
      ("batch.occupancy_p50", "txn");
      ("batch.occupancy_p95", "txn");
      ("batch.rounds_per_commit", "count/txn");
      ("batch.spec_reads_per_commit", "count/txn");
      ("batch.spec_aborts_per_commit", "count/txn");
      ("xshard.share", "fraction");
      ("xshard.abort_share", "fraction");
      ("xshard.prepare_rounds_per_commit", "count/txn");
      ("cluster.syncs", "count");
      ("cluster.recoveries", "count");
      ("cluster.read_widenings", "count");
      ("cluster.commit_deadline_aborts", "count");
      ("cluster.max_commit_gap_ms", "ms");
      ("tracer.emit8_ns", "ns");
      ("tracer.overhead_pct", "%");
      ("tracer.events_per_commit", "event/txn");
      ("online.feed8_ns", "ns");
      ("online.wall_share", "%");
      ("online.peak_tracked", "count");
      ("oracle.check_s", "s");
      ("openloop.sustained_rate", "req/s");
      ("openloop.achieved_ratio", "fraction");
      ("openloop.peak_backlog", "count");
      ("openloop.queued_share", "fraction");
      ("gc.minor_words_per_commit", "word/txn");
      ("gc.major_words_per_commit", "word/txn");
      ("hdr.add_ns", "ns");
      ("host.slowdown", "ratio");
    ]
  @ Array.to_list (Array.map (fun l -> ("wall_share." ^ l, "%")) Layers.layer_names)

(* Per-layer metrics where more is better; for every other one, less is. *)
let higher_is_better =
  [
    "engine.events_per_s"; "executor.commits"; "executor.local_read_share"; "batch.occupancy_p50";
    "batch.occupancy_p95"; "batch.spec_reads_per_commit"; "openloop.sustained_rate"; "openloop.achieved_ratio";
  ]

let better_of name = if List.mem name higher_is_better then "higher" else "lower"

let unit_of name =
  match List.find_opt (fun e -> e.e_name = name) end_to_end with
  | Some e -> e.e_unit
  | None -> ( match List.assoc_opt name per_layer with Some u -> u | None -> "")

let run_seconds = 20

let benchmark_json () =
  Json.Obj
    [
      ("command", Json.Arr [ Json.Str "bash"; Json.Str "layerbench/run.sh" ]);
      ("paths", Json.Arr [ Json.Str "layerbench" ]);
      ("run_seconds", Json.Num (Float.of_int run_seconds));
      ( "workloads",
        Json.Arr (List.map (fun w -> Json.Obj [ ("name", Json.Str w.name); ("why", Json.Str w.why) ]) workloads) );
      ( "end_to_end",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("name", Json.Str e.e_name);
                   ("unit", Json.Str e.e_unit);
                   ("better", Json.Str e.better);
                   ("bound", Json.Num e.bound);
                 ])
             end_to_end) );
      ( "per_layer",
        Json.Arr
          (List.map
             (fun (name, unit) ->
               Json.Obj [ ("name", Json.Str name); ("unit", Json.Str unit); ("better", Json.Str (better_of name)) ])
             per_layer) );
    ]

(* --- aggregation ------------------------------------------------------- *)

let sorted xs = List.sort Float.compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then Float.nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by the "exclusive" method of Python's
   statistics.quantiles(values, n=4). *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let m = (n + 1) * i in
      let j = min (max (m / 4) 1) (n - 1) and delta = m mod 4 in
      ((a.(j - 1) *. Float.of_int (4 - delta)) +. (a.(j) *. Float.of_int delta)) /. 4.
    in
    (q 1, q 3)

(* Every repeat of one workload and seed, tagged with its sub-seed, plus
   the micro-benchmarks. *)
type measured = {
  untraced : (int * rep) list;
  traced : (int * rep) list;
  micro : (string * float) list;
}

(* Simulated metrics depend only on the seed: every repeat of a sub-seed,
   traced or not, must reproduce its first one bit for bit. *)
let mismatches m =
  let differ group label reps =
    List.concat_map
      (fun (sub, r) ->
        let first = List.assoc sub reps in
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k (group r) with
            | Some v' when Float.equal v v' -> None
            | _ -> Some (Printf.sprintf "simulated %s differs between %s repeats of sub-seed %d" k label sub))
          (group first))
      reps
  in
  differ (fun r -> r.r_sim) "untraced/traced" (m.untraced @ m.traced)
  @ differ (fun r -> r.r_trace_sim) "traced" m.traced

let errors m =
  List.sort_uniq compare (List.concat_map (fun (_, r) -> r.r_errors) (m.untraced @ m.traced) @ mismatches m)

(* The simulated end-to-end metrics, averaged over the sub-seeds. *)
let averaged = [ "commits_per_s"; "latency_p50_ms"; "latency_p99_ms"; "msgs_per_commit" ]

(* The cost per commit is taken from the fastest repeat: contention from
   other tenants only ever slows a repeat down, and calibration removes
   only part of it.  On recorded repeats this halved the spread between
   runs against the median. *)
let fastest reps =
  match List.filter_map (fun (_, r) -> List.assoc_opt "wall_us_per_commit" r.r_runtime) reps with
  | [] -> None
  | xs -> Some (List.fold_left Float.min Float.infinity xs)

(* Where a metric comes from: the sub-seed average for [averaged], the
   first sub-seed for other simulated metrics, the median over repeats for
   wall-clock ones except the cost per commit. *)
let lookup m name =
  let of_sub sub group reps = Option.bind (List.assoc_opt sub reps) (fun r -> List.assoc_opt name (group r)) in
  let med group reps =
    match List.filter_map (fun (_, r) -> List.assoc_opt name (group r)) reps with
    | [] -> None
    | xs -> Some (median xs)
  in
  let sim r = r.r_sim in
  let ( |? ) a b = match a with Some _ -> a | None -> b () in
  (if List.mem name averaged then
     match List.filter_map (fun sub -> of_sub sub sim m.untraced) (List.init sub_seeds Fun.id) with
     | vs when List.length vs = sub_seeds -> Some (List.fold_left ( +. ) 0. vs /. Float.of_int sub_seeds)
     | _ -> None
   else of_sub 0 sim m.untraced)
  |? (fun () -> of_sub 0 (fun r -> r.r_trace_sim) m.traced)
  |? (fun () -> if name = "wall_us_per_commit" then fastest m.untraced else None)
  |? (fun () -> med (fun r -> r.r_runtime) m.untraced)
  |? (fun () -> med (fun r -> r.r_trace_wall) m.traced)
  |? fun () ->
  (* Traced repeats all run the first sub-seed; compare like with like. *)
  match (name, fastest m.traced, fastest (List.filter (fun (sub, _) -> sub = 0) m.untraced)) with
  | "tracer.overhead_pct", Some traced, Some untraced -> Some (100. *. ((traced /. untraced) -. 1.))
  | _ -> List.assoc_opt name m.micro

let spread m name =
  let xs =
    List.filter_map
      (fun (_, r) -> List.assoc_opt name r.r_runtime)
      m.untraced
    @ List.filter_map (fun (_, r) -> List.assoc_opt name r.r_trace_wall) m.traced
  in
  if List.length xs < 2 then None else Some (quartiles xs, List.length xs)

(* The named metrics' values; a missing or non-finite one is an error. *)
let pick m names =
  List.fold_right
    (fun name (vals, errs) ->
      match lookup m name with
      | Some v when Float.is_finite v -> ((name, v) :: vals, errs)
      | _ -> ((name, 0.) :: vals, Printf.sprintf "metric %s was not measured" name :: errs))
    names ([], [])

let e2e_names = List.map (fun e -> e.e_name) end_to_end
let per_layer_names = List.map fst per_layer

(* --- modes --------------------------------------------------------------- *)

let wall_limit = 170.

(* Repeat a workload with [rep] until [rounds] rounds are done and the next
   one would likely end past [budget] seconds.  A round is one untraced
   repeat, cycling through the sub-seeds, or with [trace] an untraced and a
   traced repeat of the first sub-seed. *)
let measure ~rep ~trace ~rounds ~budget =
  let t0 = wall () in
  let untraced = ref [] and traced = ref [] and durations = ref [] in
  let rec loop i =
    let start = wall () in
    let sub = if trace then 0 else i mod sub_seeds in
    untraced := (sub, rep ~sub ~traced:false) :: !untraced;
    if trace then traced := (sub, rep ~sub ~traced:true) :: !traced;
    durations := (wall () -. start) :: !durations;
    if i + 1 < rounds || wall () -. t0 +. median !durations <= budget then loop (i + 1)
  in
  loop 0;
  { untraced = List.rev !untraced; traced = List.rev !traced; micro = [] }

(* One measurement: repeat the workload in child processes for [seconds]
   (at least once per sub-seed), then print the result line.  With [trace],
   the micro-benchmarks take the last third of the time. *)
let run_contract w ~seed ~seconds ~trace =
  let t0 = wall () in
  let elapsed () = wall () -. t0 in
  let timeout () = max 5 (int_of_float (wall_limit -. elapsed ())) in
  let budget = Float.of_int seconds in
  let rep ~sub ~traced = child_rep w ~seed ~sub ~traced ~timeout:(timeout ()) in
  let m =
    if not trace then measure ~rep ~trace ~rounds:sub_seeds ~budget
    else
      let m = measure ~rep ~trace ~rounds:1 ~budget:(budget *. 2. /. 3.) in
      let quota = Float.max 0.05 ((budget -. elapsed ()) /. Float.of_int (List.length (Layers.micro_names ()))) in
      { m with micro = child_micro ~quota ~timeout:(timeout ()) }
  in
  let metrics, missing = pick m (if trace then per_layer_names else e2e_names) in
  let errs = errors m @ missing in
  List.iter (fun e -> prerr_endline ("FAIL: " ^ e)) errs;
  let total f = List.fold_left (fun acc (_, r) -> acc + f r) 0 (m.untraced @ m.traced) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (errs = []));
            ("attempted", Json.Num (Float.of_int (total (fun r -> r.r_attempted))));
            ("failed", Json.Num (Float.of_int (total (fun r -> r.r_failed))));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (k, v) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of k)) ]))
                   metrics) );
          ]))

(* The committed simulated ledger: every simulated metric of every workload
   at one seed, as the measurement reports it. *)
let ledger ~seed results =
  let simulated m =
    match (List.assoc_opt 0 m.untraced, List.assoc_opt 0 m.traced) with
    | Some r, Some t -> List.map fst (r.r_sim @ t.r_trace_sim)
    | _ -> []
  in
  Json.Obj
    [
      ("seed", Json.Num (Float.of_int seed));
      ( "workloads",
        Json.Obj
          (List.map
             (fun (w, m) ->
               (w.name, Json.of_metrics (List.filter_map (fun k -> Option.map (fun v -> (k, v)) (lookup m k)) (simulated m))))
             results) );
    ]

let benchmark_text () = Json.to_string ~indent:true (benchmark_json ()) ^ "\n"
let read_file path = In_channel.with_open_bin path In_channel.input_all
let smoke_scale = 1. /. 50.
let ledger_path = "layerbench/ledger.json"

type suite_opts = {
  seed : int;
  repeats : int;
  traced : bool;
  smoke : bool;
  out : string option;
  check_ledger : bool;
  bless : bool;
  benchmark_path : string;
}

(* Every workload, every metric: printed with units, written as JSON, and
   checked.  Exits non-zero on any failed check. *)
let run_suite o =
  let traced = o.traced || o.check_ledger || o.bless || o.smoke in
  let repeats = if o.smoke then sub_seeds else max sub_seeds o.repeats in
  (* The smoke check runs in process, at [smoke_scale]; its traced round
     repeats the first sub-seed, which must reproduce it exactly. *)
  let measure_workload w =
    Printf.printf "== %s\n%!" w.name;
    let rep ~sub ~traced =
      if o.smoke then run_rep w ~seed:(sub_seed o.seed sub) ~scale:smoke_scale ~measured:false ~traced
      else child_rep w ~seed:o.seed ~sub ~traced ~timeout:600
    in
    let m = measure ~rep ~trace:false ~rounds:repeats ~budget:0. in
    if not traced then m
    else
      let t = measure ~rep ~trace:true ~rounds:1 ~budget:0. in
      { m with untraced = m.untraced @ t.untraced; traced = t.traced }
  in
  let results = List.map (fun w -> (w, measure_workload w)) workloads in
  let micro =
    if o.smoke then List.map (fun n -> (n, 0.)) (Layers.micro_names ())
    else child_micro ~quota:0.25 ~timeout:600
  in
  let results = List.map (fun (w, m) -> (w, { m with micro })) results in
  let failures = ref [] in
  let fail e = failures := e :: !failures in
  let report (w, m) =
    List.iter (fun e -> fail (w.name ^ ": " ^ e)) (errors m);
    let section names =
      let vals, missing = pick m names in
      if traced then List.iter (fun e -> fail (w.name ^ ": " ^ e)) missing;
      Json.Obj
        (List.map
           (fun (name, v) ->
             let sp = spread m name in
             Printf.printf "  %-42s %14.6g %-9s%s\n" name v (unit_of name)
               (match sp with
               | Some ((q1, q3), n) -> Printf.sprintf " [q1 %.6g, q3 %.6g, n=%d]" q1 q3 n
               | None -> "");
             ( name,
               Json.Obj
                 ([ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ]
                 @
                 match sp with
                 | Some ((q1, q3), n) -> [ ("q1", Json.Num q1); ("q3", Json.Num q3); ("n", Json.Num (Float.of_int n)) ]
                 | None -> []) ))
           vals)
    in
    Printf.printf "%s\n" w.name;
    let e2e = section e2e_names in
    let layers = if traced then section per_layer_names else Json.Obj [] in
    (w.name, Json.Obj [ ("end_to_end", e2e); ("per_layer", layers) ])
  in
  let body = List.map report results in
  let doc =
    Json.Obj
      [
        ("seed", Json.Num (Float.of_int o.seed));
        ("repeats", Json.Num (Float.of_int repeats));
        ("workloads", Json.Obj body);
        ("failures", Json.Arr (List.rev_map (fun e -> Json.Str e) !failures));
      ]
  in
  let text = Json.to_string ~indent:true doc ^ "\n" in
  Option.iter (fun path -> Out_channel.with_open_bin path (fun oc -> output_string oc text)) o.out;
  if o.smoke then begin
    (* The smoke check: the simulated metrics of the in-process repeats
       agreed (checked above), the metric and workload names are exactly
       those BENCHMARK.json declares, and a metric measured as NaN is
       reported missing and printed as null, not as a number. *)
    (match read_file o.benchmark_path with
    | declared when declared = benchmark_text () -> ()
    | _ -> fail (o.benchmark_path ^ " differs from `suite.exe benchmark-json`")
    | exception Sys_error e -> fail e);
    match pick { untraced = []; traced = []; micro = [ ("hdr.add_ns", Float.nan) ] } [ "hdr.add_ns" ] with
    | _, [ _ ] when Json.to_string (Json.of_metrics [ ("x", Float.nan) ]) = {|{"x":null}|} -> ()
    | _ -> fail "a metric measured as NaN was not reported missing"
  end;
  if o.check_ledger || o.bless then begin
    let text = Json.to_string ~indent:true (ledger ~seed:o.seed results) ^ "\n" in
    if o.bless then begin
      Out_channel.with_open_bin ledger_path (fun oc -> output_string oc text);
      Printf.printf "wrote %s\n" ledger_path
    end
    else
      match read_file ledger_path with
      | committed when committed = text -> Printf.printf "ledger %s: identical\n" ledger_path
      | _ -> fail (Printf.sprintf "ledger %s differs from this run (re-bless with --bless and explain why)" ledger_path)
      | exception Sys_error e -> fail e
  end;
  List.iter (fun e -> prerr_endline ("FAIL: " ^ e)) (List.rev !failures);
  if !failures <> [] then exit 1

(* --- command line ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: suite.exe run --workload W --seed S --seconds T --trace 0|1\n\
    \       suite.exe suite [--seed S] [--repeats N] [--traced] [--out FILE]\n\
    \                       [--check-ledger | --bless] [--smoke]\n\
    \                       [--benchmark-json FILE]\n\
    \       suite.exe benchmark-json";
  exit 2

let switches = [ "--traced"; "--smoke"; "--check-ledger"; "--bless" ]

let parse_flags args =
  let rec go acc = function
    | [] -> acc
    | flag :: rest when List.mem flag switches -> go ((flag, "") :: acc) rest
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" -> go ((flag, value) :: acc) rest
    | _ -> usage ()
  in
  go [] args

let flag flags name = List.assoc_opt name flags

let int_flag flags name ~default =
  match flag flags name with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n when n >= 0 -> n | _ -> usage ())

let workload_flag flags =
  match Option.map (fun n -> List.find_opt (fun w -> w.name = n) workloads) (flag flags "--workload") with
  | Some (Some w) -> w
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: args ->
    let flags = parse_flags args in
    ignore (Unix.alarm (int_flag flags "--timeout" ~default:170) : int);
    let w = workload_flag flags in
    reply
      (run_rep w ~seed:(int_flag flags "--seed" ~default:97) ~scale:1. ~measured:true
         ~traced:(flag flags "--traced" <> None)
        : rep)
  | "micro" :: args ->
    let flags = parse_flags args in
    ignore (Unix.alarm (int_flag flags "--timeout" ~default:170) : int);
    let quota = match Option.bind (flag flags "--quota") float_of_string_opt with Some q -> q | None -> 0.25 in
    reply (Layers.run_micro ~quota : (string * float) list)
  | "run" :: args ->
    let flags = parse_flags args in
    let trace = match flag flags "--trace" with Some "1" -> true | Some "0" | None -> false | _ -> usage () in
    run_contract (workload_flag flags) ~seed:(int_flag flags "--seed" ~default:97)
      ~seconds:(max 1 (int_flag flags "--seconds" ~default:run_seconds))
      ~trace
  | "suite" :: args ->
    let flags = parse_flags args in
    let on name = flag flags name <> None in
    run_suite
      {
        seed = int_flag flags "--seed" ~default:97;
        repeats = max 1 (int_flag flags "--repeats" ~default:5);
        traced = on "--traced";
        smoke = on "--smoke";
        out = flag flags "--out";
        check_ledger = on "--check-ledger";
        bless = on "--bless";
        benchmark_path = Option.value ~default:"BENCHMARK.json" (flag flags "--benchmark-json");
      }
  | [ "benchmark-json" ] -> print_string (benchmark_text ())
  | _ -> usage ()
