open Core

type result = {
  label : string;
  duration : float;
  commits : int;
  read_only_commits : int;
  throughput : float;
  root_aborts : int;
  partial_aborts : int;
  abort_rate : float;
  ct_commits : int;
  checkpoints : int;
  messages : int;
  messages_by_kind : (string * int) list;
  remote_reads : int;
  local_reads : int;
  mean_latency : float;
  p50_latency : float;
  p95_latency : float;
  p99_latency : float;
  speculation_aborts : int;
  batches : int;
  batch_occupancy_p50 : float;
  batch_occupancy_p95 : float;
  cross_shard_commits : int;
  cross_shard_aborts : int;
  cross_shard_share : float;
  invariant : (unit, string) Stdlib.result;
  consistent : (unit, string) Stdlib.result;
}

let pp_result fmt r =
  let status = function Ok () -> "ok" | Error msg -> "FAILED: " ^ msg in
  Format.fprintf fmt
    "%s: %.1f txn/s (%d commits, %d ro) aborts[root=%d partial=%d rate=%.3f] msgs=%d \
     reads[remote=%d local=%d] latency[mean=%.1f p50=%.1f p95=%.1f p99=%.1f] \
     invariant=%s oracle=%s"
    r.label r.throughput r.commits r.read_only_commits r.root_aborts r.partial_aborts
    r.abort_rate r.messages r.remote_reads r.local_reads r.mean_latency r.p50_latency
    r.p95_latency r.p99_latency
    (status r.invariant) (status r.consistent);
  (* Rendered only for runs that saw cross-shard traffic, so unsharded
     output stays byte-stable. *)
  if r.cross_shard_commits > 0 || r.cross_shard_aborts > 0 then
    Format.fprintf fmt " xshard[commits=%d aborts=%d share=%.3f]"
      r.cross_shard_commits r.cross_shard_aborts r.cross_shard_share

(* Snapshot of every counter at the close of the measurement window. *)
type snapshot = {
  s_commits : int;
  s_ro : int;
  s_root_aborts : int;
  s_partial : int;
  s_ct : int;
  s_chk : int;
  s_msgs : int;
  s_by_kind : (string * int) list;
  s_remote : int;
  s_local : int;
  s_mean : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
  s_spec_aborts : int;
  s_batches : int;
  s_occ_p50 : float;
  s_occ_p95 : float;
  s_xs_commits : int;
  s_xs_aborts : int;
  s_xs_share : float;
}

let snapshot_of metrics ~messages ~by_kind =
  let latencies = Metrics.latency_stats metrics in
  {
    s_commits = Metrics.commits metrics;
    s_ro = Metrics.read_only_commits metrics;
    s_root_aborts = Metrics.root_aborts metrics;
    s_partial = Metrics.partial_aborts metrics;
    s_ct = Metrics.ct_commits metrics;
    s_chk = Metrics.checkpoints metrics;
    s_msgs = messages;
    s_by_kind = by_kind;
    s_remote = Metrics.remote_reads metrics;
    s_local = Metrics.local_reads metrics;
    s_mean = Util.Stats.mean latencies;
    s_p50 = Metrics.latency_percentile metrics 50.;
    s_p95 = Metrics.latency_percentile metrics 95.;
    s_p99 = Metrics.latency_percentile metrics 99.;
    s_spec_aborts = Metrics.speculation_aborts metrics;
    s_batches = Metrics.batches metrics;
    s_occ_p50 = Metrics.batch_occupancy_percentile metrics 50.;
    s_occ_p95 = Metrics.batch_occupancy_percentile metrics 95.;
    s_xs_commits = Metrics.cross_shard_commits metrics;
    s_xs_aborts = Metrics.cross_shard_aborts metrics;
    s_xs_share = Metrics.cross_shard_share metrics;
  }

let result_of_snapshot ~label ~duration ~invariant ~consistent s =
  let attempts = s.s_commits + s.s_root_aborts + s.s_partial in
  {
    label;
    duration;
    commits = s.s_commits;
    read_only_commits = s.s_ro;
    throughput = (if duration <= 0. then 0. else Float.of_int s.s_commits /. (duration /. 1000.));
    root_aborts = s.s_root_aborts;
    partial_aborts = s.s_partial;
    abort_rate =
      (if attempts = 0 then 0.
       else Float.of_int (s.s_root_aborts + s.s_partial) /. Float.of_int attempts);
    ct_commits = s.s_ct;
    checkpoints = s.s_chk;
    messages = s.s_msgs;
    messages_by_kind = s.s_by_kind;
    remote_reads = s.s_remote;
    local_reads = s.s_local;
    mean_latency = s.s_mean;
    p50_latency = s.s_p50;
    p95_latency = s.s_p95;
    p99_latency = s.s_p99;
    speculation_aborts = s.s_spec_aborts;
    batches = s.s_batches;
    batch_occupancy_p50 = s.s_occ_p50;
    batch_occupancy_p95 = s.s_occ_p95;
    cross_shard_commits = s.s_xs_commits;
    cross_shard_aborts = s.s_xs_aborts;
    cross_shard_share = s.s_xs_share;
    invariant;
    consistent;
  }

type spec = {
  nodes : int;
  spares : int;
  seed : int;
  read_level : int;
  service_time : float;
  with_oracle : bool;
  tracer : Obs.Tracer.t;
  batch_commit : bool;
  shards : int;
  config : Config.t;
  benchmark : Benchmarks.Workload.benchmark;
  params : Benchmarks.Workload.params;
}

let spec ?(nodes = 13) ?(spares = 0) ?(seed = 97) ?(read_level = 1)
    ?(service_time = 0.25) ?(with_oracle = true) ?(tracer = Obs.Tracer.null)
    ?(batch_commit = false) ?(shards = 1) ~config ~benchmark ~params () =
  {
    nodes;
    spares;
    seed;
    read_level;
    service_time;
    with_oracle;
    tracer;
    batch_commit;
    shards;
    config;
    benchmark;
    params;
  }

let setup s =
  let cluster =
    Cluster.create ~nodes:s.nodes ~spares:s.spares ~seed:s.seed ~read_level:s.read_level
      ~service_time:s.service_time ~with_oracle:s.with_oracle ~tracer:s.tracer
      ~batch_commit:s.batch_commit ~shards:s.shards s.config
  in
  (cluster, s.benchmark.setup cluster s.params)

let run ?(clients = 26) ?(warmup = 2_000.) ?(duration = 30_000.) ?client_nodes ?prepare
    ?telemetry spec =
  let cluster, instance = setup spec in
  Option.iter (fun f -> f cluster) prepare;
  let client_rng = Util.Rng.create (spec.seed * 7919) in
  let stop = ref false in
  let rec client node rng =
    if not !stop then begin
      let program = instance.generate rng in
      Cluster.submit cluster ~node program ~on_done:(fun _ -> client node rng)
    end
  in
  (* Clients live on [client_nodes] (default: everywhere).  A client whose
     node fail-stops would otherwise spin on dropped requests forever —
     failure experiments place clients on surviving nodes only, matching a
     testbed where a dead machine's threads die with it. *)
  let placements = Array.of_list (Option.value ~default:(List.init spec.nodes Fun.id) client_nodes) in
  for c = 0 to clients - 1 do
    client placements.(c mod Array.length placements) (Util.Rng.split client_rng)
  done;
  (* Warm-up, then zero the counters; snapshot at window close; then stop
     admission and drain so the invariant checks see quiescent replicas. *)
  let snap = ref None in
  Sim.Engine.schedule_at (Cluster.engine cluster) ~time:warmup (fun () ->
      Cluster.reset_counters cluster);
  Sim.Engine.schedule_at (Cluster.engine cluster) ~time:(warmup +. duration) (fun () ->
      stop := true;
      snap :=
        Some
          (snapshot_of (Cluster.metrics cluster)
             ~messages:(Cluster.messages_sent cluster)
             ~by_kind:(Cluster.messages_by_kind cluster)));
  (* Telemetry is pull-model: the harness alternates bounded [run_for]
     windows with counter samples.  No tick event ever enters the engine,
     so the drain still terminates and traced/untraced runs stay
     byte-identical. *)
  (match telemetry with
  | None -> Cluster.drain cluster
  | Some tele ->
    let engine = Cluster.engine cluster in
    let window = Obs.Telemetry.window tele in
    let metrics = Cluster.metrics cluster in
    let sample () =
      Obs.Telemetry.record tele ~time:(Sim.Engine.now engine)
        ~commits:(Metrics.commits metrics)
        ~aborts:(Metrics.total_aborts metrics)
        ~in_flight:(List.length (Cluster.in_flight cluster))
        ~lease_expirations:(Metrics.lease_expirations metrics)
        ~speculation_aborts:(Metrics.speculation_aborts metrics)
        ~batches:(Metrics.batches metrics)
        ~cross_shard_commits:(Metrics.cross_shard_commits metrics)
        ~cross_shard_aborts:(Metrics.cross_shard_aborts metrics)
        ~by_kind:(Cluster.messages_by_kind cluster) ()
    in
    sample ();
    while Sim.Engine.pending engine > 0 do
      Cluster.run_for cluster window;
      sample ()
    done);
  let s =
    match !snap with
    | Some s -> s
    | None -> invalid_arg "Experiment.run: snapshot event never fired"
  in
  let invariant = instance.check () in
  let consistent =
    if spec.with_oracle then Cluster.check_consistency cluster else Ok ()
  in
  let label =
    Printf.sprintf "%s/%s" spec.benchmark.name (Config.mode_name spec.config.Config.mode)
  in
  result_of_snapshot ~label ~duration ~invariant ~consistent s

(* --- generic systems -------------------------------------------------- *)

type system = {
  name : string;
  node_count : int;
  alloc : init:Txn.value -> Ids.obj_id;
  submit : node:int -> (unit -> Txn.t) -> on_done:(Executor.outcome -> unit) -> unit;
  run_for : float -> unit;
  drain : unit -> unit;
  now : unit -> float;
  metrics : Metrics.t;
  messages : unit -> int;
  reset : unit -> unit;
  check : unit -> (unit, string) Stdlib.result;
}

let qr_system ?(nodes = 13) ?(seed = 11) ?(read_level = 1) config =
  let cluster = Cluster.create ~nodes ~seed ~read_level config in
  {
    name = "qr-dtm/" ^ Config.mode_name config.Config.mode;
    node_count = nodes;
    alloc = (fun ~init -> Cluster.alloc_object cluster ~init);
    submit = (fun ~node program ~on_done -> Cluster.submit cluster ~node program ~on_done);
    run_for = (fun d -> Cluster.run_for cluster d);
    drain = (fun () -> Cluster.drain cluster);
    now = (fun () -> Cluster.now cluster);
    metrics = Cluster.metrics cluster;
    messages = (fun () -> Cluster.messages_sent cluster);
    reset = (fun () -> Cluster.reset_counters cluster);
    check = (fun () -> Cluster.check_consistency cluster);
  }

let tfa_system ?(nodes = 13) ?(seed = 13) () =
  let sys = Baselines.Tfa.create ~nodes ~seed () in
  {
    name = "hyflow-tfa";
    node_count = nodes;
    alloc = (fun ~init -> Baselines.Tfa.alloc_object sys ~init);
    submit = (fun ~node program ~on_done -> Baselines.Tfa.submit sys ~node program ~on_done);
    run_for = (fun d -> Baselines.Tfa.run_for sys d);
    drain = (fun () -> Baselines.Tfa.drain sys);
    now = (fun () -> Baselines.Tfa.now sys);
    metrics = Baselines.Tfa.metrics sys;
    messages = (fun () -> Baselines.Tfa.messages_sent sys);
    reset = (fun () -> Baselines.Tfa.reset_counters sys);
    check = (fun () -> Baselines.Tfa.check_consistency sys);
  }

let decent_system ?(nodes = 13) ?(seed = 17) () =
  let sys = Baselines.Decent.create ~nodes ~seed () in
  {
    name = "decent-stm";
    node_count = nodes;
    alloc = (fun ~init -> Baselines.Decent.alloc_object sys ~init);
    submit =
      (fun ~node program ~on_done -> Baselines.Decent.submit sys ~node program ~on_done);
    run_for = (fun d -> Baselines.Decent.run_for sys d);
    drain = (fun () -> Baselines.Decent.drain sys);
    now = (fun () -> Baselines.Decent.now sys);
    metrics = Baselines.Decent.metrics sys;
    messages = (fun () -> Baselines.Decent.messages_sent sys);
    reset = (fun () -> Baselines.Decent.reset_counters sys);
    check = (fun () -> Baselines.Decent.check_consistency sys);
  }

let run_system system ?(clients = 26) ?(warmup = 2_000.) ?(duration = 30_000.) ~gen_txn
    ~seed () =
  let client_rng = Util.Rng.create (seed * 6271) in
  let stop = ref false in
  let rec client node rng =
    if not !stop then begin
      let program = gen_txn rng in
      system.submit ~node program ~on_done:(fun _ -> client node rng)
    end
  in
  for c = 0 to clients - 1 do
    client (c mod system.node_count) (Util.Rng.split client_rng)
  done;
  system.run_for warmup;
  system.reset ();
  system.run_for duration;
  stop := true;
  let s =
    snapshot_of system.metrics ~messages:(system.messages ()) ~by_kind:[]
  in
  system.drain ();
  result_of_snapshot ~label:system.name ~duration ~invariant:(Ok ())
    ~consistent:(system.check ()) s
