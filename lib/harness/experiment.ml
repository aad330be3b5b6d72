open Core

type stall = {
  stall_at : float;
  stall_in_flight : (int * Ids.txn_id) list;
  stall_leases : (int * Ids.obj_id * int * float) list;
}

type open_stats = {
  offered_load : float;
  achieved_load : float;
  population : int;
  arrivals : int;
  completions : int;
  service_mean : float;
  service_p50 : float;
  service_p95 : float;
  service_p99 : float;
  queue_mean : float;
  queue_p50 : float;
  queue_p95 : float;
  queue_p99 : float;
  peak_backlog : int;
  final_backlog : int;
}

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
  stalls : stall list;
  open_loop : open_stats option;
  report : Scenario.report option;
  invariant : (unit, string) Stdlib.result;
  consistent : (unit, string) Stdlib.result;
}

let passed r = r.invariant = Ok () && r.consistent = Ok () && r.stalls = []

let pp_result fmt r =
  let status = function Ok () -> "ok" | Error msg -> "FAILED: " ^ msg in
  (match r.open_loop with
  | None ->
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
  | Some o ->
    Format.fprintf fmt
      "%s: offered=%.1f/s achieved=%.1f/s (pop=%d, %d arrivals, %d done) \
       service[mean=%.2f p50=%.2f p95=%.2f p99=%.2f] queue[mean=%.2f p50=%.2f \
       p95=%.2f p99=%.2f] backlog[peak=%d final=%d] invariant=%s oracle=%s"
      r.label o.offered_load o.achieved_load o.population o.arrivals o.completions
      o.service_mean o.service_p50 o.service_p95 o.service_p99 o.queue_mean o.queue_p50
      o.queue_p95 o.queue_p99 o.peak_backlog o.final_backlog (status r.invariant)
      (status r.consistent));
  if r.stalls <> [] then Format.fprintf fmt " stalls=%d" (List.length r.stalls)

let to_json r =
  let int = string_of_int and ms = Printf.sprintf "%.4f" in
  let status = function Ok () -> "\"ok\"" | Error m -> Printf.sprintf "%S" m in
  let open_fields f = Option.fold ~none:[] ~some:f r.open_loop in
  let fields =
    [ ("label", Printf.sprintf "%S" r.label); ("duration_ms", Printf.sprintf "%.1f" r.duration) ]
    @ open_fields (fun o ->
          [
            ("offered_load_per_s", Printf.sprintf "%.3f" o.offered_load);
            ("achieved_load_per_s", Printf.sprintf "%.3f" o.achieved_load);
            ("population", int o.population);
            ("arrivals", int o.arrivals);
            ("completions", int o.completions);
          ])
    @ [ ("commits", int r.commits); ("aborts", int (r.root_aborts + r.partial_aborts)) ]
    @ open_fields (fun o ->
          [
            ("service_mean_ms", ms o.service_mean);
            ("service_p50_ms", ms o.service_p50);
            ("service_p95_ms", ms o.service_p95);
            ("service_p99_ms", ms o.service_p99);
            ("queue_mean_ms", ms o.queue_mean);
            ("queue_p50_ms", ms o.queue_p50);
            ("queue_p95_ms", ms o.queue_p95);
            ("queue_p99_ms", ms o.queue_p99);
            ("peak_backlog", int o.peak_backlog);
            ("final_backlog", int o.final_backlog);
          ])
    @ [ ("invariant", status r.invariant); ("oracle", status r.consistent) ]
  in
  "{\n"
  ^ String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k v) fields)
  ^ "\n}"

(* Every counter at the close of the measurement window.  The checks,
   stalls and fault report are filled in once the run has quiesced. *)
let measure metrics ~label ~duration ~messages ~by_kind =
  let commits = Metrics.commits metrics
  and root_aborts = Metrics.root_aborts metrics
  and partial_aborts = Metrics.partial_aborts metrics in
  let attempts = commits + root_aborts + partial_aborts in
  {
    label;
    duration;
    commits;
    read_only_commits = Metrics.read_only_commits metrics;
    throughput = (if duration <= 0. then 0. else Float.of_int commits /. (duration /. 1000.));
    root_aborts;
    partial_aborts;
    abort_rate =
      (if attempts = 0 then 0.
       else Float.of_int (root_aborts + partial_aborts) /. Float.of_int attempts);
    ct_commits = Metrics.ct_commits metrics;
    checkpoints = Metrics.checkpoints metrics;
    messages;
    messages_by_kind = by_kind;
    remote_reads = Metrics.remote_reads metrics;
    local_reads = Metrics.local_reads metrics;
    mean_latency = Util.Stats.mean (Metrics.latency_stats metrics);
    p50_latency = Metrics.latency_percentile metrics 50.;
    p95_latency = Metrics.latency_percentile metrics 95.;
    p99_latency = Metrics.latency_percentile metrics 99.;
    speculation_aborts = Metrics.speculation_aborts metrics;
    batches = Metrics.batches metrics;
    batch_occupancy_p50 = Metrics.batch_occupancy_percentile metrics 50.;
    batch_occupancy_p95 = Metrics.batch_occupancy_percentile metrics 95.;
    cross_shard_commits = Metrics.cross_shard_commits metrics;
    cross_shard_aborts = Metrics.cross_shard_aborts metrics;
    cross_shard_share = Metrics.cross_shard_share metrics;
    stalls = [];
    open_loop = None;
    report = None;
    invariant = Ok ();
    consistent = Ok ();
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

(* The watchdog window must dwarf every legitimate no-progress interval:
   the full lease-termination pipeline (lease horizon, grace, the bounded
   status rounds) and the longest contiguous fault window in the schedule
   (plus failure detection), with a 2x safety factor so slow-but-alive
   configurations don't trip it. *)
let stall_window events =
  let termination =
    Config.lease_duration +. Config.status_grace
    +. (Float.of_int Config.status_attempts *. Config.request_timeout)
  in
  (* A view change legitimately pauses commits for its wedge (two request
     timeouts), a pull/push round or two, and — when a node departs — a
     lease drain bounded by the lease horizon; overlapping a partition can
     stretch the pull until the heal, which the fault window of the
     partition itself already covers. *)
  let view_change_span = (8. *. Config.request_timeout) +. Config.lease_duration in
  (* How long one event can hold commits back; a crash lasts until its
     node's next recovery (an unrecovered crash counts for nothing). *)
  let window = function
    | Scenario.Crash { node; at } ->
      let recovery =
        List.fold_left
          (fun best e ->
            match e with
            | Scenario.Recover { node = n; at = r } when n = node && r >= at -> Float.min best r
            | _ -> best)
          Float.infinity events
      in
      if Float.is_finite recovery then recovery -. at else 0.
    | Scenario.Recover _ -> 0.
    | Scenario.Suspect { duration; _ } | Scenario.Partition { duration; _ } -> duration
    | Scenario.Drop { duration; _ }
    | Scenario.Duplicate { duration; _ }
    | Scenario.Spike { duration; _ }
    | Scenario.Flaky { duration; _ } ->
      Option.value ~default:0. duration
    | Scenario.Join _ | Scenario.Leave _ | Scenario.Replace _ | Scenario.ShardMove _
    | Scenario.ShardSplit _ ->
      view_change_span
  in
  2. *. (termination +. List.fold_left (fun acc e -> Float.max acc (window e)) 0. events)
  +. 1_000.

(* The drive loop: run the engine to quiescence one watchdog [window] at
   a time, so a livelock shows up as a stall report rather than a hang.
   After each window the watchdog judges progress: a window with no new
   commits but live coordinators is a stall; after [max_idle] commit-free
   windows past [horizon] the run is abandoned and reported.  Termination
   is structural: commits past the horizon are bounded by the surviving
   clients.  Telemetry samples on its own grid inside the windows,
   pull-model: no tick enters the engine, so a sampled run stays
   byte-identical to an unsampled one. *)
let drive cluster ~horizon ~window telemetry =
  let engine = Cluster.engine cluster and metrics = Cluster.metrics cluster in
  let pending () = Sim.Engine.pending engine > 0 in
  let stalls = ref [] in
  let note_stall () =
    Metrics.note_stall metrics;
    stalls :=
      {
        stall_at = Cluster.now cluster;
        stall_in_flight = Cluster.in_flight cluster;
        stall_leases = Cluster.held_leases cluster;
      }
      :: !stalls
  in
  let advance =
    match telemetry with
    | None -> fun target -> Sim.Engine.run ~until:target engine
    | Some tele ->
      let next = ref (Sim.Engine.now engine) in
      let sample () =
        Obs.Telemetry.record tele ~time:!next ~commits:(Metrics.commits metrics)
          ~aborts:(Metrics.total_aborts metrics)
          ~in_flight:(List.length (Cluster.in_flight cluster))
          ~lease_expirations:(Metrics.lease_expirations metrics)
          ~speculation_aborts:(Metrics.speculation_aborts metrics)
          ~batches:(Metrics.batches metrics)
          ~cross_shard_commits:(Metrics.cross_shard_commits metrics)
          ~cross_shard_aborts:(Metrics.cross_shard_aborts metrics)
          ~by_kind:(Cluster.messages_by_kind cluster) ();
        next := !next +. Obs.Telemetry.window tele
      in
      sample ();
      fun target ->
        while pending () && !next <= target do
          Sim.Engine.run ~until:!next engine;
          sample ()
        done;
        let cut = pending () in
        Sim.Engine.run ~until:target engine;
        (* Quiesced between two sample points: nothing changes before the
           next one, so take it now. *)
        if cut && not (pending ()) then sample ()
  in
  (* Progress is new commits, or a counter reset (the end of warm-up). *)
  let progress () = (Metrics.resets metrics, Metrics.commits metrics) in
  let max_idle = 3 in
  let rec go ~target ~last ~idle =
    if pending () then begin
      advance target;
      if pending () then begin
        let ((resets, commits) as now) = progress () in
        let progressed = resets <> fst last || commits > snd last in
        if (not progressed) && Cluster.in_flight cluster <> [] then note_stall ();
        let idle = if progressed || Cluster.now cluster <= horizon then 0 else idle + 1 in
        if idle < max_idle then go ~target:(target +. window) ~last:now ~idle
          (* Abandoned non-quiescent: events keep firing but nothing
             commits — a liveness failure even with no coordinator alive
             (e.g. a recovery or status loop that never converges). *)
        else if !stalls = [] then note_stall ()
      end
    end
  in
  go ~target:(Sim.Engine.now engine +. window) ~last:(progress ()) ~idle:0;
  List.rev !stalls

type load =
  | Closed of { clients : int; client_nodes : int list option }
  | Open of { rate : float; population : int; max_per_node : int }

let load_error = function
  | Closed _ -> None
  | Open { rate; population; max_per_node } ->
    if not (Float.is_finite rate && rate > 0.) then Some "rate must be positive and finite"
    else if population < 1 then Some "population must be at least 1"
    else if max_per_node < 1 then Some "max_per_node must be at least 1"
    else None

(* Deterministic per-arrival RNG: the "lazy client state".  A logical
   client is nothing but a number; each of its requests is a pure function
   of (seed, client, global arrival ordinal), so a million-client
   population costs no resident memory at all. *)
let client_rng ~seed ~client ~nth =
  Util.Rng.create
    ((seed * 0x9e3779b9) lxor (client * 0x85ebca6b) lxor (nth * 0xc2b2ae35))

(* The open loop: Poisson arrivals until [stop], admitted per node up to
   [max_per_node] and queued beyond it.  Returns the warm-up hook and the
   window-close snapshot; the snapshot returns the stats once the run has
   quiesced, when the latency histograms hold every completion. *)
let start_open_loop cluster (instance : Benchmarks.Workload.instance) ~seed ~nodes ~stop
    ~duration ~rate ~population ~max_per_node =
  let engine = Cluster.engine cluster in
  let metrics = Cluster.metrics cluster in
  let arrival_rng = Util.Rng.create (seed * 7919) in
  let mean_gap = 1000. /. rate (* ms between arrivals *) in
  (* Per-node admission: [in_service] below the cap submits immediately;
     beyond it the arrival waits in the node's FIFO and its queueing delay
     is measured arrival -> admission. *)
  let queues = Array.init nodes (fun _ -> Queue.create ()) in
  let in_service = Array.make nodes 0 in
  let backlog = ref 0 in
  let peak_backlog = ref 0 in
  let arrivals = ref 0 in
  let rec submit ~node ~client ~nth ~arrived =
    in_service.(node) <- in_service.(node) + 1;
    let queue_delay = Sim.Engine.now engine -. arrived in
    let program = instance.generate (client_rng ~seed ~client ~nth) in
    let admitted = Sim.Engine.now engine in
    Cluster.submit cluster ~node program ~on_done:(fun outcome ->
        let now = Sim.Engine.now engine in
        Metrics.note_open_loop_done metrics ~queue_delay ~service:(now -. admitted);
        ignore (outcome : Executor.outcome);
        in_service.(node) <- in_service.(node) - 1;
        match Queue.take_opt queues.(node) with
        | None -> ()
        | Some (client, nth, arrived) ->
          decr backlog;
          submit ~node ~client ~nth ~arrived)
  in
  (* The arrival ordinal doubles as the per-request RNG salt: a client
     firing twice draws two different transactions, and no per-client
     counter (or any per-client state at all) needs to exist. *)
  let total_arrivals = ref 0 in
  let arrive () =
    incr arrivals;
    let client = Util.Rng.int arrival_rng population in
    let nth = !total_arrivals in
    incr total_arrivals;
    let node = client mod nodes in
    if in_service.(node) < max_per_node then
      submit ~node ~client ~nth ~arrived:(Sim.Engine.now engine)
    else begin
      Queue.push (client, nth, Sim.Engine.now engine) queues.(node);
      incr backlog;
      if !backlog > !peak_backlog then peak_backlog := !backlog
    end
  in
  let rec pump () =
    if not !stop then begin
      let gap = Util.Rng.exponential arrival_rng ~mean:mean_gap in
      Sim.Engine.schedule_at engine
        ~time:(Sim.Engine.now engine +. gap)
        (fun () ->
          if not !stop then begin
            arrive ();
            pump ()
          end)
    end
  in
  pump ();
  let on_reset () =
    arrivals := 0;
    peak_backlog := !backlog
  in
  let close () =
    let arrived = !arrivals
    and completed = Metrics.open_loop_completions metrics
    and final_backlog = !backlog in
    fun () ->
      let qd = Metrics.open_queue_delay metrics and sv = Metrics.open_service metrics in
      {
        offered_load = rate;
        achieved_load =
          (if duration <= 0. then 0. else Float.of_int completed /. (duration /. 1000.));
        population;
        arrivals = arrived;
        completions = completed;
        service_mean = Util.Hdr.mean sv;
        service_p50 = Util.Hdr.percentile sv 50.;
        service_p95 = Util.Hdr.percentile sv 95.;
        service_p99 = Util.Hdr.percentile sv 99.;
        queue_mean = Util.Hdr.mean qd;
        queue_p50 = Util.Hdr.percentile qd 50.;
        queue_p95 = Util.Hdr.percentile qd 95.;
        queue_p99 = Util.Hdr.percentile qd 99.;
        peak_backlog = !peak_backlog;
        final_backlog;
      }
  in
  (on_reset, close)

let run ?(load = Closed { clients = 26; client_nodes = None }) ?(warmup = 2_000.)
    ?(duration = 30_000.) ?(events = []) ?telemetry spec =
  Option.iter (fun msg -> invalid_arg ("Experiment.run: " ^ msg)) (load_error load);
  let cluster, instance = setup spec in
  let tracker = Scenario.install cluster events in
  let stop = ref false in
  (* Clients are membership-aware: a client whose home node has been
     decommissioned resubmits through the next member up (wrapping), like
     an application reconnecting after its server was rotated out.  A
     {e crashed} home stays a member, and the client dies with its machine
     (Executor.kill_node): its root never reports back and it stops
     resubmitting, as a testbed thread dies with its machine. *)
  let route home =
    if Cluster.is_member cluster home then home
    else
      let members = Cluster.members cluster in
      match List.find_opt (fun n -> n > home) members with
      | Some n -> n
      | None -> List.hd members
  in
  (* Either shape starts its load here: after the fault schedule, before
     the warm-up and window-close events, so a run's (time, seq) order is
     the one each shape had when it had its own driver. *)
  let on_reset, close_open_loop =
    match load with
    | Closed { clients; client_nodes } ->
      let client_rng = Util.Rng.create (spec.seed * 7919) in
      let rec client node rng =
        if not !stop then begin
          let program = instance.generate rng in
          Cluster.submit cluster ~node:(route node) program ~on_done:(fun _ ->
              client node rng)
        end
      in
      let placements =
        Array.of_list (Option.value ~default:(List.init spec.nodes Fun.id) client_nodes)
      in
      for c = 0 to clients - 1 do
        client placements.(c mod Array.length placements) (Util.Rng.split client_rng)
      done;
      (ignore, None)
    | Open { rate; population; max_per_node } ->
      let on_reset, close =
        start_open_loop cluster instance ~seed:spec.seed ~nodes:spec.nodes ~stop ~duration
          ~rate ~population ~max_per_node
      in
      (on_reset, Some close)
  in
  (* Warm-up, then zero the counters; snapshot at window close; then stop
     admission and drain so the invariant checks see quiescent replicas. *)
  let horizon = warmup +. duration in
  let label =
    Printf.sprintf "%s/%s%s" spec.benchmark.name
      (Config.mode_name spec.config.Config.mode)
      (if Option.is_some close_open_loop then "/open-loop" else "")
  in
  let snap = ref None in
  if warmup > 0. then
    Sim.Engine.schedule_at (Cluster.engine cluster) ~time:warmup (fun () ->
        Cluster.reset_counters cluster;
        on_reset ());
  Sim.Engine.schedule_at (Cluster.engine cluster) ~time:horizon (fun () ->
      stop := true;
      snap :=
        Some
          ( measure (Cluster.metrics cluster) ~label ~duration
              ~messages:(Cluster.messages_sent cluster)
              ~by_kind:(Cluster.messages_by_kind cluster),
            Option.map (fun close -> close ()) close_open_loop ));
  let stalls =
    drive cluster ~horizon ~window:(stall_window events) telemetry
  in
  let report = Some (Scenario.report tracker) in
  let invariant = instance.check () in
  let consistent =
    if spec.with_oracle then Cluster.check_consistency cluster else Ok ()
  in
  match !snap with
  | Some (s, open_loop) ->
    { s with stalls; open_loop = Option.map (fun stats -> stats ()) open_loop; report;
             invariant; consistent }
  | None -> invalid_arg "Experiment.run: snapshot event never fired"

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
    measure system.metrics ~label:system.name ~duration ~messages:(system.messages ())
      ~by_kind:[]
  in
  system.drain ();
  { s with consistent = system.check () }
