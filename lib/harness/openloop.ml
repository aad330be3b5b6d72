open Core

(* Open-loop workload driver: requests arrive by a Poisson process at a
   configured offered load, from a logical client population that can
   number in the millions — no per-client record exists; each arrival
   derives its client's RNG on the fly from (seed, client, arrival index),
   so resident state is O(backlog), not O(population).

   Closed-loop harnesses (Experiment.run) measure the system the clients
   let them measure: when the system slows, the clients slow with it and
   latency percentiles flatten.  Open-loop arrivals do not wait — excess
   offered load piles into per-node admission queues, and the driver
   reports queueing delay (arrival -> admission) separately from service
   latency (admission -> completion).  Under saturation the former grows
   without bound while the latter stays flat; conflating them is the
   classic coordinated-omission mistake.  Percentiles come from the
   constant-memory HDR histograms in Core.Metrics, so p50/p95/p99 survive
   millions of samples without storing them. *)

type result = {
  label : string;
  duration : float;  (** measurement window, simulated ms *)
  offered_load : float;  (** configured arrivals per second *)
  achieved_load : float;  (** completions per second inside the window *)
  population : int;  (** logical clients *)
  arrivals : int;  (** arrivals inside the measurement window *)
  completions : int;
  commits : int;
  aborts : int;
  service_mean : float;
  service_p50 : float;
  service_p95 : float;
  service_p99 : float;
  queue_mean : float;
  queue_p50 : float;
  queue_p95 : float;
  queue_p99 : float;
  peak_backlog : int;  (** high-water mark of queued-but-unadmitted requests *)
  final_backlog : int;  (** backlog at window close — nonzero means saturated *)
  invariant : (unit, string) Stdlib.result;
  consistent : (unit, string) Stdlib.result;
}

let pp_result fmt r =
  let status = function Ok () -> "ok" | Error msg -> "FAILED: " ^ msg in
  Format.fprintf fmt
    "%s: offered=%.1f/s achieved=%.1f/s (pop=%d, %d arrivals, %d done) \
     service[mean=%.2f p50=%.2f p95=%.2f p99=%.2f] queue[mean=%.2f p50=%.2f \
     p95=%.2f p99=%.2f] backlog[peak=%d final=%d] invariant=%s oracle=%s"
    r.label r.offered_load r.achieved_load r.population r.arrivals
    r.completions r.service_mean r.service_p50 r.service_p95 r.service_p99
    r.queue_mean r.queue_p50 r.queue_p95 r.queue_p99 r.peak_backlog
    r.final_backlog (status r.invariant) (status r.consistent)

let to_json r =
  let b = Buffer.create 512 in
  let field ?(last = false) name v =
    Buffer.add_string b (Printf.sprintf "  %S: %s%s\n" name v
                           (if last then "" else ","))
  in
  Buffer.add_string b "{\n";
  field "label" (Printf.sprintf "%S" r.label);
  field "duration_ms" (Printf.sprintf "%.1f" r.duration);
  field "offered_load_per_s" (Printf.sprintf "%.3f" r.offered_load);
  field "achieved_load_per_s" (Printf.sprintf "%.3f" r.achieved_load);
  field "population" (string_of_int r.population);
  field "arrivals" (string_of_int r.arrivals);
  field "completions" (string_of_int r.completions);
  field "commits" (string_of_int r.commits);
  field "aborts" (string_of_int r.aborts);
  field "service_mean_ms" (Printf.sprintf "%.4f" r.service_mean);
  field "service_p50_ms" (Printf.sprintf "%.4f" r.service_p50);
  field "service_p95_ms" (Printf.sprintf "%.4f" r.service_p95);
  field "service_p99_ms" (Printf.sprintf "%.4f" r.service_p99);
  field "queue_mean_ms" (Printf.sprintf "%.4f" r.queue_mean);
  field "queue_p50_ms" (Printf.sprintf "%.4f" r.queue_p50);
  field "queue_p95_ms" (Printf.sprintf "%.4f" r.queue_p95);
  field "queue_p99_ms" (Printf.sprintf "%.4f" r.queue_p99);
  field "peak_backlog" (string_of_int r.peak_backlog);
  field "final_backlog" (string_of_int r.final_backlog);
  field "invariant"
    (match r.invariant with Ok () -> "\"ok\"" | Error m -> Printf.sprintf "%S" m);
  field ~last:true "oracle"
    (match r.consistent with Ok () -> "\"ok\"" | Error m -> Printf.sprintf "%S" m);
  Buffer.add_string b "}";
  Buffer.contents b

(* Deterministic per-arrival RNG: the "lazy client state".  A logical
   client is nothing but a number; each of its requests is a pure function
   of (seed, client, global arrival ordinal), so a million-client
   population costs no resident memory at all. *)
let client_rng ~seed ~client ~nth =
  Util.Rng.create
    ((seed * 0x9e3779b9) lxor (client * 0x85ebca6b) lxor (nth * 0xc2b2ae35))

let run ?(warmup = 2_000.) ?(duration = 30_000.) ?(population = 1_000_000)
    ?(max_per_node = 4) ~rate (spec : Experiment.spec) =
  if rate <= 0. then invalid_arg "Openloop.run: rate must be positive";
  if population <= 0 then invalid_arg "Openloop.run: population must be positive";
  if max_per_node <= 0 then invalid_arg "Openloop.run: max_per_node must be positive";
  let cluster, instance = Experiment.setup spec in
  let seed = spec.seed and nodes = spec.nodes in
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
  let stop = ref false in
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
    Metrics.note_open_loop_arrival metrics;
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
  (* Warm-up, then zero counters (and the warm-up's backlog watermark);
     snapshot raw counts at window close; stop arrivals there and drain the
     backlog so the invariant checks see quiescent replicas. *)
  let snap = ref None in
  Sim.Engine.schedule_at engine ~time:warmup (fun () ->
      Cluster.reset_counters cluster;
      arrivals := 0;
      peak_backlog := !backlog);
  Sim.Engine.schedule_at engine ~time:(warmup +. duration) (fun () ->
      stop := true;
      snap :=
        Some
          ( !arrivals,
            Metrics.open_loop_completions metrics,
            Metrics.commits metrics,
            Metrics.total_aborts metrics,
            !backlog ));
  Cluster.drain cluster;
  let arrived, completed, commits, aborts, final_backlog =
    match !snap with
    | Some s -> s
    | None -> invalid_arg "Openloop.run: snapshot event never fired"
  in
  let qd = Metrics.open_queue_delay metrics in
  let sv = Metrics.open_service metrics in
  let invariant = instance.check () in
  let consistent =
    if spec.with_oracle then Cluster.check_consistency cluster else Ok ()
  in
  {
    label =
      Printf.sprintf "%s/%s/open-loop" spec.benchmark.name
        (Config.mode_name spec.config.Config.mode);
    duration;
    offered_load = rate;
    achieved_load =
      (if duration <= 0. then 0.
       else Float.of_int completed /. (duration /. 1000.));
    population;
    arrivals = arrived;
    completions = completed;
    commits;
    aborts;
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
    invariant;
    consistent;
  }
