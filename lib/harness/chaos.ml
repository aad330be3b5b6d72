(* Chaos testing: seeded random fault schedules against a live workload,
   checked by two oracles after the run drains to quiescence —

   - safety: the 1-copy-serializability oracle plus the bank invariant
     (total balance conserved, robust to clients that die mid-run);
   - liveness: a watchdog that samples commit progress on a fixed grid and
     flags any window with in-flight transactions but zero new commits,
     capturing the held leases and live coordinators for the stall report.

   Every run is a pure function of its seed: the schedule is drawn from a
   dedicated [Util.Rng.t] and the cluster/workload reuse the same seed, so
   a failing seed replays exactly.  Unlike the curated failure experiments
   (which keep clients off crash victims), chaos places clients on every
   node — crashing a node that hosts active coordinators is precisely the
   scenario the lease-termination protocol exists for. *)

open Core

type knobs = {
  nodes : int;
  clients : int;
  horizon : float;
  max_crashes : int;
  read_level : int;
  accounts : int;
  calls : int;
  read_ratio : float;
  spares : int;
  reconfigs : int;
  shards : int;
  shard_ops : int;
  cross_shard_prob : float;
}

let default_knobs =
  {
    nodes = 9;
    clients = 18;
    horizon = 8_000.;
    max_crashes = 2;
    read_level = 1;
    accounts = 24;
    calls = 3;
    read_ratio = 0.3;
    spares = 0;
    reconfigs = 0;
    shards = 1;
    shard_ops = 0;
    cross_shard_prob = 0.;
  }

(* Rolling-restart preset: enough spares to keep a replacement pipeline
   going, a longer horizon so every initial node can be swapped out once,
   and a tame crash budget (the churn itself is the fault load). *)
let rolling_knobs =
  { default_knobs with horizon = 16_000.; spares = 2; max_crashes = 1; reconfigs = 0 }

(* {2 Schedule generation} *)

let distinct_nodes rng ~nodes ~count =
  let all = Array.init nodes Fun.id in
  Util.Rng.shuffle rng all;
  Array.to_list (Array.sub all 0 (Stdlib.min count nodes))

let span rng a b = a +. Util.Rng.float rng (b -. a)

(* Mirror of [Cluster.create]'s contiguous initial partition: which shard
   a node replicates before any split rearranges the layout. *)
let initial_shard_of ~nodes ~shards n =
  let base = nodes / shards and rem = nodes mod shards in
  let rec find s =
    let start = (s * base) + Stdlib.min s rem in
    let size = base + if s < rem then 1 else 0 in
    if n < start + size then s else find (s + 1)
  in
  find 0

let generate knobs ~seed =
  let rng = Util.Rng.create (seed lxor 0x5eed_cafe) in
  let h = knobs.horizon in
  let events = ref [] in
  let add e = events := e :: !events in
  (* Nodes already cast in another fault's role; membership churn below
     steers clear of them so a leave never races its victim's crash. *)
  let busy = ref [] in
  (* Crash/recover pairs on distinct victims; every victim recovers well
     before the horizon so the drain phase always has a full machine
     complement to finish with. *)
  let n_crashes = Util.Rng.int rng (knobs.max_crashes + 1) in
  let crash_victims =
    let drawn = distinct_nodes rng ~nodes:knobs.nodes ~count:n_crashes in
    if knobs.shards <= 1 then drawn
    else begin
      (* Sharded clusters: never schedule the simultaneous death of an
         entire shard — no surviving replica could serve its slice or
         hold rescue evidence, and Scenario.validate rejects exactly
         that.  Post-filtering keeps the draw sequence (and so every
         unsharded schedule) unchanged. *)
      let killed = Array.make knobs.shards 0 in
      let size s =
        let base = knobs.nodes / knobs.shards and rem = knobs.nodes mod knobs.shards in
        base + if s < rem then 1 else 0
      in
      List.filter
        (fun node ->
          let s = initial_shard_of ~nodes:knobs.nodes ~shards:knobs.shards node in
          if killed.(s) + 1 < size s then begin
            killed.(s) <- killed.(s) + 1;
            true
          end
          else false)
        drawn
    end
  in
  List.iter
    (fun node ->
      let at = span rng (0.10 *. h) (0.55 *. h) in
      let outage = span rng (0.05 *. h) (0.25 *. h) in
      busy := node :: !busy;
      add (Scenario.Crash { node; at });
      add (Scenario.Recover { node; at = at +. outage }))
    crash_victims;
  (* A minority partition: both sides are named so the scenario layer
     suspects exactly the minority (the majority side keeps its quorums). *)
  if Util.Rng.chance rng 0.5 && knobs.nodes >= 4 then begin
    let minority_size = 1 + Util.Rng.int rng (knobs.nodes / 3) in
    let minority = distinct_nodes rng ~nodes:knobs.nodes ~count:minority_size in
    let majority =
      (* Spares and later joiners must land in the majority group:
         unnamed nodes fall into the network's implicit extra group and
         would be cut off from {e both} sides. *)
      List.init (knobs.nodes + knobs.spares) Fun.id
      |> List.filter (fun n -> not (List.mem n minority))
    in
    busy := minority @ !busy;
    add
      (Scenario.Partition
         {
           groups = [ minority; majority ];
           at = span rng (0.15 *. h) (0.55 *. h);
           duration = span rng (0.05 *. h) (0.20 *. h);
         })
  end;
  if Util.Rng.chance rng 0.6 then
    add
      (Scenario.Drop
         {
           p = span rng 0.01 0.08;
           at = span rng 0. (0.5 *. h);
           duration = Some (span rng (0.10 *. h) (0.40 *. h));
         });
  if Util.Rng.chance rng 0.4 then
    add
      (Scenario.Duplicate
         {
           p = span rng 0.01 0.10;
           at = span rng 0. (0.5 *. h);
           duration = Some (span rng (0.10 *. h) (0.40 *. h));
         });
  if Util.Rng.chance rng 0.4 then
    add
      (Scenario.Spike
         {
           p = span rng 0.05 0.25;
           factor = span rng 2. 6.;
           at = span rng 0. (0.5 *. h);
           duration = Some (span rng (0.10 *. h) (0.30 *. h));
         });
  if Util.Rng.chance rng 0.4 then begin
    match distinct_nodes rng ~nodes:knobs.nodes ~count:2 with
    | [ a; b ] ->
      add
        (Scenario.Flaky
           {
             a;
             b;
             p = span rng 0.1 0.4;
             at = span rng 0. (0.5 *. h);
             duration = Some (span rng (0.10 *. h) (0.30 *. h));
           })
    | _ -> ()
  end;
  if Util.Rng.chance rng 0.3 then begin
    let node = Util.Rng.int rng knobs.nodes in
    busy := node :: !busy;
    add
      (Scenario.Suspect
         {
           node;
           at = span rng (0.10 *. h) (0.60 *. h);
           duration = span rng (0.05 *. h) (0.15 *. h);
         })
  end;
  (* Membership churn: up to [reconfigs] sequential join/leave/replace
     operations over nodes not already cast as crash / partition / suspect
     victims, tracked against the evolving member set so every drawn
     operation is valid when it fires.  Departed nodes recycle through the
     spare pool, so a schedule can leave a node and join it back later.
     All the churn draws happen after the classic ones: a knobs record with
     [reconfigs = 0] reproduces pre-churn schedules byte-for-byte.

     Sharded clusters also track each shard's size, so a leave never takes
     its shard below 3 members (a join lands in shard 0, a replace's joiner
     takes the leaver's shard).  Unsharded, the global floor already
     implies this, so those schedules draw exactly as before. *)
  let shrunk = Array.make knobs.shards false in
  if knobs.reconfigs > 0 then begin
    let members = ref (List.init knobs.nodes Fun.id) in
    let pool = ref (List.init knobs.spares (fun i -> knobs.nodes + i)) in
    let floor = Stdlib.max 3 ((knobs.nodes / 2) + 1) in
    let home =
      Array.init (knobs.nodes + knobs.spares) (fun n ->
          if n < knobs.nodes then initial_shard_of ~nodes:knobs.nodes ~shards:knobs.shards n
          else 0)
    in
    let sizes = Array.make knobs.shards 0 in
    Array.iteri (fun n s -> if n < knobs.nodes then sizes.(s) <- sizes.(s) + 1) home;
    let n_ops = Util.Rng.int rng (knobs.reconfigs + 1) in
    let slot i =
      (0.20 *. h)
      +. (Float.of_int i *. (0.55 *. h /. Float.of_int (Stdlib.max 1 n_ops)))
      +. span rng 0. (0.02 *. h)
    in
    for i = 0 to n_ops - 1 do
      let leavable = List.filter (fun n -> not (List.mem n !busy)) !members in
      let shrinkable = List.filter (fun n -> sizes.(home.(n)) > 3) leavable in
      let can_shrink = List.length !members > floor && shrinkable <> [] in
      let can_join = !pool <> [] in
      let pick among = List.nth among (Util.Rng.int rng (List.length among)) in
      let take_spare () =
        match !pool with
        | j :: rest ->
          pool := rest;
          j
        | [] -> assert false
      in
      let choices =
        (if can_join then [ `Join ] else [])
        @ (if can_shrink then [ `Leave ] else [])
        @ if can_join && leavable <> [] then [ `Replace ] else []
      in
      match choices with
      | [] -> ()
      | _ -> (
        match List.nth choices (Util.Rng.int rng (List.length choices)) with
        | `Join ->
          let j = take_spare () in
          members := j :: !members;
          home.(j) <- 0;
          sizes.(0) <- sizes.(0) + 1;
          add (Scenario.Join { node = j; at = slot i })
        | `Leave ->
          let l = pick shrinkable in
          members := List.filter (fun n -> n <> l) !members;
          sizes.(home.(l)) <- sizes.(home.(l)) - 1;
          shrunk.(home.(l)) <- true;
          pool := !pool @ [ l ];
          add (Scenario.Leave { node = l; at = slot i })
        | `Replace ->
          let l = pick leavable in
          let j = take_spare () in
          members := j :: List.filter (fun n -> n <> l) !members;
          home.(j) <- home.(l);
          pool := !pool @ [ l ];
          add (Scenario.Replace { leaving = l; joining = j; at = slot i }))
    done
  end;
  (* Shard-directory churn: up to [shard_ops] sequential moves/splits,
     tracked against a mirror of the runtime directory (splits re-home the
     odd-indexed objects of the split shard, exactly as the cluster does)
     so every drawn operation is valid when it fires.  A shard the churn
     above shrinks is never split: its size at the split, and the size of
     the half a later leave hits, depend on the interleaving.  These draws
     come after every classic one: [shards = 1] or [shard_ops = 0]
     reproduces the pre-shard schedule byte-for-byte. *)
  if knobs.shards > 1 && knobs.shard_ops > 0 then begin
    let dir = Array.init knobs.accounts (fun oid -> oid mod knobs.shards) in
    let sizes =
      let base = knobs.nodes / knobs.shards and rem = knobs.nodes mod knobs.shards in
      ref (List.init knobs.shards (fun s -> base + if s < rem then 1 else 0))
    in
    let shard_count () = List.length !sizes in
    let n_ops = Util.Rng.int rng (knobs.shard_ops + 1) in
    let slot i =
      (0.20 *. h)
      +. (Float.of_int i *. (0.50 *. h /. Float.of_int (Stdlib.max 1 n_ops)))
      +. span rng 0. (0.02 *. h)
    in
    for i = 0 to n_ops - 1 do
      let splittable =
        List.mapi (fun s n -> (s, n)) !sizes
        |> List.filter (fun (s, n) -> n >= 6 && not (s < knobs.shards && shrunk.(s)))
      in
      if splittable <> [] && Util.Rng.chance rng 0.3 then begin
        let s, n = List.nth splittable (Util.Rng.int rng (List.length splittable)) in
        (* keep ceil(n/2), the new shard gets the rest; odd-indexed
           objects of [s] (in oid order) re-home onto the new shard *)
        let new_id = shard_count () in
        let idx = ref 0 in
        Array.iteri
          (fun oid owner ->
            if owner = s then begin
              if !idx land 1 = 1 then dir.(oid) <- new_id;
              incr idx
            end)
          dir;
        sizes :=
          List.mapi (fun j m -> if j = s then (n + 1) / 2 else m) !sizes @ [ n / 2 ];
        add (Scenario.ShardSplit { shard = s; at = slot i })
      end
      else begin
        let oid = Util.Rng.int rng knobs.accounts in
        let cur = dir.(oid) in
        let to_shard =
          if shard_count () = 1 then cur
          else begin
            let t = Util.Rng.int rng (shard_count () - 1) in
            if t >= cur then t + 1 else t
          end
        in
        if to_shard <> cur then begin
          dir.(oid) <- to_shard;
          add (Scenario.ShardMove { oid; to_shard; at = slot i })
        end
      end
    done
  end;
  List.rev !events

(* A full rolling restart: every initial node is replaced exactly once by
   a spare (departed nodes recycling into the pool), under a concurrent
   crash/recover early in the run and a minority partition cutting off the
   two nodes whose replacement comes last.  Groups name every machine —
   spares included — because unnamed nodes fall into the network's
   implicit extra group. *)
let generate_rolling knobs ~seed =
  if knobs.spares < 1 then
    invalid_arg "Chaos.generate_rolling: rolling restarts need spares >= 1";
  if knobs.nodes < 5 then invalid_arg "Chaos.generate_rolling: needs nodes >= 5";
  let rng = Util.Rng.create (seed lxor 0x0011_ee77) in
  let h = knobs.horizon in
  let total = knobs.nodes + knobs.spares in
  let events = ref [] in
  let add e = events := e :: !events in
  (* One early crash/recover, fully healed before the churn begins. *)
  if knobs.max_crashes > 0 then begin
    let node = Util.Rng.int rng (knobs.nodes - 2) in
    let at = span rng (0.03 *. h) (0.06 *. h) in
    add (Scenario.Crash { node; at });
    add (Scenario.Recover { node; at = at +. span rng (0.04 *. h) (0.08 *. h) })
  end;
  (* Minority partition over the two nodes replaced last, so the churn and
     the partition overlap without ever wedging a reconfiguration on an
     unreachable subject. *)
  let minority = [ knobs.nodes - 2; knobs.nodes - 1 ] in
  let majority =
    List.init total Fun.id |> List.filter (fun n -> not (List.mem n minority))
  in
  add
    (Scenario.Partition
       {
         groups = [ minority; majority ];
         at = span rng (0.28 *. h) (0.32 *. h);
         duration = span rng (0.08 *. h) (0.12 *. h);
       });
  if Util.Rng.chance rng 0.5 then
    add
      (Scenario.Drop
         { p = span rng 0.01 0.05; at = span rng 0. (0.3 *. h); duration = Some (0.3 *. h) });
  (* Replace node i at its slot, drawing replacements from the spare pool;
     each leaver re-enters the pool, so [spares >= 1] suffices for any
     cluster size. *)
  let pool = Queue.create () in
  for s = 0 to knobs.spares - 1 do
    Queue.add (knobs.nodes + s) pool
  done;
  for i = 0 to knobs.nodes - 1 do
    let joining = Queue.pop pool in
    Queue.add i pool;
    add
      (Scenario.Replace
         {
           leaving = i;
           joining;
           at = (0.22 *. h) +. (Float.of_int i *. (0.68 *. h /. Float.of_int knobs.nodes));
         })
  done;
  List.rev !events

let render_schedule events =
  String.concat "; " (List.map (Format.asprintf "%a" Scenario.pp_event) events)

(* {2 Running one schedule} *)

type stall = {
  stall_at : float;
  stall_in_flight : (int * Core.Ids.txn_id) list;
  stall_leases : (int * Core.Ids.obj_id * int * float) list;
}

type result = {
  seed : int;
  events : Scenario.event list;
  commits : int;
  root_aborts : int;
  oracle : (unit, string) Stdlib.result;
  invariant : (unit, string) Stdlib.result;
  stalls : stall list;
  report : Scenario.report;
  quiesced_at : float;
  view_changes : int;
  fenced : int;
  final_epoch : int;
  shards : int;
  xshard_commits : int;
  xshard_aborts : int;
}

let passed r = r.oracle = Ok () && r.invariant = Ok () && r.stalls = []

(* The watchdog window must dwarf every legitimate no-progress interval:
   the full lease-termination pipeline (lease horizon, grace, the bounded
   status rounds) and the longest contiguous fault window in the schedule
   (plus failure detection), with a 2x safety factor so slow-but-alive
   configurations don't trip it. *)
let stall_window (config : Config.t) events =
  let termination =
    config.lease_duration +. config.status_grace
    +. (Float.of_int config.status_attempts *. config.request_timeout)
  in
  (* A reconfiguration legitimately pauses commits for its wedge (two
     request timeouts), a snapshot/handoff round or two, and — when a node
     departs — a lease drain bounded by the lease horizon; overlapping a
     partition can stretch the snapshot until the heal, which the fault
     window of the partition itself already covers. *)
  let reconfig_span =
    (8. *. config.request_timeout) +. config.lease_duration
  in
  let longest_fault =
    List.fold_left
      (fun acc event ->
        let window =
          match event with
          | Scenario.Crash _ | Scenario.Recover _ -> 0.
          | Scenario.Suspect { duration; _ } | Scenario.Partition { duration; _ } ->
            duration
          | Scenario.Drop { duration; _ }
          | Scenario.Duplicate { duration; _ }
          | Scenario.Spike { duration; _ }
          | Scenario.Flaky { duration; _ } ->
            Option.value ~default:0. duration
          | Scenario.Join _ | Scenario.Leave _ | Scenario.Replace _ -> reconfig_span
          (* Shard ops wedge the involved shards for the same pipeline:
             grace, snapshot, handoff, unwedge. *)
          | Scenario.ShardMove _ | Scenario.ShardSplit _ -> reconfig_span
        in
        Float.max acc window)
      0. events
  in
  let crash_outages =
    (* pair each crash with its node's next recovery *)
    List.fold_left
      (fun acc event ->
        match event with
        | Scenario.Crash { node; at } ->
          let recovery =
            List.fold_left
              (fun best e ->
                match e with
                | Scenario.Recover { node = n; at = r } when n = node && r >= at ->
                  Float.min best r
                | _ -> best)
              Float.infinity events
          in
          if Float.is_finite recovery then Float.max acc (recovery -. at) else acc
        | _ -> acc)
      0. events
  in
  2. *. (termination +. Float.max longest_fault crash_outages) +. 1_000.

let run_one ?(config = Config.default Config.Closed) ?tracer ?batch_commit
    ?(rolling = false) knobs ~seed =
  let events =
    if rolling then generate_rolling knobs ~seed else generate knobs ~seed
  in
  let cluster, instance =
    Experiment.setup
      (Experiment.spec ~nodes:knobs.nodes ~spares:knobs.spares ~seed
         ~read_level:knobs.read_level ?tracer ?batch_commit ~shards:knobs.shards ~config
         ~benchmark:Benchmarks.Bank.benchmark
         ~params:
           {
             Benchmarks.Workload.default_params with
             objects = knobs.accounts;
             calls = knobs.calls;
             read_ratio = knobs.read_ratio;
             key_skew = 0.5;
             cross_shard_prob = knobs.cross_shard_prob;
           }
         ())
  in
  let tracker = Scenario.install cluster events in
  (* Closed-loop clients on EVERY node, crash victims included.  A client
     whose node dies is killed with it (Executor.kill_node): its root never
     reports back and it stops resubmitting — exactly a testbed thread
     dying with its machine. *)
  let client_rng = Util.Rng.create (seed * 7919) in
  let stop = ref false in
  (* Clients are membership-aware: a client whose home node has been
     decommissioned resubmits through the next member up (wrapping), like
     an application reconnecting after its server was rotated out.  A
     {e crashed} home stays a member, so crash-death semantics are
     unchanged — the client dies with its machine. *)
  let route home =
    if Cluster.is_member cluster home then home
    else
      let members = Cluster.members cluster in
      match List.find_opt (fun n -> n > home) members with
      | Some n -> n
      | None -> List.hd members
  in
  let rec client node rng =
    if not !stop then begin
      let program = instance.Benchmarks.Workload.generate rng in
      Cluster.submit cluster ~node:(route node) program ~on_done:(fun _ ->
          client node rng)
    end
  in
  for c = 0 to knobs.clients - 1 do
    client (c mod knobs.nodes) (Util.Rng.split client_rng)
  done;
  Sim.Engine.schedule_at (Cluster.engine cluster) ~time:knobs.horizon (fun () ->
      stop := true);
  (* Liveness watchdog: drive the engine in watchdog-window steps instead of
     draining blindly, so a livelock shows up as a stall report rather than
     a hang.  A window with no new commits but live coordinators (or any
     non-quiescent engine once progress has ceased entirely) is a stall;
     after [max_idle] commit-free windows past the horizon the run is
     abandoned and reported.  Termination is structural: post-horizon
     commits are bounded by the surviving clients, so the loop runs at most
     that many progressing windows plus [max_idle]. *)
  let window = stall_window config events in
  let stalls = ref [] in
  let metrics = Cluster.metrics cluster in
  let engine = Cluster.engine cluster in
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
  let max_idle = 3 in
  let rec drive ~last_commits ~idle =
    if Sim.Engine.pending engine > 0 then begin
      Cluster.run_for cluster window;
      let commits = Metrics.commits metrics in
      if Sim.Engine.pending engine > 0 then begin
        let progressed = commits > last_commits in
        if (not progressed) && Cluster.in_flight cluster <> [] then note_stall ();
        let idle =
          if progressed || Cluster.now cluster <= knobs.horizon then 0 else idle + 1
        in
        if idle >= max_idle then begin
          (* Abandoned non-quiescent: events keep firing but nothing
             commits — a liveness failure even with no coordinator alive
             (e.g. a recovery or status loop that never converges). *)
          if !stalls = [] then note_stall ()
        end
        else drive ~last_commits:commits ~idle
      end
    end
  in
  drive ~last_commits:0 ~idle:0;
  {
    seed;
    events;
    commits = Metrics.commits metrics;
    root_aborts = Metrics.root_aborts metrics;
    oracle = Cluster.check_consistency cluster;
    invariant = instance.Benchmarks.Workload.check ();
    stalls = List.rev !stalls;
    report = Scenario.report tracker;
    quiesced_at = Cluster.now cluster;
    view_changes = Metrics.view_changes metrics;
    fenced = Cluster.fenced_messages cluster;
    final_epoch = Cluster.epoch cluster;
    shards = Cluster.shard_count cluster;
    xshard_commits = Metrics.cross_shard_commits metrics;
    xshard_aborts = Metrics.cross_shard_aborts metrics;
  }

let failures results = List.filter (fun r -> not (passed r)) results

(* {2 Rendering} *)

let pp_stall ppf s =
  let flight =
    String.concat ", "
      (List.map (fun (node, txn) -> Printf.sprintf "txn %d@node %d" txn node) s.stall_in_flight)
  in
  let leases =
    String.concat ", "
      (List.map
         (fun (node, oid, owner, expires) ->
           Printf.sprintf "oid %d@node %d owner %d exp %.0f" oid node owner expires)
         s.stall_leases)
  in
  Format.fprintf ppf "stall @%.0f in-flight [%s] leases [%s]" s.stall_at flight leases

let pp_result ppf r =
  let status = function Ok () -> "ok" | Error msg -> "FAILED: " ^ msg in
  Format.fprintf ppf
    "@[<v>seed %d: %s@,\
     schedule: %s@,\
     commits %d, aborts %d, quiesced @%.0f@,\
     oracle %s; invariant %s@,\
     leases[expired=%d presumed=%d rescued=%d] retransmit give-ups %d@,\
     views[changes=%d epoch=%d fenced=%d]@]"
    r.seed
    (if passed r then "PASS" else "FAIL")
    (render_schedule r.events) r.commits r.root_aborts r.quiesced_at (status r.oracle)
    (status r.invariant) r.report.Scenario.lease_expirations
    r.report.Scenario.presumed_aborts r.report.Scenario.rescued_commits
    r.report.Scenario.retransmit_exhausted r.view_changes r.final_epoch r.fenced;
  if r.shards > 1 then
    Format.fprintf ppf "@,shards[n=%d xshard_commits=%d xshard_aborts=%d]" r.shards
      r.xshard_commits r.xshard_aborts;
  List.iter (fun s -> Format.fprintf ppf "@,%a" pp_stall s) r.stalls

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
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

let result_to_json r =
  let status = function Ok () -> {|"ok"|} | Error msg -> Printf.sprintf "%S" (json_escape msg) in
  let base =
    Printf.sprintf
      {|{"seed":%d,"pass":%b,"schedule":"%s","commits":%d,"root_aborts":%d,"quiesced_at":%.1f,"oracle":%s,"invariant":%s,"stalls":%d,"lease_expired":%d,"presumed_abort":%d,"status_rescued_commits":%d,"stalls_detected":%d,"retransmit_exhausted":%d,"view_changes":%d,"final_epoch":%d,"fenced":%d|}
      r.seed (passed r)
      (json_escape (render_schedule r.events))
      r.commits r.root_aborts r.quiesced_at (status r.oracle) (status r.invariant)
      (List.length r.stalls) r.report.Scenario.lease_expirations
      r.report.Scenario.presumed_aborts r.report.Scenario.rescued_commits
      r.report.Scenario.stalls_detected r.report.Scenario.retransmit_exhausted
      r.view_changes r.final_epoch r.fenced
  in
  (* Shard fields only on sharded runs, so unsharded JSON is unchanged. *)
  let sharded =
    if r.shards <= 1 then ""
    else
      Printf.sprintf {|,"shards":%d,"cross_shard_commits":%d,"cross_shard_aborts":%d|}
        r.shards r.xshard_commits r.xshard_aborts
  in
  base ^ sharded ^ "}"

let results_to_json results =
  "[" ^ String.concat "," (List.map result_to_json results) ^ "]"

let summary results =
  let failed = failures results in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let xc = total (fun r -> r.xshard_commits) and xa = total (fun r -> r.xshard_aborts) in
  Printf.sprintf
    "chaos: %d/%d schedules passed; commits=%d presumed_aborts=%d rescued=%d \
     lease_expirations=%d stalls=%d retransmit_give_ups=%d view_changes=%d \
     fenced=%d%s%s"
    (List.length results - List.length failed)
    (List.length results)
    (total (fun r -> r.commits))
    (total (fun r -> r.report.Scenario.presumed_aborts))
    (total (fun r -> r.report.Scenario.rescued_commits))
    (total (fun r -> r.report.Scenario.lease_expirations))
    (total (fun r -> List.length r.stalls))
    (total (fun r -> r.report.Scenario.retransmit_exhausted))
    (total (fun r -> r.view_changes))
    (total (fun r -> r.fenced))
    (if xc = 0 && xa = 0 then ""
     else Printf.sprintf " cross_shard[commits=%d aborts=%d]" xc xa)
    (if failed = [] then ""
     else
       "; failing seeds: "
       ^ String.concat ", " (List.map (fun r -> string_of_int r.seed) failed))
