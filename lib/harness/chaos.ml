(* Chaos testing: seeded random fault schedules against a live workload,
   checked after the run quiesces —

   - safety: the 1-copy-serializability oracle plus the bank invariant
     (total balance conserved, robust to clients that die mid-run);
   - liveness: {!Experiment.run}'s watchdog, which flags any window with
     in-flight transactions but zero new commits.

   Chaos only generates: a schedule is a pure function of the knobs and
   the run spec (its seed included), and it runs through the same
   {!Experiment.run} as [qr-dtm scenario], with clients on every node and
   no warm-up, so a printed schedule replays exactly.  Unlike the curated
   failure experiments (which keep clients off crash victims), the
   clients' nodes crash too — crashing a node that hosts active
   coordinators is precisely the scenario the lease-termination protocol
   exists for. *)

open Core

type knobs = { horizon : float; max_crashes : int; reconfigs : int; shard_ops : int }

let default_knobs = { horizon = 8_000.; max_crashes = 2; reconfigs = 0; shard_ops = 0 }

(* Rolling-restart preset: a longer horizon so every initial node can be
   swapped out once, and a tame crash budget (the churn itself is the
   fault load). *)
let rolling_knobs = { default_knobs with horizon = 16_000.; max_crashes = 1 }

let default_spec =
  Experiment.spec ~nodes:9 ~seed:1 ~config:(Config.default Config.Closed)
    ~benchmark:Benchmarks.Bank.benchmark
    ~params:
      {
        Benchmarks.Workload.default_params with
        objects = 24;
        calls = 3;
        read_ratio = 0.3;
        key_skew = 0.5;
      }
    ()

(* {2 Schedule generation} *)

let distinct_nodes rng ~nodes ~count =
  let all = Array.init nodes Fun.id in
  Util.Rng.shuffle rng all;
  Array.to_list (Array.sub all 0 (Stdlib.min count nodes))

let span rng a b = a +. Util.Rng.float rng (b -. a)

let generate knobs (spec : Experiment.spec) =
  let nodes = spec.nodes and spares = spec.spares and shards = spec.shards in
  let rng = Util.Rng.create (spec.seed lxor 0x5eed_cafe) in
  let h = knobs.horizon in
  (* The view Cluster.create starts from; each phase below draws against
     its own copy, applying every event it draws. *)
  let initial = View.initial ~spares ~nodes ~shards () in
  let events = ref [] in
  let add e = events := e :: !events in
  (* Add [event] if its transition passes [View.check] on [view], applying
     it there. *)
  let draw view transition event =
    if Result.is_ok (View.check view transition) then begin
      View.apply view transition;
      add event
    end
  in
  (* Nodes already cast in another fault's role; membership churn below
     steers clear of them so a leave never races its victim's crash. *)
  let busy = ref [] in
  (* Crash/recover pairs on distinct victims; every victim recovers well
     before the horizon so the drain phase always has a full machine
     complement to finish with. *)
  let n_crashes = Util.Rng.int rng (knobs.max_crashes + 1) in
  let crash_victims =
    let drawn = distinct_nodes rng ~nodes ~count:n_crashes in
    if shards <= 1 then drawn
    else begin
      (* Sharded clusters: never schedule the death of an entire shard —
         no surviving replica could serve its slice or hold rescue
         evidence.  Every victim stays down in a scratch view, so a
         victim [View.check] refuses is the last live member of its shard
         whatever the timing.  Post-filtering keeps the draw sequence (and
         so every unsharded schedule) unchanged. *)
      let down = View.copy initial in
      List.filter
        (fun node ->
          let crash = View.Crash node in
          Result.is_ok (View.check down crash) && (View.apply down crash; true))
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
  if Util.Rng.chance rng 0.5 && nodes >= 4 then begin
    let minority_size = 1 + Util.Rng.int rng (nodes / 3) in
    let minority = distinct_nodes rng ~nodes ~count:minority_size in
    let majority =
      (* Spares and later joiners must land in the majority group:
         unnamed nodes fall into the network's implicit extra group and
         would be cut off from {e both} sides. *)
      List.init (nodes + spares) Fun.id
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
    match distinct_nodes rng ~nodes ~count:2 with
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
    let node = Util.Rng.int rng nodes in
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
     victims, each drawn valid against the view the earlier ones left
     ([View.check]: no leave takes its shard below the minimum) and under
     a majority floor of the initial size.  A join lands in shard 0.
     Departed nodes recycle through the spare pool, so a schedule can
     leave a node and join it back later.  All the churn draws happen
     after the classic ones: a knobs record with [reconfigs = 0]
     reproduces pre-churn schedules byte-for-byte. *)
  let shrunk = Array.make shards false in
  if knobs.reconfigs > 0 then begin
    let view = View.copy initial in
    (* The members in the order picks index: the initial nodes ascending,
       each joiner at the front. *)
    let order = ref (List.init nodes Fun.id) in
    let pool = ref (List.init spares (fun i -> nodes + i)) in
    let floor = Stdlib.max View.min_members ((nodes / 2) + 1) in
    let n_ops = Util.Rng.int rng (knobs.reconfigs + 1) in
    let slot i =
      (0.20 *. h)
      +. (Float.of_int i *. (0.55 *. h /. Float.of_int (Stdlib.max 1 n_ops)))
      +. span rng 0. (0.02 *. h)
    in
    for i = 0 to n_ops - 1 do
      let leavable = List.filter (fun n -> not (List.mem n !busy)) !order in
      let shrinkable =
        List.filter (fun n -> Result.is_ok (View.check view (Change (Leave n)))) leavable
      in
      let can_shrink = List.length !order > floor && shrinkable <> [] in
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
          order := j :: !order;
          draw view
            (Change (Join { node = j; shard = 0 }))
            (Scenario.Join { node = j; at = slot i })
        | `Leave ->
          let l = pick shrinkable in
          order := List.filter (fun n -> n <> l) !order;
          shrunk.(View.home view l) <- true;
          pool := !pool @ [ l ];
          draw view (Change (Leave l)) (Scenario.Leave { node = l; at = slot i })
        | `Replace ->
          let l = pick leavable in
          let j = take_spare () in
          order := j :: List.filter (fun n -> n <> l) !order;
          pool := !pool @ [ l ];
          draw view
            (Change (Replace { leaving = l; joining = j }))
            (Scenario.Replace { leaving = l; joining = j; at = slot i }))
    done
  end;
  (* Shard-directory churn: up to [shard_ops] sequential moves/splits, each
     drawn valid against the directory the earlier ones left (a split
     re-homes objects exactly as the cluster does).  This phase starts
     from the initial view: its events interleave in time with the
     churn's, so neither phase can see the other's.  A split needs the
     member count [View.check] asks for, and a shard the churn above
     shrinks is never split — its size at the split, and the size of the
     half a later leave hits, depend on the interleaving; joins only grow
     shard 0, so the initial sizes are a floor.  These draws come after
     every classic one: [shards = 1] or [shard_ops = 0] reproduces the
     pre-shard schedule byte-for-byte. *)
  if shards > 1 && knobs.shard_ops > 0 then begin
    let objects = spec.params.objects in
    let view = View.copy initial in
    View.allocate view ~oid:(objects - 1);
    let n_ops = Util.Rng.int rng (knobs.shard_ops + 1) in
    let slot i =
      (0.20 *. h)
      +. (Float.of_int i *. (0.50 *. h /. Float.of_int (Stdlib.max 1 n_ops)))
      +. span rng 0. (0.02 *. h)
    in
    for i = 0 to n_ops - 1 do
      let splittable =
        List.init (View.shard_count view) Fun.id
        |> List.filter (fun s ->
               Result.is_ok (View.check view (Change (Split s)))
               && not (s < shards && shrunk.(s)))
      in
      if splittable <> [] && Util.Rng.chance rng 0.3 then begin
        let s = List.nth splittable (Util.Rng.int rng (List.length splittable)) in
        draw view (Change (Split s)) (Scenario.ShardSplit { shard = s; at = slot i })
      end
      else begin
        (* A move to a uniformly drawn other shard. *)
        let oid = Util.Rng.int rng objects in
        let cur = View.shard_of_oid view oid in
        let t = Util.Rng.int rng (View.shard_count view - 1) in
        let to_shard = if t >= cur then t + 1 else t in
        draw view
          (Change (Move { oid; to_shard }))
          (Scenario.ShardMove { oid; to_shard; at = slot i })
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
let generate_rolling knobs (spec : Experiment.spec) =
  let nodes = spec.nodes and spares = spec.spares in
  if spares < 1 then invalid_arg "Chaos.generate_rolling: rolling restarts need spares >= 1";
  if nodes < 5 then invalid_arg "Chaos.generate_rolling: needs nodes >= 5";
  let rng = Util.Rng.create (spec.seed lxor 0x0011_ee77) in
  let h = knobs.horizon in
  let total = nodes + spares in
  let events = ref [] in
  let add e = events := e :: !events in
  (* One early crash/recover, fully healed before the churn begins. *)
  if knobs.max_crashes > 0 then begin
    let node = Util.Rng.int rng (nodes - 2) in
    let at = span rng (0.03 *. h) (0.06 *. h) in
    add (Scenario.Crash { node; at });
    add (Scenario.Recover { node; at = at +. span rng (0.04 *. h) (0.08 *. h) })
  end;
  (* Minority partition over the two nodes replaced last, so the churn and
     the partition overlap without ever wedging a reconfiguration on an
     unreachable subject. *)
  let minority = [ nodes - 2; nodes - 1 ] in
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
  for s = 0 to spares - 1 do
    Queue.add (nodes + s) pool
  done;
  for i = 0 to nodes - 1 do
    let joining = Queue.pop pool in
    Queue.add i pool;
    add
      (Scenario.Replace
         {
           leaving = i;
           joining;
           at = (0.22 *. h) +. (Float.of_int i *. (0.68 *. h /. Float.of_int nodes));
         })
  done;
  List.rev !events

(* {2 Running one schedule} *)

type result = { seed : int; events : Scenario.event list; run : Experiment.result }

let report r = Option.get r.run.Experiment.report

let passed r = Experiment.passed r.run

let run ~clients ~horizon (spec : Experiment.spec) events =
  {
    seed = spec.seed;
    events;
    run =
      Experiment.run ~load:(Closed { clients; client_nodes = None }) ~warmup:0.
        ~duration:horizon ~events spec;
  }

let run_one ?(rolling = false) ~clients knobs spec =
  let generate = if rolling then generate_rolling else generate in
  run ~clients ~horizon:knobs.horizon spec (generate knobs spec)

let failures results = List.filter (fun r -> not (passed r)) results

(* {2 Rendering} *)

let pp_stall ppf (s : Experiment.stall) =
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

let status = function Ok () -> "ok" | Error msg -> "FAILED: " ^ msg

let pp_result ppf r =
  let rp = report r in
  Format.fprintf ppf
    "@[<v>seed %d: %s@,\
     schedule: %s@,\
     commits %d, aborts %d, quiesced @%.0f@,\
     oracle %s; invariant %s@,\
     leases[expired=%d presumed=%d rescued=%d] retransmit give-ups %d@,\
     views[changes=%d epoch=%d fenced=%d]@]"
    r.seed
    (if passed r then "PASS" else "FAIL")
    (Scenario.to_string r.events) rp.total_commits rp.root_aborts rp.taken_at
    (status r.run.consistent) (status r.run.invariant) rp.lease_expirations
    rp.presumed_aborts rp.rescued_commits rp.retransmit_exhausted rp.view_changes
    rp.final_epoch rp.fenced_messages;
  if rp.shards > 1 then
    Format.fprintf ppf "@,shards[n=%d xshard_commits=%d xshard_aborts=%d]" rp.shards
      rp.cross_shard_commits rp.cross_shard_aborts;
  List.iter (fun s -> Format.fprintf ppf "@,%a" pp_stall s) r.run.stalls

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
  let rp = report r in
  let status = function Ok () -> {|"ok"|} | Error msg -> Printf.sprintf "%S" (json_escape msg) in
  let base =
    Printf.sprintf
      {|{"seed":%d,"pass":%b,"schedule":"%s","commits":%d,"root_aborts":%d,"quiesced_at":%.1f,"oracle":%s,"invariant":%s,"stalls":%d,"lease_expired":%d,"presumed_abort":%d,"status_rescued_commits":%d,"stalls_detected":%d,"retransmit_exhausted":%d,"view_changes":%d,"final_epoch":%d,"fenced":%d|}
      r.seed (passed r)
      (json_escape (Scenario.to_string r.events))
      rp.total_commits rp.root_aborts rp.taken_at (status r.run.consistent)
      (status r.run.invariant) (List.length r.run.stalls) rp.lease_expirations
      rp.presumed_aborts rp.rescued_commits rp.stalls_detected rp.retransmit_exhausted
      rp.view_changes rp.final_epoch rp.fenced_messages
  in
  (* Shard fields only on sharded runs, so unsharded JSON is unchanged. *)
  let sharded =
    if rp.shards <= 1 then ""
    else
      Printf.sprintf {|,"shards":%d,"cross_shard_commits":%d,"cross_shard_aborts":%d|}
        rp.shards rp.cross_shard_commits rp.cross_shard_aborts
  in
  base ^ sharded ^ "}"

let results_to_json results =
  "[" ^ String.concat "," (List.map result_to_json results) ^ "]"

let summary results =
  let failed = failures results in
  let total f = List.fold_left (fun acc r -> acc + f (report r)) 0 results in
  let xc = total (fun rp -> rp.cross_shard_commits)
  and xa = total (fun rp -> rp.cross_shard_aborts) in
  Printf.sprintf
    "chaos: %d/%d schedules passed; commits=%d presumed_aborts=%d rescued=%d \
     lease_expirations=%d stalls=%d retransmit_give_ups=%d view_changes=%d \
     fenced=%d%s%s"
    (List.length results - List.length failed)
    (List.length results)
    (total (fun rp -> rp.total_commits))
    (total (fun rp -> rp.presumed_aborts))
    (total (fun rp -> rp.rescued_commits))
    (total (fun rp -> rp.lease_expirations))
    (List.fold_left (fun acc r -> acc + List.length r.run.stalls) 0 results)
    (total (fun rp -> rp.retransmit_exhausted))
    (total (fun rp -> rp.view_changes))
    (total (fun rp -> rp.fenced_messages))
    (if xc = 0 && xa = 0 then ""
     else Printf.sprintf " cross_shard[commits=%d aborts=%d]" xc xa)
    (if failed = [] then ""
     else
       "; failing seeds: "
       ^ String.concat ", " (List.map (fun r -> string_of_int r.seed) failed))
