(* Fault-scenario DSL: a small textual language for composing fault
   injections against a running cluster, with bookkeeping of the degraded
   windows so experiments can report "commits while faults were active".

   Grammar (events separated by [;], times in simulated ms):

     crash <node> @<t>
     recover <node> @<t>
     suspect <node> @<t> for <d>
     partition <a,b|c,d|...> @<t> for <d>
     drop <p> @<t> [for <d>]
     dup <p> @<t> [for <d>]
     spike <p> <factor> @<t> [for <d>]
     flaky <a>-<b> <p> @<t> [for <d>]
     join <node> @<t>
     leave <node> @<t>
     replace <leaving> <joining> @<t>
     shardmove <oid> <to_shard> @<t>
     shardsplit <shard> @<t>

   Example:
     "crash 11 @500; recover 11 @2500; drop 0.05 @0; partition 0,...|11,12 @1000 for 800"

   A partition event also falsely suspects every node outside its largest
   group, counting the members it leaves unnamed as one more group
   (cleared at heal): the tree-quorum layer only routes around
   unreachable nodes once the detector excludes them, which models the
   membership-view change a JGroups-style stack would deliver. *)

type event =
  | Crash of { node : int; at : float }
  | Recover of { node : int; at : float }
  | Suspect of { node : int; at : float; duration : float }
  | Partition of { groups : int list list; at : float; duration : float }
  | Drop of { p : float; at : float; duration : float option }
  | Duplicate of { p : float; at : float; duration : float option }
  | Spike of { p : float; factor : float; at : float; duration : float option }
  | Flaky of { a : int; b : int; p : float; at : float; duration : float option }
  | Join of { node : int; at : float }
  | Leave of { node : int; at : float }
  | Replace of { leaving : int; joining : int; at : float }
  | ShardMove of { oid : int; to_shard : int; at : float }
  | ShardSplit of { shard : int; at : float }

(* Times and probabilities print losslessly: the shortest of [%.15g] and
   [%.17g] that parses back to the same float, so a printed schedule
   replays as the one that was generated. *)
let float_to_string f =
  let short = Printf.sprintf "%.15g" f in
  if Float.equal (float_of_string short) f then short else Printf.sprintf "%.17g" f

let pp_event ppf event =
  let f = float_to_string in
  let pr fmt = Format.fprintf ppf fmt in
  let for_ = Option.iter (fun d -> pr " for %s" (f d)) in
  match event with
  | Crash { node; at } -> pr "crash %d @%s" node (f at)
  | Recover { node; at } -> pr "recover %d @%s" node (f at)
  | Suspect { node; at; duration } -> pr "suspect %d @%s for %s" node (f at) (f duration)
  | Partition { groups; at; duration } ->
    let group g = String.concat "," (List.map string_of_int g) in
    pr "partition %s @%s for %s" (String.concat "|" (List.map group groups)) (f at) (f duration)
  | Drop { p; at; duration } ->
    pr "drop %s @%s" (f p) (f at);
    for_ duration
  | Duplicate { p; at; duration } ->
    pr "dup %s @%s" (f p) (f at);
    for_ duration
  | Spike { p; factor; at; duration } ->
    pr "spike %s %s @%s" (f p) (f factor) (f at);
    for_ duration
  | Flaky { a; b; p; at; duration } ->
    pr "flaky %d-%d %s @%s" a b (f p) (f at);
    for_ duration
  | Join { node; at } -> pr "join %d @%s" node (f at)
  | Leave { node; at } -> pr "leave %d @%s" node (f at)
  | Replace { leaving; joining; at } -> pr "replace %d %d @%s" leaving joining (f at)
  | ShardMove { oid; to_shard; at } -> pr "shardmove %d %d @%s" oid to_shard (f at)
  | ShardSplit { shard; at } -> pr "shardsplit %d @%s" shard (f at)

let to_string events = String.concat "; " (List.map (Format.asprintf "%a" pp_event) events)

(* {2 Parsing} *)

exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

let int_of s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 0 -> n
  | _ -> fail "expected a node id, got %S" s

let float_of what s =
  match float_of_string_opt (String.trim s) with
  | Some f when f >= 0. -> f
  | _ -> fail "expected a %s, got %S" what s

let prob_of s =
  let p = float_of "probability" s in
  if p > 1. then fail "probability %g out of range" p;
  p

(* Split "... @t [for d]" into the head tokens, the time, and the optional
   duration. *)
let time_and_duration tokens =
  let rec split acc = function
    | [] -> fail "missing @<time>"
    | tok :: rest when String.length tok > 0 && tok.[0] = '@' ->
      let at = float_of "time" (String.sub tok 1 (String.length tok - 1)) in
      let duration =
        match rest with
        | [] -> None
        | [ "for"; d ] -> Some (float_of "duration" d)
        | _ -> fail "trailing tokens after @%g: %s" at (String.concat " " rest)
      in
      (List.rev acc, at, duration)
    | tok :: rest -> split (tok :: acc) rest
  in
  split [] tokens

let require_duration verb = function
  | Some d -> d
  | None -> fail "%s requires 'for <duration>'" verb

let no_duration verb = function
  | None -> ()
  | Some _ -> fail "%s takes no duration" verb

let parse_groups s =
  String.split_on_char '|' s
  |> List.map (fun group ->
         match
           String.split_on_char ',' group |> List.filter (fun x -> String.trim x <> "")
         with
         | [] -> fail "empty partition group in %S" s
         | members -> List.map int_of members)

let parse_event text =
  let tokens =
    String.split_on_char ' ' text |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  match tokens with
  | [] -> None
  | verb :: rest ->
    let args, at, duration = time_and_duration rest in
    let event =
      match (verb, args) with
      | "crash", [ node ] ->
        no_duration verb duration;
        Crash { node = int_of node; at }
      | "recover", [ node ] ->
        no_duration verb duration;
        Recover { node = int_of node; at }
      | "suspect", [ node ] ->
        Suspect { node = int_of node; at; duration = require_duration verb duration }
      | "partition", [ groups ] ->
        Partition
          { groups = parse_groups groups; at; duration = require_duration verb duration }
      | "drop", [ p ] -> Drop { p = prob_of p; at; duration }
      | "dup", [ p ] -> Duplicate { p = prob_of p; at; duration }
      | "spike", [ p; factor ] ->
        Spike { p = prob_of p; factor = float_of "factor" factor; at; duration }
      | "flaky", [ link; p ] ->
        (match String.split_on_char '-' link with
         | [ a; b ] -> Flaky { a = int_of a; b = int_of b; p = prob_of p; at; duration }
         | _ -> fail "flaky link must be <a>-<b>, got %S" link)
      | "join", [ node ] ->
        no_duration verb duration;
        Join { node = int_of node; at }
      | "leave", [ node ] ->
        no_duration verb duration;
        Leave { node = int_of node; at }
      | "replace", [ leaving; joining ] ->
        no_duration verb duration;
        Replace { leaving = int_of leaving; joining = int_of joining; at }
      | "shardmove", [ oid; to_shard ] ->
        no_duration verb duration;
        ShardMove { oid = int_of oid; to_shard = int_of to_shard; at }
      | "shardsplit", [ shard ] ->
        no_duration verb duration;
        ShardSplit { shard = int_of shard; at }
      | _ ->
        fail "cannot parse event %S (verb %S with %d argument(s))" text verb
          (List.length args)
    in
    Some event

let parse spec =
  match
    String.split_on_char ';' spec
    |> List.filter_map (fun chunk -> parse_event (String.trim chunk))
  with
  | events -> Ok events
  | exception Parse_error msg -> Error msg

(* {2 Validation} *)

(* The cluster view change a membership or directory event requests.
   Joins land in shard 0: the DSL carries no shard. *)
let view_change : event -> Core.View.change option = function
  | Join { node; _ } -> Some (Join { node; shard = 0 })
  | Leave { node; _ } -> Some (Leave node)
  | Replace { leaving; joining; _ } -> Some (Replace { leaving; joining })
  | ShardMove { oid; to_shard; _ } -> Some (Move { oid; to_shard })
  | ShardSplit { shard; _ } -> Some (Split shard)
  | Crash _ | Recover _ | Suspect _ | Partition _ | Drop _ | Duplicate _ | Spike _
  | Flaky _ ->
    None

(* What an event does to the membership view, if anything, and when. *)
let transition event : (float * Core.View.transition) option =
  match event with
  | Crash { node; at } -> Some (at, Crash node)
  | Recover { node; at } -> Some (at, Recover node)
  | Join { at; _ } | Leave { at; _ } | Replace { at; _ } | ShardMove { at; _ }
  | ShardSplit { at; _ } ->
    Option.map (fun change -> (at, Core.View.Change change)) (view_change event)
  | Suspect _ | Partition _ | Drop _ | Duplicate _ | Spike _ | Flaky _ -> None

let nodes_named = function
  | Crash { node; _ } | Recover { node; _ } | Suspect { node; _ } | Join { node; _ }
  | Leave { node; _ } ->
    [ node ]
  | Partition { groups; _ } -> List.concat groups
  | Flaky { a; b; _ } -> [ a; b ]
  | Replace { leaving; joining; _ } -> [ leaving; joining ]
  | Drop _ | Duplicate _ | Spike _ | ShardMove _ | ShardSplit _ -> []

(* One node-range pass, then one time-ordered walk of a scratch copy of the
   view: each transition must pass [View.check] when it fires, and is then
   applied exactly as the cluster will apply it.  Events at the same time
   keep their schedule order, as the cluster's view-change queue does. *)
let validate view events =
  let capacity = Core.View.capacity view in
  let out_of_range event =
    List.find_map
      (fun n ->
        if n < 0 || n >= capacity then
          Some (Format.asprintf "%a names node %d, outside [0, %d)" pp_event event n capacity)
        else None)
      (nodes_named event)
  in
  match List.find_map out_of_range events with
  | Some msg -> Error msg
  | None ->
    let scratch = Core.View.copy view in
    List.filter_map
      (fun event -> Option.map (fun (at, tr) -> (at, event, tr)) (transition event))
      events
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
    |> List.fold_left
         (fun acc (_, event, tr) ->
           Result.bind acc (fun () ->
               match Core.View.check scratch tr with
               | Ok () -> Ok (Core.View.apply scratch tr)
               | Error msg -> Error (Format.asprintf "%a: %s" pp_event event msg)))
         (Ok ())

(* {2 Installation and degraded-window tracking} *)

type tracker = {
  cluster : Core.Cluster.t;
  events : event list;
  mutable active : int;  (* fault conditions currently in force *)
  mutable window_started : float;
  mutable window_commits : int;
  mutable window_resets : int; (* [Metrics.resets] when the window opened *)
  mutable degraded_time : float;
  mutable degraded_commits : int;
}

let enter t =
  if t.active = 0 then begin
    let metrics = Core.Cluster.metrics t.cluster in
    t.window_started <- Core.Cluster.now t.cluster;
    t.window_commits <- Core.Metrics.commits metrics;
    t.window_resets <- Core.Metrics.resets metrics
  end;
  t.active <- t.active + 1

(* Commits since the open window began.  A counter reset inside the window
   (the end of warm-up) zeroed the count, so it then holds exactly the
   commits after the reset — the only ones the report's total counts. *)
let commits_in_window t =
  let metrics = Core.Cluster.metrics t.cluster in
  if Core.Metrics.resets metrics = t.window_resets then
    Core.Metrics.commits metrics - t.window_commits
  else Core.Metrics.commits metrics

let leave t =
  t.active <- t.active - 1;
  if t.active = 0 then begin
    t.degraded_time <-
      t.degraded_time +. (Core.Cluster.now t.cluster -. t.window_started);
    t.degraded_commits <- t.degraded_commits + commits_in_window t
  end

let at_time cluster ~at f =
  Sim.Engine.schedule_at (Core.Cluster.engine cluster) ~time:at f

(* Degraded windows for one-shot fault conditions: a crash ends when the
   matching recovery *fires* (state transfer follows, but its duration is
   already reported separately as recovery time). *)
let install_event t event =
  let cluster = t.cluster in
  let network = Core.Cluster.network cluster in
  let windowed ~at ~duration start stop =
    at_time cluster ~at (fun () ->
        enter t;
        start ());
    Option.iter
      (fun d ->
        at_time cluster ~at:(at +. d) (fun () ->
            stop ();
            leave t))
      duration
  in
  match event with
  | Crash { node; at } ->
    at_time cluster ~at (fun () -> enter t);
    Core.Cluster.fail_node_at cluster ~at ~node
  | Recover { node; at } ->
    Core.Cluster.recover_node_at cluster ~at ~node;
    at_time cluster ~at (fun () -> leave t)
  | Suspect { node; at; duration } ->
    Core.Cluster.suspect_node_at ~clear_after:duration cluster ~at ~node;
    windowed ~at ~duration:(Some duration) (fun () -> ()) (fun () -> ())
  | Partition { groups; at; duration } ->
    (* Suspect everyone outside the largest group so the majority side's
       quorum construction routes around the unreachable minority.  The
       members no group names form one more group, as in
       [Network.partition]; it comes last, so a tie keeps a named group.
       The set is computed when the partition fires, against the
       membership view of that moment: suspecting a decommissioned machine
       would revive it onto the network when the suspicion clears. *)
    at_time cluster ~at (fun () ->
        let members = Core.Cluster.members cluster in
        let unnamed =
          List.filter (fun n -> not (List.exists (List.mem n) groups)) members
        in
        let largest =
          List.fold_left
            (fun best g -> if List.length g > List.length best then g else best)
            [] (groups @ [ unnamed ])
        in
        let outside = List.filter (fun n -> not (List.mem n largest)) members in
        List.iter
          (fun node ->
            Core.Cluster.suspect_node_at ~clear_after:duration cluster
              ~at:(Core.Cluster.now cluster) ~node)
          outside);
    windowed ~at ~duration:(Some duration)
      (fun () -> Sim.Network.partition network groups)
      (fun () -> Sim.Network.heal network)
  | Drop { p; at; duration } ->
    let set v () =
      Sim.Network.set_faults network
        { (Sim.Network.faults network) with Sim.Network.drop = v }
    in
    windowed ~at ~duration (set p) (set 0.)
  | Duplicate { p; at; duration } ->
    let set v () =
      Sim.Network.set_faults network
        { (Sim.Network.faults network) with Sim.Network.duplicate = v }
    in
    windowed ~at ~duration (set p) (set 0.)
  | Spike { p; factor; at; duration } ->
    let set prob () =
      Sim.Network.set_faults network
        { (Sim.Network.faults network) with
          Sim.Network.spike_prob = prob;
          spike_factor = factor
        }
    in
    windowed ~at ~duration (set p) (set 0.)
  | Flaky { a; b; p; at; duration } ->
    windowed ~at ~duration
      (fun () ->
        Sim.Network.set_link_faults network ~a ~b
          { Sim.Network.no_faults with Sim.Network.drop = p })
      (fun () -> Sim.Network.clear_link_faults network ~a ~b)
  (* View changes are degraded windows too: quorum construction is wedged
     for part of the pipeline, and the window closes only when the change
     (including any departure drain) completes. *)
  | Join { at; _ } | Leave { at; _ } | Replace { at; _ } | ShardMove { at; _ }
  | ShardSplit { at; _ } ->
    at_time cluster ~at (fun () -> enter t);
    Option.iter
      (Core.Cluster.view_change_at ~on_done:(fun () -> leave t) cluster ~at)
      (view_change event)

let install cluster events =
  Result.iter_error
    (fun msg -> invalid_arg ("Scenario.install: " ^ msg))
    (validate (Core.Cluster.view cluster) events);
  let t =
    {
      cluster;
      events;
      active = 0;
      window_started = 0.;
      window_commits = 0;
      window_resets = 0;
      degraded_time = 0.;
      degraded_commits = 0;
    }
  in
  List.iter (install_event t) events;
  t

type report = {
  taken_at : float;
  events : int;
  degraded_time : float;
  degraded_commits : int;
  total_commits : int;
  root_aborts : int;
  syncs : int;
  recoveries : int;
  mean_recovery_time : float;
  false_suspicions : int;
  dropped : int;
  duplicated : int;
  retransmit_exhausted : int;
  lease_expirations : int;
  presumed_aborts : int;
  rescued_commits : int;
  stalls_detected : int;
  view_changes : int;
  fenced_messages : int;
  final_epoch : int;
  shards : int;
  cross_shard_commits : int;
  cross_shard_aborts : int;
}

let report t =
  (* Close a still-open degraded window against the current clock. *)
  let open_time, open_commits =
    if t.active > 0 then
      (Core.Cluster.now t.cluster -. t.window_started, commits_in_window t)
    else (0., 0)
  in
  let metrics = Core.Cluster.metrics t.cluster in
  let recovery_stats = Core.Metrics.recovery_time_stats metrics in
  {
    taken_at = Core.Cluster.now t.cluster;
    events = List.length t.events;
    degraded_time = t.degraded_time +. open_time;
    degraded_commits = t.degraded_commits + open_commits;
    total_commits = Core.Metrics.commits metrics;
    root_aborts = Core.Metrics.root_aborts metrics;
    syncs = Core.Metrics.syncs metrics;
    recoveries = Core.Metrics.recoveries metrics;
    mean_recovery_time =
      (if Util.Stats.count recovery_stats = 0 then 0.
       else Util.Stats.mean recovery_stats);
    false_suspicions = Sim.Failure.false_suspicions (Core.Cluster.failure t.cluster);
    dropped = Core.Cluster.messages_dropped t.cluster;
    duplicated = Core.Cluster.messages_duplicated t.cluster;
    retransmit_exhausted = Core.Cluster.retransmit_exhausted t.cluster;
    lease_expirations = Core.Metrics.lease_expirations metrics;
    presumed_aborts = Core.Metrics.presumed_aborts metrics;
    rescued_commits = Core.Metrics.status_rescued_commits metrics;
    stalls_detected = Core.Metrics.stalls_detected metrics;
    view_changes = Core.Metrics.view_changes metrics;
    fenced_messages = Core.Cluster.fenced_messages t.cluster;
    final_epoch = Core.Cluster.epoch t.cluster;
    shards = Core.Cluster.shard_count t.cluster;
    cross_shard_commits = Core.Metrics.cross_shard_commits metrics;
    cross_shard_aborts = Core.Metrics.cross_shard_aborts metrics;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fault events        %d@,\
     degraded time       %.1f ms@,\
     degraded commits    %d / %d total@,\
     state syncs         %d@,\
     recoveries          %d (mean %.1f ms)@,\
     false suspicions    %d@,\
     messages dropped    %d@,\
     messages duplicated %d@,\
     retransmit give-ups %d@,\
     lease expirations   %d@,\
     presumed aborts     %d@,\
     rescued commits     %d@,\
     stalls detected     %d@,\
     view changes        %d (final epoch %d)@,\
     fenced messages     %d@]"
    r.events r.degraded_time r.degraded_commits r.total_commits r.syncs r.recoveries
    r.mean_recovery_time r.false_suspicions r.dropped r.duplicated r.retransmit_exhausted
    r.lease_expirations r.presumed_aborts r.rescued_commits r.stalls_detected
    r.view_changes r.final_epoch r.fenced_messages
