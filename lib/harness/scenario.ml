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

let pp_event ppf = function
  | Crash { node; at } -> Format.fprintf ppf "crash %d @%g" node at
  | Recover { node; at } -> Format.fprintf ppf "recover %d @%g" node at
  | Suspect { node; at; duration } ->
    Format.fprintf ppf "suspect %d @%g for %g" node at duration
  | Partition { groups; at; duration } ->
    let group g = String.concat "," (List.map string_of_int g) in
    Format.fprintf ppf "partition %s @%g for %g"
      (String.concat "|" (List.map group groups))
      at duration
  | Drop { p; at; duration } ->
    Format.fprintf ppf "drop %g @%g" p at;
    Option.iter (Format.fprintf ppf " for %g") duration
  | Duplicate { p; at; duration } ->
    Format.fprintf ppf "dup %g @%g" p at;
    Option.iter (Format.fprintf ppf " for %g") duration
  | Spike { p; factor; at; duration } ->
    Format.fprintf ppf "spike %g %g @%g" p factor at;
    Option.iter (Format.fprintf ppf " for %g") duration
  | Flaky { a; b; p; at; duration } ->
    Format.fprintf ppf "flaky %d-%d %g @%g" a b p at;
    Option.iter (Format.fprintf ppf " for %g") duration
  | Join { node; at } -> Format.fprintf ppf "join %d @%g" node at
  | Leave { node; at } -> Format.fprintf ppf "leave %d @%g" node at
  | Replace { leaving; joining; at } ->
    Format.fprintf ppf "replace %d %d @%g" leaving joining at
  | ShardMove { oid; to_shard; at } ->
    Format.fprintf ppf "shardmove %d %d @%g" oid to_shard at
  | ShardSplit { shard; at } -> Format.fprintf ppf "shardsplit %d @%g" shard at

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

let crashed_nodes events =
  List.filter_map (function Crash { node; _ } -> Some node | _ -> None) events
  |> List.sort_uniq Int.compare

(* {2 Validation} *)

let min_members = 3

let validate ?members ?(shards = 1) ?shard_members ~nodes events =
  let members =
    match members with Some m -> m | None -> List.init nodes Fun.id
  in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let check_node what n k =
    if n < 0 || n >= nodes then err "%s names node %d, outside [0, %d)" what n nodes
    else k ()
  in
  let rec check_nodes what ns k =
    match ns with
    | [] -> k ()
    | n :: rest -> check_node what n (fun () -> check_nodes what rest k)
  in
  (* Per-node crash/recover discipline: in time order the events must
     alternate crash, recover, crash, ... — a second crash while one is
     outstanding (or a recover with no crash pending) is a schedule bug
     that would otherwise fail in confusing ways deep in the simulator. *)
  let check_crash_pairing () =
    let per_node = Hashtbl.create 8 in
    List.iter
      (fun event ->
        match event with
        | Crash { node; at } ->
          Hashtbl.replace per_node node ((at, `Crash) :: (Option.value ~default:[] (Hashtbl.find_opt per_node node)))
        | Recover { node; at } ->
          Hashtbl.replace per_node node ((at, `Recover) :: (Option.value ~default:[] (Hashtbl.find_opt per_node node)))
        | Suspect _ | Partition _ | Drop _ | Duplicate _ | Spike _ | Flaky _ | Join _
        | Leave _ | Replace _ | ShardMove _ | ShardSplit _ ->
          ())
      events;
    Hashtbl.fold
      (fun node entries acc ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          let ordered =
            List.sort (fun (a, _) (b, _) -> Float.compare a b) (List.rev entries)
          in
          let rec walk down = function
            | [] -> Ok ()
            | (at, `Crash) :: rest ->
              if down then
                err "node %d crashes again at %g while already crashed" node at
              else walk true rest
            | (at, `Recover) :: rest ->
              if down then walk false rest
              else err "node %d recovers at %g without a preceding crash" node at
          in
          walk false ordered)
      per_node (Ok ())
  in
  (* Membership-op discipline, walked in time order over the {e evolving}
     view: a join must target a non-member (a spare or a departed node), a
     leave/replace must remove a live member and may not shrink the view
     below the quorum-viable minimum, and a crash must hit a node that is
     actually in the view when it fires.  Catching these statically keeps a
     malformed schedule from surfacing as a baffling runtime
     [Invalid_argument] (or a silent no-op) mid-simulation. *)
  let check_membership () =
    let dated =
      List.filter_map
        (fun event ->
          match event with
          | Crash { node; at } -> Some (at, `Crash node)
          | Recover { node; at } -> Some (at, `Recover node)
          | Join { node; at } -> Some (at, `Join node)
          | Leave { node; at } -> Some (at, `Leave node)
          | Replace { leaving; joining; at } -> Some (at, `Replace (leaving, joining))
          | Suspect _ | Partition _ | Drop _ | Duplicate _ | Spike _ | Flaky _
          | ShardMove _ | ShardSplit _ ->
            None)
        events
      |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    in
    let mem = ref members in
    let down = ref [] in
    let is_member n = List.mem n !mem in
    let check_join what at n k =
      if is_member n then err "%s at %g: node %d is already a member" what at n
      else k ()
    in
    let check_leave what at n k =
      if not (is_member n) then err "%s at %g: node %d is not a member" what at n
      else if List.mem n !down then
        err "%s at %g: node %d is crashed (graceful departure needs a live node)"
          what at n
      else k ()
    in
    let rec walk = function
      | [] -> Ok ()
      | (at, op) :: rest -> (
        match op with
        | `Crash n ->
          if not (is_member n) then
            err "crash at %g: node %d is not a member of the view" at n
          else begin
            down := n :: !down;
            walk rest
          end
        | `Recover n ->
          down := List.filter (fun m -> m <> n) !down;
          walk rest
        | `Join n ->
          check_join "join" at n (fun () ->
              mem := n :: !mem;
              walk rest)
        | `Leave n ->
          check_leave "leave" at n (fun () ->
              if List.length !mem - 1 < min_members then
                err
                  "leave at %g: removing node %d leaves %d members, below the \
                   quorum-viable minimum (%d)"
                  at n
                  (List.length !mem - 1)
                  min_members
              else begin
                mem := List.filter (fun m -> m <> n) !mem;
                walk rest
              end)
        | `Replace (l, j) ->
          check_leave "replace" at l (fun () ->
              check_join "replace" at j (fun () ->
                  mem := j :: List.filter (fun m -> m <> l) !mem;
                  walk rest)))
    in
    walk dated
  in
  (* Shard-directory discipline, walked in time order: a [shardmove] must
     target a shard that exists when it fires (splits grow the count), a
     [shardsplit] must leave both halves quorum-viable, and — when the
     per-shard layout is known — a crash schedule may not take down the
     {e last} live member of any shard, since no surviving replica could
     then serve reads or rescue in-doubt cross-shard decisions for that
     slice of the object space.  The kill check runs against the initial
     layout and is suspended once a split rearranges it. *)
  let check_shards () =
    let dated =
      List.filter_map
        (fun event ->
          match event with
          | ShardMove { oid; to_shard; at } -> Some (at, `Move (oid, to_shard))
          | ShardSplit { shard; at } -> Some (at, `Split shard)
          | Crash { node; at } -> Some (at, `Crash node)
          | Recover { node; at } -> Some (at, `Recover node)
          | Join { node; at } -> Some (at, `Join node)
          | Leave { node; at } -> Some (at, `Leave node)
          | Replace { leaving; joining; at } -> Some (at, `Replace (leaving, joining))
          | Suspect _ | Partition _ | Drop _ | Duplicate _ | Spike _ | Flaky _ -> None)
        events
      |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    in
    let cur_shards = ref shards in
    (* Per-shard state while the initial layout still holds (suspended on
       the first split, which rearranges nodes in ways runtime ordering
       decides): [mems] is the membership list, [down] the crashed subset. *)
    let tracking = ref (shard_members <> None) in
    let mems =
      Array.of_list
        (List.map ref (Option.value ~default:[] shard_members))
    in
    let down = Array.map (fun _ -> ref []) mems in
    let shard_of_node n =
      let found = ref None in
      Array.iteri (fun s ms -> if !found = None && List.mem n !ms then found := Some s) mems;
      !found
    in
    let rec walk = function
      | [] -> Ok ()
      | (at, op) :: rest -> (
        match op with
        | `Move (oid, to_shard) ->
          if to_shard >= !cur_shards then
            err
              "shardmove at %g: cannot move object %d to shard %d, no such shard \
               (%d shards)"
              at oid to_shard !cur_shards
          else walk rest
        | `Split shard ->
          if shard >= !cur_shards then
            err "shardsplit at %g: no such shard %d (%d shards)" at shard !cur_shards
          else if
            !tracking && shard < Array.length mems
            && List.length !(mems.(shard)) < 2 * min_members
          then
            err
              "shardsplit at %g: shard %d has %d members, too few to form two \
               quorum-viable shards (minimum %d each)"
              at shard
              (List.length !(mems.(shard)))
              min_members
          else begin
            tracking := false;
            incr cur_shards;
            walk rest
          end
        | `Crash n -> (
          if not !tracking then walk rest
          else
            match shard_of_node n with
            | Some s
              when List.for_all
                     (fun m -> m = n || List.mem m !(down.(s)))
                     !(mems.(s)) ->
              err "crash at %g: node %d is the last live member of shard %d" at n s
            | Some s ->
              down.(s) := n :: !(down.(s));
              walk rest
            | None -> walk rest)
        | `Recover n ->
          if !tracking then
            Array.iter (fun d -> d := List.filter (fun m -> m <> n) !d) down;
          walk rest
        | `Join n ->
          (* Joins land in shard 0 (the scenario DSL carries no shard). *)
          if !tracking && Array.length mems > 0 then mems.(0) := n :: !(mems.(0));
          walk rest
        | `Leave n -> (
          if not !tracking then walk rest
          else
            match shard_of_node n with
            | Some s when List.length !(mems.(s)) - 1 < min_members ->
              err
                "leave at %g: removing node %d leaves shard %d with %d members, \
                 below the quorum-viable minimum (%d)"
                at n s
                (List.length !(mems.(s)) - 1)
                min_members
            | Some s ->
              mems.(s) := List.filter (fun m -> m <> n) !(mems.(s));
              walk rest
            | None -> walk rest)
        | `Replace (l, j) -> (
          (* The joiner takes the leaver's shard. *)
          if !tracking then
            match shard_of_node l with
            | Some s -> mems.(s) := j :: List.filter (fun m -> m <> l) !(mems.(s))
            | None -> ());
          walk rest)
    in
    walk dated
  in
  let rec check_events = function
    | [] ->
      (match check_crash_pairing () with
       | Ok () -> (
         match check_membership () with
         | Ok () -> check_shards ()
         | Error _ as e -> e)
       | Error _ as e -> e)
    | event :: rest ->
      let continue () = check_events rest in
      (match event with
       | Crash { node; _ } -> check_node "crash" node continue
       | Recover { node; _ } -> check_node "recover" node continue
       | Suspect { node; _ } -> check_node "suspect" node continue
       | Partition { groups; _ } ->
         check_nodes "partition" (List.concat groups) continue
       | Flaky { a; b; _ } -> check_nodes "flaky" [ a; b ] continue
       | Join { node; _ } -> check_node "join" node continue
       | Leave { node; _ } -> check_node "leave" node continue
       | Replace { leaving; joining; _ } ->
         check_nodes "replace" [ leaving; joining ] continue
       | Drop _ | Duplicate _ | Spike _ | ShardMove _ | ShardSplit _ -> continue ())
  in
  check_events events

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

(* The cluster view change a membership or directory event requests.
   Joins land in shard 0: the DSL carries no shard. *)
let view_change : event -> Core.Cluster.view_change option = function
  | Join { node; _ } -> Some (Join { node; shard = 0 })
  | Leave { node; _ } -> Some (Leave node)
  | Replace { leaving; joining; _ } -> Some (Replace { leaving; joining })
  | ShardMove { oid; to_shard; _ } -> Some (Move { oid; to_shard })
  | ShardSplit { shard; _ } -> Some (Split shard)
  | Crash _ | Recover _ | Suspect _ | Partition _ | Drop _ | Duplicate _ | Spike _
  | Flaky _ ->
    None

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
  let shards = Core.Cluster.shard_count cluster in
  (match
     validate
       ~members:(Core.Cluster.members cluster)
       ~shards
       ~shard_members:
         (List.init shards (fun s -> Core.Cluster.shard_members cluster ~shard:s))
       ~nodes:(Core.Cluster.nodes cluster) events
   with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Scenario.install: " ^ msg));
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
  events : int;
  degraded_time : float;
  degraded_commits : int;
  total_commits : int;
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
    events = List.length t.events;
    degraded_time = t.degraded_time +. open_time;
    degraded_commits = t.degraded_commits + open_commits;
    total_commits = Core.Metrics.commits metrics;
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
