(** Fault-scenario DSL.

    A scenario is a [;]-separated list of fault events applied to a running
    cluster, with times in simulated milliseconds:

    {v
    crash <node> @<t>              fail-stop <node> at <t>
    recover <node> @<t>            restart it (state-sync + re-admission)
    suspect <node> @<t> for <d>    false suspicion, cleared after <d>
    partition <a,b|c,d> @<t> for <d>   symmetric partition, healed after <d>
    drop <p> @<t> [for <d>]        global message-loss probability
    dup <p> @<t> [for <d>]         global duplication probability
    spike <p> <f> @<t> [for <d>]   latency spikes (multiplier <f>)
    flaky <a>-<b> <p> @<t> [for <d>]   lossy link between <a> and <b>
    join <node> @<t>               bring a spare / departed node into the view
    leave <node> @<t>              graceful decommission (drain + handoff)
    replace <l> <j> @<t>           atomic swap: <l> departs, <j> joins
    shardmove <oid> <s> @<t>       re-home object <oid> onto shard <s>
    shardsplit <s> @<t>            split shard <s> into two quorum-viable halves
    v}

    Example: ["crash 11 @500; recover 11 @2500; drop 0.05 @0"].

    A partition also falsely suspects every node outside its largest group
    (cleared at heal; the members no group names count as one more group,
    as in {!Sim.Network.partition}), modelling the membership-view change the paper's
    JGroups-based testbed would deliver — without it the tree-quorum layer
    would keep trying to reach the unreachable side. *)

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

val pp_event : Format.formatter -> event -> unit

val parse : string -> (event list, string) result
(** Parse a scenario string.  Empty chunks are skipped, so trailing [;] is
    fine.  Probabilities must lie in [[0;1]]; times must be non-negative. *)

val crashed_nodes : event list -> int list
(** Nodes hit by a [crash] event, ascending and de-duplicated — use to keep
    closed-loop clients off nodes that will die. *)

val validate :
  ?members:int list ->
  ?shards:int ->
  ?shard_members:int list list ->
  nodes:int ->
  event list ->
  (unit, string) result
(** Static checks against a cluster of [nodes] machines (total capacity,
    spares included), of which [members] (default: all) form the initial
    view: every referenced node id must lie in [[0, nodes)]; per node the
    crash/recover events must alternate in time order (no double crash, no
    recover without a pending crash); and membership operations must be
    well-formed against the {e evolving} view in time order — a [join] of
    an existing member, a [leave]/[replace] of a non-member or crashed
    node, and a [leave] shrinking the view below the quorum-viable minimum
    (3 members) are all rejected with a description of the offending
    event.

    Shard-directory operations are checked against [shards] (default 1)
    with the count evolving across splits: a [shardmove] to a shard that
    does not exist when it fires and a [shardsplit] of an unknown shard
    are rejected.  When [shard_members] supplies the initial per-shard
    member lists (index = shard id), a [leave] that takes its shard below
    3 members, a [shardsplit] of a shard with fewer than 6 members (two
    quorum-viable halves) and a crash schedule that takes down the
    {e last} live member of any shard are also rejected (a [join] lands
    in shard 0, a [replace]'s joiner in the leaver's shard);
    these layout-dependent checks are suspended after the first split,
    whose rearrangement is decided at runtime.  [install] runs all of
    this automatically with the cluster's actual layout. *)

type tracker
(** Scheduled scenario plus degraded-window bookkeeping.  A window opens
    when the number of in-force fault conditions rises from zero and closes
    when it returns to zero (a crash closes when its [recover] fires). *)

val install : Core.Cluster.t -> event list -> tracker
(** Schedule every event against the cluster's engine.  Call before running
    the workload (e.g. as [Experiment.run ~prepare]).  Raises
    [Invalid_argument] when {!validate} rejects the events. *)

type report = {
  events : int;
  degraded_time : float;  (** total ms with at least one fault in force *)
  degraded_commits : int;
      (** commits landed inside degraded windows; a window open across a
          counter reset (the end of warm-up) counts only the commits after
          it, as [total_commits] does *)
  total_commits : int;
  syncs : int;  (** state-transfer rounds started *)
  recoveries : int;  (** completed restart-to-re-admission cycles *)
  mean_recovery_time : float;  (** ms; [0.] when no recoveries *)
  false_suspicions : int;
  dropped : int;  (** messages lost to the fault model *)
  duplicated : int;
  retransmit_exhausted : int;
      (** at-least-once deliveries that ran out of retries unacknowledged *)
  lease_expirations : int;  (** expired lease batches (termination started) *)
  presumed_aborts : int;  (** leases released with no commit evidence *)
  rescued_commits : int;  (** leases resolved by adopting the decided commit *)
  stalls_detected : int;  (** liveness-watchdog no-progress windows *)
  view_changes : int;  (** reconfigurations completed (epoch bumps) *)
  fenced_messages : int;  (** stale-epoch envelopes dropped by the fence *)
  final_epoch : int;  (** the view epoch when the report was taken *)
}

val report : tracker -> report
(** Snapshot the counters; a still-open degraded window is closed against
    the current simulated clock. *)

val pp_report : Format.formatter -> report -> unit
