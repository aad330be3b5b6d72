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

val float_to_string : float -> string
(** The shortest of [%.15g] and [%.17g] that parses back to the same
    float: every time, duration and probability prints this way. *)

val pp_event : Format.formatter -> event -> unit

val to_string : event list -> string
(** The DSL text of a schedule, events joined by ["; "]; lossless, so
    [parse (to_string s)] gives back [s] exactly. *)

val parse : string -> (event list, string) result
(** Parse a scenario string.  Empty chunks are skipped, so trailing [;] is
    fine.  Probabilities must lie in [[0;1]]; times must be non-negative. *)

val validate : Core.View.t -> event list -> (unit, string) result
(** Check a schedule against a cluster's view (its capacity, members,
    homes and directory; see {!Core.Cluster.view}).  First, every node an
    event names must be a machine of the view.  Then one walk in time
    order (ties in schedule order) takes each crash, recovery, membership
    change and directory change as a {!Core.View.transition}: it must pass
    {!Core.View.check} against the view as the earlier ones left it, and
    is then applied as the cluster will apply it — a split's halves and
    re-homed objects included.  A [join] lands in shard 0, a [replace]'s
    joiner in the leaver's shard.  [view] itself is left unchanged.  The
    error names the offending event and the rule it breaks. *)

type tracker
(** Scheduled scenario plus degraded-window bookkeeping.  A window opens
    when the number of in-force fault conditions rises from zero and closes
    when it returns to zero (a crash closes when its [recover] fires). *)

val install : Core.Cluster.t -> event list -> tracker
(** Schedule every event against the cluster's engine.  Call after the
    workload's setup and before running it ({!Experiment.run} does, with
    its [events]).  Raises [Invalid_argument "Scenario.install: <error>"]
    when {!validate} rejects the events against the cluster's view, its
    allocated objects included. *)

type report = {
  taken_at : float;
      (** simulated ms when the report was taken; after a drained run, the
          time it quiesced *)
  events : int;
  degraded_time : float;  (** total ms with at least one fault in force *)
  degraded_commits : int;
      (** commits landed inside degraded windows; a window open across a
          counter reset (the end of warm-up) counts only the commits after
          it, as [total_commits] does *)
  total_commits : int;
  root_aborts : int;
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
  shards : int;  (** shard count (splits can grow it) *)
  cross_shard_commits : int;  (** commits decided through the cross-shard 2PC *)
  cross_shard_aborts : int;  (** cross-shard 2PC rounds ending in abort *)
}

val report : tracker -> report
(** Snapshot the counters; a still-open degraded window is closed against
    the current simulated clock. *)

val pp_report : Format.formatter -> report -> unit
