(** Simulated message-passing network with per-node service queues.

    Delivery of a message costs the topology's one-way latency plus jitter;
    the receiving node then *processes* messages one at a time, each taking
    [service_time] — so a node flooded with requests becomes a genuine
    bottleneck.  That queueing effect is what produces the paper's Fig. 10
    shape (throughput first rises as failures spread the read load, then
    degrades as quorums grow).

    Messages to failed nodes are silently dropped, as are messages sent by
    failed nodes; higher layers recover through RPC timeouts.

    An injectable fault model (global, or per-link overrides) adds
    probabilistic loss, duplication and latency spikes, plus symmetric
    partitions with explicit heal.  Fault draws come from a dedicated RNG
    stream, so enabling the model does not perturb the delivery-jitter
    stream: runs with the model off are bit-identical to the pre-fault
    simulator. *)

type 'msg t

(** Interned message-kind labels for per-kind accounting.  Interning costs
    a (mutex-protected) hashtable lookup; per-message counting is then a
    plain array increment.  Intern once at module initialisation or setup
    time and reuse the token — never per message.

    The registry is shared with the tracer's event kinds ({!Obs.Kind}), so
    a message-kind token stored in a trace event payload resolves with the
    same [name] function. *)
module Kind : sig
  type t = Obs.Kind.t

  val intern : string -> t
  (** Thread-safe and idempotent: the same name always yields the same
      token. *)

  val name : t -> string

  val registered : unit -> int
  (** Kinds interned so far — sizes per-kind counter arrays. *)

  val other : t
  (** The default label of unlabelled messages. *)

  val reply : t
  (** The label RPC replies are accounted under. *)
end

type fault_plan = {
  drop : float;  (** per-message loss probability *)
  duplicate : float;  (** probability a message is delivered twice *)
  spike_prob : float;  (** probability of a latency spike *)
  spike_factor : float;  (** latency multiplier during a spike *)
}

val no_faults : fault_plan
(** Zero probabilities (spike factor 10, inert while [spike_prob = 0]). *)

val create :
  engine:Engine.t ->
  topology:Topology.t ->
  ?service_time:float ->
  ?jitter:float ->
  ?seed:int ->
  unit ->
  'msg t
(** [service_time] (default 0.25 ms) is the per-message processing cost at
    the receiver; [jitter] (default 0.1) is the relative uniform jitter
    applied to each delivery latency (0.1 = up to ±10%). *)

val engine : 'msg t -> Engine.t
val topology : 'msg t -> Topology.t
val nodes : 'msg t -> int

val set_handler : 'msg t -> node:int -> (src:int -> 'msg -> unit) -> unit
(** Install the message handler of [node].  At most one handler per node;
    re-installation replaces. *)

val send : 'msg t -> ?kind:Kind.t -> src:int -> dst:int -> 'msg -> unit
(** Enqueue one message.  [kind] labels the message for accounting
    (e.g. the interned ["read_req"]); unlabeled messages count as
    {!Kind.other}. *)

val multicast_batch :
  'msg t -> ?kind:Kind.t -> src:int -> dsts:int list -> 'msg -> unit
(** {!send} to every destination in [dsts], in order (self and repeats
    included). *)

val fail : 'msg t -> int -> unit
(** Mark a node fail-stop: it stops sending, receiving, and processing. *)

val revive : 'msg t -> int -> unit
val is_failed : 'msg t -> int -> bool
val alive_nodes : 'msg t -> int list

val set_faults : 'msg t -> fault_plan -> unit
(** Install the global fault plan (applies to every remote link without a
    per-link override).  Self-sends are never subjected to faults. *)

val faults : 'msg t -> fault_plan

val set_link_faults : 'msg t -> a:int -> b:int -> fault_plan -> unit
(** Override the plan for the (symmetric) link between [a] and [b]. *)

val clear_link_faults : 'msg t -> a:int -> b:int -> unit

val partition : 'msg t -> int list list -> unit
(** Partition the network into the given groups; nodes not named in any
    group form one implicit extra group.  Messages crossing a boundary are
    dropped (and counted) in both directions until {!heal}.  A new call
    replaces the previous partition. *)

val heal : 'msg t -> unit
val partitioned : 'msg t -> bool

val reachable : 'msg t -> src:int -> dst:int -> bool
(** Whether the current partition (if any) lets [src] reach [dst]. *)

val messages_sent : 'msg t -> int
(** Total *remote* messages sent (self-sends are not counted, matching the
    paper's accounting of network messages). *)

val messages_by_kind : 'msg t -> (string * int) list
(** Remote message counts grouped by [kind], sorted by kind. *)

val messages_dropped : 'msg t -> int
(** Messages lost to the fault model (probabilistic loss or partitions);
    fail-stop drops are not counted here. *)

val messages_duplicated : 'msg t -> int

val reset_counters : 'msg t -> unit
(** Zero the message counters (used to exclude warm-up from measurements). *)
