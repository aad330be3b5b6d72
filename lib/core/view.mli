(** The membership view and the rules of changing it, stated once.

    A view is what a deployment looks like to its reconfiguration
    machinery: each shard's member list, each machine's home shard, the
    object directory and the crashed set.  {!check} states every rule a
    change must satisfy, and {!apply} computes its effect — where a joiner
    lands, a leave or a replace, a split's halves and the objects it
    re-homes, a move.

    Three callers share it.  {!Cluster} keeps its live view here: it
    checks each view change when it starts and installs the member lists
    and directory edits that {!apply} computes.  [Harness.Scenario.validate]
    walks a copy of that view through a schedule in time order, crashes
    and recoveries included, so a schedule it accepts passes the cluster's
    runtime check.  [Harness.Chaos.generate] applies each drawn event to a
    view and draws only what {!check} accepts.

    The module has no simulation state: no engine, no network, no
    randomness.  A view is mutable so the cluster's directory lookup stays
    an array read; {!copy} gives a scratch view to walk. *)

type change =
  | Join of { node : int; shard : int }
      (** bring a non-member machine (a spare, or a departed node) into
          [shard] *)
  | Leave of int  (** remove a member from its home shard *)
  | Replace of { leaving : int; joining : int }
      (** swap a member for a non-member on the leaver's home shard *)
  | Move of { oid : int; to_shard : int }  (** re-home one object *)
  | Split of int
      (** split a shard: the first ⌈n/2⌉ members (ascending) keep the
          shard, the rest form a new shard with id {!shard_count}, and every
          odd-indexed object of the shard, in oid order, moves to it *)
(** A view change: what {!Cluster.view_change_at} runs through its
    pipeline. *)

type transition = Change of change | Crash of int | Recover of int
(** Everything a schedule does to a view.  A crash or a recovery changes
    no member list, but it changes what may happen next: a crashed node
    cannot leave gracefully, and a shard's last live member cannot
    crash. *)

type t

val min_members : int
(** The fewest members a shard may have: initially, and after any leave or
    split (3). *)

val layout_error : nodes:int -> shards:int -> string option
(** Why [nodes] initial members cannot form [shards] shards of at least
    {!min_members} each, or [None] when they can. *)

val initial_shards : nodes:int -> shards:int -> int list list
(** The initial member list of each shard: [nodes] members split into
    [shards] contiguous, near-equal ranges, the larger ones first. *)

val make : capacity:int -> int list list -> t
(** A view of machines [0 .. capacity-1] whose shard [s] has the [s]-th
    member list; machines in no list are non-members with home shard 0.
    No object is allocated yet, and an oid without a directory entry
    belongs to shard [oid mod n], [n] the number of lists. *)

val initial : ?spares:int -> nodes:int -> shards:int -> unit -> t
(** [make] over {!initial_shards} with [spares] (default 0) extra
    machines outside the view: the view {!Cluster.create} starts from.
    Raises [Invalid_argument] when {!layout_error} rejects the layout. *)

val copy : t -> t

val allocate : t -> oid:int -> unit
(** Give [oid] (and every smaller oid without one) its default directory
    entry, if it has none: the object now exists and may be moved. *)

val capacity : t -> int
val shard_count : t -> int

val shard_members : t -> int -> int list
(** One shard's members, ascending. *)

val members : t -> int list
(** Every shard's members, ascending. *)

val is_member : t -> int -> bool

val home : t -> int -> int
(** The shard a machine replicates; a non-member reports the shard it
    last served (0 before it ever joined). *)

val shard_of_oid : t -> int -> int
(** The directory: which shard owns this object now. *)

val check : t -> transition -> (unit, string) result
(** Whether [transition] may happen to this view, and if not, the rule it
    breaks:
    - a joiner must be a machine of the view's capacity, not a member,
      and join an existing shard;
    - a leaver (also of a replace) must be a member and not crashed, and a
      leave may not take its shard below {!min_members};
    - a move must name an allocated object, an existing shard, and a shard
      other than the object's own;
    - a split needs an existing shard of at least [2 * min_members];
    - a crash must hit a live member that is not the last live member of
      its shard, and a recovery a crashed node. *)

val apply : t -> transition -> unit
(** Perform [transition], which {!check} accepted. *)
