type quorums = {
  read_quorum : shard:int -> node:int -> int list;
  write_quorum : shard:int -> node:int -> int list;
  node_alive : int -> bool;
  epoch : shard:int -> int;
  shard_of : int -> int;
  home_shard : int -> int;
}

(* Handle on a live root, kept in a per-executor registry so a fail-stop of
   the hosting node can kill its coordinators (their threads die with the
   machine) and so diagnostics can list in-flight transactions. *)
type active = { a_id : int; a_node : int; a_txn : unit -> int; a_kill : unit -> unit }

type outcome = Committed of Txn.value | Failed of string

(* One closed-nesting scope.  The root transaction is the depth-0 scope;
   [cont] is the parent's continuation, absent for the root.

   The group below is mutually recursive because batch-commit mode hangs a
   commit queue off the executor itself: a [pending] queue entry references
   the [root] (and its final [scope]) it will decide, while every root
   points back at its executor. *)
type scope = {
  depth : int;
  cont : (Txn.value -> Txn.t) option;
  mutable rset : Rwset.t;
  mutable wset : Rwset.t;
}

(* A point a partial abort can roll back to: [scope] gets [saved_rset] and
   [saved_wset] back (every inner scope is dropped) and [resume] re-runs.
   A closed-nested call saves its fresh scope under its depth, with empty
   sets; a checkpoint saves the current scope's sets under its checkpoint
   id.  [id] is also the owner tag of every entry installed while the
   savepoint is the newest, so an abort target (abortClosed, abortChk)
   names a savepoint. *)
and savepoint = {
  id : int;
  scope : scope;
  resume : unit -> Txn.t;
  saved_rset : Rwset.t;
  saved_wset : Rwset.t;
}

and root = {
  exec : t;
  node : int;
  program : unit -> Txn.t;
  on_done : outcome -> unit;
  mutable txn_id : Ids.txn_id;
  mutable attempt : int;
  born : float;
  mutable scopes : scope list; (* innermost first; never empty while running *)
  mutable savepoints : savepoint list; (* newest first; ids strictly descending *)
  mutable next_chk : int;
  mutable since_chk : int;
  mutable last_validation_sent : float;
  mutable lock_deadline : float;
      (* the coordinator's own view of its lease horizon: past it, replicas
         may presume-abort its locks, so a commit decision is forbidden *)
  mutable last_read_leased : bool;
      (* the latest remote read got a reply from a copy under another
         transaction's lease: only a later read's Rqv or a commit round
         confirms it (Rqv rejects a leased row) *)
  mutable extra_read_peers : int list;
      (* commit-time read repair: write-quorum members that vetoed a commit
         as stale (no lock conflict) hold newer versions than this root's
         read quorum served.  After a partition heal the read quorum can be
         consistently stale — quorums built under different membership
         views need not intersect — so re-reading the same quorum would
         veto forever.  Widening subsequent reads to include the witnesses
         adopts the newer version; the retried commit's Apply then repairs
         the stale members for every later transaction. *)
  mutable commit_lock_budget : int;
  mutable commit_round : int;
      (* monotone commit-round counter, stamped into Commit_req/Release so
         replicas can drop a stale Release retransmitted from an abandoned
         round after a later round re-locked (never reset: replicas compare
         rounds per transaction id, which is fresh per attempt) *)
  mutable compensations : (unit -> Txn.t) list; (* open nesting; newest first *)
  mutable steps : int; (* DSL steps this attempt; zombie guard *)
  mutable generation : int;
  mutable finished : bool;
  mutable spec_deps : Ids.txn_id list;
      (* batch mode: queued predecessors whose uncommitted write images this
         attempt read.  Deps accumulate for the whole attempt and reset only
         in [start_attempt]: narrowing them on a partial abort is unsound,
         because a closed-nested commit merges (and retags) the child's
         read entries into the parent, so the entry backing a dep can
         outlive a later rollback of the depth it was read at — the value
         then survives in the working set while the filtered dep would be
         forgotten.  The root must not commit unless every dependency
         decided commit first; dropping a dep late costs at worst a
         spurious speculation abort, never safety. *)
}

(* One enqueued commit: the root went through [root_commit] and waits for a
   batch round to decide it.  [p_generation] is captured at enqueue so a
   fail-stop of the hosting node (the only generation bump a quiescent
   queued root can suffer) is detected at cut/decision time. *)
and pending = {
  p_root : root;
  p_scope : scope;
  p_value : Txn.value;
  p_txn : Ids.txn_id;
  p_generation : int;
}

(* The newest write image per object across the commit queue: queued
   successors read it instead of paying a read-quorum round.  [img_committed]
   flips when the writer's batch round decides commit — the image then acts
   as a committed-value cache (every write flows through the queue, so it is
   always the newest committed version); while false, readers record a
   speculative dependency on [img_txn]. *)
and image = {
  mutable img_txn : Ids.txn_id;
  mutable img_version : int;
  mutable img_value : Txn.value;
  mutable img_committed : bool;
}

and t = {
  engine : Sim.Engine.t;
  step_lane : Sim.Engine.lane;
      (* [step]'s events: the clock plus the fixed [local_op_cost], so
         always in time order *)
  rpc : (Messages.request, Messages.reply) Sim.Rpc.t;
  quorums : quorums;
  config : Config.t;
  metrics : Metrics.t;
  oracle : Oracle.t option;
  ids : Ids.gen;
  rng : Util.Rng.t;
  tracer : Obs.Tracer.t; (* cached from the engine; Tracer.null when off *)
  (* Scratch data-set builder, reused by [full_dataset], [commit_dataset]
     and [cut_batch]: rows are staged in the growable parallel arrays and
     frozen into a [Messages.dataset] (three [Array.sub]s) only when a
     request is built.  An executor runs inside one simulation (one
     domain) and never builds two data-sets at once, so sharing the
     scratch across roots is safe. *)
  (* [full_dataset]'s dedup, indexed by oid: [ds_slot.(oid)] is the staged
     row of [oid] when [ds_stamp.(oid) = ds_gen], the current call's
     generation; stale stamps read as absent, so no per-call clearing. *)
  mutable ds_slot : int array;
  mutable ds_stamp : int array;
  mutable ds_gen : int;
  mutable ds_oids : int array;
  mutable ds_versions : int array;
  mutable ds_owners : int array;
  mutable ds_len : int;
  mutable actives : active list;
  mutable next_active : int;
  (* Batch-commit mode (PROTOCOL.md §9).  All of it is inert when
     [batch_commit] is false: no field is touched, no event scheduled. *)
  batch_commit : bool;
  mutable batch_queues : batchq array;
      (* one commit queue per shard, grown on demand ([batchq]); a batch
         round is a single-shard quorum round, so entries never mix shards *)
  mutable batch_seq : int; (* batch id for traces; unique across shards *)
  mutable images : image array;
      (* indexed by oid, [no_image] where none; grown on first write *)
  (* Decisions of recent batch entries, consulted to resolve speculative
     dependencies.  Bounded FIFO: a dependency is always decided by the
     time its reader decides (one batch in flight, decided in order), so
     eviction of old entries is safe; an evicted/unknown dependency reads
     as "not committed", which only ever aborts conservatively. *)
  spec_outcomes : bool Util.Window.t;
}

(* Per-shard batch-commit queue.  Queue order is commit order {e within a
   shard}; rounds on different shards are independent (disjoint member
   sets), so each shard pipelines its own cuts. *)
and batchq = {
  bq_shard : int;
  mutable bq_queue : pending list; (* newest first; reversed at cut *)
  mutable bq_len : int;
  mutable bq_inflight : bool; (* at most one batch round in flight per shard *)
  mutable bq_cut_scheduled : bool; (* a deadline cut is pending *)
  (* Transactions committed in this shard's last two batch rounds, shipped
     with the next Batch_commit_req: their Applies may still be in flight,
     and a replica may hand their moribund leases to a successor that read
     past them (PROTOCOL.md §9). *)
  mutable bq_last_commits : Ids.txn_id list;
  mutable bq_prev_commits : Ids.txn_id list;
}

let spec_outcome_cap = 16_384

(* The absent image: never mutated, told apart by physical equality. *)
let no_image =
  { img_txn = -1; img_version = -1; img_value = Store.Value.Unit; img_committed = false }

let create ~engine ~rpc ~quorums ~config ~metrics ?oracle ?(batch_commit = false)
    ~ids ~seed () =
  {
    engine;
    step_lane = Sim.Engine.new_lane engine;
    rpc;
    quorums;
    config;
    metrics;
    oracle;
    ids;
    rng = Util.Rng.create seed;
    tracer = Sim.Engine.tracer engine;
    ds_slot = Array.make 64 0;
    ds_stamp = Array.make 64 0;
    ds_gen = 0;
    ds_oids = Array.make 64 0;
    ds_versions = Array.make 64 0;
    ds_owners = Array.make 64 0;
    ds_len = 0;
    actives = [];
    next_active = 0;
    batch_commit;
    batch_queues = [||];
    batch_seq = 0;
    images = [||];
    spec_outcomes = Util.Window.create ~cap:spec_outcome_cap ~dummy:false;
  }

(* The shard's batch queue, materialised on first use (shards can appear
   mid-run: a split mints a new shard id). *)
let batchq exec ~shard =
  let n = Array.length exec.batch_queues in
  if shard >= n then
    exec.batch_queues <-
      Array.init (shard + 1) (fun i ->
          if i < n then exec.batch_queues.(i)
          else
            {
              bq_shard = i;
              bq_queue = [];
              bq_len = 0;
              bq_inflight = false;
              bq_cut_scheduled = false;
              bq_last_commits = [];
              bq_prev_commits = [];
            });
  exec.batch_queues.(shard)

let config t = t.config
let metrics t = t.metrics

let now root = Sim.Engine.now root.exec.engine

(* Transaction-lifecycle tracing.  Emission is attributed to the current
   attempt's transaction id (fresh per attempt); it draws no randomness and
   schedules nothing, so tracing never perturbs the run.  All slots are
   required ([-1] / [0.] for n/a): labelled optional arguments would box an
   option per supplied label even with the tracer disabled. *)
let trace root ~kind ~oid ~a ~b ~x =
  let tracer = root.exec.tracer in
  if Obs.Tracer.enabled tracer then
    Obs.Tracer.emit8 tracer ~time:(now root) ~kind ~node:root.node
      ~txn:root.txn_id ~oid ~a ~b ~x

let rqv_active exec =
  match exec.config.mode with
  | Config.Closed | Config.Checkpoint -> true
  | Config.Flat -> exec.config.rqv_for_flat

let current_scope root =
  match root.scopes with
  | scope :: _ -> scope
  | [] -> invalid_arg "Executor: no active scope"

(* New entries are tagged with the newest savepoint's id: the innermost
   closed-nested depth, or the checkpoint in effect; 0 (the root) when
   there is none, as always under flat QR. *)
let owner_tag root = match root.savepoints with [] -> 0 | sp :: _ -> sp.id

(* [a] copied into a zeroed array of length [cap]. *)
let grow_ints a cap =
  let b = Array.make cap 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Scratch data-set staging: append one row, growing the parallel arrays
   geometrically (they only ever grow; an executor outlives its roots). *)
let ds_push exec ~oid ~version ~owner =
  let i = exec.ds_len in
  if i = Array.length exec.ds_oids then begin
    let cap = 2 * i in
    exec.ds_oids <- grow_ints exec.ds_oids cap;
    exec.ds_versions <- grow_ints exec.ds_versions cap;
    exec.ds_owners <- grow_ints exec.ds_owners cap
  end;
  exec.ds_oids.(i) <- oid;
  exec.ds_versions.(i) <- version;
  exec.ds_owners.(i) <- owner;
  exec.ds_len <- i + 1;
  i

(* Freeze the staged rows into an immutable wire payload.  The copy is
   mandatory: the message is shared by reference with every delivery
   (including retransmissions), so the scratch cannot travel. *)
let ds_freeze exec =
  if exec.ds_len = 0 then Messages.empty_dataset
  else
    {
      Messages.ds_oids = Array.sub exec.ds_oids 0 exec.ds_len;
      ds_versions = Array.sub exec.ds_versions 0 exec.ds_len;
      ds_owners = Array.sub exec.ds_owners 0 exec.ds_len;
    }

(* Accumulated data-set across the scope chain, outermost owners winning on
   duplicate object ids (validation must name the ancestor-most owner). *)
(* Validation is order-independent ([Rqv.validate] minimises the owner tag
   over the whole set), so the staging order never shows through; reusing
   the scratch avoids per-request and per-entry allocations. *)
let full_dataset root =
  let exec = root.exec in
  let gen = exec.ds_gen + 1 in
  exec.ds_gen <- gen;
  exec.ds_len <- 0;
  let note (e : Rwset.entry) =
    let oid = e.oid in
    if oid >= Array.length exec.ds_stamp then begin
      let cap = ref (2 * Array.length exec.ds_stamp) in
      while !cap <= oid do
        cap := 2 * !cap
      done;
      exec.ds_slot <- grow_ints exec.ds_slot !cap;
      exec.ds_stamp <- grow_ints exec.ds_stamp !cap
    end;
    if exec.ds_stamp.(oid) = gen then begin
      let i = exec.ds_slot.(oid) in
      if e.owner < exec.ds_owners.(i) then begin
        exec.ds_versions.(i) <- e.version;
        exec.ds_owners.(i) <- e.owner
      end
    end
    else begin
      exec.ds_stamp.(oid) <- gen;
      exec.ds_slot.(oid) <- ds_push exec ~oid ~version:e.version ~owner:e.owner
    end
  in
  List.iter
    (fun scope ->
      Rwset.iter scope.rset note;
      Rwset.iter scope.wset note)
    root.scopes;
  ds_freeze exec

(* Stage one commit's data-set rows after those already staged: the flat
   union of the final scope's sets with the write set winning on collision
   — what [Rwset.merge_into ~child:wset ~parent:rset] used to build, without
   materialising the merged map.  A batch round stages every entry's rows
   back to back. *)
let stage_commit_rows exec ~(scope_rset : Rwset.t) ~(scope_wset : Rwset.t) =
  Rwset.iter scope_wset (fun (e : Rwset.entry) ->
      ignore (ds_push exec ~oid:e.oid ~version:e.version ~owner:e.owner));
  Rwset.iter scope_rset (fun (e : Rwset.entry) ->
      if not (Rwset.mem scope_wset e.oid) then
        ignore (ds_push exec ~oid:e.oid ~version:e.version ~owner:e.owner))

(* The commit-request data-set of one transaction. *)
let commit_dataset exec ~scope_rset ~scope_wset =
  exec.ds_len <- 0;
  stage_commit_rows exec ~scope_rset ~scope_wset;
  ds_freeze exec

(* The coordinator's lease horizon for a commit round first sent at
   [sent_at]: leases are stamped at replica receipt, later than this, so a
   decision before the horizon beats every presumed abort.  A round that
   locks nothing has none. *)
let lease_horizon ~sent_at ~locks =
  if locks <> [] then
    sent_at +. Config.lease_duration -. Config.lease_safety_margin
  else Float.infinity

(* The participant shards of a commit: every shard owning an object in the
   final scope's sets, ascending.  A transaction that touched nothing still
   names shard 0 so the (empty) commit round has a home. *)
let commit_shards exec ~(scope_rset : Rwset.t) ~(scope_wset : Rwset.t) =
  let acc = ref [] in
  let note (e : Rwset.entry) =
    let s = exec.quorums.shard_of e.oid in
    if not (List.mem s !acc) then acc := s :: !acc
  in
  Rwset.iter scope_wset note;
  Rwset.iter scope_rset note;
  match List.sort Int.compare !acc with [] -> [ 0 ] | shards -> shards

(* Per-shard slice of a frozen commit data-set: only the rows a shard hosts
   are sent to (and validated by) its quorum.  Returns the original array
   set when every row already belongs to [shard]. *)
let dataset_slice exec (full : Messages.dataset) ~shard =
  let n = Array.length full.Messages.ds_oids in
  let keep = ref 0 in
  for i = 0 to n - 1 do
    if exec.quorums.shard_of full.Messages.ds_oids.(i) = shard then incr keep
  done;
  if !keep = n then full
  else if !keep = 0 then Messages.empty_dataset
  else begin
    let d =
      {
        Messages.ds_oids = Array.make !keep 0;
        ds_versions = Array.make !keep 0;
        ds_owners = Array.make !keep 0;
      }
    in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if exec.quorums.shard_of full.Messages.ds_oids.(i) = shard then begin
        d.Messages.ds_oids.(!j) <- full.Messages.ds_oids.(i);
        d.Messages.ds_versions.(!j) <- full.Messages.ds_versions.(i);
        d.Messages.ds_owners.(!j) <- full.Messages.ds_owners.(i);
        incr j
      end
    done;
    d
  end

(* checkParent (Algorithm 2, line 2): wset shadows rset, inner scopes shadow
   outer ones. *)
let lookup_local root oid =
  let rec search = function
    | [] -> None
    | scope :: rest ->
      begin
        match Rwset.find scope.wset oid with
        | Some e -> Some e
        | None ->
          begin
            match Rwset.find scope.rset oid with
            | Some e -> Some e
            | None -> search rest
          end
      end
  in
  search root.scopes

let schedule root ~delay f =
  Sim.Engine.schedule root.exec.engine ~delay (fun () -> if not root.finished then f ())

(* A reply that raced with an abort (or with transaction completion) must be
   dropped: callers capture the generation at request time and test it. *)
let still_current root generation =
  (not root.finished) && root.generation = generation

let jittered rng base = base *. (0.5 +. Util.Rng.float rng 1.0)

let backoff_delay root =
  let exp = Stdlib.min root.attempt 8 in
  let base = Config.backoff_base *. Float.of_int (1 lsl exp) in
  jittered root.exec.rng (Stdlib.min Config.backoff_max base)

(* Commit-time read repair (see [extra_read_peers]): remember write-quorum
   members that vetoed as stale with no lock conflict, so subsequent reads
   include them. *)
let widen_to_witnesses root stale_witnesses =
  if stale_witnesses <> [] then begin
    Metrics.note_read_widening root.exec.metrics;
    List.iter
      (fun witness ->
        if not (List.mem witness root.extra_read_peers) then
          trace root ~kind:Obs.Sem.widen_add ~oid:(-1) ~a:witness
            ~b:(root.exec.quorums.home_shard witness) ~x:0.)
      (List.sort_uniq Int.compare stale_witnesses);
    root.extra_read_peers <-
      List.sort_uniq Int.compare (stale_witnesses @ root.extra_read_peers)
  end

(* Apply payload of a committing scope: each written object advances one
   version past the base the transaction read. *)
let writes_of_wset (wset : Rwset.t) =
  let n = Rwset.size wset in
  if n = 0 then Messages.empty_writes
  else begin
    let w =
      {
        Messages.wr_oids = Array.make n 0;
        wr_versions = Array.make n 0;
        wr_values = Array.make n Store.Value.Unit;
      }
    in
    let i = ref 0 in
    Rwset.iter wset (fun (e : Rwset.entry) ->
        w.Messages.wr_oids.(!i) <- e.oid;
        w.Messages.wr_versions.(!i) <- e.version + 1;
        w.Messages.wr_values.(!i) <- e.value;
        incr i);
    w
  end

(* --- batch-commit state helpers (inert when batch_commit is off) -------- *)

(* The write image of [oid], or [no_image]. *)
let image exec oid =
  if oid >= 0 && oid < Array.length exec.images then Array.unsafe_get exec.images oid
  else no_image

(* Publish/overwrite the write image of [oid]: last enqueued writer wins,
   and queued successors read this instead of the store. *)
let set_image exec ~oid ~txn ~version ~value =
  let img = image exec oid in
  if img != no_image then begin
    img.img_txn <- txn;
    img.img_version <- version;
    img.img_value <- value;
    img.img_committed <- false
  end
  else begin
    let n = Array.length exec.images in
    if oid >= n then begin
      let images = Array.make (max 64 (max (2 * n) (oid + 1))) no_image in
      Array.blit exec.images 0 images 0 n;
      exec.images <- images
    end;
    exec.images.(oid) <-
      { img_txn = txn; img_version = version; img_value = value; img_committed = false }
  end

(* Drop [txn]'s still-owned images on abort (a later writer's image
   survives — it never read this one, or it carries its own dependency). *)
let drop_images exec ~txn ~wset =
  Rwset.iter wset (fun (e : Rwset.entry) ->
      let img = image exec e.oid in
      if img != no_image && img.img_txn = txn then exec.images.(e.oid) <- no_image)

let commit_images exec ~txn ~wset =
  Rwset.iter wset (fun (e : Rwset.entry) ->
      let img = image exec e.oid in
      if img != no_image && img.img_txn = txn then img.img_committed <- true)

(* A cross-shard commit bypasses the batch queue, so its writes never become
   queued images — but a {e committed} image it overtook would now be stale
   and poison every later speculative read of the object (a guaranteed veto).
   Refresh such images in place; an uncommitted image (a queued writer racing
   us) is left alone — its own batch round vetoes it against the installed
   version, and the early doomed-check fails fast its readers. *)
let refresh_committed_images exec ~txn ~wset =
  Rwset.iter wset (fun (e : Rwset.entry) ->
      let img = image exec e.oid in
      if img != no_image && img.img_committed && img.img_version <= e.version + 1 then begin
        img.img_txn <- txn;
        img.img_version <- e.version + 1;
        img.img_value <- e.value;
        img.img_committed <- true
      end)

(* Publish the root's write images, so queued successors read them, and
   build its queue entry. *)
let publish_pending root ~scope ~value =
  Rwset.iter scope.wset (fun (e : Rwset.entry) ->
      set_image root.exec ~oid:e.oid ~txn:root.txn_id ~version:(e.version + 1)
        ~value:e.value);
  {
    p_root = root;
    p_scope = scope;
    p_value = value;
    p_txn = root.txn_id;
    p_generation = root.generation;
  }

let record_spec_outcome exec ~txn ~committed =
  Util.Window.replace exec.spec_outcomes txn committed

(* Resolve a root's speculative dependencies.  [`Undecided] covers both a
   predecessor still waiting on a batch round (an order violation if we are
   deciding right now — it was re-queued past us) and one evicted from the
   bounded outcome table; both read conservatively as "cannot commit". *)
let dep_status exec deps =
  let rec go undecided = function
    | [] -> (match undecided with Some txn -> `Undecided txn | None -> `Ok)
    | txn :: rest ->
      (match Util.Window.find_opt exec.spec_outcomes txn with
      | Some true -> go undecided rest
      | Some false -> `Failed txn
      | None -> go (Some txn) rest)
  in
  go None deps

(* A commit round's votes on one entry: [all_commit] unless some voter
   vetoed it (any other reply counts as a veto that witnesses nothing),
   [lock_conflict] if some veto was a foreign lease, and the voters that
   vetoed it as stale. *)
type tally = { all_commit : bool; lock_conflict : bool; stale_witnesses : int list }

let tally root ~replies ~entry =
  let rec go all_commit lock_conflict stale = function
    | [] -> { all_commit; lock_conflict; stale_witnesses = stale }
    | (voter, reply) :: rest -> (
      match reply with
      | Messages.Votes { commits; conflicts } ->
        let commit = commits.(entry) and conflict = conflicts.(entry) in
        trace root ~kind:Obs.Sem.vote_recv ~oid:(-1) ~a:voter
          ~b:((if commit then 1 else 0) lor if conflict then 2 else 0)
          ~x:0.;
        go (all_commit && commit) (lock_conflict || conflict)
          (if commit || conflict then stale else voter :: stale)
          rest
      | Messages.Read_ok _ | Messages.Read_abort _ | Messages.Sync_rep _
      | Messages.Status_rep _ | Messages.Ack ->
        go false lock_conflict stale rest)
  in
  go true false [] replies

(* A vetoed entry: stale vetoes witness versions the read quorum missed, so
   later reads include those voters (see [extra_read_peers]).  A lock
   conflict may resolve as soon as the holder finishes its 2PC, so while
   the budget lasts the entry retries instead of aborting. *)
let veto root votes ~retry ~abort =
  widen_to_witnesses root votes.stale_witnesses;
  if votes.lock_conflict && root.commit_lock_budget > 0 then begin
    root.commit_lock_budget <- root.commit_lock_budget - 1;
    retry ()
  end
  else abort ()

let fresh_scope ~depth ~cont = { depth; cont; rset = Rwset.empty; wset = Rwset.empty }

let rec start_attempt root =
  root.txn_id <- Ids.fresh_txn root.exec.ids;
  root.scopes <- [ fresh_scope ~depth:0 ~cont:None ];
  root.savepoints <- [];
  root.next_chk <- 1;
  root.since_chk <- 0;
  root.last_validation_sent <- now root;
  root.lock_deadline <- Float.infinity;
  root.last_read_leased <- false;
  root.commit_lock_budget <- root.exec.config.commit_lock_retries;
  root.steps <- 0;
  root.spec_deps <- [];
  root.generation <- root.generation + 1;
  trace root ~kind:Obs.Sem.txn_begin ~oid:(-1) ~a:(root.attempt + 1) ~b:(-1) ~x:0.;
  (* Widened-read witnesses survive across attempts, but each attempt runs
     under a fresh transaction id — re-announce them so per-transaction
     trace analyses (the widen-read checker rule) see the carried-over
     obligation. *)
  List.iter
    (fun witness ->
      trace root ~kind:Obs.Sem.widen_add ~oid:(-1) ~a:witness
        ~b:(root.exec.quorums.home_shard witness) ~x:0.)
    root.extra_read_peers;
  step root (root.program ())

and step root prog =
  let exec = root.exec in
  ignore
    (Sim.Engine.schedule_in exec.engine exec.step_lane
       ~time:(Sim.Engine.now exec.engine +. Config.local_op_cost)
       (fun () -> if not root.finished then interpret root prog)
      : Sim.Engine.handle)

and interpret root prog =
  (* Zombie guard: a transaction that observed an inconsistent snapshot
     (possible under flat QR, which validates only at commit) may chase a
     pointer cycle through locally cached entries forever; cap the attempt
     and retry it against fresh state. *)
  root.steps <- root.steps + 1;
  if root.steps > root.exec.config.max_steps_per_attempt then root_abort root
  else interpret_op root prog

and interpret_op root prog =
  match prog with
  | Txn.Return v -> finish_scope root v
  | Txn.Fail msg -> finish root (Failed msg)
  | Txn.Read (oid, k) -> access root ~oid ~write:None ~k
  | Txn.Write (oid, v, k) -> access root ~oid ~write:(Some v) ~k:(fun _ -> k ())
  | Txn.Nested (body, cont) ->
    begin
      match root.exec.config.mode with
      | Config.Closed ->
        let depth = (current_scope root).depth + 1 in
        trace root ~kind:Obs.Sem.scope_push ~oid:(-1) ~a:depth ~b:(-1) ~x:0.;
        let scope = fresh_scope ~depth ~cont:(Some cont) in
        root.scopes <- scope :: root.scopes;
        root.savepoints <-
          { id = depth; scope; resume = body; saved_rset = Rwset.empty;
            saved_wset = Rwset.empty }
          :: root.savepoints;
        step root (body ())
      | Config.Flat | Config.Checkpoint -> step root (Txn.bind (body ()) cont)
    end
  | Txn.Checkpoint k ->
    begin
      match root.exec.config.mode with
      | Config.Checkpoint -> create_checkpoint root ~resume:k ~continue:(fun () -> step root (k ()))
      | Config.Flat | Config.Closed -> step root (k ())
    end
  | Txn.Open { body; compensate; k } ->
    (* Open nesting: run [body] as an independent transaction (fresh id,
       fresh sets, its own 2PC).  The parent is quiescent meanwhile — it
       has no requests in flight — so no generation guard is needed.  On
       commit, the compensation is registered for the parent's abort path
       and the parent resumes. *)
    let generation = root.generation in
    spawn_root root.exec ~node:root.node ~program:body ~on_done:(fun outcome ->
        if still_current root generation then begin
          match outcome with
          | Committed v ->
            Metrics.note_open_commit root.exec.metrics;
            root.compensations <- (fun () -> compensate v) :: root.compensations;
            step root (k v)
          | Failed msg -> finish root (Failed msg)
        end)

and access root ~oid ~write ~k =
  match lookup_local root oid with
  | Some entry ->
    Metrics.note_local_read root.exec.metrics;
    install_entry root ~oid ~base_version:entry.version
      ~read_value:entry.value ~write ~remote:false ~k
  | None ->
    let exec = root.exec in
    if exec.batch_commit then begin
      (* Speculative read-from-queue: serve the newest queued (or committed)
         write image before paying a remote round.  The entry is installed
         [~remote:true] — it must be re-validated at commit exactly like a
         quorum-served read. *)
      let img = image exec oid in
      if img != no_image then begin
        Metrics.note_speculative_read exec.metrics;
        let pending_dep = not img.img_committed in
        if pending_dep && not (List.mem img.img_txn root.spec_deps) then
          root.spec_deps <- img.img_txn :: root.spec_deps;
        trace root ~kind:Obs.Sem.spec_read ~oid ~a:img.img_txn
          ~b:(if pending_dep then 1 else 0)
          ~x:0.;
        install_entry root ~oid ~base_version:img.img_version
          ~read_value:img.img_value ~write ~remote:true ~k
      end
      else remote_fetch root ~oid ~write ~k
    end
    else remote_fetch root ~oid ~write ~k

and remote_fetch root ~oid ~write ~k =
  let exec = root.exec in
  let shard = exec.quorums.shard_of oid in
  let quorum = exec.quorums.read_quorum ~shard ~node:root.node in
  match quorum with
  | [] ->
    (* No read quorum constructible right now (too many failures); retry
       after a delay, by which time detection may have recovered one. *)
    Metrics.note_quorum_retry exec.metrics;
    schedule root ~delay:(jittered exec.rng Config.request_timeout) (fun () ->
        remote_fetch root ~oid ~write ~k)
  | _ ->
    let dataset =
      (* Only the rows this shard hosts: its replicas cannot attest to
         foreign copies, and an unsliced set would read as permanently
         stale there.  Single-shard slices are the full set unchanged. *)
      if rqv_active exec then dataset_slice exec (full_dataset root) ~shard
      else Messages.empty_dataset
    in
    let request =
      Messages.Read_req
        { txn = root.txn_id; oid; dataset; write_intent = false; record = false }
    in
    let dsts =
      (* Widened-read witnesses from another shard cannot serve this
         object — only this shard's members host it. *)
      match
        List.filter (fun n -> exec.quorums.home_shard n = shard) root.extra_read_peers
      with
      | [] -> quorum
      | extra -> List.sort_uniq Int.compare (extra @ quorum)
    in
    if Obs.Tracer.enabled exec.tracer then
      List.iter
        (fun dst -> trace root ~kind:Obs.Sem.read_send ~oid ~a:dst ~b:shard ~x:0.)
        dsts;
    root.last_validation_sent <- now root;
    let generation = root.generation in
    Sim.Rpc.multicall exec.rpc ~kind:Messages.read_req_kind ~src:root.node ~dsts
      ~timeout:Config.request_timeout request
      ~on_done:(fun ~replies ~missing ->
        if still_current root generation then
          handle_read_replies root ~oid ~write ~k ~replies ~missing)

and handle_read_replies root ~oid ~write ~k ~replies ~missing =
  let exec = root.exec in
  if missing <> [] then begin
    (* A quorum member failed mid-request: retry with refreshed quorums.
       Drop widened-read witnesses that are missing AND dead — a dead
       witness can no longer veto a commit, and keeping it would leave
       every retry incomplete forever.  A witness that is merely
       unreachable (partition, flaky link) is kept: its newer version is
       exactly what the widening exists to fetch, so the read must keep
       trying until the fault clears. *)
    if root.extra_read_peers <> [] then begin
      let kept, pruned =
        List.partition
          (fun n -> (not (List.mem n missing)) || exec.quorums.node_alive n)
          root.extra_read_peers
      in
      List.iter
        (fun witness ->
          trace root ~kind:Obs.Sem.widen_drop ~oid:(-1) ~a:witness ~b:(-1) ~x:0.)
        pruned;
      root.extra_read_peers <- kept
    end;
    Metrics.note_quorum_retry exec.metrics;
    schedule root ~delay:(jittered exec.rng Config.ct_retry_delay) (fun () ->
        remote_fetch root ~oid ~write ~k)
  end
  else begin
    let abort_target =
      List.fold_left
        (fun acc (_, reply) ->
          match reply with
          | Messages.Read_abort { target } ->
            Some (match acc with None -> target | Some t -> Stdlib.min t target)
          | Messages.Read_ok _ | Messages.Votes _ | Messages.Sync_rep _
          | Messages.Status_rep _ | Messages.Ack ->
            acc)
        None replies
    in
    match abort_target with
    | Some target -> partial_abort root ~target
    | None ->
      begin
        let leased = ref false in
        let best =
          List.fold_left
            (fun acc (_, reply) ->
              match reply with
              | Messages.Read_ok { version; value; leased = l; _ } ->
                if l then leased := true;
                begin
                  match acc with
                  | Some (v, _) when v >= version -> acc
                  | Some _ | None -> Some (version, value)
                end
              | Messages.Read_abort _ | Messages.Votes _ | Messages.Sync_rep _
              | Messages.Status_rep _ | Messages.Ack ->
                acc)
            None replies
        in
        match best with
        | None ->
          (* Only malformed replies; treat as a failed quorum round. *)
          Metrics.note_quorum_retry exec.metrics;
          schedule root ~delay:(jittered exec.rng Config.ct_retry_delay)
            (fun () -> remote_fetch root ~oid ~write ~k)
        | Some (version, value) ->
          root.last_read_leased <- !leased;
          Metrics.note_remote_read exec.metrics;
          install_entry root ~oid ~base_version:version ~read_value:value ~write
            ~remote:true ~k
      end
  end

and install_entry root ~oid ~base_version ~read_value ~write ~remote ~k =
  let scope = current_scope root in
  let owner = owner_tag root in
  begin
    match write with
    | Some value ->
      trace root ~kind:Obs.Sem.txn_write ~oid ~a:(-1) ~b:(-1) ~x:0.;
      scope.wset <- Rwset.add scope.wset { oid; version = base_version; value; owner }
    | None ->
      trace root ~kind:Obs.Sem.txn_read ~oid ~a:base_version
        ~b:(if remote then 1 else 0)
        ~x:0.;
      (* A locally visible object is not re-added: its entry (and owner)
         stays with the scope that fetched it. *)
      if remote then
        scope.rset <-
          Rwset.add scope.rset { oid; version = base_version; value = read_value; owner }
  end;
  let continue () = step root (k read_value) in
  if remote && root.exec.config.mode = Config.Checkpoint then begin
    root.since_chk <- root.since_chk + 1;
    if root.since_chk >= root.exec.config.checkpoint_threshold then
      create_checkpoint root ~resume:(fun () -> k read_value) ~continue
    else continue ()
  end
  else continue ()

and create_checkpoint root ~resume ~continue =
  let scope = current_scope root in
  trace root ~kind:Obs.Sem.txn_checkpoint ~oid:(-1) ~a:root.next_chk ~b:(-1)
    ~x:0.;
  root.savepoints <-
    { id = root.next_chk; scope; resume; saved_rset = scope.rset; saved_wset = scope.wset }
    :: root.savepoints;
  root.next_chk <- root.next_chk + 1;
  root.since_chk <- 0;
  Metrics.note_checkpoint root.exec.metrics;
  (* Saving the continuation costs local time (the paper measured ~6%). *)
  schedule root ~delay:root.exec.config.checkpoint_overhead continue

(* Roll back to the savepoint abortClosed / abortChk named; with none (a
   target at the root, a stale target, flat QR) the whole root retries. *)
and partial_abort root ~target =
  root.generation <- root.generation + 1;
  trace root ~kind:Obs.Sem.txn_partial_abort ~oid:(-1) ~a:target ~b:(-1) ~x:0.;
  let rec find = function
    | sp :: rest when sp.id > target -> find rest
    | sp :: _ as kept when sp.id = target -> Some (sp, kept)
    | _ -> None
  in
  match find root.savepoints with
  | None -> root_abort root
  | Some (sp, kept) ->
    let rec unwind = function
      | scope :: rest when scope != sp.scope -> unwind rest
      | scopes -> scopes
    in
    root.scopes <- unwind root.scopes;
    sp.scope.rset <- sp.saved_rset;
    sp.scope.wset <- sp.saved_wset;
    root.savepoints <- kept;
    root.since_chk <- 0;
    (* [spec_deps] is deliberately left alone: a merged-and-retagged entry
       from a committed child can survive this rollback, so the dep behind
       it must too (see the field's comment). *)
    Metrics.note_partial_abort root.exec.metrics;
    (* [a] reports the savepoint actually restored, not the requested
       target — the checker verifies they coincide. *)
    trace root ~kind:Obs.Sem.scope_resume ~oid:(-1) ~a:sp.id ~b:(-1) ~x:0.;
    schedule root ~delay:(jittered root.exec.rng Config.ct_retry_delay)
      (fun () -> step root (sp.resume ()))

and root_abort root =
  root.generation <- root.generation + 1;
  Metrics.note_root_abort root.exec.metrics;
  trace root ~kind:Obs.Sem.txn_root_abort ~oid:(-1) ~a:(root.attempt + 1)
    ~b:(-1) ~x:0.;
  root.attempt <- root.attempt + 1;
  let cfg = root.exec.config in
  if cfg.max_attempts > 0 && root.attempt >= cfg.max_attempts then
    finish root (Failed "max attempts exceeded")
  else begin
    (* Open nesting: semantically undo globally visible sub-commits
       (newest first) before re-running the root from scratch. *)
    let compensations = root.compensations in
    root.compensations <- [];
    run_compensations root compensations (fun () ->
        schedule root ~delay:(backoff_delay root) (fun () -> start_attempt root))
  end

and run_compensations root compensations k =
  match compensations with
  | [] -> k ()
  | compensate :: rest ->
    Metrics.note_compensation root.exec.metrics;
    spawn_root root.exec ~node:root.node ~program:compensate ~on_done:(fun outcome ->
        match outcome with
        | Committed _ -> run_compensations root rest k
        | Failed msg -> finish root (Failed ("compensation failed: " ^ msg)))

and finish_scope root value =
  match root.scopes with
  | [] -> invalid_arg "Executor: Return with no scope"
  | [ scope ] -> root_commit root ~scope ~value
  | child :: (parent :: _ as rest) ->
    trace root ~kind:Obs.Sem.scope_pop ~oid:(-1) ~a:child.depth ~b:(-1) ~x:0.;
    (* The child's savepoint is the newest: checkpoints never run inside a
       closed-nested scope. *)
    root.savepoints <- List.tl root.savepoints;
    (* commitCT (Algorithm 3): merge into the parent, locally.  Merged
       entries are retagged with the parent's depth: a later invalidation
       must abort the parent, the child's commit having been absorbed. *)
    parent.rset <-
      Rwset.merge_into ~child:(Rwset.retag child.rset ~owner:parent.depth)
        ~parent:parent.rset;
    parent.wset <-
      Rwset.merge_into ~child:(Rwset.retag child.wset ~owner:parent.depth)
        ~parent:parent.wset;
    root.scopes <- rest;
    Metrics.note_ct_commit root.exec.metrics;
    begin
      match child.cont with
      | Some cont -> step root (cont value)
      | None -> invalid_arg "Executor: child scope without continuation"
    end

and root_commit root ~scope ~value =
  let exec = root.exec in
  (* Only QR-CN commits read-only roots locally (paper §III-A); QR-CHK's
     request-commit is "exactly the same as flat" (§IV-A), so it pays the
     full commit round even when read-only.  Rqv validates each shard on
     its own, so a read-only root whose reads span shards must also take
     the commit round: only its per-shard validations, one after another,
     certify a snapshot consistent across shards.  Nor may a root whose
     last remote read is unconfirmed (see [last_read_leased]). *)
  let local_ro_commit =
    Rwset.is_empty scope.wset
    && (not root.last_read_leased)
    && (match exec.config.mode with
       | Config.Closed -> true
       | Config.Flat -> exec.config.rqv_for_flat
       | Config.Checkpoint -> false)
    &&
    match commit_shards exec ~scope_rset:scope.rset ~scope_wset:scope.wset with
    | [ _ ] -> true
    | _ -> false
  in
  if not exec.batch_commit then begin
    if local_ro_commit then commit_read_only root ~scope ~value
    else send_commit root ~scope ~value
  end
  else begin
    (* Batch mode: updates enqueue for the next batch round.  A read-only
       root keeps the local commit only if it owes nothing to undecided
       predecessors — a speculative read of an image whose writer later
       aborts must never commit, even locally. *)
    match dep_status exec root.spec_deps with
    | `Failed dep -> speculation_abort root ~dep
    | `Ok when local_ro_commit -> commit_read_only root ~scope ~value
    | (`Ok | `Undecided _) as status -> (
      match commit_shards exec ~scope_rset:scope.rset ~scope_wset:scope.wset with
      | [ shard ] -> enqueue_commit root ~scope ~value ~shard
      | _ -> (
        (* A cross-shard commit bypasses the (single-shard) batch queues
           and runs the sharded 2PC directly; speculative dependencies
           still queued must decide before it can — wait them out. *)
        match status with
        | `Undecided _ ->
          schedule root ~delay:(jittered exec.rng Config.ct_retry_delay)
            (fun () -> root_commit root ~scope ~value)
        | `Ok -> send_commit root ~scope ~value))
  end

and commit_read_only root ~scope ~value =
  (* Rqv keeps the read-set continuously validated: read-only roots (and
     all closed-nested transactions) commit without remote messages. *)
  let exec = root.exec in
  record_commit root ~scope ~window_start:root.last_validation_sent;
  Metrics.note_read_only_commit exec.metrics ~latency:(now root -. root.born);
  trace root ~kind:Obs.Sem.txn_commit ~oid:(-1) ~a:(-1) ~b:1
    ~x:(now root -. root.born);
  finish root (Committed value)

and speculation_abort root ~dep =
  Metrics.note_speculation_abort root.exec.metrics;
  trace root ~kind:Obs.Sem.spec_abort ~oid:(-1) ~a:dep ~b:(-1) ~x:0.;
  root_abort root

(* The commit round (PROTOCOL.md §10): presumed-abort 2PC over the
   participant shards, whose one-participant case is the paper's single
   quorum round.  Participant shards are prepared sequentially in
   ascending shard order, each round locking and validating only the rows
   that shard hosts; a veto, a missing voter or an epoch change on any
   shard releases every contacted shard and retries (or aborts) the whole
   transaction — no shard applies until all have voted commit.  Each
   shard's Commit_req pins [peers], the other participants' quorum members,
   so replica-side lease termination can pull commit evidence across shards
   before presuming abort.  Every retry re-enters here and recomputes the
   participants: a shard move or split may have re-homed objects since. *)
and send_commit root ~scope ~value =
  let exec = root.exec in
  let shards = commit_shards exec ~scope_rset:scope.rset ~scope_wset:scope.wset in
  let quorums =
    List.map (fun s -> (s, exec.quorums.write_quorum ~shard:s ~node:root.node)) shards
  in
  if List.exists (fun (_, q) -> q = []) quorums then begin
    (* some participant shard has no constructible write quorum right now
       (wedged mid-reconfiguration / too many failures) *)
    Metrics.note_quorum_retry exec.metrics;
    schedule root ~delay:(jittered exec.rng Config.request_timeout) (fun () ->
        send_commit root ~scope ~value)
  end
  else begin
    let full = commit_dataset exec ~scope_rset:scope.rset ~scope_wset:scope.wset in
    let locks = Rwset.oids scope.wset in
    let nshards = List.length shards in
    (* The 2PC bookkeeping (xshard trace events and counters) is kept for
       commits that really span shards. *)
    let cross_shard = nshards > 1 in
    let parts =
      List.map
        (fun (s, quorum) ->
          ( s,
            quorum,
            dataset_slice exec full ~shard:s,
            List.filter (fun oid -> exec.quorums.shard_of oid = s) locks ))
        quorums
    in
    let window_start = now root in
    (* One lease horizon for the whole 2PC, anchored at the first send. *)
    root.lock_deadline <- lease_horizon ~sent_at:window_start ~locks;
    root.commit_round <- root.commit_round + 1;
    let generation = root.generation in
    let release_parts ps =
      List.iter
        (fun (_, quorum, _, lslice) -> release_locks root ~quorum ~locks:lslice)
        ps
    in
    let retry () =
      Metrics.note_quorum_retry exec.metrics;
      schedule root ~delay:(jittered exec.rng Config.ct_retry_delay) (fun () ->
          send_commit root ~scope ~value)
    in
    let abort_2pc () =
      if cross_shard then begin
        Metrics.note_cross_shard_abort exec.metrics;
        trace root ~kind:Obs.Sem.xshard_decide ~oid:(-1) ~a:0 ~b:nshards ~x:0.
      end;
      root_abort root
    in
    let rec prepare prepared todo =
      match todo with
      | [] -> decide (List.rev prepared)
      | ((s, quorum, slice, lslice) as part) :: rest ->
        let peers =
          List.sort_uniq Int.compare
            (List.concat_map (fun (s', q, _, _) -> if s' = s then [] else q) parts)
        in
        if cross_shard then
          trace root ~kind:Obs.Sem.xshard_prepare ~oid:root.commit_round ~a:s ~b:nshards ~x:0.;
        trace root ~kind:Obs.Sem.commit_send ~oid:root.commit_round ~a:(List.length lslice)
          ~b:(List.length quorum) ~x:(Float.of_int s);
        let send_epoch = exec.quorums.epoch ~shard:s in
        Sim.Rpc.multicall exec.rpc ~kind:Messages.commit_req_kind ~src:root.node
          ~dsts:quorum ~timeout:Config.request_timeout
          (Messages.Commit_req
             { txn = root.txn_id; dataset = slice; locks = lslice;
               round = root.commit_round; peers })
          ~on_done:(fun ~replies ~missing ->
            if still_current root generation then begin
              let votes = tally root ~replies ~entry:0 in
              let contacted = part :: List.map fst prepared in
              if missing <> [] || exec.quorums.epoch ~shard:s <> send_epoch then begin
                (* A write-quorum member failed mid-2PC, or a
                   reconfiguration installed a new view while the votes
                   were in flight (the answering quorum need not intersect
                   current-view quorums): release whatever was locked and
                   retry against refreshed quorums. *)
                release_parts contacted;
                retry ()
              end
              else if votes.all_commit then prepare ((part, send_epoch) :: prepared) rest
              else begin
                release_parts contacted;
                veto root votes ~abort:abort_2pc ~retry:(fun () ->
                    schedule root ~delay:(jittered exec.rng Config.ct_retry_delay)
                      (fun () -> send_commit root ~scope ~value))
              end
            end)
    and decide prepared =
      if List.exists (fun ((s, _, _, _), e) -> exec.quorums.epoch ~shard:s <> e) prepared
      then begin
        (* A shard reconfigured after voting: its locked quorum need not
           intersect the new view's quorums — walk away and retry. *)
        release_parts (List.map fst prepared);
        retry ()
      end
      else if now root > root.lock_deadline then begin
        (* Votes complete but past the coordinator's lease horizon: some
           participant may already be presuming abort, so committing now
           could race a conflicting writer.  Walk away — Release is
           harmless whether or not the leases already fell. *)
        Metrics.note_commit_deadline_abort exec.metrics;
        trace root ~kind:Obs.Sem.deadline_abort ~oid:(-1) ~a:(-1) ~b:(-1)
          ~x:root.lock_deadline;
        release_parts (List.map fst prepared);
        abort_2pc ()
      end
      else begin
        let writes = writes_of_wset scope.wset in
        record_commit root ~scope ~window_start;
        (* The FULL write set goes to every participant quorum: each shard
           installs its own rows and retains the foreign ones as commit
           evidence, so cross-shard lease termination can rescue the
           decision from any surviving participant.  At-least-once: losing
           an Apply at a read/write-quorum intersection node would let
           later reads miss this commit; Apply is version-guarded
           (idempotent), so retransmission is safe. *)
        let dsts =
          List.sort_uniq Int.compare
            (List.concat_map (fun ((_, quorum, _, _), _) -> quorum) prepared)
        in
        Sim.Rpc.acked_multicast exec.rpc ~kind:Messages.apply_kind ~src:root.node
          ~dsts ~timeout:Config.request_timeout
          (Messages.Apply { txn = root.txn_id; writes });
        if exec.batch_commit then begin
          (* Keep the speculation machinery coherent: successors may have
             read this root's inputs from committed images. *)
          record_spec_outcome exec ~txn:root.txn_id ~committed:true;
          refresh_committed_images exec ~txn:root.txn_id ~wset:scope.wset
        end;
        Metrics.note_commit exec.metrics ~latency:(now root -. root.born);
        if cross_shard then begin
          Metrics.note_cross_shard_commit exec.metrics;
          trace root ~kind:Obs.Sem.xshard_decide ~oid:(-1) ~a:1 ~b:nshards ~x:0.
        end;
        trace root ~kind:Obs.Sem.txn_commit ~oid:(-1) ~a:(-1) ~b:0
          ~x:(now root -. root.born);
        finish root (Committed value)
      end
    in
    prepare [] parts
  end

and release_locks root ~quorum ~locks =
  (* At-least-once: a dropped Release would leave objects locked by a dead
     transaction forever.  The round stamp makes retransmission safe even
     when a quorum retry races it: a later round's Commit_req re-locks with
     a higher round, and replicas drop the then-stale Release (the root of
     a two-writers-one-version violation otherwise). *)
  if locks <> [] then
    Sim.Rpc.acked_multicast root.exec.rpc ~kind:Messages.release_kind ~src:root.node ~dsts:quorum
      ~timeout:Config.request_timeout
      (Messages.Release { txn = root.txn_id; oids = locks; round = root.commit_round })

and record_commit root ~scope ~window_start =
  match root.exec.oracle with
  | None -> ()
  | Some oracle ->
    let reads =
      List.map (fun (e : Rwset.entry) -> (e.oid, e.version)) (Rwset.entries scope.rset)
    in
    let read_bases_of_writes =
      List.filter_map
        (fun (e : Rwset.entry) ->
          if Rwset.mem scope.rset e.oid then None else Some (e.oid, e.version))
        (Rwset.entries scope.wset)
    in
    let writes =
      List.map (fun (e : Rwset.entry) -> (e.oid, e.version + 1)) (Rwset.entries scope.wset)
    in
    Oracle.note_commit oracle ~txn:root.txn_id ~decision:(now root) ~window_start
      ~reads:(reads @ read_bases_of_writes) ~writes

(* --- batch-commit mode (PROTOCOL.md §9) --------------------------------- *)

(* Queue the root for the next batch round.  Its write images are published
   immediately: queue order is commit order, so successors reading them
   speculate on exactly the state this entry will install if it commits. *)
and enqueue_commit root ~scope ~value ~shard =
  let exec = root.exec in
  (* Early queue validation: if the local image table already holds a newer
     version than an entry's base, a predecessor in queue order has
     overwritten this snapshot and the batch round is guaranteed to veto
     it.  Abort here — at memory speed, before taking a queue slot — so
     the doomed write images are never published for successors to read
     (one organic stale entry otherwise seeds a whole cascade of
     speculation aborts).  Racing siblings of a hot object thus resolve
     locally: one enqueues, the rest retry against its fresh image. *)
  let doomed = ref false in
  let check (e : Rwset.entry) =
    let img = image exec e.oid in
    if img != no_image && img.img_version > e.version && img.img_txn <> root.txn_id then
      doomed := true
  in
  Rwset.iter scope.rset check;
  Rwset.iter scope.wset check;
  if !doomed then root_abort root
  else begin
  let bq = batchq exec ~shard in
  bq.bq_queue <- publish_pending root ~scope ~value :: bq.bq_queue;
  bq.bq_len <- bq.bq_len + 1;
  if not bq.bq_inflight then begin
    if bq.bq_len >= exec.config.batch_size then cut_batch exec ~bq
    else schedule_cut exec ~bq ~delay:exec.config.batch_delay
  end
  end

(* Re-admit a live entry whose round failed to decide it (lock conflict).
   It must go to the queue's {e oldest} side, not the newest: readers of its
   images enqueued while the round was in flight are already in the queue,
   and batch order must decide the writer before its readers — prepending
   would invert that and spec-abort every dependent. *)
and requeue_commit root ~scope ~value ~bq =
  bq.bq_queue <- bq.bq_queue @ [ publish_pending root ~scope ~value ];
  bq.bq_len <- bq.bq_len + 1

and schedule_cut exec ~bq ~delay =
  if not bq.bq_cut_scheduled then begin
    bq.bq_cut_scheduled <- true;
    Sim.Engine.schedule exec.engine ~delay (fun () ->
        bq.bq_cut_scheduled <- false;
        if (not bq.bq_inflight) && bq.bq_queue <> [] then cut_batch exec ~bq)
  end

(* Cut the whole queue into one batch round.  Dead entries (their root was
   fail-stopped while queued) are dropped here, with their outcome recorded
   as aborted so speculative readers of their images fail fast. *)
and cut_batch exec ~bq =
  let entries =
    List.filter
      (fun p ->
        if still_current p.p_root p.p_generation then true
        else begin
          record_spec_outcome exec ~txn:p.p_txn ~committed:false;
          drop_images exec ~txn:p.p_txn ~wset:p.p_scope.wset;
          false
        end)
      (List.rev bq.bq_queue) (* oldest first = commit order *)
  in
  bq.bq_queue <- [];
  bq.bq_len <- 0;
  match entries with
  | [] -> ()
  | first :: _ -> begin
    (* The round is sent from the oldest entry's node: any member's quorum
       works (every entry is validated by the same voter set), and the
       multicall timeout is an engine event, so even that node's death
       cannot stall the decision. *)
    let src = first.p_root.node in
    match exec.quorums.write_quorum ~shard:bq.bq_shard ~node:src with
    | [] ->
      (* no write quorum constructible right now (wedged / too many
         failures): requeue everything and retry after a delay *)
      Metrics.note_quorum_retry exec.metrics;
      bq.bq_queue <- List.rev entries;
      bq.bq_len <- List.length entries;
      schedule_cut exec ~bq ~delay:(jittered exec.rng Config.request_timeout)
    | quorum ->
      let ea = Array.of_list entries in
      let n = Array.length ea in
      let quorum_size = List.length quorum in
      let batch_id = exec.batch_seq in
      exec.batch_seq <- batch_id + 1;
      let sent_at = Sim.Engine.now exec.engine in
      let txns = Array.make n 0 in
      let rounds = Array.make n 0 in
      let ds_offsets = Array.make (n + 1) 0 in
      let wr_offsets = Array.make (n + 1) 0 in
      let writes_by_entry = Array.make n Messages.empty_writes in
      let locks_by_entry = Array.make n [] in
      exec.ds_len <- 0;
      for i = 0 to n - 1 do
        let p = ea.(i) in
        let root = p.p_root in
        let scope = p.p_scope in
        (* Per-entry commit-round stamping, as in send_commit: the
           replica pins granted leases to it, so a stale Release from an
           abandoned earlier round cannot free a later round's lock. *)
        root.commit_round <- root.commit_round + 1;
        txns.(i) <- root.txn_id;
        rounds.(i) <- root.commit_round;
        stage_commit_rows exec ~scope_rset:scope.rset ~scope_wset:scope.wset;
        ds_offsets.(i + 1) <- exec.ds_len;
        let locks = Rwset.oids scope.wset in
        locks_by_entry.(i) <- locks;
        root.lock_deadline <- lease_horizon ~sent_at ~locks;
        writes_by_entry.(i) <- writes_of_wset scope.wset;
        wr_offsets.(i + 1) <- wr_offsets.(i) + Messages.writes_len writes_by_entry.(i);
        trace root ~kind:Obs.Sem.batch_entry ~oid:(-1) ~a:batch_id ~b:i ~x:0.;
        trace root ~kind:Obs.Sem.commit_send ~oid:root.commit_round ~a:(List.length locks)
          ~b:quorum_size ~x:(Float.of_int bq.bq_shard)
      done;
      let dataset = ds_freeze exec in
      let writes =
        if wr_offsets.(n) = 0 then Messages.empty_writes
        else
          let cat field = Array.concat (Array.to_list (Array.map field writes_by_entry)) in
          {
            Messages.wr_oids = cat (fun w -> w.Messages.wr_oids);
            wr_versions = cat (fun w -> w.Messages.wr_versions);
            wr_values = cat (fun w -> w.Messages.wr_values);
          }
      in
      let decided =
        match (bq.bq_last_commits, bq.bq_prev_commits) with
        | [], [] -> [||]
        | last, prev -> Array.of_list (last @ prev)
      in
      Metrics.note_batch exec.metrics ~occupancy:n;
      trace first.p_root ~kind:Obs.Sem.batch_send ~oid:(-1) ~a:n ~b:quorum_size
        ~x:(Float.of_int bq.bq_shard);
      let send_epoch = exec.quorums.epoch ~shard:bq.bq_shard in
      bq.bq_inflight <- true;
      Sim.Rpc.multicall exec.rpc ~kind:Messages.batch_commit_req_kind ~src
        ~dsts:quorum ~timeout:Config.request_timeout
        (Messages.Batch_commit_req
           { txns; rounds; ds_offsets; dataset; wr_offsets; writes; decided })
        ~on_done:(fun ~replies ~missing ->
          decide_batch exec ~bq ~entries:ea ~writes_by_entry ~locks_by_entry ~quorum
            ~batch_id ~send_epoch ~sent_at ~replies ~missing)
  end

(* Decide every entry of a batch round, in queue order.  The multicall
   timeout is an engine event, so this runs even if the sending node died
   mid-round — each entry's own liveness is checked individually. *)
and decide_batch exec ~bq ~entries ~writes_by_entry ~locks_by_entry ~quorum ~batch_id
    ~send_epoch ~sent_at ~replies ~missing =
  let n = Array.length entries in
  if missing <> [] || exec.quorums.epoch ~shard:bq.bq_shard <> send_epoch then begin
    (* A quorum member failed mid-round, or a reconfiguration installed a
       new view while the votes were in flight: nothing decided.  This is
       the epoch fence's "uncut tail" — the round is walked away from
       (Release per entry) and every live entry requeued in order for a
       fresh cut against refreshed quorums; batches decided earlier stand
       untouched. *)
    Metrics.note_quorum_retry exec.metrics;
    let requeued = ref [] in
    for i = 0 to n - 1 do
      let p = entries.(i) in
      if still_current p.p_root p.p_generation then begin
        release_locks p.p_root ~quorum ~locks:locks_by_entry.(i);
        requeued := p :: !requeued
      end
      else begin
        record_spec_outcome exec ~txn:p.p_txn ~committed:false;
        drop_images exec ~txn:p.p_txn ~wset:p.p_scope.wset
      end
    done;
    (* These entries are older than anything enqueued while the round was
       in flight: append them at the queue's tail (its oldest side). *)
    bq.bq_queue <- bq.bq_queue @ !requeued;
    bq.bq_len <- bq.bq_len + List.length !requeued;
    bq.bq_inflight <- false;
    if bq.bq_queue <> [] then
      schedule_cut exec ~bq ~delay:(jittered exec.rng Config.ct_retry_delay)
  end
  else begin
    let now_ = Sim.Engine.now exec.engine in
    let committed_now = ref [] in
    for i = 0 to n - 1 do
      let p = entries.(i) in
      let root = p.p_root in
      if not (still_current root p.p_generation) then begin
        (* The root was fail-stopped while the round was in flight.  No
           Release is sent on its behalf (a dead coordinator cannot speak);
           its leases expire and replica-side termination resolves them. *)
        record_spec_outcome exec ~txn:p.p_txn ~committed:false;
        drop_images exec ~txn:p.p_txn ~wset:p.p_scope.wset
      end
      else begin
        let scope = p.p_scope in
        let votes = tally root ~replies ~entry:i in
        match dep_status exec root.spec_deps with
        | `Failed dep | `Undecided dep ->
          (* A predecessor this entry read from aborted (or was requeued
             past it — a batch-order violation): the entry read state that
             never committed and must retry, whatever the replicas voted. *)
          release_locks root ~quorum ~locks:locks_by_entry.(i);
          record_spec_outcome exec ~txn:root.txn_id ~committed:false;
          drop_images exec ~txn:root.txn_id ~wset:scope.wset;
          trace root ~kind:Obs.Sem.batch_decide ~oid:(-1) ~a:batch_id ~b:0 ~x:0.;
          speculation_abort root ~dep
        | `Ok ->
          if votes.all_commit && now_ <= root.lock_deadline then begin
            record_commit root ~scope ~window_start:sent_at;
            Sim.Rpc.acked_multicast exec.rpc ~kind:Messages.apply_kind
              ~src:root.node ~dsts:quorum ~timeout:Config.request_timeout
              (Messages.Apply { txn = root.txn_id; writes = writes_by_entry.(i) });
            Metrics.note_commit exec.metrics ~latency:(now_ -. root.born);
            trace root ~kind:Obs.Sem.txn_commit ~oid:(-1) ~a:(-1) ~b:0
              ~x:(now_ -. root.born);
            trace root ~kind:Obs.Sem.batch_decide ~oid:(-1) ~a:batch_id ~b:1
              ~x:0.;
            record_spec_outcome exec ~txn:root.txn_id ~committed:true;
            commit_images exec ~txn:root.txn_id ~wset:scope.wset;
            if locks_by_entry.(i) <> [] then
              committed_now := root.txn_id :: !committed_now;
            finish root (Committed p.p_value)
          end
          else if votes.all_commit then begin
            (* votes arrived past the coordinator's lease horizon *)
            Metrics.note_commit_deadline_abort exec.metrics;
            trace root ~kind:Obs.Sem.deadline_abort ~oid:(-1) ~a:(-1) ~b:(-1)
              ~x:root.lock_deadline;
            release_locks root ~quorum ~locks:locks_by_entry.(i);
            abort_entry root ~scope ~batch_id
          end
          else begin
            release_locks root ~quorum ~locks:locks_by_entry.(i);
            (* A retry goes straight back into the queue, on its oldest
               side so the entry still decides before any reader of its
               images.  No outcome is recorded and the images are
               republished — readers still legitimately depend on this
               entry. *)
            veto root votes
              ~retry:(fun () -> requeue_commit root ~scope ~value:p.p_value ~bq)
              ~abort:(fun () -> abort_entry root ~scope ~batch_id)
          end
      end
    done;
    bq.bq_prev_commits <- bq.bq_last_commits;
    bq.bq_last_commits <- !committed_now;
    bq.bq_inflight <- false;
    (* keep the pipeline full: anything queued while this round was in
       flight (or requeued on a lock conflict above) cuts immediately *)
    if bq.bq_queue <> [] then cut_batch exec ~bq
  end

(* A batch entry that aborts after its round: its readers fail fast. *)
and abort_entry root ~scope ~batch_id =
  record_spec_outcome root.exec ~txn:root.txn_id ~committed:false;
  drop_images root.exec ~txn:root.txn_id ~wset:scope.wset;
  trace root ~kind:Obs.Sem.batch_decide ~oid:(-1) ~a:batch_id ~b:0 ~x:0.;
  root_abort root

and finish root outcome =
  if not root.finished then begin
    trace root ~kind:Obs.Sem.txn_end ~oid:(-1)
      ~a:(match outcome with Committed _ -> 1 | Failed _ -> 0)
      ~b:(-1) ~x:0.;
    root.finished <- true;
    root.generation <- root.generation + 1;
    root.on_done outcome
  end

and spawn_root t ~node ~program ~on_done =
  let id = t.next_active in
  t.next_active <- id + 1;
  (* The registry entry is dropped exactly when the root finishes
     normally; a kill drops it from the [kill_node] side instead. *)
  let on_done outcome =
    t.actives <- List.filter (fun a -> a.a_id <> id) t.actives;
    on_done outcome
  in
  let root =
    {
      exec = t;
      node;
      program;
      on_done;
      txn_id = 0;
      attempt = 0;
      born = Sim.Engine.now t.engine;
      scopes = [];
      savepoints = [];
      next_chk = 1;
      since_chk = 0;
      last_validation_sent = Sim.Engine.now t.engine;
      lock_deadline = Float.infinity;
      last_read_leased = false;
      extra_read_peers = [];
      spec_deps = [];
      commit_lock_budget = t.config.commit_lock_retries;
      commit_round = 0;
      compensations = [];
      steps = 0;
      generation = 0;
      finished = false;
    }
  in
  let handle =
    {
      a_id = id;
      a_node = node;
      a_txn = (fun () -> root.txn_id);
      a_kill =
        (fun () ->
          (* Fail-stop semantics: the coordinator's thread dies with its
             machine.  No outcome is delivered — in particular the root's
             client never resubmits — and any in-flight reply is dropped by
             the generation check. *)
          root.finished <- true;
          root.generation <- root.generation + 1);
    }
  in
  t.actives <- handle :: t.actives;
  start_attempt root

let kill_node t ~node =
  let mine, rest = List.partition (fun a -> a.a_node = node) t.actives in
  t.actives <- rest;
  List.iter (fun a -> a.a_kill ()) mine

let in_flight t = List.map (fun a -> (a.a_node, a.a_txn ())) t.actives

let run_root = spawn_root
