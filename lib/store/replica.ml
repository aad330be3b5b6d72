(* A write lock is a *lease*: it names the owning transaction and carries an
   expiry instant (simulated ms).  [infinity] means "never expires" — the
   pre-lease behaviour, still used by callers that do not run the
   termination protocol (baselines, unit tests). *)
type lease = {
  owner : int;
  mutable expires : float;
  mutable round : int;
  (* The lease this one displaced through an in-batch / decided-owner
     handover (batch commit, PROTOCOL.md §9).  A displaced lease may be the
     only protection for a committed-but-not-yet-applied predecessor write:
     if the successor is released before its own Apply lands (speculation
     abort, requeue), dropping the lease outright would let a reader of the
     stale copy validate cleanly and commit a duplicate version.  [unlock]
     therefore restores [prev] instead of clearing, except on the Apply
     path where the installed write makes predecessor protection moot. *)
  mutable prev : lease option;
}

type copy = {
  mutable version : int;
  mutable value : Value.t;
  mutable protected_by : lease option;
}

(* PR/PW lists are bounded: entries are removed on commit/abort
   notifications, but a lost notification (failed node) must not leak, so we
   cap each list and evict the oldest entry. *)
let pr_pw_cap = 64

(* Recently-applied transaction ids, kept so a status query ("did txn T
   decide commit?") can be answered from local evidence.  Bounded: an entry
   is only needed while some replica may still hold T's lease, i.e. for one
   lease horizon. *)
let applied_cap = 4096

type lists = { mutable readers : int list; mutable writers : int list }

type t = {
  objects : (int, copy) Hashtbl.t;
  lists : (int, lists) Hashtbl.t;
  by_txn : (int, int list ref) Hashtbl.t;  (* txn -> oids it holds leases on *)
  applied : (int, unit) Hashtbl.t;
  applied_order : int Queue.t;
  (* Full write rows of recently-applied transactions, including rows for
     objects this replica does not host.  A cross-shard transaction's Apply
     carries the whole write set to every participant shard: keeping the
     foreign rows lets a status query from another shard's lease holder be
     answered with the very write it must adopt to rescue the commit.
     Evicted in lockstep with [applied] (same FIFO, same horizon). *)
  retained : (int, (int * int * Value.t) list) Hashtbl.t;
  (* Cross-shard termination peers, from Commit_req.peers: the other
     participant shards' quorum members a status round for this txn must
     also ask.  Transient like the leases it serves (cleared on crash wipe);
     entries are added only alongside a granted lease and removed when the
     owner's last lease here goes. *)
  xpeers : (int, int list) Hashtbl.t;
  (* Tracing: the store layer has no engine handle, so the cluster injects
     the tracer plus a clock closure and the hosting node id after
     construction (see [instrument]).  All three stay inert defaults when
     tracing is off. *)
  mutable tracer : Obs.Tracer.t;
  mutable trace_node : int;
  mutable clock : unit -> float;
  (* Fired when [unlock] restores a displaced lease (see [lease.prev]): the
     restored lease may have outlived its original termination watcher, so
     the server re-arms one.  Inert default for callers without the
     termination protocol. *)
  mutable on_restore : oid:int -> owner:int -> expires:float -> unit;
}

let create () =
  {
    objects = Hashtbl.create 256;
    lists = Hashtbl.create 256;
    by_txn = Hashtbl.create 16;
    applied = Hashtbl.create 64;
    applied_order = Queue.create ();
    retained = Hashtbl.create 64;
    xpeers = Hashtbl.create 16;
    tracer = Obs.Tracer.null;
    trace_node = -1;
    clock = (fun () -> 0.);
    on_restore = (fun ~oid:_ ~owner:_ ~expires:_ -> ());
  }

let instrument t ~tracer ~node ~clock =
  t.tracer <- tracer;
  t.trace_node <- node;
  t.clock <- clock

let set_on_restore t f = t.on_restore <- f

(* All slots required ([-1] / [0.] for n/a): labelled optional arguments
   would box an option per supplied label at every call site, even with the
   tracer disabled. *)
let trace_lease t ~ekind ~oid ~txn ~a ~x =
  if Obs.Tracer.enabled t.tracer then
    Obs.Tracer.emit8 t.tracer ~time:(t.clock ()) ~kind:ekind ~node:t.trace_node
      ~txn ~oid ~a ~b:(-1) ~x

let ensure t ~oid ~init =
  if not (Hashtbl.mem t.objects oid) then
    Hashtbl.replace t.objects oid { version = 0; value = init; protected_by = None }

let install t ~oid ~init =
  Hashtbl.replace t.objects oid { version = 0; value = init; protected_by = None }

let mem t oid = Hashtbl.mem t.objects oid
let find t oid = Hashtbl.find_opt t.objects oid

let get t oid =
  match find t oid with
  | Some copy -> copy
  | None -> invalid_arg (Printf.sprintf "Store.get: unknown object %d" oid)

let version t oid = (get t oid).version

let is_protected t ~oid ~against =
  match (get t oid).protected_by with
  | None -> false
  | Some lease -> lease.owner <> against

let lease_of t oid = (get t oid).protected_by

(* --- lease index -------------------------------------------------------- *)

let index_add t ~oid ~txn =
  match Hashtbl.find_opt t.by_txn txn with
  | Some oids -> if not (List.mem oid !oids) then oids := oid :: !oids
  | None -> Hashtbl.replace t.by_txn txn (ref [ oid ])

let index_remove t ~oid ~txn =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> ()
  | Some oids ->
    oids := List.filter (fun o -> o <> oid) !oids;
    if !oids = [] then Hashtbl.remove t.by_txn txn

let leased_oids t ~txn =
  match Hashtbl.find_opt t.by_txn txn with Some oids -> !oids | None -> []

let try_lock ?(expires = Float.infinity) ?(round = 0) t ~oid ~txn =
  let copy = get t oid in
  match copy.protected_by with
  | None ->
    copy.protected_by <- Some { owner = txn; expires; round; prev = None };
    index_add t ~oid ~txn;
    trace_lease t ~ekind:Obs.Sem.lease_grant ~oid ~txn ~a:(-1) ~x:expires;
    true
  | Some lease ->
    if lease.owner = txn then begin
      (* Idempotent re-grant by the owner also renews the lease.  A
         reordered re-grant from an abandoned earlier round must not roll
         the round back, so keep the highest seen. *)
      lease.expires <- Float.max lease.expires expires;
      lease.round <- Stdlib.max lease.round round;
      trace_lease t ~ekind:Obs.Sem.lease_renew ~oid ~txn ~a:(-1) ~x:lease.expires;
      true
    end
    else false

(* Transfer the lease on [oid] from [prev_owner] (an in-batch chain
   predecessor or a decided owner whose Apply is in flight) to [txn],
   keeping the displaced lease in [prev] so a later [unlock] of the
   successor restores it.  Falls back to a plain [try_lock] when the lease
   moved under us. *)
let handover ?(expires = Float.infinity) ?(round = 0) t ~oid ~prev_owner ~txn =
  let copy = get t oid in
  match copy.protected_by with
  | Some lease when lease.owner = prev_owner ->
    copy.protected_by <- Some { owner = txn; expires; round; prev = Some lease };
    index_remove t ~oid ~txn:prev_owner;
    index_add t ~oid ~txn;
    trace_lease t ~ekind:Obs.Sem.lease_release ~oid ~txn:prev_owner ~a:3 ~x:0.;
    trace_lease t ~ekind:Obs.Sem.lease_grant ~oid ~txn ~a:(-1) ~x:expires;
    true
  | Some _ | None -> try_lock ~expires ~round t ~oid ~txn

let unlock ?round ?(restore = true) t ~oid ~txn =
  let copy = get t oid in
  match copy.protected_by with
  | Some lease when lease.owner = txn ->
    let stale =
      (* A Release retransmitted from an abandoned commit round can arrive
         after a later round of the same transaction re-acquired the lock;
         freeing it would let a conflicting writer in mid-2PC. *)
      match round with Some r -> r < lease.round | None -> false
    in
    if not stale then begin
      index_remove t ~oid ~txn;
      trace_lease t ~ekind:Obs.Sem.lease_release ~oid ~txn ~a:0 ~x:0.;
      match (if restore then lease.prev else None) with
      | Some p ->
        copy.protected_by <- Some p;
        index_add t ~oid ~txn:p.owner;
        trace_lease t ~ekind:Obs.Sem.lease_grant ~oid ~txn:p.owner ~a:(-1) ~x:p.expires;
        t.on_restore ~oid ~owner:p.owner ~expires:p.expires
      | None -> copy.protected_by <- None
    end
  | Some _ | None -> ()

(* Heartbeat renewal: any traffic from [txn] pushes the expiry of every
   lease it holds here out to [expires] (never shortens). *)
let renew t ~txn ~expires =
  List.iter
    (fun oid ->
      match (get t oid).protected_by with
      | Some lease when lease.owner = txn ->
        lease.expires <- Float.max lease.expires expires;
        trace_lease t ~ekind:Obs.Sem.lease_renew ~oid ~txn ~a:(-1) ~x:lease.expires
      | Some _ | None -> ())
    (leased_oids t ~txn)

let held_leases t =
  Hashtbl.fold
    (fun oid copy acc ->
      match copy.protected_by with
      | Some lease -> (oid, lease.owner, lease.expires) :: acc
      | None -> acc)
    t.objects []

(* --- applied-transaction evidence --------------------------------------- *)

let note_applied t ~txn =
  if not (Hashtbl.mem t.applied txn) then begin
    Hashtbl.replace t.applied txn ();
    Queue.push txn t.applied_order;
    if Queue.length t.applied_order > applied_cap then begin
      let evicted = Queue.pop t.applied_order in
      Hashtbl.remove t.applied evicted;
      Hashtbl.remove t.retained evicted
    end
  end

let was_applied t ~txn = Hashtbl.mem t.applied txn

let retain_writes t ~txn rows =
  if rows <> [] && not (Hashtbl.mem t.retained txn) then
    Hashtbl.replace t.retained txn rows

let retained_writes t ~txn =
  match Hashtbl.find_opt t.retained txn with Some rows -> rows | None -> []

let set_status_peers t ~txn peers =
  if peers <> [] then Hashtbl.replace t.xpeers txn peers

let status_peers_of t ~txn =
  match Hashtbl.find_opt t.xpeers txn with Some peers -> peers | None -> []

let clear_status_peers t ~txn = Hashtbl.remove t.xpeers txn

let apply t ~oid ~version ~value ~txn =
  let copy = get t oid in
  if version > copy.version then begin
    copy.version <- version;
    copy.value <- value
  end;
  note_applied t ~txn;
  (* The installed write supersedes any protection [txn] was providing, so
     drop [txn] from displaced-lease chains (see [lease.prev]) instead of
     letting a later restore resurrect a moot lease, and clear rather than
     restore when [txn] holds the lease itself. *)
  (match copy.protected_by with
  | Some lease ->
    let rec scrub l =
      match l.prev with
      | Some p when p.owner = txn ->
        l.prev <- p.prev;
        scrub l
      | Some p -> scrub p
      | None -> ()
    in
    scrub lease
  | None -> ());
  unlock ~restore:false t ~oid ~txn

let lists_of t oid =
  match Hashtbl.find_opt t.lists oid with
  | Some l -> l
  | None ->
    let l = { readers = []; writers = [] } in
    Hashtbl.replace t.lists oid l;
    l

let bounded_add txn entries =
  if List.mem txn entries then entries
  else begin
    let entries = txn :: entries in
    if List.length entries > pr_pw_cap then
      List.filteri (fun i _ -> i < pr_pw_cap) entries
    else entries
  end

let add_reader t ~oid ~txn =
  let l = lists_of t oid in
  l.readers <- bounded_add txn l.readers

let add_writer t ~oid ~txn =
  let l = lists_of t oid in
  l.writers <- bounded_add txn l.writers

let remove_txn t ~oid ~txn =
  match Hashtbl.find_opt t.lists oid with
  | None -> ()
  | Some l ->
    l.readers <- List.filter (fun id -> id <> txn) l.readers;
    l.writers <- List.filter (fun id -> id <> txn) l.writers

let readers t oid = match Hashtbl.find_opt t.lists oid with None -> [] | Some l -> l.readers
let writers t oid = match Hashtbl.find_opt t.lists oid with None -> [] | Some l -> l.writers
let object_count t = Hashtbl.length t.objects

(* --- crash-recovery state transfer ------------------------------------- *)

(* Committed state only: locks and PR/PW lists are transient and are not
   shipped to a recovering peer. *)
let dump t =
  Hashtbl.fold (fun oid copy acc -> (oid, copy.version, copy.value) :: acc) t.objects []

(* Merge one copy received from a sync quorum: adopt it if strictly newer
   (a newer version also invalidates any stale local lease), install it if
   the object is unknown locally. *)
let sync_copy t ~oid ~version ~value =
  match Hashtbl.find_opt t.objects oid with
  | None -> Hashtbl.replace t.objects oid { version; value; protected_by = None }
  | Some copy ->
    if version > copy.version then begin
      begin
        match copy.protected_by with
        | Some lease ->
          index_remove t ~oid ~txn:lease.owner;
          trace_lease t ~ekind:Obs.Sem.lease_release ~oid ~txn:lease.owner ~a:1 ~x:0.
        | None -> ()
      end;
      copy.version <- version;
      copy.value <- value;
      copy.protected_by <- None
    end

(* A crashed process loses its volatile state: leases it granted, PR/PW
   registrations and apply evidence die with it.  Called when the node
   rejoins. *)
let reset_transients t =
  Hashtbl.iter
    (fun oid copy ->
      (match copy.protected_by with
      | Some lease ->
        trace_lease t ~ekind:Obs.Sem.lease_release ~oid ~txn:lease.owner ~a:2 ~x:0.
      | None -> ());
      copy.protected_by <- None)
    t.objects;
  Hashtbl.reset t.lists;
  Hashtbl.reset t.by_txn;
  Hashtbl.reset t.applied;
  Hashtbl.reset t.retained;
  Hashtbl.reset t.xpeers;
  Queue.clear t.applied_order
