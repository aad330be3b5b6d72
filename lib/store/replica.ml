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

(* Recently-applied transaction ids, kept so a status query ("did txn T
   decide commit?") can be answered from local evidence.  Bounded: an entry
   is only needed while some replica may still hold T's lease, i.e. for one
   lease horizon. *)
let applied_cap = 4096

type row = int * int * Value.t

type t = {
  (* Indexed by oid (dense, from 0: [Ids.fresh_obj]); [None] where this
     replica hosts no copy.  Grown by doubling when an oid past the end is
     installed; an oid that is negative or past the end is not hosted. *)
  mutable objects : copy option array;
  by_txn : int list Util.Int_table.t;  (* txn -> oids it holds leases on *)
  (* Recently-applied txns, each with its full write rows when the Apply
     carried rows for objects this replica does not host ([[]] otherwise).
     A cross-shard transaction's Apply carries the whole write set to every
     participant shard: keeping the foreign rows lets a status query from
     another shard's lease holder be answered with the very write it must
     adopt to rescue the commit.  Rows and evidence leave together. *)
  applied : row list Util.Window.t;
  (* Cross-shard termination peers, from Commit_req.peers: the other
     participant shards' quorum members a status round for this txn must
     also ask.  Transient like the leases it serves (cleared on crash wipe);
     entries are added only alongside a granted lease and removed when the
     owner's last lease here goes. *)
  xpeers : int list Util.Int_table.t;
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
    objects = Array.make 256 None;
    by_txn = Util.Int_table.create ~dummy:[];
    applied = Util.Window.create ~cap:applied_cap ~dummy:[];
    xpeers = Util.Int_table.create ~dummy:[];
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

let find t oid =
  if oid >= 0 && oid < Array.length t.objects then Array.unsafe_get t.objects oid
  else None

let mem t oid = match find t oid with Some _ -> true | None -> false

let set t oid copy =
  if oid < 0 then invalid_arg (Printf.sprintf "Store: negative object id %d" oid);
  let n = Array.length t.objects in
  if oid >= n then begin
    let cap = ref (2 * n) in
    while !cap <= oid do
      cap := 2 * !cap
    done;
    let objects = Array.make !cap None in
    Array.blit t.objects 0 objects 0 n;
    t.objects <- objects
  end;
  t.objects.(oid) <- Some copy

let ensure t ~oid ~init =
  if not (mem t oid) then set t oid { version = 0; value = init; protected_by = None }

let install t ~oid ~init = set t oid { version = 0; value = init; protected_by = None }

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

let leased_oids t ~txn = Util.Int_table.find_or t.by_txn txn ~default:[]

let index_add t ~oid ~txn =
  let oids = leased_oids t ~txn in
  if not (List.mem oid oids) then Util.Int_table.replace t.by_txn txn (oid :: oids)

let index_remove t ~oid ~txn =
  match leased_oids t ~txn with
  | [] -> ()
  | oids -> (
    match List.filter (fun o -> o <> oid) oids with
    | [] -> Util.Int_table.remove t.by_txn txn
    | rest -> Util.Int_table.replace t.by_txn txn rest)

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

(* [f oid copy acc] over the hosted copies, highest oid first, so a list
   built by consing comes out ascending. *)
let fold_hosted t f init =
  let acc = ref init in
  for oid = Array.length t.objects - 1 downto 0 do
    match t.objects.(oid) with Some copy -> acc := f oid copy !acc | None -> ()
  done;
  !acc

let held_leases t =
  fold_hosted t
    (fun oid copy acc ->
      match copy.protected_by with
      | Some lease -> (oid, lease.owner, lease.expires) :: acc
      | None -> acc)
    []

(* --- applied-transaction evidence --------------------------------------- *)

(* The first Apply that carries foreign rows keeps them (Apply is
   idempotent, so later copies carry the same rows). *)
let note_applied t ~txn ~retain =
  match retain with
  | [] -> if not (Util.Window.mem t.applied txn) then Util.Window.replace t.applied txn []
  | rows -> (
    match Util.Window.find_or t.applied txn ~default:[] with
    | [] -> Util.Window.replace t.applied txn rows
    | _ :: _ -> ())

let was_applied t ~txn = Util.Window.mem t.applied txn
let retained_writes t ~txn = Util.Window.find_or t.applied txn ~default:[]

let set_status_peers t ~txn peers =
  if peers <> [] then Util.Int_table.replace t.xpeers txn peers

let status_peers_of t ~txn = Util.Int_table.find_or t.xpeers txn ~default:[]
let clear_status_peers t ~txn = Util.Int_table.remove t.xpeers txn

let write t ~oid ~version ~value ~txn =
  let copy = get t oid in
  if version > copy.version then begin
    copy.version <- version;
    copy.value <- value
  end;
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

let apply t ~oid ~version ~value ~txn =
  write t ~oid ~version ~value ~txn;
  note_applied t ~txn ~retain:[]

(* --- crash-recovery state transfer ------------------------------------- *)

(* Committed state only, ascending by oid: locks are transient and are
   not shipped to a recovering peer. *)
let dump t = fold_hosted t (fun oid copy acc -> (oid, copy.version, copy.value) :: acc) []

(* Merge one copy received from a sync quorum: adopt it if strictly newer
   (a newer version also invalidates any stale local lease), install it if
   the object is unknown locally. *)
let sync_copy t ~oid ~version ~value =
  match find t oid with
  | None -> set t oid { version; value; protected_by = None }
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

(* A crashed process loses its volatile state: the leases it granted and
   its apply evidence die with it.  Called when the node rejoins. *)
let reset_transients t =
  Array.iteri
    (fun oid -> function
      | Some copy ->
        (match copy.protected_by with
        | Some lease ->
          trace_lease t ~ekind:Obs.Sem.lease_release ~oid ~txn:lease.owner ~a:2 ~x:0.
        | None -> ());
        copy.protected_by <- None
      | None -> ())
    t.objects;
  Util.Int_table.clear t.by_txn;
  Util.Window.clear t.applied;
  Util.Int_table.clear t.xpeers
