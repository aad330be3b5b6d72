(* Termination context: everything a replica needs to resolve an expired
   lease on its own — a clock to notice expiry, an RPC handle plus a peer
   set to ask whether the owner decided commit, and metrics to report the
   outcome.  [status_peers] must intersect every write quorum (a read
   quorum suffices); in practice the cluster passes the read quorum
   extended with the replica's write quorum, so the intersection with the
   coordinator's write quorum holds several members and a lossy link to
   one of them cannot hide a decided commit.  Absent (plain [create]),
   leases are granted with an infinite horizon and the pre-lease behaviour
   is preserved. *)
type termination = {
  engine : Sim.Engine.t;
  watch_lane : Sim.Engine.lane;
      (* Lease watchers, armed at grant time plus a fixed duration and grace,
         so mostly in time order (shared by the cluster's servers). *)
  rpc : (Messages.request, Messages.reply) Sim.Rpc.t;
  status_peers : unit -> int list;
  node_alive : int -> bool;
      (* Cross-shard termination peers arrive frozen in [Commit_req.peers];
         unlike [status_peers] they cannot be recomputed each round, so
         permanently crashed members must be pruned here or a status round
         would wait on the dead forever. *)
  metrics : Metrics.t;
}

type t = {
  node : int;
  store : Store.Replica.t;
  mutable termination : termination option;
  mutable validations_run : int;
  mutable validations_failed : int;
  (* Tracing: injected after construction (see [instrument]); the clock
     closure decouples the server from needing an engine when termination
     is off.  Inert defaults when tracing is disabled. *)
  mutable tracer : Obs.Tracer.t;
  mutable clock : unit -> float;
  (* The batch vote's in-batch state, indexed by oid: [overlay.(oid)] is
     the version the latest locally-valid predecessor installs and
     [chain.(oid)] the entry holding the in-batch lease, both valid only
     where [batch_stamp.(oid) = batch_gen], the current request's
     generation.  Each Batch_commit_req takes a new generation, so stale
     slots read as absent without any clearing. *)
  mutable batch_stamp : int array;
  mutable overlay : int array;
  mutable chain : int array;
  mutable batch_gen : int;
}

let create ~node ~store =
  {
    node;
    store;
    termination = None;
    validations_run = 0;
    validations_failed = 0;
    tracer = Obs.Tracer.null;
    clock = (fun () -> 0.);
    batch_stamp = Array.make 64 0;
    overlay = Array.make 64 0;
    chain = Array.make 64 0;
    batch_gen = 0;
  }

let instrument t ~tracer ~clock =
  t.tracer <- tracer;
  t.clock <- clock

(* All slots required ([-1] / [0.] for n/a): labelled optional arguments
   would box an option per supplied label at every call site, even with the
   tracer disabled. *)
let trace t ~kind ~txn ~oid ~a ~b ~x =
  if Obs.Tracer.enabled t.tracer then
    Obs.Tracer.emit8 t.tracer ~time:(t.clock ()) ~kind ~node:t.node ~txn ~oid ~a
      ~b ~x

let node t = t.node
let store t = t.store
let validations_run t = t.validations_run
let validations_failed t = t.validations_failed

let handle_read t ~txn ~oid ~dataset =
  let validated = Messages.dataset_len dataset > 0 in
  let verdict =
    if not validated then None
    else begin
      t.validations_run <- t.validations_run + 1;
      Rqv.validate t.store ~txn ~dataset
    end
  in
  match verdict with
  | Some target ->
    t.validations_failed <- t.validations_failed + 1;
    trace t ~kind:Obs.Sem.rqv_fail ~txn ~oid ~a:target ~b:(-1) ~x:0.;
    Some (Messages.Read_abort { target })
  | None ->
    if validated then trace t ~kind:Obs.Sem.rqv_ok ~txn ~oid ~a:(-1) ~b:(-1) ~x:0.;
    begin
      match Store.Replica.find t.store oid with
      | None -> Some (Messages.Read_abort { target = 0 })
      | Some copy ->
        let leased = Store.Replica.is_protected t.store ~oid ~against:txn in
        Some (Messages.Read_ok { oid; version = copy.version; value = copy.value; leased })
    end

(* --- lease termination -------------------------------------------------- *)

let leases_on t = Option.is_some t.termination

let lease_expiry t =
  match t.termination with
  | Some term -> Sim.Engine.now term.engine +. Config.lease_duration
  | None -> Float.infinity

let still_held t ~txn oids =
  List.filter
    (fun oid ->
      match Store.Replica.find t.store oid with
      | Some { protected_by = Some lease; _ } -> lease.Store.Replica.owner = txn
      | Some { protected_by = None; _ } | None -> false)
    oids

let release_lease t ~txn ~oids =
  List.iter (fun oid -> Store.Replica.unlock t.store ~oid ~txn) oids

(* Cross-shard termination peers live exactly as long as the leases whose
   status rounds need them. *)
let drop_xpeers_if_done t ~txn =
  if Store.Replica.leased_oids t.store ~txn = [] then
    Store.Replica.clear_status_peers t.store ~txn

(* Commit evidence in a status round: either a peer saw the transaction's
   Apply ([`Applied]), or a peer's copy of a leased object moved past the
   version the lease was protecting ([`Version_advance]).  Only a commit
   can advance a locked copy, but across membership views it may have been
   a *different* transaction's commit through a quorum that bypassed this
   replica — the two kinds are distinguished in the trace so the offline
   checker only demands per-transaction evidence for the first. *)
let commit_evidence t ~held ~replies =
  let status_rep f (_, reply) =
    match reply with
    | Messages.Status_rep { committed; objects } -> f ~committed ~objects
    | Messages.Read_ok _ | Messages.Read_abort _ | Messages.Votes _
    | Messages.Sync_rep _ | Messages.Ack ->
      false
  in
  if List.exists (status_rep (fun ~committed ~objects:_ -> committed)) replies then
    Some `Applied
  else if
    List.exists
      (status_rep (fun ~committed:_ ~objects ->
           List.exists
             (fun (oid, version, _) ->
               List.mem oid held && version > Store.Replica.version t.store oid)
             objects))
      replies
  then Some `Version_advance
  else None

let rescue_commit t term ~txn ~oids ~replies ~evidence =
  Metrics.note_status_rescue term.metrics;
  trace t ~kind:Obs.Sem.rescue ~txn ~oid:(-1) ~a:(List.length oids)
    ~b:(match evidence with `Applied -> 0 | `Version_advance -> 1)
    ~x:0.;
  (* Adopt the freshest copies carried by the replies (version-guarded, so
     older copies are ignored); sync clears the adopted objects' leases,
     and any leftover lease (reply lacking that oid) is presumed released
     by the same decision. *)
  List.iter
    (fun (_, reply) ->
      match reply with
      | Messages.Status_rep { objects; _ } ->
        List.iter
          (fun (oid, version, value) ->
            if Store.Replica.mem t.store oid then
              Store.Replica.sync_copy t.store ~oid ~version ~value)
          objects
      | Messages.Read_ok _ | Messages.Read_abort _ | Messages.Votes _
      | Messages.Sync_rep _ | Messages.Ack ->
        ())
    replies;
  release_lease t ~txn ~oids:(still_held t ~txn oids);
  drop_xpeers_if_done t ~txn

(* Presumed abort is only sound after a FULLY answered, evidence-less
   round: the peer set intersects every write quorum, so "every peer
   replied and none saw the commit" rules a commit decision out (the
   coordinator's deadline forbids deciding one this late).  A partial or
   empty round proves nothing — an isolated replica (partition, quorum
   churn) must keep its lock and keep asking; the peer set is recomputed
   each round, so permanent crashes are routed around once detected and a
   healed partition lets the next round complete.  [attempts] counts the
   fully-answered evidence-less rounds required before presuming, spaced a
   timeout apart — enough slack for an Apply that was still in
   retransmission when the first round was answered. *)
let rec status_round t term ~txn ~oids ~attempts =
  let held = still_held t ~txn oids in
  if held <> [] then begin
    let retry attempts =
      Sim.Engine.schedule term.engine ~delay:Config.request_timeout
        (fun () -> status_round t term ~txn ~oids:held ~attempts)
    in
    (* A cross-shard transaction's commit evidence may live exclusively on
       another participant shard's replicas (the coordinator may have died
       after applying there and before applying here), so the round must
       also ask the peers pinned by its Commit_req.  An own-shard wedge
       ([status_peers () = []]) still retries: presumed abort needs a fully
       answered round through this shard's quorum too. *)
    match term.status_peers () with
    | [] -> retry attempts
    | shard_peers ->
      let dsts =
        match
          List.filter
            (fun n -> n <> t.node && term.node_alive n)
            (Store.Replica.status_peers_of t.store ~txn)
        with
        | [] -> shard_peers
        | xtra -> List.sort_uniq compare (List.rev_append xtra shard_peers)
      in
      trace t ~kind:Obs.Sem.status_round ~txn ~oid:(-1) ~a:attempts
        ~b:(List.length dsts) ~x:0.;
      Sim.Rpc.multicall term.rpc ~kind:Messages.status_req_kind ~src:t.node ~dsts
        ~timeout:Config.request_timeout
        (Messages.Status_req { txn; oids = held })
        ~on_done:(fun ~replies ~missing ->
          let held = still_held t ~txn held in
          if held <> [] then
            match commit_evidence t ~held ~replies with
            | Some evidence -> rescue_commit t term ~txn ~oids:held ~replies ~evidence
            | None ->
            if missing <> [] then retry attempts
            else if attempts > 1 then retry (attempts - 1)
            else begin
              Metrics.note_presumed_abort term.metrics;
              trace t ~kind:Obs.Sem.presumed_abort ~txn ~oid:(-1)
                ~a:(List.length held) ~b:(-1) ~x:0.;
              release_lease t ~txn ~oids:held;
              drop_xpeers_if_done t ~txn
            end)
  end

(* Watch a granted lease batch: fire at expiry + grace; if renewals pushed
   the horizon out, chase it; once genuinely expired, run the status
   protocol. *)
let rec watch_lease t term ~txn ~oids () =
  let held = still_held t ~txn oids in
  if held <> [] then begin
    let latest =
      List.fold_left
        (fun acc oid ->
          match Store.Replica.lease_of t.store oid with
          | Some lease -> Float.max acc lease.Store.Replica.expires
          | None -> acc)
        0. held
    in
    let deadline = latest +. Config.status_grace in
    if Sim.Engine.now term.engine +. 1e-9 < deadline then
      Sim.Engine.schedule_at term.engine ~time:deadline (watch_lease t term ~txn ~oids:held)
    else begin
      Metrics.note_lease_expired term.metrics;
      (match held with
      | oid :: _ ->
        trace t ~kind:Obs.Sem.lease_expire ~txn ~oid ~a:(-1) ~b:(-1) ~x:latest
      | [] -> ());
      status_round t term ~txn ~oids:held ~attempts:Config.status_attempts
    end
  end

let watch_granted t ~txn ~oids ~expires =
  match t.termination with
  | Some term ->
    ignore
      (Sim.Engine.schedule_in term.engine term.watch_lane
         ~time:(expires +. Config.status_grace)
         (watch_lease t term ~txn ~oids)
        : Sim.Engine.handle)
  | None -> ()

let enable_termination ?(node_alive = fun _ -> true) t ~engine ~watch_lane ~rpc
    ~status_peers ~metrics =
  t.termination <- Some { engine; watch_lane; rpc; status_peers; node_alive; metrics };
  (* A lease restored from a batch handover may have outlived the watcher
     armed at its original grant (the watcher dies when [still_held] sees
     the successor as owner), so re-arm one: left unwatched, a restored
     lease would block readers forever — expiry is only enforced by the
     status protocol. *)
  Store.Replica.set_on_restore t.store (fun ~oid ~owner ~expires ->
      watch_granted t ~txn:owner ~oids:[ oid ] ~expires)

(* --- the commit vote (PROTOCOL.md §9) ------------------------------------ *)

(* A vote runs with [batch = Some decided] inside a Batch_commit_req, whose
   recently committed transactions are [decided], and reads the server's
   [overlay] and [chain].  A [Commit_req] is the one-entry batch with
   nothing before it, so it votes with [None] and reads neither. *)

type verdict = Commit | Stale | Conflict

let in_batch t oid =
  oid >= 0
  && oid < Array.length t.batch_stamp
  && Array.unsafe_get t.batch_stamp oid = t.batch_gen

let stored_version store oid =
  match Store.Replica.find store oid with Some copy -> copy.version | None -> -1

(* The version an entry validates [oid] against: the overlay's, else the
   local copy's; [-1] when the object is not hosted here. *)
let visible t batch oid =
  match batch with
  | Some _ when in_batch t oid -> t.overlay.(oid)
  | Some _ | None -> stored_version t.store oid

(* The in-batch lease holder of [oid], or [-1]. *)
let chain_holder t oid = if in_batch t oid then t.chain.(oid) else -1

(* Record that [txn]'s write installs [version] of hosted [oid]. *)
let stamp t ~oid ~txn ~version =
  let n = Array.length t.batch_stamp in
  if oid >= n then begin
    let grow a =
      let b = Array.make (max (2 * n) (oid + 1)) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.batch_stamp <- grow t.batch_stamp;
    t.overlay <- grow t.overlay;
    t.chain <- grow t.chain
  end;
  t.batch_stamp.(oid) <- t.batch_gen;
  t.overlay.(oid) <- version;
  t.chain.(oid) <- txn

let rec decided_mem (decided : Ids.txn_id array) owner i =
  i < Array.length decided && (decided.(i) = owner || decided_mem decided owner (i + 1))

(* Whether the lease on hosted [oid] vetoes [txn]'s row.  In-batch leases
   are not conflicts: predecessors hand them over.  Neither is a moribund
   lease of a [decided] transaction — but only when the reader's base
   version is strictly ahead of the version visible here ([row > visible]),
   i.e. it read past the decided write.  At [row = visible] the reader saw
   the pre-commit value, and the lease must veto it exactly as in the
   vote-to-apply window of a lone commit. *)
let lease_blocks t batch ~txn oid ~row ~visible =
  match Store.Replica.lease_of t.store oid with
  | None -> false
  | Some lease -> (
    let owner = lease.Store.Replica.owner in
    owner <> txn
    &&
    match batch with
    | None -> true
    | Some decided ->
      chain_holder t oid <> owner && not (row > visible && decided_mem decided owner 0))

(* Rows [r, hi) are hosted, not stale and not vetoed by a lease. *)
let rec rows_valid t batch ~txn (dataset : Messages.dataset) r hi =
  r >= hi
  ||
  let oid = dataset.ds_oids.(r) and row = dataset.ds_versions.(r) in
  let v = visible t batch oid in
  v >= 0
  && row >= v
  && (not (lease_blocks t batch ~txn oid ~row ~visible:v))
  && rows_valid t batch ~txn dataset (r + 1) hi

(* The conflict probe of a failed validation: a foreign lease on a
   not-yet-superseded read is retryable; staleness is hopeless. *)
let rec lock_conflict t batch ~txn (dataset : Messages.dataset) r hi =
  r < hi
  &&
  let oid = dataset.ds_oids.(r) and row = dataset.ds_versions.(r) in
  let v = visible t batch oid in
  (v >= 0 && v <= row && lease_blocks t batch ~txn oid ~row ~visible:v)
  || lock_conflict t batch ~txn dataset (r + 1) hi

(* The owner [txn] takes hosted [oid]'s lease over from, or [-1]: the
   in-batch predecessor, or a [decided] owner whose Apply (which would
   release it) is still in flight.  The write base was validated, and a
   base read past a decided write has [row > visible], so the override
   already vetted this. *)
let handover_from t batch ~txn oid =
  match (batch, Store.Replica.lease_of t.store oid) with
  | Some decided, Some lease ->
    let owner = lease.Store.Replica.owner in
    if owner <> txn && (chain_holder t oid = owner || decided_mem decided owner 0)
    then owner
    else -1
  | (Some _ | None), _ -> -1

(* Lock the hosted oids of [locks], all or nothing.  The displaced lease of
   a handover is kept ([Replica.handover]): it may be the only protection
   for a committed write whose Apply was lost, and releasing the successor
   (speculation abort, requeue) must restore it, not strand the object
   unleased.  Failure is unreachable in a synchronous handler (validation
   already rejected foreign leases), but stays defensive: the locks taken
   are rolled back newest first, round-guarded, since this may run for a
   reordered stale request whose re-grants renewed a newer round's locks —
   those must survive. *)
let rec lock_all t batch ~txn ~round ~expires = function
  | [] -> true
  | oid :: rest ->
    let store = t.store in
    if not (Store.Replica.mem store oid) then lock_all t batch ~txn ~round ~expires rest
    else begin
      let prev_owner = handover_from t batch ~txn oid in
      (if prev_owner >= 0 then
         Store.Replica.handover ~expires ~round store ~oid ~prev_owner ~txn
       else Store.Replica.try_lock ~expires ~round store ~oid ~txn)
      && (lock_all t batch ~txn ~round ~expires rest
         || (Store.Replica.unlock ~round store ~oid ~txn;
             false))
    end

let rec all_hosted store = function
  | [] -> true
  | oid :: rest -> Store.Replica.mem store oid && all_hosted store rest

(* One transaction's vote: validate its rows [lo, hi) of [dataset], then
   lock the hosted objects of its write set [locks].  The request is
   heartbeat traffic for [txn] first.  Invalid entries leave no trace: they
   touch neither overlay nor locks, so a batch successor validates against
   the store exactly as if the entry had never been queued — mirroring the
   coordinator, which aborts them without applying.  Only batch entries
   count as validations. *)
let vote t batch ~txn ~round ~expires ~(dataset : Messages.dataset) ~lo ~hi ~locks
    ~peers =
  let store = t.store in
  if leases_on t then Store.Replica.renew store ~txn ~expires;
  let counted = Option.is_some batch in
  if counted then t.validations_run <- t.validations_run + 1;
  let verdict =
    if not (rows_valid t batch ~txn dataset lo hi) then begin
      if counted then t.validations_failed <- t.validations_failed + 1;
      if lock_conflict t batch ~txn dataset lo hi then Conflict else Stale
    end
    else if lock_all t batch ~txn ~round ~expires locks then begin
      (* The watcher keeps its list alive as long as the lease: reuse the
         request's own list when every object is hosted here (always, for
         a [Commit_req]: its locks are data-set rows, which validation
         found hosted) instead of a copy the GC would promote. *)
      let locked =
        if all_hosted store locks then locks
        else List.filter (Store.Replica.mem store) locks
      in
      if locked <> [] then begin
        (* Cross-shard 2PC: pin the other participant shards' quorum
           members so a termination round for these leases also asks them
           (the commit decision may only be evidenced over there). *)
        if peers <> [] then Store.Replica.set_status_peers store ~txn peers;
        watch_granted t ~txn ~oids:locked ~expires
      end;
      Commit
    end
    else Conflict
  in
  trace t ~kind:Obs.Sem.vote ~txn ~oid:(-1)
    ~a:(match verdict with Commit -> 1 | Stale | Conflict -> 0)
    ~b:(match verdict with Conflict -> 1 | Commit | Stale -> 0)
    ~x:0.;
  verdict

(* The three one-entry replies, built once: reply payloads are never
   mutated after sending (see Messages), so sharing them is safe across
   runs and domains, and a vote allocates no reply that the round would
   keep alive (and promote) until its last voter answers. *)
let one_vote commit conflict =
  Messages.Votes { commits = [| commit |]; conflicts = [| conflict |] }

let voted_commit = one_vote true false
let voted_stale = one_vote false false
let voted_conflict = one_vote false true

let handle_commit t ~txn ~dataset ~locks ~round ~peers =
  match
    vote t None ~txn ~round ~expires:(lease_expiry t) ~dataset ~lo:0
      ~hi:(Messages.dataset_len dataset) ~locks ~peers
  with
  | Commit -> voted_commit
  | Stale -> voted_stale
  | Conflict -> voted_conflict

(* Validate and lock a whole commit queue in one quorum round, in queue
   order; each entry validates against the overlay of the versions its
   locally-valid predecessors will install, so a chain of speculative
   transactions (each having read the previous one's uncommitted write
   image) votes commit in a single round trip.  Leases move down the
   chain: the predecessor's second phase stays safe — Apply installs
   version-guarded and its Release is round-guarded, so out-of-order
   arrivals compose. *)
let handle_batch_commit t ~(txns : Ids.txn_id array) ~(rounds : int array)
    ~(ds_offsets : int array) ~dataset ~(wr_offsets : int array)
    ~(writes : Messages.writes) ~decided =
  let n = Array.length txns in
  let commits = Array.make n false in
  let conflicts = Array.make n false in
  t.batch_gen <- t.batch_gen + 1;
  let batch = Some decided in
  let expires = lease_expiry t in
  for i = 0 to n - 1 do
    let txn = txns.(i) and wlo = wr_offsets.(i) and whi = wr_offsets.(i + 1) in
    let locks = ref [] in
    for r = whi - 1 downto wlo do
      locks := writes.wr_oids.(r) :: !locks
    done;
    match
      vote t batch ~txn ~round:rounds.(i) ~expires ~dataset ~lo:ds_offsets.(i)
        ~hi:ds_offsets.(i + 1) ~locks:!locks ~peers:[]
    with
    | Commit ->
      commits.(i) <- true;
      for r = whi - 1 downto wlo do
        let oid = writes.wr_oids.(r) in
        if Store.Replica.mem t.store oid then
          stamp t ~oid ~txn ~version:writes.wr_versions.(r)
      done
    | Conflict -> conflicts.(i) <- true
    | Stale -> ()
  done;
  Messages.Votes { commits; conflicts }

let handle_apply t ~txn ~(writes : Messages.writes) =
  let foreign = ref false in
  for i = 0 to Messages.writes_len writes - 1 do
    let oid = writes.wr_oids.(i) in
    if Store.Replica.mem t.store oid then
      Store.Replica.write t.store ~oid ~version:writes.wr_versions.(i)
        ~value:writes.wr_values.(i) ~txn
    else foreign := true
  done;
  (* Even a write-free Apply (all writes unknown here) is commit evidence.
     A row for an object not hosted here means this is a cross-shard Apply
     carrying the full write set: keep the rows so a status query from
     another participant shard's lease holder gets the foreign write it
     must adopt to rescue the commit. *)
  Store.Replica.note_applied t.store ~txn
    ~retain:(if !foreign then Messages.writes_entries writes else []);
  drop_xpeers_if_done t ~txn

(* [~round] makes [unlock] ignore a retransmitted Release from an
   abandoned commit round that arrives after a later round of [txn]
   re-locked here: the newer round's lock must survive. *)
let handle_release t ~txn ~oids ~round =
  List.iter
    (fun oid ->
      if Store.Replica.mem t.store oid then Store.Replica.unlock ~round t.store ~oid ~txn)
    oids;
  drop_xpeers_if_done t ~txn

let handle_status t ~txn ~oids =
  Messages.Status_rep
    {
      committed = Store.Replica.was_applied t.store ~txn;
      objects =
        List.filter_map
          (fun oid ->
            match Store.Replica.find t.store oid with
            | Some copy -> Some (oid, copy.Store.Replica.version, copy.Store.Replica.value)
            | None ->
              (* Cross-shard status query: not hosted here, but a retained
                 cross-shard Apply may carry the row the asker must adopt. *)
              List.find_opt
                (fun (o, _, _) -> o = oid)
                (Store.Replica.retained_writes t.store ~txn))
          oids;
    }

(* Reconfiguration re-replication: merge the pushed snapshot version-guarded
   ([sync_copy] installs unknown objects and adopts strictly newer copies),
   so duplicates from at-least-once delivery are harmless. *)
let handle_handoff t ~objects =
  List.iter
    (fun (oid, version, value) -> Store.Replica.sync_copy t.store ~oid ~version ~value)
    objects

let handle t ~src:_ request =
  (* Any traffic from a transaction is a heartbeat for the leases it holds
     here: a slow-but-alive coordinator keeps its locks.  Matched in place,
     so a renewal allocates neither an option nor a closure. *)
  if leases_on t then begin
    match request with
    | Messages.Read_req { txn; _ } | Messages.Apply { txn; _ } | Messages.Release { txn; _ }
      ->
      Store.Replica.renew t.store ~txn ~expires:(lease_expiry t)
    | Messages.Sync_req | Messages.Status_req _ | Messages.Handoff _ -> ()
    (* a commit vote renews per entry, inside [vote] *)
    | Messages.Commit_req _ | Messages.Batch_commit_req _ -> ()
  end;
  match request with
  | Messages.Read_req { txn; oid; dataset; _ } -> handle_read t ~txn ~oid ~dataset
  | Messages.Commit_req { txn; dataset; locks; round; peers } ->
    Some (handle_commit t ~txn ~dataset ~locks ~round ~peers)
  | Messages.Apply { txn; writes } ->
    trace t ~kind:Obs.Sem.apply ~txn ~oid:(-1) ~a:(Messages.writes_len writes)
      ~b:(-1) ~x:0.;
    handle_apply t ~txn ~writes;
    (* Acked so the coordinator can retransmit over lossy links; Apply is
       idempotent (version-guarded), so duplicates are harmless. *)
    Some Messages.Ack
  | Messages.Release { txn; oids; round } ->
    trace t ~kind:Obs.Sem.release ~txn ~oid:(-1) ~a:(List.length oids) ~b:round
      ~x:0.;
    handle_release t ~txn ~oids ~round;
    Some Messages.Ack
  | Messages.Sync_req -> Some (Messages.Sync_rep { objects = Store.Replica.dump t.store })
  | Messages.Status_req { txn; oids } -> Some (handle_status t ~txn ~oids)
  | Messages.Handoff { objects } ->
    handle_handoff t ~objects;
    (* Acked so the reconfiguration orchestrator can retransmit over lossy
       links; the merge is idempotent. *)
    Some Messages.Ack
  | Messages.Batch_commit_req
      { txns; rounds; ds_offsets; dataset; wr_offsets; writes; decided } ->
    Some
      (handle_batch_commit t ~txns ~rounds ~ds_offsets ~dataset ~wr_offsets
         ~writes ~decided)
