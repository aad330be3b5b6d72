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
  config : Config.t;
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

let handle_read t ~txn ~oid ~dataset ~write_intent ~record =
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
        if record then
          if write_intent then Store.Replica.add_writer t.store ~oid ~txn
          else Store.Replica.add_reader t.store ~oid ~txn;
        Some (Messages.Read_ok { oid; version = copy.version; value = copy.value })
    end

(* --- lease termination -------------------------------------------------- *)

let leases_on t = match t.termination with Some term -> term.config.Config.lease_duration > 0. | None -> false

let lease_expiry t =
  match t.termination with
  | Some term when term.config.Config.lease_duration > 0. ->
    Sim.Engine.now term.engine +. term.config.Config.lease_duration
  | Some _ | None -> Float.infinity

let still_held t ~txn oids =
  List.filter
    (fun oid ->
      Store.Replica.mem t.store oid
      && match Store.Replica.lease_of t.store oid with
         | Some lease -> lease.Store.Replica.owner = txn
         | None -> false)
    oids

let release_lease t ~txn ~oids =
  List.iter
    (fun oid ->
      Store.Replica.unlock t.store ~oid ~txn;
      Store.Replica.remove_txn t.store ~oid ~txn)
    oids

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
    | Messages.Read_ok _ | Messages.Read_abort _ | Messages.Vote _
    | Messages.Sync_rep _ | Messages.Ack | Messages.Batch_commit_rep _ ->
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
      | Messages.Read_ok _ | Messages.Read_abort _ | Messages.Vote _
      | Messages.Sync_rep _ | Messages.Ack | Messages.Batch_commit_rep _ ->
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
      Sim.Engine.schedule term.engine ~delay:term.config.Config.request_timeout
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
        ~timeout:term.config.Config.request_timeout
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
    let deadline = latest +. term.config.Config.status_grace in
    if Sim.Engine.now term.engine +. 1e-9 < deadline then
      Sim.Engine.schedule_at term.engine ~time:deadline (watch_lease t term ~txn ~oids:held)
    else begin
      Metrics.note_lease_expired term.metrics;
      (match held with
      | oid :: _ ->
        trace t ~kind:Obs.Sem.lease_expire ~txn ~oid ~a:(-1) ~b:(-1) ~x:latest
      | [] -> ());
      status_round t term ~txn ~oids:held ~attempts:term.config.Config.status_attempts
    end
  end

let watch_granted t ~txn ~oids ~expires =
  match t.termination with
  | Some term when leases_on t ->
    Sim.Engine.schedule_in term.engine term.watch_lane
      ~time:(expires +. term.config.Config.status_grace)
      (watch_lease t term ~txn ~oids)
  | Some _ | None -> ()

let enable_termination ?(node_alive = fun _ -> true) t ~engine ~watch_lane ~rpc
    ~status_peers ~metrics ~config =
  t.termination <-
    Some { engine; watch_lane; rpc; status_peers; node_alive; metrics; config };
  (* A lease restored from a batch handover may have outlived the watcher
     armed at its original grant (the watcher dies when [still_held] sees
     the successor as owner), so re-arm one: left unwatched, a restored
     lease would block readers forever — expiry is only enforced by the
     status protocol. *)
  Store.Replica.set_on_restore t.store (fun ~oid ~owner ~expires ->
      watch_granted t ~txn:owner ~oids:[ oid ] ~expires)

(* --- request handlers --------------------------------------------------- *)

let handle_commit t ~txn ~(dataset : Messages.dataset) ~locks ~round ~peers =
  let n = Messages.dataset_len dataset in
  let valid = ref true in
  let i = ref 0 in
  while !valid && !i < n do
    if
      not
        (Rqv.oid_valid t.store ~txn ~oid:dataset.ds_oids.(!i)
           ~version:dataset.ds_versions.(!i))
    then valid := false
    else incr i
  done;
  if not !valid then begin
    let lock_conflict = ref false in
    let j = ref 0 in
    while (not !lock_conflict) && !j < n do
      let oid = dataset.ds_oids.(!j) in
      if
        Store.Replica.mem t.store oid
        && Store.Replica.is_protected t.store ~oid ~against:txn
        && Store.Replica.version t.store oid <= dataset.ds_versions.(!j)
      then lock_conflict := true
      else incr j
    done;
    Some (Messages.Vote { commit = false; lock_conflict = !lock_conflict })
  end
  else begin
    (* Lock the write set.  All-or-nothing: locking can only fail if another
       transaction protected an object between the validation above and now,
       which cannot happen within one synchronous handler — but we stay
       defensive and roll back partial locks. *)
    let expires = lease_expiry t in
    let rec lock_all acquired = function
      | [] -> true
      | oid :: rest ->
        if Store.Replica.try_lock ~expires ~round t.store ~oid ~txn then
          lock_all (oid :: acquired) rest
        else begin
          (* Round-guarded: this roll-back may be running for a reordered
             stale Commit_req whose re-grants renewed a newer round's
             locks — those must survive. *)
          List.iter
            (fun o -> Store.Replica.unlock ~round t.store ~oid:o ~txn)
            acquired;
          false
        end
    in
    if lock_all [] locks then begin
      if locks <> [] then begin
        (* Cross-shard 2PC: pin the other participant shards' quorum
           members so a termination round for these leases also asks them
           (the commit decision may only be evidenced over there). *)
        if peers <> [] then Store.Replica.set_status_peers t.store ~txn peers;
        watch_granted t ~txn ~oids:locks ~expires
      end;
      Some (Messages.Vote { commit = true; lock_conflict = false })
    end
    else Some (Messages.Vote { commit = false; lock_conflict = true })
  end

(* --- batch commit (PROTOCOL.md §9) -------------------------------------- *)

(* Validate and lock a whole commit queue in one quorum round.  Entries are
   processed in queue order; each validates against an overlay of the
   versions its locally-valid predecessors will install, so a chain of
   speculative transactions (each having read the previous one's
   uncommitted write image) votes commit in a single round trip.  Leases
   move down the chain: when a locally-valid predecessor holds the
   in-batch lease on an object a later entry also writes, the grant is
   handed over to the successor (the predecessor's second phase stays
   safe — Apply installs version-guarded and its Release is round-guarded,
   so out-of-order arrivals compose).  Invalid entries leave no trace:
   they touch neither overlay nor locks, so their successors validate
   against the store exactly as if the entry had never been queued —
   mirroring the coordinator, which aborts them without applying. *)
let handle_batch_commit t ~(txns : Ids.txn_id array) ~(rounds : int array)
    ~(ds_offsets : int array) ~(dataset : Messages.dataset)
    ~(wr_offsets : int array) ~(writes : Messages.writes)
    ~(decided : Ids.txn_id array) =
  let n = Array.length txns in
  let commits = Array.make n false in
  let conflicts = Array.make n false in
  (* oid -> version the latest locally-valid predecessor installs *)
  let overlay : (Ids.obj_id, int) Hashtbl.t = Hashtbl.create 16 in
  (* oid -> batch entry currently holding the in-batch lease *)
  let chain : (Ids.obj_id, Ids.txn_id) Hashtbl.t = Hashtbl.create 16 in
  let decided_owner o = Array.exists (fun d -> d = o) decided in
  let expires = lease_expiry t in
  for i = 0 to n - 1 do
    let txn = txns.(i) in
    (* the batch is heartbeat traffic for every queued transaction *)
    if leases_on t then Store.Replica.renew t.store ~txn ~expires;
    t.validations_run <- t.validations_run + 1;
    (* In-batch leases are not conflicts: predecessors hand them over.
       Neither is a moribund lease of a [decided] transaction — but only
       when the reader's base version is strictly ahead of the version
       visible here ([row > visible]), i.e. it read past the decided write.
       At [row = visible] the reader saw the pre-commit value, and the
       lease must veto it exactly as in the vote-to-apply window of the
       sequential protocol. *)
    let lease_blocks oid ~row ~visible =
      match Store.Replica.lease_of t.store oid with
      | Some lease ->
        let owner = lease.Store.Replica.owner in
        owner <> txn
        && (match Hashtbl.find_opt chain oid with
           | Some holder -> owner <> holder
           | None -> true)
        && not (decided_owner owner && row > visible)
      | None -> false
    in
    let visible oid =
      match Hashtbl.find_opt overlay oid with
      | Some v -> Some v
      | None ->
        if Store.Replica.mem t.store oid then
          Some (Store.Replica.version t.store oid)
        else None
    in
    let valid = ref true in
    let lo = ds_offsets.(i) and hi = ds_offsets.(i + 1) in
    let r = ref lo in
    while !valid && !r < hi do
      let oid = dataset.ds_oids.(!r) in
      let row = dataset.ds_versions.(!r) in
      (match visible oid with
      | None -> valid := false
      | Some v -> if row < v || lease_blocks oid ~row ~visible:v then valid := false);
      if !valid then incr r
    done;
    if not !valid then begin
      t.validations_failed <- t.validations_failed + 1;
      (* Mirror handle_commit's conflict probe: a foreign lease on a
         not-yet-superseded read is retryable; staleness is hopeless. *)
      let j = ref lo in
      while (not conflicts.(i)) && !j < hi do
        let oid = dataset.ds_oids.(!j) in
        let row = dataset.ds_versions.(!j) in
        (match visible oid with
        | Some v when v <= row && lease_blocks oid ~row ~visible:v ->
          conflicts.(i) <- true
        | Some _ | None -> ());
        incr j
      done
    end
    else begin
      let wlo = wr_offsets.(i) and whi = wr_offsets.(i + 1) in
      let rec lock_all acquired r =
        if r >= whi then true
        else begin
          let oid = writes.wr_oids.(r) in
          if not (Store.Replica.mem t.store oid) then lock_all acquired (r + 1)
          else begin
            (* Hand the lease down the chain — from the in-batch
               predecessor, or from a [decided] owner whose Apply (which
               would release it) is still in flight.  The write base was
               validated above, and a base read past a decided write has
               [row > visible], so the override already vetted this.  The
               displaced lease is kept ([Replica.handover]): it may be the
               only protection for a committed write whose Apply was lost,
               and releasing the successor (speculation abort, requeue)
               must restore it, not strand the object unleased. *)
            let prev_owner =
              match Store.Replica.lease_of t.store oid with
              | Some lease ->
                let owner = lease.Store.Replica.owner in
                if
                  owner <> txn
                  && ((match Hashtbl.find_opt chain oid with
                      | Some holder -> owner = holder
                      | None -> false)
                     || decided_owner owner)
                then Some owner
                else None
              | None -> None
            in
            let locked =
              match prev_owner with
              | Some prev_owner ->
                Store.Replica.handover ~expires ~round:rounds.(i) t.store ~oid
                  ~prev_owner ~txn
              | None ->
                Store.Replica.try_lock ~expires ~round:rounds.(i) t.store ~oid ~txn
            in
            if locked then lock_all (oid :: acquired) (r + 1)
            else begin
              (* Unreachable in a synchronous handler (validation already
                 rejected foreign leases); stay defensive like
                 handle_commit and roll back round-guarded. *)
              List.iter
                (fun o -> Store.Replica.unlock ~round:rounds.(i) t.store ~oid:o ~txn)
                acquired;
              false
            end
          end
        end
      in
      if lock_all [] wlo then begin
        let locked = ref [] in
        for r = whi - 1 downto wlo do
          let oid = writes.wr_oids.(r) in
          if Store.Replica.mem t.store oid then begin
            Hashtbl.replace chain oid txn;
            Hashtbl.replace overlay oid writes.wr_versions.(r);
            locked := oid :: !locked
          end
        done;
        if !locked <> [] then watch_granted t ~txn ~oids:!locked ~expires;
        commits.(i) <- true
      end
      else conflicts.(i) <- true
    end;
    trace t ~kind:Obs.Sem.vote ~txn ~oid:(-1)
      ~a:(if commits.(i) then 1 else 0)
      ~b:(if conflicts.(i) then 1 else 0)
      ~x:0.
  done;
  Messages.Batch_commit_rep { commits; conflicts }

let trace_vote t ~txn reply =
  (match reply with
  | Some (Messages.Vote { commit; lock_conflict }) ->
    trace t ~kind:Obs.Sem.vote ~txn ~oid:(-1)
      ~a:(if commit then 1 else 0)
      ~b:(if lock_conflict then 1 else 0)
      ~x:0.
  | _ -> ());
  reply

let handle_apply t ~txn ~(writes : Messages.writes) ~reads =
  let foreign = ref false in
  for i = 0 to Messages.writes_len writes - 1 do
    let oid = writes.wr_oids.(i) in
    if Store.Replica.mem t.store oid then begin
      Store.Replica.apply t.store ~oid ~version:writes.wr_versions.(i)
        ~value:writes.wr_values.(i) ~txn;
      Store.Replica.remove_txn t.store ~oid ~txn
    end
    else foreign := true
  done;
  (* A row for an object not hosted here means this is a cross-shard
     Apply carrying the full write set: keep the rows so a status query
     from another participant shard's lease holder gets the foreign write
     it must adopt to rescue the commit. *)
  if !foreign then
    Store.Replica.retain_writes t.store ~txn (Messages.writes_entries writes);
  (* Even a write-free Apply (all writes unknown here) is commit evidence. *)
  Store.Replica.note_applied t.store ~txn;
  Array.iter
    (fun oid -> if Store.Replica.mem t.store oid then Store.Replica.remove_txn t.store ~oid ~txn)
    reads;
  drop_xpeers_if_done t ~txn

let handle_release t ~txn ~oids ~round =
  List.iter
    (fun oid ->
      if Store.Replica.mem t.store oid then begin
        let stale =
          (* A retransmitted Release from an abandoned commit round,
             arriving after a later round of [txn] re-locked here: the
             newer round's lock (and its PR/PW bookkeeping) must survive. *)
          match Store.Replica.lease_of t.store oid with
          | Some lease ->
            lease.Store.Replica.owner = txn && round < lease.Store.Replica.round
          | None -> false
        in
        if not stale then begin
          Store.Replica.unlock ~round t.store ~oid ~txn;
          Store.Replica.remove_txn t.store ~oid ~txn
        end
      end)
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

let request_txn = function
  | Messages.Read_req { txn; _ } -> Some txn
  | Messages.Commit_req { txn; _ } -> Some txn
  | Messages.Apply { txn; _ } -> Some txn
  | Messages.Release { txn; _ } -> Some txn
  | Messages.Sync_req | Messages.Status_req _ | Messages.Handoff _ -> None
  (* per-entry renewal happens inside handle_batch_commit *)
  | Messages.Batch_commit_req _ -> None

let handle t ~src:_ request =
  (* Any traffic from a transaction is a heartbeat for the leases it holds
     here: a slow-but-alive coordinator keeps its locks. *)
  if leases_on t then
    Option.iter
      (fun txn -> Store.Replica.renew t.store ~txn ~expires:(lease_expiry t))
      (request_txn request);
  match request with
  | Messages.Read_req { txn; oid; dataset; write_intent; record } ->
    handle_read t ~txn ~oid ~dataset ~write_intent ~record
  | Messages.Commit_req { txn; dataset; locks; round; peers } ->
    trace_vote t ~txn (handle_commit t ~txn ~dataset ~locks ~round ~peers)
  | Messages.Apply { txn; writes; reads } ->
    trace t ~kind:Obs.Sem.apply ~txn ~oid:(-1) ~a:(Messages.writes_len writes)
      ~b:(-1) ~x:0.;
    handle_apply t ~txn ~writes ~reads;
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
