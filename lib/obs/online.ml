(* The streaming protocol checker: the offline rules of PR 4, re-hosted as
   per-transaction state machines that consume the event firehose one event
   at a time and retire their state when the transaction ends.  Memory is
   O(in-flight transactions) plus a few bounded side tables, not O(trace) —
   so the checker can ride a {!Tracer} sink through arbitrarily long runs
   while the ring evicts freely behind it.

   The offline [replay] feeds a whole event list through the same engine
   and finishes, so online and offline verdicts agree by construction; the
   equivalence tests in test/test_online.ml pin the two feeding paths
   (sink-during-run vs ring-replay) against each other.

   Determinism: feeding draws no RNG and schedules no simulator events, so
   attaching a checker to a traced run keeps the run byte-identical. *)

type violation = { rule : string; time : float; txn : int; detail : string }

let pp_violation v =
  Printf.sprintf "[%s] t=%.3f txn=%d: %s" v.rule v.time v.txn v.detail

exception Violation of violation

(* Voter flag bits, mirroring the executor's [vote.recv] encoding. *)
let commit_bit = 1

let intersects a b = List.exists (fun x -> List.mem x b) a

(* Everything the checker tracks about one in-flight transaction; the
   whole record is dropped at [txn.end]. *)
type txn_state = {
  (* commit-quorum: one round per shard — (shard, send epoch, votes as
     (voter, flags, arrival epoch)), most recent round first. *)
  mutable rounds : (int * int * (int * int * int) list ref) list;
  mutable xparts : int list; (* participant shards prepared *)
  mutable batch_entry : (int * int) option; (* (batch id, queue position) *)
  mutable spec_deps : int list; (* undecided predecessors read from *)
  mutable wits : (int * int) list; (* flagged (witness, home shard) *)
  mutable group : (float * int * int list ref * int list) option;
      (* open read fan-out: (time, oid, dsts, flagged-at-open) *)
  mutable unwind : int option; (* pending partial-abort target *)
}

let fresh_txn_state () =
  {
    rounds = [];
    xparts = [];
    batch_entry = None;
    spec_deps = [];
    wits = [];
    group = None;
    unwind = None;
  }

(* The [txns] table's filler and "absent" answer: never mutated, told
   apart by physical equality. *)
let no_state = fresh_txn_state ()

(* Distinct committed voter sets per (shard, epoch) — the pairwise-
   intersection fallback needs every *distinct* quorum that committed in a
   view, not every commit, so identical voter sets collapse to one
   representative (first committing txn) with no loss of verdicts. *)
type quorum_log = { mutable count : int; mutable sets : (int list * int) list }

type t = {
  is_write_quorum : (int list -> bool) option;
  fail_fast : bool;
  on_violation : (violation -> unit) option;
  mutable violations : violation list; (* newest first *)
  mutable n_violations : int;
  mutable events_seen : int;
  (* current view epoch per shard (view.change; x names the shard). *)
  shard_epochs : int Util.Int_table.t;
  txns : txn_state Util.Int_table.t;
  mutable peak_tracked : int;
  (* lease-overlap: (replica, oid) -> owning txn; retired on release. *)
  leases : (int * int, int) Hashtbl.t;
  (* (shard, epoch) -> distinct committed voter sets, newest first. *)
  committed : (int * int, quorum_log) Hashtbl.t;
  quorums_cap : int; (* distinct sets retained per (shard, epoch) *)
  (* The side tables that outlive a transaction are consulted only within
     a bounded horizon — a rescue references a lease-recent transaction, a
     batch dependency a queue-recent one — so generous FIFO windows keep
     verdicts exact in practice while pinning memory. *)
  evidence : unit Util.Window.t; (* txns with commit evidence *)
  xcommitted : unit Util.Window.t; (* cross-shard commits decided *)
  batch_outcome : bool Util.Window.t; (* txn -> committed in its batch? *)
  last_decided : (int * int) Util.Window.t; (* batch -> (position, txn) *)
  (* tombstones: txns already retired at [txn.end].  Stragglers — late
     quorum votes, duplicated messages — would otherwise resurrect a state
     record that nothing ever retires again; a tombstoned txn gets a
     throwaway state instead. *)
  ended : unit Util.Window.t;
}

let create ?is_write_quorum ?(fail_fast = false) ?on_violation
    ?(horizon = 1 lsl 16) () =
  if horizon <= 0 then invalid_arg "Online.create: horizon must be positive";
  {
    is_write_quorum;
    fail_fast;
    on_violation;
    violations = [];
    n_violations = 0;
    events_seen = 0;
    shard_epochs = Util.Int_table.create ~dummy:0;
    txns = Util.Int_table.create ~dummy:no_state;
    peak_tracked = 0;
    leases = Hashtbl.create 64;
    committed = Hashtbl.create 8;
    quorums_cap = 4096;
    evidence = Util.Window.create ~cap:horizon ~dummy:();
    xcommitted = Util.Window.create ~cap:horizon ~dummy:();
    batch_outcome = Util.Window.create ~cap:horizon ~dummy:false;
    last_decided = Util.Window.create ~cap:(max 1 (horizon / 16)) ~dummy:(0, 0);
    ended = Util.Window.create ~cap:horizon ~dummy:();
  }

let report t rule time txn detail =
  let v = { rule; time; txn; detail } in
  t.violations <- v :: t.violations;
  t.n_violations <- t.n_violations + 1;
  (match t.on_violation with None -> () | Some f -> f v);
  if t.fail_fast then raise (Violation v)

let cur_epoch_of t shard = Util.Int_table.find_or t.shard_epochs shard ~default:0

(* The tracked state of [txn], or [no_state]. *)
let tracked t txn = Util.Int_table.find_or t.txns txn ~default:no_state

let state_of t txn =
  let st = tracked t txn in
  if st != no_state then st
  else begin
    let st = fresh_txn_state () in
    (* A straggler for an ended txn (a late vote after the commit decided)
       gets a throwaway record: re-inserting would leak state that no
       [txn.end] will ever retire again. *)
    if not (Util.Window.mem t.ended txn) then begin
      Util.Int_table.replace t.txns txn st;
      let n = Util.Int_table.length t.txns in
      if n > t.peak_tracked then t.peak_tracked <- n
    end;
    st
  end

let close_group t txn =
  let st = tracked t txn in
  if st != no_state then (
    match st.group with
    | None -> ()
    | Some (time, oid, dsts, flagged) ->
      st.group <- None;
      let missing = List.filter (fun w -> not (List.mem w !dsts)) flagged in
      if missing <> [] then
        report t "widen-read" time txn
          (Printf.sprintf
             "read of oid %d fanned out to [%s] but misses flagged witness(es) [%s]"
             oid
             (String.concat ";" (List.map string_of_int !dsts))
             (String.concat ";" (List.map string_of_int missing))))

let check_commit t st ~time ~txn =
  let txn_rounds = List.rev st.rounds (* prepare order: ascending shard *) in
  List.iter
    (fun (shard, send_epoch, votes) ->
      let round = List.rev !votes in
      let voters =
        List.sort Int.compare (List.map (fun (v, _, _) -> v) round)
      in
      let dissent =
        List.filter (fun (_, f, _) -> f land commit_bit = 0) round
      in
      if dissent <> [] then
        report t "commit-quorum" time txn
          (Printf.sprintf "committed despite %d non-commit vote(s) from [%s]"
             (List.length dissent)
             (String.concat ";"
                (List.map (fun (v, _, _) -> string_of_int v) dissent)));
      (* epoch-fencing: all the evidence behind a commit must come from one
         membership view per shard — the view that shard's round was sent
         under, still in force when the commit is decided. *)
      let stale = List.filter (fun (_, _, ep) -> ep <> send_epoch) round in
      if stale <> [] then
        report t "epoch-fencing" time txn
          (Printf.sprintf
             "commit uses evidence from two incompatible views: round sent \
              in epoch %d but vote(s) from [%s] arrived in other epochs"
             send_epoch
             (String.concat ";"
                (List.map (fun (v, _, _) -> string_of_int v) stale)))
      else if send_epoch <> cur_epoch_of t shard then
        report t "epoch-fencing" time txn
          (Printf.sprintf
             "commit decided in epoch %d over a round sent in epoch %d"
             (cur_epoch_of t shard) send_epoch);
      (match t.is_write_quorum with
      | Some valid when List.length txn_rounds <= 1 ->
        if not (valid voters) then
          report t "commit-quorum" time txn
            (Printf.sprintf "voter set [%s] is not a valid write quorum"
               (String.concat ";" (List.map string_of_int voters)))
      | Some _ | None ->
        (* Pairwise fallback, scoped to the same shard and view:
           intersection is only guaranteed there. *)
        let log =
          match Hashtbl.find_opt t.committed (shard, send_epoch) with
          | Some log -> log
          | None ->
            let log = { count = 0; sets = [] } in
            Hashtbl.replace t.committed (shard, send_epoch) log;
            log
        in
        List.iter
          (fun (other_set, other_txn) ->
            if not (intersects voters other_set) then
              report t "commit-quorum" time txn
                (Printf.sprintf
                   "voter set [%s] does not intersect txn %d's write quorum"
                   (String.concat ";" (List.map string_of_int voters))
                   other_txn))
          log.sets;
        if not (List.exists (fun (s, _) -> s = voters) log.sets) then begin
          log.sets <- (voters, txn) :: log.sets;
          log.count <- log.count + 1;
          if log.count > t.quorums_cap then begin
            (* Drop the oldest distinct quorum of this view; a view sees
               at most a handful of distinct quorums in practice. *)
            log.sets <- List.filteri (fun i _ -> i < t.quorums_cap) log.sets;
            log.count <- t.quorums_cap
          end
        end))
    txn_rounds

let feed8 t ~time ~kind:k ~node ~txn ~oid ~a ~b ~x =
  t.events_seen <- t.events_seen + 1;
  (* A transaction event other than read.send ends any open fan-out. *)
  if txn >= 0 && k <> Sem.read_send then close_group t txn;

  if k = Sem.view_change then
    Util.Int_table.replace t.shard_epochs (int_of_float x) a
  else if k = Sem.commit_send then begin
    let shard = int_of_float x in
    let st = state_of t txn in
    (* A fresh commit.send for a shard supersedes that shard's previous
       round (retries); rounds for other shards accumulate (cross-shard
       2PC prepares each participant shard in turn). *)
    st.rounds <-
      (shard, cur_epoch_of t shard, ref [])
      :: List.filter (fun (s, _, _) -> s <> shard) st.rounds
  end
  else if k = Sem.vote_recv then begin
    let st = state_of t txn in
    match st.rounds with
    | (shard, _, votes) :: _ -> votes := (a, b, cur_epoch_of t shard) :: !votes
    | [] -> st.rounds <- [ (0, 0, ref [ (a, b, cur_epoch_of t 0) ]) ]
  end
  else if k = Sem.txn_commit && b <> 1 then begin
    (let st = tracked t txn in
     check_commit t (if st != no_state then st else fresh_txn_state ()) ~time ~txn);
    Util.Window.replace t.evidence txn ()
  end
  else if k = Sem.txn_commit then Util.Window.replace t.evidence txn ()
  else if k = Sem.xshard_prepare then begin
    let st = state_of t txn in
    if not (List.mem a st.xparts) then st.xparts <- a :: st.xparts
  end
  else if k = Sem.xshard_decide then begin
    if a = 1 then begin
      Util.Window.replace t.xcommitted txn ();
      (* A committed cross-shard transaction must have run a prepare round
         on every participant shard — a decision taken without some
         participant's vote quorum is exactly the atomicity bug 2PC exists
         to prevent. *)
      let prepared = List.length (tracked t txn).xparts in
      if prepared <> b then
        report t "cross-shard-atomicity" time txn
          (Printf.sprintf
             "committed across %d shards but the trace shows prepare rounds \
              on only %d" b prepared)
    end
  end
  else if k = Sem.presumed_abort then begin
    (* Once the coordinator decided commit, no participant replica may walk
       the decision back: the termination protocol must surface rescue
       evidence before the lease is presumed dead. *)
    if Util.Window.mem t.xcommitted txn then
      report t "cross-shard-atomicity" time txn
        (Printf.sprintf
           "node %d presumed abort after the cross-shard commit was decided \
            — rescue evidence failed to propagate" node)
  end
  else if k = Sem.lease_grant then begin
    let key = (node, oid) in
    (match Hashtbl.find_opt t.leases key with
    | Some owner when owner <> txn ->
      report t "lease-overlap" time txn
        (Printf.sprintf
           "granted write lease on oid %d at node %d while txn %d still holds it"
           oid node owner)
    | _ -> ());
    Hashtbl.replace t.leases key txn
  end
  else if k = Sem.lease_release then begin
    let key = (node, oid) in
    match Hashtbl.find_opt t.leases key with
    | Some owner when owner = txn || txn < 0 -> Hashtbl.remove t.leases key
    | _ -> ()
  end
  else if k = Sem.batch_entry then (state_of t txn).batch_entry <- Some (a, b)
  else if k = Sem.spec_read then begin
    (* b = 1 marks an undecided predecessor: a true speculative
       dependency.  b = 0 images are already-committed state. *)
    if b = 1 then begin
      let st = state_of t txn in
      if not (List.mem a st.spec_deps) then st.spec_deps <- a :: st.spec_deps
    end
  end
  else if k = Sem.batch_decide then begin
    let st = state_of t txn in
    (* (a) within one batch, entries decide in strictly increasing queue
       order — decide order IS version-install order, so a regression
       would apply versions against queue order. *)
    (match st.batch_entry with
    | Some (batch, pos) when batch = a ->
      (match Util.Window.find_opt t.last_decided batch with
      | Some (last, other) when pos <= last ->
        report t "batch-order" time txn
          (Printf.sprintf
             "batch %d decided queue position %d after position %d (txn \
              %d): applied versions would not respect queue order"
             batch pos last other)
      | Some _ | None -> ());
      Util.Window.replace t.last_decided batch (pos, txn)
    | Some (batch, _) ->
      report t "batch-order" time txn
        (Printf.sprintf "decided in batch %d but last cut into batch %d" a
           batch)
    | None ->
      report t "batch-order" time txn
        (Printf.sprintf "decided in batch %d without a batch.entry" a));
    Util.Window.replace t.batch_outcome txn (b = 1);
    (* (b) a speculative txn never commits in a round its predecessor
       aborted in (or before the predecessor is decided at all). *)
    if b = 1 then
      List.iter
        (fun w ->
          match Util.Window.find_opt t.batch_outcome w with
          | Some true -> ()
          | Some false ->
            report t "batch-order" time txn
              (Printf.sprintf
                 "speculative txn committed though predecessor %d it read \
                  from aborted" w)
          | None ->
            report t "batch-order" time txn
              (Printf.sprintf
                 "speculative txn committed before predecessor %d it read \
                  from was decided" w))
        st.spec_deps
  end
  else if k = Sem.txn_partial_abort then begin
    let st = state_of t txn in
    (* A partial abort may roll speculative reads back with the scope; the
       surviving dependency set is not reconstructible from the trace, so
       drop the txn's deps (conservative: misses violations, never
       fabricates one — re-executed reads re-record theirs). *)
    st.spec_deps <- [];
    (match st.unwind with
    | Some target ->
      report t "partial-abort-scope" time txn
        (Printf.sprintf "partial abort to %d while unwind to %d never resumed"
           a target)
    | None -> ());
    st.unwind <- Some a
  end
  else if k = Sem.scope_resume then begin
    let st = state_of t txn in
    match st.unwind with
    | Some target ->
      st.unwind <- None;
      if a <> target then
        report t "partial-abort-scope" time txn
          (Printf.sprintf "partial abort targeted %d but resumed at %d" target
             a)
    | None ->
      report t "partial-abort-scope" time txn
        (Printf.sprintf "scope resume at %d without a pending partial abort" a)
  end
  else if k = Sem.txn_root_abort then begin
    (* Root abort is the legal fallback when the unwind target is gone,
       and the end of this attempt's txn id: retries re-run under a fresh
       id ([start_attempt] draws one per attempt), so the whole state
       machine retires here just as at [txn.end] — most chaos-run ids die
       this way and would otherwise accumulate for the rest of the run. *)
    Util.Int_table.remove t.txns txn;
    Util.Window.replace t.ended txn ()
  end
  else if k = Sem.txn_end then begin
    (* The transaction is over: retire its whole state machine.  This is
       the bound that keeps checker memory O(in-flight transactions). *)
    Util.Int_table.remove t.txns txn;
    Util.Window.replace t.ended txn ()
  end
  else if k = Sem.apply then Util.Window.replace t.evidence txn ()
  else if k = Sem.rescue then begin
    (* b = 1 marks version-advance evidence: the leased copy moved past the
       protected version, which a *different* transaction's commit can
       cause across membership views — no per-txn apply is implied. *)
    if b <> 1 && not (Util.Window.mem t.evidence txn) then
      report t "rescue-evidence" time txn
        "rescued to commit without prior commit evidence (no apply or \
         coordinator commit in trace)"
  end
  else if k = Sem.widen_add then begin
    let st = state_of t txn in
    if not (List.mem_assoc a st.wits) then st.wits <- (a, b) :: st.wits
  end
  else if k = Sem.widen_drop then begin
    let st = tracked t txn in
    if st != no_state then st.wits <- List.filter (fun (w, _) -> w <> a) st.wits
  end
  else if k = Sem.view_rehome then
    (* A split moved [node] to shard [a]: as a witness it now obliges
       reads of [a] only, which is where [remote_fetch] sends it. *)
    Util.Int_table.iter
      (fun _ st ->
        st.wits <- List.map (fun (w, ws) -> if w = node then (w, a) else (w, ws)) st.wits)
      t.txns
  else if k = Sem.read_send then begin
    let st = state_of t txn in
    match st.group with
    | Some (time', oid', dsts, _) when time' = time && oid' = oid ->
      dsts := a :: !dsts
    | _ ->
      close_group t txn;
      (* Witnesses oblige only reads of their own shard (`widen.add`'s [b]
         slot records the witness's shard, `read.send`'s the read's; [-1]
         — traces from before sharding — matches every read). *)
      let flagged =
        List.filter_map
          (fun (w, ws) -> if ws = -1 || b = -1 || ws = b then Some w else None)
          st.wits
      in
      st.group <- Some (time, oid, ref [ a ], flagged)
  end

let feed t (e : Tracer.event) =
  feed8 t ~time:e.time ~kind:e.ekind ~node:e.node ~txn:e.txn ~oid:e.oid ~a:e.a
    ~b:e.b ~x:e.x

let attach t tracer =
  Tracer.set_sink tracer (fun ~time ~kind ~node ~txn ~oid ~a ~b ~x ->
      feed8 t ~time ~kind ~node ~txn ~oid ~a ~b ~x)

let flush t =
  (* End of stream: any still-open read fan-out is judged as-is, smallest
     txn id first (matching the offline checker's end-of-trace order). *)
  Util.Int_table.fold
    (fun txn st acc -> if st.group <> None then txn :: acc else acc)
    t.txns []
  |> List.sort Int.compare
  |> List.iter (close_group t)

let violations t = List.rev t.violations
let n_violations t = t.n_violations

let finish t =
  flush t;
  violations t

let replay ?is_write_quorum events =
  let t = create ?is_write_quorum () in
  List.iter (feed t) events;
  finish t

let tracked_txns t = Util.Int_table.length t.txns
let peak_tracked t = t.peak_tracked
let events_seen t = t.events_seen
