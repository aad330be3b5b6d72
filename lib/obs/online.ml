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

   Cost: the checker rides every traced fault run, so feeding is held to
   the hot path's standard.  An event's kind indexes a rule table built
   once from [Sem]; the tables are keyed by ints, never hashed
   polymorphically; and per-transaction records, with every buffer they
   own, are recycled when their transaction retires, so steady-state
   feeding allocates nothing until a rule reports.

   Determinism: feeding draws no RNG and schedules no simulator events, so
   attaching a checker to a traced run keeps the run byte-identical. *)

type violation = { rule : string; time : float; txn : int; detail : string }

let pp_violation v =
  Printf.sprintf "[%s] t=%.3f txn=%d: %s" v.rule v.time v.txn v.detail

exception Violation of violation

(* Voter flag bits, mirroring the executor's [vote.recv] encoding. *)
let commit_bit = 1

let ints_to_string l = String.concat ";" (List.map string_of_int l)

(* A growable int buffer.  The records that own one are recycled, so a
   buffer grows to the largest use it sees and then stops allocating. *)
type ints = { mutable data : int array; mutable len : int }

let ints () = { data = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let data = Array.make (max 4 (2 * v.len)) 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

(* Hot helpers are top-level recursions, not local closures (without
   flambda a closure over its free variables is allocated at each call),
   and typed [int] so that [=] is not the polymorphic compare. *)
let rec mem_from (data : int array) (x : int) i n =
  i < n && (Array.unsafe_get data i = x || mem_from data x (i + 1) n)

let ints_mem v x = mem_from v.data x 0 v.len

(* A FIFO set of the [cap] ints added last.  Transaction ids come from a
   counter, so the members crowd into runs of consecutive ids: membership
   is one bit per id in 32-id words, keyed by [id asr 5], so a window of
   65536 ids costs a few thousand table slots instead of a table of 2^17.
   Insertion order, for eviction, is a byte ring of the differences
   between consecutive ids, zigzag varint coded: a byte or two per id
   instead of a word. *)
type recent = {
  cap : int;
  words : int Util.Int_table.t;
  mutable size : int; (* members *)
  mutable ring : Bytes.t; (* a power of two long *)
  mutable head : int; (* first byte of the oldest member's difference *)
  mutable used : int; (* bytes in the ring *)
  mutable newest : int; (* the last id added *)
  mutable evicted : int; (* the id the oldest member's difference is from *)
}

let recent ~cap =
  {
    cap;
    words = Util.Int_table.create ~dummy:0;
    size = 0;
    ring = Bytes.empty;
    head = 0;
    used = 0;
    newest = 0;
    evicted = 0;
  }

let recent_mem r id =
  Util.Int_table.find_or r.words (id asr 5) ~default:0 land (1 lsl (id land 31))
  <> 0

let set_bit r id on =
  let block = id asr 5 and bit = 1 lsl (id land 31) in
  let w = Util.Int_table.find_or r.words block ~default:0 in
  let w = if on then w lor bit else w land lnot bit in
  if w = 0 then Util.Int_table.remove r.words block else Util.Int_table.replace r.words block w

let rec put_varint r z =
  let b = z land 127 and rest = z lsr 7 in
  let mask = Bytes.length r.ring - 1 in
  Bytes.unsafe_set r.ring ((r.head + r.used) land mask)
    (Char.unsafe_chr (if rest = 0 then b else b lor 128));
  r.used <- r.used + 1;
  if rest <> 0 then put_varint r rest

let rec take_varint r z shift =
  let b = Char.code (Bytes.unsafe_get r.ring r.head) in
  r.head <- (r.head + 1) land (Bytes.length r.ring - 1);
  r.used <- r.used - 1;
  let z = z lor ((b land 127) lsl shift) in
  if b < 128 then z else take_varint r z (shift + 7)

(* Room for one more difference (at most 9 bytes), growing by doubling. *)
let reserve r =
  let len = Bytes.length r.ring in
  if r.used + 9 > len then begin
    let ring = Bytes.create (max 64 (2 * len)) in
    for i = 0 to r.used - 1 do
      Bytes.unsafe_set ring i (Bytes.unsafe_get r.ring ((r.head + i) land (len - 1)))
    done;
    r.ring <- ring;
    r.head <- 0
  end

(* Add [id] as the newest member, evicting the oldest when full; a member
   keeps its place. *)
let recent_add r id =
  if not (recent_mem r id) then begin
    if r.size = r.cap then begin
      let z = take_varint r 0 0 in
      let oldest = r.evicted + ((z lsr 1) lxor -(z land 1)) in
      r.evicted <- oldest;
      r.size <- r.size - 1;
      set_bit r oldest false
    end;
    reserve r;
    let d = id - r.newest in
    put_varint r ((d lsl 1) lxor (d asr (Sys.int_size - 1)));
    r.newest <- id;
    r.size <- r.size + 1;
    set_bit r id true
  end

(* One shard's commit round: the epoch it was sent in, and its votes as
   (voter, flags, arrival epoch) triples in arrival order. *)
type round = { mutable shard : int; mutable send_epoch : int; votes : ints }

(* Everything the checker tracks about one in-flight transaction.  A
   retired record is reset and reused for a later transaction. *)
type txn_state = {
  (* commit-quorum: one round per shard, oldest first in [0, n_rounds);
     the records after [n_rounds] are spares. *)
  mutable rounds : round array;
  mutable n_rounds : int;
  xparts : ints; (* participant shards prepared *)
  mutable commit_round : int; (* the coordinator's round stamp, -1 if none *)
  mutable in_batch : bool; (* batch.entry seen: (batch_id, batch_pos) *)
  mutable batch_id : int;
  mutable batch_pos : int;
  spec_deps : ints; (* undecided predecessors read from, oldest first *)
  mutable wits : (int * int) list; (* flagged (witness, home shard) *)
  (* The open read fan-out: its time, oid, destinations in send order, and
     the witnesses and read shard it opened under (lists are immutable, so
     keeping [wits] keeps the flagged set as of the open). *)
  mutable group_open : bool;
  group_time : Float.Array.t; (* one cell, unboxed *)
  mutable group_oid : int;
  mutable group_shard : int;
  mutable group_wits : (int * int) list;
  dsts : ints;
  mutable unwinding : bool; (* a partial abort to [unwind_to] is pending *)
  mutable unwind_to : int;
}

let fresh_txn_state () =
  {
    rounds = [||];
    n_rounds = 0;
    xparts = ints ();
    commit_round = -1;
    in_batch = false;
    batch_id = 0;
    batch_pos = 0;
    spec_deps = ints ();
    wits = [];
    group_open = false;
    group_time = Float.Array.make 1 0.;
    group_oid = 0;
    group_shard = 0;
    group_wits = [];
    dsts = ints ();
    unwinding = false;
    unwind_to = 0;
  }

let reset st =
  st.n_rounds <- 0;
  st.xparts.len <- 0;
  st.commit_round <- -1;
  st.in_batch <- false;
  st.spec_deps.len <- 0;
  st.wits <- [];
  st.group_open <- false;
  st.group_wits <- [];
  st.dsts.len <- 0;
  st.unwinding <- false

(* The [txns] table's filler and "absent" answer: never mutated, told
   apart by physical equality. *)
let no_state = fresh_txn_state ()

(* A distinct committed voter set.  [mask] has bit [v] per voter [v] when
   every voter is in [0, 62), else -1; [dups] marks a repeated voter.  A
   set with [mask >= 0] and no [dups] is its mask: compared and
   intersected in one instruction.  [voters] (sorted) serves the rest. *)
type qset = { voters : int list; mask : int; dups : bool; first_txn : int }

(* Distinct committed voter sets per (shard, epoch) — the pairwise-
   intersection fallback needs every *distinct* quorum that committed in a
   view, not every commit, so identical voter sets collapse to one
   representative (first committing txn) with no loss of verdicts. *)
type quorum_log = { mutable count : int; mutable sets : qset list }

let no_log = { count = 0; sets = [] }

(* The rule an event kind feeds, dispatched through [rules] by kind. *)
type rule =
  | No_rule
  | View_change
  | Commit_send
  | Vote_recv
  | Txn_commit
  | Xshard_prepare
  | Xshard_decide
  | Presumed_abort
  | Lease_grant
  | Lease_release
  | Batch_entry
  | Spec_read
  | Batch_decide
  | Partial_abort
  | Scope_resume
  | Retire (* txn.root_abort, txn.end *)
  | Apply
  | Rescue
  | Widen_add
  | Widen_drop
  | View_rehome
  | Read_send

(* Built once: [Sem] interns its kinds at initialisation, before this
   module's; kinds interned later (message kinds) feed no rule. *)
let rules =
  let table = Array.make (Kind.registered ()) No_rule in
  List.iter
    (fun (k, r) -> table.(k) <- r)
    [
      (Sem.view_change, View_change);
      (Sem.commit_send, Commit_send);
      (Sem.vote_recv, Vote_recv);
      (Sem.txn_commit, Txn_commit);
      (Sem.xshard_prepare, Xshard_prepare);
      (Sem.xshard_decide, Xshard_decide);
      (Sem.presumed_abort, Presumed_abort);
      (Sem.lease_grant, Lease_grant);
      (Sem.lease_release, Lease_release);
      (Sem.batch_entry, Batch_entry);
      (Sem.spec_read, Spec_read);
      (Sem.batch_decide, Batch_decide);
      (Sem.txn_partial_abort, Partial_abort);
      (Sem.scope_resume, Scope_resume);
      (Sem.txn_root_abort, Retire);
      (Sem.txn_end, Retire);
      (Sem.apply, Apply);
      (Sem.rescue, Rescue);
      (Sem.widen_add, Widen_add);
      (Sem.widen_drop, Widen_drop);
      (Sem.view_rehome, View_rehome);
      (Sem.read_send, Read_send);
    ];
  table

let rule_of k = if k >= 0 && k < Array.length rules then Array.unsafe_get rules k else No_rule

(* Lease owners are indexed by replica, then oid, in the ranges a trace
   uses; any other (replica, oid) pair lives in [odd_leases]. *)
let max_lease_node = 1 lsl 12
let max_lease_oid = 1 lsl 24
let no_owner = min_int
let cache_mask = 1023

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
  (* A direct-mapped front for [txns], slot [txn land cache_mask]:
     [hit_txn.(i) = txn] means [hit_st.(i)] is txn's record, and
     [miss_txn.(i) = txn] that txn has none.  In-flight ids are near-
     consecutive, so most lookups are two array loads and no call. *)
  hit_txn : int array;
  hit_st : txn_state array;
  miss_txn : int array;
  (* per slot, the tracked txns with an open read fan-out: most events
     of a txn with none learn it from this one load *)
  open_slots : int array;
  mutable peak_tracked : int;
  (* retired records, ready for reuse, in [0, n_pooled) *)
  mutable pool : txn_state array;
  mutable n_pooled : int;
  (* the record lent to a tombstoned txn's straggler for one event *)
  scratch : txn_state;
  (* lease-overlap: replica -> oid -> owning txn ([no_owner] if none);
     retired on release. *)
  mutable leases : int array array;
  odd_leases : (int * int, int) Hashtbl.t;
  (* (shard, epoch) packed as [shard lsl 32 lor epoch] -> distinct
     committed voter sets, newest first; other pairs in [odd_logs]. *)
  committed : quorum_log Util.Int_table.t;
  odd_logs : (int * int, quorum_log) Hashtbl.t;
  quorums_cap : int; (* distinct sets retained per (shard, epoch) *)
  (* The side tables that outlive a transaction are consulted only within
     a bounded horizon — a rescue references a lease-recent transaction, a
     batch dependency a queue-recent one — so generous FIFO windows keep
     verdicts exact in practice while pinning memory. *)
  evidence : recent; (* txns with commit evidence *)
  xcommitted : recent; (* cross-shard commits decided *)
  batch_outcome : bool Util.Window.t; (* txn -> committed in its batch? *)
  last_decided : (int * int) Util.Window.t; (* batch -> (position, txn) *)
  (* tombstones: txns already retired at [txn.end].  Stragglers — late
     quorum votes, duplicated messages — would otherwise resurrect a state
     record that nothing ever retires again; a tombstoned txn gets a
     throwaway state instead. *)
  ended : recent;
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
    hit_txn = Array.make (cache_mask + 1) min_int;
    hit_st = Array.make (cache_mask + 1) no_state;
    miss_txn = Array.make (cache_mask + 1) min_int;
    open_slots = Array.make (cache_mask + 1) 0;
    peak_tracked = 0;
    pool = [||];
    n_pooled = 0;
    scratch = fresh_txn_state ();
    leases = [||];
    odd_leases = Hashtbl.create 8;
    committed = Util.Int_table.create ~dummy:no_log;
    odd_logs = Hashtbl.create 8;
    quorums_cap = 4096;
    evidence = recent ~cap:horizon;
    xcommitted = recent ~cap:horizon;
    batch_outcome = Util.Window.create ~cap:horizon ~dummy:false;
    last_decided = Util.Window.create ~cap:(max 1 (horizon / 16)) ~dummy:(0, 0);
    ended = recent ~cap:horizon;
  }

let report t rule time txn detail =
  let v = { rule; time; txn; detail } in
  t.violations <- v :: t.violations;
  t.n_violations <- t.n_violations + 1;
  (match t.on_violation with None -> () | Some f -> f v);
  if t.fail_fast then raise (Violation v)

let cur_epoch_of t shard = Util.Int_table.find_or t.shard_epochs shard ~default:0

(* The tracked state of [txn], or [no_state]. *)
let tracked t txn =
  let i = txn land cache_mask in
  if Array.unsafe_get t.hit_txn i = txn then Array.unsafe_get t.hit_st i
  else if Array.unsafe_get t.miss_txn i = txn then no_state
  else begin
    let st = Util.Int_table.find_or t.txns txn ~default:no_state in
    if st == no_state then Array.unsafe_set t.miss_txn i txn
    else begin
      Array.unsafe_set t.hit_txn i txn;
      Array.unsafe_set t.hit_st i st
    end;
    st
  end

let state_of t txn =
  let st = tracked t txn in
  if st != no_state then st
  else if recent_mem t.ended txn then begin
    (* A straggler for an ended txn (a late vote after the commit decided)
       gets a throwaway record: re-inserting would leak state that no
       [txn.end] will ever retire again. *)
    reset t.scratch;
    t.scratch
  end
  else begin
    let st =
      if t.n_pooled = 0 then fresh_txn_state ()
      else begin
        t.n_pooled <- t.n_pooled - 1;
        let st = t.pool.(t.n_pooled) in
        t.pool.(t.n_pooled) <- no_state;
        st
      end
    in
    Util.Int_table.replace t.txns txn st;
    let i = txn land cache_mask in
    Array.unsafe_set t.hit_txn i txn;
    Array.unsafe_set t.hit_st i st;
    if Array.unsafe_get t.miss_txn i = txn then Array.unsafe_set t.miss_txn i min_int;
    let n = Util.Int_table.length t.txns in
    if n > t.peak_tracked then t.peak_tracked <- n;
    st
  end

(* The transaction is over: its record goes back to the pool. *)
let retire t txn =
  let st = tracked t txn in
  if st != no_state then begin
    Util.Int_table.remove t.txns txn;
    let i = txn land cache_mask in
    (* min_int is never tracked: a free slot answers it with [no_state]. *)
    Array.unsafe_set t.hit_txn i min_int;
    Array.unsafe_set t.hit_st i no_state;
    Array.unsafe_set t.miss_txn i txn;
    if st.group_open then t.open_slots.(i) <- t.open_slots.(i) - 1;
    reset st;
    if t.n_pooled = Array.length t.pool then begin
      let pool = Array.make (max 16 (2 * t.n_pooled)) no_state in
      Array.blit t.pool 0 pool 0 t.n_pooled;
      t.pool <- pool
    end;
    t.pool.(t.n_pooled) <- st;
    t.n_pooled <- t.n_pooled + 1
  end;
  recent_add t.ended txn

(* Witnesses oblige only reads of their own shard (`widen.add`'s [b] slot
   records the witness's shard, `read.send`'s the read's; [-1] — traces
   from before sharding — matches every read). *)
let obliges ~read_shard (_, ws) = ws = -1 || read_shard = -1 || ws = read_shard

let rec misses ~read_shard dsts = function
  | [] -> false
  | (w, _ as wit) :: rest ->
    (obliges ~read_shard wit && not (ints_mem dsts w)) || misses ~read_shard dsts rest

let close_group t txn st =
  st.group_open <- false;
  let i = txn land cache_mask in
  t.open_slots.(i) <- t.open_slots.(i) - 1;
  let read_shard = st.group_shard and dsts = st.dsts in
  if misses ~read_shard dsts st.group_wits then begin
    let sent = List.init dsts.len (fun i -> dsts.data.(dsts.len - 1 - i)) in
    let missing =
      List.filter_map
        (fun (w, _ as wit) -> if misses ~read_shard dsts [ wit ] then Some w else None)
        st.group_wits
    in
    report t "widen-read" (Float.Array.get st.group_time 0) txn
      (Printf.sprintf
         "read of oid %d fanned out to [%s] but misses flagged witness(es) [%s]"
         st.group_oid (ints_to_string sent) (ints_to_string missing))
  end

let read_send t ~time ~txn ~oid ~a ~b =
  let st = state_of t txn in
  if st.group_open && Float.Array.get st.group_time 0 = time && st.group_oid = oid
  then push st.dsts a
  else begin
    if st.group_open then close_group t txn st;
    st.group_open <- true;
    if st != t.scratch then begin
      let i = txn land cache_mask in
      t.open_slots.(i) <- t.open_slots.(i) + 1
    end;
    Float.Array.set st.group_time 0 time;
    st.group_oid <- oid;
    st.group_shard <- b;
    (* A pointer store pays the write barrier; the common case stores []. *)
    if st.group_wits != st.wits then st.group_wits <- st.wits;
    st.dsts.len <- 0;
    push st.dsts a
  end

let round_of st i = Array.unsafe_get st.rounds i

let rec round_index st shard i =
  if i = st.n_rounds then -1
  else if (round_of st i).shard = shard then i
  else round_index st shard (i + 1)

(* Open a round for [shard] as the newest, superseding any round that
   shard already has (a retry); a retired round's record is reused. *)
let open_round st ~shard ~send_epoch =
  let i = round_index st shard 0 in
  if i >= 0 then begin
    let n = st.n_rounds and r = round_of st i in
    Array.blit st.rounds (i + 1) st.rounds i (n - 1 - i);
    st.rounds.(n - 1) <- r;
    st.n_rounds <- n - 1
  end;
  let n = st.n_rounds in
  if n = Array.length st.rounds then
    st.rounds <-
      Array.init (max 2 (2 * n)) (fun j ->
          if j < n then st.rounds.(j) else { shard = 0; send_epoch = 0; votes = ints () });
  let r = round_of st n in
  r.shard <- shard;
  r.send_epoch <- send_epoch;
  r.votes.len <- 0;
  st.n_rounds <- n + 1;
  r

(* A coordinator that restarts a commit stamps the new attempt with a new
   round ([oid] of [commit.send] and [xshard.prepare]; traces without the
   stamp carry -1): the earlier attempt's rounds and prepares no longer
   stand behind the commit. *)
let enter_commit_round st round =
  if round >= 0 && round <> st.commit_round then begin
    st.commit_round <- round;
    st.n_rounds <- 0;
    st.xparts.len <- 0
  end

let vote_count r = r.votes.len / 3
let voter r i = Array.unsafe_get r.votes.data (3 * i)
let vote_flags r i = Array.unsafe_get r.votes.data ((3 * i) + 1)
let vote_epoch r i = Array.unsafe_get r.votes.data ((3 * i) + 2)

let voters_where r p =
  List.filter_map
    (fun i -> if p i then Some (voter r i) else None)
    (List.init (vote_count r) Fun.id)

let sorted_voters r = List.sort Int.compare (voters_where r (fun _ -> true))

let rec dissent_from r i =
  i < vote_count r && (vote_flags r i land commit_bit = 0 || dissent_from r (i + 1))

let rec stale_from r i =
  i < vote_count r && (vote_epoch r i <> r.send_epoch || stale_from r (i + 1))

(* The round's voters as a bit mask, or -1 if one is outside [0, 62). *)
let rec mask_from r i mask =
  if i = vote_count r then mask
  else
    let v = voter r i in
    if v < 0 || v >= 62 then -1 else mask_from r (i + 1) (mask lor (1 lsl v))

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

let qset_of r ~txn =
  let mask = mask_from r 0 0 in
  let dups = mask >= 0 && popcount mask <> vote_count r in
  { voters = sorted_voters r; mask; dups; first_txn = txn }

let rec intersects a b = match a with [] -> false | x :: rest -> List.mem x b || intersects rest b

let pack_ok shard epoch = shard >= 0 && shard < 1 lsl 30 && epoch >= 0 && epoch < 1 lsl 32

let log_of t ~shard ~epoch =
  if pack_ok shard epoch then begin
    let key = (shard lsl 32) lor epoch in
    let log = Util.Int_table.find_or t.committed key ~default:no_log in
    if log != no_log then log
    else begin
      let log = { count = 0; sets = [] } in
      Util.Int_table.replace t.committed key log;
      log
    end
  end
  else
    match Hashtbl.find_opt t.odd_logs (shard, epoch) with
    | Some log -> log
    | None ->
      let log = { count = 0; sets = [] } in
      Hashtbl.replace t.odd_logs (shard, epoch) log;
      log

(* Report every logged set the round's voters miss.  Two in-range sets
   meet iff their masks share a bit; the sorted lists serve the rest. *)
let rec check_sets t ~time ~txn r mask = function
  | [] -> ()
  | s :: rest ->
    let meets =
      if mask >= 0 && s.mask >= 0 then mask land s.mask <> 0
      else intersects (sorted_voters r) s.voters
    in
    if not meets then
      report t "commit-quorum" time txn
        (Printf.sprintf "voter set [%s] does not intersect txn %d's write quorum"
           (ints_to_string (sorted_voters r))
           s.first_txn);
    check_sets t ~time ~txn r mask rest

(* Whether the round's voter list (sorted, repeats kept) is logged.  A
   [plain] round — in range, no repeat — equals exactly the plain sets
   with its mask. *)
let rec logged r ~mask ~plain = function
  | [] -> false
  | s :: rest ->
    (if plain then s.mask = mask && not s.dups else s.voters = sorted_voters r)
    || logged r ~mask ~plain rest

(* Pairwise fallback, scoped to the same shard and view: intersection is
   only guaranteed there. *)
let check_pairwise t ~time ~txn r =
  let log = log_of t ~shard:r.shard ~epoch:r.send_epoch in
  let mask = mask_from r 0 0 in
  check_sets t ~time ~txn r mask log.sets;
  let plain = mask >= 0 && popcount mask = vote_count r in
  if not (logged r ~mask ~plain log.sets) then begin
    log.sets <- qset_of r ~txn :: log.sets;
    log.count <- log.count + 1;
    if log.count > t.quorums_cap then begin
      (* Drop the oldest distinct quorum of this view; a view sees
         at most a handful of distinct quorums in practice. *)
      log.sets <- List.filteri (fun i _ -> i < t.quorums_cap) log.sets;
      log.count <- t.quorums_cap
    end
  end

let check_round t st ~time ~txn r =
  if dissent_from r 0 then begin
    let dissent = voters_where r (fun i -> vote_flags r i land commit_bit = 0) in
    report t "commit-quorum" time txn
      (Printf.sprintf "committed despite %d non-commit vote(s) from [%s]"
         (List.length dissent) (ints_to_string dissent))
  end;
  (* epoch-fencing: all the evidence behind a commit must come from one
     membership view per shard — the view that shard's round was sent
     under, still in force when the commit is decided. *)
  if stale_from r 0 then
    report t "epoch-fencing" time txn
      (Printf.sprintf
         "commit uses evidence from two incompatible views: round sent in \
          epoch %d but vote(s) from [%s] arrived in other epochs"
         r.send_epoch
         (ints_to_string (voters_where r (fun i -> vote_epoch r i <> r.send_epoch))))
  else if r.send_epoch <> cur_epoch_of t r.shard then
    report t "epoch-fencing" time txn
      (Printf.sprintf "commit decided in epoch %d over a round sent in epoch %d"
         (cur_epoch_of t r.shard) r.send_epoch);
  match t.is_write_quorum with
  | Some valid when st.n_rounds <= 1 ->
    let voters = sorted_voters r in
    if not (valid voters) then
      report t "commit-quorum" time txn
        (Printf.sprintf "voter set [%s] is not a valid write quorum" (ints_to_string voters))
  | Some _ | None -> check_pairwise t ~time ~txn r

(* Rounds in prepare order: ascending shard. *)
let check_commit t st ~time ~txn =
  for i = 0 to st.n_rounds - 1 do
    check_round t st ~time ~txn (round_of st i)
  done

let owners_of t node =
  if node < Array.length t.leases then Array.unsafe_get t.leases node else [||]

let lease_owner t ~node ~oid =
  if node >= 0 && node < max_lease_node && oid >= 0 && oid < max_lease_oid then
    let owners = owners_of t node in
    if oid < Array.length owners then Array.unsafe_get owners oid else no_owner
  else Option.value (Hashtbl.find_opt t.odd_leases (node, oid)) ~default:no_owner

let set_lease_owner t ~node ~oid owner =
  if node >= 0 && node < max_lease_node && oid >= 0 && oid < max_lease_oid then begin
    if node >= Array.length t.leases then begin
      let leases = Array.make (max (node + 1) (2 * Array.length t.leases)) [||] in
      Array.blit t.leases 0 leases 0 (Array.length t.leases);
      t.leases <- leases
    end;
    let owners = t.leases.(node) in
    let owners =
      if oid < Array.length owners then owners
      else begin
        let grown = Array.make (max (oid + 1) (max 64 (2 * Array.length owners))) no_owner in
        Array.blit owners 0 grown 0 (Array.length owners);
        t.leases.(node) <- grown;
        grown
      end
    in
    Array.unsafe_set owners oid owner
  end
  else if owner = no_owner then Hashtbl.remove t.odd_leases (node, oid)
  else Hashtbl.replace t.odd_leases (node, oid) owner

let feed_rule t rule ~time ~node ~txn ~oid ~a ~b ~x =
  match rule with
  | No_rule | Read_send -> ()
  | View_change -> Util.Int_table.replace t.shard_epochs (int_of_float x) a
  | Commit_send ->
    (* A fresh commit.send for a shard supersedes that shard's previous
       round (retries); rounds for other shards accumulate (cross-shard
       2PC prepares each participant shard in turn). *)
    let shard = int_of_float x and st = state_of t txn in
    enter_commit_round st oid;
    ignore (open_round st ~shard ~send_epoch:(cur_epoch_of t shard) : round)
  | Vote_recv ->
    let st = state_of t txn in
    let r =
      if st.n_rounds > 0 then round_of st (st.n_rounds - 1)
      else open_round st ~shard:0 ~send_epoch:0
    in
    push r.votes a;
    push r.votes b;
    push r.votes (cur_epoch_of t r.shard)
  | Txn_commit ->
    if b <> 1 then begin
      let st = tracked t txn in
      if st != no_state then check_commit t st ~time ~txn
    end;
    recent_add t.evidence txn
  | Xshard_prepare ->
    let st = state_of t txn in
    enter_commit_round st oid;
    if not (ints_mem st.xparts a) then push st.xparts a
  | Xshard_decide ->
    if a = 1 then begin
      recent_add t.xcommitted txn;
      (* A committed cross-shard transaction must have run a prepare round
         on every participant shard — a decision taken without some
         participant's vote quorum is exactly the atomicity bug 2PC exists
         to prevent. *)
      let prepared = (tracked t txn).xparts.len in
      if prepared <> b then
        report t "cross-shard-atomicity" time txn
          (Printf.sprintf
             "committed across %d shards but the trace shows prepare rounds \
              on only %d" b prepared)
    end
  | Presumed_abort ->
    (* Once the coordinator decided commit, no participant replica may walk
       the decision back: the termination protocol must surface rescue
       evidence before the lease is presumed dead. *)
    if recent_mem t.xcommitted txn then
      report t "cross-shard-atomicity" time txn
        (Printf.sprintf
           "node %d presumed abort after the cross-shard commit was decided \
            — rescue evidence failed to propagate" node)
  | Lease_grant ->
    let owner = lease_owner t ~node ~oid in
    if owner <> no_owner && owner <> txn then
      report t "lease-overlap" time txn
        (Printf.sprintf
           "granted write lease on oid %d at node %d while txn %d still holds it"
           oid node owner);
    set_lease_owner t ~node ~oid txn
  | Lease_release ->
    let owner = lease_owner t ~node ~oid in
    if owner <> no_owner && (owner = txn || txn < 0) then set_lease_owner t ~node ~oid no_owner
  | Batch_entry ->
    let st = state_of t txn in
    st.in_batch <- true;
    st.batch_id <- a;
    st.batch_pos <- b
  | Spec_read ->
    (* b = 1 marks an undecided predecessor: a true speculative
       dependency.  b = 0 images are already-committed state. *)
    if b = 1 then begin
      let st = state_of t txn in
      if not (ints_mem st.spec_deps a) then push st.spec_deps a
    end
  | Batch_decide ->
    let st = state_of t txn in
    (* (a) within one batch, entries decide in strictly increasing queue
       order — decide order IS version-install order, so a regression
       would apply versions against queue order. *)
    if not st.in_batch then
      report t "batch-order" time txn
        (Printf.sprintf "decided in batch %d without a batch.entry" a)
    else if st.batch_id <> a then
      report t "batch-order" time txn
        (Printf.sprintf "decided in batch %d but last cut into batch %d" a
           st.batch_id)
    else begin
      let batch = st.batch_id and pos = st.batch_pos in
      (match Util.Window.find_opt t.last_decided batch with
      | Some (last, other) when pos <= last ->
        report t "batch-order" time txn
          (Printf.sprintf
             "batch %d decided queue position %d after position %d (txn \
              %d): applied versions would not respect queue order"
             batch pos last other)
      | Some _ | None -> ());
      Util.Window.replace t.last_decided batch (pos, txn)
    end;
    Util.Window.replace t.batch_outcome txn (b = 1);
    (* (b) a speculative txn never commits in a round its predecessor
       aborted in (or before the predecessor is decided at all); newest
       dependency first. *)
    if b = 1 then
      for i = st.spec_deps.len - 1 downto 0 do
        let w = st.spec_deps.data.(i) in
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
                from was decided" w)
      done
  | Partial_abort ->
    let st = state_of t txn in
    (* A partial abort may roll speculative reads back with the scope; the
       surviving dependency set is not reconstructible from the trace, so
       drop the txn's deps (conservative: misses violations, never
       fabricates one — re-executed reads re-record theirs). *)
    st.spec_deps.len <- 0;
    if st.unwinding then
      report t "partial-abort-scope" time txn
        (Printf.sprintf "partial abort to %d while unwind to %d never resumed"
           a st.unwind_to);
    st.unwinding <- true;
    st.unwind_to <- a
  | Scope_resume ->
    let st = state_of t txn in
    if st.unwinding then begin
      st.unwinding <- false;
      if a <> st.unwind_to then
        report t "partial-abort-scope" time txn
          (Printf.sprintf "partial abort targeted %d but resumed at %d"
             st.unwind_to a)
    end
    else
      report t "partial-abort-scope" time txn
        (Printf.sprintf "scope resume at %d without a pending partial abort" a)
  | Retire ->
    (* The transaction is over: retire its whole state machine.  This is
       the bound that keeps checker memory O(in-flight transactions).  A
       root abort is the legal fallback when the unwind target is gone,
       and the end of this attempt's txn id: retries re-run under a fresh
       id ([start_attempt] draws one per attempt), so most chaos-run ids
       die this way. *)
    retire t txn
  | Apply -> recent_add t.evidence txn
  | Rescue ->
    (* b = 1 marks version-advance evidence: the leased copy moved past the
       protected version, which a *different* transaction's commit can
       cause across membership views — no per-txn apply is implied. *)
    if b <> 1 && not (recent_mem t.evidence txn) then
      report t "rescue-evidence" time txn
        "rescued to commit without prior commit evidence (no apply or \
         coordinator commit in trace)"
  | Widen_add ->
    let st = state_of t txn in
    if not (List.mem_assoc a st.wits) then st.wits <- (a, b) :: st.wits
  | Widen_drop ->
    let st = tracked t txn in
    if st != no_state then st.wits <- List.filter (fun (w, _) -> w <> a) st.wits
  | View_rehome ->
    (* A split moved [node] to shard [a]: as a witness it now obliges
       reads of [a] only, which is where [remote_fetch] sends it. *)
    Util.Int_table.iter
      (fun _ st ->
        st.wits <- List.map (fun (w, ws) -> if w = node then (w, a) else (w, ws)) st.wits)
      t.txns

let feed8 t ~time ~kind ~node ~txn ~oid ~a ~b ~x =
  t.events_seen <- t.events_seen + 1;
  match rule_of kind with
  | Read_send -> read_send t ~time ~txn ~oid ~a ~b
  | rule ->
    (* A transaction event other than read.send ends any open fan-out. *)
    if txn >= 0 && Array.unsafe_get t.open_slots (txn land cache_mask) > 0 then begin
      let st = tracked t txn in
      if st.group_open then close_group t txn st
    end;
    if rule <> No_rule then feed_rule t rule ~time ~node ~txn ~oid ~a ~b ~x

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
    (fun txn st acc -> if st.group_open then txn :: acc else acc)
    t.txns []
  |> List.sort Int.compare
  |> List.iter (fun txn -> close_group t txn (tracked t txn))

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
