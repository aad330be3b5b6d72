(* Core protocol unit tests: the Txn DSL monad laws, read/write-set
   algebra, read-quorum validation (including the paper's running example),
   the server handlers, and the 1-copy oracle. *)

open Core

let value_testable = Alcotest.testable Store.Value.pp Store.Value.equal

(* --- Txn DSL ----------------------------------------------------------- *)

(* Interpret a program against a plain in-memory table: enough to check the
   monad's sequencing without any distribution. *)
let rec eval table = function
  | Txn.Return v -> v
  | Txn.Fail msg -> Alcotest.failf "eval hit Fail %s" msg
  | Txn.Read (oid, k) -> eval table (k (Hashtbl.find table oid))
  | Txn.Write (oid, v, k) ->
    Hashtbl.replace table oid v;
    eval table (k ())
  | Txn.Nested (body, k) -> eval table (k (eval table (body ())))
  | Txn.Open { body; compensate = _; k } -> eval table (k (eval table (body ())))
  | Txn.Checkpoint k -> eval table (k ())

let test_dsl_sequencing () =
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 1 (Store.Value.Int 10);
  let open Txn.Syntax in
  let program =
    let* v = Txn.read 1 in
    let* _ = Txn.write 2 (Store.Value.Int (Store.Value.to_int v * 2)) in
    let* doubled = Txn.read 2 in
    Txn.return doubled
  in
  Alcotest.check value_testable "read-write-read" (Store.Value.Int 20) (eval table program)

let test_monad_laws () =
  let table () =
    let t = Hashtbl.create 4 in
    Hashtbl.replace t 1 (Store.Value.Int 7);
    t
  in
  let f v = Txn.write 2 v in
  (* Left identity: bind (return v) f = f v. *)
  Alcotest.check value_testable "left identity"
    (eval (table ()) (Txn.bind (Txn.return (Store.Value.Int 1)) f))
    (eval (table ()) (f (Store.Value.Int 1)));
  (* Right identity: bind m return = m. *)
  Alcotest.check value_testable "right identity"
    (eval (table ()) (Txn.bind (Txn.read 1) Txn.return))
    (eval (table ()) (Txn.read 1));
  (* Associativity. *)
  let g _ = Txn.read 1 in
  Alcotest.check value_testable "associativity"
    (eval (table ()) (Txn.bind (Txn.bind (Txn.read 1) f) g))
    (eval (table ()) (Txn.bind (Txn.read 1) (fun v -> Txn.bind (f v) g)))

let test_ops_count () =
  let open Txn.Syntax in
  let program =
    let* _ = Txn.read 1 in
    let* _ = Txn.write 2 Store.Value.Unit in
    Txn.return Store.Value.Unit
  in
  Alcotest.(check int) "two operations" 2 (Txn.ops program)

(* --- Rwset ------------------------------------------------------------- *)

let entry ?(owner = 0) ?(version = 0) oid : Rwset.entry =
  { oid; version; value = Store.Value.Int oid; owner }

let test_rwset_merge () =
  let child = Rwset.add (Rwset.add Rwset.empty (entry ~owner:1 ~version:5 1)) (entry ~owner:1 2) in
  let parent = Rwset.add (Rwset.add Rwset.empty (entry ~version:2 1)) (entry 3) in
  let merged = Rwset.merge_into ~child ~parent in
  Alcotest.(check int) "merged size" 3 (Rwset.size merged);
  (* The child's copy wins on collision (it is fresher). *)
  begin
    match Rwset.find merged 1 with
    | Some e -> Alcotest.(check int) "child version wins" 5 e.version
    | None -> Alcotest.fail "entry 1 lost"
  end;
  let retagged = Rwset.retag merged ~owner:0 in
  Alcotest.(check bool) "all retagged" true
    (List.for_all (fun (e : Rwset.entry) -> e.owner = 0) (Rwset.entries retagged))

let rwset_add_find =
  QCheck.Test.make ~name:"rwset add/find/remove" ~count:200
    QCheck.(small_list small_nat)
    (fun oids ->
      let set = List.fold_left (fun s oid -> Rwset.add s (entry oid)) Rwset.empty oids in
      List.for_all (fun oid -> Rwset.mem set oid) oids
      && List.for_all (fun oid -> not (Rwset.mem (Rwset.remove set oid) oid)) oids
      && Rwset.size set = List.length (List.sort_uniq Int.compare oids))

(* --- Rqv: the paper's running example (§III-B) ------------------------- *)

(* T1 has read {o1, o2, o3}; T2 commits a new version of o2; when T1
   requests o4, validation must fail and name the right abort target. *)
let test_rqv_paper_example () =
  let store = Store.Replica.create () in
  List.iter (fun oid -> Store.Replica.ensure store ~oid ~init:Store.Value.Unit) [ 1; 2; 3; 4 ];
  (* T2's commit bumped o2. *)
  Store.Replica.apply store ~oid:2 ~version:1 ~value:(Store.Value.Int 9) ~txn:99;
  let dataset =
    Messages.dataset_of_list
      [
        { Messages.oid = 1; version = 0; owner = 0 };
        { Messages.oid = 2; version = 0; owner = 1 };
        { Messages.oid = 3; version = 0; owner = 2 };
      ]
  in
  Alcotest.(check (option int)) "abort target is o2's owner" (Some 1)
    (Rqv.validate store ~txn:1 ~dataset)

let test_rqv_valid_dataset () =
  let store = Store.Replica.create () in
  List.iter (fun oid -> Store.Replica.ensure store ~oid ~init:Store.Value.Unit) [ 1; 2 ];
  let dataset =
    Messages.dataset_of_list
      [ { Messages.oid = 1; version = 0; owner = 0 }; { Messages.oid = 2; version = 0; owner = 1 } ]
  in
  Alcotest.(check (option int)) "valid" None (Rqv.validate store ~txn:1 ~dataset)

let test_rqv_min_owner_wins () =
  let store = Store.Replica.create () in
  List.iter (fun oid -> Store.Replica.ensure store ~oid ~init:Store.Value.Unit) [ 1; 2 ];
  Store.Replica.apply store ~oid:1 ~version:1 ~value:Store.Value.Unit ~txn:50;
  Store.Replica.apply store ~oid:2 ~version:1 ~value:Store.Value.Unit ~txn:51;
  let dataset =
    Messages.dataset_of_list
      [ { Messages.oid = 1; version = 0; owner = 3 }; { Messages.oid = 2; version = 0; owner = 1 } ]
  in
  (* Both invalid: the ancestor-most (minimum) owner is the target. *)
  Alcotest.(check (option int)) "min owner" (Some 1) (Rqv.validate store ~txn:1 ~dataset)

let test_rqv_protected_fails () =
  let store = Store.Replica.create () in
  Store.Replica.ensure store ~oid:1 ~init:Store.Value.Unit;
  ignore (Store.Replica.try_lock store ~oid:1 ~txn:77);
  let dataset = Messages.dataset_of_list [ { Messages.oid = 1; version = 0; owner = 2 } ] in
  Alcotest.(check (option int)) "protected object invalidates" (Some 2)
    (Rqv.validate store ~txn:1 ~dataset);
  (* ... but not against the lock holder itself. *)
  Alcotest.(check (option int)) "owner sees through its own lock" None
    (Rqv.validate store ~txn:77 ~dataset)

(* --- Server ------------------------------------------------------------- *)

let server_with_objects oids =
  let store = Store.Replica.create () in
  List.iter (fun oid -> Store.Replica.ensure store ~oid ~init:(Store.Value.Int 0)) oids;
  Server.create ~node:0 ~store

let test_server_read () =
  let server = server_with_objects [ 1 ] in
  match
    Server.handle server ~src:5
      (Messages.Read_req
         { txn = 1; oid = 1; dataset = Messages.empty_dataset; write_intent = false; record = false })
  with
  | Some (Messages.Read_ok { oid; version; value }) ->
    Alcotest.(check int) "oid" 1 oid;
    Alcotest.(check int) "version" 0 version;
    Alcotest.check value_testable "value" (Store.Value.Int 0) value
  | Some _ | None -> Alcotest.fail "expected Read_ok"

let test_server_commit_vote_and_apply () =
  let server = server_with_objects [ 1; 2 ] in
  let dataset =
    Messages.dataset_of_list
      [ { Messages.oid = 1; version = 0; owner = 0 }; { Messages.oid = 2; version = 0; owner = 0 } ]
  in
  begin
    match
      Server.handle server ~src:5
        (Messages.Commit_req { txn = 9; dataset; locks = [ 2 ]; round = 1; peers = [] })
    with
    | Some (Messages.Votes { commits = [| true |]; _ }) -> ()
    | Some _ | None -> Alcotest.fail "expected commit vote"
  end;
  Alcotest.(check bool) "lock taken" true
    (Store.Replica.is_protected (Server.store server) ~oid:2 ~against:999);
  (* A competing committer must be denied with lock_conflict. *)
  begin
    match
      Server.handle server ~src:6
        (Messages.Commit_req { txn = 10; dataset; locks = [ 2 ]; round = 1; peers = [] })
    with
    | Some (Messages.Votes { commits = [| false |]; conflicts = [| true |] }) -> ()
    | Some _ | None -> Alcotest.fail "expected lock-conflict denial"
  end;
  (* Apply installs the write and releases the lock. *)
  ignore
    (Server.handle server ~src:5
       (Messages.Apply { txn = 9; writes = Messages.writes_of_list [ (2, 1, Store.Value.Int 5) ] }));
  Alcotest.(check int) "version bumped" 1 (Store.Replica.version (Server.store server) 2);
  Alcotest.(check bool) "lock released" false
    (Store.Replica.is_protected (Server.store server) ~oid:2 ~against:999)

let test_server_stale_commit_denied () =
  let server = server_with_objects [ 1 ] in
  Store.Replica.apply (Server.store server) ~oid:1 ~version:2 ~value:Store.Value.Unit ~txn:1;
  match
    Server.handle server ~src:5
      (Messages.Commit_req
         {
           txn = 9;
           dataset = Messages.dataset_of_list [ { Messages.oid = 1; version = 1; owner = 0 } ];
           locks = [ 1 ];
           round = 1;
           peers = [];
         })
  with
  | Some (Messages.Votes { commits = [| false |]; conflicts = [| lock_conflict |] }) ->
    Alcotest.(check bool) "version conflict, not lock" false lock_conflict
  | Some _ | None -> Alcotest.fail "expected denial"

let test_server_release () =
  let server = server_with_objects [ 1 ] in
  ignore
    (Server.handle server ~src:5
       (Messages.Commit_req
          {
            txn = 9;
            dataset = Messages.dataset_of_list [ { Messages.oid = 1; version = 0; owner = 0 } ];
            locks = [ 1 ];
            round = 1;
            peers = [];
          }));
  ignore (Server.handle server ~src:5 (Messages.Release { txn = 9; oids = [ 1 ]; round = 1 }));
  Alcotest.(check bool) "released" false
    (Store.Replica.is_protected (Server.store server) ~oid:1 ~against:999)

(* A Release is retransmitted at-least-once, so one from an abandoned
   commit round can land after a later round of the same transaction
   re-acquired the lock.  Freeing it then would let a competing writer
   commit the same version (seen in the wild as chaos seed 35's
   two-writers-one-version oracle violation). *)
let test_server_stale_release_ignored () =
  let server = server_with_objects [ 1 ] in
  let dataset = Messages.dataset_of_list [ { Messages.oid = 1; version = 0; owner = 0 } ] in
  ignore
    (Server.handle server ~src:5
       (Messages.Commit_req { txn = 9; dataset; locks = [ 1 ]; round = 1; peers = [] }));
  (* The coordinator timed out on round 1, released, and retried: round 2
     re-locks here... *)
  ignore
    (Server.handle server ~src:5
       (Messages.Commit_req { txn = 9; dataset; locks = [ 1 ]; round = 2; peers = [] }));
  (* ...then round 1's Release retransmission finally arrives. *)
  ignore (Server.handle server ~src:5 (Messages.Release { txn = 9; oids = [ 1 ]; round = 1 }));
  Alcotest.(check bool) "stale release ignored" true
    (Store.Replica.is_protected (Server.store server) ~oid:1 ~against:999);
  Alcotest.(check bool) "still blocks competing committer" false
    (Store.Replica.try_lock (Server.store server) ~oid:1 ~txn:10);
  (* The current round's Release does free the lock. *)
  ignore (Server.handle server ~src:5 (Messages.Release { txn = 9; oids = [ 1 ]; round = 2 }));
  Alcotest.(check bool) "current-round release frees" false
    (Store.Replica.is_protected (Server.store server) ~oid:1 ~against:999)

(* --- Oracle ------------------------------------------------------------- *)

let test_oracle_accepts_serial () =
  let oracle = Oracle.create () in
  Oracle.note_commit oracle ~txn:1 ~decision:10. ~window_start:5. ~reads:[ (1, 0) ]
    ~writes:[ (1, 1) ];
  Oracle.note_commit oracle ~txn:2 ~decision:20. ~window_start:15. ~reads:[ (1, 1) ]
    ~writes:[ (1, 2) ];
  Alcotest.(check bool) "serial history ok" true (Result.is_ok (Oracle.check oracle))

let test_oracle_rejects_stale_read () =
  let oracle = Oracle.create () in
  Oracle.note_commit oracle ~txn:1 ~decision:10. ~window_start:5. ~reads:[]
    ~writes:[ (1, 1) ];
  (* An *update* txn read version 0 but validated long after version 1. *)
  Oracle.note_commit oracle ~txn:2 ~decision:30. ~window_start:25. ~reads:[ (1, 0) ]
    ~writes:[ (2, 1) ];
  Alcotest.(check bool) "stale update read rejected" true
    (Result.is_error (Oracle.check oracle))

let test_oracle_read_only_snapshot_semantics () =
  (* A read-only txn may read versions that are stale in real time, as long
     as they form a consistent snapshot... *)
  let consistent = Oracle.create () in
  Oracle.note_commit consistent ~txn:1 ~decision:10. ~window_start:5. ~reads:[]
    ~writes:[ (1, 1) ];
  Oracle.note_commit consistent ~txn:2 ~decision:30. ~window_start:25.
    ~reads:[ (1, 0); (2, 0) ] ~writes:[];
  Alcotest.(check bool) "consistent stale snapshot accepted" true
    (Result.is_ok (Oracle.check consistent));
  (* ... but versions that never coexisted are rejected. *)
  let skewed = Oracle.create () in
  Oracle.note_commit skewed ~txn:1 ~decision:10. ~window_start:5. ~reads:[]
    ~writes:[ (1, 1) ];
  Oracle.note_commit skewed ~txn:2 ~decision:20. ~window_start:15. ~reads:[]
    ~writes:[ (2, 1) ];
  (* o1 still at version 0 (current only before t=10) together with o2 at
     version 1 (current only after t=20): impossible snapshot. *)
  Oracle.note_commit skewed ~txn:3 ~decision:30. ~window_start:25.
    ~reads:[ (1, 0); (2, 1) ] ~writes:[];
  Alcotest.(check bool) "inconsistent snapshot rejected" true
    (Result.is_error (Oracle.check skewed))

let test_oracle_rejects_version_gap () =
  let oracle = Oracle.create () in
  Oracle.note_commit oracle ~txn:1 ~decision:10. ~window_start:5. ~reads:[]
    ~writes:[ (1, 2) ];
  Alcotest.(check bool) "gap rejected" true (Result.is_error (Oracle.check oracle))

let test_oracle_rejects_double_write () =
  let oracle = Oracle.create () in
  Oracle.note_commit oracle ~txn:1 ~decision:10. ~window_start:5. ~reads:[] ~writes:[ (1, 1) ];
  Oracle.note_commit oracle ~txn:2 ~decision:12. ~window_start:6. ~reads:[] ~writes:[ (1, 1) ];
  Alcotest.(check bool) "double write rejected" true (Result.is_error (Oracle.check oracle))

let test_oracle_window_tolerance () =
  let oracle = Oracle.create () in
  (* Reader validated before the writer committed, decided after: legal. *)
  Oracle.note_commit oracle ~txn:1 ~decision:12. ~window_start:8. ~reads:[] ~writes:[ (1, 1) ];
  Oracle.note_commit oracle ~txn:2 ~decision:14. ~window_start:7. ~reads:[ (1, 0) ] ~writes:[];
  Alcotest.(check bool) "overlapping window ok" true (Result.is_ok (Oracle.check oracle))

(* --- Commit vote: Commit_req = one-entry Batch_commit_req ---------------- *)

(* A generated replica state: per hosted object a version and an optional
   lease [(owner, round, expires)]; the voting transaction is [vote_txn],
   so an owner equal to it is an own lease (an earlier round's), any other
   a foreign one.  Oids [1, hosted] live on the replica, the rest up to
   [max_oid] do not.  The request reads [rows] (oid, base version) and
   locks [locks], a subset of the hosted oids. *)
let vote_txn = 1
let max_oid = 6

type vote_case = {
  hosted : int;
  copies : (int * (int * int * float) option) list;  (** per hosted oid *)
  rows : (int * int) list;
  locks : int list;
  round : int;
}

let vote_case_gen =
  let open QCheck.Gen in
  let* hosted = int_range 1 (max_oid - 1) in
  let lease =
    opt
      (triple (int_range vote_txn (vote_txn + 2)) (int_range 0 3)
         (oneofl [ 100.; 900.; Float.infinity ]))
  in
  let* copies = list_repeat hosted (pair (int_range 0 3) lease) in
  let* rows = small_list (pair (int_range 1 max_oid) (int_range 0 3)) in
  let* locks = small_list (int_range 1 hosted) in
  let* round = int_range 1 3 in
  return
    {
      hosted;
      copies;
      rows = List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) rows;
      locks = List.sort_uniq Int.compare locks;
      round;
    }

let print_vote_case c =
  let lease = function
    | None -> "-"
    | Some (owner, round, expires) -> Printf.sprintf "%d/r%d/%g" owner round expires
  in
  Printf.sprintf "hosted=%d copies=[%s] rows=[%s] locks=[%s] round=%d" c.hosted
    (String.concat "; "
       (List.map (fun (v, l) -> Printf.sprintf "v%d %s" v (lease l)) c.copies))
    (String.concat "; " (List.map (fun (o, v) -> Printf.sprintf "%d@%d" o v) c.rows))
    (String.concat "; " (List.map string_of_int c.locks))
    c.round

(* Stage [c] on node 0 of a fresh cluster (leases and termination armed,
   clock at 0, so a grant or renewal stamps expiry 800), hand it [request],
   and return the one-entry verdict plus every hosted object's lease. *)
let vote_outcome c request =
  let cluster = Cluster.create ~nodes:5 ~seed:7 (Config.default Config.Flat) in
  let server = Cluster.server_of cluster ~node:0 in
  let store = Server.store server in
  List.iteri
    (fun i (version, lease) ->
      let oid = i + 1 in
      Store.Replica.ensure store ~oid ~init:(Store.Value.Int 0);
      if version > 0 then
        Store.Replica.apply store ~oid ~version ~value:(Store.Value.Int version) ~txn:99;
      Option.iter
        (fun (owner, round, expires) ->
          ignore (Store.Replica.try_lock ~expires ~round store ~oid ~txn:owner))
        lease)
    c.copies;
  let verdict =
    match Server.handle server ~src:3 (request c) with
    | Some (Messages.Votes { commits = [| commit |]; conflicts = [| conflict |] }) ->
      (commit, conflict)
    | Some _ | None -> Alcotest.fail "expected a one-entry vote"
  in
  let leases =
    List.init c.hosted (fun i ->
        Option.map
          (fun (l : Store.Replica.lease) -> (l.owner, l.round, l.expires))
          (Store.Replica.lease_of store (i + 1)))
  in
  (verdict, leases)

let vote_dataset c =
  Messages.dataset_of_list
    (List.map (fun (oid, version) -> { Messages.oid; version; owner = 0 }) c.rows)

let commit_req c =
  Messages.Commit_req
    { txn = vote_txn; dataset = vote_dataset c; locks = c.locks; round = c.round; peers = [] }

let one_entry_batch c =
  let dataset = vote_dataset c in
  let writes = Messages.writes_of_list (List.map (fun oid -> (oid, 0, Store.Value.Unit)) c.locks) in
  Messages.Batch_commit_req
    {
      txns = [| vote_txn |];
      rounds = [| c.round |];
      ds_offsets = [| 0; Messages.dataset_len dataset |];
      dataset;
      wr_offsets = [| 0; Messages.writes_len writes |];
      writes;
      decided = [||];
    }

let commit_vote_is_one_entry_batch =
  QCheck.Test.make ~name:"commit vote = one-entry batch vote" ~count:300
    (QCheck.make ~print:print_vote_case vote_case_gen)
    (fun c -> vote_outcome c commit_req = vote_outcome c one_entry_batch)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ rwset_add_find; commit_vote_is_one_entry_batch ]

let suite =
  [
    Alcotest.test_case "dsl sequencing" `Quick test_dsl_sequencing;
    Alcotest.test_case "monad laws" `Quick test_monad_laws;
    Alcotest.test_case "ops count" `Quick test_ops_count;
    Alcotest.test_case "rwset merge/retag" `Quick test_rwset_merge;
    Alcotest.test_case "rqv paper example" `Quick test_rqv_paper_example;
    Alcotest.test_case "rqv valid dataset" `Quick test_rqv_valid_dataset;
    Alcotest.test_case "rqv min owner wins" `Quick test_rqv_min_owner_wins;
    Alcotest.test_case "rqv protected objects" `Quick test_rqv_protected_fails;
    Alcotest.test_case "server read + PR" `Quick test_server_read;
    Alcotest.test_case "server 2PC vote/lock/apply" `Quick test_server_commit_vote_and_apply;
    Alcotest.test_case "server stale commit denied" `Quick test_server_stale_commit_denied;
    Alcotest.test_case "server release" `Quick test_server_release;
    Alcotest.test_case "server stale-round release ignored" `Quick
      test_server_stale_release_ignored;
    Alcotest.test_case "oracle accepts serial" `Quick test_oracle_accepts_serial;
    Alcotest.test_case "oracle rejects stale read" `Quick test_oracle_rejects_stale_read;
    Alcotest.test_case "oracle read-only snapshot semantics" `Quick
      test_oracle_read_only_snapshot_semantics;
    Alcotest.test_case "oracle rejects version gap" `Quick test_oracle_rejects_version_gap;
    Alcotest.test_case "oracle rejects double write" `Quick test_oracle_rejects_double_write;
    Alcotest.test_case "oracle window tolerance" `Quick test_oracle_window_tolerance;
  ]
  @ qcheck_cases
