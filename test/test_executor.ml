(* Executor behaviour tests: where partial aborts land, checkpoint
   rollback, which modes commit read-only transactions locally, and the
   safety valves.

   Conflicts are injected surgically: a scheduled event bumps an object's
   version on every replica, exactly as a remote commit would, at a chosen
   simulated time. *)

open Core

let bump_everywhere cluster ~at ~oid ~version =
  Sim.Engine.schedule_at (Cluster.engine cluster) ~time:at (fun () ->
      for node = 0 to Cluster.nodes cluster - 1 do
        Store.Replica.apply
          (Cluster.store_of cluster ~node)
          ~oid ~version ~value:(Store.Value.Int 777) ~txn:999_999
      done)

let read_seq oids =
  Benchmarks.Workload.seq (List.map Txn.read oids)

let events_of tracer kind =
  List.filter (fun (e : Obs.Tracer.event) -> e.ekind = kind) (Obs.Tracer.events tracer)

(* Where each rollback landed: the [a] of every [scope.resume], after
   checking it equals the target of the [txn.partial_abort] just before. *)
let resumed tracer =
  let target = ref None in
  List.filter_map
    (fun (e : Obs.Tracer.event) ->
      if e.ekind = Obs.Sem.txn_partial_abort then begin
        target := Some e.a;
        None
      end
      else if e.ekind = Obs.Sem.scope_resume then begin
        Alcotest.(check (option int)) "resumes the abort's target" !target (Some e.a);
        Some e.a
      end
      else None)
    (Obs.Tracer.events tracer)

(* A program step that invalidates [oid] the first time it runs, as a
   remote commit landing at that instant would. *)
let bump_once cluster ~oid =
  let fired = ref false in
  fun () ->
    if not !fired then begin
      fired := true;
      bump_everywhere cluster ~at:(Sim.Engine.now (Cluster.engine cluster)) ~oid
        ~version:1
    end

let expect_commit outcome =
  match outcome with
  | Some (Executor.Committed _) -> ()
  | Some (Executor.Failed msg) -> Alcotest.failf "failed: %s" msg
  | None -> Alcotest.fail "never finished"

(* A closed-nested transaction whose *own* read is invalidated mid-flight
   must retry just that CT — no root abort. *)
let test_partial_abort_targets_ct () =
  let tracer = Obs.Tracer.create () in
  let cluster =
    Cluster.create ~nodes:13 ~seed:3 ~with_oracle:false ~tracer
      (Config.default Config.Closed)
  in
  let oids = List.init 8 (fun _ -> Cluster.alloc_object cluster ~init:(Store.Value.Int 0)) in
  let a, rest =
    match oids with a :: rest -> (a, rest) | [] -> assert false
  in
  let program () =
    Txn.bind
      (Txn.nested (fun () -> Txn.read a))
      (fun _ -> Txn.nested (fun () -> read_seq rest))
  in
  (* [rest] spans several quorum round trips; invalidate its first element
     (owned by the *active* CT) midway. *)
  let first_of_rest = List.hd rest in
  bump_everywhere cluster ~at:150. ~oid:first_of_rest ~version:1;
  let outcome = ref None in
  Cluster.submit cluster ~node:5 program ~on_done:(fun o -> outcome := Some o);
  Cluster.drain cluster;
  expect_commit !outcome;
  let metrics = Cluster.metrics cluster in
  Alcotest.(check bool) "at least one partial abort" true
    (Metrics.partial_aborts metrics >= 1);
  Alcotest.(check int) "no root aborts" 0 (Metrics.root_aborts metrics);
  let depths = resumed tracer in
  Alcotest.(check bool) "resumed the running CT's depth" true
    (depths <> [] && List.for_all (fun d -> d = 1) depths)

(* Three closed-nested levels: an object read at depth 2, invalidated while
   depth 3 runs, rolls back to depth 2 alone.  Depth 1's reads survive the
   rollback, so they are fetched remotely only once. *)
let test_partial_abort_resumes_middle_depth () =
  let tracer = Obs.Tracer.create () in
  let cluster =
    Cluster.create ~nodes:13 ~seed:10 ~with_oracle:false ~tracer
      (Config.default Config.Closed)
  in
  let alloc n =
    List.init n (fun _ -> Cluster.alloc_object cluster ~init:(Store.Value.Int 0))
  in
  let d1 = alloc 2 and d2 = alloc 2 and d3 = alloc 5 in
  let bump = bump_once cluster ~oid:(List.hd d2) in
  let program () =
    Txn.nested (fun () ->
        Txn.bind (read_seq d1) (fun _ ->
            Txn.nested (fun () ->
                Txn.bind (read_seq d2) (fun _ ->
                    Txn.nested (fun () ->
                        bump ();
                        read_seq d3)))))
  in
  let outcome = ref None in
  Cluster.submit cluster ~node:5 program ~on_done:(fun o -> outcome := Some o);
  Cluster.drain cluster;
  expect_commit !outcome;
  Alcotest.(check int) "no root aborts" 0 (Metrics.root_aborts (Cluster.metrics cluster));
  let depths = resumed tracer in
  Alcotest.(check bool) "resumed depth 2" true
    (depths <> [] && List.for_all (fun d -> d = 2) depths);
  List.iter
    (fun oid ->
      let fetches =
        List.filter
          (fun (e : Obs.Tracer.event) -> e.oid = oid && e.b = 1)
          (events_of tracer Obs.Sem.txn_read)
      in
      Alcotest.(check int) "depth-1 object fetched once" 1 (List.length fetches))
    d1

(* The mirror case: invalidating an object owned by an *enclosing* scope
   (merged from an earlier CT) must abort the root, not the running CT. *)
let test_outer_conflict_aborts_root () =
  let cluster =
    Cluster.create ~nodes:13 ~seed:4 ~with_oracle:false (Config.default Config.Closed)
  in
  let oids = List.init 8 (fun _ -> Cluster.alloc_object cluster ~init:(Store.Value.Int 0)) in
  let a, rest = match oids with a :: rest -> (a, rest) | [] -> assert false in
  let program () =
    Txn.bind
      (Txn.nested (fun () -> Txn.read a))
      (fun _ -> Txn.nested (fun () -> read_seq rest))
  in
  (* [a] belongs to the first (already merged) CT: bump it while the second
     CT is still reading. *)
  bump_everywhere cluster ~at:150. ~oid:a ~version:1;
  let outcome = ref None in
  Cluster.submit cluster ~node:5 program ~on_done:(fun o -> outcome := Some o);
  Cluster.drain cluster;
  expect_commit !outcome;
  Alcotest.(check bool) "root aborted" true
    (Metrics.root_aborts (Cluster.metrics cluster) >= 1)

(* Under QR-CHK the same mid-flight invalidation rolls back to a checkpoint
   instead of restarting. *)
let test_checkpoint_rollback () =
  let tracer = Obs.Tracer.create () in
  let cluster =
    Cluster.create ~nodes:13 ~seed:5 ~with_oracle:false ~tracer
      (Config.default Config.Checkpoint)
  in
  let oids = List.init 8 (fun _ -> Cluster.alloc_object cluster ~init:(Store.Value.Int 0)) in
  let program () = read_seq oids in
  (* Invalidate the 4th object after it was read but before the txn ends. *)
  bump_everywhere cluster ~at:200. ~oid:(List.nth oids 3) ~version:1;
  let outcome = ref None in
  Cluster.submit cluster ~node:5 program ~on_done:(fun o -> outcome := Some o);
  Cluster.drain cluster;
  expect_commit !outcome;
  let metrics = Cluster.metrics cluster in
  Alcotest.(check bool) "checkpoints were created" true (Metrics.checkpoints metrics >= 4);
  Alcotest.(check bool) "rolled back partially" true (Metrics.partial_aborts metrics >= 1);
  Alcotest.(check int) "no full restart" 0 (Metrics.root_aborts metrics);
  Alcotest.(check bool) "resumed a checkpoint" true (resumed tracer <> [])

(* A checkpoint after every fetch: invalidating the second object read,
   after five checkpoints, rolls back to checkpoint 1 (the one in effect
   when it was read).  Checkpoints taken after the rollback get fresh ids:
   an id is never reused within an attempt. *)
let test_checkpoint_rollback_target () =
  let tracer = Obs.Tracer.create () in
  let cluster =
    Cluster.create ~nodes:13 ~seed:11 ~with_oracle:false ~tracer
      (Config.make ~checkpoint_threshold:1 Config.Checkpoint)
  in
  let oids = List.init 8 (fun _ -> Cluster.alloc_object cluster ~init:(Store.Value.Int 0)) in
  let first = List.filteri (fun i _ -> i < 5) oids
  and rest = List.filteri (fun i _ -> i >= 5) oids in
  let bump = bump_once cluster ~oid:(List.nth oids 1) in
  let program () =
    Txn.bind (read_seq first) (fun _ ->
        bump ();
        read_seq rest)
  in
  let outcome = ref None in
  Cluster.submit cluster ~node:5 program ~on_done:(fun o -> outcome := Some o);
  Cluster.drain cluster;
  expect_commit !outcome;
  Alcotest.(check int) "no full restart" 0 (Metrics.root_aborts (Cluster.metrics cluster));
  Alcotest.(check (list int)) "resumed checkpoint 1" [ 1 ] (resumed tracer);
  let rollback_at = (List.hd (events_of tracer Obs.Sem.scope_resume)).time in
  let chks = events_of tracer Obs.Sem.txn_checkpoint in
  Alcotest.(check bool) "at least 4 checkpoints before the rollback" true
    (List.length (List.filter (fun (e : Obs.Tracer.event) -> e.time < rollback_at) chks)
     >= 4);
  Alcotest.(check bool) "checkpoints after the rollback" true
    (List.exists (fun (e : Obs.Tracer.event) -> e.time > rollback_at) chks);
  let ids = List.map (fun (e : Obs.Tracer.event) -> e.a) chks in
  Alcotest.(check (list int)) "checkpoint ids keep rising" (List.init (List.length ids) succ) ids

(* Read-only commits: QR-CN commits locally (no commit_req messages);
   flat QR and QR-CHK pay the 2PC round (paper §III-A vs §IV-A). *)
let test_read_only_commit_messages () =
  let commit_reqs mode =
    let cluster =
      Cluster.create ~nodes:13 ~seed:6 ~with_oracle:false (Config.default mode)
    in
    let a = Cluster.alloc_object cluster ~init:(Store.Value.Int 1) in
    let b = Cluster.alloc_object cluster ~init:(Store.Value.Int 2) in
    begin
      match Cluster.run_program cluster ~node:4 (fun () -> read_seq [ a; b ]) with
      | Executor.Committed _ -> ()
      | Executor.Failed msg -> Alcotest.failf "read-only txn failed: %s" msg
    end;
    Cluster.drain cluster;
    match List.assoc_opt "commit_req" (Cluster.messages_by_kind cluster) with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check bool) "flat pays a commit round" true (commit_reqs Config.Flat > 0);
  Alcotest.(check int) "closed commits locally" 0 (commit_reqs Config.Closed);
  Alcotest.(check bool) "checkpoint pays a commit round" true
    (commit_reqs Config.Checkpoint > 0)

(* A QR-CN read-only root whose last read was served from a leased copy
   takes the commit round: no later read's Rqv confirmed that read, and the
   lease holder may have decided a commit still on its way to the copy. *)
let test_unconfirmed_read_takes_commit_round () =
  let cluster = Cluster.create ~nodes:13 ~seed:6 ~with_oracle:false (Config.default Config.Closed) in
  let a = Cluster.alloc_object cluster ~init:(Store.Value.Int 1) in
  let b = Cluster.alloc_object cluster ~init:(Store.Value.Int 2) in
  for node = 0 to Cluster.nodes cluster - 1 do
    ignore (Store.Replica.try_lock (Cluster.store_of cluster ~node) ~oid:b ~txn:999_999)
  done;
  Sim.Engine.schedule_at (Cluster.engine cluster) ~time:1000. (fun () ->
      for node = 0 to Cluster.nodes cluster - 1 do
        Store.Replica.unlock (Cluster.store_of cluster ~node) ~oid:b ~txn:999_999
      done);
  begin
    match Cluster.run_program cluster ~node:4 (fun () -> read_seq [ a; b ]) with
    | Executor.Committed _ -> ()
    | Executor.Failed msg -> Alcotest.failf "read-only txn failed: %s" msg
  end;
  Cluster.drain cluster;
  Alcotest.(check bool) "commit round taken" true
    (List.mem_assoc "commit_req" (Cluster.messages_by_kind cluster))

(* Zombie guard: a program that loops forever over locally cached reads is
   killed after max_steps_per_attempt and, with bounded attempts, fails. *)
let test_zombie_guard () =
  let config =
    Config.make ~max_steps_per_attempt:64 ~max_attempts:2 Config.Flat
  in
  let cluster = Cluster.create ~nodes:13 ~seed:7 ~with_oracle:false config in
  let a = Cluster.alloc_object cluster ~init:(Store.Value.Int 0) in
  let rec spin () = Txn.bind (Txn.read a) (fun _ -> spin ()) in
  match Cluster.run_program cluster ~node:2 spin with
  | Executor.Failed msg ->
    Alcotest.(check string) "max attempts" "max attempts exceeded" msg;
    Alcotest.(check bool) "aborts counted" true
      (Metrics.root_aborts (Cluster.metrics cluster) >= 1)
  | Executor.Committed _ -> Alcotest.fail "zombie committed"

let test_fail_program () =
  let cluster = Cluster.create ~nodes:13 ~seed:8 (Config.default Config.Closed) in
  match Cluster.run_program cluster ~node:1 (fun () -> Txn.fail "boom") with
  | Executor.Failed msg -> Alcotest.(check string) "fail surfaces" "boom" msg
  | Executor.Committed _ -> Alcotest.fail "Fail committed"

(* Write skew must be prevented: two transactions each read both objects
   and write one; serializability forbids both committing from the same
   snapshot. *)
let test_no_write_skew () =
  let cluster = Cluster.create ~nodes:13 ~seed:9 (Config.default Config.Closed) in
  let x = Cluster.alloc_object cluster ~init:(Store.Value.Int 1) in
  let y = Cluster.alloc_object cluster ~init:(Store.Value.Int 1) in
  (* Invariant: x + y >= 1.  Each txn decrements its target only if the
     *other* is still positive. *)
  let open Txn.Syntax in
  let withdraw target other =
    let* t = Txn.read target in
    let* o = Txn.read other in
    if Store.Value.to_int t + Store.Value.to_int o > 1 then
      Txn.write target (Store.Value.Int (Store.Value.to_int t - 1))
    else Txn.return Store.Value.Unit
  in
  let done_count = ref 0 in
  Cluster.submit cluster ~node:1 (fun () -> withdraw x y) ~on_done:(fun _ -> incr done_count);
  Cluster.submit cluster ~node:7 (fun () -> withdraw y x) ~on_done:(fun _ -> incr done_count);
  Cluster.drain cluster;
  Alcotest.(check int) "both finished" 2 !done_count;
  let read_back oid =
    match Cluster.run_program cluster ~node:0 (fun () -> Txn.read oid) with
    | Executor.Committed v -> Store.Value.to_int v
    | Executor.Failed msg -> Alcotest.failf "read back failed: %s" msg
  in
  let total = read_back x + read_back y in
  Alcotest.(check bool) "invariant survives (no write skew)" true (total >= 1);
  match Cluster.check_consistency cluster with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "oracle: %s" msg

let suite =
  [
    Alcotest.test_case "partial abort targets the running CT" `Quick
      test_partial_abort_targets_ct;
    Alcotest.test_case "partial abort resumes the middle depth" `Quick
      test_partial_abort_resumes_middle_depth;
    Alcotest.test_case "outer-scope conflict aborts the root" `Quick
      test_outer_conflict_aborts_root;
    Alcotest.test_case "checkpoint rollback instead of restart" `Quick
      test_checkpoint_rollback;
    Alcotest.test_case "checkpoint rollback lands on the target" `Quick
      test_checkpoint_rollback_target;
    Alcotest.test_case "read-only commit locality per mode" `Quick
      test_read_only_commit_messages;
    Alcotest.test_case "unconfirmed last read takes the commit round" `Quick
      test_unconfirmed_read_takes_commit_round;
    Alcotest.test_case "zombie guard caps runaway attempts" `Quick test_zombie_guard;
    Alcotest.test_case "Txn.fail surfaces as Failed" `Quick test_fail_program;
    Alcotest.test_case "no write skew" `Quick test_no_write_skew;
  ]
