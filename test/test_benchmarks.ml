(* Benchmark-library unit tests: workload helpers, program re-runnability,
   bank/vacation invariants, registry lookups. *)

open Core

let test_registry () =
  Alcotest.(check int) "five paper benchmarks" 5
    (List.length Benchmarks.Registry.paper_suite);
  Alcotest.(check (list string)) "names"
    [ "bank"; "hashmap"; "slist"; "rbtree"; "vacation"; "bst"; "counter" ]
    (Benchmarks.Registry.names ());
  Alcotest.(check bool) "find hit" true (Benchmarks.Registry.find "slist" <> None);
  Alcotest.(check bool) "find miss" true (Benchmarks.Registry.find "nope" = None)

let test_workload_helpers () =
  let rng = Util.Rng.create 4 in
  let params = { Benchmarks.Workload.default_params with objects = 10; key_skew = 0.9 } in
  for _ = 1 to 100 do
    let k = Benchmarks.Workload.pick_key rng params in
    Alcotest.(check bool) "key in range" true (k >= 0 && k < 10)
  done;
  (* seq returns the last program's value. *)
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 0 (Store.Value.Int 1);
  Hashtbl.replace table 1 (Store.Value.Int 2);
  let rec eval = function
    | Txn.Return v -> v
    | Txn.Read (oid, k) -> eval (k (Hashtbl.find table oid))
    | Txn.Write (oid, v, k) ->
      Hashtbl.replace table oid v;
      eval (k ())
    | Txn.Nested (body, k) -> eval (k (eval (body ())))
    | Txn.Open { body; k; _ } -> eval (k (eval (body ())))
    | Txn.Checkpoint k -> eval (k ())
    | Txn.Fail msg -> Alcotest.failf "eval hit %s" msg
  in
  Alcotest.(check bool) "seq returns last" true
    (Store.Value.equal (Store.Value.Int 2)
       (eval (Benchmarks.Workload.seq [ Txn.read 0; Txn.read 1 ])));
  Alcotest.(check bool) "empty seq returns unit" true
    (Store.Value.equal Store.Value.Unit (eval (Benchmarks.Workload.seq [])))

(* Generated programs must be re-runnable: the executor re-invokes the same
   thunk on every retry, so invoking it twice must target the same first
   object and both executions must commit. *)
let rec first_oid = function
  | Txn.Read (oid, _) | Txn.Write (oid, _, _) -> Some oid
  | Txn.Nested (body, _) | Txn.Open { body; _ } -> first_oid (body ())
  | Txn.Checkpoint k -> first_oid (k ())
  | Txn.Return _ | Txn.Fail _ -> None

let test_generated_programs_rerunnable () =
  List.iter
    (fun (benchmark : Benchmarks.Workload.benchmark) ->
      let cluster =
        Cluster.create ~nodes:13 ~seed:51 ~with_oracle:false (Config.default Config.Flat)
      in
      let instance =
        benchmark.setup cluster
          { Benchmarks.Workload.default_params with objects = 16; calls = 2; read_ratio = 0.5; key_skew = 0.3 }
      in
      let program = instance.generate (Util.Rng.create 9) in
      Alcotest.(check (option int))
        (benchmark.name ^ " same first object across invocations")
        (first_oid (program ())) (first_oid (program ()));
      for run = 1 to 2 do
        match Cluster.run_program cluster ~node:3 program with
        | Executor.Committed _ -> ()
        | Executor.Failed msg -> Alcotest.failf "%s run %d failed: %s" benchmark.name run msg
      done)
    Benchmarks.Registry.all

let test_vacation_reserve_decrements () =
  let cluster = Cluster.create ~nodes:13 ~seed:52 (Config.default Config.Closed) in
  let handle = Benchmarks.Vacation.create cluster ~offers_per_category:3 in
  let rng = Util.Rng.create 3 in
  let price =
    match
      Cluster.run_program cluster ~node:1 (fun () ->
          Benchmarks.Vacation.reserve handle rng ~category:0)
    with
    | Executor.Committed (Store.Value.Int price) -> price
    | Executor.Committed v -> Alcotest.failf "unexpected %s" (Store.Value.to_string v)
    | Executor.Failed msg -> Alcotest.failf "reserve failed: %s" msg
  in
  Cluster.drain cluster;
  Alcotest.(check bool) "positive price" true (price > 0);
  Alcotest.(check int) "one seat reserved" 1
    (Benchmarks.Vacation.total_reserved cluster handle);
  match Benchmarks.Vacation.check_offers cluster handle with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_vacation_never_oversells () =
  (* 20 seats per offer, 3 offers in category 0; hammer it with far more
     reservation attempts than stock from many nodes. *)
  let cluster = Cluster.create ~nodes:13 ~seed:53 (Config.default Config.Flat) in
  let handle = Benchmarks.Vacation.create cluster ~offers_per_category:1 in
  let rng = Util.Rng.create 5 in
  let finished = ref 0 in
  let rec client node remaining rng =
    if remaining > 0 then
      Cluster.submit cluster ~node (fun () ->
          Benchmarks.Vacation.reserve handle rng ~category:0)
        ~on_done:(fun _ -> client node (remaining - 1) rng)
    else incr finished
  in
  for c = 0 to 7 do
    client (c mod 13) 5 (Util.Rng.split rng)
  done;
  Cluster.drain cluster;
  Alcotest.(check int) "clients done" 8 !finished;
  begin
    match Benchmarks.Vacation.check_offers cluster handle with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  (* 40 attempts against 20 seats: exactly the stock is reserved. *)
  Alcotest.(check int) "sold out exactly" 20
    (Benchmarks.Vacation.total_reserved cluster handle)

let test_bank_transfer_conserves () =
  let cluster = Cluster.create ~nodes:13 ~seed:54 (Config.default Config.Closed) in
  let accounts =
    Array.init 4 (fun _ ->
        Cluster.alloc_object cluster ~init:(Store.Value.Int Benchmarks.Bank.initial_balance))
  in
  begin
    match
      Cluster.run_program cluster ~node:2 (fun () ->
          Benchmarks.Bank.transfer ~from_:accounts.(0) ~to_:accounts.(3) ~amount:250)
    with
    | Executor.Committed _ -> ()
    | Executor.Failed msg -> Alcotest.failf "transfer failed: %s" msg
  end;
  Cluster.drain cluster;
  Alcotest.(check int) "conserved" (4 * Benchmarks.Bank.initial_balance)
    (Benchmarks.Bank.total_balance cluster ~accounts);
  Alcotest.(check bool) "moved" true
    (Store.Value.to_int (Benchmarks.Workload.latest_value cluster ~oid:accounts.(3))
    = Benchmarks.Bank.initial_balance + 250)

(* [Bank.setup] buckets accounts by shard once, but a cross-shard pick
   reads the account's home live.  After a move, the moved account's old
   bucket still lists it, and drawing it as its own counterpart makes
   [transfer a a]: two reads of [a], then writes of [x - amt] and
   [x + amt] — money from nowhere.  Every transfer must name two
   accounts. *)
let test_bank_cross_pick_never_self () =
  let cluster =
    Cluster.create ~nodes:6 ~shards:2 ~seed:55 ~with_oracle:false
      (Config.default Config.Closed)
  in
  let instance =
    Benchmarks.Bank.benchmark.setup cluster
      {
        Benchmarks.Workload.default_params with
        objects = 4;
        read_ratio = 0.;
        cross_shard_prob = 1.;
      }
  in
  Alcotest.(check int) "account 0 starts on shard 0" 0 (Cluster.shard_of_oid cluster 0);
  Cluster.view_change_at cluster ~at:1. (Move { oid = 0; to_shard = 1 });
  Cluster.drain cluster;
  Alcotest.(check int) "account 0 moved to shard 1" 1 (Cluster.shard_of_oid cluster 0);
  let writes = ref [] in
  let rec eval = function
    | Txn.Return v -> v
    | Txn.Read (_, k) -> eval (k (Store.Value.Int Benchmarks.Bank.initial_balance))
    | Txn.Write (oid, _, k) ->
      writes := oid :: !writes;
      eval (k ())
    | Txn.Nested (body, k) -> eval (k (eval (body ())))
    | Txn.Open { body; k; _ } -> eval (k (eval (body ())))
    | Txn.Checkpoint k -> eval (k ())
    | Txn.Fail msg -> Alcotest.failf "eval hit %s" msg
  in
  let rng = Util.Rng.create 7 in
  for _ = 1 to 200 do
    ignore (eval (instance.generate rng ()))
  done;
  (* A transfer writes its source, then its destination. *)
  let rec self_transfers = function
    | a :: b :: rest -> (if a = b then 1 else 0) + self_transfers rest
    | [ _ ] | [] -> 0
  in
  Alcotest.(check int) "600 transfers drawn" 1200 (List.length !writes);
  Alcotest.(check int) "no transfer from an account to itself" 0
    (self_transfers (List.rev !writes))

let test_skiplist_height_deterministic () =
  for key = 0 to 200 do
    let h = Benchmarks.Skiplist.height_of key in
    Alcotest.(check bool) "height in range" true (h >= 1 && h <= Benchmarks.Skiplist.max_level);
    Alcotest.(check int) "deterministic" h (Benchmarks.Skiplist.height_of key)
  done

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "workload helpers" `Quick test_workload_helpers;
    Alcotest.test_case "generated programs re-runnable" `Quick
      test_generated_programs_rerunnable;
    Alcotest.test_case "vacation reserve decrements" `Quick test_vacation_reserve_decrements;
    Alcotest.test_case "vacation never oversells" `Quick test_vacation_never_oversells;
    Alcotest.test_case "bank transfer conserves" `Quick test_bank_transfer_conserves;
    Alcotest.test_case "bank cross pick never self" `Quick test_bank_cross_pick_never_self;
    Alcotest.test_case "skiplist height deterministic" `Quick
      test_skiplist_height_deterministic;
  ]
