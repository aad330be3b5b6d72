(* Value codecs, replica store semantics (versioning, locks, a model-based
   property test), multiversion history. *)

open Store

let value_testable = Alcotest.testable Value.pp Value.equal

let test_value_accessors () =
  Alcotest.(check int) "int" 5 (Value.to_int (Value.Int 5));
  Alcotest.(check bool) "bool" true (Value.to_bool (Value.Bool true));
  Alcotest.(check string) "str" "x" (Value.to_str (Value.Str "x"));
  Alcotest.check value_testable "field" (Value.Int 2)
    (Value.field (Value.List [ Value.Int 1; Value.Int 2 ]) 1);
  Alcotest.check value_testable "with_field"
    (Value.List [ Value.Int 1; Value.Int 9 ])
    (Value.with_field (Value.List [ Value.Int 1; Value.Int 2 ]) 1 (Value.Int 9));
  Alcotest.(check (option int)) "int_opt none" None (Value.int_opt Value.Unit);
  Alcotest.check_raises "shape error"
    (Invalid_argument "Value: expected Int, got true")
    (fun () -> ignore (Value.to_int (Value.Bool true)))

let value_equal_reflexive =
  let rec gen_value depth =
    QCheck.Gen.(
      if depth = 0 then
        oneof [ return Value.Unit; map (fun i -> Value.Int i) int; map (fun b -> Value.Bool b) bool ]
      else
        oneof
          [
            map (fun i -> Value.Int i) int;
            map (fun s -> Value.Str s) string_small;
            map (fun l -> Value.List l) (list_size (int_range 0 4) (gen_value (depth - 1)));
          ])
  in
  QCheck.Test.make ~name:"value equality is reflexive" ~count:200
    (QCheck.make (gen_value 3))
    (fun v -> Value.equal v v)

let test_replica_versioning () =
  let store = Replica.create () in
  Replica.ensure store ~oid:1 ~init:(Value.Int 0);
  Replica.ensure store ~oid:1 ~init:(Value.Int 99);
  Alcotest.check value_testable "ensure is idempotent" (Value.Int 0) (Replica.get store 1).value;
  Alcotest.(check int) "initial version" 0 (Replica.version store 1);
  Replica.apply store ~oid:1 ~version:3 ~value:(Value.Int 30) ~txn:7;
  Alcotest.(check int) "applied version" 3 (Replica.version store 1);
  (* Stale apply from a lagging replica is ignored. *)
  Replica.apply store ~oid:1 ~version:2 ~value:(Value.Int 20) ~txn:8;
  Alcotest.(check int) "stale apply ignored" 3 (Replica.version store 1);
  Alcotest.check value_testable "value kept" (Value.Int 30) (Replica.get store 1).value;
  Replica.install store ~oid:1 ~init:(Value.Int 5);
  Alcotest.(check int) "install resets" 0 (Replica.version store 1)

let test_replica_locks () =
  let store = Replica.create () in
  Replica.ensure store ~oid:1 ~init:Value.Unit;
  Alcotest.(check bool) "lock free" true (Replica.try_lock store ~oid:1 ~txn:10);
  Alcotest.(check bool) "re-lock by owner" true (Replica.try_lock store ~oid:1 ~txn:10);
  Alcotest.(check bool) "other txn denied" false (Replica.try_lock store ~oid:1 ~txn:11);
  Alcotest.(check bool) "protected against other" true
    (Replica.is_protected store ~oid:1 ~against:11);
  Alcotest.(check bool) "not protected against owner" false
    (Replica.is_protected store ~oid:1 ~against:10);
  Replica.unlock store ~oid:1 ~txn:11;
  Alcotest.(check bool) "foreign unlock ignored" true
    (Replica.is_protected store ~oid:1 ~against:11);
  Replica.unlock store ~oid:1 ~txn:10;
  Alcotest.(check bool) "owner unlock works" true (Replica.try_lock store ~oid:1 ~txn:11);
  (* Apply releases the committing transaction's lock. *)
  Replica.apply store ~oid:1 ~version:1 ~value:(Value.Int 1) ~txn:11;
  Alcotest.(check bool) "apply releases lock" true (Replica.try_lock store ~oid:1 ~txn:12)

(* --- the replica against a model ------------------------------------------

   Random operation sequences run against [Replica] and against an
   association-list model of what it must do; after every operation all
   observables must agree, including the ascending oid order of [dump] and
   [held_leases].  Oids mix a dense prefix, sparse ids and ids past the
   initial capacity; -1 is never hosted. *)

type mlease = { owner : int; expires : float; round : int; prev : mlease option }
type mcopy = { mversion : int; mvalue : int; lease : mlease option }
type model = { copies : (int * mcopy) list; applied : int list }

type op =
  | Install of int * int  (** oid, initial value *)
  | Ensure of int * int
  | Sync of int * int * int  (** oid, version, value *)
  | Lock of int * int * float * int  (** oid, txn, expires, round *)
  | Handover of int * int * int * float * int
      (** oid, prev owner (-1: whoever holds the lease), txn, expires, round *)
  | Unlock of int * int * int option * bool  (** oid, txn, round, restore *)
  | Apply of int * int * int * int  (** oid, version, value, txn *)
  | Renew of int * float  (** txn, expires *)
  | Reset

let show_op = function
  | Install (o, v) -> Printf.sprintf "install %d=%d" o v
  | Ensure (o, v) -> Printf.sprintf "ensure %d=%d" o v
  | Sync (o, ver, v) -> Printf.sprintf "sync %d v%d=%d" o ver v
  | Lock (o, t, e, r) -> Printf.sprintf "lock %d t%d e%g r%d" o t e r
  | Handover (o, p, t, e, r) -> Printf.sprintf "handover %d t%d->t%d e%g r%d" o p t e r
  | Unlock (o, t, r, restore) ->
    Printf.sprintf "unlock %d t%d r%s%s" o t
      (match r with Some r -> string_of_int r | None -> "-")
      (if restore then "" else " norestore")
  | Apply (o, ver, v, t) -> Printf.sprintf "apply %d v%d=%d t%d" o ver v t
  | Renew (t, e) -> Printf.sprintf "renew t%d e%g" t e
  | Reset -> "reset"

let op_gen =
  let open QCheck.Gen in
  let oid =
    frequency
      [ (6, int_range 0 3); (2, int_range 200 300); (2, int_range 1000 1100); (1, return (-1)) ]
  in
  let txn = int_range 1 3 and round = int_range 0 3 and small = int_range 0 9 in
  let expires = oneofl [ 1.; 2.; 5.; Float.infinity ] in
  frequency
    [
      (3, map2 (fun o v -> Install (o, v)) oid small);
      (3, map2 (fun o v -> Ensure (o, v)) oid small);
      (2, map3 (fun o ver v -> Sync (o, ver, v)) oid (int_range 0 5) small);
      (5, map3 (fun (o, t) e r -> Lock (o, t, e, r)) (pair oid txn) expires round);
      ( 5,
        map3
          (fun (o, p) (t, e) r -> Handover (o, p, t, e, r))
          (pair oid (frequency [ (2, return (-1)); (1, txn) ]))
          (pair txn expires) round );
      (4, map3 (fun (o, t) r b -> Unlock (o, t, r, b)) (pair oid txn) (opt round) bool);
      (3, map3 (fun (o, ver) v t -> Apply (o, ver, v, t)) (pair oid (int_range 0 5)) small txn);
      (2, map2 (fun t e -> Renew (t, e)) txn expires);
      (1, return Reset);
    ]

let rec chain = function
  | None -> []
  | Some (l : Replica.lease) -> (l.owner, l.round, l.expires) :: chain l.prev

let rec mchain = function None -> [] | Some l -> (l.owner, l.round, l.expires) :: mchain l.prev

let grant c ~txn ~expires ~round =
  match c.lease with
  | None -> ({ c with lease = Some { owner = txn; expires; round; prev = None } }, true)
  | Some l when l.owner = txn ->
    let l = { l with expires = Float.max l.expires expires; round = max l.round round } in
    ({ c with lease = Some l }, true)
  | Some _ -> (c, false)

(* The model's step: the new model, the lock verdict if any, and the
   leases [unlock] restored; [None] when the replica must raise
   [Invalid_argument] (an unhosted copy, or a negative oid to install). *)
let model_step m op =
  let find oid = List.assoc_opt oid m.copies in
  let put oid c = { m with copies = (oid, c) :: List.remove_assoc oid m.copies } in
  let fresh version value = { mversion = version; mvalue = value; lease = None } in
  let on_copy oid f = Option.map f (find oid) in
  match op with
  | Install (oid, v) -> if oid < 0 then None else Some (put oid (fresh 0 v), None, [])
  | Ensure (oid, v) ->
    if oid < 0 then None
    else Some ((if Option.is_some (find oid) then m else put oid (fresh 0 v)), None, [])
  | Sync (oid, ver, v) ->
    if oid < 0 then None
    else (
      match find oid with
      | Some c when ver <= c.mversion -> Some (m, None, [])
      | Some _ | None -> Some (put oid (fresh ver v), None, []))
  | Lock (oid, txn, expires, round) ->
    on_copy oid (fun c ->
        let c, ok = grant c ~txn ~expires ~round in
        (put oid c, Some ok, []))
  | Handover (oid, prev_owner, txn, expires, round) ->
    on_copy oid (fun c ->
        match c.lease with
        | Some l when l.owner = prev_owner ->
          let lease = { owner = txn; expires; round; prev = Some l } in
          (put oid { c with lease = Some lease }, Some true, [])
        | Some _ | None ->
          let c, ok = grant c ~txn ~expires ~round in
          (put oid c, Some ok, []))
  | Unlock (oid, txn, round, restore) ->
    on_copy oid (fun c ->
        match c.lease with
        | Some l
          when l.owner = txn && match round with Some r -> r >= l.round | None -> true -> (
          match if restore then l.prev else None with
          | Some p -> (put oid { c with lease = Some p }, None, [ (oid, p.owner, p.expires) ])
          | None -> (put oid { c with lease = None }, None, []))
        | Some _ | None -> (m, None, []))
  | Apply (oid, ver, v, txn) ->
    on_copy oid (fun c ->
        let c = if ver > c.mversion then { c with mversion = ver; mvalue = v } else c in
        let rec scrub l =
          match l.prev with
          | Some p when p.owner = txn -> scrub { l with prev = p.prev }
          | Some p -> { l with prev = Some (scrub p) }
          | None -> l
        in
        let lease =
          match c.lease with
          | Some l -> (
            match scrub l with l when l.owner = txn -> None | l -> Some l)
          | None -> None
        in
        let m = put oid { c with lease } in
        ({ m with applied = txn :: m.applied }, None, []))
  | Renew (txn, expires) ->
    let renew (oid, c) =
      match c.lease with
      | Some l when l.owner = txn ->
        (oid, { c with lease = Some { l with expires = Float.max l.expires expires } })
      | Some _ | None -> (oid, c)
    in
    Some ({ m with copies = List.map renew m.copies }, None, [])
  | Reset ->
    let copies = List.map (fun (oid, c) -> (oid, { c with lease = None })) m.copies in
    Some ({ copies; applied = [] }, None, [])

let real_step store op =
  match op with
  | Install (oid, v) -> Replica.install store ~oid ~init:(Value.Int v); None
  | Ensure (oid, v) -> Replica.ensure store ~oid ~init:(Value.Int v); None
  | Sync (oid, version, v) -> Replica.sync_copy store ~oid ~version ~value:(Value.Int v); None
  | Lock (oid, txn, expires, round) -> Some (Replica.try_lock ~expires ~round store ~oid ~txn)
  | Handover (oid, prev_owner, txn, expires, round) ->
    Some (Replica.handover ~expires ~round store ~oid ~prev_owner ~txn)
  | Unlock (oid, txn, round, restore) -> Replica.unlock ?round ~restore store ~oid ~txn; None
  | Apply (oid, version, v, txn) ->
    Replica.apply store ~oid ~version ~value:(Value.Int v) ~txn; None
  | Renew (txn, expires) -> Replica.renew store ~txn ~expires; None
  | Reset -> Replica.reset_transients store; None

(* Every observable of a store, over the given oids and txns. *)
type chain = (int * int * float) list  (** (owner, round, expires), head first *)

type observed = {
  per_oid : (int * bool * (int * Value.t * chain) option * (int * chain) option) list;
      (** mem, find (version, value, lease chain), version + lease_of *)
  per_txn : (int list * bool) list;  (** sorted leased_oids, was_applied *)
  held : (int * int * float) list;
  dumped : (int * int * Value.t) list;
}

let observe_real store ~oids ~txns =
  let copy oid =
    let found =
      Option.map
        (fun (c : Replica.copy) -> (c.version, c.value, chain c.protected_by))
        (Replica.find store oid)
    in
    let via_accessors =
      match (Replica.version store oid, Replica.lease_of store oid) with
      | version, lease -> Some (version, chain lease)
      | exception Invalid_argument _ -> None
    in
    (oid, Replica.mem store oid, found, via_accessors)
  in
  {
    per_oid = List.map copy oids;
    per_txn =
      List.map
        (fun txn ->
          (List.sort Int.compare (Replica.leased_oids store ~txn), Replica.was_applied store ~txn))
        txns;
    held = Replica.held_leases store;
    dumped = Replica.dump store;
  }

let observe_model m ~oids ~txns =
  let copy oid =
    match List.assoc_opt oid m.copies with
    | Some c ->
      let lease = mchain c.lease in
      (oid, true, Some (c.mversion, Value.Int c.mvalue, lease), Some (c.mversion, lease))
    | None -> (oid, false, None, None)
  in
  let ascending = List.sort (fun (a, _) (b, _) -> Int.compare a b) m.copies in
  let leased txn =
    List.filter_map
      (fun (oid, c) ->
        match c.lease with Some l when l.owner = txn -> Some oid | Some _ | None -> None)
      ascending
  in
  {
    per_oid = List.map copy oids;
    per_txn = List.map (fun txn -> (leased txn, List.mem txn m.applied)) txns;
    held =
      List.filter_map
        (fun (oid, c) -> Option.map (fun l -> (oid, l.owner, l.expires)) c.lease)
        ascending;
    dumped = List.map (fun (oid, c) -> (oid, c.mversion, Value.Int c.mvalue)) ascending;
  }

let replica_matches_model =
  QCheck.Test.make ~name:"replica matches a list model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 60) op_gen))
    (fun ops ->
      let store = Replica.create () in
      let restored = ref [] in
      Replica.set_on_restore store (fun ~oid ~owner ~expires ->
          restored := (oid, owner, expires) :: !restored);
      let mentioned =
        List.filter_map
          (function
            | Install (o, _) | Ensure (o, _) | Sync (o, _, _) | Lock (o, _, _, _)
            | Handover (o, _, _, _, _) | Unlock (o, _, _, _) | Apply (o, _, _, _) ->
              Some o
            | Renew _ | Reset -> None)
          ops
      in
      let oids = List.sort_uniq Int.compare ([ -1; 0; 255; 256; 5000 ] @ mentioned) in
      let txns = [ 1; 2; 3 ] in
      let run m i op =
        let check what want got =
          if want <> got then QCheck.Test.fail_reportf "step %d (%s): %s" i (show_op op) what
        in
        (* [install] is setup-time only: never over a live lease. *)
        let over_lease =
          match op with
          | Install (oid, _) -> (
            match List.assoc_opt oid m.copies with
            | Some { lease = Some _; _ } -> true
            | Some { lease = None; _ } | None -> false)
          | Ensure _ | Sync _ | Lock _ | Handover _ | Unlock _ | Apply _ | Renew _ | Reset -> false
        in
        (* Chains of displaced leases need handovers from the actual holder. *)
        let op =
          match op with
          | Handover (oid, -1, txn, e, r) ->
            let holder =
              match List.assoc_opt oid m.copies with
              | Some { lease = Some l; _ } -> l.owner
              | Some { lease = None; _ } | None -> txn
            in
            Handover (oid, holder, txn, e, r)
          | op -> op
        in
        if over_lease then m
        else begin
          restored := [];
          let actual =
            match real_step store op with r -> Some r | exception Invalid_argument _ -> None
          in
          let m =
            match (model_step m op, actual) with
            | Some (m, verdict, restores), Some got ->
              check "lock verdict" verdict got;
              check "restore hook" restores !restored;
              m
            | None, None -> m
            | Some _, None -> QCheck.Test.fail_reportf "step %d (%s): unexpected raise" i (show_op op)
            | None, Some _ -> QCheck.Test.fail_reportf "step %d (%s): should raise" i (show_op op)
          in
          let want = observe_model m ~oids ~txns and got = observe_real store ~oids ~txns in
          check "mem/find/version/lease_of" want.per_oid got.per_oid;
          check "leased_oids/was_applied" want.per_txn got.per_txn;
          check "held_leases (ascending oid)" want.held got.held;
          check "dump (ascending oid)" want.dumped got.dumped;
          m
        end
      in
      ignore
        (List.fold_left
           (fun (m, i) op -> (run m i op, i + 1))
           ({ copies = []; applied = [] }, 0)
           ops);
      true)

let test_multiversion () =
  let mv = Multiversion.create ~history_limit:3 () in
  Multiversion.ensure mv ~oid:1 ~init:(Value.Int 0);
  Alcotest.(check int) "initial version" 0 (Multiversion.version mv ~oid:1);
  Multiversion.commit mv ~oid:1 ~version:1 ~value:(Value.Int 10) ~time:10.;
  Multiversion.commit mv ~oid:1 ~version:2 ~value:(Value.Int 20) ~time:20.;
  Multiversion.commit mv ~oid:1 ~version:2 ~value:(Value.Int 99) ~time:25.;
  Alcotest.(check int) "duplicate version ignored" 2 (Multiversion.version mv ~oid:1);
  Alcotest.check value_testable "latest" (Value.Int 20) (snd (Multiversion.latest mv ~oid:1));
  (* Snapshot reads. *)
  begin
    match Multiversion.at_or_before mv ~oid:1 ~time:15. with
    | Some (1, v) -> Alcotest.check value_testable "snapshot at 15" (Value.Int 10) v
    | Some (n, _) -> Alcotest.failf "wrong version %d" n
    | None -> Alcotest.fail "history missing"
  end;
  (* Trimming: the limit is 3 versions, so after two more commits the
     oldest snapshots become unreadable. *)
  Multiversion.commit mv ~oid:1 ~version:3 ~value:(Value.Int 30) ~time:30.;
  Multiversion.commit mv ~oid:1 ~version:4 ~value:(Value.Int 40) ~time:40.;
  Alcotest.(check (option (pair int value_testable))) "trimmed snapshot" None
    (Multiversion.at_or_before mv ~oid:1 ~time:5.)

let suite =
  [
    Alcotest.test_case "value accessors" `Quick test_value_accessors;
    Alcotest.test_case "replica versioning" `Quick test_replica_versioning;
    Alcotest.test_case "replica locks" `Quick test_replica_locks;
    Alcotest.test_case "multiversion history" `Quick test_multiversion;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ value_equal_reflexive; replica_matches_model ]
