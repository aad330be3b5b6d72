(* Tests for the discrete-event simulation substrate: engine ordering,
   topology metrics, network delivery/queueing/failures, RPC collection and
   timeouts, failure detection. *)

let test_engine_ordering () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  Sim.Engine.schedule engine ~delay:5. (note "c");
  Sim.Engine.schedule engine ~delay:1. (note "a");
  Sim.Engine.schedule engine ~delay:1. (note "b"); (* FIFO at equal time *)
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "time then FIFO order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 5. (Sim.Engine.now engine);
  Alcotest.(check int) "events processed" 3 (Sim.Engine.events_processed engine)

let test_engine_until () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule engine ~delay:10. (fun () -> incr fired);
  Sim.Engine.schedule engine ~delay:30. (fun () -> incr fired);
  Sim.Engine.run ~until:20. engine;
  Alcotest.(check int) "only the early event" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock set to limit" 20. (Sim.Engine.now engine);
  Alcotest.(check int) "one pending" 1 (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  Alcotest.(check int) "rest drained" 2 !fired

let test_engine_nested_schedule () =
  let engine = Sim.Engine.create () in
  let hits = ref [] in
  Sim.Engine.schedule engine ~delay:1. (fun () ->
      hits := Sim.Engine.now engine :: !hits;
      Sim.Engine.schedule engine ~delay:2. (fun () ->
          hits := Sim.Engine.now engine :: !hits));
  Sim.Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "nested times" [ 1.; 3. ] (List.rev !hits)

(* Model-based check of the event queue: random interleavings of every way
   to schedule (relative, absolute, reserved seq, and two FIFO lanes fed
   both in and out of time order) with [step] and [run ~until].  Bursts
   push well past the initial 64 entries, so the heap columns, the action
   slots and the lane rings all grow, a ring often while it wraps.  The model
   is a list sorted by (time, seq); the engine must fire exactly its order
   at exactly its times, and [pending] must track its size throughout. *)
type queue_op =
  | Sched of float (* schedule ~delay *)
  | At of float (* schedule_at, possibly in the past *)
  | Reserved of float (* reserve_seq + schedule_at_seq *)
  | In of int * float (* schedule_in lane, at now + delay *)
  | In_at of int * float (* schedule_in lane, at an absolute time *)
  | Step
  | Until of float (* run ~until:(now + d) *)
  | Burst of int * float
      (* n events at now + d + k/3, k = 0 .. n-1, on the heap and the two
         lanes in turn *)

let show_queue_op = function
  | Sched d -> Printf.sprintf "Sched %g" d
  | At x -> Printf.sprintf "At %g" x
  | Reserved x -> Printf.sprintf "Reserved %g" x
  | In (l, d) -> Printf.sprintf "In (%d, %g)" l d
  | In_at (l, x) -> Printf.sprintf "In_at (%d, %g)" l x
  | Step -> "Step"
  | Until d -> Printf.sprintf "Until %g" d
  | Burst (n, d) -> Printf.sprintf "Burst (%d, %g)" n d

let queue_ops =
  let open QCheck.Gen in
  (* Small integral times, so equal times (seq tie-breaks) are common. *)
  let t = map Float.of_int (int_range 0 12) in
  let lane = int_range 0 1 in
  let op =
    frequency
      [
        (2, map (fun d -> Sched d) t);
        (2, map (fun x -> At x) t);
        (1, map (fun x -> Reserved x) t);
        (3, map2 (fun l d -> In (l, d)) lane t);
        (1, map2 (fun l x -> In_at (l, x)) lane t);
        (3, return Step);
        (1, map (fun d -> Until d) t);
        (1, map2 (fun n d -> Burst (n, d)) (int_range 50 150) t);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_queue_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 0 120) op)

let engine_queue_matches_model =
  QCheck.Test.make ~name:"engine queue matches (time, seq) model" ~count:300 queue_ops
    (fun ops ->
      let engine = Sim.Engine.create () in
      let lanes = [| Sim.Engine.new_lane engine; Sim.Engine.new_lane engine |] in
      let fired = ref [] and expected = ref [] in
      let model = ref [] and clock = ref 0. and next_seq = ref 0 in
      let add ~time push =
        let time = Float.max time !clock and seq = !next_seq in
        incr next_seq;
        model := List.merge compare !model [ (time, seq) ];
        push (fun () -> fired := (Sim.Engine.now engine, seq) :: !fired)
      in
      let fire_model () =
        match !model with
        | [] -> ()
        | (time, seq) :: rest ->
          model := rest;
          clock := time;
          expected := (time, seq) :: !expected
      in
      let rec fire_until limit =
        match !model with
        | (time, _) :: _ when time <= limit ->
          fire_model ();
          fire_until limit
        | _ -> clock := Float.max !clock limit
      in
      let apply = function
        | Sched d ->
          add ~time:(!clock +. d) (fun f -> Sim.Engine.schedule engine ~delay:d f)
        | At x -> add ~time:x (fun f -> Sim.Engine.schedule_at engine ~time:x f)
        | Reserved x ->
          add ~time:x (fun f ->
              let seq = Sim.Engine.reserve_seq engine in
              Sim.Engine.schedule_at_seq engine ~time:x ~seq f)
        | In (l, d) ->
          let time = !clock +. d in
          add ~time (fun f -> Sim.Engine.schedule_in engine lanes.(l) ~time f)
        | In_at (l, x) ->
          add ~time:x (fun f -> Sim.Engine.schedule_in engine lanes.(l) ~time:x f)
        | Step ->
          let stepped = Sim.Engine.step engine in
          if stepped <> (!model <> []) then failwith "step disagrees on emptiness";
          fire_model ()
        | Until d ->
          let limit = !clock +. d in
          Sim.Engine.run ~until:limit engine;
          fire_until limit
        | Burst (n, d) ->
          for k = 0 to n - 1 do
            let time = !clock +. d +. Float.of_int (k / 3) in
            match k mod 3 with
            | 0 -> add ~time (fun f -> Sim.Engine.schedule_at engine ~time f)
            | l -> add ~time (fun f -> Sim.Engine.schedule_in engine lanes.(l - 1) ~time f)
          done
      in
      let in_step () =
        Sim.Engine.pending engine = List.length !model && Sim.Engine.now engine = !clock
      in
      List.for_all
        (fun op ->
          apply op;
          in_step () && !fired = !expected)
        ops
      &&
      (Sim.Engine.run engine;
       while !model <> [] do
         fire_model ()
       done;
       !fired = !expected && Sim.Engine.pending engine = 0))

let test_topology_mean_latency () =
  let topology = Sim.Topology.create ~seed:1 ~mean_latency:15. ~nodes:20 () in
  let mean = Sim.Topology.mean_remote_latency topology in
  Alcotest.(check bool) "mean close to target" true (Float.abs (mean -. 15.) < 0.5);
  Alcotest.(check (float 1e-9)) "self latency small" 0.05
    (Sim.Topology.latency topology ~src:3 ~dst:3);
  (* Symmetry. *)
  Alcotest.(check (float 1e-9)) "symmetric"
    (Sim.Topology.latency topology ~src:2 ~dst:7)
    (Sim.Topology.latency topology ~src:7 ~dst:2)

let test_uniform_topology () =
  let topology = Sim.Topology.uniform ~latency:5. ~nodes:4 () in
  Alcotest.(check (float 1e-9)) "uniform" 5. (Sim.Topology.latency topology ~src:0 ~dst:3)

let make_network ?(nodes = 4) ?(service_time = 1.) () =
  let engine = Sim.Engine.create () in
  let topology = Sim.Topology.uniform ~latency:10. ~nodes () in
  let network = Sim.Network.create ~engine ~topology ~service_time ~jitter:0. () in
  (engine, network)

let test_network_delivery_and_counting () =
  let engine, network = make_network () in
  let received = ref [] in
  Sim.Network.set_handler network ~node:1 (fun ~src msg -> received := (src, msg) :: !received);
  let ping = Sim.Network.Kind.intern "ping" in
  Sim.Network.send network ~kind:ping ~src:0 ~dst:1 "hello";
  Sim.Network.send network ~kind:ping ~src:2 ~dst:1 "world";
  Sim.Network.send network ~src:1 ~dst:1 "self";
  Sim.Engine.run engine;
  Alcotest.(check int) "two handled remotely, one locally" 3 (List.length !received);
  Alcotest.(check int) "self-sends not counted" 2 (Sim.Network.messages_sent network);
  Alcotest.(check (list (pair string int))) "kind accounting" [ ("ping", 2) ]
    (Sim.Network.messages_by_kind network)

let test_network_service_queueing () =
  (* Two messages arriving together at one node must be processed serially:
     second handler fires one service_time later. *)
  let engine, network = make_network ~service_time:2. () in
  let times = ref [] in
  Sim.Network.set_handler network ~node:1 (fun ~src:_ _ ->
      times := Sim.Engine.now engine :: !times);
  Sim.Network.send network ~src:0 ~dst:1 "a";
  Sim.Network.send network ~src:2 ~dst:1 "b";
  Sim.Engine.run engine;
  match List.rev !times with
  | [ t1; t2 ] ->
    Alcotest.(check (float 1e-6)) "first at latency+service" 12. t1;
    Alcotest.(check (float 1e-6)) "second queued behind" 14. t2
  | other -> Alcotest.failf "expected 2 deliveries, got %d" (List.length other)

let test_network_failure_drops () =
  let engine, network = make_network () in
  let received = ref 0 in
  Sim.Network.set_handler network ~node:1 (fun ~src:_ _ -> incr received);
  Sim.Network.fail network 1;
  Sim.Network.send network ~src:0 ~dst:1 "lost";
  Sim.Engine.run engine;
  Alcotest.(check int) "failed node receives nothing" 0 !received;
  Alcotest.(check bool) "marked failed" true (Sim.Network.is_failed network 1);
  Alcotest.(check (list int)) "alive nodes" [ 0; 2; 3 ] (Sim.Network.alive_nodes network);
  Sim.Network.revive network 1;
  Sim.Network.send network ~src:0 ~dst:1 "back";
  Sim.Engine.run engine;
  Alcotest.(check int) "revived node receives" 1 !received

let test_network_drop_all () =
  let engine, network = make_network () in
  let received = ref 0 in
  Sim.Network.set_handler network ~node:1 (fun ~src:_ _ -> incr received);
  Sim.Network.set_faults network { Sim.Network.no_faults with drop = 1.0 };
  Sim.Network.send network ~src:0 ~dst:1 "lost";
  Sim.Network.send network ~src:1 ~dst:1 "self"; (* self-sends are exempt *)
  Sim.Engine.run engine;
  Alcotest.(check int) "only the self-send arrives" 1 !received;
  Alcotest.(check int) "drop counted" 1 (Sim.Network.messages_dropped network);
  Sim.Network.set_faults network Sim.Network.no_faults;
  Sim.Network.send network ~src:0 ~dst:1 "back";
  Sim.Engine.run engine;
  Alcotest.(check int) "faults cleared" 2 !received

let test_network_duplication () =
  let engine, network = make_network () in
  let received = ref 0 in
  Sim.Network.set_handler network ~node:1 (fun ~src:_ _ -> incr received);
  Sim.Network.set_faults network { Sim.Network.no_faults with duplicate = 1.0 };
  Sim.Network.send network ~src:0 ~dst:1 "twice";
  Sim.Engine.run engine;
  Alcotest.(check int) "delivered twice" 2 !received;
  Alcotest.(check int) "duplication counted" 1 (Sim.Network.messages_duplicated network);
  Alcotest.(check int) "sent counted once" 1 (Sim.Network.messages_sent network)

let test_network_latency_spike () =
  let engine, network = make_network ~service_time:0. () in
  let at = ref None in
  Sim.Network.set_handler network ~node:1 (fun ~src:_ _ ->
      at := Some (Sim.Engine.now engine));
  Sim.Network.set_faults network
    { Sim.Network.no_faults with spike_prob = 1.0; spike_factor = 10. };
  Sim.Network.send network ~src:0 ~dst:1 "slow";
  Sim.Engine.run engine;
  Alcotest.(check (option (float 1e-6))) "latency multiplied" (Some 100.) !at

let test_network_link_faults () =
  let engine, network = make_network () in
  let got1 = ref 0 and got2 = ref 0 in
  Sim.Network.set_handler network ~node:1 (fun ~src:_ _ -> incr got1);
  Sim.Network.set_handler network ~node:2 (fun ~src:_ _ -> incr got2);
  Sim.Network.set_link_faults network ~a:0 ~b:1
    { Sim.Network.no_faults with drop = 1.0 };
  Sim.Network.send network ~src:0 ~dst:1 "flaky";
  Sim.Network.send network ~src:1 ~dst:0 "flaky-reverse"; (* link is symmetric *)
  Sim.Network.send network ~src:0 ~dst:2 "clean";
  Sim.Engine.run engine;
  Alcotest.(check int) "flaky link drops both directions" 0 !got1;
  Alcotest.(check int) "other link unaffected" 1 !got2;
  Alcotest.(check int) "two drops" 2 (Sim.Network.messages_dropped network);
  Sim.Network.clear_link_faults network ~a:0 ~b:1;
  Sim.Network.send network ~src:0 ~dst:1 "healed";
  Sim.Engine.run engine;
  Alcotest.(check int) "link healed" 1 !got1

let test_network_partition_and_heal () =
  let engine, network = make_network ~nodes:5 () in
  let received = Array.make 5 0 in
  for node = 0 to 4 do
    Sim.Network.set_handler network ~node (fun ~src:_ _ ->
        received.(node) <- received.(node) + 1)
  done;
  (* Node 4 is named in no group: it forms the implicit extra group. *)
  Sim.Network.partition network [ [ 0; 1 ]; [ 2; 3 ] ];
  Alcotest.(check bool) "partitioned" true (Sim.Network.partitioned network);
  Alcotest.(check bool) "same side reachable" true
    (Sim.Network.reachable network ~src:0 ~dst:1);
  Alcotest.(check bool) "cross side unreachable" false
    (Sim.Network.reachable network ~src:0 ~dst:2);
  Alcotest.(check bool) "implicit group isolated" false
    (Sim.Network.reachable network ~src:4 ~dst:0);
  Sim.Network.send network ~src:0 ~dst:1 "same";
  Sim.Network.send network ~src:0 ~dst:2 "cross";
  Sim.Network.send network ~src:2 ~dst:0 "cross-back";
  Sim.Network.send network ~src:4 ~dst:3 "orphan";
  Sim.Engine.run engine;
  Alcotest.(check int) "same-side delivered" 1 received.(1);
  Alcotest.(check int) "cross dropped" 0 received.(2);
  Alcotest.(check int) "cross-back dropped" 0 received.(0);
  Alcotest.(check int) "orphan dropped" 0 received.(3);
  Alcotest.(check int) "three boundary drops" 3 (Sim.Network.messages_dropped network);
  Sim.Network.heal network;
  Alcotest.(check bool) "healed" false (Sim.Network.partitioned network);
  Sim.Network.send network ~src:0 ~dst:2 "after-heal";
  Sim.Engine.run engine;
  Alcotest.(check int) "delivered after heal" 1 received.(2)

(* Fan-out equivalence: [multicast_batch] against the production unicast
   path.  Two networks over the same topology and seed replay one
   generated script — multicasts at scheduled times (repeated and self
   destinations, sources that are down), timers between them, nodes
   failing and reviving — under a lossy, duplicating, spiky fault plan
   plus a partition or a faulty link.  One network fans out with
   [multicast_batch], the other with a loop of [send]s; receivers echo
   some messages back with [send], so replies interleave with the
   resident waves.  Both must make the same handler calls and timer
   firings in the same order at bit-identical times, with equal counters,
   per-kind counts and trace streams. *)
type fanout_op =
  | Cast of { at : float; src : int; dsts : int list; echo : bool }
  | Timer of float
  | Fail of { at : float; node : int }
  | Revive of { at : float; node : int }

type topo_fault =
  | Partition of { minority : int list; heal : float }
  | Link of { a : int; b : int; plan : Sim.Network.fault_plan }

type fanout_case = {
  topo_seed : int;
  nodes : int;
  plan : Sim.Network.fault_plan;
  topo : topo_fault;
  down : int;  (** node failed from the start: a failed source *)
  ops : fanout_op list;
}

let show_plan (p : Sim.Network.fault_plan) =
  Printf.sprintf "{drop=%g dup=%g spike=%g x%g}" p.drop p.duplicate p.spike_prob
    p.spike_factor

let show_ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let show_fanout_case c =
  let op = function
    | Cast { at; src; dsts; echo } ->
      Printf.sprintf "cast %d->%s%s @%g" src (show_ints dsts) (if echo then " echo" else "") at
    | Timer at -> Printf.sprintf "timer @%g" at
    | Fail { at; node } -> Printf.sprintf "fail %d @%g" node at
    | Revive { at; node } -> Printf.sprintf "revive %d @%g" node at
  in
  let topo =
    match c.topo with
    | Partition { minority; heal } -> Printf.sprintf "partition %s heal @%g" (show_ints minority) heal
    | Link { a; b; plan } -> Printf.sprintf "link %d-%d %s" a b (show_plan plan)
  in
  Printf.sprintf "seed=%d nodes=%d plan=%s %s down=%d\n  %s" c.topo_seed c.nodes
    (show_plan c.plan) topo c.down
    (String.concat "\n  " (List.map op c.ops))

let fanout_cases =
  let open QCheck.Gen in
  let prob = map (fun k -> Float.of_int k /. 20.) (int_range 0 6) in
  let plan =
    map4
      (fun drop duplicate spike_prob f ->
        { Sim.Network.drop; duplicate; spike_prob; spike_factor = Float.of_int f })
      prob prob prob (int_range 2 6)
  in
  (* Integral times a few latencies wide: casts, timers and deliveries
     often tie, so (time, seq) tie-breaks decide the order. *)
  let at = map Float.of_int (int_range 0 80) in
  let case nodes =
    let node = int_range 0 (nodes - 1) in
    let op =
      frequency
        [
          ( 6,
            map4
              (fun at src dsts echo -> Cast { at; src; dsts; echo })
              at node (list_size (int_range 0 7) node) bool );
          (3, map (fun at -> Timer at) at);
          (1, map2 (fun at node -> Fail { at; node }) at node);
          (1, map2 (fun at node -> Revive { at; node }) at node);
        ]
    in
    let topo =
      oneof
        [
          map2
            (fun minority heal -> Partition { minority = List.sort_uniq compare minority; heal })
            (list_size (int_range 1 2) node) at;
          map3 (fun a b plan -> Link { a; b; plan }) node node plan;
        ]
    in
    map5
      (fun topo_seed plan topo down ops -> { topo_seed; nodes; plan; topo; down; ops })
      nat plan topo node
      (list_size (int_range 1 40) op)
  in
  QCheck.make ~print:show_fanout_case
    ~shrink:(fun c yield -> QCheck.Shrink.list c.ops (fun ops -> yield { c with ops }))
    (int_range 3 6 >>= case)

let fanout_kind = Sim.Network.Kind.intern "fanout"
let echo_kind = Sim.Network.Kind.intern "fanout-echo"

(* Every observable of one replay: handler calls and timer firings (with
   the time's bits), the counters, and the trace stream. *)
let replay_fanout c ~batched =
  let tracer = Obs.Tracer.create ~capacity:(1 lsl 14) () in
  let engine = Sim.Engine.create ~tracer () in
  let topology = Sim.Topology.create ~seed:c.topo_seed ~nodes:c.nodes () in
  let network = Sim.Network.create ~engine ~topology ~seed:(c.topo_seed + 1) () in
  let log = ref [] in
  let note entry = log := (entry, Int64.bits_of_float (Sim.Engine.now engine)) :: !log in
  for node = 0 to c.nodes - 1 do
    Sim.Network.set_handler network ~node (fun ~src (id, echo) ->
        note (Printf.sprintf "%d<-%d:%d" node src id);
        if echo then Sim.Network.send network ~kind:echo_kind ~src:node ~dst:src (-id, false))
  done;
  Sim.Network.set_faults network c.plan;
  (match c.topo with
  | Partition { minority; heal } ->
    Sim.Network.partition network [ minority ];
    Sim.Engine.schedule_at engine ~time:heal (fun () -> Sim.Network.heal network)
  | Link { a; b; plan } -> Sim.Network.set_link_faults network ~a ~b plan);
  Sim.Network.fail network c.down;
  List.iteri
    (fun id op ->
      let at, fire =
        match op with
        | Cast { at; src; dsts; echo } ->
          ( at,
            fun () ->
              if batched then
                Sim.Network.multicast_batch network ~kind:fanout_kind ~src ~dsts (id, echo)
              else
                List.iter
                  (fun dst -> Sim.Network.send network ~kind:fanout_kind ~src ~dst (id, echo))
                  dsts )
        | Timer at -> (at, fun () -> note (Printf.sprintf "timer %d" id))
        | Fail { at; node } -> (at, fun () -> Sim.Network.fail network node)
        | Revive { at; node } -> (at, fun () -> Sim.Network.revive network node)
      in
      Sim.Engine.schedule_at engine ~time:at fire)
    c.ops;
  Sim.Engine.run engine;
  let counters =
    ( Sim.Network.messages_sent network,
      Sim.Network.messages_dropped network,
      Sim.Network.messages_duplicated network,
      Sim.Network.messages_by_kind network )
  in
  let trace =
    List.map
      (fun (e : Obs.Tracer.event) ->
        ( Int64.bits_of_float e.time,
          (e.ekind, e.node, e.txn, e.oid, e.a, e.b),
          Int64.bits_of_float e.x ))
      (Obs.Tracer.events tracer)
  in
  (List.rev !log, counters, trace, Obs.Tracer.dropped tracer)

let fanout_matches_send_loop =
  QCheck.Test.make ~name:"multicast_batch = loop of send" ~count:300 fanout_cases (fun c ->
      let batched = replay_fanout c ~batched:true in
      let looped = replay_fanout c ~batched:false in
      let _, _, _, overflow = batched in
      overflow = 0 && batched = looped)

let make_rpc ?tracer ?(nodes = 4) () =
  let engine = Sim.Engine.create ?tracer () in
  let topology = Sim.Topology.uniform ~latency:10. ~nodes () in
  let network = Sim.Network.create ~engine ~topology ~service_time:0.5 ~jitter:0. () in
  let rpc = Sim.Rpc.create ~network () in
  (engine, network, rpc)

let test_rpc_call_roundtrip () =
  let engine, _network, rpc = make_rpc () in
  Sim.Rpc.serve rpc ~node:1 (fun ~src:_ req -> Some (req * 2));
  let answer = ref None in
  Sim.Rpc.call rpc ~src:0 ~dst:1 ~timeout:1000. 21
    ~on_reply:(fun rep -> answer := Some rep)
    ~on_timeout:(fun () -> Alcotest.fail "unexpected timeout");
  Sim.Engine.run engine;
  Alcotest.(check (option int)) "doubled" (Some 42) !answer

let test_rpc_multicall_collects_all () =
  let engine, _network, rpc = make_rpc () in
  for node = 0 to 3 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req -> Some (req + node))
  done;
  let result = ref None in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1; 2; 3 ] ~timeout:1000. 100
    ~on_done:(fun ~replies ~missing -> result := Some (replies, missing));
  Sim.Engine.run engine;
  match !result with
  | Some (replies, []) ->
    Alcotest.(check (list (pair int int)))
      "all replied" [ (1, 101); (2, 102); (3, 103) ]
      (List.sort compare replies)
  | Some (_, missing) -> Alcotest.failf "unexpected missing: %d" (List.length missing)
  | None -> Alcotest.fail "multicall never completed"

let test_rpc_multicall_timeout_reports_missing () =
  let engine, network, rpc = make_rpc () in
  for node = 0 to 3 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req -> Some req)
  done;
  Sim.Network.fail network 2;
  let result = ref None in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1; 2; 3 ] ~timeout:200. 7
    ~on_done:(fun ~replies ~missing -> result := Some (List.map fst replies, missing));
  Sim.Engine.run engine;
  Alcotest.(check (option (pair (list int) (list int))))
    "dead member reported missing"
    (Some ([ 1; 3 ], [ 2 ]))
    (Option.map (fun (r, m) -> (List.sort compare r, m)) !result)

let test_rpc_multicall_late_reply_discarded () =
  (* Node 2's link is spiked so its reply lands well after the multicall
     timeout: [on_done] must fire exactly once, report 2 as missing, and the
     late reply must be silently discarded (no crash, no second callback). *)
  let engine, network, rpc = make_rpc () in
  let served = ref [] in
  for node = 0 to 3 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req ->
        served := node :: !served;
        Some req)
  done;
  Sim.Network.set_link_faults network ~a:0 ~b:2
    { Sim.Network.no_faults with spike_prob = 1.0; spike_factor = 20. };
  let done_count = ref 0 in
  let result = ref None in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1; 2; 3 ] ~timeout:50. 7
    ~on_done:(fun ~replies ~missing ->
      incr done_count;
      result := Some (List.sort compare (List.map fst replies), missing));
  Sim.Engine.run engine;
  Alcotest.(check int) "on_done exactly once" 1 !done_count;
  Alcotest.(check (option (pair (list int) (list int))))
    "slow node missing, fast nodes in"
    (Some ([ 1; 3 ], [ 2 ]))
    !result;
  (* The request did reach node 2 (only late); its reply was dropped on the
     floor because the call had already finished, not delivered to the
     callback. *)
  Alcotest.(check bool) "slow node still served the request" true
    (List.mem 2 !served)

(* Every message on the links to nodes 1-3 is delivered twice, so each
   node serves the request twice and node 0 receives four replies from it.
   Node 3's link is also spiked, so the duplicates from nodes 1 and 2 land
   while the call still awaits node 3: only the duplicate guard can discard
   them.  [on_done] fires once, with each replier once, in arrival order. *)
let test_rpc_multicall_duplicate_reply_counted_once () =
  let engine, network, rpc = make_rpc () in
  let served = ref 0 in
  for node = 0 to 3 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req ->
        incr served;
        Some (req + node))
  done;
  let dup = { Sim.Network.no_faults with duplicate = 1.0 } in
  Sim.Network.set_link_faults network ~a:0 ~b:1 dup;
  Sim.Network.set_link_faults network ~a:0 ~b:2 dup;
  Sim.Network.set_link_faults network ~a:0 ~b:3
    { dup with spike_prob = 1.0; spike_factor = 20. };
  let calls = ref [] in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1; 2; 3 ] ~timeout:1000. 100
    ~on_done:(fun ~replies ~missing -> calls := (replies, missing) :: !calls);
  Sim.Engine.run engine;
  Alcotest.(check int) "every request served twice" 6 !served;
  Alcotest.(check (list (pair (list (pair int int)) (list int))))
    "one completion, each replier once"
    [ ([ (1, 101); (2, 102); (3, 103) ], []) ]
    !calls

(* [missing] keeps the order of [dsts], and the timeout's trace event
   counts the outstanding destinations. *)
let test_rpc_multicall_missing_is_exact () =
  let tracer = Obs.Tracer.create () in
  let engine, network, rpc = make_rpc ~tracer ~nodes:6 () in
  for node = 0 to 5 do
    Sim.Rpc.serve rpc ~node (fun ~src:_ req -> Some req)
  done;
  Sim.Network.fail network 2;
  Sim.Network.fail network 4;
  let result = ref None in
  Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 5; 4; 3; 2; 1 ] ~timeout:200. 9
    ~on_done:(fun ~replies ~missing ->
      result := Some (List.sort compare (List.map fst replies), missing));
  Sim.Engine.run engine;
  Alcotest.(check (option (pair (list int) (list int))))
    "missing names exactly the non-repliers"
    (Some ([ 1; 3; 5 ], [ 4; 2 ]))
    !result;
  Alcotest.(check (list int))
    "timeout traces the outstanding count" [ 2 ]
    (List.filter_map
       (fun (e : Obs.Tracer.event) ->
         if e.ekind = Obs.Sem.rpc_timeout then Some e.a else None)
       (Obs.Tracer.events tracer))

let test_rpc_acked_send_retransmits () =
  (* The link starts fully lossy, then heals at t=70; acked_send keeps
     retransmitting on timeout until one attempt gets through. *)
  let engine, network, rpc = make_rpc () in
  let handled = ref 0 in
  Sim.Rpc.serve rpc ~node:1 (fun ~src:_ _ ->
      incr handled;
      Some 0);
  Sim.Network.set_link_faults network ~a:0 ~b:1
    { Sim.Network.no_faults with drop = 1.0 };
  Sim.Engine.schedule engine ~delay:70. (fun () ->
      Sim.Network.clear_link_faults network ~a:0 ~b:1);
  Sim.Rpc.acked_send rpc ~src:0 ~dst:1 ~timeout:25. 42;
  Sim.Engine.run engine;
  Alcotest.(check bool) "delivered after retransmission" true (!handled >= 1);
  Alcotest.(check bool) "early attempts were dropped" true
    (Sim.Network.messages_dropped network >= 2)

let test_rpc_no_reply_handler () =
  let engine, _network, rpc = make_rpc () in
  let casts = ref 0 in
  Sim.Rpc.serve rpc ~node:1 (fun ~src:_ _ ->
      incr casts;
      None);
  Sim.Rpc.cast rpc ~src:0 ~dst:1 99;
  Sim.Engine.run engine;
  Alcotest.(check int) "cast handled" 1 !casts

let test_failure_detection () =
  let engine = Sim.Engine.create () in
  let killed = ref [] and detected = ref [] in
  let failure =
    Sim.Failure.create ~engine ~detection_delay:25. ~kill:(fun n -> killed := n :: !killed) ()
  in
  Sim.Failure.on_detect failure (fun n -> detected := (n, Sim.Engine.now engine) :: !detected);
  Sim.Failure.schedule failure ~at:100. ~node:3;
  Sim.Engine.run ~until:110. engine;
  Alcotest.(check (list int)) "killed at failure time" [ 3 ] !killed;
  Alcotest.(check bool) "killed before detection" true (Sim.Failure.is_killed failure 3);
  Alcotest.(check bool) "not yet suspected" false (Sim.Failure.is_suspected failure 3);
  Alcotest.(check (list (pair int (float 1e-9)))) "not yet detected" [] !detected;
  Sim.Engine.run engine;
  Alcotest.(check (list (pair int (float 1e-9)))) "detected after delay" [ (3, 125.) ]
    !detected;
  Alcotest.(check bool) "suspected after detection" true (Sim.Failure.is_suspected failure 3);
  Alcotest.(check (list int)) "killed list" [ 3 ] (Sim.Failure.killed_nodes failure);
  Alcotest.(check (list int)) "suspected list" [ 3 ] (Sim.Failure.suspected_nodes failure)

let test_failure_recovery_cycle () =
  let engine = Sim.Engine.create () in
  let failure =
    Sim.Failure.create ~engine ~detection_delay:25. ~kill:(fun _ -> ()) ()
  in
  let recovered = ref [] in
  Sim.Failure.on_recover failure (fun ~node ~was_killed ->
      recovered := (node, was_killed, Sim.Engine.now engine) :: !recovered);
  Sim.Failure.schedule failure ~at:100. ~node:2;
  Sim.Failure.schedule_recovery failure ~at:300. ~node:2;
  Sim.Engine.run engine;
  Alcotest.(check bool) "no longer killed" false (Sim.Failure.is_killed failure 2);
  (* Suspicion persists until the re-admission layer clears it. *)
  Alcotest.(check bool) "still suspected" true (Sim.Failure.is_suspected failure 2);
  Alcotest.(check (list (triple int bool (float 1e-9))))
    "recovery callback with was_killed" [ (2, true, 300.) ] !recovered;
  Sim.Failure.clear_suspicion failure 2;
  Alcotest.(check bool) "suspicion cleared" false (Sim.Failure.is_suspected failure 2)

let test_failure_recovery_before_detection () =
  (* A node that restarts faster than the detector notices is never
     suspected at all. *)
  let engine = Sim.Engine.create () in
  let failure =
    Sim.Failure.create ~engine ~detection_delay:50. ~kill:(fun _ -> ()) ()
  in
  let detections = ref 0 in
  Sim.Failure.on_detect failure (fun _ -> incr detections);
  Sim.Failure.schedule failure ~at:100. ~node:1;
  Sim.Failure.schedule_recovery failure ~at:120. ~node:1;
  Sim.Engine.run engine;
  Alcotest.(check int) "no detection" 0 !detections;
  Alcotest.(check bool) "not suspected" false (Sim.Failure.is_suspected failure 1)

let test_false_suspicion () =
  let engine = Sim.Engine.create () in
  let failure = Sim.Failure.create ~engine ~kill:(fun _ -> Alcotest.fail "kill on suspicion") () in
  let detected = ref [] and recovered = ref [] in
  Sim.Failure.on_detect failure (fun n -> detected := n :: !detected);
  Sim.Failure.on_recover failure (fun ~node ~was_killed ->
      recovered := (node, was_killed) :: !recovered;
      Sim.Failure.clear_suspicion failure node);
  Sim.Failure.schedule_false_suspicion failure ~at:50. ~clear_after:100. ~node:4;
  Sim.Engine.run ~until:60. engine;
  Alcotest.(check (list int)) "suspected" [ 4 ] !detected;
  Alcotest.(check bool) "but not killed" false (Sim.Failure.is_killed failure 4);
  Sim.Engine.run engine;
  Alcotest.(check (list (pair int bool))) "cleared as live" [ (4, false) ] !recovered;
  Alcotest.(check bool) "no longer suspected" false (Sim.Failure.is_suspected failure 4);
  Alcotest.(check int) "counted" 1 (Sim.Failure.false_suspicions failure)

let test_detection_jitter () =
  let engine = Sim.Engine.create () in
  let failure =
    Sim.Failure.create ~engine ~detection_delay:20. ~detection_jitter:30. ~seed:5
      ~kill:(fun _ -> ())
      ()
  in
  let at = ref None in
  Sim.Failure.on_detect failure (fun _ -> at := Some (Sim.Engine.now engine));
  Sim.Failure.schedule failure ~at:100. ~node:0;
  Sim.Engine.run engine;
  match !at with
  | None -> Alcotest.fail "never detected"
  | Some t ->
    Alcotest.(check bool) "at least base delay" true (t >= 120.);
    Alcotest.(check bool) "within jitter bound" true (t < 150.)

let suite =
  [
    Alcotest.test_case "engine event ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine run ~until" `Quick test_engine_until;
    Alcotest.test_case "engine nested scheduling" `Quick test_engine_nested_schedule;
    QCheck_alcotest.to_alcotest engine_queue_matches_model;
    Alcotest.test_case "topology mean latency" `Quick test_topology_mean_latency;
    Alcotest.test_case "topology uniform" `Quick test_uniform_topology;
    Alcotest.test_case "network delivery and counting" `Quick test_network_delivery_and_counting;
    Alcotest.test_case "network service queueing" `Quick test_network_service_queueing;
    Alcotest.test_case "network failure drops" `Quick test_network_failure_drops;
    Alcotest.test_case "network drop-all fault plan" `Quick test_network_drop_all;
    Alcotest.test_case "network duplication" `Quick test_network_duplication;
    Alcotest.test_case "network latency spike" `Quick test_network_latency_spike;
    Alcotest.test_case "network per-link faults" `Quick test_network_link_faults;
    Alcotest.test_case "network partition and heal" `Quick test_network_partition_and_heal;
    QCheck_alcotest.to_alcotest fanout_matches_send_loop;
    Alcotest.test_case "rpc call roundtrip" `Quick test_rpc_call_roundtrip;
    Alcotest.test_case "rpc multicall collects all" `Quick test_rpc_multicall_collects_all;
    Alcotest.test_case "rpc multicall timeout" `Quick test_rpc_multicall_timeout_reports_missing;
    Alcotest.test_case "rpc multicall late reply discarded" `Quick
      test_rpc_multicall_late_reply_discarded;
    Alcotest.test_case "rpc multicall missing exact" `Quick
      test_rpc_multicall_missing_is_exact;
    Alcotest.test_case "rpc duplicated reply counted once" `Quick
      test_rpc_multicall_duplicate_reply_counted_once;
    Alcotest.test_case "rpc acked send retransmits" `Quick test_rpc_acked_send_retransmits;
    Alcotest.test_case "rpc one-way cast" `Quick test_rpc_no_reply_handler;
    Alcotest.test_case "failure detection" `Quick test_failure_detection;
    Alcotest.test_case "failure recovery cycle" `Quick test_failure_recovery_cycle;
    Alcotest.test_case "failure fast restart undetected" `Quick
      test_failure_recovery_before_detection;
    Alcotest.test_case "false suspicion" `Quick test_false_suspicion;
    Alcotest.test_case "detection jitter" `Quick test_detection_jitter;
  ]
