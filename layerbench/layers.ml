(* The per-layer half of the benchmark.

   1. Micro-benchmarks: one Bechamel test per layer entry point, reported
      as wall nanoseconds per call under the metric name it feeds.  The
      tree quorum, replica, Rqv, Rwset and whole-transaction tests live in
      bench/main.ml's micro mode alone; these cover the other layers.
   2. The traced-run sink: a tracer sink installed by the benchmark (not by
      the program) that turns the event stream of one measurement window
      into per-layer counts, simulated phase spans and a wall-clock
      attribution of where the window's time went. *)

open Core

(* --- micro-benchmarks -------------------------------------------------- *)

(* A test and the number of calls one of its runs makes, so a wave of four
   deliveries reports per delivery. *)
type micro = { test : Bechamel.Test.t; calls : int }

let micro name ?(calls = 1) fn =
  { test = Bechamel.Test.make ~name (Bechamel.Staged.stage fn); calls }

let populated_store n =
  let store = Store.Replica.create () in
  for oid = 0 to n - 1 do
    Store.Replica.ensure store ~oid ~init:(Store.Value.Int oid)
  done;
  store

let dataset n =
  Messages.dataset_of_list (List.init n (fun oid -> { Messages.oid; version = 0; owner = oid land 3 }))

(* A steady stream of one committed transaction's events — begin, a read
   fanned out to three replicas, its reply, a commit round with three
   votes, commit, end — so the online checker allocates and retires state
   exactly as in a run. *)
let feed_txn online txn =
  let time = Float.of_int txn in
  let ev kind ~oid ~a ~b = Obs.Online.feed8 online ~time ~kind ~node:0 ~txn ~oid ~a ~b ~x:0. in
  ev Obs.Sem.txn_begin ~oid:(-1) ~a:1 ~b:(-1);
  for dst = 0 to 2 do ev Obs.Sem.read_send ~oid:7 ~a:dst ~b:0 done;
  ev Obs.Sem.txn_read ~oid:7 ~a:0 ~b:1;
  ev Obs.Sem.commit_send ~oid:(-1) ~a:1 ~b:3;
  for voter = 0 to 2 do ev Obs.Sem.vote_recv ~oid:(-1) ~a:voter ~b:1 done;
  ev Obs.Sem.txn_commit ~oid:(-1) ~a:(-1) ~b:0;
  ev Obs.Sem.txn_end ~oid:(-1) ~a:1 ~b:(-1)

let feed_txn_events = 11

let micro_tests () =
  let engine_dispatch =
    let engine = Sim.Engine.create () in
    let noop () = () in
    micro "engine.dispatch_ns" (fun () ->
        Sim.Engine.schedule engine ~delay:1. noop;
        ignore (Sim.Engine.step engine))
  in
  let network_deliver =
    let engine = Sim.Engine.create () in
    let topology = Sim.Topology.create ~seed:3 ~nodes:5 () in
    let net : unit Sim.Network.t = Sim.Network.create ~engine ~topology ~seed:5 () in
    for node = 0 to 4 do
      Sim.Network.set_handler net ~node (fun ~src:_ () -> ())
    done;
    let dsts = [ 1; 2; 3; 4 ] in
    micro "network.deliver_ns" ~calls:(List.length dsts) (fun () ->
        Sim.Network.multicast_batch net ~src:0 ~dsts ();
        Sim.Engine.run engine)
  in
  let rpc_multicall =
    let engine = Sim.Engine.create () in
    let topology = Sim.Topology.create ~seed:3 ~nodes:4 () in
    let network = Sim.Network.create ~engine ~topology ~seed:5 () in
    let rpc = Sim.Rpc.create ~network () in
    for node = 1 to 3 do
      Sim.Rpc.serve rpc ~node (fun ~src:_ n -> Some (n + 1))
    done;
    micro "rpc.multicall_ns" (fun () ->
        Sim.Rpc.multicall rpc ~src:0 ~dsts:[ 1; 2; 3 ] ~timeout:1_000. 1
          ~on_done:(fun ~replies:_ ~missing:_ -> ());
        Sim.Engine.run engine)
  in
  let server_read, server_commit =
    let server = Server.create ~node:0 ~store:(populated_store 256) in
    let read =
      Messages.Read_req { txn = 1; oid = 9; dataset = dataset 8; write_intent = false; record = false }
    in
    let round = ref 0 in
    ( micro "server.handle_read_ns" (fun () -> ignore (Server.handle server ~src:1 read)),
      (* A vote that locks one object, then the Release that frees it, so
         every run finds the replica in the same state. *)
      micro "server.handle_commit_ns" (fun () ->
          incr round;
          let round = !round in
          ignore
            (Server.handle server ~src:1
               (Messages.Commit_req { txn = 2; dataset = dataset 8; locks = [ 3 ]; round; peers = [] }));
          ignore (Server.handle server ~src:1 (Messages.Release { txn = 2; oids = [ 3 ]; round }))) )
  in
  let tracer_emit =
    let tracer = Obs.Tracer.create ~capacity:4096 () in
    micro "tracer.emit8_ns" (fun () ->
        Obs.Tracer.emit8 tracer ~time:1. ~kind:Obs.Sem.txn_read ~node:1 ~txn:2 ~oid:3 ~a:4 ~b:1 ~x:0.)
  in
  let online_feed =
    let online = Obs.Online.create () in
    let txn = ref 0 in
    micro "online.feed8_ns" ~calls:feed_txn_events (fun () ->
        incr txn;
        feed_txn online !txn)
  in
  let hdr_add =
    let hdr = Util.Hdr.create () in
    let x = ref 0. in
    micro "hdr.add_ns" (fun () ->
        x := Float.rem (!x +. 7.3) 5_000.;
        Util.Hdr.add hdr (!x +. 0.5))
  in
  [ engine_dispatch; network_deliver; rpc_multicall; server_read; server_commit; tracer_emit; online_feed; hdr_add ]

let micro_names () = List.map (fun m -> Bechamel.Test.name m.test) (micro_tests ())

(* Nanoseconds per call of every micro-benchmark, each run for [quota]
   seconds and fitted by ordinary least squares over the run counts. *)
let run_micro ~quota =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.map
    (fun m ->
      let name = Test.name m.test in
      let results = Benchmark.all cfg [ instance ] m.test in
      let per_run =
        match Analyze.OLS.estimates (Hashtbl.find (Analyze.all ols instance results) name) with
        | Some [ ns ] -> ns
        | Some _ | None -> Float.nan
      in
      (name, per_run /. Float.of_int m.calls))
    (micro_tests ())

(* --- the traced-run sink ----------------------------------------------- *)

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

(* Layers for wall-clock attribution, by the module that emits the kind. *)
let layer_names = [| "network"; "executor"; "server"; "store"; "membership" |]

let layer_of_kind k =
  let open Obs.Sem in
  if is_net k then 0
  else if k = lease_grant || k = lease_renew || k = lease_release || k = lease_expire then 3
  else if
    k = rqv_ok || k = rqv_fail || k = vote || k = apply || k = release || k = status_round
    || k = presumed_abort || k = rescue
  then 2
  else if
    k = view_wedge || k = view_change || k = view_done || k = epoch_fence || k = sync_start
    || k = sync_done
  then 4
  else 1

type span = { mutable sum : float; mutable n : int }

type sink = {
  online : Obs.Online.t option;
  layer : int array;  (** kind -> layer index *)
  counts : int array;  (** events per kind inside the window *)
  mutable active : bool;
  mutable vote_conflicts : int;
  (* Simulated phase spans, matched per transaction id. *)
  read_start : (int, float) Hashtbl.t;
  commit_start : (int, float) Hashtbl.t;
  attempt_start : (int, float) Hashtbl.t;
  read_round : span;
  commit_round : span;
  attempts : span;  (** every attempt, txn.begin to commit or root abort *)
  mutable wasted_ms : float;  (** aborted attempts only *)
  (* Sink-clock attribution. *)
  layer_ns : int array;
  mutable last_ns : int;
  mutable window_ns : int;
  mutable online_ns : int;
}

let create_sink ?online () =
  let kinds = Obs.Kind.registered () in
  {
    online;
    layer = Array.init kinds layer_of_kind;
    counts = Array.make kinds 0;
    active = false;
    vote_conflicts = 0;
    read_start = Hashtbl.create 256;
    commit_start = Hashtbl.create 256;
    attempt_start = Hashtbl.create 256;
    read_round = { sum = 0.; n = 0 };
    commit_round = { sum = 0.; n = 0 };
    attempts = { sum = 0.; n = 0 };
    wasted_ms = 0.;
    layer_ns = Array.make (Array.length layer_names) 0;
    last_ns = 0;
    window_ns = 0;
    online_ns = 0;
  }

let close_span tbl span txn ~time =
  match Hashtbl.find_opt tbl txn with
  | Some start ->
    Hashtbl.remove tbl txn;
    span.sum <- span.sum +. (time -. start);
    span.n <- span.n + 1
  | None -> ()

let open_span tbl txn ~time = if not (Hashtbl.mem tbl txn) then Hashtbl.replace tbl txn time

let observe s ~time ~kind ~txn ~b =
  let open Obs.Sem in
  s.counts.(kind) <- s.counts.(kind) + 1;
  if kind = read_send then open_span s.read_start txn ~time
  else if kind = txn_read || kind = txn_write then close_span s.read_start s.read_round txn ~time
  else if kind = commit_send then open_span s.commit_start txn ~time
  else if kind = txn_begin then open_span s.attempt_start txn ~time
  else if kind = txn_commit then begin
    close_span s.commit_start s.commit_round txn ~time;
    close_span s.attempt_start s.attempts txn ~time
  end
  else if kind = txn_root_abort then begin
    close_span s.commit_start s.commit_round txn ~time;
    Option.iter (fun start -> s.wasted_ms <- s.wasted_ms +. (time -. start)) (Hashtbl.find_opt s.attempt_start txn);
    close_span s.attempt_start s.attempts txn ~time;
    Hashtbl.remove s.read_start txn
  end
  else if kind = txn_partial_abort then Hashtbl.remove s.read_start txn
  else if kind = vote && b = 1 then s.vote_conflicts <- s.vote_conflicts + 1

(* The sink: counts and spans only inside the window, the online checker
   (when the workload runs one) on every event.  Each call charges the
   wall time since the previous call to the layer of this event's kind;
   the checker's own time is timed separately and excluded. *)
let feed s ~time ~kind ~node ~txn ~oid ~a ~b ~x =
  let now = clock_ns () in
  if s.active && kind < Array.length s.layer then begin
    let layer = s.layer.(kind) in
    s.layer_ns.(layer) <- s.layer_ns.(layer) + (now - s.last_ns);
    observe s ~time ~kind ~txn ~b
  end;
  match s.online with
  | None -> s.last_ns <- now
  | Some online ->
    Obs.Online.feed8 online ~time ~kind ~node ~txn ~oid ~a ~b ~x;
    let after = clock_ns () in
    if s.active then s.online_ns <- s.online_ns + (after - now);
    s.last_ns <- after

(* The window may be measured in slices: [resume] and [pause] bracket each
   one, so wall time spent between slices is charged to no layer. *)
let resume s =
  s.active <- true;
  s.last_ns <- clock_ns ();
  s.window_ns <- s.window_ns - s.last_ns

let pause s =
  s.active <- false;
  s.window_ns <- s.window_ns + clock_ns ()

let count s kind = s.counts.(kind)

let mean span = if span.n = 0 then 0. else span.sum /. Float.of_int span.n

let share num den = if den = 0 then 0. else Float.of_int num /. Float.of_int den

(* The window's simulated per-layer metrics, given its commit count: these
   depend only on the seed. *)
let sink_sim s ~commits =
  let per_commit x = Float.of_int x /. Float.of_int (max 1 commits) in
  let open Obs.Sem in
  [
    ("rpc.timeouts_per_commit", per_commit (count s rpc_timeout));
    ("replica.lease_grants_per_commit", per_commit (count s lease_grant));
    ("server.lock_conflict_share", share s.vote_conflicts (count s vote));
    ("executor.read_round_share", if s.attempts.sum = 0. then 0. else s.read_round.sum /. s.attempts.sum);
    ("executor.commit_round_ms", mean s.commit_round);
    ("executor.wasted_attempt_ms_per_commit", s.wasted_ms /. Float.of_int (max 1 commits));
    ("xshard.prepare_rounds_per_commit", per_commit (count s xshard_prepare));
    ("tracer.events_per_commit", per_commit (Array.fold_left ( + ) 0 s.counts));
  ]

(* The window's wall-clock attribution, in percent. *)
let sink_wall s =
  let attributed = Array.fold_left ( + ) 0 s.layer_ns in
  ("online.wall_share", 100. *. share s.online_ns s.window_ns)
  :: Array.to_list
       (Array.mapi (fun i name -> ("wall_share." ^ name, 100. *. share s.layer_ns.(i) attributed)) layer_names)
