(* Simulated message-passing network with an injectable fault model.

   Faults are drawn from a dedicated RNG stream ([fault_rng]) so that runs
   with the fault model disabled consume exactly the same random numbers as
   before the model existed — seeds stay comparable across experiments. *)

(* Interned message-kind labels.  Message accounting runs once per remote
   send — the hottest counter in the simulator — so kinds are interned to
   dense integer ids at module-load / setup time and counted with an array
   increment instead of a per-message string-hashtable lookup.

   The registry itself now lives in [Obs.Kind] (global: kinds are protocol
   vocabulary, not per-network state; mutex-protected so parallel harness
   domains can intern concurrently).  Sharing the registry with the tracer
   means network events can stash a message-kind token in a trace payload
   slot and any consumer resolves it with the same [name]. *)
module Kind = struct
  include Obs.Kind

  let other = intern "other"
  let reply = intern "reply"
end

type fault_plan = {
  drop : float;  (* per-message loss probability *)
  duplicate : float;  (* probability a message is delivered twice *)
  spike_prob : float;  (* probability of a latency spike *)
  spike_factor : float;  (* latency multiplier during a spike *)
}

let no_faults = { drop = 0.; duplicate = 0.; spike_prob = 0.; spike_factor = 10. }

let faulty plan =
  plan.drop > 0. || plan.duplicate > 0. || plan.spike_prob > 0.

(* Pooled delivery envelope: one per in-flight message, reused through a
   free stack.  An envelope carries its own [e_fire] closure (allocated
   once, when the record is first created), so steady-state sends schedule
   pooled engine events pointing at pooled envelopes — no per-message
   closure.  [e_phase] defunctionalizes the two hops of a delivery:
   [`Arrive`] (the message reaches [e_dst] and queues for service) and
   [`Handle`] (service completes and the handler runs). *)
type 'msg envelope = {
  mutable e_kind : int;
  mutable e_src : int;
  mutable e_dst : int;
  mutable e_msg : 'msg option;
  mutable e_phase : int; (* 0 = arrive at dst; 1 = invoke handler *)
  mutable e_fire : unit -> unit; (* set at creation, references this record *)
}

type 'msg t = {
  engine : Engine.t;
  topology : Topology.t;
  service_time : float;
  jitter : float;
  rng : Util.Rng.t;
  fault_rng : Util.Rng.t;
  handlers : (src:int -> 'msg -> unit) option array;
  busy_until : float array;
  failed : bool array;
  mutable faults : fault_plan;
  link_faults : (int * int, fault_plan) Hashtbl.t;
  mutable groups : int array option; (* partition: group id per node *)
  mutable sent : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable kind_counts : int array;
      (* indexed by Kind.t; pre-sized to [Kind.registered ()] at creation,
         grown (rarely) if a kind is interned after that *)
  tracer : Obs.Tracer.t; (* cached from the engine; Tracer.null when off *)
  mutable env_free : 'msg envelope array; (* envelope free stack *)
  mutable env_free_len : int;
}

let create ~engine ~topology ?(service_time = 0.25) ?(jitter = 0.1) ?(seed = 7) () =
  let n = Topology.nodes topology in
  {
    engine;
    tracer = Engine.tracer engine;
    topology;
    service_time;
    jitter;
    rng = Util.Rng.create seed;
    fault_rng = Util.Rng.create (seed * 31 + 11);
    handlers = Array.make n None;
    busy_until = Array.make n 0.;
    failed = Array.make n false;
    faults = no_faults;
    link_faults = Hashtbl.create 8;
    groups = None;
    sent = 0;
    dropped = 0;
    duplicated = 0;
    kind_counts = Array.make (Kind.registered ()) 0;
    env_free = [||];
    env_free_len = 0;
  }

let engine t = t.engine
let topology t = t.topology
let nodes t = Topology.nodes t.topology
let set_handler t ~node handler = t.handlers.(node) <- Some handler
let fail t node = t.failed.(node) <- true
let revive t node = t.failed.(node) <- false
let is_failed t node = t.failed.(node)

let alive_nodes t =
  let acc = ref [] in
  for i = nodes t - 1 downto 0 do
    if not t.failed.(i) then acc := i :: !acc
  done;
  !acc

(* --- fault configuration ----------------------------------------------- *)

let set_faults t plan = t.faults <- plan
let faults t = t.faults

let link_key a b = (Stdlib.min a b, Stdlib.max a b)
let set_link_faults t ~a ~b plan = Hashtbl.replace t.link_faults (link_key a b) plan
let clear_link_faults t ~a ~b = Hashtbl.remove t.link_faults (link_key a b)

(* Symmetric partition into [groups]; nodes not named in any group form one
   implicit extra group (so [partition t [[0;1]]] cuts {0,1} off from the
   rest).  Messages crossing a group boundary are dropped in both
   directions until [heal]. *)
let partition t groups =
  let assignment = Array.make (nodes t) (-1) in
  List.iteri
    (fun gid members ->
      List.iter
        (fun node ->
          if node >= 0 && node < nodes t then assignment.(node) <- gid)
        members)
    groups;
  let implicit = List.length groups in
  Array.iteri (fun node gid -> if gid < 0 then assignment.(node) <- implicit) assignment;
  t.groups <- Some assignment

let heal t = t.groups <- None
let partitioned t = Option.is_some t.groups

let reachable t ~src ~dst =
  match t.groups with
  | None -> true
  | Some assignment -> src = dst || assignment.(src) = assignment.(dst)

(* Most runs set no link fault: skip building and hashing the tuple key. *)
let plan_for t ~src ~dst =
  if Hashtbl.length t.link_faults = 0 then t.faults
  else
    match Hashtbl.find_opt t.link_faults (link_key src dst) with
    | Some plan -> plan
    | None -> t.faults

(* --- accounting --------------------------------------------------------- *)

let count_kind t kind =
  if kind >= Array.length t.kind_counts then begin
    (* A kind interned after this network was created (rare): grow once. *)
    let bigger = Array.make (Kind.registered ()) 0 in
    Array.blit t.kind_counts 0 bigger 0 (Array.length t.kind_counts);
    t.kind_counts <- bigger
  end;
  t.kind_counts.(kind) <- t.kind_counts.(kind) + 1

let messages_sent t = t.sent
let messages_dropped t = t.dropped
let messages_duplicated t = t.duplicated

let messages_by_kind t =
  let acc = ref [] in
  Array.iteri
    (fun kind n -> if n > 0 then acc := (Kind.name kind, n) :: !acc)
    t.kind_counts;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let reset_counters t =
  t.sent <- 0;
  t.dropped <- 0;
  t.duplicated <- 0;
  Array.fill t.kind_counts 0 (Array.length t.kind_counts) 0

(* --- delivery ----------------------------------------------------------- *)

(* Tracing emits from the fault/jitter decision points but never draws from
   an RNG stream or schedules an event, so enabling it cannot perturb the
   simulation — traces are byte-identical per seed and runs byte-identical
   with tracing on or off. *)
let trace_net t ~kind ~ekind ~src ~dst =
  if Obs.Tracer.enabled t.tracer then
    Obs.Tracer.emit8 t.tracer ~time:(Engine.now t.engine) ~kind:ekind ~node:src
      ~txn:(-1) ~oid:(-1) ~a:dst ~b:kind ~x:0.

(* --- envelope pool ------------------------------------------------------ *)

let release_envelope t e =
  e.e_msg <- None;
  (* never retain a payload through the pool *)
  let cap = Array.length t.env_free in
  if t.env_free_len = cap then begin
    let cap' = if cap = 0 then 32 else 2 * cap in
    let grown = Array.make cap' e in
    Array.blit t.env_free 0 grown 0 cap;
    t.env_free <- grown
  end;
  t.env_free.(t.env_free_len) <- e;
  t.env_free_len <- t.env_free_len + 1

(* FIFO service queue: processing begins when the node is free.  Returns
   the instant the handler should run and pushes the node's horizon. *)
let service_finish t dst =
  let now = Engine.now t.engine in
  let start = Stdlib.max now t.busy_until.(dst) in
  let finish = start +. t.service_time in
  t.busy_until.(dst) <- finish;
  finish

let fire_envelope t e =
  if e.e_phase = 0 then begin
    (* Arrival at [e_dst] at delivery time. *)
    if t.failed.(e.e_dst) then release_envelope t e
    else begin
      e.e_phase <- 1;
      Engine.schedule_at t.engine ~time:(service_finish t e.e_dst) e.e_fire
    end
  end
  else begin
    let kind = e.e_kind and src = e.e_src and dst = e.e_dst and msg = e.e_msg in
    release_envelope t e;
    (* released first: the handler may send, reusing this record *)
    if not t.failed.(dst) then
      match (t.handlers.(dst), msg) with
      | Some handler, Some msg ->
        if src <> dst && Obs.Tracer.enabled t.tracer then
          Obs.Tracer.emit8 t.tracer ~time:(Engine.now t.engine)
            ~kind:Obs.Sem.net_deliver ~node:dst ~txn:(-1) ~oid:(-1) ~a:src
            ~b:kind ~x:0.;
        handler ~src msg
      | (Some _ | None), _ -> ()
  end

let acquire_envelope t ~kind ~src ~dst msg =
  let e =
    if t.env_free_len > 0 then begin
      let n = t.env_free_len - 1 in
      t.env_free_len <- n;
      t.env_free.(n)
    end
    else begin
      let rec e =
        {
          e_kind = 0;
          e_src = 0;
          e_dst = 0;
          e_msg = None;
          e_phase = 0;
          e_fire = (fun () -> fire_envelope t e);
        }
      in
      e
    end
  in
  e.e_kind <- kind;
  e.e_src <- src;
  e.e_dst <- dst;
  e.e_msg <- Some msg;
  e.e_phase <- 0;
  e

(* --- send --------------------------------------------------------------- *)

let deliver t ~kind ~src ~dst ~delay msg =
  let e = acquire_envelope t ~kind ~src ~dst msg in
  Engine.schedule t.engine ~delay e.e_fire

(* Per-message accounting, the jitter draw, then the fault-model draws.
   The delivery-jitter draw always happens and fault draws only under a
   faulty plan, each short-circuiting, so a run with the fault model off
   consumes exactly the pre-fault-model random numbers.  A duplicate is a
   second envelope scheduled right after the first. *)
let send t ?(kind = Kind.other) ~src ~dst msg =
  if not t.failed.(src) then begin
    if src <> dst then begin
      t.sent <- t.sent + 1;
      count_kind t kind;
      trace_net t ~kind ~ekind:Obs.Sem.net_send ~src ~dst
    end;
    let base = Topology.latency t.topology ~src ~dst in
    let jitter = base *. t.jitter *. Util.Rng.float t.rng 1.0 in
    let delay = base +. jitter in
    if src = dst then deliver t ~kind ~src ~dst ~delay msg
    else if not (reachable t ~src ~dst) then begin
      t.dropped <- t.dropped + 1;
      trace_net t ~kind ~ekind:Obs.Sem.net_drop ~src ~dst
    end
    else begin
      let plan = plan_for t ~src ~dst in
      if not (faulty plan) then deliver t ~kind ~src ~dst ~delay msg
      else if plan.drop > 0. && Util.Rng.chance t.fault_rng plan.drop then begin
        t.dropped <- t.dropped + 1;
        trace_net t ~kind ~ekind:Obs.Sem.net_drop ~src ~dst
      end
      else begin
        let delay =
          if plan.spike_prob > 0. && Util.Rng.chance t.fault_rng plan.spike_prob then
            delay *. plan.spike_factor
          else delay
        in
        deliver t ~kind ~src ~dst ~delay msg;
        if plan.duplicate > 0. && Util.Rng.chance t.fault_rng plan.duplicate then begin
          t.duplicated <- t.duplicated + 1;
          trace_net t ~kind ~ekind:Obs.Sem.net_dup ~src ~dst;
          let extra = base *. (0.5 +. Util.Rng.float t.fault_rng 1.0) in
          deliver t ~kind ~src ~dst ~delay:(delay +. extra) msg
        end
      end
    end
  end

let multicast_batch t ?kind ~src ~dsts msg =
  List.iter (fun dst -> send t ?kind ~src ~dst msg) dsts
