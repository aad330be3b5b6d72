(* Every envelope carries a view epoch, stamped at send time from the
   [epoch_of] hook.  The epoch is keyed by the *request payload*, not the
   node: with a sharded object space each shard runs its own view epoch, and
   a message is fenced against the epoch of the shard its objects live on
   (with one shard this degenerates to the single cluster-wide epoch).  With
   fencing installed (see [set_fencing]) a node drops requests stamped with
   an older epoch than the current one — the membership fence that keeps
   evidence gathered under a superseded view from feeding quorum decisions
   in the current one.  Stale replies are dropped unconditionally: the
   caller's round times out and its retry re-stamps the current epoch.
   A reply inherits its request's epoch context via [epoch_now] (the reply
   payload alone cannot name a shard).  Without [set_fencing] every epoch
   is 0 and the layer behaves exactly as before. *)
type ('req, 'rep) envelope =
  | Request of { rid : int; payload : 'req; wants_reply : bool; epoch : int }
  | Reply of { rid : int; payload : 'rep; epoch : int; epoch_now : unit -> int }

type ('req, 'rep) pending = {
  mutable awaiting : int list;
  mutable replies : (int * 'rep) list;
  mutable finished : bool;
  complete : replies:(int * 'rep) list -> missing:int list -> unit;
}

type ('req, 'rep) t = {
  network : ('req, 'rep) envelope Network.t;
  servers : (src:int -> 'req -> 'rep option) option array;
  pending : (int, ('req, 'rep) pending) Hashtbl.t;
  mutable next_rid : int;
  mutable give_ups : int;
  mutable fenced : int;
  (* Membership fencing, installed by the cluster: [epoch_of req] is the
     current view epoch of the shard [req]'s objects live on (one shard:
     the cluster-wide epoch) and [fenceable req] says whether a stale
     [req] must be rejected (quorum-evidence traffic) or served anyway
     (idempotent catch-up/installer traffic such as Sync_req).  Inert
     defaults: epoch 0 everywhere, nothing fenced. *)
  mutable epoch_of : 'req -> int;
  mutable fenceable : 'req -> bool;
  (* Retransmission backoff ([acked_send]): attempt k waits
     min(max, base * 2^k) with seeded jitter before re-sending.  A base of
     0 retries immediately (the historical fixed-interval behaviour). *)
  retry_base : float;
  retry_max : float;
  rng : Util.Rng.t;
  tracer : Obs.Tracer.t; (* cached from the engine; Tracer.null when off *)
  (* Multicall timeouts: one timeout per call, at the clock plus a mostly
     fixed timeout, so they arrive in time order and most fire long after
     their call finished — a FIFO lane keeps them out of the engine heap. *)
  timeouts : Engine.lane;
}

let trace_fence t ~node ~src ~msg_epoch ~cur_epoch =
  if Obs.Tracer.enabled t.tracer then
    Obs.Tracer.emit8 t.tracer
      ~time:(Engine.now (Network.engine t.network))
      ~kind:Obs.Sem.epoch_fence ~node ~txn:(-1) ~oid:(-1) ~a:src ~b:msg_epoch
      ~x:(Float.of_int cur_epoch)

let handle_envelope t ~node ~src env =
  match env with
  | Request { rid; payload; wants_reply; epoch } ->
    let cur = t.epoch_of payload in
    if epoch < cur && t.fenceable payload then begin
      t.fenced <- t.fenced + 1;
      trace_fence t ~node ~src ~msg_epoch:epoch ~cur_epoch:cur
    end
    else begin
      match t.servers.(node) with
      | None -> ()
      | Some server ->
        begin
          match server ~src payload with
          | Some rep when wants_reply ->
            let epoch_now () = t.epoch_of payload in
            Network.send t.network ~kind:Network.Kind.reply ~src:node ~dst:src
              (Reply { rid; payload = rep; epoch = epoch_now (); epoch_now })
          | Some _ | None -> ()
        end
    end
  | Reply { rid; payload; epoch; epoch_now } ->
    let cur = epoch_now () in
    if epoch < cur then begin
      (* Evidence from a superseded view: the pending round will time out
         and the caller's retry carries the current epoch. *)
      t.fenced <- t.fenced + 1;
      trace_fence t ~node ~src ~msg_epoch:epoch ~cur_epoch:cur
    end
    else begin
      match Hashtbl.find_opt t.pending rid with
      | None -> () (* request already completed or timed out *)
      | Some p ->
        if List.mem src p.awaiting then begin
          p.awaiting <- List.filter (fun n -> n <> src) p.awaiting;
          p.replies <- (src, payload) :: p.replies;
          if p.awaiting = [] then begin
            p.finished <- true;
            Hashtbl.remove t.pending rid;
            p.complete ~replies:(List.rev p.replies) ~missing:[]
          end
        end
    end

let create ?(seed = 0) ?(retry_base = 0.) ?(retry_max = 0.) ~network () =
  let t =
    {
      network;
      servers = Array.make (Network.nodes network) None;
      pending = Hashtbl.create 64;
      next_rid = 0;
      give_ups = 0;
      fenced = 0;
      epoch_of = (fun _ -> 0);
      fenceable = (fun _ -> false);
      retry_base;
      retry_max;
      rng = Util.Rng.create seed;
      tracer = Engine.tracer (Network.engine network);
      timeouts = Engine.new_lane (Network.engine network);
    }
  in
  for node = 0 to Network.nodes network - 1 do
    Network.set_handler network ~node (fun ~src env -> handle_envelope t ~node ~src env)
  done;
  t

let serve t ~node handler = t.servers.(node) <- Some handler

let set_fencing t ~epoch_of ~fenceable =
  t.epoch_of <- epoch_of;
  t.fenceable <- fenceable

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  rid

let multicall t ?kind ~src ~dsts ~timeout req ~on_done =
  let rid = fresh_rid t in
  let p = { awaiting = dsts; replies = []; finished = false; complete = on_done } in
  if dsts = [] then on_done ~replies:[] ~missing:[]
  else begin
    Hashtbl.replace t.pending rid p;
    Network.multicast_batch t.network ?kind ~src ~dsts
      (Request { rid; payload = req; wants_reply = true; epoch = t.epoch_of req });
    let engine = Network.engine t.network in
    Engine.schedule_in engine t.timeouts
      ~time:(Engine.now engine +. Stdlib.max 0. timeout)
      (fun () ->
        if not p.finished then begin
          p.finished <- true;
          Hashtbl.remove t.pending rid;
          if Obs.Tracer.enabled t.tracer then
            Obs.Tracer.emit8 t.tracer ~time:(Engine.now engine)
              ~kind:Obs.Sem.rpc_timeout ~node:src ~txn:(-1) ~oid:(-1)
              ~a:(List.length p.awaiting)
              ~b:(match kind with Some k -> k | None -> Network.Kind.other)
              ~x:0.;
          p.complete ~replies:(List.rev p.replies) ~missing:p.awaiting
        end)
  end

let call t ?kind ~src ~dst ~timeout req ~on_reply ~on_timeout =
  multicall t ?kind ~src ~dsts:[ dst ] ~timeout req ~on_done:(fun ~replies ~missing ->
      match (replies, missing) with
      | [ (_, rep) ], _ -> on_reply rep
      | _, _ -> on_timeout ())

let cast t ?kind ~src ~dst req =
  let rid = fresh_rid t in
  Network.send t.network ?kind ~src ~dst
    (Request { rid; payload = req; wants_reply = false; epoch = t.epoch_of req })

(* One rid and one shared [Request] for the whole wave: fire-and-forget
   requests never enter the pending table, so per-destination rids bought
   nothing but allocations. *)
let multicast t ?kind ~src ~dsts req =
  let rid = fresh_rid t in
  Network.multicast_batch t.network ?kind ~src ~dsts
    (Request { rid; payload = req; wants_reply = false; epoch = t.epoch_of req })

(* At-least-once delivery for idempotent one-way messages: the request is
   re-sent until the server acknowledges it or [attempts] are exhausted
   (the destination may be genuinely dead).  Re-sends back off
   exponentially with seeded jitter (see [retry_base]) so a burst of
   losses does not hammer a congested link in lock-step; each re-send
   re-stamps the sender's current epoch.  The ack payload is ignored. *)
let acked_send t ?kind ?(attempts = 6) ~src ~dst ~timeout req =
  let give_up () =
    t.give_ups <- t.give_ups + 1;
    if Obs.Tracer.enabled t.tracer then
      Obs.Tracer.emit8 t.tracer
        ~time:(Engine.now (Network.engine t.network))
        ~kind:Obs.Sem.rpc_giveup ~node:src ~txn:(-1) ~oid:(-1) ~a:dst
        ~b:(match kind with Some k -> k | None -> Network.Kind.other)
        ~x:0.
  in
  let rec go ~left ~used =
    call t ?kind ~src ~dst ~timeout req
      ~on_reply:(fun _ -> ())
      ~on_timeout:(fun () ->
        if left <= 1 then give_up ()
        else if t.retry_base <= 0. then go ~left:(left - 1) ~used:(used + 1)
        else begin
          let capped =
            Float.min t.retry_max
              (t.retry_base *. Float.of_int (1 lsl Stdlib.min used 8))
          in
          let delay = capped *. (0.5 +. Util.Rng.float t.rng 1.0) in
          Engine.schedule (Network.engine t.network) ~delay (fun () ->
              go ~left:(left - 1) ~used:(used + 1))
        end)
  in
  go ~left:attempts ~used:0

let acked_multicast t ?kind ?attempts ~src ~dsts ~timeout req =
  List.iter (fun dst -> acked_send t ?kind ?attempts ~src ~dst ~timeout req) dsts

let give_ups t = t.give_ups
let reset_give_ups t = t.give_ups <- 0
let fenced t = t.fenced
let reset_fenced t = t.fenced <- 0
