(* A call's pending record travels with it: the request goes out in a
   [Call] envelope carrying the record, and each reply comes back in a
   [Reply] envelope carrying the same record, so collecting a reply is a
   field access — no table keyed by request id, no hashing.  A record is
   live until [finished] is set, by the last awaited reply or by the
   timeout; replies that arrive after that are discarded.  One-way traffic
   goes out in a [Cast] and carries no record.

   Finishing a call lets go of it.  The last awaited reply disarms the
   call's timeout, whose closure would otherwise keep the record (request,
   replies, continuation) reachable until it fired as a no-op, usually
   long after the call finished, so every minor collection in between
   would promote it.  Either way of finishing
   also empties [replies] and drops [complete], so a late or duplicate
   reply still in flight holds only [req] and [dsts]: [req] stays, since
   fencing that reply reads [epoch_of p.req].

   Every envelope carries a view epoch, stamped at send time from the
   [epoch_of] hook.  The epoch is keyed by the *request payload*, not the
   node: with a sharded object space each shard runs its own view epoch, and
   a message is fenced against the epoch of the shard its objects live on
   (with one shard this degenerates to the single cluster-wide epoch).  With
   fencing installed (see [set_fencing]) a node drops requests stamped with
   an older epoch than the current one — the membership fence that keeps
   evidence gathered under a superseded view from feeding quorum decisions
   in the current one.  Stale replies are dropped unconditionally: the
   caller's round times out and its retry re-stamps the current epoch.
   A reply is stamped and fenced with [epoch_of p.req], its request's epoch
   context (the reply payload alone cannot name a shard).  Without
   [set_fencing] every epoch is 0 and the layer behaves exactly as before. *)
type ('req, 'rep) pending = {
  req : 'req;
  dsts : int list;
  mutable outstanding : int;  (* distinct [dsts] that have not replied *)
  mutable replies : (int * 'rep) list;
  mutable finished : bool;
  mutable complete : replies:(int * 'rep) list -> missing:int list -> unit;
  mutable timer : Engine.handle; (* the timeout, once armed *)
}

let completed ~replies:_ ~missing:_ = ()

(* Mark [p] finished, release what it holds, then run its continuation. *)
let finish p ~missing =
  let complete = p.complete and replies = p.replies in
  p.finished <- true;
  p.complete <- completed;
  p.replies <- [];
  complete ~replies:(List.rev replies) ~missing

type ('req, 'rep) envelope =
  | Call of { p : ('req, 'rep) pending; epoch : int }
  | Reply of { p : ('req, 'rep) pending; payload : 'rep; epoch : int }
  | Cast of { payload : 'req; epoch : int }

type ('req, 'rep) t = {
  network : ('req, 'rep) envelope Network.t;
  servers : (src:int -> 'req -> 'rep option) option array;
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

(* Serve a request at [node] unless the epoch fence rejects it; the
   server's reply, if any. *)
let serve_request t ~node ~src ~epoch payload =
  let cur = t.epoch_of payload in
  if epoch < cur && t.fenceable payload then begin
    t.fenced <- t.fenced + 1;
    trace_fence t ~node ~src ~msg_epoch:epoch ~cur_epoch:cur;
    None
  end
  else match t.servers.(node) with None -> None | Some server -> server ~src payload

let handle_envelope t ~node ~src env =
  match env with
  | Call { p; epoch } ->
    begin
      match serve_request t ~node ~src ~epoch p.req with
      | Some payload ->
        Network.send t.network ~kind:Network.Kind.reply ~src:node ~dst:src
          (Reply { p; payload; epoch = t.epoch_of p.req })
      | None -> ()
    end
  | Cast { payload; epoch } -> ignore (serve_request t ~node ~src ~epoch payload : _ option)
  | Reply { p; payload; epoch } ->
    let cur = t.epoch_of p.req in
    if epoch < cur then begin
      (* Evidence from a superseded view: the pending round will time out
         and the caller's retry carries the current epoch. *)
      t.fenced <- t.fenced + 1;
      trace_fence t ~node ~src ~msg_epoch:epoch ~cur_epoch:cur
    end
    else if (not p.finished) && not (List.mem_assoc src p.replies) then begin
      (* A finished call has completed or timed out, so a late reply is
         discarded; a source already in [replies] is a duplicate.  Only
         [dsts] receive the call, so only they reply. *)
      p.outstanding <- p.outstanding - 1;
      p.replies <- (src, payload) :: p.replies;
      if p.outstanding = 0 then begin
        Engine.disarm (Network.engine t.network) p.timer;
        finish p ~missing:[]
      end
    end

let create ?(seed = 0) ?(retry_base = 0.) ?(retry_max = 0.) ~network () =
  let t =
    {
      network;
      servers = Array.make (Network.nodes network) None;
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

let multicall t ?kind ~src ~dsts ~timeout req ~on_done =
  if dsts = [] then on_done ~replies:[] ~missing:[]
  else begin
    let rec distinct n = function
      | [] -> n
      | d :: rest -> distinct (if List.mem d rest then n else n + 1) rest
    in
    let p =
      { req; dsts; outstanding = distinct 0 dsts; replies = []; finished = false;
        complete = on_done; timer = Engine.no_handle }
    in
    Network.multicast_batch t.network ?kind ~src ~dsts (Call { p; epoch = t.epoch_of req });
    let engine = Network.engine t.network in
    p.timer <-
      Engine.schedule_in engine t.timeouts
        ~time:(Engine.now engine +. Stdlib.max 0. timeout)
        (fun () ->
          if not p.finished then begin
            let missing = List.filter (fun d -> not (List.mem_assoc d p.replies)) p.dsts in
            if Obs.Tracer.enabled t.tracer then
              Obs.Tracer.emit8 t.tracer ~time:(Engine.now engine)
                ~kind:Obs.Sem.rpc_timeout ~node:src ~txn:(-1) ~oid:(-1)
                ~a:(List.length missing)
                ~b:(match kind with Some k -> k | None -> Network.Kind.other)
                ~x:0.;
            finish p ~missing
          end)
  end

let call t ?kind ~src ~dst ~timeout req ~on_reply ~on_timeout =
  multicall t ?kind ~src ~dsts:[ dst ] ~timeout req ~on_done:(fun ~replies ~missing ->
      match (replies, missing) with
      | [ (_, rep) ], _ -> on_reply rep
      | _, _ -> on_timeout ())

let cast t ?kind ~src ~dst req =
  Network.send t.network ?kind ~src ~dst (Cast { payload = req; epoch = t.epoch_of req })

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
