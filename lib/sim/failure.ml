(* Crash scheduling, detection, and recovery.

   Two distinct node states are tracked:

   - *killed*   — the node is actually down (its process is gone);
   - *suspected* — the failure detector believes it is down.

   With a perfect detector the second lags the first by a fixed
   [detection_delay].  The detector here may also be imperfect: detection
   jitter spreads the lag, and false suspicions mark a perfectly live node
   as suspected for a while.  Consumers that need ground truth (the
   network, scenario bookkeeping) must use [is_killed]; consumers modelling
   the membership view (quorum construction) must use [is_suspected]. *)

type t = {
  engine : Engine.t;
  detection_delay : float;
  detection_jitter : float;
  rng : Util.Rng.t;
  kill : int -> unit;
  mutable detect_subscribers : (int -> unit) list;
  mutable recover_subscribers : (node:int -> was_killed:bool -> unit) list;
  killed : (int, unit) Hashtbl.t;
  suspected : (int, unit) Hashtbl.t;
  mutable false_suspicions : int;
}

let create ~engine ?(detection_delay = 50.) ?(detection_jitter = 0.) ?(seed = 29) ~kill
    () =
  {
    engine;
    detection_delay;
    detection_jitter;
    rng = Util.Rng.create seed;
    kill;
    detect_subscribers = [];
    recover_subscribers = [];
    killed = Hashtbl.create 7;
    suspected = Hashtbl.create 7;
    false_suspicions = 0;
  }

let on_detect t f = t.detect_subscribers <- f :: t.detect_subscribers
let on_recover t f = t.recover_subscribers <- f :: t.recover_subscribers

let is_killed t node = Hashtbl.mem t.killed node
let is_suspected t node = Hashtbl.mem t.suspected node

let sorted_keys table =
  Hashtbl.fold (fun node () acc -> node :: acc) table [] |> List.sort Int.compare

let killed_nodes t = sorted_keys t.killed
let suspected_nodes t = sorted_keys t.suspected
let false_suspicions t = t.false_suspicions

let detection_lag t =
  if t.detection_jitter <= 0. then t.detection_delay
  else t.detection_delay +. Util.Rng.float t.rng t.detection_jitter

let suspect_now t node =
  if not (Hashtbl.mem t.suspected node) then begin
    Hashtbl.replace t.suspected node ();
    List.iter (fun f -> f node) (List.rev t.detect_subscribers)
  end

let clear_suspicion t node = Hashtbl.remove t.suspected node

let schedule t ~at ~node =
  Engine.schedule_at t.engine ~time:at (fun () ->
      if not (Hashtbl.mem t.killed node) then begin
        Hashtbl.replace t.killed node ();
        t.kill node
      end);
  Engine.schedule_at t.engine ~time:(at +. detection_lag t) (fun () ->
      (* A node that already came back is no longer suspected. *)
      if Hashtbl.mem t.killed node then suspect_now t node)

let fire_recover t ~node ~was_killed =
  List.iter (fun f -> f ~node ~was_killed) (List.rev t.recover_subscribers)

let schedule_recovery t ~at ~node =
  Engine.schedule_at t.engine ~time:at (fun () ->
      if Hashtbl.mem t.killed node then begin
        Hashtbl.remove t.killed node;
        fire_recover t ~node ~was_killed:true
      end)

(* A false suspicion: the detector wrongly declares a live node failed; the
   mistake is noticed [clear_after] later (if given), at which point
   recovery subscribers run with [was_killed = false]: the node kept its
   state, but quorums bypassed it meanwhile. *)
let schedule_false_suspicion ?clear_after t ~at ~node =
  Engine.schedule_at t.engine ~time:at (fun () ->
      if (not (Hashtbl.mem t.killed node)) && not (Hashtbl.mem t.suspected node)
      then begin
        t.false_suspicions <- t.false_suspicions + 1;
        suspect_now t node;
        Option.iter
          (fun after ->
            Engine.schedule_at t.engine ~time:(at +. after) (fun () ->
                if Hashtbl.mem t.suspected node && not (Hashtbl.mem t.killed node)
                then fire_recover t ~node ~was_killed:false))
          clear_after
      end)
