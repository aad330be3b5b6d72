(* Events are pooled mutable records: the queue holds references, and a
   record popped by the dispatch loop goes onto a free stack to be reused
   by the next [schedule].  Steady-state scheduling therefore allocates
   nothing — the closure (when the caller passes a fresh one) is the only
   per-event allocation left, and the network layer avoids even that with
   its reusable delivery envelopes. *)
type event = {
  mutable time : float;
  mutable seq : int;
  mutable action : unit -> unit;
}

let nop () = ()

(* Filler for unused queue slots. *)
let dummy = { time = Float.infinity; seq = max_int; action = nop }

(* The total order every event fires in.  Seqs are unique, so no two
   events tie and any structure that pops the minimum dispatches the same
   sequence. *)
let[@inline] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* A FIFO lane: a ring of events whose times were pushed in nondecreasing
   order.  Each push takes a fresh seq, so the ring is sorted by
   (time, seq) and its head is its minimum. *)
type lane = {
  mutable ring : event array; (* capacity is a power of two *)
  mutable head : int;
  mutable len : int;
  mutable last : float; (* time of the newest event; meaningful when len > 0 *)
}

type t = {
  (* Binary min-heap over [before] in [heap.(0 .. size-1)]. *)
  mutable heap : event array;
  mutable size : int;
  mutable lanes : lane array;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  tracer : Obs.Tracer.t;
  mutable free : event array; (* stack of recycled event records *)
  mutable free_len : int;
}

let create ?(tracer = Obs.Tracer.null) () =
  {
    heap = Array.make 64 dummy;
    size = 0;
    lanes = [||];
    clock = 0.;
    next_seq = 0;
    processed = 0;
    tracer;
    free = [||];
    free_len = 0;
  }

let now t = t.clock
let tracer t = t.tracer

let acquire t ~time ~seq ~action =
  if t.free_len > 0 then begin
    let n = t.free_len - 1 in
    t.free_len <- n;
    let ev = t.free.(n) in
    ev.time <- time;
    ev.seq <- seq;
    ev.action <- action;
    ev
  end
  else { time; seq; action }

let release t ev =
  ev.action <- nop;
  (* don't retain the closure through the pool *)
  let cap = Array.length t.free in
  if t.free_len = cap then begin
    let cap' = if cap = 0 then 64 else 2 * cap in
    let grown = Array.make cap' ev in
    Array.blit t.free 0 grown 0 cap;
    t.free <- grown
  end;
  t.free.(t.free_len) <- ev;
  t.free_len <- t.free_len + 1

(* --- heap: compares inline and sifts a hole instead of swapping --------- *)

let heap_add t ev =
  if t.size = Array.length t.heap then begin
    let grown = Array.make (2 * t.size) dummy in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  let h = t.heap in
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    let p = Array.unsafe_get h parent in
    if before ev p then begin
      Array.unsafe_set h !i p;
      i := parent
    end
    else moving := false
  done;
  Array.unsafe_set h !i ev

(* Non-empty heap only. *)
let heap_pop t =
  let h = t.heap in
  let top = Array.unsafe_get h 0 in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let last = Array.unsafe_get h n in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && before (Array.unsafe_get h r) (Array.unsafe_get h l) then r else l
        in
        let child = Array.unsafe_get h c in
        if before child last then begin
          Array.unsafe_set h !i child;
          i := c
        end
        else moving := false
      end
    done;
    Array.unsafe_set h !i last
  end;
  top

(* --- lanes --------------------------------------------------------------- *)

let new_lane t =
  let lane = { ring = Array.make 64 dummy; head = 0; len = 0; last = 0. } in
  t.lanes <- Array.append t.lanes [| lane |];
  lane

let lane_push lane ev =
  let cap = Array.length lane.ring in
  if lane.len = cap then begin
    let grown = Array.make (2 * cap) dummy in
    for k = 0 to cap - 1 do
      grown.(k) <- lane.ring.((lane.head + k) land (cap - 1))
    done;
    lane.ring <- grown;
    lane.head <- 0
  end;
  let ring = lane.ring in
  Array.unsafe_set ring ((lane.head + lane.len) land (Array.length ring - 1)) ev;
  lane.len <- lane.len + 1;
  lane.last <- ev.time

(* Non-empty lane only. *)
let lane_pop lane =
  let ring = lane.ring in
  let ev = Array.unsafe_get ring lane.head in
  lane.head <- (lane.head + 1) land (Array.length ring - 1);
  lane.len <- lane.len - 1;
  ev

(* --- scheduling ---------------------------------------------------------- *)

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let schedule_at_seq t ~time ~seq action =
  let time = Stdlib.max time t.clock in
  heap_add t (acquire t ~time ~seq ~action)

let schedule_at t ~time action = schedule_at_seq t ~time ~seq:(reserve_seq t) action
let schedule t ~delay action = schedule_at t ~time:(t.clock +. Stdlib.max 0. delay) action

let schedule_in t lane ~time action =
  let time = Stdlib.max time t.clock in
  let ev = acquire t ~time ~seq:(reserve_seq t) ~action in
  if lane.len > 0 && time < lane.last then heap_add t ev else lane_push lane ev

(* --- dispatch ------------------------------------------------------------ *)

(* Where the earliest pending event lives: [-1] the heap, [i >= 0] lane
   [i], [-2] nowhere (nothing is pending). *)
let next_source t =
  let src = ref (if t.size > 0 then -1 else -2) in
  let best = ref (Array.unsafe_get t.heap 0) in
  let lanes = t.lanes in
  for i = 0 to Array.length lanes - 1 do
    let lane = Array.unsafe_get lanes i in
    if lane.len > 0 then begin
      let ev = Array.unsafe_get lane.ring lane.head in
      if !src = -2 || before ev !best then begin
        src := i;
        best := ev
      end
    end
  done;
  !src

let peek t src =
  if src = -1 then Array.unsafe_get t.heap 0
  else
    let lane = Array.unsafe_get t.lanes src in
    Array.unsafe_get lane.ring lane.head

(* The dispatch loop is the simulator's innermost hot path: one call per
   event, millions per run.  The record is released to the pool before the
   action runs, so an action that schedules immediately reuses it — fields
   are read out first. *)
let exec t src =
  let ev = if src = -1 then heap_pop t else lane_pop (Array.unsafe_get t.lanes src) in
  let action = ev.action in
  t.clock <- ev.time;
  t.processed <- t.processed + 1;
  release t ev;
  action ()

let step t =
  let src = next_source t in
  if src = -2 then false
  else begin
    exec t src;
    true
  end

let run ?until t =
  let limit = match until with Some limit -> limit | None -> Float.infinity in
  let go = ref true in
  while !go do
    let src = next_source t in
    if src = -2 || (peek t src).time > limit then go := false else exec t src
  done;
  match until with Some limit when t.clock < limit -> t.clock <- limit | Some _ | None -> ()

let pending t = Array.fold_left (fun n lane -> n + lane.len) t.size t.lanes
let events_processed t = t.processed
