(* The queue is columnar.  The heap and every lane store their entries as
   parallel columns — [time] (a flat, unboxed [float array]), [seq] and
   [slot] — and the actions live in one [actions] array indexed by slot,
   recycled through an int free stack.  A sift or a ring move therefore
   copies plain words and never runs the write barrier; the barrier runs
   twice per event, to store the action in its slot and to clear it at
   dispatch (so a fired closure is not retained).

   A slot also records the seq of the entry that took it last, which is
   how [disarm] tells a lane entry's handle from a stale one.

   Without flambda, a float passed to a function that is not inlined is
   boxed, so no float crosses a call on the schedule or dispatch path: a new
   entry is written at its final column index and then sifted by index, and
   every (time, seq) comparison is written out inline. *)

let nop () = ()

(* A FIFO lane: a ring of entries whose times were pushed in nondecreasing
   order.  Each push takes a fresh seq, so the ring is sorted by
   (time, seq) and its head is its minimum. *)
type lane = {
  mutable l_time : float array; (* capacity is a power of two *)
  mutable l_seq : int array;
  mutable l_slot : int array;
  mutable head : int;
  mutable len : int;
}

(* A float-only record is stored flat, so dispatch updates the clock
   unboxed. *)
type clock = { mutable at : float }

type t = {
  (* Binary min-heap over (time, seq) in positions [0 .. size-1].  Seqs
     are unique, so no two entries tie and any structure that pops the
     minimum dispatches the same sequence. *)
  mutable time : float array;
  mutable seq : int array;
  mutable slot : int array;
  mutable size : int;
  mutable actions : (unit -> unit) array; (* by slot; [nop] when free *)
  mutable slot_seq : int array; (* by slot: the seq of its latest entry *)
  mutable free : int array; (* stack of free slots, as long as [actions] *)
  mutable free_len : int;
  mutable lanes : lane array;
  clock : clock;
  mutable clock_box : float; (* the clock as [now] last returned it *)
  mutable next_seq : int;
  mutable processed : int;
  tracer : Obs.Tracer.t;
}

let initial = 64

let create ?(tracer = Obs.Tracer.null) () =
  {
    time = Array.make initial 0.;
    seq = Array.make initial 0;
    slot = Array.make initial 0;
    size = 0;
    actions = Array.make initial nop;
    slot_seq = Array.make initial 0;
    free = Array.init initial (fun k -> initial - 1 - k);
    free_len = initial;
    lanes = [||];
    clock = { at = 0. };
    clock_box = 0.;
    next_seq = 0;
    processed = 0;
    tracer;
  }

(* [now] must return a boxed float.  Boxing at every dispatch would
   allocate for events that never read the clock, and boxing at every call
   would allocate once per read (a traced event reads it several times), so
   the box is cached and made afresh only when the clock has moved.  The
   bits are compared, so the box holds exactly the clock, sign of zero
   included. *)
let now t =
  let c = t.clock.at in
  if Int64.bits_of_float c <> Int64.bits_of_float t.clock_box then t.clock_box <- c;
  t.clock_box

let tracer t = t.tracer

(* --- action slots -------------------------------------------------------- *)

let take_slot t ~seq action =
  if t.free_len = 0 then begin
    let cap = Array.length t.actions in
    let actions = Array.make (2 * cap) nop in
    Array.blit t.actions 0 actions 0 cap;
    t.actions <- actions;
    let slot_seq = Array.make (2 * cap) 0 in
    Array.blit t.slot_seq 0 slot_seq 0 cap;
    t.slot_seq <- slot_seq;
    (* Every old slot is in use, so the stack holds exactly the new ones. *)
    t.free <- Array.init (2 * cap) (fun k -> (2 * cap) - 1 - k);
    t.free_len <- cap
  end;
  let n = t.free_len - 1 in
  t.free_len <- n;
  let s = Array.unsafe_get t.free n in
  Array.unsafe_set t.actions s action;
  Array.unsafe_set t.slot_seq s seq;
  s

(* Clear the slot before running its action, which may reuse it. *)
let fire t s =
  let action = Array.unsafe_get t.actions s in
  Array.unsafe_set t.actions s nop;
  Array.unsafe_set t.free t.free_len s;
  t.free_len <- t.free_len + 1;
  t.processed <- t.processed + 1;
  action ()

(* --- heap: sifts a hole by index, moving plain words -------------------- *)

(* Claim position [size] for a new entry with this seq and slot; the
   caller stores its time there and calls [sift_up]. *)
let heap_append t ~seq ~slot =
  let i = t.size in
  if i = Array.length t.time then begin
    let grow a fill =
      let b = Array.make (2 * i) fill in
      Array.blit a 0 b 0 i;
      b
    in
    t.time <- grow t.time 0.;
    t.seq <- grow t.seq 0;
    t.slot <- grow t.slot 0
  end;
  Array.unsafe_set t.seq i seq;
  Array.unsafe_set t.slot i slot;
  t.size <- i + 1;
  i

let sift_up t i =
  let time = t.time and seq = t.seq and slot = t.slot in
  let et = Array.unsafe_get time i
  and es = Array.unsafe_get seq i
  and el = Array.unsafe_get slot i in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let pt = Array.unsafe_get time p in
    if et < pt || (et = pt && es < Array.unsafe_get seq p) then begin
      Array.unsafe_set time !i pt;
      Array.unsafe_set seq !i (Array.unsafe_get seq p);
      Array.unsafe_set slot !i (Array.unsafe_get slot p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set time !i et;
  Array.unsafe_set seq !i es;
  Array.unsafe_set slot !i el

(* Drop position 0 of a non-empty heap: the last entry fills the hole and
   sifts down. *)
let heap_remove_top t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let time = t.time and seq = t.seq and slot = t.slot in
    let et = Array.unsafe_get time n
    and es = Array.unsafe_get seq n
    and el = Array.unsafe_get slot n in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let rt = Array.unsafe_get time r and lt = Array.unsafe_get time l in
            if rt < lt || (rt = lt && Array.unsafe_get seq r < Array.unsafe_get seq l)
            then r
            else l
          end
          else l
        in
        let ct = Array.unsafe_get time c in
        if ct < et || (ct = et && Array.unsafe_get seq c < es) then begin
          Array.unsafe_set time !i ct;
          Array.unsafe_set seq !i (Array.unsafe_get seq c);
          Array.unsafe_set slot !i (Array.unsafe_get slot c);
          i := c
        end
        else moving := false
      end
    done;
    Array.unsafe_set time !i et;
    Array.unsafe_set seq !i es;
    Array.unsafe_set slot !i el
  end

(* --- lanes --------------------------------------------------------------- *)

let new_lane t =
  let lane =
    {
      l_time = Array.make initial 0.;
      l_seq = Array.make initial 0;
      l_slot = Array.make initial 0;
      head = 0;
      len = 0;
    }
  in
  t.lanes <- Array.append t.lanes [| lane |];
  lane

(* Claim the ring index behind the tail for a new entry with this seq and
   slot; the caller stores its time there. *)
let lane_append lane ~seq ~slot =
  let cap = Array.length lane.l_time in
  if lane.len = cap then begin
    let unroll a fill =
      let b = Array.make (2 * cap) fill in
      for k = 0 to cap - 1 do
        Array.unsafe_set b k (Array.unsafe_get a ((lane.head + k) land (cap - 1)))
      done;
      b
    in
    lane.l_time <- unroll lane.l_time 0.;
    lane.l_seq <- unroll lane.l_seq 0;
    lane.l_slot <- unroll lane.l_slot 0;
    lane.head <- 0
  end;
  let k = (lane.head + lane.len) land (Array.length lane.l_time - 1) in
  Array.unsafe_set lane.l_seq k seq;
  Array.unsafe_set lane.l_slot k slot;
  lane.len <- lane.len + 1;
  k

(* --- scheduling ---------------------------------------------------------- *)

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let schedule_at t ~time action =
  let seq = reserve_seq t in
  let i = heap_append t ~seq ~slot:(take_slot t ~seq action) in
  Array.unsafe_set t.time i (if time >= t.clock.at then time else t.clock.at);
  sift_up t i

let schedule t ~delay action =
  let seq = reserve_seq t in
  let i = heap_append t ~seq ~slot:(take_slot t ~seq action) in
  let time = t.clock.at +. if 0. >= delay then 0. else delay in
  Array.unsafe_set t.time i (if time >= t.clock.at then time else t.clock.at);
  sift_up t i

(* A handle packs a slot into the low [slot_bits] bits and the low bits of
   its entry's seq above them.  No engine holds 2^31 slots, so a slot
   always fits, and [no_handle]'s slot is past every [actions] array. *)
type handle = int

let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let seq_mask = (1 lsl (Sys.int_size - slot_bits)) - 1
let no_handle = slot_mask

let schedule_in t lane ~time action =
  let seq = reserve_seq t in
  let slot = take_slot t ~seq action in
  let time = if time >= t.clock.at then time else t.clock.at in
  if
    lane.len > 0
    && time
       < Array.unsafe_get lane.l_time
           ((lane.head + lane.len - 1) land (Array.length lane.l_time - 1))
  then begin
    let i = heap_append t ~seq ~slot in
    Array.unsafe_set t.time i time;
    sift_up t i
  end
  else begin
    let k = lane_append lane ~seq ~slot in
    Array.unsafe_set lane.l_time k time
  end;
  ((seq land seq_mask) lsl slot_bits) lor slot

(* Once an entry has fired its slot holds [nop] until a later entry takes
   it, and that entry's seq differs, so a stale handle changes nothing. *)
let disarm t h =
  let s = h land slot_mask in
  if s < Array.length t.slot_seq && t.slot_seq.(s) land seq_mask = h lsr slot_bits then
    t.actions.(s) <- nop

(* --- dispatch ------------------------------------------------------------ *)

(* Where the earliest pending entry lives: [-1] the heap, [i >= 0] lane
   [i], [-2] nowhere (nothing is pending). *)
let next_source t =
  let src = ref (if t.size > 0 then -1 else -2) in
  let best_time = ref (Array.unsafe_get t.time 0) in
  let best_seq = ref (Array.unsafe_get t.seq 0) in
  let lanes = t.lanes in
  for i = 0 to Array.length lanes - 1 do
    let lane = Array.unsafe_get lanes i in
    if lane.len > 0 then begin
      let lt = Array.unsafe_get lane.l_time lane.head in
      let ls = Array.unsafe_get lane.l_seq lane.head in
      if !src = -2 || lt < !best_time || (lt = !best_time && ls < !best_seq) then begin
        src := i;
        best_time := lt;
        best_seq := ls
      end
    end
  done;
  !src

(* The dispatch loop is the simulator's innermost hot path: one call per
   event, millions per run. *)
let exec t src =
  if src = -1 then begin
    let s = Array.unsafe_get t.slot 0 in
    t.clock.at <- Array.unsafe_get t.time 0;
    heap_remove_top t;
    fire t s
  end
  else begin
    let lane = Array.unsafe_get t.lanes src in
    let h = lane.head in
    t.clock.at <- Array.unsafe_get lane.l_time h;
    lane.head <- (h + 1) land (Array.length lane.l_time - 1);
    lane.len <- lane.len - 1;
    fire t (Array.unsafe_get lane.l_slot h)
  end

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
    if src = -2 then go := false
    else begin
      let next =
        if src = -1 then Array.unsafe_get t.time 0
        else
          let lane = Array.unsafe_get t.lanes src in
          Array.unsafe_get lane.l_time lane.head
      in
      if next > limit then go := false else exec t src
    end
  done;
  match until with Some limit when t.clock.at < limit -> t.clock.at <- limit | Some _ | None -> ()

let pending t = Array.fold_left (fun n lane -> n + lane.len) t.size t.lanes
let events_processed t = t.processed
