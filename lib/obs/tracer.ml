(* The ring is a structure of arrays, not an array of event records: the
   enabled-path [emit8] writes eight fixed-width slots (two unboxed float
   arrays, six int arrays) and allocates nothing — no event record, no
   boxed floats, no option wrappers.  The record-based [event] view is
   materialised only by the cold read side ([iter]/[events]). *)

type event = {
  time : float;
  ekind : Kind.t;
  node : int;
  txn : int;
  oid : int;
  a : int;
  b : int;
  x : float;
}

type sink =
  time:float ->
  kind:int ->
  node:int ->
  txn:int ->
  oid:int ->
  a:int ->
  b:int ->
  x:float ->
  unit

let no_sink ~time:_ ~kind:_ ~node:_ ~txn:_ ~oid:_ ~a:_ ~b:_ ~x:_ = ()

type t = {
  enabled : bool;
  times : float array;
  xs : float array;
  kinds : int array;
  nodes : int array;
  txns : int array;
  oids : int array;
  slot_a : int array;
  slot_b : int array;
  mutable start : int; (* index of the oldest retained event *)
  mutable len : int;
  mutable dropped : int;
  mutable has_sink : bool; (* guard so the common no-sink path skips a call *)
  mutable sink : sink;
}

let null =
  {
    enabled = false;
    times = [||];
    xs = [||];
    kinds = [||];
    nodes = [||];
    txns = [||];
    oids = [||];
    slot_a = [||];
    slot_b = [||];
    start = 0;
    len = 0;
    dropped = 0;
    has_sink = false;
    sink = no_sink;
  }

let create ?(capacity = 1 lsl 20) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  {
    enabled = true;
    times = Array.make capacity 0.;
    xs = Array.make capacity 0.;
    kinds = Array.make capacity 0;
    nodes = Array.make capacity (-1);
    txns = Array.make capacity (-1);
    oids = Array.make capacity (-1);
    slot_a = Array.make capacity (-1);
    slot_b = Array.make capacity (-1);
    start = 0;
    len = 0;
    dropped = 0;
    has_sink = false;
    sink = no_sink;
  }

let set_sink t f =
  if not t.enabled then invalid_arg "Tracer.set_sink: disabled tracer";
  t.sink <- f;
  t.has_sink <- true

let enabled t = t.enabled

(* All-arguments-required emission: no option boxing at the call site, no
   allocation in the body.  Hot instrumentation points (network delivery,
   the executor's per-step traces) call this directly with explicit [-1] /
   [0.] placeholders; [emit] below keeps the ergonomic optional-argument
   form for cold sites. *)
let emit8 t ~time ~kind ~node ~txn ~oid ~a ~b ~x =
  if t.enabled then begin
    let cap = Array.length t.kinds in
    let slot =
      let s = t.start + t.len in
      if s >= cap then s - cap else s
    in
    t.times.(slot) <- time;
    t.xs.(slot) <- x;
    t.kinds.(slot) <- kind;
    t.nodes.(slot) <- node;
    t.txns.(slot) <- txn;
    t.oids.(slot) <- oid;
    t.slot_a.(slot) <- a;
    t.slot_b.(slot) <- b;
    if t.len < cap then t.len <- t.len + 1
    else begin
      (* Full: the slot we just wrote was the oldest; advance the window. *)
      let s = t.start + 1 in
      t.start <- (if s >= cap then 0 else s);
      t.dropped <- t.dropped + 1
    end;
    (* The sink sees every event, including ones the ring will evict —
       streaming consumers are immune to ring truncation. *)
    if t.has_sink then t.sink ~time ~kind ~node ~txn ~oid ~a ~b ~x
  end

let emit t ~time ~kind ?(node = -1) ?(txn = -1) ?(oid = -1) ?(a = -1) ?(b = -1)
    ?(x = 0.) () =
  emit8 t ~time ~kind ~node ~txn ~oid ~a ~b ~x

let length t = t.len
let dropped t = t.dropped

let iter t f =
  let cap = Array.length t.kinds in
  for i = 0 to t.len - 1 do
    let slot =
      let s = t.start + i in
      if s >= cap then s - cap else s
    in
    f
      {
        time = t.times.(slot);
        ekind = t.kinds.(slot);
        node = t.nodes.(slot);
        txn = t.txns.(slot);
        oid = t.oids.(slot);
        a = t.slot_a.(slot);
        b = t.slot_b.(slot);
        x = t.xs.(slot);
      }
  done

let events t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let clear t =
  t.start <- 0;
  t.len <- 0;
  t.dropped <- 0
