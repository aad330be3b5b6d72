(* Open addressing with linear probing.  A slot is free when its key is
   [free]; deletion shifts the rest of the probe run back into the hole
   instead of leaving a tombstone, so a lookup stops at the first free
   slot and a table that churns through keys never fills with dead
   slots.  The load stays at most 3/4, so every probe run ends. *)

let free = min_int

(* floor (2^63 / golden ratio), odd, as a 63-bit pattern: the top bits of
   [key * golden] spread consecutive keys evenly over the slots. *)
let golden = 0x4f1bbcdcbfa53e0b

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable shift : int; (* Sys.int_size - log2 (capacity) *)
  dummy : 'a;
}

let home shift key = (key * golden) lsr shift

(* The slot holding [key], or [-1 - s] where [s] is the free slot that
   ends its probe run. *)
let rec probe keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key then i
  else if k = free then -1 - i
  else probe keys mask key ((i + 1) land mask)

let locate t key =
  let keys = t.keys in
  probe keys (Array.length keys - 1) key (home t.shift key)

let create ~dummy =
  { keys = Array.make 8 free; vals = Array.make 8 dummy; size = 0; shift = Sys.int_size - 3; dummy }

let length t = t.size
let mem t key = key <> free && locate t key >= 0

let find_or t key ~default =
  if key = free then default
  else
    let i = locate t key in
    if i >= 0 then Array.unsafe_get t.vals i else default

let find_opt t key =
  if key = free then None
  else
    let i = locate t key in
    if i >= 0 then Some (Array.unsafe_get t.vals i) else None

let grow t =
  let keys = t.keys and vals = t.vals in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n free;
  t.vals <- Array.make n t.dummy;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun i key ->
      if key <> free then begin
        let s = -1 - locate t key in
        Array.unsafe_set t.keys s key;
        Array.unsafe_set t.vals s (Array.unsafe_get vals i)
      end)
    keys

let replace t key v =
  if key = free then invalid_arg "Int_table.replace: min_int is not a key";
  let i = locate t key in
  if i >= 0 then Array.unsafe_set t.vals i v
  else begin
    let s =
      if 4 * (t.size + 1) > 3 * Array.length t.keys then begin
        grow t;
        -1 - locate t key
      end
      else -1 - i
    in
    Array.unsafe_set t.keys s key;
    Array.unsafe_set t.vals s v;
    t.size <- t.size + 1
  end

(* Backward shift: walk the run after the hole, and move back into it
   every key whose home slot does not lie cyclically between the hole and
   its own slot — that key's probe from home would otherwise cross the
   hole and stop short. *)
let remove t key =
  let i = if key = free then -1 else locate t key in
  if i >= 0 then begin
    let keys = t.keys and vals = t.vals in
    let mask = Array.length keys - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while Array.unsafe_get keys !j <> free do
      let k = Array.unsafe_get keys !j in
      if (!j - home t.shift k) land mask >= (!j - !hole) land mask then begin
        Array.unsafe_set keys !hole k;
        Array.unsafe_set vals !hole (Array.unsafe_get vals !j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    Array.unsafe_set keys !hole free;
    Array.unsafe_set vals !hole t.dummy;
    t.size <- t.size - 1
  end

let clear t =
  if t.size > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) free;
    Array.fill t.vals 0 (Array.length t.vals) t.dummy;
    t.size <- 0
  end

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> free then f k (Array.unsafe_get vals i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
