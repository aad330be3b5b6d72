type 'a t = {
  cap : int;
  table : 'a Int_table.t;
  mutable ring : int array; (* keys, oldest at [head]; grown up to [cap] *)
  mutable head : int;
  mutable len : int;
}

let create ~cap ~dummy =
  if cap < 1 then invalid_arg "Window.create: cap must be positive";
  { cap; table = Int_table.create ~dummy; ring = [||]; head = 0; len = 0 }

let mem w key = Int_table.mem w.table key
let find_opt w key = Int_table.find_opt w.table key
let find_or w key ~default = Int_table.find_or w.table key ~default

(* Append [key] as the newest entry, first evicting the oldest when the
   window holds [cap] entries. *)
let enter w key =
  let size = Array.length w.ring in
  if w.len = w.cap then begin
    Int_table.remove w.table w.ring.(w.head);
    w.head <- (if w.head + 1 = size then 0 else w.head + 1);
    w.len <- w.len - 1
  end
  else if w.len = size then begin
    let ring = Array.make (min w.cap (max 16 (2 * size))) 0 in
    for i = 0 to w.len - 1 do
      let j = w.head + i in
      ring.(i) <- w.ring.(if j >= size then j - size else j)
    done;
    w.ring <- ring;
    w.head <- 0
  end;
  let size = Array.length w.ring in
  let tail = w.head + w.len in
  w.ring.(if tail >= size then tail - size else tail) <- key;
  w.len <- w.len + 1

let replace w key v =
  if key = min_int then invalid_arg "Window.replace: min_int is not a key";
  if not (Int_table.mem w.table key) then enter w key;
  Int_table.replace w.table key v

let clear w =
  Int_table.clear w.table;
  w.head <- 0;
  w.len <- 0
