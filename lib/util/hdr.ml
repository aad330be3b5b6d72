(* HDR-style log-bucketed histogram: geometric buckets at a fixed relative
   error, so p50/p95/p99 over millions of samples cost one bounded int
   array instead of the sample list [Stats] keeps.  Recording is two array
   reads, a log, and an increment — no allocation — and queries walk the
   (small, fixed) bucket array. *)

type t = {
  lo : float; (* lower edge of bucket 0; values below clamp into it *)
  inv_log_base : float; (* 1 / log base, hoisted out of the hot path *)
  log_lo : float;
  base : float;
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let create ?(lo = 1e-3) ?(hi = 1e9) ?(rel_error = 0.01) () =
  if not (lo > 0. && hi > lo) then invalid_arg "Hdr.create: need 0 < lo < hi";
  if not (rel_error > 0. && rel_error < 1.) then
    invalid_arg "Hdr.create: rel_error in (0,1)";
  (* A bucket spanning [v, v*base] quoted at its geometric midpoint is off
     by at most sqrt(base) - 1 ≈ rel_error when base = (1 + rel_error)^2. *)
  let base = (1. +. rel_error) ** 2. in
  let n = 1 + int_of_float (ceil (log (hi /. lo) /. log base)) in
  {
    lo;
    base;
    inv_log_base = 1. /. log base;
    log_lo = log lo;
    buckets = Array.make n 0;
    count = 0;
    sum = 0.;
    vmin = infinity;
    vmax = neg_infinity;
  }

let bucket_of t v =
  if v <= t.lo then 0
  else
    let i = int_of_float ((log v -. t.log_lo) *. t.inv_log_base) in
    if i >= Array.length t.buckets then Array.length t.buckets - 1 else i

(* Geometric midpoint — the representative value a bucket answers with. *)
let value_of t i = t.lo *. (t.base ** (float_of_int i +. 0.5))

let add t v =
  let v = if Float.is_nan v || v < 0. then 0. else v in
  t.buckets.(bucket_of t v) <- t.buckets.(bucket_of t v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.count
let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0. else t.vmin
let max_value t = if t.count = 0 then 0. else t.vmax

let percentile t p =
  if t.count = 0 then 0.
  else if p <= 0. then t.vmin
  else if p >= 100. then t.vmax
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100. *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let acc = ref 0 and i = ref 0 and res = ref t.vmax in
    (try
       while !i < Array.length t.buckets do
         acc := !acc + t.buckets.(!i);
         if !acc >= rank then begin
           (* Clamp the bucket midpoint to the observed extremes so sparse
              histograms never answer outside [min, max]. *)
           res := Float.min t.vmax (Float.max t.vmin (value_of t !i));
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    !res
  end

let reset t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.count <- 0;
  t.sum <- 0.;
  t.vmin <- infinity;
  t.vmax <- neg_infinity

let merge ~into src =
  if
    into.lo <> src.lo || into.base <> src.base
    || Array.length into.buckets <> Array.length src.buckets
  then invalid_arg "Hdr.merge: incompatible layouts";
  Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets;
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.vmin < into.vmin then into.vmin <- src.vmin;
  if src.vmax > into.vmax then into.vmax <- src.vmax
