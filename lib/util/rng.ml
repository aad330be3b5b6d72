type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 mixing function (Steele, Lea, Flood; JDK SplittableRandom). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let int64 rng =
  rng.state <- Int64.add rng.state golden_gamma;
  mix64 rng.state

let split rng = { state = int64 rng }

let int rng bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (int64 rng) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float rng bound =
  let raw = Int64.to_float (Int64.shift_right_logical (int64 rng) 11) in
  bound *. (raw /. 9007199254740992.0)

let bool rng = Int64.logand (int64 rng) 1L = 1L

let chance rng p =
  if p <= 0. then false else if p >= 1. then true else float rng 1.0 < p

let exponential rng ~mean =
  let u = Stdlib.max 1e-12 (float rng 1.0) in
  -.mean *. log u

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Inverse-CDF Zipf by bisection over the cumulative weights.  n is small in
   our workloads (<= tens of thousands) so we precompute lazily per call
   bound; callers that care cache the result via partial application is not
   possible with mutable rng, so we memoise on (n, skew).

   The memo table is the one piece of module-level mutable state in the
   whole library, so it lives in domain-local storage: each domain of the
   parallel harness keeps its own table and there is no cross-domain
   sharing (and no locking on this per-draw path).  The cached array is a
   pure function of (n, skew), so every domain computes identical values —
   determinism is unaffected. *)
let zipf_tables : (int * float, float array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 7)

let zipf_cdf n skew =
  let tables = Domain.DLS.get zipf_tables in
  match Hashtbl.find_opt tables (n, skew) with
  | Some cdf -> cdf
  | None ->
    let weights = Array.init n (fun i -> 1.0 /. ((Float.of_int (i + 1)) ** skew)) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let acc = ref 0.0 in
    let cdf =
      Array.map
        (fun w ->
          acc := !acc +. (w /. total);
          !acc)
        weights
    in
    Hashtbl.replace tables (n, skew) cdf;
    cdf

let zipf rng ~n ~skew =
  assert (n > 0);
  if skew <= 0. then int rng n
  else begin
    let cdf = zipf_cdf n skew in
    let u = float rng 1.0 in
    let rec bisect lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then bisect (mid + 1) hi else bisect lo mid
      end
    in
    bisect 0 (n - 1)
  end
