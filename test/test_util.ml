(* Unit and property tests for the util substrate: RNG determinism and
   distributions, streaming stats, HDR histograms, tables. *)

let test_rng_deterministic () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.int64 a) (Util.Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Util.Rng.create 42 in
  let child = Util.Rng.split a in
  (* The child stream must differ from the parent's continuation. *)
  let differs = ref false in
  for _ = 1 to 20 do
    if not (Int64.equal (Util.Rng.int64 a) (Util.Rng.int64 child)) then differs := true
  done;
  Alcotest.(check bool) "split diverges" true !differs

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Util.Rng.create seed in
      let x = Util.Rng.int rng bound in
      x >= 0 && x < bound)

let rng_float_bounds =
  QCheck.Test.make ~name:"rng float stays in bounds" ~count:500 QCheck.small_nat
    (fun seed ->
      let rng = Util.Rng.create seed in
      let x = Util.Rng.float rng 10.0 in
      x >= 0. && x < 10.)

let zipf_bounds =
  QCheck.Test.make ~name:"zipf index in range" ~count:300
    QCheck.(triple small_nat (int_range 1 200) (float_range 0. 1.5))
    (fun (seed, n, skew) ->
      let rng = Util.Rng.create seed in
      let x = Util.Rng.zipf rng ~n ~skew in
      x >= 0 && x < n)

let test_zipf_skew_prefers_small () =
  let rng = Util.Rng.create 1 in
  let hits = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = Util.Rng.zipf rng ~n:10 ~skew:1.0 in
    hits.(i) <- hits.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 hit more than rank 9" true (hits.(0) > 2 * hits.(9))

let test_stats () =
  let s = Util.Stats.create () in
  List.iter (Util.Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Util.Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Util.Stats.mean s);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Util.Stats.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Util.Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Util.Stats.max s);
  Alcotest.(check (float 1e-9)) "median-ish" 4.0 (Util.Stats.percentile s 50.)

let stats_merge_matches_sequential =
  QCheck.Test.make ~name:"stats merge equals sequential" ~count:200
    QCheck.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      QCheck.assume (xs <> [] && ys <> []);
      let a = Util.Stats.create () and b = Util.Stats.create () in
      List.iter (Util.Stats.add a) xs;
      List.iter (Util.Stats.add b) ys;
      let merged = Util.Stats.merge a b in
      let all = Util.Stats.create () in
      List.iter (Util.Stats.add all) (xs @ ys);
      Float.abs (Util.Stats.mean merged -. Util.Stats.mean all) < 1e-6
      && Float.abs (Util.Stats.stddev merged -. Util.Stats.stddev all) < 1e-6
      && Util.Stats.count merged = Util.Stats.count all)

let test_hdr_percentiles () =
  let h = Util.Hdr.create () in
  Alcotest.(check (float 0.)) "empty percentile" 0. (Util.Hdr.percentile h 50.);
  for i = 1 to 10_000 do
    Util.Hdr.add h (float_of_int i /. 10.)
  done;
  Alcotest.(check int) "count" 10_000 (Util.Hdr.count h);
  Alcotest.(check (float 1e-9)) "exact min" 0.1 (Util.Hdr.min_value h);
  Alcotest.(check (float 1e-9)) "exact max" 1000. (Util.Hdr.max_value h);
  Alcotest.(check (float 1e-9)) "p0 is min" 0.1 (Util.Hdr.percentile h 0.);
  Alcotest.(check (float 1e-9)) "p100 is max" 1000. (Util.Hdr.percentile h 100.);
  (* Uniform samples: each quoted quantile within the bucket error bound. *)
  List.iter
    (fun p ->
      let expected = p /. 100. *. 1000. in
      let got = Util.Hdr.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f (%.2f) within 3%% of %.2f" p got expected)
        true
        (Float.abs (got -. expected) /. expected < 0.03))
    [ 50.; 90.; 95.; 99. ];
  Util.Hdr.reset h;
  Alcotest.(check int) "reset zeroes count" 0 (Util.Hdr.count h)

let test_hdr_merge_and_clamp () =
  let a = Util.Hdr.create () and b = Util.Hdr.create () in
  List.iter (Util.Hdr.add a) [ 1.; 2.; 3. ];
  List.iter (Util.Hdr.add b) [ 100.; 200. ];
  Util.Hdr.merge ~into:a b;
  Alcotest.(check int) "merged count" 5 (Util.Hdr.count a);
  Alcotest.(check (float 1e-9)) "merged max" 200. (Util.Hdr.max_value a);
  (* NaN and negatives clamp to 0 instead of poisoning aggregates. *)
  let c = Util.Hdr.create () in
  Util.Hdr.add c Float.nan;
  Util.Hdr.add c (-5.);
  Alcotest.(check int) "clamped samples recorded" 2 (Util.Hdr.count c);
  Alcotest.(check (float 1e-9)) "clamped to zero" 0. (Util.Hdr.max_value c);
  let mismatched = Util.Hdr.create ~rel_error:0.05 () in
  Alcotest.check_raises "layout mismatch rejected"
    (Invalid_argument "Hdr.merge: incompatible layouts") (fun () ->
      Util.Hdr.merge ~into:a mismatched)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_table_render () =
  let t = Util.Table.create ~header:[ "name"; "value" ] in
  Util.Table.add_row t [ "alpha"; "1" ];
  Util.Table.add_row t [ "b" ];
  let rendered = Util.Table.render t in
  Alcotest.(check bool) "contains header" true (contains rendered "name");
  Alcotest.(check bool) "contains row" true (contains rendered "alpha")

(* --- the int-keyed table and the bounded window against models ----------

   Random operations run against [Int_table] and [Stdlib.Hashtbl], and
   against [Window] and a [Hashtbl] plus [Queue] pair, and every result
   must agree.  Keys come from small ranges (so removals hit, probe runs
   overlap and deletions must shift the run back), from runs of keys equal
   modulo 64 (so modulo every capacity up to 64), from 0,
   negatives and the extremes, and from a range wide enough to force
   growth.  Windows are small and keys few, so replacing keys already
   present (which must keep their place) crosses the eviction boundary. *)

type table_op = T_replace of int * int | T_remove of int | T_find of int | T_clear

let key_gen =
  QCheck.Gen.(
    frequency
      [
        (4, int_range (-4) 12);
        (2, map (fun (c, r) -> (c * 64) + r) (pair (int_range (-3) 8) (int_range 0 2)));
        (1, oneofl [ 0; -1; max_int; min_int + 1 ]);
        (2, int_range 0 300);
      ])

let table_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> T_replace (k, v)) key_gen small_nat);
        (3, map (fun k -> T_remove k) key_gen);
        (3, map (fun k -> T_find k) key_gen);
        (1, return T_clear);
      ])

let print_table_op = function
  | T_replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | T_remove k -> Printf.sprintf "remove %d" k
  | T_find k -> Printf.sprintf "find %d" k
  | T_clear -> "clear"

let bindings_sorted fold t = List.sort compare (fold (fun k v acc -> (k, v) :: acc) t [])

let int_table_matches_hashtbl =
  QCheck.Test.make ~name:"int table = Hashtbl" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(list print_table_op)
       QCheck.Gen.(list_size (int_range 0 400) table_op_gen))
    (fun ops ->
      let t = Util.Int_table.create ~dummy:(-1) and m = Hashtbl.create 8 in
      List.for_all
        (fun op ->
          (match op with
          | T_replace (k, v) ->
            Util.Int_table.replace t k v;
            Hashtbl.replace m k v
          | T_remove k ->
            Util.Int_table.remove t k;
            Hashtbl.remove m k
          | T_find _ -> ()
          | T_clear ->
            Util.Int_table.clear t;
            Hashtbl.reset m);
          let agree k =
            Util.Int_table.find_opt t k = Hashtbl.find_opt m k
            && Util.Int_table.mem t k = Hashtbl.mem m k
            && Util.Int_table.find_or t k ~default:(-7)
               = Option.value ~default:(-7) (Hashtbl.find_opt m k)
          in
          (match op with T_replace (k, _) | T_remove k | T_find k -> agree k | T_clear -> true)
          && Util.Int_table.length t = Hashtbl.length m)
        ops
      && bindings_sorted Util.Int_table.fold t = bindings_sorted Hashtbl.fold m
      && (not (Util.Int_table.mem t min_int))
      && Hashtbl.fold (fun k v ok -> ok && Util.Int_table.find_opt t k = Some v) m true)

type window_op = W_replace of int * int | W_find of int | W_clear

let window_op_gen =
  QCheck.Gen.(
    let key = int_range (-2) 9 in
    frequency
      [
        (8, map2 (fun k v -> W_replace (k, v)) key small_nat);
        (3, map (fun k -> W_find k) key);
        (1, return W_clear);
      ])

let print_window_op = function
  | W_replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | W_find k -> Printf.sprintf "find %d" k
  | W_clear -> "clear"

(* The model is the pair each window replaced: [replace] enters only new
   keys, and the queue's overflow unbinds its oldest key. *)
let window_matches_model =
  QCheck.Test.make ~name:"window = Hashtbl + Queue" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair int (list print_window_op))
       QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 0 200) window_op_gen)))
    (fun (cap, ops) ->
      let w = Util.Window.create ~cap ~dummy:(-1) in
      let tbl = Hashtbl.create 8 and order = Queue.create () in
      let enter k =
        Queue.push k order;
        if Queue.length order > cap then Hashtbl.remove tbl (Queue.pop order)
      in
      List.for_all
        (fun op ->
          (match op with
          | W_replace (k, v) ->
            Util.Window.replace w k v;
            if not (Hashtbl.mem tbl k) then enter k;
            Hashtbl.replace tbl k v
          | W_find _ -> ()
          | W_clear ->
            Util.Window.clear w;
            Hashtbl.reset tbl;
            Queue.clear order);
          List.for_all
               (fun k ->
                 Util.Window.find_opt w k = Hashtbl.find_opt tbl k
                 && Util.Window.mem w k = Hashtbl.mem tbl k)
               (List.init 12 (fun i -> i - 2)))
        ops)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      rng_bounds;
      rng_float_bounds;
      zipf_bounds;
      stats_merge_matches_sequential;
      int_table_matches_hashtbl;
      window_matches_model;
    ]

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "zipf skew shape" `Quick test_zipf_skew_prefers_small;
    Alcotest.test_case "stats accumulators" `Quick test_stats;
    Alcotest.test_case "hdr percentiles" `Quick test_hdr_percentiles;
    Alcotest.test_case "hdr merge and clamp" `Quick test_hdr_merge_and_clamp;
    Alcotest.test_case "table rendering" `Quick test_table_render;
  ]
  @ qcheck_cases
