type sample = {
  s_time : float;
  s_commits : int;
  s_aborts : int;
  s_in_flight : int;
  s_lease_exp : int;
  s_spec_aborts : int;
  s_batches : int;
  s_xshard_commits : int;
  s_xshard_aborts : int;
  s_by_kind : (string * int) list;
}

type t = { win : float; mutable samples : sample list (* newest first *) }

let create ~window =
  if window <= 0. then invalid_arg "Telemetry.create: window must be positive";
  { win = window; samples = [] }

let window t = t.win

let record t ~time ~commits ~aborts ~in_flight ~lease_expirations
    ?(speculation_aborts = 0) ?(batches = 0) ?(cross_shard_commits = 0)
    ?(cross_shard_aborts = 0) ~by_kind () =
  t.samples <-
    {
      s_time = time;
      s_commits = commits;
      s_aborts = aborts;
      s_in_flight = in_flight;
      s_lease_exp = lease_expirations;
      s_spec_aborts = speculation_aborts;
      s_batches = batches;
      s_xshard_commits = cross_shard_commits;
      s_xshard_aborts = cross_shard_aborts;
      s_by_kind = by_kind;
    }
    :: t.samples

let samples t = List.length t.samples

let kinds t =
  List.sort_uniq String.compare
    (List.concat_map (fun s -> List.map fst s.s_by_kind) t.samples)

(* Cross-shard columns appear only once a sharded run records nonzero
   cross-shard traffic, keeping unsharded exports unchanged. *)
let has_cross_shard t =
  List.exists (fun s -> s.s_xshard_commits > 0 || s.s_xshard_aborts > 0) t.samples

let columns t =
  [
    "time_ms"; "reset"; "commits_per_s"; "aborts_per_s"; "in_flight";
    "lease_expirations"; "speculation_aborts"; "batches_per_s";
  ]
  @ (if has_cross_shard t then
       [ "cross_shard_commits_per_s"; "cross_shard_aborts_per_s" ]
     else [])
  @ List.map (fun k -> Printf.sprintf "msg_%s_per_s" k) (kinds t)

let rows t =
  let ks = kinds t in
  let xs = has_cross_shard t in
  let ordered = List.rev t.samples in
  match ordered with
  | [] | [ _ ] -> []
  | first :: rest ->
    let count kind s =
      match List.assoc_opt kind s.s_by_kind with Some n -> n | None -> 0
    in
    let rec walk prev = function
      | [] -> []
      | s :: tl ->
        (* A window across which any monotone counter stepped backwards
           spans a counter reset (the end-of-warm-up zeroing): its deltas
           mix pre- and post-reset totals and mean nothing.  Flag the row
           ([reset] = 1) and publish NaN for every derived rate — rendered
           "n/a" downstream — so reset artifacts can never be mistaken for
           real rates.  Gauges (in_flight) are unaffected. *)
        let reset =
          s.s_commits < prev.s_commits
          || s.s_aborts < prev.s_aborts
          || s.s_lease_exp < prev.s_lease_exp
          || s.s_spec_aborts < prev.s_spec_aborts
          || s.s_batches < prev.s_batches
          || s.s_xshard_commits < prev.s_xshard_commits
          || s.s_xshard_aborts < prev.s_xshard_aborts
          || List.exists (fun k -> count k s < count k prev) ks
        in
        let rate prev cur =
          if reset then Float.nan
          else float_of_int (cur - prev) /. t.win *. 1000.
        in
        let delta prev cur = if reset then Float.nan else float_of_int (cur - prev) in
        let row =
          [
            (if reset then 1. else 0.);
            rate prev.s_commits s.s_commits;
            rate prev.s_aborts s.s_aborts;
            float_of_int s.s_in_flight;
            delta prev.s_lease_exp s.s_lease_exp;
            delta prev.s_spec_aborts s.s_spec_aborts;
            rate prev.s_batches s.s_batches;
          ]
          @ (if xs then
               [
                 rate prev.s_xshard_commits s.s_xshard_commits;
                 rate prev.s_xshard_aborts s.s_xshard_aborts;
               ]
             else [])
          @ List.map (fun k -> rate (count k prev) (count k s)) ks
        in
        (s.s_time, row) :: walk s tl
    in
    walk first rest

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.concat "," (columns t));
  Buffer.add_char buf '\n';
  List.iter
    (fun (time, row) ->
      Buffer.add_string buf (Printf.sprintf "%.3f" time);
      List.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%.4f" v)) row;
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf
