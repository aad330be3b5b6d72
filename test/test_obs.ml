(* Observability subsystem: tracer ring buffer, trace determinism and
   non-perturbation, the offline protocol checker (one deliberately violated
   synthetic trace per rule), windowed telemetry, and the Metrics reset
   audit. *)

let run_traced ?(tracer = Obs.Tracer.null) ?telemetry ~seed () =
  Harness.Experiment.run ~load:(Closed { clients = 4; client_nodes = None })
    ~warmup:200. ~duration:1_000. ?telemetry
    (Harness.Experiment.spec ~nodes:5 ~seed ~tracer
       ~config:(Core.Config.default Core.Config.Closed)
       ~benchmark:Benchmarks.Bank.benchmark
       ~params:{ Benchmarks.Workload.default_params with objects = 32; calls = 2; read_ratio = 0.4; key_skew = 0.3 }
       ())

let contains s frag =
  let n = String.length frag in
  let rec go i = i + n <= String.length s && (String.sub s i n = frag || go (i + 1)) in
  go 0

(* {2 Tracer} *)

let test_ring_overflow () =
  let t = Obs.Tracer.create ~capacity:4 () in
  for i = 0 to 6 do
    Obs.Tracer.emit t ~time:(float_of_int i) ~kind:Obs.Sem.txn_begin ~a:i ()
  done;
  Alcotest.(check int) "length capped" 4 (Obs.Tracer.length t);
  Alcotest.(check int) "dropped counted" 3 (Obs.Tracer.dropped t);
  Alcotest.(check (list int)) "oldest evicted first" [ 3; 4; 5; 6 ]
    (List.map (fun (e : Obs.Tracer.event) -> e.a) (Obs.Tracer.events t));
  Obs.Tracer.clear t;
  Alcotest.(check int) "clear empties" 0 (Obs.Tracer.length t);
  Alcotest.(check int) "clear zeroes dropped" 0 (Obs.Tracer.dropped t)

let test_null_tracer_inert () =
  Obs.Tracer.emit Obs.Tracer.null ~time:1. ~kind:Obs.Sem.txn_begin ();
  Alcotest.(check bool) "disabled" false (Obs.Tracer.enabled Obs.Tracer.null);
  Alcotest.(check int) "no events" 0 (Obs.Tracer.length Obs.Tracer.null)

let test_trace_determinism () =
  let tracer1 = Obs.Tracer.create () in
  let tracer2 = Obs.Tracer.create () in
  let r1 = run_traced ~tracer:tracer1 ~seed:11 () in
  let r2 = run_traced ~tracer:tracer2 ~seed:11 () in
  Alcotest.(check bool) "events captured" true (Obs.Tracer.length tracer1 > 0);
  Alcotest.(check int) "same event count" (Obs.Tracer.length tracer1)
    (Obs.Tracer.length tracer2);
  Alcotest.(check string) "byte-identical chrome trace"
    (Obs.Export.chrome_json tracer1) (Obs.Export.chrome_json tracer2);
  Alcotest.(check bool) "identical results" true (r1 = r2)

let test_tracing_does_not_perturb () =
  let traced = run_traced ~tracer:(Obs.Tracer.create ()) ~seed:12 () in
  let untraced = run_traced ~seed:12 () in
  Alcotest.(check bool) "traced run = untraced run" true (traced = untraced)

let test_txn_history () =
  let tracer = Obs.Tracer.create () in
  let _ = run_traced ~tracer ~seed:13 () in
  (* Find a transaction that committed and check its history renders. *)
  let txn =
    List.find_map
      (fun (e : Obs.Tracer.event) ->
        if e.ekind = Obs.Sem.txn_commit then Some e.txn else None)
      (Obs.Tracer.events tracer)
  in
  match txn with
  | None -> Alcotest.fail "no committed transaction in trace"
  | Some txn ->
    let history = Obs.Export.txn_history tracer ~txn in
    Alcotest.(check bool) "history non-empty" true (String.length history > 0);
    Alcotest.(check bool) "mentions commit" true (contains history "txn.commit");
    Alcotest.(check string) "unknown txn is empty" ""
      (Obs.Export.txn_history tracer ~txn:(-42))

(* {2 Checker: one deliberately violated synthetic trace per rule} *)

let ev ?(time = 0.) ?(node = -1) ?(txn = -1) ?(oid = -1) ?(a = -1) ?(b = -1)
    ?(x = 0.) kind : Obs.Tracer.event =
  { time; ekind = kind; node; txn; oid; a; b; x }

let rules violations =
  List.sort_uniq String.compare
    (List.map (fun (v : Obs.Online.violation) -> v.rule) violations)

let test_checker_clean_commit () =
  let trace =
    [
      ev ~time:1. ~txn:1 ~a:2 ~b:3 Obs.Sem.commit_send;
      ev ~time:2. ~txn:1 ~a:0 ~b:1 Obs.Sem.vote_recv;
      ev ~time:3. ~txn:1 ~a:1 ~b:1 Obs.Sem.vote_recv;
      ev ~time:4. ~txn:1 ~a:2 ~b:1 Obs.Sem.vote_recv;
      ev ~time:5. ~txn:1 Obs.Sem.txn_commit;
    ]
  in
  Alcotest.(check (list string)) "clean" []
    (rules (Obs.Online.replay ~is_write_quorum:(fun _ -> true) trace))

let test_checker_commit_dissent () =
  let trace =
    [
      ev ~time:1. ~txn:1 Obs.Sem.commit_send;
      ev ~time:2. ~txn:1 ~a:0 ~b:1 Obs.Sem.vote_recv;
      (* voter 1 said abort (commit bit clear) yet the txn commits *)
      ev ~time:3. ~txn:1 ~a:1 ~b:0 Obs.Sem.vote_recv;
      ev ~time:4. ~txn:1 Obs.Sem.txn_commit;
    ]
  in
  Alcotest.(check (list string)) "dissenting vote flagged" [ "commit-quorum" ]
    (rules (Obs.Online.replay ~is_write_quorum:(fun _ -> true) trace))

let test_checker_commit_invalid_quorum () =
  let trace =
    [
      ev ~time:1. ~txn:1 Obs.Sem.commit_send;
      ev ~time:2. ~txn:1 ~a:0 ~b:1 Obs.Sem.vote_recv;
      ev ~time:3. ~txn:1 Obs.Sem.txn_commit;
    ]
  in
  Alcotest.(check (list string)) "invalid voter set flagged" [ "commit-quorum" ]
    (rules (Obs.Online.replay ~is_write_quorum:(fun _ -> false) trace));
  Alcotest.(check (list string)) "same set accepted when valid" []
    (rules (Obs.Online.replay ~is_write_quorum:(fun _ -> true) trace))

let test_checker_commit_pairwise_fallback () =
  (* Without [is_write_quorum] the checker demands pairwise intersection of
     committed voter sets: [0;1] vs [2;3] are disjoint. *)
  let trace =
    [
      ev ~time:1. ~txn:1 Obs.Sem.commit_send;
      ev ~time:2. ~txn:1 ~a:0 ~b:1 Obs.Sem.vote_recv;
      ev ~time:2.5 ~txn:1 ~a:1 ~b:1 Obs.Sem.vote_recv;
      ev ~time:3. ~txn:1 Obs.Sem.txn_commit;
      ev ~time:4. ~txn:2 Obs.Sem.commit_send;
      ev ~time:5. ~txn:2 ~a:2 ~b:1 Obs.Sem.vote_recv;
      ev ~time:5.5 ~txn:2 ~a:3 ~b:1 Obs.Sem.vote_recv;
      ev ~time:6. ~txn:2 Obs.Sem.txn_commit;
    ]
  in
  Alcotest.(check (list string)) "disjoint write quorums flagged"
    [ "commit-quorum" ]
    (rules (Obs.Online.replay trace))

let test_checker_lease_overlap () =
  let trace =
    [
      ev ~time:1. ~node:0 ~oid:5 ~txn:1 Obs.Sem.lease_grant;
      (* txn 2 granted the same (node, oid) lease before txn 1 released *)
      ev ~time:2. ~node:0 ~oid:5 ~txn:2 Obs.Sem.lease_grant;
    ]
  in
  Alcotest.(check (list string)) "overlap flagged" [ "lease-overlap" ]
    (rules (Obs.Online.replay trace));
  let clean =
    [
      ev ~time:1. ~node:0 ~oid:5 ~txn:1 Obs.Sem.lease_grant;
      ev ~time:2. ~node:0 ~oid:5 ~txn:1 ~a:0 Obs.Sem.lease_release;
      ev ~time:3. ~node:0 ~oid:5 ~txn:2 Obs.Sem.lease_grant;
    ]
  in
  Alcotest.(check (list string)) "release clears" [] (rules (Obs.Online.replay clean));
  let other_node =
    [
      ev ~time:1. ~node:0 ~oid:5 ~txn:1 Obs.Sem.lease_grant;
      ev ~time:2. ~node:1 ~oid:5 ~txn:2 Obs.Sem.lease_grant;
    ]
  in
  Alcotest.(check (list string)) "distinct replicas independent" []
    (rules (Obs.Online.replay other_node))

let test_checker_partial_abort_scope () =
  let wrong_resume =
    [
      ev ~time:1. ~txn:3 ~a:2 Obs.Sem.txn_partial_abort;
      ev ~time:2. ~txn:3 ~a:1 Obs.Sem.scope_resume;
    ]
  in
  Alcotest.(check (list string)) "wrong resume target flagged"
    [ "partial-abort-scope" ]
    (rules (Obs.Online.replay wrong_resume));
  let orphan_resume = [ ev ~time:1. ~txn:3 ~a:2 Obs.Sem.scope_resume ] in
  Alcotest.(check (list string)) "resume without pending flagged"
    [ "partial-abort-scope" ]
    (rules (Obs.Online.replay orphan_resume));
  let exact =
    [
      ev ~time:1. ~txn:3 ~a:2 Obs.Sem.txn_partial_abort;
      ev ~time:2. ~txn:3 ~a:2 Obs.Sem.scope_resume;
    ]
  in
  Alcotest.(check (list string)) "exact unwind clean" []
    (rules (Obs.Online.replay exact));
  let root_fallback =
    [
      ev ~time:1. ~txn:3 ~a:2 Obs.Sem.txn_partial_abort;
      ev ~time:2. ~txn:3 ~a:1 Obs.Sem.txn_root_abort;
    ]
  in
  Alcotest.(check (list string)) "root abort is a legal fallback" []
    (rules (Obs.Online.replay root_fallback))

let test_checker_rescue_evidence () =
  let bare = [ ev ~time:1. ~node:2 ~txn:7 ~a:1 ~b:0 Obs.Sem.rescue ] in
  Alcotest.(check (list string)) "rescue without evidence flagged"
    [ "rescue-evidence" ]
    (rules (Obs.Online.replay bare));
  let with_apply =
    [
      ev ~time:0. ~node:1 ~txn:7 ~a:1 Obs.Sem.apply;
      ev ~time:1. ~node:2 ~txn:7 ~a:1 ~b:0 Obs.Sem.rescue;
    ]
  in
  Alcotest.(check (list string)) "apply is evidence" []
    (rules (Obs.Online.replay with_apply));
  (* b = 1: version advance — possibly another transaction's commit across
     membership views, so no per-txn evidence is demanded. *)
  let version_advance = [ ev ~time:1. ~node:2 ~txn:7 ~a:1 ~b:1 Obs.Sem.rescue ] in
  Alcotest.(check (list string)) "version-advance rescue exempt" []
    (rules (Obs.Online.replay version_advance))

let test_checker_widen_read () =
  let missing_witness =
    [
      ev ~time:1. ~txn:4 ~a:5 Obs.Sem.widen_add;
      (* fan-out at t=2 reaches nodes 0 and 1 but not flagged witness 5 *)
      ev ~time:2. ~txn:4 ~oid:9 ~a:0 Obs.Sem.read_send;
      ev ~time:2. ~txn:4 ~oid:9 ~a:1 Obs.Sem.read_send;
      ev ~time:3. ~txn:4 ~a:1 Obs.Sem.txn_end;
    ]
  in
  Alcotest.(check (list string)) "missing flagged witness" [ "widen-read" ]
    (rules (Obs.Online.replay missing_witness));
  let includes_witness =
    [
      ev ~time:1. ~txn:4 ~a:5 Obs.Sem.widen_add;
      ev ~time:2. ~txn:4 ~oid:9 ~a:0 Obs.Sem.read_send;
      ev ~time:2. ~txn:4 ~oid:9 ~a:5 Obs.Sem.read_send;
      ev ~time:3. ~txn:4 ~a:1 Obs.Sem.txn_end;
    ]
  in
  Alcotest.(check (list string)) "widened fan-out clean" []
    (rules (Obs.Online.replay includes_witness));
  let dropped_witness =
    [
      ev ~time:1. ~txn:4 ~a:5 Obs.Sem.widen_add;
      ev ~time:1.5 ~txn:4 ~a:5 Obs.Sem.widen_drop;
      ev ~time:2. ~txn:4 ~oid:9 ~a:0 Obs.Sem.read_send;
      ev ~time:3. ~txn:4 ~a:1 Obs.Sem.txn_end;
    ]
  in
  Alcotest.(check (list string)) "pruned witness not demanded" []
    (rules (Obs.Online.replay dropped_witness));
  (* Witness 5 is flagged on shard 0; a split then re-homes it to shard 2,
     so a later read of a shard-0 object need not reach it, and a read of
     a shard-2 object must. *)
  let rehomed read_shard dsts =
    [
      ev ~time:1. ~txn:4 ~a:5 ~b:0 Obs.Sem.widen_add;
      ev ~time:1.5 ~node:5 ~a:2 ~b:0 ~x:2. Obs.Sem.view_rehome;
    ]
    @ List.map (fun a -> ev ~time:2. ~txn:4 ~oid:9 ~a ~b:read_shard Obs.Sem.read_send) dsts
    @ [ ev ~time:3. ~txn:4 ~a:1 Obs.Sem.txn_end ]
  in
  Alcotest.(check (list string)) "re-homed witness leaves its old shard's reads" []
    (rules (Obs.Online.replay (rehomed 0 [ 0; 1; 2 ])));
  Alcotest.(check (list string)) "re-homed witness binds its new shard's reads"
    [ "widen-read" ]
    (rules (Obs.Online.replay (rehomed 2 [ 6; 7 ])))

let test_checker_on_real_trace () =
  let tracer = Obs.Tracer.create () in
  let _ = run_traced ~tracer ~seed:14 () in
  Alcotest.(check (list string)) "healthy run passes all rules" []
    (rules (Obs.Online.replay (Obs.Tracer.events tracer)))

(* {2 Telemetry} *)

let test_telemetry_rates () =
  let tele = Obs.Telemetry.create ~window:500. in
  Obs.Telemetry.record tele ~time:0. ~commits:0 ~aborts:0 ~in_flight:0
    ~lease_expirations:0 ~by_kind:[ ("apply", 0) ] ();
  Obs.Telemetry.record tele ~time:500. ~commits:10 ~aborts:2 ~in_flight:3
    ~lease_expirations:1 ~by_kind:[ ("apply", 50) ] ();
  Alcotest.(check int) "two samples" 2 (Obs.Telemetry.samples tele);
  Alcotest.(check (list string)) "columns"
    [ "time_ms"; "reset"; "commits_per_s"; "aborts_per_s"; "in_flight";
      "lease_expirations"; "speculation_aborts"; "batches_per_s";
      "msg_apply_per_s" ]
    (Obs.Telemetry.columns tele);
  (match Obs.Telemetry.rows tele with
  | [ (time, [ reset; commits_s; aborts_s; in_flight; lease; spec; batches_s; apply_s ]) ] ->
    Alcotest.(check (float 1e-9)) "row time" 500. time;
    Alcotest.(check (float 1e-9)) "no reset" 0. reset;
    Alcotest.(check (float 1e-9)) "commit rate" 20. commits_s;
    Alcotest.(check (float 1e-9)) "abort rate" 4. aborts_s;
    Alcotest.(check (float 1e-9)) "in-flight gauge" 3. in_flight;
    Alcotest.(check (float 1e-9)) "lease delta" 1. lease;
    Alcotest.(check (float 1e-9)) "spec abort delta" 0. spec;
    Alcotest.(check (float 1e-9)) "batch rate" 0. batches_s;
    Alcotest.(check (float 1e-9)) "apply msg rate" 100. apply_s
  | rows -> Alcotest.failf "unexpected rows: %d" (List.length rows));
  let csv = Obs.Telemetry.to_csv tele in
  Alcotest.(check bool) "csv header" true
    (String.length csv > 0 && String.sub csv 0 7 = "time_ms")

let test_telemetry_reset_window () =
  let tele = Obs.Telemetry.create ~window:500. in
  Obs.Telemetry.record tele ~time:0. ~commits:40 ~aborts:8 ~in_flight:2
    ~lease_expirations:3 ~by_kind:[ ("apply", 90) ] ();
  (* Counter reset between samples: totals step backwards. *)
  Obs.Telemetry.record tele ~time:500. ~commits:5 ~aborts:1 ~in_flight:4
    ~lease_expirations:0 ~by_kind:[ ("apply", 10) ] ();
  Obs.Telemetry.record tele ~time:1000. ~commits:15 ~aborts:2 ~in_flight:1
    ~lease_expirations:0 ~by_kind:[ ("apply", 60) ] ();
  match Obs.Telemetry.rows tele with
  | [ (_, reset_row); (_, clean_row) ] ->
    (match (reset_row, clean_row) with
    | ( [ r1; c1; a1; g1; l1; s1; b1; m1 ],
        [ r2; c2; a2; g2; l2; s2; b2; m2 ] ) ->
      Alcotest.(check (float 1e-9)) "reset flagged" 1. r1;
      Alcotest.(check bool) "reset window rates are nan" true
        (List.for_all Float.is_nan [ c1; a1; l1; s1; b1; m1 ]);
      Alcotest.(check (float 1e-9)) "gauge survives the reset window" 4. g1;
      Alcotest.(check (float 1e-9)) "clean window not flagged" 0. r2;
      Alcotest.(check (float 1e-9)) "clean commit rate" 20. c2;
      Alcotest.(check (float 1e-9)) "clean abort rate" 2. a2;
      Alcotest.(check (float 1e-9)) "clean gauge" 1. g2;
      Alcotest.(check (float 1e-9)) "clean lease delta" 0. l2;
      Alcotest.(check (float 1e-9)) "clean spec delta" 0. s2;
      Alcotest.(check (float 1e-9)) "clean batch rate" 0. b2;
      Alcotest.(check (float 1e-9)) "clean msg rate" 100. m2
    | _ -> Alcotest.fail "unexpected row shapes")
  | rows -> Alcotest.failf "unexpected rows: %d" (List.length rows)

let test_telemetry_first_sample_seeds () =
  let tele = Obs.Telemetry.create ~window:100. in
  Obs.Telemetry.record tele ~time:0. ~commits:5 ~aborts:0 ~in_flight:1
    ~lease_expirations:0 ~by_kind:[] ();
  Alcotest.(check int) "first sample yields no row" 0
    (List.length (Obs.Telemetry.rows tele))

let test_telemetry_via_experiment () =
  let tele = Obs.Telemetry.create ~window:250. in
  let with_tele = run_traced ~telemetry:tele ~seed:15 () in
  let without = run_traced ~seed:15 () in
  Alcotest.(check bool) "samples recorded" true (Obs.Telemetry.samples tele >= 2);
  Alcotest.(check bool) "telemetry does not perturb the run" true
    (with_tele = without)

(* {2 Metrics reset audit (satellite: every accessor back to zero)} *)

let test_metrics_reset_exhaustive () =
  let m = Core.Metrics.create () in
  Core.Metrics.note_commit m ~latency:10.;
  Core.Metrics.note_read_only_commit m ~latency:5.;
  Core.Metrics.note_root_abort m;
  Core.Metrics.note_partial_abort m;
  Core.Metrics.note_ct_commit m;
  Core.Metrics.note_checkpoint m;
  Core.Metrics.note_local_read m;
  Core.Metrics.note_remote_read m;
  Core.Metrics.note_quorum_retry m;
  Core.Metrics.note_open_commit m;
  Core.Metrics.note_compensation m;
  Core.Metrics.note_sync m;
  Core.Metrics.note_recovery m ~duration:7.;
  Core.Metrics.note_lease_expired m;
  Core.Metrics.note_presumed_abort m;
  Core.Metrics.note_status_rescue m;
  Core.Metrics.note_commit_deadline_abort m;
  Core.Metrics.note_read_widening m;
  Core.Metrics.note_stall m;
  let accessors =
    [
      ("commits", Core.Metrics.commits);
      ("read_only_commits", Core.Metrics.read_only_commits);
      ("root_aborts", Core.Metrics.root_aborts);
      ("partial_aborts", Core.Metrics.partial_aborts);
      ("total_aborts", Core.Metrics.total_aborts);
      ("ct_commits", Core.Metrics.ct_commits);
      ("checkpoints", Core.Metrics.checkpoints);
      ("local_reads", Core.Metrics.local_reads);
      ("remote_reads", Core.Metrics.remote_reads);
      ("quorum_retries", Core.Metrics.quorum_retries);
      ("open_commits", Core.Metrics.open_commits);
      ("compensations", Core.Metrics.compensations);
      ("syncs", Core.Metrics.syncs);
      ("recoveries", Core.Metrics.recoveries);
      ("lease_expirations", Core.Metrics.lease_expirations);
      ("presumed_aborts", Core.Metrics.presumed_aborts);
      ("status_rescued_commits", Core.Metrics.status_rescued_commits);
      ("commit_deadline_aborts", Core.Metrics.commit_deadline_aborts);
      ("read_widenings", Core.Metrics.read_widenings);
      ("stalls_detected", Core.Metrics.stalls_detected);
      ("latency samples", fun m -> Util.Stats.count (Core.Metrics.latency_stats m));
      ( "recovery samples",
        fun m -> Util.Stats.count (Core.Metrics.recovery_time_stats m) );
    ]
  in
  List.iter
    (fun (name, get) ->
      Alcotest.(check bool) (name ^ " bumped") true (get m > 0))
    accessors;
  Core.Metrics.reset m;
  List.iter
    (fun (name, get) -> Alcotest.(check int) (name ^ " reset") 0 (get m))
    accessors;
  Alcotest.(check (float 1e-9)) "p99 reset" 0. (Core.Metrics.latency_percentile m 99.)

let test_latency_percentiles () =
  let m = Core.Metrics.create () in
  for i = 1 to 100 do
    Core.Metrics.note_commit m ~latency:(float_of_int i)
  done;
  Alcotest.(check (float 1.)) "p50" 50. (Core.Metrics.latency_percentile m 50.);
  Alcotest.(check (float 1.)) "p95" 95. (Core.Metrics.latency_percentile m 95.);
  Alcotest.(check (float 1.)) "p99" 99. (Core.Metrics.latency_percentile m 99.)

(* {2 Report nan rendering (satellite: pct_change honesty)} *)

let test_report_nan_rendering () =
  let series =
    {
      Harness.Report.title = "nan test";
      x_label = "x";
      columns = [ "pct" ];
      rows = [ ("r", [ Harness.Report.pct_change ~baseline:0. 5. ]) ];
      notes = [];
    }
  in
  Alcotest.(check bool) "table renders n/a" true
    (contains (Harness.Report.render series) "n/a")

let suite =
  [
    Alcotest.test_case "tracer: ring overflow" `Quick test_ring_overflow;
    Alcotest.test_case "tracer: null is inert" `Quick test_null_tracer_inert;
    Alcotest.test_case "trace: deterministic per seed" `Slow test_trace_determinism;
    Alcotest.test_case "trace: no perturbation" `Slow test_tracing_does_not_perturb;
    Alcotest.test_case "export: txn history" `Slow test_txn_history;
    Alcotest.test_case "checker: clean commit" `Quick test_checker_clean_commit;
    Alcotest.test_case "checker: dissenting vote" `Quick test_checker_commit_dissent;
    Alcotest.test_case "checker: invalid quorum" `Quick test_checker_commit_invalid_quorum;
    Alcotest.test_case "checker: pairwise fallback" `Quick
      test_checker_commit_pairwise_fallback;
    Alcotest.test_case "checker: lease overlap" `Quick test_checker_lease_overlap;
    Alcotest.test_case "checker: partial-abort scope" `Quick
      test_checker_partial_abort_scope;
    Alcotest.test_case "checker: rescue evidence" `Quick test_checker_rescue_evidence;
    Alcotest.test_case "checker: widen read" `Quick test_checker_widen_read;
    Alcotest.test_case "checker: healthy real trace" `Slow test_checker_on_real_trace;
    Alcotest.test_case "telemetry: windowed rates" `Quick test_telemetry_rates;
    Alcotest.test_case "telemetry: reset window flagged" `Quick
      test_telemetry_reset_window;
    Alcotest.test_case "telemetry: first sample seeds" `Quick
      test_telemetry_first_sample_seeds;
    Alcotest.test_case "telemetry: experiment integration" `Slow
      test_telemetry_via_experiment;
    Alcotest.test_case "metrics: exhaustive reset" `Quick test_metrics_reset_exhaustive;
    Alcotest.test_case "metrics: latency percentiles" `Quick test_latency_percentiles;
    Alcotest.test_case "report: nan rendered honestly" `Quick test_report_nan_rendering;
  ]
