open Core

type scale = { warmup : float; duration : float; clients : int; trials : int }

let quick = { warmup = 1_000.; duration = 8_000.; clients = 16; trials = 1 }
let full = { warmup = 2_000.; duration = 30_000.; clients = 26; trials = 3 }
let modes = [ Config.Flat; Config.Closed; Config.Checkpoint ]

(* Operating points chosen so the 13-node cluster shows the paper's
   contention regimes: structure benchmarks see long traversals, bank and
   vacation spread load over more independent objects. *)
let benchmark_objects = function
  | "bank" -> 96
  | "hashmap" -> 64
  | "slist" -> 48
  | "rbtree" -> 64
  | "vacation" -> 36
  | "bst" -> 64
  | _ -> 48

let base_params name =
  {
    Benchmarks.Workload.default_params with
    objects = benchmark_objects name;
    calls = 3;
    read_ratio = 0.5;
    key_skew = 0.5;
  }

let run_point ?read_level ~scale ~config ~benchmark ~params ~seed () =
  Experiment.run ~load:(Closed { clients = scale.clients; client_nodes = None })
    ~warmup:scale.warmup ~duration:scale.duration
    (Experiment.spec ?read_level ~seed ~config ~benchmark ~params ())

(* Every (x, mode, trial) point is an independent seeded simulation; the
   nested [Pool.map]s fan the whole grid across domains (work-helping makes
   the nesting safe) while preserving row/column order. *)
let mode_sweep ~scale ~benchmark ~params_of ~xs ~x_of =
  Pool.map
    (fun x ->
      let params = params_of x in
      let values =
        Pool.map
          (fun mode ->
            let result =
              Sweep.averaged ~trials:scale.trials (fun ~seed ->
                  run_point ~scale ~config:(Config.default mode) ~benchmark ~params ~seed ())
            in
            result.Experiment.throughput)
          modes
      in
      (x_of x, values))
    xs

let mode_columns = List.map Config.mode_name modes

let fig5 ?(scale = quick) ~benchmark () =
  let name = (benchmark : Benchmarks.Workload.benchmark).name in
  let base = base_params name in
  let rows =
    mode_sweep ~scale ~benchmark
      ~params_of:(fun ratio -> { base with read_ratio = ratio })
      ~xs:[ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ]
      ~x_of:(fun r -> Printf.sprintf "%.0f%%" (r *. 100.))
  in
  {
    Report.title = Printf.sprintf "Fig. 5 (%s): throughput vs read workload" name;
    x_label = "reads";
    columns = mode_columns;
    rows;
    notes =
      [ "expected: closed >= flat, gap largest at write-heavy end; checkpoint <= flat" ];
  }

let fig6 ?(scale = quick) ~benchmark () =
  let name = (benchmark : Benchmarks.Workload.benchmark).name in
  let base = { (base_params name) with read_ratio = 0.5 } in
  let rows =
    mode_sweep ~scale ~benchmark
      ~params_of:(fun calls -> { base with calls })
      ~xs:[ 1; 2; 3; 4; 5 ]
      ~x_of:string_of_int
  in
  {
    Report.title = Printf.sprintf "Fig. 6 (%s): throughput vs nested calls" name;
    x_label = "calls";
    columns = mode_columns;
    rows;
    notes = [ "expected: closed-nesting gain grows with transaction length" ];
  }

let fig7 ?(scale = quick) ~benchmark () =
  let name = (benchmark : Benchmarks.Workload.benchmark).name in
  let base = { (base_params name) with read_ratio = 0.2 } in
  let rows =
    mode_sweep ~scale ~benchmark
      ~params_of:(fun objects -> { base with objects })
      ~xs:[ 16; 32; 64; 128 ]
      ~x_of:string_of_int
  in
  {
    Report.title = Printf.sprintf "Fig. 7 (%s): throughput vs number of objects" name;
    x_label = "objects";
    columns = mode_columns;
    rows;
    notes =
      [
        "expected: contention grows with objects for slist/hashmap (longer traversals), \
         shrinks for bank/rbtree/vacation";
      ];
  }

(* The reference operating point for Table 8 and the summary: write-heavy,
   mid-length transactions. *)
let reference_params name = { (base_params name) with read_ratio = 0.2; calls = 3 }

let table8 ?(scale = quick) () =
  let rows =
    Pool.map
      (fun (benchmark : Benchmarks.Workload.benchmark) ->
        let params = reference_params benchmark.name in
        let result_of mode =
          Sweep.averaged ~trials:scale.trials (fun ~seed ->
              run_point ~scale ~config:(Config.default mode) ~benchmark ~params ~seed ())
        in
        let flat, closed, chk =
          match Pool.map result_of modes with
          | [ flat; closed; chk ] -> (flat, closed, chk)
          | _ -> assert false
        in
        let aborts (r : Experiment.result) =
          Float.of_int (r.root_aborts + r.partial_aborts)
        in
        let msgs (r : Experiment.result) = Float.of_int r.messages in
        ( benchmark.name,
          [
            Report.pct_change ~baseline:(aborts flat) (aborts closed);
            Report.pct_change ~baseline:(aborts flat) (aborts chk);
            Report.pct_change ~baseline:(msgs flat) (msgs closed);
            Report.pct_change ~baseline:(msgs flat) (msgs chk);
          ] ))
      Benchmarks.Registry.paper_suite
  in
  {
    Report.title = "Table (Fig. 8): % change in aborts and messages vs flat nesting";
    x_label = "benchmark";
    columns = [ "QR-CN abort %"; "QR-CHK abort %"; "QR-CN msg %"; "QR-CHK msg %" ];
    rows;
    notes = [ "expected: negative (fewer) for QR-CN, positive (more) for QR-CHK" ];
  }

(* --- Fig. 9: baseline comparison on Bank ------------------------------ *)

let bank_gen ~accounts ~read_ratio rng =
  let n = Array.length accounts in
  let ops =
    List.init 3 (fun _ ->
        let a = accounts.(Util.Rng.int rng n) in
        let rec pick_other () =
          let b = accounts.(Util.Rng.int rng n) in
          if b = a then pick_other () else b
        in
        let b = pick_other () in
        if Util.Rng.chance rng read_ratio then
          Txn.bind (Txn.read a) (fun _ -> Txn.read b)
        else Benchmarks.Bank.transfer ~from_:a ~to_:b ~amount:(1 + Util.Rng.int rng 10))
  in
  fun () -> Benchmarks.Workload.ops_as_cts ops

let fig9_series ~scale ~read_ratio ~label =
  let node_counts = [ 5; 9; 13; 21 ] in
  let accounts_count = 24 in
  let throughput_of make_system seed_base n =
    let result =
      Sweep.averaged ~trials:scale.trials (fun ~seed ->
          let system : Experiment.system = make_system ~nodes:n ~seed:(seed + seed_base) in
          let accounts =
            Array.init accounts_count (fun _ ->
                system.Experiment.alloc ~init:(Store.Value.Int Benchmarks.Bank.initial_balance))
          in
          Experiment.run_system system ~clients:scale.clients ~warmup:scale.warmup
            ~duration:scale.duration
            ~gen_txn:(bank_gen ~accounts ~read_ratio)
            ~seed ())
    in
    result.Experiment.throughput
  in
  let systems =
    [
      ((fun ~nodes ~seed -> Experiment.qr_system ~nodes ~seed (Config.default Config.Flat)), 0);
      ((fun ~nodes ~seed -> Experiment.tfa_system ~nodes ~seed ()), 1000);
      ((fun ~nodes ~seed -> Experiment.decent_system ~nodes ~seed ()), 2000);
    ]
  in
  let rows =
    Pool.map
      (fun n ->
        ( string_of_int n,
          Pool.map (fun (make, seed_base) -> throughput_of make seed_base n) systems ))
      node_counts
  in
  {
    Report.title = Printf.sprintf "Fig. 9%s: Bank, %s" label
        (if read_ratio > 0.7 then "90% read / 10% write" else "50% read / 50% write");
    x_label = "nodes";
    columns = [ "qr-dtm"; "hyflow-tfa"; "decent-stm" ];
    rows;
    notes = [ "expected: hyflow > qr-dtm > decent-stm (hyflow is not fault-tolerant)" ];
  }

let fig9 ?(scale = quick) () =
  [
    fig9_series ~scale ~read_ratio:0.5 ~label:"a";
    fig9_series ~scale ~read_ratio:0.9 ~label:"b";
  ]

(* --- Fig. 10: throughput under node failures -------------------------- *)

let failure_schedule ~nodes ~read_level ~count =
  let scratch = Quorum.Tree_quorum.create ~read_level ~nodes () in
  let tree = Quorum.Tree_quorum.tree scratch in
  let rec choose chosen remaining =
    if remaining = 0 then List.rev chosen
    else begin
      match Quorum.Tree_quorum.read_quorum ~salt:0 scratch with
      | None -> List.rev chosen
      | Some quorum ->
        (* Prefer a member with children: its substitution grows the quorum. *)
        let victim =
          match List.find_opt (fun n -> not (Quorum.Tree.is_leaf tree n)) quorum with
          | Some n -> Some n
          | None -> List.nth_opt quorum 0
        in
        begin
          match victim with
          | None -> List.rev chosen
          | Some v ->
            Quorum.Tree_quorum.mark_failed scratch v;
            choose (v :: chosen) (remaining - 1)
        end
    end
  in
  choose [] count

let fig10 ?(scale = quick) () =
  (* The paper's initial throughput *rise* under failures requires the
     single-node read quorum (the tree root) to be the capacity bottleneck
     before the first failure: a read-heavy mix, enough clients, and a
     per-message service cost that dominates — hence the overrides below
     rather than the generic scale. *)
  let nodes = 28 and read_level = 0 in
  let clients = Stdlib.max 40 scale.clients and service_time = 2.5 in
  let read_ratio = 0.9 in
  let failure_counts = [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let benchmarks =
    [ Benchmarks.Hashmap.benchmark; Benchmarks.Bst.benchmark; Benchmarks.Vacation.benchmark ]
  in
  let max_failures = List.fold_left Stdlib.max 0 failure_counts in
  let all_victims = failure_schedule ~nodes ~read_level ~count:max_failures in
  let survivors =
    List.filter (fun n -> not (List.mem n all_victims)) (List.init nodes Fun.id)
  in
  let throughput_of benchmark failures =
    let params =
      { (base_params (benchmark : Benchmarks.Workload.benchmark).name) with read_ratio }
    in
    let victims = failure_schedule ~nodes ~read_level ~count:failures in
    let result =
      Sweep.averaged ~trials:scale.trials (fun ~seed ->
          Experiment.run ~load:(Closed { clients; client_nodes = Some survivors })
            ~warmup:scale.warmup ~duration:scale.duration
            ~events:
              (List.mapi
                 (fun i node -> Scenario.Crash { node; at = 100. +. (50. *. Float.of_int i) })
                 victims)
            (Experiment.spec ~nodes ~read_level ~seed ~service_time
               ~config:(Config.default Config.Closed) ~benchmark ~params ()))
    in
    result.Experiment.throughput
  in
  let rows =
    Pool.map
      (fun failures ->
        ( string_of_int failures,
          Pool.map (fun benchmark -> throughput_of benchmark failures) benchmarks ))
      failure_counts
  in
  {
    Report.title = "Fig. 10: throughput under increasing node failures (28 nodes)";
    x_label = "failed";
    columns = [ "hashmap"; "bst"; "vacation" ];
    rows;
    notes =
      [
        "expected: throughput rises for the first failures (read load spreads off the \
         root), then degrades gracefully as read quorums grow";
      ];
  }

(* --- Headline summary -------------------------------------------------- *)

let summary ?(scale = quick) () =
  let per_benchmark =
    Pool.map
      (fun (benchmark : Benchmarks.Workload.benchmark) ->
        let params = reference_params benchmark.name in
        let result_of mode =
          Sweep.averaged ~trials:scale.trials (fun ~seed ->
              run_point ~scale ~config:(Config.default mode) ~benchmark ~params ~seed ())
        in
        match Pool.map result_of modes with
        | [ flat; closed; chk ] -> (benchmark.name, flat, closed, chk)
        | _ -> assert false)
      Benchmarks.Registry.paper_suite
  in
  let speedup flat other =
    Report.pct_change ~baseline:flat.Experiment.throughput other.Experiment.throughput
  in
  let rows =
    List.map
      (fun (name, flat, closed, chk) ->
        ( name,
          [
            speedup flat closed;
            speedup flat chk;
            Report.pct_change
              ~baseline:(Float.of_int (flat.Experiment.root_aborts + flat.partial_aborts))
              (Float.of_int (closed.Experiment.root_aborts + closed.partial_aborts));
            Report.pct_change
              ~baseline:(Float.of_int flat.Experiment.messages)
              (Float.of_int closed.Experiment.messages);
          ] ))
      per_benchmark
  in
  let mean idx =
    let values = List.map (fun (_, vs) -> List.nth vs idx) rows in
    List.fold_left ( +. ) 0. values /. Float.of_int (List.length values)
  in
  let rows = rows @ [ ("AVERAGE", [ mean 0; mean 1; mean 2; mean 3 ]) ] in
  let latency_of pick_mode =
    let avg f =
      let values = List.map (fun entry -> f (pick_mode entry)) per_benchmark in
      List.fold_left ( +. ) 0. values /. Float.of_int (Stdlib.max 1 (List.length values))
    in
    Printf.sprintf "p50=%.1f p95=%.1f p99=%.1f"
      (avg (fun (r : Experiment.result) -> r.p50_latency))
      (avg (fun (r : Experiment.result) -> r.p95_latency))
      (avg (fun (r : Experiment.result) -> r.p99_latency))
  in
  {
    Report.title =
      "Headline summary: closed nesting & checkpointing vs flat (reference point)";
    x_label = "benchmark";
    columns =
      [ "closed speedup %"; "chk speedup %"; "closed abort delta %"; "closed msg delta %" ];
    rows;
    notes =
      [
        "paper: closed avg +53% (max +101%), checkpointing -16%, abort -33%, messages -34%";
        Printf.sprintf "commit latency ms (suite average): flat %s | closed %s | chk %s"
          (latency_of (fun (_, flat, _, _) -> flat))
          (latency_of (fun (_, _, closed, _) -> closed))
          (latency_of (fun (_, _, _, chk) -> chk));
      ];
  }

(* --- Ablations ----------------------------------------------------------- *)

(* Open vs closed nesting: each root makes [calls] transfers between two
   distinct accounts drawn uniformly from [objects], as open or as
   closed-nested sub-transactions.  An open transfer's compensation is the
   reverse transfer, so money is conserved either way. *)
let nested_transfers ~open_ =
  let setup cluster (params : Benchmarks.Workload.params) =
    let n = params.objects in
    let accounts =
      Array.init n (fun _ ->
          Cluster.alloc_object cluster ~init:(Store.Value.Int Benchmarks.Bank.initial_balance))
    in
    let call rng =
      let i = Util.Rng.int rng n in
      let from_ = accounts.(i) and to_ = accounts.((i + 1 + Util.Rng.int rng (n - 1)) mod n) in
      let amount = 1 + Util.Rng.int rng 10 in
      let body () = Benchmarks.Bank.transfer ~from_ ~to_ ~amount in
      if open_ then
        Txn.open_nested ~body ~compensate:(fun _ ->
            Benchmarks.Bank.transfer ~from_:to_ ~to_:from_ ~amount)
      else Txn.nested body
    in
    let generate rng =
      let calls = List.init params.calls (fun _ -> call rng) in
      fun () -> Benchmarks.Workload.seq calls
    in
    let check () =
      let total = Benchmarks.Bank.total_balance cluster ~accounts in
      if total = n * Benchmarks.Bank.initial_balance then Ok ()
      else Error (Printf.sprintf "transfers: total balance %d" total)
    in
    { Benchmarks.Workload.generate; check }
  in
  { Benchmarks.Workload.name = "transfers"; min_objects = 2; setup }

(* The design choices DESIGN.md calls out, each swept at the bank's Fig. 5/6
   operating point.  Series and points are pool tasks, like the figures. *)
let ablations ?(scale = quick) () =
  let point ?read_level ?(benchmark = Benchmarks.Bank.benchmark)
      ?(params = base_params "bank") config =
    Sweep.averaged ~trials:scale.trials (fun ~seed ->
        run_point ?read_level ~scale ~config ~benchmark ~params ~seed ())
  in
  let throughput (r : Experiment.result) = r.throughput
  and messages (r : Experiment.result) = Float.of_int r.messages
  and root_aborts (r : Experiment.result) = Float.of_int r.root_aborts
  and partial_aborts (r : Experiment.result) = Float.of_int r.partial_aborts
  and compensations (r : Experiment.result) = Float.of_int r.compensations in
  let series ~title ~x_label ~columns ~notes rows () =
    {
      Report.title;
      x_label;
      columns = List.map fst columns;
      rows =
        Pool.map
          (fun (x, run) ->
            let r = run () in
            (x, List.map (fun (_, f) -> f r) columns))
          rows;
      notes;
    }
  in
  let checkpoint threshold overhead () =
    point
      (Config.make ~checkpoint_threshold:threshold ~checkpoint_overhead:overhead
         Config.Checkpoint)
  in
  let lock_retries n () = point (Config.make ~commit_lock_retries:n Config.Closed) in
  let read_level level () = point ~read_level:level (Config.default Config.Closed) in
  let nesting ~open_ () =
    point ~benchmark:(nested_transfers ~open_)
      ~params:{ (base_params "bank") with objects = 48 }
      (Config.default Config.Closed)
  in
  Pool.map
    (fun series -> series ())
    [
      series ~title:"Ablation: incremental validation (Rqv) for flat transactions"
        ~x_label:"variant"
        ~columns:[ ("throughput", throughput); ("messages", messages); ("root aborts", root_aborts) ]
        ~notes:
          [
            "Rqv gives flat transactions early aborts and local read-only commits: root \
             aborts rise, but each costs less, so throughput rises and messages fall";
          ]
        [
          ("flat (paper QR)", fun () -> point (Config.default Config.Flat));
          ("flat + Rqv", fun () -> point (Config.make ~rqv_for_flat:true Config.Flat));
        ];
      series ~title:"Ablation: checkpoint granularity and creation cost (QR-CHK, bank)"
        ~x_label:"threshold/overhead"
        ~columns:[ ("throughput", throughput); ("partial aborts", partial_aborts) ]
        ~notes:
          [
            "coarser checkpoints cut partial aborts (12x at threshold 4) without raising \
             throughput";
            "an 8 ms (JVM-like) creation cost lowers throughput, yet QR-CHK stays above \
             flat (first series), unlike the paper's JVM";
          ]
        [
          ("1 obj / 0.5 ms", checkpoint 1 0.5);
          ("1 obj / 2 ms", checkpoint 1 2.0);
          ("1 obj / 8 ms (JVM-like)", checkpoint 1 8.0);
          ("2 objs / 2 ms", checkpoint 2 2.0);
          ("4 objs / 2 ms", checkpoint 4 2.0);
        ];
      series ~title:"Ablation: read-quorum depth (tree level)" ~x_label:"read level"
        ~columns:[ ("throughput", throughput); ("messages", messages) ]
        ~notes:
          [
            "deeper read quorums cost more messages per read; at this load the root is no \
             bottleneck, so level 0 runs fastest (Fig. 10 loads it harder)";
          ]
        [ ("0 (root)", read_level 0); ("1 (paper)", read_level 1); ("2", read_level 2) ];
      series ~title:"Ablation: commit retry on lock conflict (QR-CN, bank)"
        ~x_label:"lock retries"
        ~columns:[ ("throughput", throughput); ("root aborts", root_aborts) ]
        ~notes:
          [
            "retrying a denied vote trims root aborts, but one retry leaves throughput \
             unchanged and three lower it";
          ]
        [ ("0 (paper)", lock_retries 0); ("1", lock_retries 1); ("3", lock_retries 3) ];
      series ~title:"Extension: open nesting vs closed nesting (bank transfers)"
        ~x_label:"model"
        ~columns:
          [
            ("throughput", throughput);
            ("messages", messages);
            ("root aborts", root_aborts);
            ("compensations", compensations);
          ]
        ~notes:
          [
            "open sub-transactions commit early (shorter conflict windows) and pay a 2PC \
             per call: messages double, and root aborts include the sub-transactions'";
            "throughput counts client roots; every call is open, so a parent has nothing \
             of its own to validate, never aborts, and runs no compensation";
          ]
        [ ("closed", nesting ~open_:false); ("open", nesting ~open_:true) ];
    ]

(* --- whole-evaluation driver ------------------------------------------- *)

(* The full figure/table sweep, in the order `qr-dtm all` prints it.  Each
   group below is independent, so the groups themselves are pool tasks; the
   per-point fan-out inside them supplies the rest of the parallelism. *)
let everything ?(scale = quick) () =
  let groups =
    List.map
      (fun (benchmark : Benchmarks.Workload.benchmark) () ->
        [ fig5 ~scale ~benchmark (); fig6 ~scale ~benchmark (); fig7 ~scale ~benchmark () ])
      Benchmarks.Registry.paper_suite
    @ [
        (fun () -> [ table8 ~scale () ]);
        (fun () -> fig9 ~scale ());
        (fun () -> [ fig10 ~scale () ]);
        (fun () -> [ summary ~scale () ]);
        (fun () -> ablations ~scale ());
      ]
  in
  List.concat (Pool.map (fun group -> group ()) groups)
