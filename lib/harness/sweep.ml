let combine_checks a b =
  match (a, b) with
  | Ok (), Ok () -> Ok ()
  | (Error _ as e), _ | _, (Error _ as e) -> e

let mean_int xs = List.fold_left ( + ) 0 xs / Stdlib.max 1 (List.length xs)

let mean_float xs =
  List.fold_left ( +. ) 0. xs /. Float.of_int (Stdlib.max 1 (List.length xs))

let averaged ~trials run =
  assert (trials >= 1);
  (* Each trial is an independent, self-seeded simulation: fan them across
     the domain pool.  Results come back in trial order, so the averages
     below fold in the same order as the historical sequential code. *)
  let results = Pool.map (fun i -> run ~seed:(101 + (37 * i))) (List.init trials Fun.id) in
  match results with
  | [] -> assert false
  | first :: _ ->
    let pick f = List.map f results in
    {
      first with
      Experiment.commits = mean_int (pick (fun r -> r.Experiment.commits));
      read_only_commits = mean_int (pick (fun r -> r.Experiment.read_only_commits));
      throughput = mean_float (pick (fun r -> r.Experiment.throughput));
      root_aborts = mean_int (pick (fun r -> r.Experiment.root_aborts));
      partial_aborts = mean_int (pick (fun r -> r.Experiment.partial_aborts));
      abort_rate = mean_float (pick (fun r -> r.Experiment.abort_rate));
      ct_commits = mean_int (pick (fun r -> r.Experiment.ct_commits));
      compensations = mean_int (pick (fun r -> r.Experiment.compensations));
      checkpoints = mean_int (pick (fun r -> r.Experiment.checkpoints));
      messages = mean_int (pick (fun r -> r.Experiment.messages));
      remote_reads = mean_int (pick (fun r -> r.Experiment.remote_reads));
      local_reads = mean_int (pick (fun r -> r.Experiment.local_reads));
      mean_latency = mean_float (pick (fun r -> r.Experiment.mean_latency));
      p50_latency = mean_float (pick (fun r -> r.Experiment.p50_latency));
      p95_latency = mean_float (pick (fun r -> r.Experiment.p95_latency));
      p99_latency = mean_float (pick (fun r -> r.Experiment.p99_latency));
      invariant =
        List.fold_left combine_checks (Ok ()) (pick (fun r -> r.Experiment.invariant));
      consistent =
        List.fold_left combine_checks (Ok ()) (pick (fun r -> r.Experiment.consistent));
    }
