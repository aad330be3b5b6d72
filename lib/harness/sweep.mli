(** Trial averaging.

    {!averaged} submits its independent, per-seed runs to {!Pool}, so they
    parallelise across domains when the driver has called [Pool.set_jobs];
    results are folded in deterministic (submission) order, making the
    output identical at any job count. *)

val averaged : trials:int -> (seed:int -> Experiment.result) -> Experiment.result
(** Run the experiment [trials] times with distinct seeds and return the
    first result with its counters and rates replaced by trial means
    (checks are the conjunction over trials). *)
