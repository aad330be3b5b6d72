type mode = Flat | Closed | Checkpoint

let mode_name = function
  | Flat -> "flat"
  | Closed -> "closed"
  | Checkpoint -> "checkpoint"

(* Protocol timings no caller varies. *)
let local_op_cost = 0.02
let request_timeout = 400.
let backoff_base = 4.
let backoff_max = 250.
let ct_retry_delay = 1.
let lease_duration = 800.
let lease_safety_margin = 100.
let status_grace = 200.
let status_attempts = 3
let retransmit_backoff_base = 8.
let retransmit_backoff_max = 200.

type t = {
  mode : mode;
  rqv_for_flat : bool;
  checkpoint_threshold : int;
  checkpoint_overhead : float;
  commit_lock_retries : int;
  max_attempts : int;
  max_steps_per_attempt : int;
  batch_size : int;
  batch_delay : float;
}

let make ?(rqv_for_flat = false) ?(checkpoint_threshold = 1) ?(checkpoint_overhead = 2.0)
    ?(commit_lock_retries = 0) ?(max_attempts = 0) ?(max_steps_per_attempt = 20_000)
    ?(batch_size = 8) ?(batch_delay = 5.) mode =
  assert (checkpoint_threshold >= 1);
  assert (batch_size >= 1);
  assert (batch_delay >= 0.);
  {
    mode;
    rqv_for_flat;
    checkpoint_threshold;
    checkpoint_overhead;
    commit_lock_retries;
    max_attempts;
    max_steps_per_attempt;
    batch_size;
    batch_delay;
  }

let default mode = make mode
