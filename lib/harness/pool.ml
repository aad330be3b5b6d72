(* Domain-parallel work pool for independent simulation runs.

   Design notes:

   - One global pool, sized by [set_jobs].  The library default is 1 —
     fully sequential, no domains spawned — so embedding code (tests,
     examples) sees the historical single-threaded behaviour unless a
     driver (CLI, bench) opts in.

   - [jobs = n] means n concurrent executors: the submitting domain plus
     n-1 worker domains.  The submitter participates through work-helping
     [await]: while its future is pending it pops and runs queued tasks
     instead of blocking.  Helping also makes *nested* parallelism safe —
     a task that fans out sub-tasks and awaits them cannot deadlock the
     fixed-size pool, because every awaiting executor keeps draining the
     queue.

   - Determinism: the pool adds no randomness.  Each submitted thunk must
     be self-contained (own RNG streams, own simulator); [map] collects
     results in submission order, so a parallel map is observationally
     identical to [List.map].  See DESIGN.md "Parallel safety". *)

type 'a state =
  | Pending
  | Value of 'a
  | Raised of exn * Printexc.raw_backtrace

type pool = {
  mutex : Mutex.t;
  work : Condition.t;  (* a task was queued, or the pool is stopping *)
  done_ : Condition.t;  (* some future completed *)
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

type 'a future = { pool : pool; mutable state : 'a state }

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.stop do
    Condition.wait pool.work pool.mutex
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* stopping *)
  else begin
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    task ();
    worker_loop pool
  end

let create_pool ~workers =
  let pool =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
    }
  in
  pool.domains <-
    List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown_pool pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.domains;
  pool.domains <- []

(* --- global configuration ---------------------------------------------- *)

let config_mutex = Mutex.create ()
let requested_jobs = ref 1
let the_pool : pool option ref = ref None
let at_exit_registered = ref false

let default_jobs () = Domain.recommended_domain_count ()
let jobs () = !requested_jobs

let shutdown () =
  Mutex.lock config_mutex;
  let pool = !the_pool in
  the_pool := None;
  Mutex.unlock config_mutex;
  Option.iter shutdown_pool pool

let set_jobs n =
  let n = Stdlib.max 1 n in
  if n <> !requested_jobs then begin
    shutdown ();
    Mutex.lock config_mutex;
    requested_jobs := n;
    Mutex.unlock config_mutex
  end

(* Lazily spawn the worker domains (jobs - 1 of them; the caller is the
   remaining executor).  Guarded so a nested [map] racing from a worker
   cannot double-create. *)
let ensure_pool () =
  Mutex.lock config_mutex;
  let pool =
    match !the_pool with
    | Some pool -> pool
    | None ->
      let pool = create_pool ~workers:(!requested_jobs - 1) in
      the_pool := Some pool;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        Stdlib.at_exit shutdown
      end;
      pool
  in
  Mutex.unlock config_mutex;
  pool

(* --- futures ------------------------------------------------------------ *)

let submit_to pool f =
  let fut = { pool; state = Pending } in
  let task () =
    let outcome =
      match f () with
      | v -> Value v
      | exception e -> Raised (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock pool.mutex;
    fut.state <- outcome;
    Condition.broadcast pool.done_;
    Mutex.unlock pool.mutex
  in
  Mutex.lock pool.mutex;
  Queue.push task pool.queue;
  Condition.signal pool.work;
  Mutex.unlock pool.mutex;
  fut

let rec await fut =
  let pool = fut.pool in
  Mutex.lock pool.mutex;
  match fut.state with
  | Value v ->
    Mutex.unlock pool.mutex;
    v
  | Raised (e, bt) ->
    Mutex.unlock pool.mutex;
    Printexc.raise_with_backtrace e bt
  | Pending ->
    if not (Queue.is_empty pool.queue) then begin
      (* Help: run someone's queued task instead of blocking a core. *)
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mutex;
      task ()
    end
    else begin
      Condition.wait pool.done_ pool.mutex;
      Mutex.unlock pool.mutex
    end;
    await fut

(* --- high-level API ----------------------------------------------------- *)

let map f xs =
  if !requested_jobs <= 1 then List.map f xs
  else begin
    let pool = ensure_pool () in
    let futures = List.map (fun x -> submit_to pool (fun () -> f x)) xs in
    List.map await futures
  end
