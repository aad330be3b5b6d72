(** Regeneration of every figure and table in the paper's evaluation.

    Each function runs the corresponding experiment sweep and returns a
    {!Report.series} (the rows the paper plots).  Scales control run length:
    {!quick} keeps the whole suite within a couple of minutes for CI and the
    wall-clock bench; {!full} is closer to the paper's steady-state runs.

    Expected shapes (paper §VI): closed nesting above flat everywhere, gap
    widening with write ratio, transaction length and contention;
    checkpointing slightly below flat; HyFlow > QR-DTM > Decent-STM on
    Bank; Fig. 10's failure curve rises for the first failures then degrades
    gracefully. *)

type scale = {
  warmup : float;
  duration : float;
  clients : int;
  trials : int;
}

val quick : scale
val full : scale

val modes : Core.Config.mode list
(** Flat, Closed, Checkpoint — the column order used everywhere. *)

val benchmark_objects : string -> int
(** Default population per benchmark (the Fig. 5/6 operating point). *)

val fig5 : ?scale:scale -> benchmark:Benchmarks.Workload.benchmark -> unit -> Report.series
(** Throughput vs read ratio (0..100%). *)

val fig6 : ?scale:scale -> benchmark:Benchmarks.Workload.benchmark -> unit -> Report.series
(** Throughput vs closed-nested calls (1..5). *)

val fig7 : ?scale:scale -> benchmark:Benchmarks.Workload.benchmark -> unit -> Report.series
(** Throughput vs number of objects. *)

val table8 : ?scale:scale -> unit -> Report.series
(** Percentage change in abort rate and messages, QR-CN and QR-CHK vs flat,
    per benchmark (the paper's Fig. 8 table). *)

val fig9 : ?scale:scale -> unit -> Report.series list
(** QR-DTM vs HyFlow-TFA vs Decent-STM on Bank: (a) 50% reads, (b) 90%
    reads; throughput vs node count. *)

val fig10 : ?scale:scale -> unit -> Report.series
(** Throughput under 0..8 node failures (28 nodes, single-node read quorum
    initially) for Hashmap, BST and Vacation. *)

val failure_schedule : nodes:int -> read_level:int -> count:int -> int list
(** The nodes Fig. 10 fails, in order: each failure is chosen inside the
    current read quorum so the quorum grows by one (exposed for tests). *)

val summary : ?scale:scale -> unit -> Report.series
(** Headline aggregates over the five benchmarks at the reference point:
    closed-nesting speedup, checkpointing slowdown, abort/message deltas —
    the numbers the paper's abstract reports (53%, 101%, −16%, …). *)

val ablations : ?scale:scale -> unit -> Report.series list
(** The design choices DESIGN.md calls out, at the bank's Fig. 5/6
    operating point: Rqv for flat, checkpoint threshold and creation cost,
    read-quorum level, commit-lock retries, and open vs closed nesting (on
    a transfer workload of 48 accounts, 3 transfers per root). *)

val everything : ?scale:scale -> unit -> Report.series list
(** Every figure and table, in the order [qr-dtm all] prints them: fig 5/6/7
    per benchmark, the Fig. 8 table, fig 9a/9b, fig 10, the summary, then
    the ablations.
    All independent points are fanned across {!Pool}; the rendered output
    is identical at any job count. *)
