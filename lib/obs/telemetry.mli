(** Windowed time-series telemetry.

    A telemetry sink records periodic samples of running counter totals
    (commits, aborts, in-flight transactions, lease expirations, per-kind
    message counts) taken on simulated-time ticks; the sampling loop is
    driven from outside (the harness advances the engine window-by-window
    and calls {!record}) so enabling telemetry schedules no simulator events
    and preserves run determinism.

    Exports derive per-window rates from consecutive raw totals.  The first
    sample seeds the deltas and yields no row.  Counter totals can step
    backwards across a harness counter reset (end of warm-up); such windows
    are flagged ([reset] column = 1) and excluded from every derived rate
    (NaN, rendered "n/a" downstream) — a reset artifact can never be
    mistaken for a real rate.  Gauge columns (in_flight) are unaffected. *)

type t

val create : window:float -> t
(** [window] is the intended sampling period in simulated ms — used by the
    driving loop as its tick and by exports to convert deltas to rates. *)

val window : t -> float

val record :
  t ->
  time:float ->
  commits:int ->
  aborts:int ->
  in_flight:int ->
  lease_expirations:int ->
  ?speculation_aborts:int ->
  ?batches:int ->
  ?cross_shard_commits:int ->
  ?cross_shard_aborts:int ->
  by_kind:(string * int) list ->
  unit ->
  unit
(** [speculation_aborts] and [batches] (both running totals, default 0)
    feed the batch-commit columns; sequential-mode harnesses may omit
    them.  [cross_shard_commits] / [cross_shard_aborts] (running totals,
    default 0) feed the cross-shard columns, which appear in exports only
    once some sample carries a nonzero value — unsharded exports are
    unchanged. *)

val samples : t -> int
(** Number of raw samples recorded so far. *)

val columns : t -> string list
(** Export header: time_ms, reset (1 when the window spans a counter
    reset and its rate cells are NaN), commits_per_s, aborts_per_s,
    in_flight, lease_expirations, speculation_aborts, batches_per_s, the
    two cross-shard columns when any sample recorded cross-shard traffic,
    then one [msg_<kind>_per_s] column per message kind ever seen (sorted
    by name). *)

val rows : t -> (float * float list) list
(** One row per sample after the first: (sample time, values in {!columns}
    order minus the time column). *)

val to_csv : t -> string
