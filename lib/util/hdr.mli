(** HDR-style log-bucketed histogram: percentiles in constant memory.

    {!Stats} keeps every sample to answer percentile queries exactly; at
    open-loop scale (millions of latency samples) that is O(n) memory.
    [Hdr] trades exactness for a fixed relative error: values land in
    geometric buckets sized so any quoted quantile is within [rel_error]
    of the true sample value, using one bounded int array regardless of
    sample count.  Recording allocates nothing.

    Deterministic: same sample sequence, same answers — queries return
    bucket midpoints (clamped to the observed min/max), not interpolations
    over stored samples. *)

type t

val create : ?lo:float -> ?hi:float -> ?rel_error:float -> unit -> t
(** Buckets cover [[lo], [hi]] geometrically (defaults 1e-3..1e9, i.e.
    microsecond-to-11-days in ms units) at relative error [rel_error]
    (default 1%, ≈ 1160 buckets).  Values outside clamp to the edge
    buckets; exact min/max are tracked separately.  Raises
    [Invalid_argument] on a degenerate range or error bound. *)

val add : t -> float -> unit
(** Record one sample (NaN/negative clamp to 0). Allocation-free. *)

val count : t -> int
val mean : t -> float

val min_value : t -> float
(** Exact smallest recorded sample (0. when empty). *)

val max_value : t -> float
(** Exact largest recorded sample (0. when empty). *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0..100]: the representative value of the
    bucket holding the rank-⌈p/100·n⌉ sample, clamped to the observed
    extremes; [p <= 0] answers the exact min, [p >= 100] the exact max.
    0. when empty. *)

val reset : t -> unit
(** Zero every bucket and the aggregates; keeps the layout. *)

val merge : into:t -> t -> unit
(** Accumulate [src]'s buckets into [into].  Raises [Invalid_argument]
    when the layouts (range, error bound) differ. *)
