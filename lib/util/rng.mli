(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic choice in the simulator and the workload generators is
    drawn from an explicit [Rng.t] so that whole experiments are reproducible
    from a single seed.  [split] derives an independent stream, which lets
    each node / client / workload own its own generator without cross-talk
    when event interleavings change. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** [split rng] derives a statistically independent generator and advances
    [rng]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float rng bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance rng p] is true with probability [p] (clamped to [0;1]). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val zipf : t -> n:int -> skew:float -> int
(** Zipf-distributed index in [\[0, n)]; [skew = 0.] is uniform.  Used by
    workload generators to create contention hot spots. *)
