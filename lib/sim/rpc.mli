(** Request/reply and quorum-collect messaging on top of {!Network}.

    The DTM protocols are built from three communication patterns:
    - [call]: unicast request, one reply (TFA-style);
    - [multicall]: multicast to a quorum, collect *all* replies or time out
      with the missing members identified (QR read and commit requests);
    - [cast]: one-way message (commit apply / release).

    Servers are synchronous: a handler maps a request to an optional reply,
    computed during the node's service slot.  Replies travel back over the
    same network (and therefore pay latency, jitter and queueing again).

    Every envelope carries a view epoch stamped at send time — the epoch of
    the shard the request's objects live on (one shard: the cluster-wide
    epoch); with {!set_fencing} installed, stale-epoch requests and replies
    are dropped — the membership fence for epoch-based reconfiguration.
    Without it all epochs are 0 and behaviour is unchanged. *)

type ('req, 'rep) envelope
(** The wire type: build a {!Network.t} carrying [('req,'rep) envelope]
    messages and hand it to {!create}. *)

type ('req, 'rep) t

val create :
  ?seed:int ->
  ?retry_base:float ->
  ?retry_max:float ->
  network:('req, 'rep) envelope Network.t ->
  unit ->
  ('req, 'rep) t
(** [retry_base] / [retry_max] shape {!acked_send}'s retransmission
    backoff: re-send k waits [min (retry_max, retry_base * 2^k)] ms with
    seeded jitter drawn from [seed].  The default [retry_base = 0.] retries
    immediately (the historical fixed-interval behaviour), drawing no
    randomness. *)

val serve : ('req, 'rep) t -> node:int -> (src:int -> 'req -> 'rep option) -> unit
(** Install the request handler of [node]; [None] sends no reply. *)

val set_fencing :
  ('req, 'rep) t -> epoch_of:('req -> int) -> fenceable:('req -> bool) -> unit
(** Arm epoch fencing: outgoing requests are stamped with
    [epoch_of payload] — the current view epoch of the shard the request's
    objects live on (a single shard degenerates to the cluster-wide
    epoch).  An incoming request whose stamp is older than the current
    [epoch_of payload] is dropped when [fenceable] accepts it
    (quorum-evidence traffic — catch-up messages like [Sync_req] should
    answer regardless of the asker's view).  Replies inherit their
    request's epoch context and stale replies are always dropped: the
    caller's round times out and its retry re-stamps the current epoch. *)

val call :
  ('req, 'rep) t ->
  ?kind:Network.Kind.t ->
  src:int ->
  dst:int ->
  timeout:float ->
  'req ->
  on_reply:('rep -> unit) ->
  on_timeout:(unit -> unit) ->
  unit

val multicall :
  ('req, 'rep) t ->
  ?kind:Network.Kind.t ->
  src:int ->
  dsts:int list ->
  timeout:float ->
  'req ->
  on_done:(replies:(int * 'rep) list -> missing:int list -> unit) ->
  unit
(** Fire [on_done] as soon as every destination replied ([missing = []]),
    or at [timeout] with whatever arrived.  [on_done] is called exactly
    once.  Replies arriving after the timeout are discarded. *)

val cast : ('req, 'rep) t -> ?kind:Network.Kind.t -> src:int -> dst:int -> 'req -> unit
(** One-way request; any reply the server produces is dropped. *)

val acked_send :
  ('req, 'rep) t ->
  ?kind:Network.Kind.t ->
  ?attempts:int ->
  src:int ->
  dst:int ->
  timeout:float ->
  'req ->
  unit
(** At-least-once delivery for idempotent one-way messages: re-send until
    the server acknowledges (any reply counts) or [attempts] (default 6)
    are exhausted — the destination may be genuinely dead.  Re-sends back
    off exponentially with seeded jitter (see {!create}'s [retry_base]).
    Duplicates are possible by construction; the request must tolerate
    them. *)

val acked_multicast :
  ('req, 'rep) t ->
  ?kind:Network.Kind.t ->
  ?attempts:int ->
  src:int ->
  dsts:int list ->
  timeout:float ->
  'req ->
  unit

val give_ups : ('req, 'rep) t -> int
(** How many {!acked_send} deliveries exhausted their retransmission budget
    without an acknowledgement.  Each is a one-way message that may never
    have reached its (possibly dead) destination — visible here instead of
    failing silently. *)

val reset_give_ups : ('req, 'rep) t -> unit

val fenced : ('req, 'rep) t -> int
(** Stale-epoch envelopes dropped by the membership fence since creation
    (or the last {!reset_fenced}). *)

val reset_fenced : ('req, 'rep) t -> unit
