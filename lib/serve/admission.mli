(** Bounded admission queue between the server's io loop and the
    micro-batcher.

    Multi-producer (any io/accept context may push), single-consumer
    (the batcher domain).  The queue never exceeds its capacity:
    {!push} refuses with [`Full] instead of blocking or silently
    dropping, so overload always turns into an explicit shed response.

    The consumer side supports a timed window wait — OCaml's
    [Condition] has no timed variant, so the queue carries a self-pipe
    doorbell: a push onto an empty queue rings it and [pop_batch]
    waits on it through {!Readiness.wait_readable_ns}, which gives
    both the blocking wait-for-first-item and the bounded
    wait-to-fill-the-batch, to the nanosecond where the platform has
    ppoll(2) (poll(2)'s whole milliseconds would stretch a 200 us
    window to 1 ms). *)

type 'a t

val create : capacity:int -> 'a t
(** [Invalid_argument] unless [capacity >= 1]. *)

val capacity : 'a t -> int

val push : ?priority:int -> 'a t -> 'a -> [ `Ok | `Full | `Closed | `Displaced of 'a ]
(** Push with an optional priority (default 0; higher keeps longer).
    Into a full queue, a push displaces the {e oldest
    strictly-lower-priority} entry if one exists — the evicted value
    comes back as [`Displaced v] and the caller must shed it
    explicitly — and refuses with [`Full] otherwise.  Pushes that
    never pass [?priority] all tie at 0, so they can never displace
    each other and keep the historical full-means-[`Full] behavior. *)

val pop_batch : 'a t -> max:int -> window_ns:int64 -> 'a list
(** Block until at least one item is available (or the queue is closed
    and drained — then [[]]).  After the first item, keep popping up to
    [max] items, waiting at most [window_ns] measured from the first
    pop for stragglers (and returning as soon as [max] are in hand).
    [max = 1] degenerates to batch-size-1 serving; [window_ns = 0L]
    returns every item already queued, up to [max], without waiting. *)

val close : 'a t -> unit
(** Producers get [`Closed] from now on; the consumer drains what was
    already admitted, then [pop_batch] returns [[]].  Idempotent. *)

val destroy : 'a t -> unit
(** {!close}, then release the doorbell descriptors.  Only legal once
    no producer or consumer can touch the queue again (the server
    calls it after joining the batcher and io domains); the chaos
    campaign's fd-leak invariant is what keeps everyone honest. *)

val is_closed : 'a t -> bool

val depth : 'a t -> int
(** Current occupancy. *)

val max_depth : 'a t -> int
(** High-water mark of {!depth} since {!create}. *)
