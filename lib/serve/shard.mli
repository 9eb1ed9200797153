(** Sharded multi-process serving: N forked server processes, one
    runtime each, behind a parent distributor.

    The parent owns the listening socket and runs a plain accept loop
    on a thread; every accepted connection is handed — descriptor and
    all — to one of the shard processes over a unix-domain socketpair
    using SCM_RIGHTS fd passing, then closed locally.  Each shard is a
    full {!Server} (its own {!Runtime.Sched}, io domain, batcher,
    cache) running {!Server.start_adopted} over its end of the pair.
    The protocol, batching, and arithmetic are untouched: a response
    from any shard is bitwise what the single-process server returns.

    {b Fork discipline.}  OCaml 5 forbids [Unix.fork] in any process
    that has ever spawned a domain.  The parent therefore never
    creates domains — its distributor is a systhread — and every shard
    is forked {e before} the child spawns its scheduler.  This also
    keeps restart legal: when a shard dies (crash, kill), the parent
    detects it via [waitpid WNOHANG], forks a replacement, and
    re-routes; connections that lived on the dead shard are lost (the
    client sees EOF and reconnects), connections on other shards are
    undisturbed.  A shard that dies within a second of its fork is
    treated as crash-looping: its re-fork is delayed by an exponential
    per-slot backoff (50ms doubling to a 5s cap, reset by any
    incarnation that survives its first second), so a poisoned shard
    cannot pin the distributor in a fork storm.

    Connections are dealt to the shards round-robin.

    {!stop} drains gracefully: the listener closes (no new
    connections), then each shard's channel closes — the shard's drain
    signal — and each child finishes every accepted request, answers
    stragglers [Shed "closed"], and exits; the parent reaps them all. *)

type t

val start :
  addr:Server.addr ->
  shards:int ->
  ?queue_capacity:int ->
  ?max_batch:int ->
  ?window_us:float ->
  ?cache_capacity:int ->
  ?max_conns:int ->
  unit ->
  t
(** Bind [addr], fork [shards] server processes, and start the
    distributor thread.  Must be called from a process that has never
    spawned a domain ([Unix.fork] would refuse otherwise).  Shards
    that die are re-forked.  Each shard's server gets a one-worker
    scheduler, which spawns no domain; the options are passed through
    to each shard's {!Server.start_adopted}.

    Raises [Invalid_argument] if [shards < 1]. *)

val bound_addr : t -> Unix.sockaddr

val shards : t -> int

val pids : t -> int list
(** Live shard process ids, in shard order. *)

type stats = {
  dispatched : int array;  (** connections handed to each shard slot *)
  restarts : int;  (** shard deaths detected and re-forked *)
  refused : int;  (** accepted then closed: no live shard to take it *)
  backoff_delays : int;
      (** re-forks deferred because the previous incarnation died
          within a second of its fork (crash-loop storm cap) *)
}

val stats : t -> stats

val stop : t -> unit
(** Graceful drain of the whole fleet (see above).  Idempotent. *)
