(** The batched evaluation server: accept loop, admission control,
    micro-batched execution, graceful drain.

    Two domains per server: an io domain running a {!Readiness} event
    loop (poll(2) by default — no FD_SETSIZE ceiling; accept,
    incremental deframing, single-pass decode
    ({!Protocol.request_of_frame}), cache lookup, admission, immediate
    replies for sheds / errors / cache hits / [stats]), and a
    {!Batcher} domain executing admitted requests, on itself or on the
    caller's {!Runtime.Sched}.  Replies are written straight into each
    connection's output buffer ({!Protocol.write_response}).
    Connections are dispatched O(1) through a table keyed by
    descriptor, so thousands of concurrent connections cost only their
    live events.

    Overload is always explicit: a connection beyond [max_conns] is
    refused at accept; a request that does not fit the bounded
    admission queue is answered [Shed "queue_full"]; one arriving
    after {!stop} began is answered [Shed "closed"]; one whose
    deadline lapsed in the queue is answered [Shed "deadline"].
    Nothing is silently dropped.

    With [cache_capacity > 0], repeated scalar requests are memoized
    in a bounded LRU ({!Cache}) keyed on the exact operand bit
    patterns; a hit is answered directly from the io domain —
    bitwise-identical to the miss that populated it, since the cached
    component array re-encodes through the same deterministic
    emitter.  Requests carrying deadlines always travel the queue.

    A server is fed from one of two sources: {!start} binds and owns a
    listening socket; {!start_adopted} instead ingests
    already-accepted connections passed over a unix-domain channel by
    a parent distributor (SCM_RIGHTS fd passing; see {!Shard}).
    Closing the channel is the drain signal: the server invokes
    [on_drain] and keeps serving its adopted connections until
    {!stop}.

    {!start} registers a {!Runtime.Sched.on_shutdown} drain hook, so
    [Sched.shutdown] / [Sched.drain_all] (e.g. from a signal handler)
    gracefully stops the server first: the admission queue closes, the
    batcher finishes every already-accepted request — zero accepted
    requests are lost — and only then do the worker domains stop. *)

type addr =
  | Unix_path of string  (** unix-domain stream socket; file is unlinked first *)
  | Tcp of { host : string; port : int }  (** [port = 0] picks a free port *)

type t

val start :
  sched:Runtime.Sched.t ->
  addr:addr ->
  ?queue_capacity:int ->
  ?max_batch:int ->
  ?window_us:float ->
  ?cache_capacity:int ->
  ?max_conns:int ->
  unit ->
  t
(** Bind, listen, and spawn the io and batcher domains.  Defaults:
    [queue_capacity = 64], [max_batch = 32], [window_us = 0.],
    [cache_capacity = 0] (memoization off), [max_conns = 16384].
    With no window a batcher cycle takes every request already queued,
    up to [max_batch], without waiting for more; replies still go out
    in one write per connection per cycle.  A positive [window_us]
    waits that long after a cycle's first request for stragglers.
    [max_batch = 1] serves batch-size-1. *)

val start_adopted :
  sched:Runtime.Sched.t ->
  chan:Unix.file_descr ->
  ?on_drain:(unit -> unit) ->
  ?queue_capacity:int ->
  ?max_batch:int ->
  ?window_us:float ->
  ?cache_capacity:int ->
  ?max_conns:int ->
  unit ->
  t
(** Serve connections received over [chan] (a unix-domain stream
    socket) instead of a listener: each ['c']-tagged SCM_RIGHTS
    message carries one accepted connection fd.  A ['q'] control byte
    or channel EOF triggers [on_drain] (called once, from the io
    domain) — the parent's way of requesting a graceful drain; the
    callback should arrange for {!stop} from another thread.  The
    server takes ownership of [chan]. *)

val bound_addr : t -> Unix.sockaddr
(** The actual bound address (resolves [Tcp { port = 0; _ }]).  Raises
    [Invalid_argument] for an adopted server. *)

val sockaddr_of_addr : addr -> Unix.sockaddr
(** Resolve [addr]: a unix path as is, a TCP host as a numeric address
    or else by name lookup (first address). *)

val bind_listen : addr -> Unix.file_descr * Unix.sockaddr * string option
(** Bind and listen on [addr]; returns the socket, its resolved
    address, and the unix-socket path to unlink on teardown.  Used by
    {!Shard} to own the listener in the parent distributor. *)

val stop : t -> unit
(** Graceful drain: close admission, finish every accepted request,
    answer late arrivals [Shed "closed"], then close the listener (or
    adoption channel) and all connections.  Idempotent; also runs via
    the scheduler's shutdown hook. *)

val stats_doc : t -> Obs.Json_out.t
(** Server introspection per {!Obs.Schemas.serve_stats} (schema
    [fpan-serve/5]), rendered from one snapshot of the server's
    registry ({!Batcher.metrics}, the only place a serve count is
    kept): readiness backend (always [poll]), connection, admission
    and shed counters (the per-SLA-bucket split covers every shed,
    priority displacements and deadline sheds included), batch-size
    histogram, SLA escalation counts, and the arrival-to-reply latency
    histograms as metric rows ([latency_ns]).  Queue depth and the
    cache block come from {!Admission} and {!Cache}; the scheduler's
    worker telemetry closes the document.  Also what the wire [stats]
    operation returns. *)

val cache_stats : t -> Cache.stats

val open_conns : t -> int
(** Currently-open connections (listener-accepted plus adopted). *)
