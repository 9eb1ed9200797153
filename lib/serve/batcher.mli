(** Deadline-aware micro-batcher: the consumer side of the admission
    queue.

    A dedicated domain pops up to [max_batch] requests per cycle
    (waiting at most [window_ns] after the first to let the batch
    fill), sheds the ones whose deadline already passed, groups the
    rest by (op, tier, sla?), and evaluates each group.  A group fans
    its requests out with [parallel_for] on the shared
    {!Runtime.Sched} only when at least two of them carry a
    multi-element operand; every other group (every group of scalar
    requests, a lone vector request) is evaluated on the batcher
    domain itself, since a scalar evaluation costs less than waking a
    worker to steal it.  Results scatter back through each request's
    reply callback.

    There is one evaluator: every request is evaluated on its own by
    the scalar path ({!eval_one}), whatever group it lands in, so a
    served response is {!eval_one}'s result by construction.  The
    grouping sets each reply's [batch] field and forms the SLA
    cohorts.

    SLA requests form cohorts per (op, starting tier), served by
    {!Adaptive.Escalate}'s ladder in three steps: every element is
    planned ({!Adaptive.Escalate.plan} picks its rung from the operands
    alone), each rung's planned elements are evaluated as one group
    (under the same fan-out rule), and every element is settled
    against its own budget
    ({!Adaptive.Escalate.settle}: static bound, mf4's ball
    certificate, or the bigfloat fallback).  If evaluating or settling
    raises, the elements not yet settled are answered [Failed].

    [max_batch = 1] gives batch-size-1 serving, the baseline the load
    generator compares against.  [window_ns = 0L] (the server's
    default) does not: a cycle then takes every entry already queued,
    up to [max_batch], without waiting for more. *)

type entry = {
  req : Protocol.request;
  arrival_ns : float;  (** {!Obs.Clock.now_ns} at admission *)
  reply : Protocol.response -> unit;
      (** Called exactly once, from the batcher domain. *)
}

type stats = {
  batches : int;  (** executed micro-batches (groups) *)
  completed : int;  (** requests answered with [Result] *)
  shed_deadline : int;
  errors : int;
  histogram : (int * int) list;  (** batch size -> count, ascending *)
  sla_requests : int;  (** requests that carried an accuracy SLA *)
  sla_escalations : int;  (** total ladder rungs climbed past starting tiers *)
  sla_chosen : (string * int) list;
      (** escalation histogram: finally-chosen tier -> count, in ladder
          order mf2, mf3, mf4, bigfloat *)
}

type t

val create :
  sched:Runtime.Sched.t ->
  queue:entry Admission.t ->
  max_batch:int ->
  window_ns:int64 ->
  ?flush:(unit -> unit) ->
  unit ->
  t
(** Spawn the batcher domain.  It exits once [queue] is closed and
    fully drained — every already-admitted entry gets a reply.
    [flush] (default a no-op) runs at the end of every cycle, after
    the cycle's replies; the server uses it to coalesce buffered
    per-connection reply bytes into one write each. *)

val join : t -> unit
(** Wait for the batcher domain to exit (close the queue first). *)

(** {1 Counts}

    Every count lives once, in the registry {!create} makes — one per
    server, which {!Server} registers its io-domain counters in too.
    The batcher keeps [serve.completed], [serve.errors],
    [serve.shed_deadline], [serve.sla_requests] and
    [serve.sla_escalations]; the counter families
    [serve.batch_size.<n>] (one per micro-batch) and
    [serve.sla.chosen.<tier>]; and the arrival-to-reply histograms
    [serve.latency_ns] and [serve.sla.latency_ns.<tier>].  Counters
    move before the replies they count are sent. *)

val metrics : t -> Obs.Metrics.registry

val count_shed : t -> Protocol.request -> unit
(** Count one shed of the request in its bucket, [serve.shed.<bucket>]:
    one bucket for fixed-tier work, four for SLA q ranges.  Every shed
    counts once — the server's queue-full, closed and displaced sheds
    as well as the batcher's own deadline sheds. *)

val shed_buckets : string array
(** The five shed buckets in fixed order: [fixed], [q1-50], [q51-100],
    [q101-150], [q151-200]. *)

val shed_by_bucket : Obs.Metrics.snapshot -> (string * int) list
(** All five {!shed_buckets} with their counts, in that order. *)

val stats_of : Obs.Metrics.snapshot -> stats
(** The batcher's counts in a snapshot of {!metrics}. *)

val stats : t -> stats
(** [stats_of] a fresh snapshot: exact after {!join}, racy but
    consistent per counter before. *)

(** {1 Reference execution} *)

val eval_one : Protocol.request -> (float array array, string) result
(** The scalar path: evaluate one request with the scalar MultiFloat
    kernels ({!Adaptive.Eval} for the certifiable ops), no batching, no
    scheduler.  The batcher evaluates every fixed-tier request through
    the same function.  For SLA requests this runs the full escalation
    ladder ({!eval_adaptive}) and returns its result. *)

val eval_adaptive : Protocol.request -> (Adaptive.Escalate.outcome, string) result
(** Scalar escalation reference for an SLA request:
    {!Adaptive.Escalate.run}.  The served cohort path plans and settles
    through the same two calls, around the same scalar evaluations, so
    its responses match this outcome exactly. *)

val pad_request : terms:int -> Protocol.request -> Protocol.request
(** The fixed-tier twin of an SLA request at one ladder rung: operands
    zero-padded (exact) to the rung's width, the sla dropped — the
    request whose direct evaluation the SLA path matches bitwise. *)
