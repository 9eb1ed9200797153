(** Deadline-aware micro-batcher: the consumer side of the admission
    queue.

    A dedicated domain pops up to [max_batch] requests per cycle
    (waiting at most [window_ns] after the first to let the batch
    fill), sheds the ones whose deadline already passed, and answers
    each of the rest on its own domain, in arrival order: a fixed-tier
    request with {!eval_one}, an SLA request with {!eval_adaptive}
    ({!Adaptive.Escalate.run}: static bound, mf4's ball certificate,
    or the bigfloat fallback).  Replies go back through each request's
    reply callback, and the cycle ends with one [flush].

    A served reply is therefore the reference function's result by
    construction: the batcher makes the same call.  An exception fails
    only its own request ([Failed] with the exception's text).  The
    cycle's live count (popped minus deadline sheds) is each reply's
    [batch] field; nothing else about the cycle reaches a reply.  The
    batcher runs nothing on a {!Runtime.Sched}: {!Shard}'s processes
    are the serving layer's way to use more cores.

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
  batches : int;  (** cycles that answered at least one request *)
  completed : int;  (** requests answered with [Result] *)
  shed_deadline : int;
  errors : int;
  histogram : (int * int) list;
      (** live count -> cycles, ascending; [Σ size·count] is
          [completed + errors] *)
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
    [sched] is not used (the batcher evaluates on its own domain); the
    label stays because perfbench passes one.
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
    [serve.batch_size.<n>] (one per cycle, [n] its live count) and
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
    kernels ({!Adaptive.Eval} for the certifiable ops).  The batcher
    answers every fixed-tier request with this function.  For SLA
    requests this runs the full escalation ladder ({!eval_adaptive})
    and returns its result. *)

val eval_adaptive : Protocol.request -> (Adaptive.Escalate.outcome, string) result
(** Scalar escalation reference for an SLA request:
    {!Adaptive.Escalate.run}, with an exception turned into [Error].
    The batcher answers every SLA request with this function, so its
    replies carry this outcome's result, chosen rung and bound. *)

val pad_request : terms:int -> Protocol.request -> Protocol.request
(** The fixed-tier twin of an SLA request at one ladder rung: operands
    zero-padded (exact) to the rung's width, the sla dropped — the
    request whose direct evaluation an SLA reply settled at that rung
    matches bitwise. *)
