(** Hybrid accuracy certification: the magnitude {!scale} an SLA
    budget is measured against, a cheap {!static_bound} in doubles, and
    a {!ball_bound} in ball arithmetic.  The ladder ({!Escalate}) is
    the one place that decides which certificate runs where.

    Both certificates depend only on (op, tier, operands, result) — not
    on the SLA exponent [q] — so escalation is monotone in [q] by
    construction: the threshold [scale * 2^-q] shrinks as [q] grows
    while the per-tier bounds stay put. *)

val q_of_terms : int -> int
(** The tier's verified accuracy exponent ({!Multifloat.Kernel.KERNEL.error_exp}). *)

val prec_of_terms : int -> int

val ball_guard : int
(** Guard bits added on top of the tier precision for ball evaluation. *)

val scale : Sla.op -> Sla.inputs -> float
(** Deterministic magnitude proxy for the operation, computed in
    doubles from component-magnitude sums.  Always an upper bound on
    the relevant result magnitudes, never NaN; may be [infinity] when
    the operands overflow a double sum (even one multiplied by an exact
    zero) or a divisor is not provably nonzero (the threshold then
    degrades to infinity — sound, just uninformative).  A product or
    quotient of nonzero magnitudes that underflows rounds up to the
    next double, so the scale is [0] only when the result is exactly
    zero. *)

val threshold : q:int -> scale:float -> float
(** The SLA's absolute-error budget: [scale * 2^-q]. *)

val static_bound : Sla.op -> n:int -> terms:int -> scale:float -> float
(** [C_op * 2^-q_tier * scale]: a certified error bound for the tier's
    kernels that costs only a few double ops.  [n] is the row count of
    operand [x] (at least 1), [scale] the request's {!scale}, computed
    once and shared by every rung the ladder probes.  For every op but
    add and sum, a bound below the normal range ([2^-1022]) from a
    nonzero scale is [infinity]: the kernels' products may underflow
    there, and the tier's relative error theorem no longer holds. *)

val enclosures : Sla.op -> prec:int -> Sla.inputs -> Baselines.Arb.t array
(** The op evaluated in Arb ball arithmetic at [prec] bits: one ball
    per result row, each enclosing that row's exact value. *)

val ball_bound : Sla.op -> prec:int -> Sla.inputs -> float array array -> float
(** Enclosure of the absolute error of [result]: re-evaluates the op in
    Arb ball arithmetic at [prec] bits and measures the distance from
    the returned expansion(s) to the ball under directed rounding.
    Multi-row results (axpy, axpy;dot) report the worst row.  Never
    NaN; infinite when nothing finite can be certified. *)
