(** The escalation engine, and the only place the ladder mf2 → mf3 →
    mf4 → bigfloat is decided.  {!run} picks the cheapest rung whose
    static certificate ({!Certify.static_bound}, computable from the
    operands alone) meets the SLA threshold, evaluates only there, and
    certifies the result, falling through mf4's ball certificate to the
    bigfloat fallback when no rung certifies statically.  The serving
    layer answers each SLA request with {!run} itself. *)

type outcome = {
  result : float array array;
      (** At a tier rung: exactly the tier evaluator's output for the
          zero-padded operands — bitwise identical to a direct
          fixed-tier request.  At the bigfloat rung: each value rounded
          to a 4-term expansion (Eq. 6). *)
  bound : float;  (** Certified absolute error enclosure of [result]. *)
  chosen : string;  (** ["mf2"] | ["mf3"] | ["mf4"] | ["bigfloat"]. *)
  escalations : int;  (** Rungs climbed past the starting tier. *)
}

val big_prec : int
(** Working precision of the bigfloat fallback (400 bits). *)

val bigfloat_eval : Sla.op -> Sla.inputs -> float array array

val bigfloat_outcome : Sla.op -> Sla.inputs -> escalations:int -> outcome
(** The final rung packaged as an outcome: ball-certified at
    [big_prec] + guard bits, [chosen = "bigfloat"]. *)

val run : q:int -> op:Sla.op -> Sla.inputs -> (outcome, string) result
(** Run the ladder for an SLA of [2^-q]: the admission check
    ({!Sla.check}: out-of-range [q], non-finite or non-uniform operands
    are refused with the wire protocol's message), the rung pick from
    the operands alone, {!Eval.eval} at that rung on the operands
    zero-padded to its width, and the certificate: the static bound
    when it meets the threshold, else mf4's ball certificate when that
    meets, else the bigfloat fallback.  A result with any non-finite
    component never certifies at a MultiFloat rung: it takes the
    bigfloat fallback. *)
