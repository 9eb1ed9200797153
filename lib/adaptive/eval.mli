(** Canonical scalar tier evaluator for the certifiable ops, and the
    serving layer's one evaluator for them ([Serve.Batcher.eval_one]),
    so results are bitwise what a fixed-tier request returns. *)

val eval : terms:int -> Sla.op -> Sla.inputs -> float array array
(** Evaluate at the tier with [terms] components.  The operands must
    already be padded to [terms]-wide elements ({!Sla.pad}). *)
