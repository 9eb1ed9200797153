(** Canonical scalar tier evaluator for the certifiable ops, and the
    serving layer's scalar reference path for them
    ([Serve.Batcher.eval_one]), so results are bitwise what a
    fixed-tier request returns; the served planar kernels match it by
    the Batch contract. *)

val eval : terms:int -> Sla.op -> Sla.inputs -> float array array
(** Evaluate at the tier with [terms] components.  The operands must
    already be padded to [terms]-wide elements ({!Sla.pad}). *)
