(** Vocabulary of the adaptive-precision subsystem: the certifiable
    ops, their operands, the ladder's rungs, and the SLA admission
    check.

    An SLA is an absolute-error budget in units of [2^-q]: the server
    must return a result whose certified absolute error is at most
    [Certify.scale * 2^-q].  Only the certifiable core operations
    qualify; the transcendentals and poly-eval carry no per-op error
    theorem and cannot be requested under an SLA. *)

type op =
  | Add
  | Mul
  | Div
  | Sqrt
  | Sum
  | Dot
  | Axpy
  | Axpy_dot
      (** The [["axpy"; "dot"]] program: [axpy], then the dot of the
          updated vector against z.  The other two programs are
          spellings of [Sum] and [Dot]. *)

type inputs = {
  x : float array array;
  y : float array array;
  z : float array array;
}

val q_min : int
val q_max : int
(** Accepted SLA range: [1..200].  200 keeps the bigfloat fallback
    (whose 4-term output carries ~2^-210 relative error) able to meet
    every admissible budget. *)

val op_name : op -> string

val of_wire : op:string -> prog:string list -> op option
(** Map a wire op name (+ program chain) to an SLA op; [None] for the
    uncertifiable ops.  The ["program"] chains [["sum"]] and
    [["mul"; "sum"]] map to [Sum] and [Dot]. *)

val supported_wire_ops : string list

val min_terms : int
val max_terms : int

val start_terms : width:int -> int
(** First rung of the escalation ladder: the cheapest tier that holds
    the operands without truncation. *)

val check : q:int -> inputs -> (int, string) result
(** The SLA admission check: [q] within [q_min..q_max], every operand
    component finite, and one element width of at most [max_terms]
    components across all operands.  [Ok] carries the ladder's
    starting terms ({!start_terms}); [Error] the wire protocol's
    message for the first failed condition. *)

val rungs : string list
(** The ladder's rung names, cheapest first: ["mf2"], ["mf3"],
    ["mf4"], ["bigfloat"]. *)

val rung_rank : string -> int
(** Position of a rung in {!rungs}; an unknown name ranks last. *)

val terms_of_rung : string -> int option
(** Component count of a MultiFloat rung; [None] for ["bigfloat"] (or
    an unknown name). *)

val tier_name_of_terms : int -> string
(** The rung name of a MultiFloat tier: [2] is ["mf2"], and so on. *)

val pad_element : terms:int -> float array -> float array
(** Exact widening by zero components; raises on an attempt to narrow. *)

val pad : terms:int -> inputs -> inputs
(** Returns the inputs unchanged (no copy) when every element already
    has [terms] components. *)
