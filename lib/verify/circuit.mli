(** Constraint-circuit lowering of IR wire programs.

    [of_ir] compiles an {!Fpan_ir.Ir.t} — and hence, via
    [Fpan_ir.Front], any [Fpan.Network] or kernel chain — into a
    flat straight-line list of rounded primitive operations over a
    register file, plus one exactness {e constraint} per EFT gate
    (TwoSum/FastTwoSum: [s + e = a + b]; TwoProd: [p + e = a * b]).
    Evaluated with a reduced-width rounding ({!Gpu32.Minifloat}), the
    circuit is the network as a width-w machine executes it; the
    constraints are the paper's per-op obligations, checkable exactly
    in double while the operand space's bit footprint stays below 53
    bits (enforced by {!Space}). *)

type prim =
  | Padd of int * int
  | Psub of int * int
  | Pmul of int * int
  | Pfma of int * int * int
      (** rounded fused multiply-add; exact inner product needs
          [2 * width <= 53] *)
  | Pneg of int  (** exact — round-to-nearest-even is odd-symmetric *)
  | Pconst of float

type node = { dst : int; prim : prim }

type eft_kind = Ts | Fts | Tp

type eft = { gate : int; kind : eft_kind; a : int; b : int; s : int; e : int }
(** One exactness obligation: operand and result registers of an EFT
    gate; [gate] is the index in the source IR. *)

type t = {
  ir : Fpan_ir.Ir.t;
  nodes : node array;
  efts : eft array;
  input_regs : int array;
  output_regs : int array;
  num_regs : int;
}

val of_ir : Fpan_ir.Ir.t -> t

val make_regs : t -> float array
(** Scratch register file for {!eval} (reuse across tuples). *)

val eval : t -> round:(float -> float) -> regs:float array -> float array -> unit
(** Bind inputs, execute every node in order with each primitive
    rounded through [round]. *)

val outputs : t -> regs:float array -> float array
(** Read the output registers after {!eval}. *)

type verdict = Holds | Violated | Skipped

val check_eft : regs:float array -> representable:(float -> bool) -> eft -> verdict
(** Check one constraint against the evaluated registers.  [Skipped]
    covers the carve-outs the paper itself makes: a non-finite
    intermediate (overflow, full formats only) or a TwoProd whose true
    error is not representable at the width (Section 4.4 underflow
    saturation, decided by [representable]). *)

val n_efts : t -> int
val eft_kind : t -> int -> eft_kind
val ir_gate : t -> int -> int
val kind_name : eft_kind -> string
val size : t -> int
val pp : Format.formatter -> t -> unit
