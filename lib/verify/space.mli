(** Exhaustive operand spaces: the cartesian product of per-slot lists
    of every valid width-w expansion inside an exponent budget.  See
    space.ml and DESIGN.md s12 for the symmetry quotients (anchoring,
    sign) that keep the product finite without losing generality. *)

type t = {
  name : string;
  width : int;
  slots : float array array array;  (** slot -> choice -> components *)
  total : int;  (** product of slot lengths *)
}

type shape =
  | Anchored  (** leading component positive with exponent pinned to 0 *)
  | Windowed of int
      (** leading component of either sign with exponent in
          [-window, window] relative to the anchor *)

val expansions : width:int -> terms:int -> gap:int -> shape -> float array array
(** Every valid width-w expansion of [terms] components under the
    shape: the all-zero operand, then each choice of leading component,
    extended by tails [0 .. gap-1] binades below the predecessor's
    half-ulp nonoverlap limit (zero tails truncate the operand).
    Deterministic order. *)

val make : name:string -> width:int -> float array array array -> t

val operands : t -> int -> float array array
(** Decode tuple index -> per-slot operand (aliases into the slot
    tables; treat as read-only). *)

val fill_inputs : t -> int -> float array -> unit
(** Concatenate the tuple's components into a caller buffer of length
    {!num_inputs} (component-major slot order, the layout of
    [Front.add_kernel]/[mul_kernel] and the kernel chains).
    Allocation-free. *)

val num_inputs : t -> int

val exponent_range : t -> int * int
(** [(max_exp, min_grid)] over every nonzero component the space can
    produce — the raw material of the sweep's footprint bound. *)

val valid_operands : width:int -> float array array -> bool
(** Membership test for tuples outside the enumeration (shrunk
    counterexamples): each slot width-representable, nonoverlapping in
    sequence, and zero-truncated. *)
