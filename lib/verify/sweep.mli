(** Exhaustive small-width sweeps: enumerate an operand {!Space} over a
    {!Circuit} on the work-stealing runtime and check every paper
    obligation exactly.

    Two layers (DESIGN.md s12):

    - {!gate_level} proves the EFT building blocks (TwoSum,
      FastTwoSum, TwoProd) over {e every ordered pair} of a full
      reduced format — overflow, subnormals, signed zeros included;
    - {!run} proves whole networks and kernel chains over every valid
      width-w expansion tuple of a shaped operand space, under the
      precision-only rounding and its scale/sign symmetry quotients.

    Results are bitwise identical for any worker count: the reduction
    tree is fixed by (total, grain) and every combine is
    order-independent. *)

type obligation =
  | Eft_two_sum
  | Eft_fast_two_sum
  | Eft_two_prod
  | Nonoverlap  (** output expansion ordered and nonoverlapping at the width *)
  | Error_bound  (** |reference - sum outputs| <= 2^-q_w |reference| *)
  | Equivalence  (** circuit bitwise equal to the scalar network path *)

val obligations : obligation array
val obligation_index : obligation -> int
val obligation_name : obligation -> string

type kind = Add_network | Mul_network | Chain of string

val kind_name : kind -> string

type spec = {
  name : string;
  kind : kind;
  net : Fpan.Network.t option;
  prog : Fpan_ir.Ir.t;
  terms : int;
  width : int;
  window : int;
  gap : int;
  n_slots : int;
  anchored_slot : int;
}

val add_shaped_ir : Fpan.Network.t -> int -> Fpan_ir.Ir.t
(** [Front.add_kernel] generalized to any add-shaped network
    (component-major x @ y inputs, interleaved wire binding) — how the
    seeded mutants get a circuit. *)

val mul_shaped_ir : Fpan.Network.t -> int -> Fpan_ir.Ir.t

val add_network : ?width:int -> ?window:int -> ?gap:int -> Fpan.Network.t -> terms:int -> spec
val mul_network : ?width:int -> ?window:int -> ?gap:int -> Fpan.Network.t -> terms:int -> spec

val chain : ?width:int -> ?window:int -> ?gap:int -> string -> terms:int -> spec
(** A kernel-chain spec by {!Fpan_ir.Fuse.chain} name.  Chains carry the
    EFT, nonoverlap and equivalence obligations (no scalar error
    bound). *)

val scaled_error_exp : width:int -> int -> int
(** Rebase a precision-53 [error_exp] to width [w]:
    [e - round(e / 53) * (53 - w)] (add2's 105 = 2*53 - 1 becomes
    2w - 1, mul2's 103 becomes 2w - 3, ...). *)

type counts = { checked : int array; violations : int array; skipped : int array }
(** Indexed by {!obligation_index}; [checked] includes violations,
    [skipped] counts the carve-outs (non-finite intermediates,
    unrepresentable TwoProd errors, inapplicable obligations). *)

type failure = {
  index : int;  (** tuple index in the space's row-major order *)
  obligation : obligation;
  operands : float array array;
  outputs : float array;
  shrunk : float array array;  (** {!Check.Shrink} under the width's rounding *)
  shrunk_terms : int;
}

type result = {
  spec : spec;
  tuples : int;
  circuit_ops : int;
  constraints : int;
  footprint : int;  (** asserted <= 52: the exactness argument *)
  error_bound_exp : int option;  (** q_w, networks only *)
  counts : counts;
  worst_err_log2 : float;
  failures : failure list;
}

val passed : result -> bool

val run : ?grain:int -> ?max_cex:int -> workers:int -> spec -> result
(** Sweep every tuple; record the [max_cex] smallest-index violations
    and shrink them (after the sweep) to locally minimal
    counterexamples that stay representable at the width.
    @raise Invalid_argument if the space's bit footprint exceeds 52. *)

type gate_counts = { g_checked : int; g_violations : int; g_skipped : int }

type gate_result = {
  fmt : Gpu32.Minifloat.fmt;
  values : int;
  pairs : int;
  two_sum : gate_counts;
  fast_two_sum : gate_counts;
  two_prod : gate_counts;
}

val gate_passed : gate_result -> bool

val gate_level : ?grain:int -> workers:int -> Gpu32.Minifloat.fmt -> gate_result
(** Check the three EFTs over every ordered pair of the format's
    finite values, with the paper's carve-outs skipped and counted:
    overflowed intermediates, FastTwoSum pairs violating the exponent
    precondition, TwoProd errors below the representable range. *)

val result_json : result -> Obs.Json_out.t
val gate_json : gate_result -> Obs.Json_out.t

val certificate : ?gate:gate_result -> result list -> Obs.Json_out.t
(** The fpan-verify/1 certificate object.  Deliberately excludes
    worker count and timings so certificates are byte-identical across
    worker counts. *)
