(** The minimal operations a MultiFloat size provides as branch-free
    code emitted from the FPAN wire-program IR (the generated [Scalar]
    modules behind {!Mf2}/{!Mf3}/{!Mf4}); {!Ops.Make} derives the rest
    of the public API (float operands, division, square root,
    comparisons, decimal I/O) from these. *)

module type KERNEL = sig
  type t
  (** A nonoverlapping floating-point expansion with [terms] components,
      leading (largest-magnitude) component first. *)

  val terms : int
  (** Number of expansion components (2, 3, or 4). *)

  val precision_bits : int
  (** Effective precision in bits: [terms * p + terms - 1] with p = 53,
      per Eq. 7 of the paper. *)

  val error_exp : int
  (** Verified accuracy exponent [q] of {!add} and {!mul}: the result is
      within [2^-q] relative error of the exact sum/product. *)

  val zero : t
  val of_float : float -> t

  val to_float : t -> float
  (** Leading component: the correctly-rounded double approximation for
      any normalized (nonoverlapping) value. *)

  val components : t -> float array
  (** All components, leading first. *)

  val of_components : float array -> t
  (** Inverse of {!components}; the array must be a nonoverlapping
      expansion of exactly [terms] components (checked by assertion). *)

  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val neg : t -> t

  val scale_pow2 : t -> int -> t
  (** Exact multiplication by [2^k] (termwise [ldexp]; exact as long as
      no component over- or underflows). *)
end
