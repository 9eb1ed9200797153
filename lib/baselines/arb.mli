(** Ball (midpoint-radius interval) arithmetic over {!Bigfloat} — the
    architectural stand-in for FLINT/Arb, one of the libraries the
    paper benchmarks (its reference [27] is Arb's midpoint-radius
    interval arithmetic).

    A ball [m ± r] encloses every real it claims to represent: each
    operation computes the midpoint with round-to-nearest and pushes
    all rounding and propagation error into the radius using the
    directed-rounding modes, so enclosure is an invariant, not a
    heuristic.  The radius is tracked at low precision (30 bits),
    rounded upward. *)

type t = {
  mid : Bigfloat.t;
  rad : Bigfloat.t;  (** nonnegative; 30-bit, rounded upward *)
}

val of_float : prec:int -> float -> t
(** Exact ball (radius 0). *)

val of_string : prec:int -> string -> t
(** Ball enclosing the decimal (radius one ulp of the parse). *)

val of_expansion : prec:int -> float array -> t
(** Ball enclosing the exact sum of the expansion's components (the
    value an FPAN element denotes).  The radius is one ulp of the
    midpoint — an enclosure whether or not [prec] sufficed for the
    conversion to be exact — and collapses to 0 for the all-zero
    expansion. *)

val make : mid:Bigfloat.t -> rad:Bigfloat.t -> t
val mid : t -> Bigfloat.t
val rad : t -> Bigfloat.t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Diverges to an infinite radius if the divisor ball contains 0. *)

val sqrt : t -> t
val neg : t -> t

(** Vectorized ball evaluation — the enclosure twins of the
    certifiable vector ops ([sum], [dot], [axpy]).  Fold order does
    not matter for enclosure, so these certify the kernels' results
    regardless of how the FPAN staged the gates. *)
module Vec : sig
  val sum : prec:int -> t array -> t
  val dot : prec:int -> t array -> t array -> t
  val axpy : alpha:t -> x:t array -> y:t array -> t array
end

val contains_float : t -> float -> bool
val contains : t -> Bigfloat.t -> bool
val radius_le : t -> float -> bool

val to_string : ?digits:int -> t -> string
(** Rendered as [mid +/- rad]. *)
