(** Generic [MultiFloat<T, N>]: N-term expansion arithmetic over any
    {!Base.BASE}, mirroring the portability story of Section 5 of the
    paper ("datatypes like MultiFloat<float, 4> can be used to provide
    extended-precision arithmetic on machines that lack double-precision
    hardware").

    Unlike the IR-emitted {!Mf2}/{!Mf3}/{!Mf4} kernels, this
    implementation represents expansions as arrays, supports any
    [N >= 1], and uses the straightforward [n^2]-product expansion step
    without the magnitude cutoff, trading speed for generality.  It is
    the implementation used for the emulated-binary32 (GPU substitute)
    experiments and as a cross-check of the specialized kernels. *)

module Make (_ : Base.BASE) (_ : sig
  val terms : int
end) : sig
  type t

  val terms : int
  val precision_bits : int
  val zero : t
  val one : t
  val of_float : float -> t
  val to_float : t -> float
  val components : t -> float array
  val of_components : float array -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val sqrt : t -> t
  val neg : t -> t
  val abs : t -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool
end
