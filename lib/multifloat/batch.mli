(** Planar (structure-of-arrays) MultiFloat vectors.

    An n-element 2/3/4-term vector is [terms] parallel unboxed
    [floatarray]s, one per expansion component, instead of an array of
    boxed component records.  The batched operations run the
    branch-free FPAN wire sequences of {!Mf2}/{!Mf3}/{!Mf4}
    element-wise over the planes with no per-element heap allocation;
    gate and operand order match the scalar kernels exactly, so batched
    results are {e bitwise equal} to scalar loops over element arrays.

    The implementation (batch.ml) is generated at build time from the
    FPAN wire programs by [lib/fpan_ir] ([gen/gen_batch.ml]).

    This is the OCaml stand-in for the paper's cross-element
    autovectorization (Section 5): branch-freedom makes the element
    loop a fixed dataflow, and the planar layout is what lets that
    dataflow stream through the FPU without pointer chasing — the same
    reason the paper's AVX-512/NEON lanes want their operands planar. *)

(** Planar vector operations over one MultiFloat size.  The fold and
    update operations fix the accumulation order of the scalar BLAS
    kernels (see the individual operations). *)
module type V = sig
  type elt
  (** The scalar MultiFloat element type. *)

  type t
  (** A planar vector of [elt]s. *)

  val terms : int
  val length : t -> int

  val create : int -> t
  (** Zero-filled planar vector. *)

  val copy : t -> t
  val get : t -> int -> elt
  val set : t -> int -> elt -> unit
  val of_array : elt array -> t
  val to_array : t -> elt array

  val of_floats : float array -> t
  (** Lift doubles: component 0 takes the value, the rest are zero. *)

  val to_floats : t -> float array
  (** Leading components. *)

  val add : dst:t -> t -> t -> unit
  (** Elementwise; [dst] may alias either operand.  All three vectors
      must have the same length ([Invalid_argument] otherwise, as for
      every operation below). *)

  val sub : dst:t -> t -> t -> unit
  val mul : dst:t -> t -> t -> unit

  val axpy : lo:int -> hi:int -> alpha:elt -> x:t -> y:t -> unit
  (** [y.(i) <- add (mul alpha x.(i)) y.(i)] for [lo <= i < hi]: the
      scalar AXPY update order. *)

  val madd : alpha:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> unit
  (** [y.(yoff+i) <- add y.(yoff+i) (mul alpha x.(xoff+i))]: the GEMM
      rank-1 row update, accumulator-first operand order. *)

  val dot : init:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> elt
  (** Index-order fold [acc <- add acc (mul x.(xoff+i) y.(yoff+i))]
      starting from [init]: the scalar DOT/GEMV accumulation order. *)

  val sum : init:elt -> x:t -> xoff:int -> len:int -> elt
  (** Index-order fold [acc <- add acc x.(xoff+i)] starting from
      [init]: the scalar SUM accumulation order. *)

  val axpy_dot : lo:int -> hi:int -> alpha:elt -> x:t -> y:t -> w:t -> init:elt -> elt
  (** [axpy ~lo ~hi ~alpha ~x ~y], then the {!dot} of the updated [y]
      against [w] over the same range, started from [init]: two
      passes, spelled as one call because the repository benchmark
      ([perfbench/]) calls it. *)

  val transpose : m:int -> n:int -> src:t -> dst:t -> unit
  (** [dst.(j*m+i) <- src.(i*n+j)] viewing [src] as an [m*n] row-major
      matrix: the plane-wise matrix transpose, blocked for cache (the
      panel-packing primitive that turns matrix columns into contiguous
      planar rows, e.g. for [B^T]-packed dot micro-kernels).  [dst]
      must be a distinct vector; both lengths must be [m*n]
      ([Invalid_argument] otherwise). *)
end

module Mf1v : V with type elt = float
(** Native doubles in a single plane, so 53-bit rows run through the
    same batched kernels. *)

module Mf2v : V with type elt = Mf2.t
module Mf3v : V with type elt = Mf3.t
module Mf4v : V with type elt = Mf4.t

(** What {!Of_scalar} needs from a scalar arithmetic: the
    component-array view plus the ring operations. *)
module type SCALAR = sig
  type t

  val terms : int
  val zero : t
  val of_float : float -> t
  val to_float : t -> float
  val components : t -> float array
  val of_components : float array -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
end

module Of_scalar (K : SCALAR) : V with type elt = K.t
(** Planar storage with element-at-a-time scalar arithmetic: same
    layout and accumulation orders as the generated vectors, for
    types without a specialized batch kernel (e.g. the emulated-float32
    GPU types). *)
