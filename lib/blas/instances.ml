(** {!Numeric.S} instances for every arithmetic under benchmark: the
    library zoo of the paper's evaluation, all driving the same kernel
    code in {!Kernels}. *)

module Double : Numeric.BATCHED with type t = float = struct
  type t = float

  let name = "double"
  let bits = 53
  let zero = 0.0
  let of_float x = x
  let to_float x = x
  let add = ( +. )
  let mul = ( *. )

  module V = Multifloat.Batch.Mf1v
end

module Mf2 : Numeric.BATCHED with type t = Multifloat.Mf2.t = struct
  include Multifloat.Mf2

  let name = "MultiFloats (ours)"
  let bits = 103

  module V = Multifloat.Batch.Mf2v
end

module Mf3 : Numeric.BATCHED with type t = Multifloat.Mf3.t = struct
  include Multifloat.Mf3

  let name = "MultiFloats (ours)"
  let bits = 156

  module V = Multifloat.Batch.Mf3v
end

module Mf4 : Numeric.BATCHED with type t = Multifloat.Mf4.t = struct
  include Multifloat.Mf4

  let name = "MultiFloats (ours)"
  let bits = 208

  module V = Multifloat.Batch.Mf4v
end

module Qd_dd : Numeric.S with type t = Baselines.Qd_dd.t = struct
  include Baselines.Qd_dd

  let name = "QD (dd_real)"
  let bits = 103
end

module Qd_qd : Numeric.S with type t = Baselines.Qd_qd.t = struct
  include Baselines.Qd_qd

  let name = "QD (qd_real)"
  let bits = 208
end

module Campary_n (K : sig
  val n : int
  val bits : int
end) : Numeric.S with type t = Baselines.Campary.t = struct
  type t = Baselines.Campary.t

  let name = "CAMPARY (certified)"
  let bits = K.bits
  let zero = Baselines.Campary.zero ~n:K.n
  let of_float = Baselines.Campary.of_float ~n:K.n
  let to_float = Baselines.Campary.to_float
  let add = Baselines.Campary.add
  let mul = Baselines.Campary.mul
end

module Campary2 = Campary_n (struct
  let n = 2
  let bits = 103
end)

module Campary3 = Campary_n (struct
  let n = 3
  let bits = 156
end)

module Campary4 = Campary_n (struct
  let n = 4
  let bits = 208
end)

module Fpu_n (P : Baselines.Fpu_emul.S) (Tag : sig
  val name : string
end) : Numeric.S with type t = P.t = struct
  type t = P.t

  let name = Tag.name
  let bits = P.prec
  let zero = P.zero
  let of_float = P.of_float
  let to_float = P.to_float
  let add = P.add
  let mul = P.mul
end

(* The software-FPU baseline stands in for the whole MPFR / GMP /
   FLINT / Boost class (one implementation, labeled as the class). *)
module Fpu53 = Fpu_n (Baselines.Fpu_emul.P53) (struct
  let name = "SoftFPU (MPFR-class)"
end)

module Fpu103 = Fpu_n (Baselines.Fpu_emul.P103) (struct
  let name = "SoftFPU (MPFR-class)"
end)

module Fpu156 = Fpu_n (Baselines.Fpu_emul.P156) (struct
  let name = "SoftFPU (MPFR-class)"
end)

module Fpu208 = Fpu_n (Baselines.Fpu_emul.P208) (struct
  let name = "SoftFPU (MPFR-class)"
end)

(* Ball arithmetic (Arb): the FLINT-class baseline. *)
module Arb_n (P : sig
  val prec : int
end) : Numeric.S with type t = Baselines.Arb.t = struct
  type t = Baselines.Arb.t

  let name = "Ball/Arb (FLINT-class)"
  let bits = P.prec
  let zero = Baselines.Arb.of_float ~prec:P.prec 0.0
  let of_float = Baselines.Arb.of_float ~prec:P.prec
  let to_float b = Bigfloat.to_float (Baselines.Arb.mid b)
  let add = Baselines.Arb.add
  let mul = Baselines.Arb.mul
end

module Arb53 = Arb_n (struct
  let prec = 53
end)

module Arb103 = Arb_n (struct
  let prec = 103
end)

module Arb156 = Arb_n (struct
  let prec = 156
end)

module Arb208 = Arb_n (struct
  let prec = 208
end)

module Gpu_n (G : sig
  type t

  val terms : int
  val precision_bits : int
  val zero : t
  val of_float : float -> t
  val to_float : t -> float
  val components : t -> float array
  val of_components : float array -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
end) : Numeric.BATCHED with type t = G.t = struct
  type t = G.t

  let name = Printf.sprintf "MultiFloat<float32,%d>" G.terms
  let bits = G.precision_bits
  let zero = G.zero
  let of_float = G.of_float
  let to_float = G.to_float
  let add = G.add
  let mul = G.mul

  (* Planar layout with element-at-a-time emulated-binary32 arithmetic:
     no generated plane kernels for the GPU base type (yet), but the
     same batched code path and accumulation orders. *)
  module V = Multifloat.Batch.Of_scalar (G)
end

module Gpu1 = Gpu_n (Gpu32.Gpu.Mf1)
module Gpu2 = Gpu_n (Gpu32.Gpu.Mf2)
module Gpu3 = Gpu_n (Gpu32.Gpu.Mf3)
module Gpu4 = Gpu_n (Gpu32.Gpu.Mf4)
