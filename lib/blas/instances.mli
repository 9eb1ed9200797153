(** {!Numeric.S} instances for every arithmetic under benchmark: the
    library zoo of the paper's evaluation, all driving the same kernel
    code in {!Kernels}.

    The MultiFloat types (and native double) additionally satisfy
    {!Numeric.BATCHED}: they advertise a planar
    (structure-of-arrays) fast path backed by the generated batch
    kernels in {!Multifloat.Batch}.  Every baseline stays a plain
    {!Numeric.S} and runs the scalar kernels — same kernel code, same
    op-count convention, so the comparison still isolates the cost of
    the arithmetic itself. *)

module Double : Numeric.BATCHED with type t = float

module Mf2 : Numeric.BATCHED with type t = Multifloat.Mf2.t
module Mf3 : Numeric.BATCHED with type t = Multifloat.Mf3.t
module Mf4 : Numeric.BATCHED with type t = Multifloat.Mf4.t

module Qd_dd : Numeric.S with type t = Baselines.Qd_dd.t
module Qd_qd : Numeric.S with type t = Baselines.Qd_qd.t

module Campary2 : Numeric.S with type t = Baselines.Campary.t
module Campary3 : Numeric.S with type t = Baselines.Campary.t
module Campary4 : Numeric.S with type t = Baselines.Campary.t

(* The software-FPU baseline stands in for the whole MPFR / GMP /
   FLINT / Boost class (one implementation, labeled as the class). *)
module Fpu53 : Numeric.S with type t = Baselines.Fpu_emul.P53.t
module Fpu103 : Numeric.S with type t = Baselines.Fpu_emul.P103.t
module Fpu156 : Numeric.S with type t = Baselines.Fpu_emul.P156.t
module Fpu208 : Numeric.S with type t = Baselines.Fpu_emul.P208.t

(* Ball arithmetic (Arb): the FLINT-class baseline. *)
module Arb53 : Numeric.S with type t = Baselines.Arb.t
module Arb103 : Numeric.S with type t = Baselines.Arb.t
module Arb156 : Numeric.S with type t = Baselines.Arb.t
module Arb208 : Numeric.S with type t = Baselines.Arb.t

(* The emulated-binary32 GPU types (Figure 11): batched through the
   generic planar fallback (element-at-a-time arithmetic, planar
   layout) rather than generated plane kernels. *)
module Gpu1 : Numeric.BATCHED with type t = Gpu32.Gpu.Mf1.t
module Gpu2 : Numeric.BATCHED with type t = Gpu32.Gpu.Mf2.t
module Gpu3 : Numeric.BATCHED with type t = Gpu32.Gpu.Mf3.t
module Gpu4 : Numeric.BATCHED with type t = Gpu32.Gpu.Mf4.t
