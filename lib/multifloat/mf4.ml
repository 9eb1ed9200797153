(* The add4/mul4 kernels are emitted from the FPAN wire-program IR at
   build time (Scalar.K4, see lib/fpan_ir/codegen.ml). *)

include Ops.Make (Scalar.K4)

let mul_no_fma = Scalar.K4.mul_no_fma
