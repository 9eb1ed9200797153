(* The add2/mul2 kernels are emitted from the FPAN wire-program IR at
   build time (Scalar.K2, see lib/fpan_ir/codegen.ml). *)

include Ops.Make (Scalar.K2)

let mul_no_fma = Scalar.K2.mul_no_fma
