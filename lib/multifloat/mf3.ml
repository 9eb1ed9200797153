(* The add3/mul3 kernels are emitted from the FPAN wire-program IR at
   build time (Scalar.K3, see lib/fpan_ir/codegen.ml). *)

include Ops.Make (Scalar.K3)

let mul_no_fma = Scalar.K3.mul_no_fma
