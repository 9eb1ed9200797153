(* Prints lib/multifloat/scalar.ml; a dune rule there runs it at build
   time. *)
let () = print_string (Fpan_ir.Codegen.scalar_ml ())
