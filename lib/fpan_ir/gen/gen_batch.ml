(* Prints lib/multifloat/batch.ml; a dune rule there runs it at build
   time. *)
let () = print_string (Fpan_ir.Codegen.batch_ml ())
