(** Four-term floating-point expansions: ~215-bit (octuple) precision.

    Branch-free arithmetic from the reconstructed 4-term FPANs (Figures
    4 and 7 of the paper), emitted from the FPAN wire-program IR at
    build time by the same emitter as the planar {!Batch.Mf4v}, checked
    against the [Fpan] interpreter and verified to the paper's error
    bounds (2^-208 relative). *)

include Ops.S

val mul_no_fma : t -> t -> t
(** The same multiplication FPAN with TwoProd realized by
    Veltkamp-Dekker splitting (17 flops instead of 2): the kernel for
    hardware without a fused multiply-add, and the subject of the
    no-FMA benchmark ablation. *)
