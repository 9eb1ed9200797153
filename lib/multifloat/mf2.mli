(** Two-term floating-point expansions: ~107-bit (quadruple) precision.

    Branch-free arithmetic built from the paper's provably optimal
    2-term FPANs (Figures 2 and 5): addition costs 6 gates (20 flops) at
    depth 4, multiplication 1 TwoProd + 2 products + 3 gates (9 flops)
    at depth 3.  The kernels are emitted from the FPAN wire-program IR
    at build time (lib/fpan_ir), by the same emitter as the planar
    {!Batch.Mf2v}; the test suite checks them gate-for-gate against the
    [Fpan] network interpreter. *)

include Ops.S

val mul_no_fma : t -> t -> t
(** The same multiplication FPAN with TwoProd realized by
    Veltkamp-Dekker splitting (17 flops instead of 2): the kernel for
    hardware without a fused multiply-add, and the subject of the
    no-FMA benchmark ablation. *)
