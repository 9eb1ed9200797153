(** Accumulated error statistics for one (implementation, operation)
    pair, in units of the tier bound [2^-q * |reference|], with a
    log2-bucketed histogram for the JSON audit report. *)

type t

val lo_exp : int
val hi_exp : int
val nbuckets : int

val create : unit -> t

val record : t -> float -> unit
(** Record one observed error in ulp units (non-finite values are
    counted separately; +inf lands in the overflow bucket). *)

val skip : t -> unit
(** Count a case where the oracle did not apply (special inputs, or an
    ungated implementation producing a non-finite result). *)

val fail : t -> unit
(** Count a gated bound violation. *)

val mean : t -> float
val count : t -> int
val skipped : t -> int
val max_ulps : t -> float
val exceed : t -> int

val bucket_of : float -> int
(** The histogram bucket a given ulp value lands in:
    {!Obs.Metrics.bucket_of} over [[lo_exp, hi_exp]] (exposed for the
    boundary tests: bucket edges sit at exact powers of two). *)

val bucket : t -> int -> int
(** Occupancy of one histogram bucket. *)

val merge : t -> t -> t
(** Pointwise combination (counts and buckets add, max of maxima);
    commutative and associative, so shards merge in any order. *)

val to_json : impl:string -> op:string -> q:int -> gated:bool -> t -> Obs.Json_out.t
