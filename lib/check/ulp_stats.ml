(* Per-(implementation, operation) error statistics in units of the
   tier bound 2^-q * |reference| ("ulps" below).  The histogram is
   log2-bucketed: bucket 0 collects everything below 2^lo_exp
   (including exact results), the last bucket everything at or above
   2^hi_exp, and bucket i in between covers [2^(lo_exp+i-1),
   2^(lo_exp+i)).  A verified FPAN implementation should concentrate
   in the buckets at or below 1 ulp; the branching baselines spread
   right of it — the per-format shape Figure 1 of the paper argues
   about, now machine-readable. *)

let lo_exp = -12
let hi_exp = 12
let nbuckets = hi_exp - lo_exp + 2

type t = {
  mutable count : int;
  mutable skipped : int;
  mutable nonfinite : int;
  mutable exceed : int;
  mutable max_ulps : float;
  mutable sum_ulps : float;
  buckets : int array;
}

let create () =
  { count = 0; skipped = 0; nonfinite = 0; exceed = 0; max_ulps = 0.0; sum_ulps = 0.0;
    buckets = Array.make nbuckets 0 }

let bucket_of ulps = Obs.Metrics.bucket_of ~lo_exp ~hi_exp ulps

let record t ulps =
  t.count <- t.count + 1;
  if Float.is_nan ulps then t.nonfinite <- t.nonfinite + 1
  else begin
    if ulps > t.max_ulps then t.max_ulps <- ulps;
    if Float.is_finite ulps then t.sum_ulps <- t.sum_ulps +. ulps;
    t.buckets.(bucket_of ulps) <- t.buckets.(bucket_of ulps) + 1
  end

let skip t = t.skipped <- t.skipped + 1
let fail t = t.exceed <- t.exceed + 1

(* Pointwise combination of two accumulators, as if every case of [a]
   and [b] had been recorded into one: counts and buckets add, max is
   max.  Commutative and associative (addition and max both are), so
   sharded campaigns can merge in any order. *)
let merge a b =
  {
    count = a.count + b.count;
    skipped = a.skipped + b.skipped;
    nonfinite = a.nonfinite + b.nonfinite;
    exceed = a.exceed + b.exceed;
    max_ulps = Float.max a.max_ulps b.max_ulps;
    sum_ulps = a.sum_ulps +. b.sum_ulps;
    buckets = Array.init nbuckets (fun i -> a.buckets.(i) + b.buckets.(i));
  }

let bucket t i = t.buckets.(i)

let mean t = if t.count = 0 then 0.0 else t.sum_ulps /. Float.of_int t.count
let count t = t.count
let skipped t = t.skipped
let max_ulps t = t.max_ulps
let exceed t = t.exceed

module J = Obs.Json_out

let to_json ~impl ~op ~q ~gated t =
  J.Obj
    [ ("impl", J.Str impl);
      ("op", J.Str op);
      ("q", J.Num (Float.of_int q));
      ("gated", J.Bool gated);
      ("count", J.Num (Float.of_int t.count));
      ("skipped", J.Num (Float.of_int t.skipped));
      ("nonfinite", J.Num (Float.of_int t.nonfinite));
      ("exceed", J.Num (Float.of_int t.exceed));
      ("max_ulps", J.Num t.max_ulps);
      ("mean_ulps", J.Num (mean t));
      ( "histogram",
        J.Obj
          [ ("lo_exp", J.Num (Float.of_int lo_exp));
            ("hi_exp", J.Num (Float.of_int hi_exp));
            ("buckets", J.List (Array.to_list (Array.map (fun c -> J.Num (Float.of_int c)) t.buckets)))
          ] )
    ]
