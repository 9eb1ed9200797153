(* Fuzz campaign for the adaptive-precision escalation engine
   (lib/adaptive): random certifiable ops, operand widths, and SLA
   exponents, three obligations per case —

   - containment: a high-precision ball enclosure of the true absolute
     error must sit within the certified bound the engine returned
     (the oracle's own enclosure error sits ~2^-1150 below the values
     it measures, far under any nonzero bound, so a flagged case is a
     real certification bug, not oracle noise; a bound of 0 must be an
     exact result instead);
   - monotonicity: raising q (shrinking the budget) must never choose
     a *cheaper* tier — both certificates are q-independent, so the
     chosen rung is non-decreasing in q by construction, and this
     pins it;
   - bitwise identity: an outcome settled at a MultiFloat rung must
     equal the direct fixed-tier evaluation of the zero-padded
     operands bit for bit.

   Deterministic in (seed, cases): CI failures replay locally. *)

module Sla = Adaptive.Sla

type report = {
  cases : int;
  containment_violations : int;
  monotonicity_violations : int;
  bitwise_mismatches : int;
  errors : int;
}

let passed r =
  r.containment_violations = 0 && r.monotonicity_violations = 0
  && r.bitwise_mismatches = 0 && r.errors = 0

(* Far above the bigfloat fallback's certification precision (460
   bits), so the oracle's own enclosure error is negligible against
   every bound the engine can return. *)
let oracle_prec = 1200

let bits_eq_rows a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ea eb ->
         Array.length ea = Array.length eb
         && Array.for_all2
              (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
              ea eb)
       a b

let all_ops =
  [ Sla.Add; Sla.Mul; Sla.Div; Sla.Sqrt; Sla.Sum; Sla.Dot; Sla.Axpy; Sla.Axpy_dot ]

(* Leading exponents are drawn in -20..20, except in one case in
   eight, which draws them in -560..-480: there a product of two
   operands ranges from normal through tiny-but-normal to past the
   smallest subnormal, and one element in eight (never a divisor) is
   an exact zero.  Independently, one divisor or radicand in eight
   leads with an exponent in -1070..-1023, the subnormal range, where
   the tier kernels return NaN (never zero: a divisor must not be). *)
let gen_case rng ~width i =
  let op = List.nth all_ops (i mod List.length all_ops) in
  let tiny = Random.State.int rng 8 = 0 in
  let element ?(pos = false) ?(divisor = false) ?(subnormal = false) () =
    if tiny && (not divisor) && Random.State.int rng 8 = 0 then Array.make width 0.0
    else
      let e0_min, e0_max =
        if subnormal then (-1070, -1023) else if tiny then (-560, -480) else (-20, 20)
      in
      let rec draw () =
        let v = Fpan.Gen.expansion rng ~n:width ~e0_min ~e0_max () in
        if v.(0) = 0.0 then draw () else v
      in
      let v = draw () in
      if pos && v.(0) < 0.0 then Array.map Float.neg v else v
  in
  let subnormal () = Random.State.int rng 8 = 0 in
  let vec n = Array.init n (fun _ -> element ()) in
  let n = 2 + Random.State.int rng 5 in
  let x, y, z =
    match op with
    | Sla.Add | Sla.Mul -> ([| element () |], [| element () |], [||])
    | Sla.Div ->
        ([| element () |], [| element ~divisor:true ~subnormal:(subnormal ()) () |], [||])
    | Sla.Sqrt -> ([| element ~pos:true ~subnormal:(subnormal ()) () |], [||], [||])
    | Sla.Sum -> (vec n, [||], [||])
    | Sla.Dot -> (vec n, vec n, [||])
    | Sla.Axpy -> (vec n, vec (n + 1), [||])  (* y.(0) is alpha *)
    | Sla.Axpy_dot -> (vec n, vec (n + 1), vec n)
  in
  (op, { Sla.x; y; z })

(* A bound of 0 claims an exact result, which the ball oracle cannot
   confirm: its Float.succ floor reads 2^-1074 even for an exact row.
   The claim holds when every row's enclosure is a point equal to the
   row. *)
let exact op inp result =
  Array.for_all2
    (fun b row ->
      Bigfloat.is_zero (Baselines.Arb.rad b)
      && Bigfloat.compare (Baselines.Arb.mid b) (Bigfloat.of_expansion ~prec:oracle_prec row) = 0)
    (Adaptive.Certify.enclosures op ~prec:oracle_prec inp)
    result

let run ?(cases = 2000) ?(seed = 42) () =
  let rng = Random.State.make [| 0x51a; seed |] in
  let cont = ref 0 and mono = ref 0 and bits = ref 0 and errs = ref 0 in
  for i = 0 to cases - 1 do
    let width = 1 + Random.State.int rng Sla.max_terms in
    let op, inp = gen_case rng ~width i in
    let q1 = Sla.q_min + Random.State.int rng (Sla.q_max - Sla.q_min + 1) in
    let q2 = Stdlib.min Sla.q_max (q1 + 1 + Random.State.int rng 60) in
    match Adaptive.Escalate.run ~q:q1 ~op inp with
    | Error _ -> incr errs
    | Ok o1 -> (
        let true_err_up =
          Adaptive.Certify.ball_bound op ~prec:oracle_prec inp
            o1.Adaptive.Escalate.result
        in
        let bound = o1.Adaptive.Escalate.bound in
        if
          not
            (true_err_up <= bound
            || (bound = 0.0 && exact op inp o1.Adaptive.Escalate.result))
        then incr cont;
        (match Sla.terms_of_rung o1.Adaptive.Escalate.chosen with
        | Some terms ->
            let direct = Adaptive.Eval.eval ~terms op (Sla.pad ~terms inp) in
            if not (bits_eq_rows direct o1.Adaptive.Escalate.result) then incr bits
        | None -> ());
        match Adaptive.Escalate.run ~q:q2 ~op inp with
        | Error _ -> incr errs
        | Ok o2 ->
            if
              Sla.rung_rank o2.Adaptive.Escalate.chosen
              < Sla.rung_rank o1.Adaptive.Escalate.chosen
            then incr mono)
  done;
  { cases; containment_violations = !cont; monotonicity_violations = !mono;
    bitwise_mismatches = !bits; errors = !errs }
