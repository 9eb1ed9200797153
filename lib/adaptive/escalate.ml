(* The escalation engine: the one place the ladder mf2 -> mf3 -> mf4 ->
   bigfloat is decided, in two steps around one evaluation.

   - [plan] runs the SLA admission check and picks the rung to evaluate
     at from the operands alone: the cheapest one whose static
     certificate meets the threshold, else the last MultiFloat rung.
     Jumping straight there, instead of evaluating (and discarding) the
     rungs below, is what keeps the ladder's cost near that of its
     cheapest admissible tier.
   - [settle] takes the result evaluated at the planned rung and returns
     the static bound if it met, else mf4's ball certificate if that
     meets, else the bigfloat fallback.  A result with a non-finite
     component takes the fallback at once.  Below mf4 a ball is never worth
     its bignum cost: its measured distance is dominated by the rung's
     own rounding error (~2^-q_tier * scale), so whenever the static
     certificate misses by more than its small constant factor the ball
     would miss too, and escalating one rung costs far less than finding
     that out.  At mf4 the alternative is the 400-bit bigfloat rung,
     which dwarfs a ball, so there the gamble pays.

   [run] is plan, the scalar evaluator at the planned rung, then settle.
   The serving layer batches the evaluations of a whole cohort between
   the same two calls, so both paths make the same decisions by
   construction.

   The result at a MultiFloat rung is exactly what the tier evaluator
   produced for the zero-padded operands, so it is bitwise identical to
   a direct fixed-tier request.  The bigfloat fallback is the only rung
   with different numerics: one evaluation at 400 bits, rounded back to
   a 4-term expansion (Eq. 6), with its own ball certificate. *)

module B = Bigfloat

type outcome = {
  result : float array array;
  bound : float;
  chosen : string;  (* "mf2" | "mf3" | "mf4" | "bigfloat" *)
  escalations : int;  (* rungs climbed past the starting tier *)
}

(* 400 bits leaves ~185 guard bits over the 4-term expansion's 215, so
   the fallback's certificate is dominated by the final Eq. 6 rounding
   and meets any q <= q_max for a finite scale. *)
let big_prec = 400

let bigfloat_eval op (inp : Sla.inputs) : float array array =
  let bf e = B.of_expansion ~prec:big_prec e in
  let out v = [| B.to_expansion ~n:Sla.max_terms v |] in
  let x i = bf inp.x.(i) in
  let y i = bf inp.y.(i) in
  match op with
  | Sla.Add -> out (B.add (x 0) (y 0))
  | Sla.Mul -> out (B.mul (x 0) (y 0))
  | Sla.Div -> out (B.div (x 0) (y 0))
  | Sla.Sqrt -> out (B.sqrt (x 0))
  | Sla.Sum ->
      let acc = ref (B.make_zero ~prec:big_prec) in
      for i = 0 to Array.length inp.x - 1 do
        acc := B.add !acc (x i)
      done;
      out !acc
  | Sla.Dot ->
      let acc = ref (B.make_zero ~prec:big_prec) in
      for i = 0 to Array.length inp.x - 1 do
        acc := B.add !acc (B.mul (x i) (y i))
      done;
      out !acc
  | Sla.Axpy ->
      let alpha = y 0 in
      Array.init (Array.length inp.x) (fun i ->
          B.to_expansion ~n:Sla.max_terms (B.add (B.mul alpha (x i)) (y (i + 1))))
  | Sla.Axpy_dot ->
      let n = Array.length inp.x in
      let alpha = y 0 in
      let z i = bf inp.z.(i) in
      let ynew = Array.init n (fun i -> B.add (B.mul alpha (x i)) (y (i + 1))) in
      let acc = ref (B.make_zero ~prec:big_prec) in
      for i = 0 to n - 1 do
        acc := B.add !acc (B.mul ynew.(i) (z i))
      done;
      Array.append
        [| B.to_expansion ~n:Sla.max_terms !acc |]
        (Array.map (B.to_expansion ~n:Sla.max_terms) ynew)

let bigfloat_outcome op (inp : Sla.inputs) ~escalations =
  let result = bigfloat_eval op inp in
  let bound = Certify.ball_bound op ~prec:(big_prec + Certify.ball_guard) inp result in
  { result; bound; chosen = "bigfloat"; escalations }

type plan = {
  op : Sla.op;
  inputs : Sla.inputs;
  start : int;  (* the ladder's first rung, in terms *)
  terms : int;  (* the rung to evaluate at *)
  static_bound : float;  (* the static certificate at [terms] *)
  threshold : float;
}

let plan ~q ~op (inputs : Sla.inputs) =
  match Sla.check ~q inputs with
  | Error msg -> Error msg
  | Ok start ->
      let scale = Certify.scale op inputs in
      let n = max 1 (Array.length inputs.x) in
      let threshold = Certify.threshold ~q ~scale in
      let rec pick terms =
        let static_bound = Certify.static_bound op ~n ~terms ~scale in
        if terms = Sla.max_terms || static_bound <= threshold then
          Ok { op; inputs; start; terms; static_bound; threshold }
        else pick (terms + 1)
      in
      pick start

(* A non-finite component certifies nothing, whatever the bound says:
   the tier kernels return NaN for some inputs whose exact result is
   finite (a subnormal divisor or radicand), and the static bound,
   computed from the operands alone, cannot see that. *)
let finite_rows rows = Array.for_all (Array.for_all Float.is_finite) rows

let settle p result =
  let bound =
    if p.static_bound <= p.threshold then p.static_bound
    else
      (* planned at the last MultiFloat rung without a static
         certificate: its ball may still pass before the fallback *)
      Float.min p.static_bound
        (Certify.ball_bound p.op ~prec:(Certify.prec_of_terms p.terms + Certify.ball_guard)
           p.inputs result)
  in
  if finite_rows result && bound <= p.threshold then
    { result; bound; chosen = Sla.tier_name_of_terms p.terms; escalations = p.terms - p.start }
  else bigfloat_outcome p.op p.inputs ~escalations:(p.terms - p.start + 1)

let run ~q ~op inputs =
  match plan ~q ~op inputs with
  | Error msg -> Error msg
  | Ok p -> Ok (settle p (Eval.eval ~terms:p.terms op (Sla.pad ~terms:p.terms inputs)))
