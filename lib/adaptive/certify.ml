(* Hybrid accuracy certification: the two certificates the ladder
   (Escalate) settles with, and the magnitude scale both are measured
   against.

   - The STATIC bound costs a handful of double ops: C_op * 2^-q_tier *
     scale, where q_tier is the tier's verified accuracy exponent
     (Kernel.error_exp), scale is a deterministic magnitude proxy
     computed in doubles, and C_op a generous per-op safety constant.
     It certifies the common case without touching bignums, which is
     what keeps SLA-driven serving cheap.

   - The BALL bound re-evaluates the operation in Arb ball arithmetic
     at tier precision + 60 guard bits and measures the distance from
     the returned expansion to the ball, all under directed rounding.
     It is an enclosure of the true error whatever the tier kernels
     did.  The ladder runs it only on a static miss at the last
     MultiFloat rung (see Escalate).

   Both certificates depend only on (op, tier, operands, result) — not
   on q — so the escalation decision is monotone in the SLA by
   construction: the threshold scale * 2^-q shrinks as q grows while
   the per-tier bounds stay put. *)

module B = Bigfloat
module Arb = Baselines.Arb

let q_of_terms = function
  | 2 -> Multifloat.Mf2.error_exp
  | 3 -> Multifloat.Mf3.error_exp
  | 4 -> Multifloat.Mf4.error_exp
  | n -> invalid_arg (Printf.sprintf "Adaptive.Certify.q_of_terms: %d" n)

let prec_of_terms = function
  | 2 -> Multifloat.Mf2.precision_bits
  | 3 -> Multifloat.Mf3.precision_bits
  | 4 -> Multifloat.Mf4.precision_bits
  | n -> invalid_arg (Printf.sprintf "Adaptive.Certify.prec_of_terms: %d" n)

(* Guard bits on top of the tier precision so the ball's own rounding
   noise sits far below the error being measured. *)
let ball_guard = 60

(* --- magnitude scale ------------------------------------------------- *)

let sum_abs (e : float array) = Array.fold_left (fun a c -> a +. Float.abs c) 0.0 e
let sum_rows f rows = Array.fold_left (fun a e -> a +. f e) 0.0 rows

(* [p], a product or quotient of nonzero magnitudes, rounded up to the
   next double when it fell below the normal range: an underflow must
   never read as an exact zero, which is the one scale that certifies
   a bound of 0. *)
let no_underflow p = if p < Float.min_float then Float.succ p else p

(* Product of two magnitudes.  A magnitude sum that overflowed is
   infinity, and infinity times an exact zero is NaN, which would leave
   the scale below the result it must bound (and every comparison
   against the threshold false); the product stays infinite instead. *)
let mag_mul a b =
  let p = a *. b in
  if Float.is_nan p then Float.infinity else if a > 0.0 && b > 0.0 then no_underflow p else p

(* Lower bound on |value of e| computable in doubles: head magnitude
   minus the tail's magnitude sum, halved to absorb the rounding of
   this very computation.  Nonpositive means "not provably away from
   zero" — the caller degrades to an infinite scale (and so an
   infinite, still-sound threshold and bound). *)
let abs_lower (e : float array) =
  let hd = Float.abs e.(0) in
  let tl = ref 0.0 in
  for i = 1 to Array.length e - 1 do
    tl := !tl +. Float.abs e.(i)
  done;
  0.5 *. (hd -. !tl)

let scale op (inp : Sla.inputs) =
  match op with
  | Sla.Add -> sum_rows sum_abs inp.x +. sum_rows sum_abs inp.y
  | Sla.Mul -> mag_mul (sum_abs inp.x.(0)) (sum_abs inp.y.(0))
  | Sla.Div ->
      let num = sum_abs inp.x.(0) in
      let lo = abs_lower inp.y.(0) in
      if lo <= 0.0 then Float.infinity
      else if num > 0.0 then no_underflow (num /. lo)
      else 0.0
  | Sla.Sqrt -> Float.sqrt (sum_abs inp.x.(0))
  | Sla.Sum -> sum_rows sum_abs inp.x
  | Sla.Dot ->
      let s = ref 0.0 in
      for i = 0 to Array.length inp.x - 1 do
        s := !s +. mag_mul (sum_abs inp.x.(i)) (sum_abs inp.y.(i))
      done;
      !s
  | Sla.Axpy ->
      let a = sum_abs inp.y.(0) in
      let m = ref 0.0 in
      for i = 0 to Array.length inp.x - 1 do
        let s = mag_mul a (sum_abs inp.x.(i)) +. sum_abs inp.y.(i + 1) in
        if s > !m then m := s
      done;
      !m
  | Sla.Axpy_dot ->
      (* the result carries both the dot accumulator and the updated
         vector rows, so the scale must cover both *)
      let a = sum_abs inp.y.(0) in
      let acc = ref 0.0 and m = ref 0.0 in
      for i = 0 to Array.length inp.x - 1 do
        let s = mag_mul a (sum_abs inp.x.(i)) +. sum_abs inp.y.(i + 1) in
        if s > !m then m := s;
        acc := !acc +. mag_mul s (sum_abs inp.z.(i))
      done;
      Float.max !acc !m

let threshold ~q ~scale = Float.ldexp scale (-q)

(* --- static certificate ---------------------------------------------- *)

let static_c op ~n =
  match op with
  | Sla.Add | Sla.Mul -> 2.0
  | Sla.Div | Sla.Sqrt -> 16.0
  | Sla.Sum | Sla.Dot -> 8.0 *. n
  | Sla.Axpy -> 8.0
  | Sla.Axpy_dot -> 32.0 *. n

(* The tier's relative error bound assumes no gate underflows.  An
   addition cannot lose bits to underflow (a subnormal sum is exact),
   but a product or quotient whose error terms fall below the normal
   range carries an absolute error of up to half the smallest subnormal
   per gate, which a bound below the normal range does not cover: from
   a nonzero scale, such a bound certifies nothing. *)
let static_bound op ~n ~terms ~scale =
  let b = static_c op ~n:(float_of_int n) *. Float.ldexp scale (-q_of_terms terms) in
  match op with
  | Sla.Add | Sla.Sum -> b
  | _ -> if scale > 0.0 && b < Float.min_float then Float.infinity else b

(* --- ball certificate ------------------------------------------------ *)

(* Upper bound, in the Upward direction throughout, of the distance
   between [res] (an expansion the tier kernels returned) and the ball
   [b] enclosing the exact value: |value(res) - mid| + ulp slack for
   converting res + rad.  The final [Float.succ] absorbs the correctly
   rounded (possibly downward) Bigfloat.to_float. *)
let err_row_up ~prec (b : Arb.t) (res : float array) =
  let r = B.of_expansion ~prec res in
  let d1 = B.sub_mode B.Upward r (Arb.mid b) in
  let d2 = B.sub_mode B.Upward (Arb.mid b) r in
  let d = if B.compare d1 d2 >= 0 then d1 else d2 in
  let total = B.add_mode B.Upward (B.add_mode B.Upward d (B.ulp_bound r)) (Arb.rad b) in
  let f = B.to_float total in
  if Float.is_nan f then Float.infinity else Float.succ (Float.abs f)

let enclosures op ~prec (inp : Sla.inputs) =
  let bx i = Arb.of_expansion ~prec inp.x.(i) in
  let by i = Arb.of_expansion ~prec inp.y.(i) in
  let bz i = Arb.of_expansion ~prec inp.z.(i) in
  let n = Array.length inp.x in
  match op with
  | Sla.Add -> [| Arb.add (bx 0) (by 0) |]
  | Sla.Mul -> [| Arb.mul (bx 0) (by 0) |]
  | Sla.Div -> [| Arb.div (bx 0) (by 0) |]
  | Sla.Sqrt -> [| Arb.sqrt (bx 0) |]
  | Sla.Sum -> [| Arb.Vec.sum ~prec (Array.init n bx) |]
  | Sla.Dot -> [| Arb.Vec.dot ~prec (Array.init n bx) (Array.init n by) |]
  | Sla.Axpy ->
      Arb.Vec.axpy ~alpha:(by 0) ~x:(Array.init n bx) ~y:(Array.init n (fun i -> by (i + 1)))
  | Sla.Axpy_dot ->
      let ynew =
        Arb.Vec.axpy ~alpha:(by 0) ~x:(Array.init n bx) ~y:(Array.init n (fun i -> by (i + 1)))
      in
      Array.append [| Arb.Vec.dot ~prec ynew (Array.init n bz) |] ynew

(* multi-row results report the worst row; err_row_up never yields
   nan (it maps it to infinity) *)
let ball_bound op ~prec inp (result : float array array) =
  let m = ref 0.0 in
  Array.iteri
    (fun i b -> m := Float.max !m (err_row_up ~prec b result.(i)))
    (enclosures op ~prec inp);
  !m
