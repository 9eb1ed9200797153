(* Golden accuracy tests for Multifloat.Elementary: exp/log/sin on a
   stored worst-case input set, checked against a Bigfloat reference
   evaluated at twice the working precision.

   The existing test_elementary.ml checks identities (log(exp x) = x,
   addition formulas), which a correlated error can slip through; this
   file pins each function's value against an independent oracle.  The
   reference evaluator lives here, in test code, built only from
   Bigfloat's correctly-rounded ring operations: Machin's formula for
   pi, the atanh series for ln 2, argument-reduced Taylor series for
   exp and sin, and Newton inversion of exp for log.  At reference
   precision 2p+40 its own error is ~2^-(2p), invisible next to the
   2^-(p-12) gate. *)

module B = Bigfloat

(* atan(1/q) by Taylor, [iters] chosen by the caller from the per-term
   bit gain 2*log2 q. *)
let atan_inv ~prec q ~iters =
  let one = B.of_int ~prec 1 in
  let qb = B.of_int ~prec q in
  let inv_q2 = B.div one (B.mul qb qb) in
  let acc = ref (B.div one qb) in
  let pow = ref (B.div one qb) in
  for j = 1 to iters do
    pow := B.mul !pow inv_q2;
    let term = B.div !pow (B.of_int ~prec ((2 * j) + 1)) in
    acc := if j land 1 = 1 then B.sub !acc term else B.add !acc term
  done;
  !acc

let atanh_inv ~prec q ~iters =
  let one = B.of_int ~prec 1 in
  let qb = B.of_int ~prec q in
  let inv_q2 = B.div one (B.mul qb qb) in
  let acc = ref (B.div one qb) in
  let pow = ref (B.div one qb) in
  for j = 1 to iters do
    pow := B.mul !pow inv_q2;
    acc := B.add !acc (B.div !pow (B.of_int ~prec ((2 * j) + 1)))
  done;
  !acc

let pi_ref ~prec =
  let a = atan_inv ~prec 5 ~iters:((prec / 4) + 8) in
  let b = atan_inv ~prec 239 ~iters:((prec / 15) + 8) in
  B.sub (B.mul (B.of_int ~prec 16) a) (B.mul (B.of_int ~prec 4) b)

let ln2_ref ~prec = B.mul (B.of_int ~prec 2) (atanh_inv ~prec 3 ~iters:((prec / 3) + 8))

(* exp: reduce by ln 2 to |r| <= ln2/2, shift out [s] more bits so the
   Taylor series gains [s] bits per term, square back up. *)
let exp_ref ~prec x =
  let one = B.of_int ~prec 1 in
  let l2 = ln2_ref ~prec in
  let k = int_of_float (Float.round (B.to_float x /. 0.6931471805599453)) in
  let r = B.sub x (B.mul (B.of_int ~prec k) l2) in
  let s = 16 in
  let r' = B.mul r (B.of_float ~prec (Float.ldexp 1.0 (-s))) in
  let acc = ref one and term = ref one in
  for n = 1 to (prec / s) + 8 do
    term := B.div (B.mul !term r') (B.of_int ~prec n);
    acc := B.add !acc !term
  done;
  let e = ref !acc in
  for _ = 1 to s do
    e := B.mul !e !e
  done;
  (* scale by 2^k: k is bounded by the double exponent range here *)
  B.mul !e (B.of_float ~prec (Float.ldexp 1.0 k))

(* log by Newton inversion of exp: y <- y + (x exp(-y) - 1), doubling
   the 53 correct bits of the libm seed each round. *)
let log_ref ~prec x =
  let one = B.of_int ~prec 1 in
  let y = ref (B.of_float ~prec (Float.log (B.to_float x))) in
  for _ = 1 to 5 do
    let e = exp_ref ~prec (B.neg !y) in
    y := B.add !y (B.sub (B.mul x e) one)
  done;
  !y

(* sin: reduce by pi/2 with quadrant dispatch, Taylor on |r| <= pi/4. *)
let sin_ref ~prec x =
  let pi = pi_ref ~prec in
  let half_pi = B.div pi (B.of_int ~prec 2) in
  let k = int_of_float (Float.round (B.to_float x /. 1.5707963267948966)) in
  let r = B.sub x (B.mul (B.of_int ~prec k) half_pi) in
  let r2 = B.mul r r in
  let series first_term first_n =
    (* sum of t, t * -r^2/((n+1)(n+2)), ... *)
    let acc = ref first_term and term = ref first_term and n = ref first_n in
    for _ = 1 to (prec / 3) + 32 do
      term := B.neg (B.div (B.mul !term r2) (B.of_int ~prec ((!n + 1) * (!n + 2))));
      acc := B.add !acc !term;
      n := !n + 2
    done;
    !acc
  in
  let sin_r () = series r 1 in
  let cos_r () = series (B.of_int ~prec 1) 0 in
  match ((k mod 4) + 4) mod 4 with
  | 0 -> sin_r ()
  | 1 -> cos_r ()
  | 2 -> B.neg (sin_r ())
  | _ -> B.neg (cos_r ())

(* --- the golden input sets ------------------------------------------ *)

(* Stored worst cases: reduction boundaries (near ln2/2 and pi
   multiples), cancellation-prone arguments (log near 1, exp of tiny),
   range extremes, and plain interior points. *)
let exp_inputs =
  [ 0x1.62e42fefa39efp-2;  (* ln2/2 rounded: reduction tie *)
    0x1.62e42fefa39efp+5;  (* 64 * ln2-ish: large k, cancelling r *)
    (* +-700 is out: e^700 ~ 2^1010 puts expansion tails under the
       subnormal floor, the documented Section 4.4 exponent-range
       limitation (see test_edge_semantics); 200 keeps the reduction
       count large while every tail term stays normal. *)
    1.0; -1.0; 0x1p-30; -0x1p-30; 0.5; 2.5; -0x1.5p+3; 100.0; -100.0; 200.0; -200.0;
    0x1.921fb54442d18p+1   (* pi *) ]

let log_inputs =
  [ 0x1.00001p+0;          (* 1 + 2^-20: cancellation against the seed *)
    0x1.ffffep-1;          (* 1 - 2^-20 *)
    0x1.5bf0a8b145769p+1;  (* e rounded *)
    2.0; 10.0; 0.001; 0x1p+100; 0x1p-100; 3.5; 0x1.8p-9 ]

let sin_inputs =
  [ 0x1.921fb54442d18p+1;  (* double nearest pi: tiny result, reduction stress *)
    0x1.921fb54442d18p+0;  (* nearest pi/2: cos-quadrant tie *)
    3.0; 0.5; -0.5; -7.0; 22.0;  (* near 7 pi *)
    1.0; 100.0; -0x1.921fb54442d18p+1 ]

module Check (M : Multifloat.Ops.S) (F : sig
  val exp : M.t -> M.t
  val log : M.t -> M.t
  val sin : M.t -> M.t
end) =
struct
  let prec = (2 * M.precision_bits) + 40
  let gate_bits = M.precision_bits - 12

  (* Error in units of the reference — except that functions with an
     O(1)-scale computation and a possibly tiny result (log near 1)
     are judged on absolute error there: the cancelled bits are
     inherent to the function, not lost by the implementation (QD's
     log has the same contract). *)
  let err ~floor_at_one got ref_v =
    let got_b = B.of_expansion ~prec (M.components got) in
    let d = B.abs (B.sub got_b ref_v) in
    let denom = B.abs ref_v in
    if B.is_zero denom || (floor_at_one && B.compare denom (B.of_int ~prec 1) < 0) then
      B.to_float d
    else B.to_float (B.div d denom)

  let check_fn ?(floor_at_one = false) name fn ref_fn inputs =
    List.iter
      (fun x ->
        let got = fn (M.of_float x) in
        let ref_v = ref_fn ~prec (B.of_float ~prec x) in
        let e = err ~floor_at_one got ref_v in
        if e > Float.ldexp 1.0 (-gate_bits) then
          Alcotest.failf "%s(%h): relative error 2^%.1f above gate 2^-%d" name x (Float.log2 e)
            gate_bits)
      inputs

  let run () =
    check_fn "exp" F.exp exp_ref exp_inputs;
    check_fn ~floor_at_one:true "log" F.log log_ref log_inputs;
    (* sin near a pi multiple has the same shape: the result is tiny
       but the reduction works at O(1) scale against a p-bit pi, so
       absolute accuracy at the gate is the achievable contract. *)
    check_fn ~floor_at_one:true "sin" F.sin sin_ref sin_inputs
end

module C2 = Check (Multifloat.Mf2) (Multifloat.Elementary.F2)
module C3 = Check (Multifloat.Mf3) (Multifloat.Elementary.F3)
module C4 = Check (Multifloat.Mf4) (Multifloat.Elementary.F4)

(* The reference itself is cross-checked at double precision against
   libm before it is trusted to judge anything. *)
let test_reference_sanity () =
  let prec = 300 in
  let close a b = Float.abs (a -. b) <= 1e-13 *. Float.abs b in
  List.iter
    (fun x ->
      assert (close (B.to_float (exp_ref ~prec (B.of_float ~prec x))) (Float.exp x));
      assert (close (B.to_float (sin_ref ~prec (B.of_float ~prec x))) (Float.sin x));
      if x > 0.0 then
        assert (close (B.to_float (log_ref ~prec (B.of_float ~prec x))) (Float.log x)))
    [ 0.5; 1.7; -3.2; 10.0; 0.001; 22.0 ]

let () =
  Alcotest.run "elementary-golden"
    [ ( "vs-bigfloat-oracle",
        [ Alcotest.test_case "reference sanity" `Quick test_reference_sanity;
          Alcotest.test_case "mf2" `Quick (fun () -> C2.run ());
          Alcotest.test_case "mf3" `Quick (fun () -> C3.run ());
          Alcotest.test_case "mf4" `Quick (fun () -> C4.run ()) ] ) ]
