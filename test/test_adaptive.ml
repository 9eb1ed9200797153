(* The adaptive-precision escalation engine's three contracts, pinned
   directly against the library (no server in the loop).  Soundness:
   the certified bound contains the true error (high-precision ball
   oracle).  Monotonicity: a tighter SLA never picks a cheaper tier.
   Fidelity: when a MultiFloat rung wins, the answer is bitwise what a
   direct fixed-tier request over the zero-padded operands returns. *)

module AD = Adaptive
module E = AD.Escalate

let bits = Int64.bits_of_float

let rows_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb
         && Array.for_all2 (fun u v -> Int64.equal (bits u) (bits v)) ra rb)
       a b

let tier_rank = function
  | "mf2" -> 0
  | "mf3" -> 1
  | "mf4" -> 2
  | "bigfloat" -> 3
  | t -> Alcotest.fail ("unknown tier name " ^ t)

let run_exn ~q ~op inp =
  match E.run ~q ~op inp with
  | Ok o -> o
  | Error e -> Alcotest.fail (Printf.sprintf "escalate refused (q=%d): %s" q e)

let add_inp =
  { AD.Sla.x = [| [| 1.0; 1e-17 |] |]; y = [| [| 0.5; -1e-18 |] |]; z = [||] }

(* --- the ladder ------------------------------------------------------- *)

let test_ladder_basics () =
  let op = AD.Sla.Add in
  (* a loose budget is met on the first rung *)
  let loose = run_exn ~q:10 ~op add_inp in
  Alcotest.(check string) "loose budget stays on mf2" "mf2" loose.E.chosen;
  Alcotest.(check int) "no escalations" 0 loose.E.escalations;
  let fixed = AD.Eval.eval ~terms:2 op (AD.Sla.pad ~terms:2 add_inp) in
  Alcotest.(check bool) "mf2 answer is the fixed-tier answer" true
    (rows_bits_equal loose.E.result fixed);
  let thr q = AD.Certify.threshold ~q ~scale:(AD.Certify.scale op add_inp) in
  Alcotest.(check bool) "loose bound within threshold" true
    (loose.E.bound <= thr 10);
  (* a tight budget climbs, and the rung count matches the climb *)
  let tight = run_exn ~q:200 ~op add_inp in
  Alcotest.(check bool) "tight budget escalates" true
    (tier_rank tight.E.chosen > tier_rank loose.E.chosen);
  Alcotest.(check int) "escalations = rungs climbed from mf2"
    (tier_rank tight.E.chosen) tight.E.escalations;
  Alcotest.(check bool) "tight bound within threshold" true
    (tight.E.bound <= thr 200);
  (match tight.E.chosen with
  | "mf2" | "mf3" | "mf4" ->
      let terms = tier_rank tight.E.chosen + 2 in
      let twin = AD.Eval.eval ~terms op (AD.Sla.pad ~terms add_inp) in
      Alcotest.(check bool) "escalated answer is the fixed-tier answer" true
        (rows_bits_equal tight.E.result twin)
  | _ -> ());
  (* invalid budgets are refused, not mis-served *)
  (match E.run ~q:0 ~op add_inp with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "q=0 accepted");
  match
    E.run ~q:50 ~op
      { AD.Sla.x = [| [| Float.infinity |] |]; y = [| [| 1.0 |] |]; z = [||] }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-finite operands accepted"

let test_monotone_in_q () =
  let op = AD.Sla.Dot in
  let inp =
    { AD.Sla.x = [| [| 1.0; 1e-17 |]; [| -0.75; 1e-18 |]; [| 0.125; 0.0 |] |];
      y = [| [| 2.0; 0.0 |]; [| 0.5; -1e-19 |]; [| -3.0; 1e-16 |] |];
      z = [||] }
  in
  let scale = AD.Certify.scale op inp in
  let last = ref (-1) in
  for q = AD.Sla.q_min to AD.Sla.q_max do
    let o = run_exn ~q ~op inp in
    let r = tier_rank o.E.chosen in
    if r < !last then
      Alcotest.fail
        (Printf.sprintf "q=%d chose %s, cheaper than the q=%d tier" q o.E.chosen (q - 1));
    last := r;
    if not (o.E.bound <= AD.Certify.threshold ~q ~scale) then
      Alcotest.fail (Printf.sprintf "q=%d bound above the threshold" q)
  done

let test_bigfloat_rung () =
  (* the final rung straight on: certified, labelled, 4-term rows *)
  let op = AD.Sla.Mul in
  let inp = AD.Sla.pad ~terms:2 add_inp in
  let o = E.bigfloat_outcome op inp ~escalations:3 in
  Alcotest.(check string) "labelled bigfloat" "bigfloat" o.E.chosen;
  Alcotest.(check int) "escalations pass through" 3 o.E.escalations;
  Alcotest.(check int) "4-term rows" 4 (Array.length o.E.result.(0));
  Alcotest.(check bool) "finite certified bound" true
    (Float.is_finite o.E.bound && o.E.bound >= 0.0);
  (* far tighter than any admissible threshold at this magnitude *)
  Alcotest.(check bool) "meets the tightest admissible budget" true
    (o.E.bound <= AD.Certify.threshold ~q:AD.Sla.q_max ~scale:(AD.Certify.scale op inp))

(* --- an overflowing magnitude sum keeps the scale an upper bound ------ *)

(* Finite, so the wire decoder accepts it, but its component magnitudes
   sum past max_float. *)
let big = [| Float.max_float; 0x1p970 |]
let zero2 = [| 0.0; 0.0 |]

let test_scale_overflow () =
  let row_mag r = Array.fold_left (fun a c -> a +. Float.abs c) 0.0 r in
  List.iter
    (fun (label, op, inp) ->
      let scale = AD.Certify.scale op inp in
      let o = run_exn ~q:10 ~op inp in
      Array.iter
        (fun r ->
          if not (scale >= row_mag r) then
            Alcotest.fail
              (Printf.sprintf "%s: scale %h below a result row of magnitude %h" label scale
                 (row_mag r)))
        o.E.result;
      Alcotest.(check string) (label ^ ": settles at its start rung") "mf2" o.E.chosen;
      Alcotest.(check int) (label ^ ": no escalations") 0 o.E.escalations;
      Alcotest.(check bool) (label ^ ": bound within threshold") true
        (o.E.bound <= AD.Certify.threshold ~q:10 ~scale))
    [ ("mul big x 0", AD.Sla.Mul, { AD.Sla.x = [| big |]; y = [| zero2 |]; z = [||] });
      ( "axpy;dot with alpha 0",
        AD.Sla.Axpy_dot,
        { AD.Sla.x = [| big |]; y = [| zero2; [| 1.0; 0.0 |] |]; z = [| [| 1.0; 0.0 |] |] } );
      ( "axpy with alpha 0",
        AD.Sla.Axpy,
        { AD.Sla.x = [| big |]; y = [| zero2; [| 1.0; 0.0 |] |]; z = [||] } ) ]

(* --- padding is exact ------------------------------------------------- *)

let test_padding () =
  let e = AD.Sla.pad_element ~terms:4 [| 1.0; -4.9e-324 |] in
  Alcotest.(check int) "widened to 4" 4 (Array.length e);
  Alcotest.(check int64) "component 0 intact" (bits 1.0) (bits e.(0));
  Alcotest.(check int64) "component 1 intact" (bits (-4.9e-324)) (bits e.(1));
  Alcotest.(check int64) "zero-filled" (bits 0.0) (bits e.(3));
  match AD.Sla.pad_element ~terms:2 [| 1.0; 2.0; 3.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "narrowing did not raise"

(* --- containment ------------------------------------------------------ *)

let oracle_prec = 1200

let test_containment_smoke () =
  let cases =
    [ (AD.Sla.Add, add_inp);
      (AD.Sla.Mul, add_inp);
      ( AD.Sla.Div,
        { AD.Sla.x = [| [| 1.0; 1e-17 |] |]; y = [| [| 3.0; -1e-18 |] |]; z = [||] } );
      (AD.Sla.Sqrt, { AD.Sla.x = [| [| 2.0; 1e-17 |] |]; y = [||]; z = [||] });
      ( AD.Sla.Sum,
        { AD.Sla.x = [| [| 1.0; 1e-16 |]; [| -1.0; 1e-17 |]; [| 1e-20; 0.0 |] |];
          y = [||]; z = [||] } ) ]
  in
  List.iter
    (fun (op, inp) ->
      List.iter
        (fun q ->
          let o = run_exn ~q ~op inp in
          (* the oracle upper-bounds the true error; containment means
             it never exceeds the certificate the ladder returned *)
          let true_err_up = AD.Certify.ball_bound op ~prec:oracle_prec inp o.E.result in
          if not (true_err_up <= o.E.bound) then
            Alcotest.fail
              (Printf.sprintf "%s q=%d: true error %.3e above certified %.3e"
                 (AD.Sla.op_name op) q true_err_up o.E.bound))
        [ 20; 100; 180 ])
    cases

let test_arb_ball_containment () =
  (* the Impls registry's Arb rows export balls that contain the exact
     value: |exact - mid| <= rad, measured through the Exact oracle *)
  let impl =
    match Check.Impls.find "arb106" with
    | Some i -> i
    | None -> Alcotest.fail "arb106 missing from the registry"
  in
  let ball op inputs =
    match impl.Check.Impls.ball with
    | Some surface -> (
        match surface op inputs with
        | Some b -> b
        | None -> Alcotest.fail "arb row declined a supported op")
    | None -> Alcotest.fail "arb row exports no ball surface"
  in
  let contains dist rad = dist <= (rad *. (1.0 +. 1e-9)) +. Float.ldexp 1.0 (-1070) in
  let x = [| 1.0; 1e-17 |] and y = [| 0.5; -1e-18 |] in
  let b = ball Check.Corpus.Add [| x; y |] in
  Alcotest.(check bool) "add ball contains the exact sum" true
    (contains
       (Check.Oracle.add_abs ~x ~y ~got:b.Check.Impls.b_mid)
       b.Check.Impls.b_rad);
  let b = ball Check.Corpus.Mul [| x; y |] in
  Alcotest.(check bool) "mul ball contains the exact product" true
    (contains
       (Check.Oracle.mul_abs ~x ~y ~got:b.Check.Impls.b_mid)
       b.Check.Impls.b_rad);
  let xs = [| [| 1.0; 1e-17 |]; [| -0.25; 0.0 |] |] in
  let ys = [| [| 2.0; 0.0 |]; [| 4.0; 1e-16 |] |] in
  let b = ball Check.Corpus.Dot (Array.append xs ys) in
  Alcotest.(check bool) "dot ball contains the exact dot" true
    (contains
       (Check.Oracle.dot_abs ~x:xs ~y:ys ~got:b.Check.Impls.b_mid)
       b.Check.Impls.b_rad)

(* --- an underflowing magnitude cannot certify -------------------------- *)

(* 2^-540 (1 + 2^-52): the product of two is 2^-1080 (1 + 2^-51 +
   2^-104), below the smallest subnormal, so in doubles the magnitude
   product underflows to 0 while the exact product does not. *)
let tiny = [| Float.ldexp (1.0 +. epsilon_float) (-540); 0.0 |]

let test_underflow_cannot_certify () =
  List.iter
    (fun (label, op, inp, qs) ->
      List.iter
        (fun q ->
          let o = run_exn ~q ~op inp in
          let true_err_up = AD.Certify.ball_bound op ~prec:oracle_prec inp o.E.result in
          if not (true_err_up <= o.E.bound) then
            Alcotest.fail
              (Printf.sprintf "%s q=%d: %s certified %h, true error up to %h" label q o.E.chosen
                 o.E.bound true_err_up))
        qs)
    [ ("mul", AD.Sla.Mul, { AD.Sla.x = [| tiny |]; y = [| tiny |]; z = [||] }, [ 1; 10; 100; 200 ]);
      ( "dot n=4",
        AD.Sla.Dot,
        { AD.Sla.x = Array.make 4 tiny; y = Array.make 4 tiny; z = [||] },
        [ 50 ] ) ];
  (* an exact zero is no underflow: it still settles at its start rung *)
  let o = run_exn ~q:200 ~op:AD.Sla.Mul { AD.Sla.x = [| tiny |]; y = [| zero2 |]; z = [||] } in
  Alcotest.(check string) "tiny x 0 settles at mf2" "mf2" o.E.chosen;
  Alcotest.(check (float 0.0)) "tiny x 0 certifies bound 0" 0.0 o.E.bound

(* --- a non-finite result cannot certify --------------------------------- *)

(* The tier kernels return [nan; nan] for a subnormal divisor or
   radicand even where the exact result is finite, while the static
   certificate, computed from the operands alone, reads a finite
   bound.  Such a result must take the bigfloat rung, which answers
   finitely and contains the true error. *)
let test_nonfinite_cannot_certify () =
  let e m k = [| Float.ldexp m k; 0.0 |] in
  let divisor = e 3.0 (-1040) in
  List.iter
    (fun (label, op, inp, qs) ->
      List.iter
        (fun q ->
          let o = run_exn ~q ~op inp in
          if not (Array.for_all (Array.for_all Float.is_finite) o.E.result) then
            Alcotest.failf "%s q=%d: %s certified a non-finite result with bound %h" label q
              o.E.chosen o.E.bound;
          Alcotest.(check string) (Printf.sprintf "%s q=%d: bigfloat rung" label q) "bigfloat"
            o.E.chosen;
          let true_err_up = AD.Certify.ball_bound op ~prec:oracle_prec inp o.E.result in
          if not (true_err_up <= o.E.bound) then
            Alcotest.failf "%s q=%d: certified %h, true error up to %h" label q o.E.bound
              true_err_up)
        qs)
    [ ( "div 2^-1060 / 3*2^-1040",
        AD.Sla.Div,
        { AD.Sla.x = [| e 1.0 (-1060) |]; y = [| divisor |]; z = [||] },
        [ 10; 100 ] );
      ( "div 2^-60 / 3*2^-1040",
        AD.Sla.Div,
        { AD.Sla.x = [| e 1.0 (-60) |]; y = [| divisor |]; z = [||] },
        [ 10; 100 ] );
      ("sqrt 3*2^-1040", AD.Sla.Sqrt, { AD.Sla.x = [| divisor |]; y = [||]; z = [||] }, [ 1; 10; 100 ])
    ]

(* --- the fuzz gate, shrunk -------------------------------------------- *)

let test_fuzz_gate () =
  let r = Check.Sla_fuzz.run ~cases:400 ~seed:7 () in
  Alcotest.(check int) "ran every case" 400 r.Check.Sla_fuzz.cases;
  Alcotest.(check int) "no containment violations" 0
    r.Check.Sla_fuzz.containment_violations;
  Alcotest.(check int) "no monotonicity violations" 0
    r.Check.Sla_fuzz.monotonicity_violations;
  Alcotest.(check int) "no bitwise mismatches" 0 r.Check.Sla_fuzz.bitwise_mismatches;
  Alcotest.(check int) "no generator rejections" 0 r.Check.Sla_fuzz.errors;
  Alcotest.(check bool) "gate passes" true (Check.Sla_fuzz.passed r)

let () =
  Alcotest.run "adaptive"
    [ ( "ladder",
        [ Alcotest.test_case "basics" `Quick test_ladder_basics;
          Alcotest.test_case "monotone in q" `Quick test_monotone_in_q;
          Alcotest.test_case "bigfloat rung" `Quick test_bigfloat_rung;
          Alcotest.test_case "scale overflow stays an upper bound" `Quick test_scale_overflow;
          Alcotest.test_case "padding is exact" `Quick test_padding ] );
      ( "containment",
        [ Alcotest.test_case "ladder vs ball oracle" `Quick test_containment_smoke;
          Alcotest.test_case "arb registry balls" `Quick test_arb_ball_containment;
          Alcotest.test_case "underflowing magnitude cannot certify" `Quick
            test_underflow_cannot_certify;
          Alcotest.test_case "non-finite result cannot certify" `Quick
            test_nonfinite_cannot_certify ] );
      ("fuzz", [ Alcotest.test_case "sla gate" `Quick test_fuzz_gate ]) ]
