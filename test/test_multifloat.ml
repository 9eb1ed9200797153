(* Tests for the MultiFloat kernels (Mf2/Mf3/Mf4) and derived ops.

   The kernels, emitted from the FPAN wire-program IR at build time,
   must agree BIT-FOR-BIT with the Fpan network interpreter on the same
   networks, and meet the paper's error bounds against the exact
   oracle. *)

let rng = Random.State.make [| 0x3f; 0x5eed |]

(* Module-level handles so each size can be tested through one functor. *)
module type MF = Multifloat.Ops.S

module Test_size
    (M : MF)
    (Net : sig
      val add_net : Fpan.Network.t
      val mul_net : Fpan.Network.t
    end) =
struct
  let n = M.terms

  let random_mf ?(e0_min = -60) ?(e0_max = 60) () =
    M.of_components (Fpan.Gen.expansion rng ~n ~e0_min ~e0_max ())

  let random_pair () =
    let x, y = Fpan.Gen.pair rng ~n ~e0_min:(-60) ~e0_max:60 () in
    (M.of_components x, M.of_components y)

  let exact_of m = Exact.sum_floats (M.components m)

  (* Relative error of [got] against exact value [ref_], in bits;
     neg_infinity when exact. *)
  let rel_error_log2 got ref_ =
    let diff = Exact.sum (exact_of got) (Exact.neg ref_) in
    let d = Float.abs (Exact.approx (Exact.compress diff)) in
    let r = Float.abs (Exact.approx (Exact.compress ref_)) in
    if d = 0.0 then Float.neg_infinity
    else if r = 0.0 then Float.infinity
    else Float.log2 d -. Float.log2 r

  let check_bits name bound got ref_ =
    let e = rel_error_log2 got ref_ in
    if e > Float.of_int (-bound) then
      Alcotest.failf "%s: relative error 2^%.2f exceeds 2^-%d" name e bound

  let test_add_matches_network () =
    for _ = 1 to 2000 do
      let a, b = random_pair () in
      let inputs = Fpan.Gen.interleave (M.components a) (M.components b) in
      let expected = Fpan.Interp.run Net.add_net inputs in
      let got = M.components (M.add a b) in
      if got <> expected then
        Alcotest.failf "add mismatch vs interpreter: got %s, expected %s"
          (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") got)))
          (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") expected)))
    done

  let test_mul_matches_network () =
    for _ = 1 to 2000 do
      let a, b = random_pair () in
      let inputs = Fpan.Networks.mul_expand n (M.components a) (M.components b) in
      let expected = Fpan.Interp.run Net.mul_net inputs in
      let got = M.components (M.mul a b) in
      if got <> expected then Alcotest.fail "mul mismatch vs interpreter"
    done

  let test_add_accuracy () =
    for _ = 1 to 2000 do
      let a, b = random_pair () in
      let ref_ = Exact.sum (exact_of a) (exact_of b) in
      check_bits "add" Net.add_net.Fpan.Network.error_exp (M.add a b) ref_;
      let out = M.components (M.add a b) in
      if not (Eft.is_nonoverlapping_seq out) then Alcotest.fail "add output overlaps"
    done

  let test_mul_accuracy () =
    for _ = 1 to 2000 do
      let a, b = random_pair () in
      let ref_ = Exact.mul (exact_of a) (exact_of b) in
      check_bits "mul" Net.mul_net.Fpan.Network.error_exp (M.mul a b) ref_;
      let out = M.components (M.mul a b) in
      if not (Eft.is_nonoverlapping_seq out) then Alcotest.fail "mul output overlaps"
    done

  let test_scalar_ops () =
    for _ = 1 to 2000 do
      let a = random_mf () in
      let f = Float.ldexp (Random.State.float rng 2.0 -. 1.0) (Random.State.int rng 40 - 20) in
      let fm = M.of_float f in
      check_bits "add_float" (M.error_exp - 1) (M.add_float a f) (Exact.sum (exact_of a) (Exact.of_float f));
      check_bits "sub_float" (M.error_exp - 1) (M.sub_float a f)
        (Exact.sum (exact_of a) (Exact.of_float (-.f)));
      check_bits "mul_float" (M.error_exp - 1) (M.mul_float a f) (Exact.mul (exact_of a) (exact_of fm))
    done

  let test_sub_is_add_neg () =
    for _ = 1 to 500 do
      let a, b = random_pair () in
      let d1 = M.components (M.sub a b) in
      let d2 = M.components (M.add a (M.neg b)) in
      if d1 <> d2 then Alcotest.fail "sub <> add . neg"
    done

  let test_commutativity () =
    (* Section 4.2: the commutativity layer makes add and mul exactly
       symmetric in their arguments. *)
    for _ = 1 to 2000 do
      let a, b = random_pair () in
      if M.components (M.add a b) <> M.components (M.add b a) then Alcotest.fail "add not commutative";
      if M.components (M.mul a b) <> M.components (M.mul b a) then Alcotest.fail "mul not commutative"
    done

  let test_identities () =
    for _ = 1 to 500 do
      let a = random_mf () in
      if not (M.equal (M.add a M.zero) a) then Alcotest.fail "a + 0 <> a";
      if not (M.equal (M.mul a M.one) a) then Alcotest.fail "a * 1 <> a";
      if not (M.is_zero (M.sub a a)) then Alcotest.fail "a - a <> 0";
      if not (M.equal (M.neg (M.neg a)) a) then Alcotest.fail "-(-a) <> a"
    done

  let test_div () =
    for _ = 1 to 500 do
      let a, b = random_pair () in
      if not (M.is_zero b) then begin
        let q = M.div a b in
        (* b * q should reproduce a to nearly full precision. *)
        check_bits "div roundtrip" (M.error_exp - 5) (M.mul b q) (exact_of a)
      end
    done;
    (* Exact cases. *)
    let three = M.of_int 3 in
    let six = M.of_int 6 in
    if not (M.equal (M.div six three) (M.of_int 2)) then Alcotest.fail "6/3 <> 2";
    if not (Float.is_nan (M.to_float (M.div M.one M.zero)) || M.to_float (M.div M.one M.zero) = Float.infinity)
    then Alcotest.fail "1/0 not inf/nan"

  let test_inv () =
    for _ = 1 to 300 do
      let a = random_mf () in
      if not (M.is_zero a) then check_bits "inv" (M.error_exp - 5) (M.mul a (M.inv a)) (Exact.of_float 1.0)
    done

  let test_sqrt () =
    for _ = 1 to 500 do
      let a = random_mf () in
      let a = M.abs a in
      if not (M.is_zero a) then begin
        let s = M.sqrt a in
        check_bits "sqrt" (M.error_exp - 5) (M.mul s s) (exact_of a)
      end
    done;
    if not (M.equal (M.sqrt (M.of_int 4)) (M.of_int 2)) then Alcotest.fail "sqrt 4 <> 2";
    if not (M.is_zero (M.sqrt M.zero)) then Alcotest.fail "sqrt 0 <> 0";
    if not (M.is_nan (M.sqrt (M.of_int (-1)))) then Alcotest.fail "sqrt -1 not nan"

  let test_compare () =
    for _ = 1 to 500 do
      let a, b = random_pair () in
      let c = M.compare a b in
      let exact_c = Exact.sign (Exact.sum (exact_of a) (Exact.neg (exact_of b))) in
      if c <> exact_c then Alcotest.failf "compare %d <> exact %d" c exact_c;
      if not (M.equal (M.min a b) (if c <= 0 then a else b)) then Alcotest.fail "min";
      if not (M.equal (M.max a b) (if c <= 0 then b else a)) then Alcotest.fail "max"
    done

  let test_of_int () =
    List.iter
      (fun i ->
        let m = M.of_int i in
        if not (Exact.is_exactly (exact_of m) (Float.of_int i)) && Stdlib.abs i < 1 lsl 53 then
          Alcotest.failf "of_int %d inexact" i;
        (* For large ints, check via string of the exact expansion sum. *)
        if Stdlib.abs i >= 1 lsl 53 then begin
          let back = Exact.approx (exact_of m) in
          if Float.abs (back -. Float.of_int i) > 2.0 then Alcotest.failf "of_int %d too far" i
        end)
      [ 0; 1; -1; 42; 1 lsl 52; (1 lsl 60) + 12345; -((1 lsl 61) + 987654321); max_int ]

  let test_pow_int () =
    let two = M.of_int 2 in
    if not (M.equal (M.pow_int two 10) (M.of_int 1024)) then Alcotest.fail "2^10";
    if not (M.equal (M.pow_int two 0) M.one) then Alcotest.fail "x^0";
    check_bits "2^-3" (M.error_exp - 5) (M.pow_int two (-3)) (Exact.of_float 0.125)

  let test_string_roundtrip () =
    for _ = 1 to 200 do
      let a = random_mf ~e0_min:(-30) ~e0_max:30 () in
      let s = M.to_string a in
      let b = M.of_string s in
      let e = rel_error_log2 b (exact_of a) in
      (* Decimal round-trip at full digits: allow a few ulps. *)
      let budget = Float.of_int (-(M.precision_bits - 8)) in
      if e > budget then Alcotest.failf "roundtrip %s: error 2^%.2f > 2^%.2f" s e budget
    done;
    Alcotest.(check string) "nan" "nan" (M.to_string (M.of_float Float.nan));
    Alcotest.(check string) "zero" "0.0" (M.to_string M.zero);
    Alcotest.(check string) "1.5 digits=2" "1.5" (M.to_string ~digits:2 (M.of_string "1.5"));
    Alcotest.(check string) "sci" "1.0e+10" (M.to_string ~digits:2 (M.of_string "1e10"))

  let test_of_string_forms () =
    let cases =
      [ ("1", 1.0); ("-2.5", -2.5); ("+0.125", 0.125); ("1e3", 1000.0); ("2.5E-1", 0.25);
        ("  7  ", 7.0); ("1_000", 1000.0) ]
    in
    List.iter
      (fun (s, v) ->
        if not (Exact.is_exactly (exact_of (M.of_string s)) v) then Alcotest.failf "of_string %S" s)
      cases;
    List.iter
      (fun s -> match M.of_string s with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "of_string %S should fail" s)
      [ ""; "abc"; "1.2.3"; "1e"; "--5" ]

  let test_infix () =
    let open M.Infix in
    let a = M.of_int 10 and b = M.of_int 3 in
    if not (a + b = M.of_int 13) then Alcotest.fail "+";
    if not (a - b = M.of_int 7) then Alcotest.fail "-";
    if not (a * b = M.of_int 30) then Alcotest.fail "*";
    if not (b < a) then Alcotest.fail "<";
    if not (~-a = M.of_int (-10)) then Alcotest.fail "~-"

  let test_rem () =
    let r = M.rem (M.of_string "7.5") (M.of_int 2) in
    if not (M.equal r (M.of_string "1.5")) then Alcotest.failf "7.5 rem 2 = %s" (M.to_string r);
    let r = M.rem (M.of_string "-7.5") (M.of_int 2) in
    if not (M.equal r (M.of_string "-1.5")) then Alcotest.fail "-7.5 rem 2";
    for _ = 1 to 300 do
      let a = random_mf ~e0_min:(-10) ~e0_max:20 () in
      let b = random_mf ~e0_min:(-5) ~e0_max:5 () in
      if not (M.is_zero b) then begin
        let r = M.rem a b in
        (* |r| < |b| and a - r is a multiple of b (to precision) *)
        if M.compare (M.abs r) (M.abs b) >= 0 then Alcotest.fail "rem magnitude";
        let k = M.div (M.sub a r) b in
        let d = Float.abs (M.to_float (M.sub k (M.round k))) in
        if d > 1e-25 then Alcotest.failf "quotient not integral: %h" d
      end
    done

  let test_hex_roundtrip () =
    for _ = 1 to 500 do
      let a = random_mf () in
      let b = M.of_hex (M.to_hex a) in
      if M.components b <> M.components a then Alcotest.fail "hex roundtrip not exact"
    done;
    (match M.of_hex "garbage" with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "of_hex should reject garbage");
    match M.of_hex "0x1p0" with
    | exception Invalid_argument _ -> if M.terms = 1 then Alcotest.fail "1 comp valid for n=1"
    | _ -> if M.terms <> 1 then Alcotest.fail "wrong component count accepted"

  let test_scale_pow2 () =
    for _ = 1 to 200 do
      let a = random_mf () in
      let k = Random.State.int rng 40 - 20 in
      let s = M.scale_pow2 a k in
      let expected = Exact.scale (exact_of a) (Float.ldexp 1.0 k) in
      if Exact.sign (Exact.sum (exact_of s) (Exact.neg expected)) <> 0 then
        Alcotest.fail "scale_pow2 not exact"
    done

  let suite name =
    ( name,
      [ Alcotest.test_case "add = network" `Quick test_add_matches_network;
        Alcotest.test_case "mul = network" `Quick test_mul_matches_network;
        Alcotest.test_case "add accuracy + nonoverlap" `Quick test_add_accuracy;
        Alcotest.test_case "mul accuracy + nonoverlap" `Quick test_mul_accuracy;
        Alcotest.test_case "scalar ops accuracy" `Quick test_scalar_ops;
        Alcotest.test_case "sub = add . neg" `Quick test_sub_is_add_neg;
        Alcotest.test_case "commutativity" `Quick test_commutativity;
        Alcotest.test_case "algebraic identities" `Quick test_identities;
        Alcotest.test_case "div" `Quick test_div;
        Alcotest.test_case "inv" `Quick test_inv;
        Alcotest.test_case "sqrt" `Quick test_sqrt;
        Alcotest.test_case "compare/min/max" `Quick test_compare;
        Alcotest.test_case "of_int" `Quick test_of_int;
        Alcotest.test_case "pow_int" `Quick test_pow_int;
        Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
        Alcotest.test_case "of_string forms" `Quick test_of_string_forms;
        Alcotest.test_case "infix" `Quick test_infix;
        Alcotest.test_case "scale_pow2 exact" `Quick test_scale_pow2;
        Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
        Alcotest.test_case "rem" `Quick test_rem ] )
end

module T2 =
  Test_size
    (Multifloat.Mf2)
    (struct
      let add_net = Fpan.Networks.add2
      let mul_net = Fpan.Networks.mul2
    end)

module T3 =
  Test_size
    (Multifloat.Mf3)
    (struct
      let add_net = Fpan.Networks.add3
      let mul_net = Fpan.Networks.mul3
    end)

module T4 =
  Test_size
    (Multifloat.Mf4)
    (struct
      let add_net = Fpan.Networks.add4
      let mul_net = Fpan.Networks.mul4
    end)

(* Generic functor cross-checks. *)
module G2 =
  Multifloat.Generic.Make
    (Multifloat.Base.Double)
    (struct
      let terms = 2
    end)

module G4 =
  Multifloat.Generic.Make
    (Multifloat.Base.Double)
    (struct
      let terms = 4
    end)

module G6 =
  Multifloat.Generic.Make
    (Multifloat.Base.Double)
    (struct
      let terms = 6
    end)

let generic_rel_check name bound got_comps ref_ =
  let diff = Exact.sum (Exact.sum_floats got_comps) (Exact.neg ref_) in
  let d = Float.abs (Exact.approx (Exact.compress diff)) in
  let r = Float.abs (Exact.approx (Exact.compress ref_)) in
  if d <> 0.0 && r <> 0.0 && Float.log2 d -. Float.log2 r > Float.of_int (-bound) then
    Alcotest.failf "%s: error too large (2^%.2f)" name (Float.log2 d -. Float.log2 r)

let test_generic_matches_exact () =
  for _ = 1 to 1000 do
    let x, y = Fpan.Gen.pair rng ~n:4 ~e0_min:(-60) ~e0_max:60 () in
    let a = G4.of_components x and b = G4.of_components y in
    generic_rel_check "generic add" 200 (G4.components (G4.add a b))
      (Exact.sum (Exact.sum_floats x) (Exact.sum_floats y));
    generic_rel_check "generic mul" 200 (G4.components (G4.mul a b))
      (Exact.mul (Exact.sum_floats x) (Exact.sum_floats y))
  done

let test_generic_n6 () =
  (* 6-term expansions: ~322-bit arithmetic beyond the paper's sizes. *)
  let two = G6.of_float 2.0 in
  let s = G6.sqrt two in
  let err = G6.components (G6.sub (G6.mul s s) two) in
  let mag = Float.abs (Exact.approx (Exact.sum_floats err)) in
  if mag > Float.ldexp 1.0 (-260) then Alcotest.failf "n=6 sqrt too inaccurate: %h" mag

let test_generic_div () =
  for _ = 1 to 200 do
    let x, y = Fpan.Gen.pair rng ~n:2 ~e0_min:(-40) ~e0_max:40 () in
    let a = G2.of_components x and b = G2.of_components y in
    if G2.to_float b <> 0.0 then
      generic_rel_check "generic div" 95 (G2.components (G2.mul b (G2.div a b))) (Exact.sum_floats x)
  done

let test_mul_no_fma () =
  (* Same network, TwoProd via Dekker splitting: bit-identical results
     within the exactness domain of the splitting. *)
  for _ = 1 to 3000 do
    let x, y = Fpan.Gen.pair rng ~n:4 ~e0_min:(-60) ~e0_max:60 () in
    let a2 = Multifloat.Mf2.of_components (Array.sub x 0 2) in
    let b2 = Multifloat.Mf2.of_components (Array.sub y 0 2) in
    if
      Multifloat.Mf2.components (Multifloat.Mf2.mul a2 b2)
      <> Multifloat.Mf2.components (Multifloat.Mf2.mul_no_fma a2 b2)
    then Alcotest.fail "mf2 mul_no_fma differs";
    let a3 = Multifloat.Mf3.of_components (Array.sub x 0 3) in
    let b3 = Multifloat.Mf3.of_components (Array.sub y 0 3) in
    if
      Multifloat.Mf3.components (Multifloat.Mf3.mul a3 b3)
      <> Multifloat.Mf3.components (Multifloat.Mf3.mul_no_fma a3 b3)
    then Alcotest.fail "mf3 mul_no_fma differs";
    let a4 = Multifloat.Mf4.of_components x in
    let b4 = Multifloat.Mf4.of_components y in
    if
      Multifloat.Mf4.components (Multifloat.Mf4.mul a4 b4)
      <> Multifloat.Mf4.components (Multifloat.Mf4.mul_no_fma a4 b4)
    then Alcotest.fail "mf4 mul_no_fma differs"
  done

let test_complex_conjugate_exact () =
  (* Section 4.2: commutative multiplication makes conjugate products
     exactly real. *)
  let module C = Multifloat.Mf_complex.C4 in
  let module M = Multifloat.Mf4 in
  for _ = 1 to 2000 do
    let re = M.of_components (Fpan.Gen.expansion rng ~n:4 ~e0_min:(-20) ~e0_max:20 ()) in
    let im = M.of_components (Fpan.Gen.expansion rng ~n:4 ~e0_min:(-20) ~e0_max:20 ()) in
    let z = C.make re im in
    let w = C.mul z (C.conj z) in
    if not (M.is_zero w.C.im) then Alcotest.fail "conjugate product has imaginary part";
    (* and the real part is re^2 + im^2 to working accuracy *)
    if not (M.equal w.C.re (C.norm2 z)) then Alcotest.fail "conjugate product real part"
  done

let test_floor_family (type a) (module M : Multifloat.Ops.S with type t = a) () =
  let check v fl ce tr ro =
    let got name f expect =
      if not (M.equal (f (M.of_string v)) (M.of_int expect)) then
        Alcotest.failf "%s %s: expected %d" name v expect
    in
    got "floor" M.floor fl;
    got "ceil" M.ceil ce;
    got "trunc" M.trunc tr;
    got "round" M.round ro
  in
  check "2.5" 2 3 2 3;
  check "-2.5" (-3) (-2) (-2) (-3);
  check "7" 7 7 7 7;
  check "-0.25" (-1) 0 0 0;
  check "0.75" 0 1 0 1;
  Alcotest.(check int) "to_int" 123 (M.to_int (M.of_string "123.75"));
  Alcotest.(check int) "to_int neg" (-123) (M.to_int (M.of_string "-123.75"));
  (* floor captures integers wider than one double *)
  let big = M.add (M.scale_pow2 M.one 60) (M.of_string "0.5") in
  if not (M.equal (M.floor big) (M.scale_pow2 M.one 60)) then Alcotest.fail "floor of wide int";
  (* exactness: floor x <= x < floor x + 1 *)
  let rng = Random.State.make [| 77 |] in
  for _ = 1 to 500 do
    let x = M.of_float (Random.State.float rng 2000.0 -. 1000.0) in
    let f = M.floor x in
    if M.compare f x > 0 then Alcotest.fail "floor above x";
    if M.compare x (M.add f M.one) >= 0 then Alcotest.fail "floor too small"
  done

let test_rand () =
  let module R = Multifloat.Rand.Make (Multifloat.Mf3) in
  let module M = Multifloat.Mf3 in
  let st = Random.State.make [| 808 |] in
  (* range and full-width content *)
  let low_bits_nonzero = ref 0 in
  for _ = 1 to 500 do
    let u = R.uniform st in
    if M.compare u M.zero < 0 || M.compare u M.one >= 0 then Alcotest.fail "uniform out of [0,1)";
    let c = M.components u in
    if Array.length c >= 3 && c.(2) <> 0.0 then incr low_bits_nonzero
  done;
  Alcotest.(check bool) "low terms populated" true (!low_bits_nonzero > 450);
  (* mean/variance sanity for gaussian *)
  let n = 4000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let g = M.to_float (R.gaussian st) in
    sum := !sum +. g;
    sum2 := !sum2 +. (g *. g)
  done;
  let mean = !sum /. Float.of_int n in
  let var = (!sum2 /. Float.of_int n) -. (mean *. mean) in
  Alcotest.(check bool) (Printf.sprintf "mean %.3f" mean) true (Float.abs mean < 0.08);
  Alcotest.(check bool) (Printf.sprintf "var %.3f" var) true (Float.abs (var -. 1.0) < 0.12);
  (* range helper *)
  let v = R.uniform_range st ~lo:(M.of_int 5) ~hi:(M.of_int 6) in
  Alcotest.(check bool) "range" true (M.compare v (M.of_int 5) >= 0 && M.compare v (M.of_int 6) < 0)

let test_complex_field_ops () =
  let module C = Multifloat.Mf_complex.C2 in
  let module M = Multifloat.Mf2 in
  let z = C.make (M.of_int 3) (M.of_int 4) in
  if not (M.equal (C.abs z) (M.of_int 5)) then Alcotest.fail "|3+4i| <> 5";
  let w = C.div z z in
  if not (C.equal w C.one || M.to_float (M.sub w.C.re M.one) < 1e-25) then
    Alcotest.fail "z/z <> 1";
  if not (C.equal (C.mul C.i C.i) (C.neg C.one)) then Alcotest.fail "i^2 <> -1";
  if not (C.equal (C.add z (C.neg z)) C.zero) then Alcotest.fail "z - z <> 0"

let () =
  Alcotest.run "multifloat"
    [ T2.suite "mf2";
      T3.suite "mf3";
      T4.suite "mf4";
      ( "generic",
        [ Alcotest.test_case "n=4 vs exact" `Quick test_generic_matches_exact;
          Alcotest.test_case "n=6 sqrt" `Quick test_generic_n6;
          Alcotest.test_case "n=2 div" `Quick test_generic_div ] );
      ( "variants",
        [ Alcotest.test_case "mul_no_fma = mul" `Quick test_mul_no_fma;
          Alcotest.test_case "floor family mf2" `Quick (test_floor_family (module Multifloat.Mf2));
          Alcotest.test_case "floor family mf3" `Quick (test_floor_family (module Multifloat.Mf3));
          Alcotest.test_case "floor family mf4" `Quick (test_floor_family (module Multifloat.Mf4));
          Alcotest.test_case "conjugate product exact" `Quick test_complex_conjugate_exact;
          Alcotest.test_case "random variates" `Quick test_rand;
          Alcotest.test_case "complex field ops" `Quick test_complex_field_ops ] ) ]
