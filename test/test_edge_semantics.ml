(* Section 4.4 of the paper documents exactly how the branch-free
   algorithms deviate from IEEE 754 on special values; these tests pin
   that documented behavior so it cannot drift silently:

   - the sign of zero is not preserved (-0.0 becomes +0.0 in results);
   - +/-Inf collapses to NaN (TwoSum computes Inf - Inf internally);
   - the effective overflow threshold is one machine epsilon narrower
     than DBL_MAX (TwoSum can overflow internally at the boundary);
   - NaN propagates. *)

module M2 = Multifloat.Mf2
module M4 = Multifloat.Mf4

let tf = M2.to_float

let test_negative_zero_not_preserved () =
  (* -0.0 + 0.0: IEEE says -0.0 under roundTiesToEven?  No: +0.0; but
     -0.0 + -0.0 is -0.0 in IEEE.  Our algorithms lose the sign. *)
  let nz = M2.of_float (-0.0) in
  let r = M2.add nz nz in
  Alcotest.(check bool) "result is zero" true (tf r = 0.0);
  Alcotest.(check bool) "sign of zero dropped" false
    (Int64.bits_of_float (tf r) = Int64.bits_of_float (-0.0) )
  (* the bit pattern is +0.0, unlike IEEE's -0.0 *)

let test_infinity_collapses_to_nan () =
  let inf = M2.of_float Float.infinity in
  let one = M2.one in
  (* inf + 1: TwoSum computes (inf + 1) - 1 - ... = inf - inf = nan
     internally, so the result is NaN, not inf (Section 4.4). *)
  Alcotest.(check bool) "inf + 1 -> nan" true (M2.is_nan (M2.add inf one));
  Alcotest.(check bool) "inf * 1 -> nan or inf" true
    (let p = M2.mul inf one in
     M2.is_nan p || tf p = Float.infinity);
  Alcotest.(check bool) "inf - inf -> nan" true (M2.is_nan (M2.sub inf inf))

let test_nan_propagates () =
  let nan = M2.of_float Float.nan in
  Alcotest.(check bool) "nan + 1" true (M2.is_nan (M2.add nan M2.one));
  Alcotest.(check bool) "nan * 2" true (M2.is_nan (M2.mul nan M2.two));
  Alcotest.(check bool) "sqrt nan" true (M2.is_nan (M2.sqrt nan));
  Alcotest.(check bool) "1 / nan" true (M2.is_nan (M2.div M2.one nan))

let test_overflow_threshold () =
  (* Far from the threshold everything is fine... *)
  let big = M2.of_float (Float.ldexp 1.0 1000) in
  let r = M2.add big big in
  Alcotest.(check (float 0.0)) "2^1000 doubles" (Float.ldexp 1.0 1001) (tf r);
  (* ...at DBL_MAX itself, the result overflows to inf or collapses to
     NaN through the internal TwoSum (documented, one-ulp-narrower
     threshold). *)
  let dmax = M2.of_float Float.max_float in
  let r = M2.add dmax dmax in
  Alcotest.(check bool) "DBL_MAX + DBL_MAX degenerates" true
    (M2.is_nan r || tf r = Float.infinity)

let test_underflow_gradual () =
  (* Subnormal-range values: the expansion loses relative precision but
     sums stay ordered and finite (the paper's formal machinery handles
     subnormals transparently; the library inherits hardware gradual
     underflow). *)
  let tiny = M4.of_float (Float.ldexp 1.0 (-1070)) in
  let s = M4.add tiny tiny in
  Alcotest.(check (float 0.0)) "2 * 2^-1070" (Float.ldexp 1.0 (-1069)) (M4.to_float s);
  let prod = M4.mul tiny tiny in
  Alcotest.(check (float 0.0)) "underflow to zero" 0.0 (M4.to_float prod)

let test_exponent_range_not_extended () =
  (* Section 4.4: expansions extend precision, NOT exponent range.
     2^600 * 2^600 overflows even though true quad would hold it. *)
  let big = M4.of_float (Float.ldexp 1.0 600) in
  let p = M4.mul big big in
  Alcotest.(check bool) "2^1200 overflows" true
    (M4.is_nan p || M4.to_float p = Float.infinity)

let test_division_by_zero () =
  Alcotest.(check bool) "1/0" true
    (let q = M2.div M2.one M2.zero in
     M2.to_float q = Float.infinity || M2.is_nan q);
  Alcotest.(check bool) "0/0 nan-ish" true
    (let q = M2.div M2.zero M2.zero in
     M2.is_nan q || M2.is_zero q)

let test_comparisons_with_specials () =
  let nan = M2.of_float Float.nan in
  (* equal never holds for nan *)
  Alcotest.(check bool) "nan <> nan" false (M2.equal nan nan);
  Alcotest.(check bool) "min/max total on finites" true
    (M2.equal (M2.min M2.one M2.two) M2.one && M2.equal (M2.max M2.one M2.two) M2.two)

(* The planar Batch path advertises bitwise equality with the scalar
   kernels — including on the special values above, where "the
   documented deviation" must be the SAME deviation: the same NaN
   collapse, the same NaN payload and sign, the same sign-of-zero loss,
   the same overflow behavior, component for component.  The batched
   BLAS kernels, the engine and refinement run the planar kernels
   where the scalar ones are the reference. *)

let special_pool =
  [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; Float.max_float;
    -.Float.max_float; 0x1p-1074; -0x1p-1074; 1.0; -1.5; 0x1.fffffffffffffp+1023 ]

(* lanes with a special value drawn into every component of both
   operands, on top of the leading-component lanes *)
let every_component_lanes = 20_000

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_batch_matches_scalar (type s v) (name : string)
    (module S : Multifloat.Batch.SCALAR with type t = s)
    (module V : Multifloat.Batch.V with type elt = s and type t = v) ops =
  let pool = Array.of_list special_pool in
  let n = Array.length pool in
  (* All ordered pairs of specials in the leading component, a few with
     live tails... *)
  let mk f = S.of_components (Array.init S.terms (fun i -> if i = 0 then f else 0.0)) in
  let mk_tail f =
    S.of_components
      (Array.init S.terms (fun i -> if i = 0 then f else if i = 1 then 0x1p-60 else 0.0))
  in
  let lead_xs =
    Array.init (n * n * 2) (fun k -> (if k < n * n then mk else mk_tail) pool.(k mod n))
  in
  let lead_ys =
    Array.init (n * n * 2) (fun k -> (if k < n * n then mk else mk_tail) pool.(k / n mod n))
  in
  (* ...then a seeded draw with every component of both operands
     special, all as one batch. *)
  let rng = Random.State.make [| 0x5bec; S.terms |] in
  let draw () = S.of_components (Array.init S.terms (fun _ -> pool.(Random.State.int rng n))) in
  let pairs =
    Array.init every_component_lanes (fun _ ->
        let x = draw () in
        (x, draw ()))
  in
  let xs = Array.append lead_xs (Array.map fst pairs) in
  let ys = Array.append lead_ys (Array.map snd pairs) in
  let show1 x =
    if Float.is_nan x then Printf.sprintf "nan:%016Lx" (Int64.bits_of_float x)
    else Printf.sprintf "%h" x
  in
  let show c = String.concat " " (Array.to_list (Array.map show1 c)) in
  let failures =
    List.filter_map
      (fun (opname, scalar_op, batch_op) ->
        let vx = V.of_array xs and vy = V.of_array ys in
        let dst = V.create (Array.length xs) in
        batch_op ~dst vx vy;
        let bad = ref [] in
        Array.iteri
          (fun i x ->
            let want = S.components (scalar_op x ys.(i)) in
            let got = S.components (V.get dst i) in
            if not (Array.for_all2 bits_eq want got) then bad := (i, want, got) :: !bad)
          xs;
        match List.rev !bad with
        | [] -> None
        | (i, want, got) :: _ as bad ->
            Some
              (Printf.sprintf
                 "%s %s: %d of %d lanes differ bitwise from scalar; first: lane %d (want %s, got %s)"
                 name opname (List.length bad) (Array.length xs) i (show want) (show got)))
      ops
  in
  if failures <> [] then Alcotest.fail (String.concat "\n" failures)

let test_batch_specials_mf2 () =
  check_batch_matches_scalar "mf2"
    (module Multifloat.Mf2)
    (module Multifloat.Batch.Mf2v)
    [ ("add", Multifloat.Mf2.add, Multifloat.Batch.Mf2v.add);
      ("sub", Multifloat.Mf2.sub, Multifloat.Batch.Mf2v.sub);
      ("mul", Multifloat.Mf2.mul, Multifloat.Batch.Mf2v.mul) ]

let test_batch_specials_mf3 () =
  check_batch_matches_scalar "mf3"
    (module Multifloat.Mf3)
    (module Multifloat.Batch.Mf3v)
    [ ("add", Multifloat.Mf3.add, Multifloat.Batch.Mf3v.add);
      ("sub", Multifloat.Mf3.sub, Multifloat.Batch.Mf3v.sub);
      ("mul", Multifloat.Mf3.mul, Multifloat.Batch.Mf3v.mul) ]

let test_batch_specials_mf4 () =
  check_batch_matches_scalar "mf4"
    (module Multifloat.Mf4)
    (module Multifloat.Batch.Mf4v)
    [ ("add", Multifloat.Mf4.add, Multifloat.Batch.Mf4v.add);
      ("sub", Multifloat.Mf4.sub, Multifloat.Batch.Mf4v.sub);
      ("mul", Multifloat.Mf4.mul, Multifloat.Batch.Mf4v.mul) ]

let () =
  Alcotest.run "edge-semantics"
    [ ( "section-4.4",
        [ Alcotest.test_case "negative zero" `Quick test_negative_zero_not_preserved;
          Alcotest.test_case "infinity -> nan" `Quick test_infinity_collapses_to_nan;
          Alcotest.test_case "nan propagates" `Quick test_nan_propagates;
          Alcotest.test_case "overflow threshold" `Quick test_overflow_threshold;
          Alcotest.test_case "gradual underflow" `Quick test_underflow_gradual;
          Alcotest.test_case "exponent range" `Quick test_exponent_range_not_extended;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "comparisons" `Quick test_comparisons_with_specials ] );
      ( "batch-bitwise",
        [ Alcotest.test_case "mf2 specials" `Quick test_batch_specials_mf2;
          Alcotest.test_case "mf3 specials" `Quick test_batch_specials_mf3;
          Alcotest.test_case "mf4 specials" `Quick test_batch_specials_mf4 ] ) ]
