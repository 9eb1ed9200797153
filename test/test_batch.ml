(* Batched (planar, structure-of-arrays) kernels vs the scalar path.

   The batch layer promises *bitwise* equality with the scalar kernels:
   the per-element arithmetic is the same FPAN wire sequence, hand
   inlined over component planes, and the accumulation orders match.
   So these tests don't use error budgets — every comparison is on the
   raw bits of every expansion component, over random inputs and over
   the adversarial structures that break naive networks (massive
   cancellation, ulp-adjacent values, powers of two, nonoverlapping
   expansions with extreme gaps), sequential and on the work-stealing
   runtime. *)

let rng = Random.State.make [| 0xba7c; 11 |]

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A batched instance plus the scalar component surface the bitwise
   comparison needs (Instances seals everything down to
   Numeric.BATCHED, so the extra ops come from the multifloat module
   itself). *)
module type INSTANCE = sig
  include Blas.Numeric.BATCHED

  val sub : t -> t -> t
  val components : t -> float array
  val of_components : float array -> t
end

module CheckB (N : INSTANCE) = struct
  module Ks = Blas.Kernels.Make (N)
  module Kb = Blas.Kernels.Make_batched (N)
  module V = Kb.V

  let eq_t a b =
    let ca = N.components a and cb = N.components b in
    Array.length ca = Array.length cb
    && Array.for_all2 (fun x y -> bits_eq x y) ca cb

  let check_vec what xs v =
    if Array.length xs <> V.length v then Alcotest.failf "%s %s: length" N.name what;
    Array.iteri
      (fun i x ->
        if not (eq_t x (V.get v i)) then Alcotest.failf "%s %s: element %d differs" N.name what i)
      xs

  (* --- input vectors: random and adversarial, element for element --- *)

  let random_elt () =
    N.of_components (Fpan.Gen.expansion rng ~n:V.terms ~e0_min:(-40) ~e0_max:40 ())

  let adversarial_elt i =
    match i mod 4 with
    | 0 ->
        (* extreme inter-term gaps *)
        N.of_components (Fpan.Gen.expansion rng ~n:V.terms ~e0_min:(-200) ~e0_max:200 ())
    | 1 ->
        (* ulp-adjacent to a power of two *)
        let b = Float.ldexp 1.0 (Random.State.int rng 41 - 20) in
        N.of_float (if Random.State.bool rng then Float.succ b else Float.pred b)
    | 2 ->
        (* exact power of two, half of them negative *)
        let b = Float.ldexp 1.0 (Random.State.int rng 81 - 40) in
        N.of_float (if Random.State.bool rng then b else -.b)
    | _ -> random_elt ()

  let random_elts n = Array.init n (fun _ -> random_elt ())
  let adversarial_elts n = Array.init n adversarial_elt

  (* y built to cancel massively against x: y_i = tiny - x_i, so
     x_i + y_i collapses ~all leading bits. *)
  let cancelling_against x =
    Array.map
      (fun xi -> N.sub (N.of_float (Float.ldexp (Random.State.float rng 1.0) (-45))) xi)
      x

  (* --- element/bulk op equality: add, sub, mul, roundtrips --- *)

  let test_ops () =
    List.iter
      (fun (what, xs) ->
        let n = Array.length xs in
        let ys =
          if what = "cancel" then cancelling_against xs
          else adversarial_elts n
        in
        let xv = V.of_array xs and yv = V.of_array ys in
        check_vec (what ^ " roundtrip") xs xv;
        let dst = V.create n in
        V.add ~dst xv yv;
        check_vec (what ^ " add") (Array.map2 N.add xs ys) dst;
        V.sub ~dst xv yv;
        check_vec (what ^ " sub") (Array.map2 N.sub xs ys) dst;
        V.mul ~dst xv yv;
        check_vec (what ^ " mul") (Array.map2 N.mul xs ys) dst;
        (* set/get and copy preserve bits *)
        let cp = V.copy xv in
        V.set cp 0 ys.(0);
        if not (eq_t ys.(0) (V.get cp 0)) then Alcotest.failf "%s set/get" N.name;
        check_vec "copy unaliased" xs xv)
      [ ("random", random_elts 33); ("adversarial", adversarial_elts 33);
        ("cancel", random_elts 33) ]

  (* --- kernel equality, sequential --- *)

  let check_kernels what xs ys =
    let n = Array.length xs in
    let xv = V.of_array xs and yv = V.of_array ys in
    (* DOT *)
    let ds = Ks.dot ~x:xs ~y:ys in
    let db = Kb.dot ~x:xv ~y:yv in
    if not (eq_t ds db) then Alcotest.failf "%s %s dot differs" N.name what;
    (* AXPY *)
    let alpha = adversarial_elt 0 in
    let y1 = Array.copy ys and y2 = V.of_array ys in
    Ks.axpy ~alpha ~x:xs ~y:y1;
    Kb.axpy ~alpha ~x:xv ~y:y2;
    check_vec (what ^ " axpy") y1 y2;
    (* GEMV: reuse a prefix of xs as a 6x(n/6) matrix *)
    let m = 6 in
    let nn = n / m in
    let am = Array.sub xs 0 (m * nn) in
    let ys1 = Array.make m N.zero and ys2 = V.create m in
    Ks.gemv ~m ~n:nn ~a:am ~x:(Array.sub ys 0 nn) ~y:ys1;
    Kb.gemv ~m ~n:nn ~a:(V.of_array am) ~x:(V.of_array (Array.sub ys 0 nn)) ~y:ys2;
    check_vec (what ^ " gemv") ys1 ys2;
    (* GEMM: 4x5 * 5x3 *)
    let m, k, nn = (4, 5, 3) in
    let a = Array.sub xs 0 (m * k) and b = Array.sub ys 0 (k * nn) in
    let c1 = Array.make (m * nn) N.zero in
    let c2 = V.of_array c1 in
    Ks.gemm ~m ~n:nn ~k ~a ~b ~c:c1;
    Kb.gemm ~m ~n:nn ~k ~a:(V.of_array a) ~b:(V.of_array b) ~c:c2;
    check_vec (what ^ " gemm") c1 c2

  let test_kernels () =
    let xs = random_elts 48 in
    check_kernels "random" xs (random_elts 48);
    check_kernels "cancel" xs (cancelling_against xs);
    check_kernels "adversarial" (adversarial_elts 48) (adversarial_elts 48)

  (* --- kernel equality on the work-stealing runtime at 1 and 3
     workers: AXPY/GEMV/GEMM must reproduce the scalar sequential
     kernels bit-for-bit, and DOT's fixed reduction tree must give the
     same bits at both worker counts.  Vectors are long enough, and the
     GEMM tile small enough, that every kernel splits into several
     stealable leaves. --- *)

  let test_runtime () =
    List.iter
      (fun (what, xs, ys) ->
        let n = Array.length xs in
        let xv = V.of_array xs and yv = V.of_array ys in
        let alpha = adversarial_elt 0 in
        let y1 = Array.copy ys in
        Ks.axpy ~alpha ~x:xs ~y:y1;
        let m = 6 in
        let nn = n / m in
        let am = Array.sub xs 0 (m * nn) and xg = Array.sub ys 0 nn in
        let ys1 = Array.make m N.zero in
        Ks.gemv ~m ~n:nn ~a:am ~x:xg ~y:ys1;
        let gm, gk, gn = (4, 5, 3) in
        let a = Array.sub xs 0 (gm * gk) and b = Array.sub ys 0 (gk * gn) in
        let c1 = Array.make (gm * gn) N.zero in
        Ks.gemm ~m:gm ~n:gn ~k:gk ~a ~b ~c:c1;
        let dot_at workers =
          Runtime.Sched.with_sched ~workers (fun rt ->
              let tag k = Printf.sprintf "%s runtime %s (%d workers)" what k workers in
              let y2 = V.of_array ys in
              Kb.axpy_rt rt ~alpha ~x:xv ~y:y2;
              check_vec (tag "axpy") y1 y2;
              let ys2 = V.create m in
              Kb.gemv_rt rt ~m ~n:nn ~a:(V.of_array am) ~x:(V.of_array xg) ~y:ys2;
              check_vec (tag "gemv") ys1 ys2;
              let c2 = V.create (gm * gn) in
              Kb.gemm_rt rt ~tile:(2, 2) ~m:gm ~n:gn ~k:gk ~a:(V.of_array a) ~b:(V.of_array b)
                ~c:c2 ();
              check_vec (tag "gemm") c1 c2;
              Kb.dot_rt rt ~x:xv ~y:yv)
        in
        if not (eq_t (dot_at 1) (dot_at 3)) then
          Alcotest.failf "%s %s runtime dot differs across worker counts" N.name what)
      (let n = 2400 in
       let xs = random_elts n in
       [ ("random", xs, random_elts n);
         ("cancel", xs, cancelling_against xs);
         ("adversarial", adversarial_elts n, adversarial_elts n) ])

  (* --- transpose: index spot-checks against the definition, and
     transpose-twice = identity, across shapes that straddle the 32x32
     cache block (tall, wide, square, degenerate) --- *)

  let test_transpose () =
    List.iter
      (fun (m, n) ->
        let xs = random_elts (m * n) in
        let src = V.of_array xs in
        let dst = V.create (m * n) in
        V.transpose ~m ~n ~src ~dst;
        for i = 0 to m - 1 do
          for j = 0 to n - 1 do
            if not (eq_t xs.((i * n) + j) (V.get dst ((j * m) + i))) then
              Alcotest.failf "%s transpose %dx%d: (%d,%d) differs" N.name m n i j
          done
        done;
        let back = V.create (m * n) in
        V.transpose ~m:n ~n:m ~src:dst ~dst:back;
        check_vec (Printf.sprintf "transpose twice %dx%d" m n) xs back)
      [ (1, 1); (1, 17); (17, 1); (5, 7); (32, 32); (33, 31); (40, 96) ]

  (* --- outputs of the batched networks stay nonoverlapping (the
     paper's Eq. 8 invariant), including under massive cancellation --- *)

  let test_nonoverlap () =
    let n = 64 in
    let xs = random_elts n in
    List.iter
      (fun ys ->
        let xv = V.of_array xs and yv = V.of_array ys in
        let dst = V.create n in
        List.iter
          (fun (what, (op : dst:V.t -> V.t -> V.t -> unit)) ->
            op ~dst xv yv;
            for i = 0 to n - 1 do
              if not (Eft.is_nonoverlapping_seq (N.components (V.get dst i))) then
                Alcotest.failf "%s batched %s output %d overlaps" N.name what i
            done)
          [ ("add", V.add); ("sub", V.sub); ("mul", V.mul) ])
      [ random_elts n; cancelling_against xs ]

  (* --- qcheck: dot bitwise equality on arbitrary sign/magnitude mixes --- *)

  let arb_elt_floats =
    let open QCheck.Gen in
    let tricky =
      let* m = float_range (-2.0) 2.0 in
      let* e = int_range (-40) 40 in
      return (Float.ldexp m e)
    in
    let one = frequency [ (6, tricky); (1, return 0.0); (1, return 1.0); (1, return (-1.0)) ] in
    QCheck.make
      ~print:(fun l -> String.concat ";" (List.map (Printf.sprintf "%h") l))
      (list_size (int_range 1 40) one)

  let qcheck_dot =
    QCheck.Test.make ~count:300 ~name:(N.name ^ " batched dot bitwise = scalar dot")
      (QCheck.pair arb_elt_floats arb_elt_floats)
      (fun (lx, ly) ->
        let n = min (List.length lx) (List.length ly) in
        let xs = Array.init n (List.nth lx) |> Array.map N.of_float in
        let ys = Array.init n (List.nth ly) |> Array.map N.of_float in
        eq_t (Ks.dot ~x:xs ~y:ys) (Kb.dot ~x:(V.of_array xs) ~y:(V.of_array ys)))

  let qcheck_axpy =
    QCheck.Test.make ~count:300 ~name:(N.name ^ " batched axpy bitwise = scalar axpy")
      (QCheck.pair arb_elt_floats arb_elt_floats)
      (fun (lx, ly) ->
        let n = min (List.length lx) (List.length ly) in
        let xs = Array.init n (List.nth lx) |> Array.map N.of_float in
        let ys = Array.init n (List.nth ly) |> Array.map N.of_float in
        let alpha = N.of_float (List.nth lx 0) in
        let y1 = Array.copy ys and y2 = V.of_array ys in
        Ks.axpy ~alpha ~x:xs ~y:y1;
        Kb.axpy ~alpha ~x:(V.of_array xs) ~y:y2;
        Array.for_all (fun b -> b) (Array.mapi (fun i v -> eq_t v (V.get y2 i)) y1))

  (* --- the folds: the single-pass [sum] and [dot] kernels are
     bitwise the scalar add fold and the op-by-op mul-then-sum
     spelling -- which materializes the product plane -- over the
     Section 4.4 corpus classes (subnormal, near-overflow,
     cancellation, ulp ties, zeros, specials) at lengths
     {0, 1, 7, 1024}. --- *)

  (* the corpus speaks multi-term expansions only; the single-plane
     double tier falls back to the adversarial element mix *)
  let corpus_elts len off =
    if V.terms < 2 then (adversarial_elts len, adversarial_elts len)
    else
    let xs = Array.make len N.zero and ys = Array.make len N.zero in
    for j = 0 to len - 1 do
      let c = Check.Corpus.scalar_case rng ~terms:V.terms (off + j) in
      xs.(j) <- N.of_components c.Check.Corpus.x;
      ys.(j) <- N.of_components c.Check.Corpus.y
    done;
    (xs, ys)

  let check_elt what len b1 b2 =
    if not (eq_t b1 b2) then Alcotest.failf "%s %s (len %d) differs" N.name what len

  let test_folds () =
    List.iter
      (fun len ->
        let xs, ys = corpus_elts len (7 * len) in
        let xv = V.of_array xs and yv = V.of_array ys in
        (* sum is the scalar add fold in index order *)
        check_elt "sum" len
          (Array.fold_left N.add N.zero xs)
          (V.sum ~init:N.zero ~x:xv ~xoff:0 ~len);
        (* dot = elementwise mul into a temporary plane set, then sum *)
        let tmp = V.create len in
        V.mul ~dst:tmp xv yv;
        let d_two_pass = V.sum ~init:N.zero ~x:tmp ~xoff:0 ~len in
        check_elt "dot" len d_two_pass (V.dot ~init:N.zero ~x:xv ~xoff:0 ~y:yv ~yoff:0 ~len))
      [ 0; 1; 7; 1024 ]

  (* --- the IR interpreter is an executable oracle: iterating the
     dot_step wire program from lib/fpan_ir reproduces the planar dot
     kernel bit for bit (tiers with a wire program only) --- *)

  let test_ir_oracle () =
    if V.terms >= 2 && V.terms <= 4 then begin
      let t = V.terms in
      let len = 23 in
      let comps = N.components in
      let xs, ys = corpus_elts len 31 in
      let dot_step = Fpan_ir.Fuse.chain "dot_step" t in
      let acc = ref N.zero in
      for i = 0 to len - 1 do
        acc :=
          N.of_components
            (Fpan_ir.Interp.run dot_step
               (Array.concat [ comps !acc; comps xs.(i); comps ys.(i) ]))
      done;
      let v = V.dot ~init:N.zero ~x:(V.of_array xs) ~xoff:0 ~y:(V.of_array ys) ~yoff:0 ~len in
      if not (eq_t !acc v) then Alcotest.failf "%s IR dot oracle differs" N.name
    end

  let cases name =
    [ Alcotest.test_case (name ^ " ops bitwise") `Quick test_ops;
      Alcotest.test_case (name ^ " kernels bitwise") `Quick test_kernels;
      Alcotest.test_case (name ^ " runtime bitwise") `Quick test_runtime;
      Alcotest.test_case (name ^ " transpose") `Quick test_transpose;
      Alcotest.test_case (name ^ " outputs nonoverlapping") `Quick test_nonoverlap;
      Alcotest.test_case (name ^ " fused kernels bitwise") `Quick test_folds;
      Alcotest.test_case (name ^ " IR oracle") `Quick test_ir_oracle;
      QCheck_alcotest.to_alcotest qcheck_dot;
      QCheck_alcotest.to_alcotest qcheck_axpy ]
end

module C2 = CheckB (struct
  include Blas.Instances.Mf2

  let sub = Multifloat.Mf2.sub
  let components = Multifloat.Mf2.components
  let of_components = Multifloat.Mf2.of_components
end)

module C3 = CheckB (struct
  include Blas.Instances.Mf3

  let sub = Multifloat.Mf3.sub
  let components = Multifloat.Mf3.components
  let of_components = Multifloat.Mf3.of_components
end)

module C4 = CheckB (struct
  include Blas.Instances.Mf4

  let sub = Multifloat.Mf4.sub
  let components = Multifloat.Mf4.components
  let of_components = Multifloat.Mf4.of_components
end)

(* Double (Mf1v) rides the same planar machinery with a single plane. *)
module C1 = CheckB (struct
  include Blas.Instances.Double

  let sub a b = a -. b
  let components x = [| x |]
  let of_components c = c.(0)
end)

let () =
  Alcotest.run "batch"
    [ ("double", C1.cases "double");
      ("mf2", C2.cases "mf2");
      ("mf3", C3.cases "mf3");
      ("mf4", C4.cases "mf4") ]
