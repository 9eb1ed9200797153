(* Tests for the BLAS kernels across every Numeric instance.

   Each arithmetic runs the same generic kernels; results are checked
   against an exact expansion-arithmetic reference at the instance's
   nominal precision. *)

let rng = Random.State.make [| 0xb1a5; 7 |]

let random_floats n = Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0)

(* Exact references over float inputs. *)
let exact_dot x y =
  let acc = ref Exact.zero in
  Array.iteri (fun i xi -> acc := Exact.sum !acc (Exact.mul (Exact.of_float xi) (Exact.of_float y.(i)))) x;
  !acc

let close_to ~bits got exact =
  let diff = Exact.grow exact (-.got) in
  let d = Float.abs (Exact.approx (Exact.compress diff)) in
  let r = Float.abs (Exact.approx (Exact.compress exact)) in
  d = 0.0 || (r > 0.0 && Float.log2 d -. Float.log2 r <= Float.of_int (-bits))

module Check (N : sig
  include Blas.Numeric.S

  val budget : int
end) =
struct
  module K = Blas.Kernels.Make (N)

  let budget = N.budget

  let run () =
    let n = 40 in
    let xf = random_floats n and yf = random_floats n in
    let alpha = 0.75 in
    (* DOT *)
    let x = K.vec_of_floats xf and y = K.vec_of_floats yf in
    let d = N.to_float (K.dot ~x ~y) in
    if not (close_to ~bits:budget d (exact_dot xf yf)) then
      Alcotest.failf "%s dot off: %h" N.name d;
    (* AXPY: y <- alpha x + y *)
    let y2 = K.vec_of_floats yf in
    K.axpy ~alpha:(N.of_float alpha) ~x ~y:y2;
    Array.iteri
      (fun i v ->
        let expect = Exact.grow (Exact.scale (Exact.of_float xf.(i)) alpha) yf.(i) in
        if not (close_to ~bits:budget (N.to_float v) expect) then
          Alcotest.failf "%s axpy at %d" N.name i)
      y2;
    (* GEMV vs DOT rows *)
    let m = 7 and nn = 9 in
    let af = random_floats (m * nn) and xf2 = random_floats nn in
    let a = K.vec_of_floats af and x2 = K.vec_of_floats xf2 in
    let yv = Array.make m N.zero in
    K.gemv ~m ~n:nn ~a ~x:x2 ~y:yv;
    for i = 0 to m - 1 do
      let row = Array.sub af (i * nn) nn in
      if not (close_to ~bits:budget (N.to_float yv.(i)) (exact_dot row xf2)) then
        Alcotest.failf "%s gemv row %d" N.name i
    done;
    (* GEMM vs triple loop in exact arithmetic *)
    let m, k, nn = (4, 5, 3) in
    let af = random_floats (m * k) and bf = random_floats (k * nn) in
    let a = K.vec_of_floats af and b = K.vec_of_floats bf in
    let c = Array.make (m * nn) N.zero in
    K.gemm ~m ~n:nn ~k ~a ~b ~c;
    for i = 0 to m - 1 do
      for j = 0 to nn - 1 do
        let acc = ref Exact.zero in
        for p = 0 to k - 1 do
          acc :=
            Exact.sum !acc
              (Exact.mul (Exact.of_float af.((i * k) + p)) (Exact.of_float bf.((p * nn) + j)))
        done;
        if not (close_to ~bits:budget (N.to_float c.((i * nn) + j)) !acc) then
          Alcotest.failf "%s gemm %d %d" N.name i j
      done
    done
end

let instance_case (name, run) = Alcotest.test_case name `Quick run

let seq_cases =
  let mk (type a) name budget (module N : Blas.Numeric.S with type t = a) =
    let module C = Check (struct
      include N

      let budget = budget
    end) in
    (name, C.run)
  in
  (* Budgets reflect what N.to_float can resolve: the full value for
     double and the software FPU, the leading (53-bit) component for
     expansion types, the leading 24-bit component for the binary32 GPU
     types. *)
  [ mk "double" 42 (module Blas.Instances.Double);
    mk "mf2" 48 (module Blas.Instances.Mf2);
    mk "mf3" 48 (module Blas.Instances.Mf3);
    mk "mf4" 48 (module Blas.Instances.Mf4);
    mk "qd-dd" 48 (module Blas.Instances.Qd_dd);
    mk "qd-qd" 48 (module Blas.Instances.Qd_qd);
    mk "campary2" 48 (module Blas.Instances.Campary2);
    mk "campary3" 48 (module Blas.Instances.Campary3);
    mk "campary4" 48 (module Blas.Instances.Campary4);
    mk "fpu103" 48 (module Blas.Instances.Fpu103);
    mk "fpu208" 48 (module Blas.Instances.Fpu208);
    mk "arb103" 48 (module Blas.Instances.Arb103);
    mk "gpu2" 18 (module Blas.Instances.Gpu2);
    mk "gpu4" 18 (module Blas.Instances.Gpu4) ]

let () =
  Alcotest.run "blas"
    [ ("sequential", List.map instance_case seq_cases) ]
