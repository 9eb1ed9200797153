(* Reference interpreters for IR programs.

   [run] evaluates a program on scalar floats through [Eft], so it is
   bitwise the semantics the codegen'd kernels must reproduce.
   [run_rounded] is the same program with every primitive rounded to a
   reduced width: the oracle the verification backend is checked
   against. *)

let run (p : Ir.t) (inputs : float array) : float array =
  if Array.length inputs <> p.Ir.num_inputs then
    invalid_arg
      (Printf.sprintf "Fpan_ir.Interp.run: %s wants %d inputs, got %d" p.Ir.name p.Ir.num_inputs
         (Array.length inputs));
  let vals = Array.make (2 * max 1 (Array.length p.Ir.gates)) 0.0 in
  let value = function Ir.In i -> inputs.(i) | Ir.Res (g, k) -> vals.((2 * g) + k) in
  Array.iteri
    (fun i g ->
      match g with
      | Ir.Two_sum (a, b) ->
          let s, e = Eft.two_sum (value a) (value b) in
          vals.(2 * i) <- s;
          vals.((2 * i) + 1) <- e
      | Ir.Fast_two_sum (a, b) ->
          let s, e = Eft.fast_two_sum (value a) (value b) in
          vals.(2 * i) <- s;
          vals.((2 * i) + 1) <- e
      | Ir.Two_prod (a, b) ->
          let s, e = Eft.two_prod (value a) (value b) in
          vals.(2 * i) <- s;
          vals.((2 * i) + 1) <- e
      | Ir.Add (a, b) -> vals.(2 * i) <- value a +. value b
      | Ir.Mul (a, b) -> vals.(2 * i) <- value a *. value b
      | Ir.Const c -> vals.(2 * i) <- c)
    p.Ir.gates;
  Array.map value p.Ir.outputs

(* Reduced-precision program semantics: [run] with every primitive
   floating-point operation rounded through [round] — the EFT gates
   become their branch-free multi-op circuits (6-op TwoSum, 3-op
   FastTwoSum, mul+fma TwoProd) with each constituent op rounded.
   This is the independent width-w oracle the verification backend's
   circuit evaluator is checked against bitwise; it is sound as a
   width-w reference only while each double step is exact (TwoProd
   additionally needs 2w <= 53 so the double product is exact). *)
let run_rounded ~round (p : Ir.t) (inputs : float array) : float array =
  if Array.length inputs <> p.Ir.num_inputs then
    invalid_arg
      (Printf.sprintf "Fpan_ir.Interp.run_rounded: %s wants %d inputs, got %d" p.Ir.name
         p.Ir.num_inputs (Array.length inputs));
  let vals = Array.make (2 * max 1 (Array.length p.Ir.gates)) 0.0 in
  let value = function Ir.In i -> inputs.(i) | Ir.Res (g, k) -> vals.((2 * g) + k) in
  Array.iteri
    (fun i g ->
      match g with
      | Ir.Two_sum (a, b) ->
          let x = value a and y = value b in
          let s = round (x +. y) in
          let x_eff = round (s -. y) in
          let y_eff = round (s -. x_eff) in
          let dx = round (x -. x_eff) in
          let dy = round (y -. y_eff) in
          vals.(2 * i) <- s;
          vals.((2 * i) + 1) <- round (dx +. dy)
      | Ir.Fast_two_sum (a, b) ->
          let x = value a and y = value b in
          let s = round (x +. y) in
          let y_eff = round (s -. x) in
          vals.(2 * i) <- s;
          vals.((2 * i) + 1) <- round (y -. y_eff)
      | Ir.Two_prod (a, b) ->
          let x = value a and y = value b in
          let pr = round (x *. y) in
          vals.(2 * i) <- pr;
          (* fma's x*y - pr is exact in double while 2w <= 53 *)
          vals.((2 * i) + 1) <- round (Float.fma x y (-.pr))
      | Ir.Add (a, b) -> vals.(2 * i) <- round (value a +. value b)
      | Ir.Mul (a, b) -> vals.(2 * i) <- round (value a *. value b)
      | Ir.Const c -> vals.(2 * i) <- round c)
    p.Ir.gates;
  Array.map value p.Ir.outputs
