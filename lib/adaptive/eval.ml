(* Canonical scalar tier evaluator for the certifiable ops: plain
   scalar kernels in index order.  It is how the serving layer
   evaluates these ops (Serve.Batcher.eval_one), batched or not. *)

module Make (M : Multifloat.Ops.S) = struct
  let eval op (inp : Sla.inputs) : float array array =
    let x i = M.of_components inp.x.(i) in
    let y i = M.of_components inp.y.(i) in
    let one v = [| M.components v |] in
    match op with
    | Sla.Add -> one (M.add (x 0) (y 0))
    | Sla.Mul -> one (M.mul (x 0) (y 0))
    | Sla.Div -> one (M.div (x 0) (y 0))
    | Sla.Sqrt -> one (M.sqrt (x 0))
    | Sla.Sum ->
        let acc = ref M.zero in
        for i = 0 to Array.length inp.x - 1 do
          acc := M.add !acc (x i)
        done;
        one !acc
    | Sla.Dot ->
        let acc = ref M.zero in
        for i = 0 to Array.length inp.x - 1 do
          acc := M.add !acc (M.mul (x i) (y i))
        done;
        one !acc
    | Sla.Axpy ->
        let alpha = y 0 in
        Array.init (Array.length inp.x) (fun i ->
            M.components (M.add (M.mul alpha (x i)) (y (i + 1))))
    | Sla.Axpy_dot ->
        let n = Array.length inp.x in
        let alpha = y 0 in
        let z i = M.of_components inp.z.(i) in
        let ynew = Array.init n (fun i -> M.add (M.mul alpha (x i)) (y (i + 1))) in
        let acc = ref M.zero in
        for i = 0 to n - 1 do
          acc := M.add !acc (M.mul ynew.(i) (z i))
        done;
        Array.append [| M.components !acc |] (Array.map M.components ynew)
end

module E2 = Make (Multifloat.Mf2)
module E3 = Make (Multifloat.Mf3)
module E4 = Make (Multifloat.Mf4)

(* [inp] must already be padded to [terms]-component elements. *)
let eval ~terms op inp =
  match terms with
  | 2 -> E2.eval op inp
  | 3 -> E3.eval op inp
  | 4 -> E4.eval op inp
  | n -> invalid_arg (Printf.sprintf "Adaptive.Eval.eval: no tier with %d terms" n)
