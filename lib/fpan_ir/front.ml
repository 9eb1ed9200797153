(* Front end: derive IR programs from the FPAN networks, gate-for-gate.

   [inline_network] replays a network's wire discipline symbolically:
   each wire holds the IR value last written to it; an [Add] gate writes
   the sum to its top wire and *kills* the bottom wire (the interpreter
   zeroes it) -- a killed wire read later materializes a [Const 0.0]
   gate, so the program still computes exactly what [Fpan.Interp.run]
   would.  [inline_mul_expand] mirrors [Fpan.Networks.mul_expand]'s
   push order symbolically, emitting TwoProd gates for orders <= n-2
   and plain Mul gates for the last order. *)

let inline_network b (net : Fpan.Network.t) (args : Ir.value array) : Ir.value array =
  let open Fpan.Network in
  if Array.length args <> Array.length net.inputs then
    invalid_arg
      (Printf.sprintf "Fpan_ir.Front.inline_network: %s wants %d args, got %d" net.name
         (Array.length net.inputs) (Array.length args));
  let wire : Ir.value option array = Array.make net.num_wires None in
  Array.iteri (fun i w -> wire.(w) <- Some args.(i)) net.inputs;
  let read w =
    match wire.(w) with
    | Some v -> v
    | None ->
        (* wire never written (or killed by an Add): reads as 0.0 *)
        let g = Ir.B.push b (Ir.Const 0.0) in
        let v = Ir.Res (g, 0) in
        wire.(w) <- Some v;
        v
  in
  Array.iter
    (fun g ->
      let x = read g.top and y = read g.bot in
      match g.kind with
      | Add ->
          let i = Ir.B.push b (Ir.Add (x, y)) in
          wire.(g.top) <- Some (Ir.Res (i, 0));
          wire.(g.bot) <- None
      | Two_sum ->
          let i = Ir.B.push b (Ir.Two_sum (x, y)) in
          wire.(g.top) <- Some (Ir.Res (i, 0));
          wire.(g.bot) <- Some (Ir.Res (i, 1))
      | Fast_two_sum ->
          let i = Ir.B.push b (Ir.Fast_two_sum (x, y)) in
          wire.(g.top) <- Some (Ir.Res (i, 0));
          wire.(g.bot) <- Some (Ir.Res (i, 1)))
    net.gates;
  Array.map read net.outputs

let of_network (net : Fpan.Network.t) : Ir.t =
  let n = Array.length net.Fpan.Network.inputs in
  let b = Ir.B.create ~num_inputs:n in
  let outs = inline_network b net (Array.init n (fun i -> Ir.In i)) in
  Ir.B.finish b ~name:net.Fpan.Network.name ~outputs:outs

(* Symbolic replay of [Fpan.Networks.mul_expand]: the k-th element of
   the result is the IR value feeding the k-th input wire of the mulN
   network.  Products are pushed in ascending order (i ascending within
   each order o = i+j), each order followed by the error terms of the
   TwoProds one order below; the last order (o = n-1) uses plain
   products.

   One deliberate deviation: [mul_expand] flushes each order's error
   terms in descending i, while this replay pushes them ascending, the
   order the emitted kernels (scalar and planar alike) consume them in.
   The two layouts are bitwise-equal: the error wires only ever feed
   Add and TwoSum gates, plain [+.] is commutative on these values,
   and the 6-op TwoSum's outputs (sum, exact error) are symmetric in
   its operands. *)
let inline_mul_expand b n (x : Ir.value array) (y : Ir.value array) : Ir.value array =
  let out = ref [] in
  let push v = out := v :: !out in
  let g00 = Ir.B.push b (Ir.Two_prod (x.(0), y.(0))) in
  push (Ir.Res (g00, 0));
  let errs = ref [ [ Ir.Res (g00, 1) ] ] in
  for o = 1 to n - 1 do
    let new_errs = ref [] in
    for i = 0 to o do
      let j = o - i in
      if i < n && j < n then
        if o <= n - 2 then begin
          let g = Ir.B.push b (Ir.Two_prod (x.(i), y.(j))) in
          push (Ir.Res (g, 0));
          new_errs := Ir.Res (g, 1) :: !new_errs
        end
        else begin
          let g = Ir.B.push b (Ir.Mul (x.(i), y.(j))) in
          push (Ir.Res (g, 0))
        end
    done;
    (match !errs with
    | prev :: rest ->
        List.iter push prev;
        errs := rest
    | [] -> ());
    errs := !errs @ [ List.rev !new_errs ]
  done;
  Array.of_list (List.rev !out)

(* --- kernel-shaped programs ------------------------------------------ *)
(* Inputs are laid out [x0..x_{t-1}; y0..y_{t-1}] (component-major by
   operand), matching how the planar kernels bind loads -- not the
   interleaved wire order of the add networks. *)

let interleave t x y =
  Array.init (2 * t) (fun k -> if k mod 2 = 0 then x.(k / 2) else y.(k / 2))

let add_kernel t : Ir.t =
  let b = Ir.B.create ~num_inputs:(2 * t) in
  let x = Array.init t (fun i -> Ir.In i) and y = Array.init t (fun i -> Ir.In (t + i)) in
  let outs = inline_network b (Fpan.Networks.add t) (interleave t x y) in
  Ir.B.finish b ~name:(Printf.sprintf "add%d" t) ~outputs:outs

let mul_kernel t : Ir.t =
  let b = Ir.B.create ~num_inputs:(2 * t) in
  let x = Array.init t (fun i -> Ir.In i) and y = Array.init t (fun i -> Ir.In (t + i)) in
  let wires = inline_mul_expand b t x y in
  let outs = inline_network b (Fpan.Networks.mul t) wires in
  Ir.B.finish b ~name:(Printf.sprintf "mul%d" t) ~outputs:outs
