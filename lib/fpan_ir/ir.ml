(* SSA-style IR for FPAN wire programs.

   A program is a straight line of gates over values; a value is either
   a program input or an output port of an earlier gate.  The two-output
   gates are the error-free transformations (TwoSum / FastTwoSum /
   TwoProd: port 0 carries the principal result, port 1 the exact
   rounding error); Add / Mul / Const are the plain float ops the
   networks discard errors through.

   Unlike [Fpan.Network] -- whose gates mutate a fixed set of wires --
   this form is pure: every gate output is a fresh value, which is what
   makes programs composable (composition is inlining, see {!Fuse}) and
   stageable (interpretation, or OCaml codegen; see {!Interp} and
   {!Codegen}).  The front end ({!Front}) derives programs
   from the networks gate-for-gate, so a program evaluates bitwise
   identically to [Fpan.Interp.run] on the source network. *)

type value =
  | In of int  (** program input slot *)
  | Res of int * int  (** output port [p] of gate [g]: [Res (g, p)] *)

type gate =
  | Two_sum of value * value
  | Fast_two_sum of value * value
  | Two_prod of value * value
  | Add of value * value
  | Mul of value * value
  | Const of float

type t = {
  name : string;
  num_inputs : int;
  gates : gate array;
  outputs : value array;
}

let out_ports = function
  | Two_sum _ | Fast_two_sum _ | Two_prod _ -> 2
  | Add _ | Mul _ | Const _ -> 1

let operands = function
  | Two_sum (a, b) | Fast_two_sum (a, b) | Two_prod (a, b) | Add (a, b) | Mul (a, b) -> [ a; b ]
  | Const _ -> []

let gate_name = function
  | Two_sum _ -> "two_sum"
  | Fast_two_sum _ -> "fast_two_sum"
  | Two_prod _ -> "two_prod"
  | Add _ -> "add"
  | Mul _ -> "mul"
  | Const _ -> "const"

let size t = Array.length t.gates

(* Same flop convention as [Fpan.Network.flops], extended to the
   multiplicative gates (TwoProd = mul + fma). *)
let flops t =
  Array.fold_left
    (fun acc g ->
      acc
      +
      match g with
      | Two_sum _ -> 6
      | Fast_two_sum _ -> 3
      | Two_prod _ -> 2
      | Add _ | Mul _ -> 1
      | Const _ -> 0)
    0 t.gates

let validate t =
  let check_value ~gate v =
    match v with
    | In i ->
        if i < 0 || i >= t.num_inputs then
          invalid_arg (Printf.sprintf "Fpan_ir.%s: input %d out of range" t.name i)
    | Res (g, p) ->
        if g < 0 || g >= gate then
          invalid_arg (Printf.sprintf "Fpan_ir.%s: gate %d reads a later gate %d" t.name gate g);
        if p < 0 || p >= out_ports t.gates.(g) then
          invalid_arg (Printf.sprintf "Fpan_ir.%s: gate %d reads bad port %d.%d" t.name gate g p)
  in
  Array.iteri (fun i g -> List.iter (check_value ~gate:i) (operands g)) t.gates;
  Array.iter (check_value ~gate:(Array.length t.gates)) t.outputs;
  t

(* --- builder --------------------------------------------------------- *)

module B = struct
  type prog = t

  type t = { num_inputs : int; mutable rev_gates : gate list; mutable n : int }

  let create ~num_inputs = { num_inputs; rev_gates = []; n = 0 }

  let push b g =
    b.rev_gates <- g :: b.rev_gates;
    let i = b.n in
    b.n <- i + 1;
    i

  let finish b ~name ~outputs =
    validate
      {
        name;
        num_inputs = b.num_inputs;
        gates = Array.of_list (List.rev b.rev_gates);
        outputs;
      }
end

(* Append [prog]'s gates to builder [b], substituting [args] for its
   inputs; returns [prog]'s outputs re-based into [b].  This is the
   primitive every composition is built from: gate order and operand order
   are preserved exactly, so the inlined copy computes bitwise the same
   values as running [prog] on the bound arguments. *)
let inline b prog (args : value array) : value array =
  if Array.length args <> prog.num_inputs then
    invalid_arg
      (Printf.sprintf "Fpan_ir.inline: %s wants %d args, got %d" prog.name prog.num_inputs
         (Array.length args));
  let base = Array.make (Array.length prog.gates) 0 in
  let subst = function In i -> args.(i) | Res (g, p) -> Res (base.(g), p) in
  Array.iteri
    (fun i g ->
      let g' =
        match g with
        | Two_sum (a, b') -> Two_sum (subst a, subst b')
        | Fast_two_sum (a, b') -> Fast_two_sum (subst a, subst b')
        | Two_prod (a, b') -> Two_prod (subst a, subst b')
        | Add (a, b') -> Add (subst a, subst b')
        | Mul (a, b') -> Mul (subst a, subst b')
        | Const c -> Const c
      in
      base.(i) <- B.push b g')
    prog.gates;
  Array.map subst prog.outputs

(* --- printing -------------------------------------------------------- *)

let pp_value ppf = function
  | In i -> Format.fprintf ppf "in%d" i
  | Res (g, p) -> Format.fprintf ppf "g%d.%d" g p

let pp ppf t =
  Format.fprintf ppf "@[<v>program %s: %d inputs, %d gates, %d flops@," t.name t.num_inputs
    (size t) (flops t);
  Array.iteri
    (fun i g ->
      Format.fprintf ppf "  g%-3d %-13s" i (gate_name g);
      (match g with
      | Const c -> Format.fprintf ppf " %h" c
      | _ ->
          List.iter (fun v -> Format.fprintf ppf " %a" pp_value v) (operands g));
      Format.fprintf ppf "@,")
    t.gates;
  Format.fprintf ppf "outputs:";
  Array.iter (fun v -> Format.fprintf ppf " %a" pp_value v) t.outputs;
  Format.fprintf ppf "@]"
