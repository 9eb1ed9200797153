(* Vocabulary of the adaptive-precision subsystem: which operations an
   accuracy SLA can be attached to, how requests describe their
   operands, and how operands move between tier widths.

   An SLA is an absolute-error budget in units of 2^-q: the server must
   return a result whose certified absolute error is at most
   [scale * 2^-q], where [scale] is a deterministic magnitude proxy for
   the operation (Certify.scale).  Only the certifiable core ops
   qualify — the transcendentals (exp/log/sin) and poly-eval carry no
   per-op error theorem and are rejected at the protocol boundary. *)

type op =
  | Add
  | Mul
  | Div
  | Sqrt
  | Sum
  | Dot
  | Axpy
  | Axpy_dot

type inputs = {
  x : float array array;
  y : float array array;
  z : float array array;
}

let q_min = 1
let q_max = 200

let op_name = function
  | Add -> "add"
  | Mul -> "mul"
  | Div -> "div"
  | Sqrt -> "sqrt"
  | Sum -> "sum"
  | Dot -> "dot"
  | Axpy -> "axpy"
  | Axpy_dot -> "program:axpy;dot"

let of_wire ~op ~prog =
  match (op, prog) with
  | "add", [] -> Some Add
  | "mul", [] -> Some Mul
  | "div", [] -> Some Div
  | "sqrt", [] -> Some Sqrt
  | "sum", [] -> Some Sum
  | "dot", [] -> Some Dot
  | "axpy", [] -> Some Axpy
  | "program", [ "sum" ] -> Some Sum
  | "program", [ "mul"; "sum" ] -> Some Dot
  | "program", [ "axpy"; "dot" ] -> Some Axpy_dot
  | _ -> None

let supported_wire_ops = [ "add"; "mul"; "div"; "sqrt"; "sum"; "dot"; "axpy"; "program" ]

let iter_elements inp f =
  Array.iter f inp.x;
  Array.iter f inp.y;
  Array.iter f inp.z

(* Uniform element width, or None when operands disagree (or there are
   no operands at all). *)
let width inp =
  let w = ref (-1) in
  let uniform = ref true in
  iter_elements inp (fun e ->
      let n = Array.length e in
      if !w = -1 then w := n else if n <> !w then uniform := false);
  if !uniform && !w >= 1 then Some !w else None

let finite inp =
  let ok = ref true in
  iter_elements inp (fun e ->
      Array.iter (fun c -> if not (Float.is_finite c) then ok := false) e);
  !ok

let min_terms = 2
let max_terms = 4

(* The escalation ladder starts at the cheapest tier that can hold the
   operands without truncation: widths 1 and 2 start at mf2, width 3 at
   mf3, width 4 at mf4. *)
let start_terms ~width = max min_terms width

(* The ladder's rungs, cheapest first: the MultiFloat tiers in term
   order from [min_terms], then the bigfloat fallback. *)
let rungs = [ "mf2"; "mf3"; "mf4"; "bigfloat" ]

let rung_rank name =
  let rec go i = function
    | [] -> i
    | r :: rest -> if String.equal r name then i else go (i + 1) rest
  in
  go 0 rungs

let terms_of_rung name =
  let terms = min_terms + rung_rank name in
  if terms <= max_terms then Some terms else None

let tier_name_of_terms terms =
  if terms < min_terms || terms > max_terms then
    invalid_arg (Printf.sprintf "Adaptive.Sla.tier_name_of_terms: %d" terms)
  else List.nth rungs (terms - min_terms)

(* The admission check, in the wire protocol's words: the protocol
   validator and the ladder both run it, so a request the server
   accepts is one the ladder serves. *)
let check ~q inp =
  if q < q_min || q > q_max then
    Error (Printf.sprintf "sla %d out of range [%d, %d]" q q_min q_max)
  else if not (finite inp) then Error "sla requires finite operand components"
  else
    match width inp with
    | Some w when w <= max_terms -> Ok (start_terms ~width:w)
    | _ ->
        Error
          (Printf.sprintf "sla operands must have a uniform element width of 1..%d components"
             max_terms)

(* Zero-padding is exact (the expansion's value is the sum of its
   components), which is what makes results at the finally-chosen tier
   bitwise identical to a direct fixed-tier request carrying the padded
   operands.  Truncation would change the value, so it is refused. *)
let pad_element ~terms e =
  let w = Array.length e in
  if w = terms then e
  else if w < terms then
    Array.init terms (fun i -> if i < w then e.(i) else 0.0)
  else
    invalid_arg
      (Printf.sprintf "Adaptive.Sla.pad_element: cannot narrow %d terms to %d" w terms)

let pad ~terms inp =
  let same rows = Array.for_all (fun e -> Array.length e = terms) rows in
  if same inp.x && same inp.y && same inp.z then inp
  else
    let p rows = Array.map (pad_element ~terms) rows in
    { x = p inp.x; y = p inp.y; z = p inp.z }
