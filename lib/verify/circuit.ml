(* Constraint-circuit lowering of IR wire programs.

   A circuit makes the FPAN's floating-point structure fully explicit:
   every EFT gate of the source program is expanded into its
   branch-free constituent operations (the 6-op TwoSum, the 3-op
   FastTwoSum, the mul+fma TwoProd) over a flat register file, and
   every EFT gate contributes one *constraint* — the exactness
   obligation s + e = a + b (resp. p + e = a * b) that the paper's
   correctness argument rests on.  Evaluating the circuit with a
   reduced-width rounding and checking every constraint over an
   exhaustively enumerated operand space is what turns "no
   counterexample found" into "no counterexample exists at width w".

   This is the same shape as the branch-free float gadgets of the
   zkp circom labs (ROADMAP item 5): a straight-line list of rounded
   primitive ops plus a list of equations the honest execution must
   satisfy — except our "prover" is an exhaustive sweep rather than a
   SAT/SMT backend, so the certificate is a counted enumeration.

   Exactness checks are performed in double arithmetic, which is
   itself exact as long as the operand space's bit footprint stays
   below 53 bits (lib/verify/space.ml computes and enforces the
   footprint; DESIGN.md s12 spells out the argument). *)

type prim =
  | Padd of int * int  (* regs *)
  | Psub of int * int
  | Pmul of int * int
  | Pfma of int * int * int  (* round (fma a b c) — used only by TwoProd lowering *)
  | Pneg of int  (* exact: RNE is odd-symmetric *)
  | Pconst of float

type node = { dst : int; prim : prim }

type eft_kind = Ts | Fts | Tp

(* One exactness obligation: registers holding the operands and the
   (sum, error) results of an EFT gate of the source program. *)
type eft = { gate : int; kind : eft_kind; a : int; b : int; s : int; e : int }

type t = {
  ir : Fpan_ir.Ir.t;
  nodes : node array;
  efts : eft array;
  input_regs : int array;  (* register of program input i (= i) *)
  output_regs : int array;
  num_regs : int;
}

let of_ir (ir : Fpan_ir.Ir.t) : t =
  let nodes = ref [] in
  let efts = ref [] in
  let n_inputs = ir.Fpan_ir.Ir.num_inputs in
  let next = ref n_inputs in
  let fresh prim =
    let r = !next in
    incr next;
    nodes := { dst = r; prim } :: !nodes;
    r
  in
  (* register holding port k of IR gate g *)
  let ports = Array.make (Array.length ir.Fpan_ir.Ir.gates) (0, 0) in
  let reg_of = function
    | Fpan_ir.Ir.In i -> i
    | Fpan_ir.Ir.Res (g, k) ->
        let p0, p1 = ports.(g) in
        if k = 0 then p0 else p1
  in
  Array.iteri
    (fun gi gate ->
      match gate with
      | Fpan_ir.Ir.Two_sum (a, b) ->
          let ra = reg_of a and rb = reg_of b in
          let s = fresh (Padd (ra, rb)) in
          let x_eff = fresh (Psub (s, rb)) in
          let y_eff = fresh (Psub (s, x_eff)) in
          let dx = fresh (Psub (ra, x_eff)) in
          let dy = fresh (Psub (rb, y_eff)) in
          let e = fresh (Padd (dx, dy)) in
          efts := { gate = gi; kind = Ts; a = ra; b = rb; s; e } :: !efts;
          ports.(gi) <- (s, e)
      | Fpan_ir.Ir.Fast_two_sum (a, b) ->
          let ra = reg_of a and rb = reg_of b in
          let s = fresh (Padd (ra, rb)) in
          let y_eff = fresh (Psub (s, ra)) in
          let e = fresh (Psub (rb, y_eff)) in
          efts := { gate = gi; kind = Fts; a = ra; b = rb; s; e } :: !efts;
          ports.(gi) <- (s, e)
      | Fpan_ir.Ir.Two_prod (a, b) ->
          let ra = reg_of a and rb = reg_of b in
          let p = fresh (Pmul (ra, rb)) in
          let np = fresh (Pneg p) in
          let e = fresh (Pfma (ra, rb, np)) in
          efts := { gate = gi; kind = Tp; a = ra; b = rb; s = p; e } :: !efts;
          ports.(gi) <- (p, e)
      | Fpan_ir.Ir.Add (a, b) ->
          let r = fresh (Padd (reg_of a, reg_of b)) in
          ports.(gi) <- (r, r)
      | Fpan_ir.Ir.Mul (a, b) ->
          let r = fresh (Pmul (reg_of a, reg_of b)) in
          ports.(gi) <- (r, r)
      | Fpan_ir.Ir.Const c ->
          let r = fresh (Pconst c) in
          ports.(gi) <- (r, r))
    ir.Fpan_ir.Ir.gates;
  {
    ir;
    nodes = Array.of_list (List.rev !nodes);
    efts = Array.of_list (List.rev !efts);
    input_regs = Array.init n_inputs (fun i -> i);
    output_regs = Array.map reg_of ir.Fpan_ir.Ir.outputs;
    num_regs = !next;
  }

let make_regs c = Array.make c.num_regs 0.0

(* Evaluate the circuit: inputs into registers 0..n-1, then every node
   in order, each primitive rounded through [round].  [regs] is caller
   scratch (reused across the millions of tuples of a sweep). *)
let eval c ~round ~(regs : float array) (inputs : float array) =
  Array.blit inputs 0 regs 0 (Array.length inputs);
  Array.iter
    (fun { dst; prim } ->
      regs.(dst) <-
        (match prim with
        | Padd (a, b) -> round (regs.(a) +. regs.(b))
        | Psub (a, b) -> round (regs.(a) -. regs.(b))
        | Pmul (a, b) -> round (regs.(a) *. regs.(b))
        | Pfma (a, b, x) -> round (Float.fma regs.(a) regs.(b) regs.(x))
        | Pneg a -> -.regs.(a)
        | Pconst v -> round v))
    c.nodes;
  ()

let outputs c ~(regs : float array) = Array.map (fun r -> regs.(r)) c.output_regs

(* Constraint verdicts.  [Skipped] marks the carve-outs the paper
   itself makes: an intermediate overflowed to infinity (full formats
   only; the precision-only rounding never overflows), or a TwoProd
   whose true error term is not representable at the width (the
   Section 4.4 underflow saturation).  [representable] decides the
   latter — pass the sweep's rounding. *)
type verdict = Holds | Violated | Skipped

let check_eft ~(regs : float array) ~(representable : float -> bool) (k : eft) : verdict =
  let a = regs.(k.a) and b = regs.(k.b) and s = regs.(k.s) and e = regs.(k.e) in
  if
    not
      (Float.is_finite a && Float.is_finite b && Float.is_finite s && Float.is_finite e)
  then Skipped
  else begin
    match k.kind with
    | Ts | Fts ->
        (* s + e = a + b, all four exactly representable in double and
           the sums exact under the footprint bound *)
        if s +. e = a +. b then Holds else Violated
    | Tp ->
        (* p + e = a * b; skip when the true error cannot be
           represented at the width at all (underflow saturation) *)
        let true_err = Float.fma a b (-.s) in
        if not (representable true_err) then Skipped
        else if s +. e = a *. b then Holds
        else Violated
  end

let n_efts c = Array.length c.efts
let eft_kind c i = c.efts.(i).kind
let ir_gate c i = c.efts.(i).gate

let kind_name = function Ts -> "two_sum" | Fts -> "fast_two_sum" | Tp -> "two_prod"

let size c = Array.length c.nodes

let pp ppf c =
  Format.fprintf ppf "@[<v>circuit %s: %d inputs, %d ops, %d constraints@," c.ir.Fpan_ir.Ir.name
    (Array.length c.input_regs) (Array.length c.nodes) (Array.length c.efts);
  Array.iter
    (fun { dst; prim } ->
      (match prim with
      | Padd (a, b) -> Format.fprintf ppf "  r%-3d = rnd(r%d + r%d)" dst a b
      | Psub (a, b) -> Format.fprintf ppf "  r%-3d = rnd(r%d - r%d)" dst a b
      | Pmul (a, b) -> Format.fprintf ppf "  r%-3d = rnd(r%d * r%d)" dst a b
      | Pfma (a, b, x) -> Format.fprintf ppf "  r%-3d = rnd(fma(r%d, r%d, r%d))" dst a b x
      | Pneg a -> Format.fprintf ppf "  r%-3d = -r%d" dst a
      | Pconst v -> Format.fprintf ppf "  r%-3d = %h" dst v);
      Format.fprintf ppf "@,")
    c.nodes;
  Array.iter
    (fun k ->
      Format.fprintf ppf "  assert %s: r%d + r%d = r%d %s r%d@," (kind_name k.kind) k.s k.e k.a
        (match k.kind with Tp -> "*" | _ -> "+")
        k.b)
    c.efts;
  Format.fprintf ppf "outputs:";
  Array.iter (fun r -> Format.fprintf ppf " r%d" r) c.output_regs;
  Format.fprintf ppf "@]"
