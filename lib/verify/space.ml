(* Exhaustive operand spaces for the network sweeps.

   A sweep's operand space is the cartesian product of per-slot operand
   lists, each list enumerating every valid width-w expansion of a
   given term count inside an exponent budget.  Validity is the
   MultiFloat invariant at width w: components nonoverlapping in
   decreasing magnitude ([Minifloat.is_nonoverlapping_p]), and once a
   component is zero the rest are zero (a zero leading term admits no
   nonzero successor).

   Two symmetries of the precision-only rounding keep the product
   finite without losing generality (DESIGN.md s12):

   - scale equivariance: rnd_p (2^k x) = 2^k rnd_p x, so one slot's
     leading exponent is pinned to 0 ([`Anchored]);
   - sign symmetry: rnd_p is odd, so the anchored leading component is
     taken positive.

   The other slots range over a window of leading exponents relative
   to the anchor ([`Windowed ~window]) with both signs.  Tail
   components sit [0 .. gap-1] binades below the half-ulp nonoverlap
   limit of their predecessor; [gap] bounds how far apart the terms of
   one operand can be pulled, which is what bounds the sweep's total
   bit footprint. *)

module Minifloat = Gpu32.Minifloat

type t = {
  name : string;
  width : int;
  slots : float array array array;  (* slot -> choice -> components *)
  total : int;
}

let mantissa_values width =
  let half = 1 lsl (width - 1) in
  Array.init half (fun i -> half + i)

(* Values one operand component may take at leading exponent [e]:
   m * 2^(e - width + 1) for every width-bit mantissa m. *)
let at_exponent ~width e m = Float.ldexp (Float.of_int m) (e - width + 1)

(* Successors of a nonzero component [prev]: anything nonoverlapping at
   width w within [gap] binades of the limit.  At distance 0 only the
   exact half-ulp power of two survives the |v| <= 2^(ep - w) cut. *)
let tail_options ~width ~gap prev =
  let ep = Eft.exponent prev in
  let limit = Float.ldexp 1.0 (ep - width) in
  let out = ref [] in
  for d = 0 to gap - 1 do
    let e = ep - width - d in
    Array.iter
      (fun m ->
        let v = at_exponent ~width e m in
        if v <= limit then begin
          out := v :: !out;
          out := -.v :: !out
        end)
      (mantissa_values width)
  done;
  List.rev !out

type shape = Anchored | Windowed of int

let expansions ~width ~terms ~gap shape =
  if width < 2 || width > 26 then invalid_arg "Space.expansions: width out of [2, 26]";
  if terms < 1 then invalid_arg "Space.expansions: terms < 1";
  if gap < 1 then invalid_arg "Space.expansions: gap < 1";
  let leading =
    match shape with
    | Anchored ->
        Array.to_list (Array.map (fun m -> at_exponent ~width 0 m) (mantissa_values width))
    | Windowed window ->
        let out = ref [] in
        for e = -window to window do
          Array.iter
            (fun m ->
              let v = at_exponent ~width e m in
              out := -.v :: v :: !out)
            (mantissa_values width)
        done;
        List.rev !out
  in
  let acc = ref [] in
  let rec extend rev_comps k prev =
    if k = terms then acc := Array.of_list (List.rev rev_comps) :: !acc
    else if prev = 0.0 then extend (0.0 :: rev_comps) (k + 1) 0.0
    else
      List.iter
        (fun v -> extend (v :: rev_comps) (k + 1) v)
        (0.0 :: tail_options ~width ~gap prev)
  in
  (* the all-zero operand first, then every expansion by leading value *)
  extend [ 0.0 ] 1 0.0;
  List.iter (fun v -> extend [ v ] 1 v) leading;
  Array.of_list (List.rev !acc)

let make ~name ~width (slots : float array array array) =
  let total = Array.fold_left (fun acc s -> acc * Array.length s) 1 slots in
  if total <= 0 then invalid_arg "Space.make: empty slot";
  { name; width; slots; total }

(* Row-major tuple decoding: slot 0 varies slowest, so ascending tuple
   indices walk the last slot first — the enumeration order is part of
   the certificate's determinism contract. *)
let operands t idx =
  let n = Array.length t.slots in
  let out = Array.make n [||] in
  let rem = ref idx in
  for s = n - 1 downto 0 do
    let len = Array.length t.slots.(s) in
    out.(s) <- t.slots.(s).(!rem mod len);
    rem := !rem / len
  done;
  out

(* Concatenate the tuple's components into [buf] (component-major slot
   order — the layout of Front.add_kernel/mul_kernel and every kernel
   chain).  Allocation-free: the sweep's inner loop. *)
let fill_inputs t idx (buf : float array) =
  let n = Array.length t.slots in
  let rem = ref idx in
  (* slot start offsets *)
  let off = ref (Array.fold_left (fun a s -> a + Array.length s.(0)) 0 t.slots) in
  for s = n - 1 downto 0 do
    let len = Array.length t.slots.(s) in
    let comps = t.slots.(s).(!rem mod len) in
    rem := !rem / len;
    off := !off - Array.length comps;
    Array.blit comps 0 buf !off (Array.length comps)
  done

let num_inputs t = Array.fold_left (fun a s -> a + Array.length s.(0)) 0 t.slots

(* Exponent extrema over every component the space can produce, for the
   footprint bound: [max_exp] is the largest leading exponent, and
   [min_grid] the finest grid any component sits on (exponent - w + 1).
   Zero components are ignored. *)
let exponent_range t =
  let max_e = ref min_int and min_g = ref max_int in
  Array.iter
    (fun slot ->
      Array.iter
        (fun comps ->
          Array.iter
            (fun v ->
              if v <> 0.0 then begin
                let e = Eft.exponent v in
                if e > !max_e then max_e := e;
                if e - t.width + 1 < !min_g then min_g := e - t.width + 1
              end)
            comps)
        slot)
    t.slots;
  if !max_e = min_int then (0, 0) else (!max_e, !min_g)

(* A valid operand tuple outside the enumeration (shrunk
   counterexamples): every slot representable at the width and
   nonoverlapping in sequence. *)
let valid_operands ~width ops =
  Array.for_all
    (fun comps ->
      Array.for_all (fun v -> v = 0.0 || Minifloat.is_representable_p width v) comps
      && Minifloat.is_nonoverlapping_seq_p width comps
      (* once zero, always zero *)
      && (let seen_zero = ref false and ok = ref true in
          Array.iter
            (fun v ->
              if v = 0.0 then seen_zero := true else if !seen_zero then ok := false)
            comps;
          !ok))
    ops
