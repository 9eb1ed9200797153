(* Staging by codegen: emit IR programs as straight-line OCaml float
   code, and assemble the two generated modules of lib/multifloat from
   them: scalar.ml (the Mf2/Mf3/Mf4 kernels) and batch.ml (the planar
   vectors).  This is the only place a kernel's gate sequence is
   written down; dune rules in lib/multifloat/dune run gen/gen_scalar.exe
   and gen/gen_batch.exe at build time, and neither file is checked in.

   [emit_program] is the per-program emitter: one let-binding per
   intermediate, named by a per-program counter and a letter by gate
   kind (TwoSum -> s/t/e, FastTwoSum -> s/e, TwoProd -> p/e plus k/h/l
   for Dekker splits, Mul -> m, Add -> a, Const -> c), so the
   emitted code reads gate for gate against [Ir.pp]'s listing.
   [scalar_ml] and [batch_ml] render the files: fixed templates for the
   module plumbing, emitted programs for every kernel body. *)

let spf = Printf.sprintf
let bpf = Printf.bprintf

(* How a [Two_prod] gate is realised: the error term by one fused
   multiply-add, or by Veltkamp-Dekker splitting in
   [Eft.two_prod_dekker]'s operation order (the multiplication kernel
   for hardware without an FMA). *)
type two_prod = Fma | Dekker

(* 2^27 + 1: [Eft.split]'s Veltkamp constant for p = 53. *)
let splitter = 134217729.0

let emit_program ?(two_prod = Fma) buf ~indent ~prefix (p : Ir.t) ~(args : string array) :
    string array =
  if Array.length args <> p.Ir.num_inputs then
    invalid_arg
      (spf "Fpan_ir.Codegen.emit_program: %s wants %d args, got %d" p.Ir.name p.Ir.num_inputs
         (Array.length args));
  let names = Array.make (Array.length p.Ir.gates) [||] in
  let k = ref 0 in
  let fresh letter =
    incr k;
    spf "%s%s%d" prefix letter !k
  in
  let v = function Ir.In i -> args.(i) | Ir.Res (g, port) -> names.(g).(port) in
  let line l =
    Buffer.add_string buf indent;
    Buffer.add_string buf l;
    Buffer.add_char buf '\n'
  in
  (* [Eft.split x]: (hi, lo) with x = hi + lo exactly *)
  let split x =
    let t = fresh "k" in
    line (spf "let %s = %h *. %s in" t splitter x);
    let hi = fresh "h" in
    line (spf "let %s = %s -. (%s -. %s) in" hi t t x);
    let lo = fresh "l" in
    line (spf "let %s = %s -. %s in" lo x hi);
    (hi, lo)
  in
  Array.iteri
    (fun i g ->
      match g with
      | Ir.Two_sum (a, b) ->
          let a = v a and b = v b in
          let s = fresh "s" in
          line (spf "let %s = %s +. %s in" s a b);
          let t = fresh "t" in
          line (spf "let %s = %s -. %s in" t s b);
          let e = fresh "e" in
          line (spf "let %s = (%s -. %s) +. (%s -. (%s -. %s)) in" e a t b s t);
          names.(i) <- [| s; e |]
      | Ir.Fast_two_sum (a, b) ->
          let a = v a and b = v b in
          let s = fresh "s" in
          line (spf "let %s = %s +. %s in" s a b);
          let e = fresh "e" in
          line (spf "let %s = %s -. (%s -. %s) in" e b s a);
          names.(i) <- [| s; e |]
      | Ir.Two_prod (a, b) -> (
          let a = v a and b = v b in
          let pr = fresh "p" in
          line (spf "let %s = %s *. %s in" pr a b);
          match two_prod with
          | Fma ->
              let e = fresh "e" in
              line (spf "let %s = Float.fma %s %s (-. %s) in" e a b pr);
              names.(i) <- [| pr; e |]
          | Dekker ->
              let ah, al = split a in
              let bh, bl = split b in
              let e = fresh "e" in
              line
                (spf "let %s = ((((%s *. %s) -. %s) +. (%s *. %s)) +. (%s *. %s)) +. (%s *. %s) in"
                   e ah bh pr ah bl al bh al bl);
              names.(i) <- [| pr; e |])
      | Ir.Add (a, b) ->
          let a = v a and b = v b in
          let n = fresh "a" in
          line (spf "let %s = %s +. %s in" n a b);
          names.(i) <- [| n |]
      | Ir.Mul (a, b) ->
          let a = v a and b = v b in
          let n = fresh "m" in
          line (spf "let %s = %s *. %s in" n a b);
          names.(i) <- [| n |]
      | Ir.Const c ->
          let n = fresh "c" in
          line (spf "let %s = %h in" n c);
          names.(i) <- [| n |])
    p.Ir.gates;
  Array.map v p.Ir.outputs

(* --- batch.ml assembly ----------------------------------------------- *)

type tier = { t : int; mf : string }

let tiers = [ { t = 2; mf = "Mf2" }; { t = 3; mf = "Mf3" }; { t = 4; mf = "Mf4" } ]

let seq t f = List.init t f
let cat sep t f = String.concat sep (seq t f)

(* "let a0 = x.c0 and a1 = x.c1 and b0 = y.c0 ... in" *)
let hoist tr srcs =
  "let "
  ^ String.concat " and "
      (List.concat_map (fun (l, r) -> seq tr.t (fun k -> spf "%s%d = %s.c%d" l k r k)) srcs)
  ^ " in"

let loads buf tr ~local ~plane ~idx ~neg =
  for k = 0 to tr.t - 1 do
    if neg then bpf buf "      let %s%d = -.(F.unsafe_get %s%d %s) in\n" local k plane k idx
    else bpf buf "      let %s%d = F.unsafe_get %s%d %s in\n" local k plane k idx
  done

let names local tr = Array.init tr.t (fun k -> spf "%s%d" local k)
let acc_names tr = Array.init tr.t (fun k -> spf "!acc%d" k)

(* alpha components hoist: "let al = Mf2.components alpha in let al0 = ..." *)
let scalar_hoist buf tr ~arr ~local ~expr =
  bpf buf "    let %s = %s.components %s in\n" arr tr.mf expr;
  bpf buf "    let %s in\n" (cat " and " tr.t (fun k -> spf "%s%d = %s.(%d)" local k arr k))

(* the fold accumulators, started from [init]'s components *)
let acc_init buf tr =
  bpf buf "    let ic = %s.components init in\n" tr.mf;
  bpf buf "    %s\n" (cat " " tr.t (fun k -> spf "let acc%d = ref ic.(%d) in" k k))

let stores buf tr ~plane ~idx (outs : string array) =
  for k = 0 to tr.t - 1 do
    bpf buf "      F.unsafe_set %s%d %s %s;\n" plane k idx outs.(k)
  done

let acc_stores buf tr (outs : string array) =
  for k = 0 to tr.t - 1 do
    bpf buf "      acc%d := %s;\n" k outs.(k)
  done

let of_accs tr = spf "%s.of_components [| %s |]" tr.mf (cat "; " tr.t (fun k -> spf "!acc%d" k))

(* Every loop body below is one program, emitted in one call: the
   dst-writing elementwise kernels (add / sub / mul) run a Front kernel,
   the others the Fuse chain that lib/verify proves. *)
let emit_ew buf tr ~name ~prog ~neg_y =
  bpf buf "  let %s ~dst a b =\n" name;
  bpf buf "    check2 \"Batch.%s\" a b;\n" name;
  bpf buf "    check2 \"Batch.%s\" a dst;\n" name;
  bpf buf "    %s\n" (hoist tr [ ("a", "a"); ("b", "b"); ("d", "dst") ]);
  bpf buf "    for i = 0 to a.n - 1 do\n";
  loads buf tr ~local:"x" ~plane:"a" ~idx:"i" ~neg:false;
  loads buf tr ~local:"y" ~plane:"b" ~idx:"i" ~neg:neg_y;
  let outs =
    emit_program buf ~indent:"      " ~prefix:"v" prog
      ~args:(Array.append (names "x" tr) (names "y" tr))
  in
  stores buf tr ~plane:"d" ~idx:"i" outs;
  bpf buf "      ()\n    done\n"

let emit_axpy buf tr =
  bpf buf "  let axpy ~lo ~hi ~alpha ~x ~y =\n";
  bpf buf "    check2 \"Batch.axpy\" x y;\n";
  bpf buf "    if lo < 0 || hi > x.n || lo > hi then invalid_arg \"Batch.axpy\";\n";
  scalar_hoist buf tr ~arr:"al" ~local:"al" ~expr:"alpha";
  bpf buf "    %s\n" (hoist tr [ ("a", "x"); ("b", "y") ]);
  bpf buf "    for i = lo to hi - 1 do\n";
  loads buf tr ~local:"x" ~plane:"a" ~idx:"i" ~neg:false;
  loads buf tr ~local:"y" ~plane:"b" ~idx:"i" ~neg:false;
  let outs =
    emit_program buf ~indent:"      " ~prefix:"v" (Fuse.axpy tr.t)
      ~args:(Array.concat [ names "al" tr; names "x" tr; names "y" tr ])
  in
  stores buf tr ~plane:"b" ~idx:"i" outs;
  bpf buf "      ()\n    done\n"

let emit_madd buf tr =
  bpf buf "  let madd ~alpha ~x ~xoff ~y ~yoff ~len =\n";
  bpf buf "    check_range \"Batch.madd\" x ~off:xoff ~len;\n";
  bpf buf "    check_range \"Batch.madd\" y ~off:yoff ~len;\n";
  scalar_hoist buf tr ~arr:"al" ~local:"al" ~expr:"alpha";
  bpf buf "    %s\n" (hoist tr [ ("a", "x"); ("b", "y") ]);
  bpf buf "    for i = 0 to len - 1 do\n";
  loads buf tr ~local:"x" ~plane:"a" ~idx:"(xoff + i)" ~neg:false;
  loads buf tr ~local:"y" ~plane:"b" ~idx:"(yoff + i)" ~neg:false;
  let outs =
    emit_program buf ~indent:"      " ~prefix:"v" (Fuse.madd tr.t)
      ~args:(Array.concat [ names "al" tr; names "x" tr; names "y" tr ])
  in
  stores buf tr ~plane:"b" ~idx:"(yoff + i)" outs;
  bpf buf "      ()\n    done\n"

let emit_dot buf tr =
  bpf buf "  let dot ~init ~x ~xoff ~y ~yoff ~len =\n";
  bpf buf "    check_range \"Batch.dot\" x ~off:xoff ~len;\n";
  bpf buf "    check_range \"Batch.dot\" y ~off:yoff ~len;\n";
  acc_init buf tr;
  bpf buf "    %s\n" (hoist tr [ ("a", "x"); ("b", "y") ]);
  bpf buf "    for i = 0 to len - 1 do\n";
  loads buf tr ~local:"x" ~plane:"a" ~idx:"(xoff + i)" ~neg:false;
  loads buf tr ~local:"y" ~plane:"b" ~idx:"(yoff + i)" ~neg:false;
  let outs =
    emit_program buf ~indent:"      " ~prefix:"v" (Fuse.dot_step tr.t)
      ~args:(Array.concat [ acc_names tr; names "x" tr; names "y" tr ])
  in
  acc_stores buf tr outs;
  bpf buf "      ()\n    done;\n";
  bpf buf "    %s\n" (of_accs tr)

let emit_sum buf tr =
  bpf buf "  let sum ~init ~x ~xoff ~len =\n";
  bpf buf "    check_range \"Batch.sum\" x ~off:xoff ~len;\n";
  acc_init buf tr;
  bpf buf "    %s\n" (hoist tr [ ("a", "x") ]);
  bpf buf "    for i = 0 to len - 1 do\n";
  loads buf tr ~local:"x" ~plane:"a" ~idx:"(xoff + i)" ~neg:false;
  let outs =
    emit_program buf ~indent:"      " ~prefix:"v" (Fuse.sum_step tr.t)
      ~args:(Array.append (acc_names tr) (names "x" tr))
  in
  acc_stores buf tr outs;
  bpf buf "      ()\n    done;\n";
  bpf buf "    %s\n" (of_accs tr)

(* [axpy] then [dot] re-reading the updated [y]: a composition, not a
   loop of its own *)
let emit_axpy_dot buf =
  bpf buf "  let axpy_dot ~lo ~hi ~alpha ~x ~y ~w ~init =\n";
  bpf buf "    axpy ~lo ~hi ~alpha ~x ~y;\n";
  bpf buf "    dot ~init ~x:y ~xoff:lo ~y:w ~yoff:lo ~len:(hi - lo)\n"

let emit_transpose buf tr =
  bpf buf "  let transpose ~m ~n ~src ~dst =\n";
  bpf buf
    "    check_transpose \"Batch.transpose\" ~m ~n ~src_len:src.n ~dst_len:dst.n (src == dst)";
  for k = 0 to tr.t - 1 do
    bpf buf ";\n    transpose_plane ~m ~n src.c%d dst.c%d" k k
  done;
  bpf buf "\nend\n"

let emit_tier buf tr =
  bpf buf "module %sv = struct\n" tr.mf;
  bpf buf "  type elt = %s.t\n\n" tr.mf;
  bpf buf "  type t = { n : int; %s }\n\n" (cat "; " tr.t (fun k -> spf "c%d : floatarray" k));
  bpf buf "  let terms = %d\n" tr.t;
  bpf buf "  let length v = v.n\n\n";
  bpf buf "  let create n = { n; %s }\n" (cat "; " tr.t (fun k -> spf "c%d = F.make n 0.0" k));
  bpf buf "  let copy v = { n = v.n; %s }\n\n" (cat "; " tr.t (fun k -> spf "c%d = F.copy v.c%d" k k));
  bpf buf "  let get v i = %s.of_components [| %s |]\n\n" tr.mf
    (cat "; " tr.t (fun k -> spf "F.get v.c%d i" k));
  bpf buf "  let set v i e =\n";
  bpf buf "    let c = %s.components e in\n" tr.mf;
  bpf buf "    %s\n" (cat " " tr.t (fun k -> spf "F.set v.c%d i c.(%d);" k k));
  bpf buf "    ()\n\n";
  bpf buf "  let of_array es =\n";
  bpf buf "    let v = create (Array.length es) in\n";
  bpf buf "    Array.iteri (fun i e -> set v i e) es;\n";
  bpf buf "    v\n\n";
  bpf buf "  let to_array v = Array.init v.n (get v)\n\n";
  bpf buf "  let of_floats fs =\n";
  bpf buf "    let v = create (Array.length fs) in\n";
  bpf buf "    Array.iteri (fun i f -> F.set v.c0 i f) fs;\n";
  bpf buf "    v\n\n";
  bpf buf "  let to_floats v = Array.init v.n (fun i -> F.get v.c0 i)\n\n";
  bpf buf "  let check2 name a b = if a.n <> b.n then invalid_arg name\n\n";
  bpf buf "  let check_range name v ~off ~len =\n";
  bpf buf "    if off < 0 || len < 0 || off + len > v.n then invalid_arg name\n\n";
  emit_ew buf tr ~name:"add" ~prog:(Front.add_kernel tr.t) ~neg_y:false;
  bpf buf "\n";
  emit_ew buf tr ~name:"sub" ~prog:(Front.add_kernel tr.t) ~neg_y:true;
  bpf buf "\n";
  emit_ew buf tr ~name:"mul" ~prog:(Front.mul_kernel tr.t) ~neg_y:false;
  bpf buf "\n";
  emit_axpy buf tr;
  bpf buf "\n";
  emit_madd buf tr;
  bpf buf "\n";
  emit_dot buf tr;
  bpf buf "\n";
  emit_sum buf tr;
  bpf buf "\n";
  emit_axpy_dot buf;
  bpf buf "\n";
  emit_transpose buf tr

let header =
  {|(* Planar (structure-of-arrays) MultiFloat vectors: an n-element
   2/3/4-term vector is stored as [terms] parallel unboxed
   [floatarray]s, one per expansion component, instead of an OCaml
   array of boxed component records.

   The batched operations below run the branch-free FPAN wire
   programs of [Mf2]/[Mf3]/[Mf4] element-wise over the planes, with
   every TwoSum/FastTwoSum/TwoProd gate expanded to straight-line
   float code (no tuple returns, no per-element heap allocation; OCaml
   unboxes the local floats and float refs).  The scalar kernels are
   emitted from the same programs by the same emitter, so batched
   results are bitwise equal to the scalar loops by construction
   (test/test_batch.ml and test/test_edge_semantics.ml check it).

   This is the OCaml stand-in for the paper's cross-element
   autovectorization (Section 5): branch-freedom makes the element loop
   a fixed dataflow, and the planar layout is what lets that dataflow
   stream through the FPU without pointer chasing -- the same reason the
   paper's AVX-512/NEON lanes want their operands planar.

   GENERATED at build time by lib/fpan_ir/gen/gen_batch.ml:
   Fpan_ir.Front derives an IR program gate-for-gate from each
   Fpan.Networks network, Fpan_ir.Fuse composes the loop bodies, and
   Fpan_ir.Codegen stages them as the straight-line kernels below.
   To change a kernel, edit the generator. *)

module F = Float.Array

(* Plane-level transpose helper shared by every vector size: dst is the
   column-major image of an m*n row-major plane.  Blocked 32x32 so both
   the gathered and scattered side stream through cache; pure float
   loads/stores, no boxing. *)
let transpose_plane ~m ~n src dst =
  let bs = 32 in
  let i0 = ref 0 in
  while !i0 < m do
    let ih = min m (!i0 + bs) in
    let j0 = ref 0 in
    while !j0 < n do
      let jh = min n (!j0 + bs) in
      for i = !i0 to ih - 1 do
        for j = !j0 to jh - 1 do
          F.unsafe_set dst ((j * m) + i) (F.unsafe_get src ((i * n) + j))
        done
      done;
      j0 := jh
    done;
    i0 := ih
  done

let check_transpose name ~m ~n ~src_len ~dst_len same =
  let fail what = invalid_arg (Printf.sprintf "%s: %s" name what) in
  if m < 0 || n < 0 then fail (Printf.sprintf "negative dimensions m=%d n=%d" m n);
  if src_len <> m * n then
    fail (Printf.sprintf "src length %d, want m*n = %d" src_len (m * n));
  if dst_len <> m * n then
    fail (Printf.sprintf "dst length %d, want m*n = %d" dst_len (m * n));
  if same then fail "src and dst alias"

(** Planar vector operations over one MultiFloat size.  The fold and
    update operations fix the accumulation order of the scalar BLAS
    kernels: [axpy] computes [y.(i) <- add (mul alpha x.(i)) y.(i)],
    [madd] computes [y.(yoff+i) <- add y.(yoff+i) (mul alpha
    x.(xoff+i))], and [dot] folds [acc <- add acc (mul x.(xoff+i)
    y.(yoff+i))] in index order starting from [init]; [sum] folds
    [acc <- add acc x.(xoff+i)] the same way. *)
module type V = sig
  type elt
  (** The scalar MultiFloat element type. *)

  type t
  (** A planar vector of [elt]s. *)

  val terms : int
  val length : t -> int

  val create : int -> t
  (** Zero-filled planar vector. *)

  val copy : t -> t
  val get : t -> int -> elt
  val set : t -> int -> elt -> unit
  val of_array : elt array -> t
  val to_array : t -> elt array

  val of_floats : float array -> t
  (** Lift doubles: component 0 takes the value, the rest are zero. *)

  val to_floats : t -> float array
  (** Leading components. *)

  val add : dst:t -> t -> t -> unit
  (** Elementwise; [dst] may alias either operand. *)

  val sub : dst:t -> t -> t -> unit
  val mul : dst:t -> t -> t -> unit

  val axpy : lo:int -> hi:int -> alpha:elt -> x:t -> y:t -> unit
  (** [y.(i) <- add (mul alpha x.(i)) y.(i)] for [lo <= i < hi]. *)

  val madd : alpha:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> unit
  (** [y.(yoff+i) <- add y.(yoff+i) (mul alpha x.(xoff+i))]: the GEMM
      rank-1 row update, accumulator-first operand order. *)

  val dot : init:elt -> x:t -> xoff:int -> y:t -> yoff:int -> len:int -> elt
  (** Index-order fold [acc <- add acc (mul x.(xoff+i) y.(yoff+i))]. *)

  val sum : init:elt -> x:t -> xoff:int -> len:int -> elt
  (** Index-order fold [acc <- add acc x.(xoff+i)]. *)

  val axpy_dot : lo:int -> hi:int -> alpha:elt -> x:t -> y:t -> w:t -> init:elt -> elt
  (** [axpy ~lo ~hi ~alpha ~x ~y], then the [dot] of the updated [y]
      against [w] over the same range, started from [init]. *)

  val transpose : m:int -> n:int -> src:t -> dst:t -> unit
  (** [dst.(j*m+i) <- src.(i*n+j)] viewing [src] as an [m*n] row-major
      matrix: the plane-wise matrix transpose (used by the tiled
      runtime engine to pack [B^T] so GEMM columns become contiguous
      dot operands).  [dst] must be a distinct vector of length
      [m*n]. *)
end

(* ------------------------------------------------------------------ *)
(* 1-term vectors: native doubles in a single plane, so the 53-bit row
   of the benchmark tables runs through the same batched kernels.      *)

module Mf1v = struct
  type elt = float

  type t = { n : int; c0 : floatarray }

  let terms = 1
  let length v = v.n
  let create n = { n; c0 = F.make n 0.0 }
  let copy v = { n = v.n; c0 = F.copy v.c0 }
  let get v i = F.get v.c0 i
  let set v i e = F.set v.c0 i e
  let of_array es = { n = Array.length es; c0 = F.init (Array.length es) (Array.get es) }
  let to_array v = Array.init v.n (F.get v.c0)
  let of_floats = of_array
  let to_floats = to_array

  let check2 name a b = if a.n <> b.n then invalid_arg name

  let check_range name v ~off ~len =
    if off < 0 || len < 0 || off + len > v.n then invalid_arg name

  let add ~dst a b =
    check2 "Batch.add" a dst;
    check2 "Batch.add" a b;
    for i = 0 to a.n - 1 do
      F.unsafe_set dst.c0 i (F.unsafe_get a.c0 i +. F.unsafe_get b.c0 i)
    done

  let sub ~dst a b =
    check2 "Batch.sub" a dst;
    check2 "Batch.sub" a b;
    for i = 0 to a.n - 1 do
      F.unsafe_set dst.c0 i (F.unsafe_get a.c0 i -. F.unsafe_get b.c0 i)
    done

  let mul ~dst a b =
    check2 "Batch.mul" a dst;
    check2 "Batch.mul" a b;
    for i = 0 to a.n - 1 do
      F.unsafe_set dst.c0 i (F.unsafe_get a.c0 i *. F.unsafe_get b.c0 i)
    done

  let axpy ~lo ~hi ~alpha ~x ~y =
    check2 "Batch.axpy" x y;
    if lo < 0 || hi > x.n || lo > hi then invalid_arg "Batch.axpy";
    for i = lo to hi - 1 do
      F.unsafe_set y.c0 i ((alpha *. F.unsafe_get x.c0 i) +. F.unsafe_get y.c0 i)
    done

  let madd ~alpha ~x ~xoff ~y ~yoff ~len =
    check_range "Batch.madd" x ~off:xoff ~len;
    check_range "Batch.madd" y ~off:yoff ~len;
    for i = 0 to len - 1 do
      F.unsafe_set y.c0 (yoff + i)
        (F.unsafe_get y.c0 (yoff + i) +. (alpha *. F.unsafe_get x.c0 (xoff + i)))
    done

  let dot ~init ~x ~xoff ~y ~yoff ~len =
    check_range "Batch.dot" x ~off:xoff ~len;
    check_range "Batch.dot" y ~off:yoff ~len;
    let acc = ref init in
    for i = 0 to len - 1 do
      acc := !acc +. (F.unsafe_get x.c0 (xoff + i) *. F.unsafe_get y.c0 (yoff + i))
    done;
    !acc

  let sum ~init ~x ~xoff ~len =
    check_range "Batch.sum" x ~off:xoff ~len;
    let acc = ref init in
    for i = 0 to len - 1 do
      acc := !acc +. F.unsafe_get x.c0 (xoff + i)
    done;
    !acc

  let axpy_dot ~lo ~hi ~alpha ~x ~y ~w ~init =
    axpy ~lo ~hi ~alpha ~x ~y;
    dot ~init ~x:y ~xoff:lo ~y:w ~yoff:lo ~len:(hi - lo)

  let transpose ~m ~n ~src ~dst =
    check_transpose "Batch.transpose" ~m ~n ~src_len:src.n ~dst_len:dst.n (src == dst);
    transpose_plane ~m ~n src.c0 dst.c0
end

|}

let footer =
  {|
(* ------------------------------------------------------------------ *)
(* Generic fallback: planar layout over any scalar expansion type.     *)

(** What {!Of_scalar} needs from a scalar arithmetic: the
    component-array view plus the three ring operations. *)
module type SCALAR = sig
  type t

  val terms : int
  val zero : t
  val of_float : float -> t
  val to_float : t -> float
  val components : t -> float array
  val of_components : float array -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
end

(** Planar storage with element-at-a-time scalar arithmetic: the same
    layout and accumulation orders as the generated vectors, for
    types without a specialized batch kernel (e.g. the emulated-float32
    GPU types).  Semantically -- and bitwise -- identical to running
    the scalar kernels over an element array. *)
module Of_scalar (K : SCALAR) : V with type elt = K.t = struct
  type elt = K.t

  type t = { n : int; planes : floatarray array }

  let terms = K.terms
  let length v = v.n
  let create n = { n; planes = Array.init K.terms (fun _ -> F.make n 0.0) }
  let copy v = { n = v.n; planes = Array.map F.copy v.planes }

  let get v i = K.of_components (Array.init K.terms (fun k -> F.get v.planes.(k) i))

  let set v i e =
    let c = K.components e in
    for k = 0 to K.terms - 1 do
      F.set v.planes.(k) i c.(k)
    done

  let of_array es =
    let v = create (Array.length es) in
    Array.iteri (fun i e -> set v i e) es;
    v

  let to_array v = Array.init v.n (get v)

  let of_floats fs =
    let v = create (Array.length fs) in
    Array.iteri (fun i f -> set v i (K.of_float f)) fs;
    v

  let to_floats v = Array.init v.n (fun i -> K.to_float (get v i))

  let check2 name a b = if a.n <> b.n then invalid_arg name

  let check_range name v ~off ~len =
    if off < 0 || len < 0 || off + len > v.n then invalid_arg name

  let ew name f ~dst a b =
    check2 name a dst;
    check2 name a b;
    for i = 0 to a.n - 1 do
      set dst i (f (get a i) (get b i))
    done

  let add ~dst a b = ew "Batch.add" K.add ~dst a b
  let sub ~dst a b = ew "Batch.sub" K.sub ~dst a b
  let mul ~dst a b = ew "Batch.mul" K.mul ~dst a b

  let axpy ~lo ~hi ~alpha ~x ~y =
    check2 "Batch.axpy" x y;
    if lo < 0 || hi > x.n || lo > hi then invalid_arg "Batch.axpy";
    for i = lo to hi - 1 do
      set y i (K.add (K.mul alpha (get x i)) (get y i))
    done

  let madd ~alpha ~x ~xoff ~y ~yoff ~len =
    check_range "Batch.madd" x ~off:xoff ~len;
    check_range "Batch.madd" y ~off:yoff ~len;
    for i = 0 to len - 1 do
      set y (yoff + i) (K.add (get y (yoff + i)) (K.mul alpha (get x (xoff + i))))
    done

  let dot ~init ~x ~xoff ~y ~yoff ~len =
    check_range "Batch.dot" x ~off:xoff ~len;
    check_range "Batch.dot" y ~off:yoff ~len;
    let acc = ref init in
    for i = 0 to len - 1 do
      acc := K.add !acc (K.mul (get x (xoff + i)) (get y (yoff + i)))
    done;
    !acc

  let sum ~init ~x ~xoff ~len =
    check_range "Batch.sum" x ~off:xoff ~len;
    let acc = ref init in
    for i = 0 to len - 1 do
      acc := K.add !acc (get x (xoff + i))
    done;
    !acc

  let axpy_dot ~lo ~hi ~alpha ~x ~y ~w ~init =
    axpy ~lo ~hi ~alpha ~x ~y;
    dot ~init ~x:y ~xoff:lo ~y:w ~yoff:lo ~len:(hi - lo)

  let transpose ~m ~n ~src ~dst =
    check_transpose "Batch.transpose" ~m ~n ~src_len:src.n ~dst_len:dst.n (src == dst);
    for k = 0 to K.terms - 1 do
      transpose_plane ~m ~n src.planes.(k) dst.planes.(k)
    done
end
|}

let batch_ml () =
  let buf = Buffer.create (1 lsl 18) in
  Buffer.add_string buf header;
  Buffer.add_string buf "\n";
  List.iteri
    (fun i tr ->
      if i > 0 then Buffer.add_string buf "\n";
      emit_tier buf tr)
    tiers;
  Buffer.add_string buf footer;
  Buffer.contents buf

(* --- scalar.ml assembly ---------------------------------------------- *)

(* min of the add and mul networks' verified exponents: the bound
   [Kernel.KERNEL.error_exp] promises for both *)
let error_exp t =
  min (Fpan.Networks.add t).Fpan.Network.error_exp (Fpan.Networks.mul t).Fpan.Network.error_exp

let record tr f = spf "{ %s }" (cat "; " tr.t (fun k -> spf "c%d = %s" k (f k)))

(* [a op b] on records: operand loads bound first, as the planar loop
   body binds its plane loads -- [sub] is the add program over negated
   loads of [b], exactly like [Batch]'s [sub] -- so scalar and planar
   kernels compile the same float operations in the same operand
   order, NaN payloads included. *)
let emit_scalar_op ?two_prod buf tr ~name ~prog ~neg_y =
  bpf buf "  let %s a b =\n" name;
  for k = 0 to tr.t - 1 do
    bpf buf "    let x%d = a.c%d in\n" k k
  done;
  for k = 0 to tr.t - 1 do
    bpf buf "    let y%d = %sb.c%d in\n" k (if neg_y then "-." else "") k
  done;
  let outs =
    emit_program ?two_prod buf ~indent:"    " ~prefix:"v" prog
      ~args:(Array.append (names "x" tr) (names "y" tr))
  in
  bpf buf "    %s\n" (record tr (Array.get outs))

let emit_scalar_tier buf tr =
  bpf buf "module K%d = struct\n" tr.t;
  bpf buf "  type t = { %s }\n\n" (cat "; " tr.t (spf "c%d : float"));
  bpf buf "  let terms = %d\n" tr.t;
  bpf buf "  let precision_bits = %d\n" ((53 * tr.t) + tr.t - 1);
  bpf buf "  let error_exp = %d\n" (error_exp tr.t);
  bpf buf "  let zero = %s\n" (record tr (fun _ -> "0.0"));
  bpf buf "  let of_float x = %s\n" (record tr (fun k -> if k = 0 then "x" else "0.0"));
  bpf buf "  let to_float a = a.c0\n";
  bpf buf "  let components a = [| %s |]\n\n" (cat "; " tr.t (spf "a.c%d"));
  bpf buf "  let of_components c =\n";
  bpf buf "    assert (Array.length c = %d);\n" tr.t;
  bpf buf "    %s\n\n" (record tr (spf "c.(%d)"));
  bpf buf "  let neg a = %s\n" (record tr (spf "-.a.c%d"));
  bpf buf "  let scale_pow2 a k = %s\n\n" (record tr (spf "Float.ldexp a.c%d k"));
  emit_scalar_op buf tr ~name:"add" ~prog:(Front.add_kernel tr.t) ~neg_y:false;
  bpf buf "\n";
  emit_scalar_op buf tr ~name:"sub" ~prog:(Front.add_kernel tr.t) ~neg_y:true;
  bpf buf "\n";
  emit_scalar_op buf tr ~name:"mul" ~prog:(Front.mul_kernel tr.t) ~neg_y:false;
  bpf buf "\n";
  emit_scalar_op ~two_prod:Dekker buf tr ~name:"mul_no_fma" ~prog:(Front.mul_kernel tr.t)
    ~neg_y:false;
  bpf buf "end\n"

let scalar_header =
  {|(* Scalar MultiFloat kernels: one module per expansion length, each
   satisfying [Kernel.KERNEL], that [Mf2]/[Mf3]/[Mf4] complete through
   [Ops.Make].  A value is a record of unboxed floats, leading
   (largest-magnitude) component first.  [add]/[sub]/[mul] run the
   FPAN wire programs with every gate expanded to straight-line float
   code; [mul_no_fma] is the [mul] program with each TwoProd realised
   by Veltkamp-Dekker splitting instead of a fused multiply-add.

   GENERATED at build time by lib/fpan_ir/gen/gen_scalar.ml from the
   same IR programs, through the same emitter, as the planar kernels in
   batch.ml.  To change a kernel, edit the generator. *)
|}

let scalar_ml () =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf scalar_header;
  List.iter
    (fun tr ->
      Buffer.add_string buf "\n";
      emit_scalar_tier buf tr)
    tiers;
  Buffer.contents buf
