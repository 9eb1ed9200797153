(* The dense workload: the library path with no server.  One round is
   a 103-bit GEMM through the tiled engine followed by a 212-bit
   iterative-refinement solve, both on one 2-worker scheduler. *)

module G2 = Blas.Kernels.Make_batched (Blas.Instances.Mf2)
module G4 = Blas.Kernels.Make_batched (Blas.Instances.Mf4)
module M2 = Multifloat.Mf2
module M4 = Multifloat.Mf4
module RB = Linalg.Refine_batched (M4) (Multifloat.Batch.Mf4v)

type inputs = {
  n : int;
  ga : G2.V.t;  (** GEMM operands, n x n row-major *)
  gb : G2.V.t;
  sa : float array;  (** the solve's system matrix, condition ~1e12 *)
  sb : M4.t array;
}

let size ~tiny = if tiny then 48 else 512

(* A = H(u) S H(v) with Householder reflectors H and singular values
   S spaced geometrically from 1 down to 1e-12, so cond(A) ~ 1e12 by
   construction; formed in O(n^2) from the rank-one structure. *)
let conditioned st n =
  let unit () =
    let v = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
    let nrm = Float.sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 v) in
    Array.map (fun x -> x /. nrm) v
  in
  let u = unit () and v = unit () in
  let s = Array.init n (fun k -> 10.0 ** (-12.0 *. float_of_int k /. float_of_int (n - 1))) in
  let c = ref 0.0 in
  for k = 0 to n - 1 do
    c := !c +. (u.(k) *. s.(k) *. v.(k))
  done;
  Array.init (n * n) (fun ij ->
      let i = ij / n and j = ij mod n in
      (if i = j then s.(i) else 0.0)
      -. (2.0 *. u.(i) *. u.(j) *. s.(j))
      -. (2.0 *. s.(i) *. v.(i) *. v.(j))
      +. (4.0 *. !c *. u.(i) *. v.(j)))

let make ~seed ~tiny =
  let n = size ~tiny in
  let st = Util.rng ~seed 3 in
  let m2 () =
    G2.V.of_array
      (Array.init (n * n) (fun _ ->
           M2.of_components (Gen.expansion st ~terms:2 ~lo:(-2) ~hi:2 ~positive:false)))
  in
  let ga = m2 () in
  let gb = m2 () in
  let sa = conditioned st n in
  let sb = Array.init n (fun _ -> M4.of_float (Random.State.float st 2.0 -. 1.0)) in
  { n; ga; gb; sa; sb }

let gemm_rt rt inp =
  let c = G2.V.create (inp.n * inp.n) in
  G2.gemm_rt rt ~m:inp.n ~n:inp.n ~k:inp.n ~a:inp.ga ~b:inp.gb ~c ();
  c

let gemm_seq inp =
  let c = G2.V.create (inp.n * inp.n) in
  G2.gemm ~m:inp.n ~n:inp.n ~k:inp.n ~a:inp.ga ~b:inp.gb ~c;
  c

let solve ?rt inp = RB.solve ?rt ~n:inp.n ~a:inp.sa ~b:inp.sb ()

let same_vec a b =
  let comps v = Array.map M2.components (G2.V.to_array v) in
  Util.bits_equal (comps a) (comps b)

let same_sol (a : M4.t array) (b : M4.t array) =
  Util.bits_equal (Array.map M4.components a) (Array.map M4.components b)

type round = { gemm_s : float; solve_s : float; c : G2.V.t; x : M4.t array; stats : RB.stats }

let round rt inp =
  let c, gemm_s = Util.time (fun () -> gemm_rt rt inp) in
  let (x, stats), solve_s = Util.time (fun () -> solve ~rt inp) in
  { gemm_s; solve_s; c; x; stats }

(* Rounds until [seconds] have elapsed (at least [min_rounds]).  Every
   round must converge and reproduce the first round's bits; returns
   the first round, every round's (start s, gemm s, solve s) with the
   start relative to the first round, and the count of rounds that
   broke either rule.  [after] runs after each round. *)
let rounds ?(after = fun () -> ()) rt inp ~seconds ~min_rounds =
  let t0 = Util.now () in
  let first = round rt inp in
  after ();
  let bad = ref (if first.stats.RB.converged then 0 else 1) in
  let times = ref [ (0.0, first.gemm_s, first.solve_s) ] in
  while List.length !times < min_rounds || Util.now () -. t0 < seconds do
    let start = Util.now () -. t0 in
    let r = round rt inp in
    after ();
    if not (r.stats.RB.converged && same_vec r.c first.c && same_sol r.x first.x) then incr bad;
    times := (start, r.gemm_s, r.solve_s) :: !times
  done;
  (first, List.rev !times, !bad)

(* The bitwise gates against the sequential paths: the tiled GEMM
   equals the sequential kernel, and the solve equals the solve
   without a scheduler.  Returns (mismatches, sequential GEMM s).
   [corrupt] perturbs both references, so both gates must fail. *)
let check ?(corrupt = false) inp first =
  let c_seq, seq_s = Util.time (fun () -> gemm_seq inp) in
  let x_seq, st_seq = solve inp in
  if corrupt then begin
    G2.V.set c_seq 0 (M2.of_components (Util.perturb [| M2.components (G2.V.get c_seq 0) |]).(0));
    x_seq.(0) <- M4.of_components (Util.perturb [| M4.components x_seq.(0) |]).(0)
  end;
  let bad =
    (if same_vec first.c c_seq then 0 else 1)
    + if st_seq.RB.converged && same_sol first.x x_seq then 0 else 1
  in
  (bad, seq_s)
