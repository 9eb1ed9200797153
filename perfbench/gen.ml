(* Seeded request generator.  A workload is a pool of distinct
   requests, each pre-encoded once into its wire frame during set-up,
   plus a per-connection traffic stream of pool indices.  Everything
   is a function of the seed: the same seed gives byte-identical
   frames and the same index streams in any process. *)

module P = Serve.Protocol

type pool = {
  reqs : P.request array;  (** request [i] carries id [i + 1] *)
  frames : string array;  (** length-prefixed JSON frame of [reqs.(i)] *)
  hot : int;  (** serve_scalar: indices [0, hot) form the cache-resident set *)
}

(* One well-formed [terms]-component expansion: head in a seeded
   binade of [lo, hi], each tail component below half an ulp of the
   one before it. *)
let expansion st ~terms ~lo ~hi ~positive =
  let e = lo + Random.State.int st (hi - lo + 1) in
  let m = 1.0 +. Random.State.float st 1.0 in
  let sign = if positive || Random.State.bool st then 1.0 else -1.0 in
  let c = Array.make terms (sign *. Float.ldexp m e) in
  for k = 1 to terms - 1 do
    c.(k) <- c.(k - 1) *. Float.ldexp (Random.State.float st 1.0 -. 0.5) (-53)
  done;
  c

let request ~id ~op ~tier ?sla ?(prog = []) ?(y = [||]) ?(z = [||]) x =
  { P.id; op; tier; sla; deadline_ms = None; prog; x; y; z }

let encode (r : P.request) =
  P.frame_of_string (Obs.Json_out.to_string_compact (P.request_to_json r))

let tiers = [| P.Mf2; P.Mf3; P.Mf4 |]
let pick st a = a.(Random.State.int st (Array.length a))

(* --- serve_scalar ---------------------------------------------------- *)

let scalar_ops = [| P.Add; P.Mul; P.Div; P.Sqrt; P.Exp |]

(* (hot, cold) pool sizes.  The hot set is a quarter of the server's
   4096-entry cache, so its entries stay resident between the cold
   draws that churn the rest. *)
let scalar_sizes ~tiny = if tiny then (64, 512) else (1024, 32768)

let scalar_request st id =
  let op = pick st scalar_ops in
  let tier = pick st tiers in
  let terms = P.tier_terms tier in
  let el ?(positive = false) ?(lo = -8) ?(hi = 8) () =
    [| expansion st ~terms ~lo ~hi ~positive |]
  in
  match op with
  | P.Sqrt -> request ~id ~op ~tier (el ~positive:true ())
  | P.Exp -> request ~id ~op ~tier (el ~lo:(-3) ~hi:4 ())
  | _ ->
      let x = el () in
      request ~id ~op ~tier ~y:(el ()) x

let scalar_reqs ~seed ~tiny =
  let hot, cold = scalar_sizes ~tiny in
  let st = Util.rng ~seed 1 in
  Array.init (hot + cold) (fun i -> scalar_request st (i + 1))

(* --- serve_vector ---------------------------------------------------- *)

let vector_kinds =
  [| (P.Dot, []); (P.Sum, []); (P.Axpy, []); (P.Program, [ "sum" ]);
     (P.Program, [ "mul"; "sum" ]); (P.Program, [ "axpy"; "dot" ]) |]

let vector_lengths ~tiny = if tiny then [| 16; 64 |] else [| 16; 64; 256; 1024 |]

(* Request classes: a fixed tier, or an SLA exponent with or without
   cancelling operands.  Half fixed, half SLA; a third of the SLA
   classes pair each element with its near-negation, so sums and dots
   cancel down to the low components. *)
type cls = Fixed of P.tier | Sla of int * bool

let classes =
  [ Fixed P.Mf2; Fixed P.Mf3; Fixed P.Mf4; Fixed P.Mf2; Fixed P.Mf3; Fixed P.Mf4;
    Sla (40, false); Sla (100, false); Sla (160, false); Sla (200, false); Sla (40, true);
    Sla (200, true) ]

(* SLA operands have 2 components, so every ladder starts at mf2. *)
let vector_request st id ((op, prog), n, cls) =
  let sla, tier, terms, cancel =
    match cls with
    | Fixed t -> (None, t, P.tier_terms t, false)
    | Sla (q, c) -> (Some q, P.Mf2, 2, c)
  in
  let vec len =
    let v = Array.init len (fun _ -> expansion st ~terms ~lo:(-4) ~hi:4 ~positive:false) in
    if cancel then
      for i = 1 to len - 1 do
        if i land 1 = 1 then
          v.(i) <-
            Array.mapi (fun k c -> if k = 0 then -.c else c *. Float.ldexp 1.0 (-40)) v.(i - 1)
      done;
    v
  in
  let scalar () = [| expansion st ~terms ~lo:(-4) ~hi:0 ~positive:false |] in
  match (op, prog) with
  | P.Dot, _ | P.Program, [ "mul"; "sum" ] ->
      let x = vec n in
      request ~id ~op ~tier ?sla ~prog ~y:(vec n) x
  | P.Axpy, _ ->
      let x = vec n in
      request ~id ~op ~tier ?sla ~y:(Array.append (scalar ()) (vec n)) x
  | P.Program, [ "axpy"; "dot" ] ->
      let x = vec n in
      let y = Array.append (scalar ()) (vec n) in
      request ~id ~op ~tier ?sla ~prog ~y ~z:(vec n) x
  | _ -> request ~id ~op ~tier ?sla ~prog (vec n)

(* Every (kind, length, class) combination once: the mix is fixed and
   only the operand values come from the seed, so the pool's cost does
   not drift from one seed to the next. *)
let vector_reqs ~seed ~tiny =
  let st = Util.rng ~seed 2 in
  let shapes =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun n -> List.map (fun c -> (kind, n, c)) classes)
          (Array.to_list (vector_lengths ~tiny)))
      (Array.to_list vector_kinds)
  in
  Array.of_list (List.mapi (fun i shape -> vector_request st (i + 1) shape) shapes)

(* --- pools and traffic ----------------------------------------------- *)

let pool workload ~seed ~tiny =
  let reqs, hot =
    match workload with
    | `Scalar -> (scalar_reqs ~seed ~tiny, fst (scalar_sizes ~tiny))
    | `Vector -> (vector_reqs ~seed ~tiny, 0)
  in
  { reqs; frames = Array.map encode reqs; hot }

(* Index stream of one connection.  serve_scalar draws 40% of its
   requests from the hot set (cache hits once warm) and the rest from
   the cold remainder (misses: a cold entry recurs only after far more
   than 4096 other keys), so a little under half the lookups hit and
   the median reply is a miss, which waits out the batching window.
   serve_vector walks the pool in seeded shuffles, every entry once per
   pass, so its mix of costs is the same in every window. *)
let traffic pool ~seed ~conn =
  let st = Util.rng ~seed (100 + conn) in
  let n = Array.length pool.reqs in
  if pool.hot > 0 then fun () ->
    if Random.State.int st 5 < 2 then Random.State.int st pool.hot
    else pool.hot + Random.State.int st (n - pool.hot)
  else begin
    let perm = Array.init n Fun.id and k = ref n in
    fun () ->
      if !k = n then begin
        for i = n - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        k := 0
      end;
      incr k;
      perm.(!k - 1)
  end

let digest pool =
  Digest.to_hex (Digest.string (String.concat "" (Array.to_list pool.frames)))
