(* Midpoint-radius ball arithmetic after Arb.  Radius operations round
   upward at 30 bits so the enclosure invariant survives every step. *)

type t = {
  mid : Bigfloat.t;
  rad : Bigfloat.t;
}

let rad_prec = 30

let up = Bigfloat.Upward

let r_add a b = Bigfloat.add_mode up (Bigfloat.round_to ~prec:rad_prec a) b
let r_mul a b = Bigfloat.mul_mode up (Bigfloat.round_to ~prec:rad_prec a) b

let zero_rad ~prec = Bigfloat.make_zero ~prec |> Bigfloat.round_to ~prec:rad_prec

let make ~mid ~rad = { mid; rad }
let mid b = b.mid
let rad b = b.rad

let of_float ~prec f = { mid = Bigfloat.of_float ~prec f; rad = zero_rad ~prec }

let of_string ~prec s =
  let m = Bigfloat.of_string ~prec s in
  { mid = m; rad = Bigfloat.round_to ~prec:rad_prec (Bigfloat.ulp_bound m) }

(* One ulp of the freshly rounded midpoint, as an upward 30-bit value. *)
let mid_err m = Bigfloat.round_to ~prec:rad_prec (Bigfloat.ulp_bound m)

let add a b =
  let m = Bigfloat.add a.mid b.mid in
  { mid = m; rad = r_add (r_add a.rad b.rad) (mid_err m) }

let neg a = { a with mid = Bigfloat.neg a.mid }
let sub a b = add a (neg b)

let abs_mid a = Bigfloat.abs a.mid

let mul a b =
  let m = Bigfloat.mul a.mid b.mid in
  (* |a||rb| + |b||ra| + ra rb + ulp(m) *)
  let t1 = r_mul (abs_mid a) b.rad in
  let t2 = r_mul (abs_mid b) a.rad in
  let t3 = r_mul a.rad b.rad in
  { mid = m; rad = r_add (r_add (r_add t1 t2) t3) (mid_err m) }

let contains_zero b = Bigfloat.compare (abs_mid b) (Bigfloat.round_to ~prec:(Bigfloat.prec b.mid) b.rad) <= 0

let div a b =
  if contains_zero b then
    { mid = Bigfloat.of_float ~prec:(Bigfloat.prec a.mid) Float.nan;
      rad = Bigfloat.of_float ~prec:rad_prec Float.infinity }
  else begin
    let m = Bigfloat.div a.mid b.mid in
    (* |a/b - m'| <= (|a| rb + |b| ra) / (|b| (|b| - rb)) + ulp(m) *)
    let num = r_add (r_mul (abs_mid a) b.rad) (r_mul (abs_mid b) a.rad) in
    let denom =
      Bigfloat.mul_mode Bigfloat.Downward (abs_mid b)
        (Bigfloat.sub_mode Bigfloat.Downward (abs_mid b) (Bigfloat.round_to ~prec:(Bigfloat.prec b.mid) b.rad))
    in
    let prop = Bigfloat.div_mode up (Bigfloat.round_to ~prec:rad_prec num) denom in
    { mid = m; rad = r_add (Bigfloat.round_to ~prec:rad_prec prop) (mid_err m) }
  end

let sqrt a =
  let m = Bigfloat.sqrt a.mid in
  if Bigfloat.is_nan m then { mid = m; rad = Bigfloat.of_float ~prec:rad_prec Float.infinity }
  else if Bigfloat.is_zero m then
    (* sqrt near zero: enclose by sqrt of the radius *)
    { mid = m; rad = Bigfloat.round_to ~prec:rad_prec (Bigfloat.sqrt (Bigfloat.round_to ~prec:rad_prec a.rad)) }
  else begin
    (* |sqrt x - sqrt m| <= r / (2 sqrt(m) - ...) ~ r / sqrt m, rounded up *)
    let prop = Bigfloat.div_mode up (Bigfloat.round_to ~prec:rad_prec a.rad) m in
    { mid = m; rad = r_add (Bigfloat.round_to ~prec:rad_prec prop) (mid_err m) }
  end

let of_expansion ~prec comps =
  let m = Bigfloat.of_expansion ~prec comps in
  if Bigfloat.is_zero m && Array.for_all (fun c -> c = 0.0) comps then
    { mid = m; rad = zero_rad ~prec }
  else { mid = m; rad = mid_err m }

(* Vectorized ball evaluation: the enclosure twins of the certifiable
   vector ops (sum, dot, axpy).  Each is a plain fold over ball ops —
   the fold order is irrelevant to the enclosure invariant, so these
   certify the kernels' results no matter how the FPAN staged the
   gates. *)
module Vec = struct
  let ball_zero ~prec = { mid = Bigfloat.make_zero ~prec; rad = zero_rad ~prec }

  let sum ~prec (x : t array) =
    Array.fold_left add (ball_zero ~prec) x

  let dot ~prec (x : t array) (y : t array) =
    let acc = ref (ball_zero ~prec) in
    for i = 0 to Array.length x - 1 do
      acc := add !acc (mul x.(i) y.(i))
    done;
    !acc

  let axpy ~alpha ~(x : t array) ~(y : t array) =
    Array.init (Array.length x) (fun i -> add (mul alpha x.(i)) y.(i))
end

let contains b x =
  let d = Bigfloat.abs (Bigfloat.sub (Bigfloat.round_to ~prec:(Bigfloat.prec b.mid + 30) b.mid) x) in
  Bigfloat.compare d (Bigfloat.round_to ~prec:(Bigfloat.prec b.mid + 30) b.rad) <= 0

let contains_float b x = contains b (Bigfloat.of_float ~prec:(Bigfloat.prec b.mid) x)

let radius_le b x = Bigfloat.to_float b.rad <= x

let to_string ?digits b =
  Printf.sprintf "%s +/- %s" (Bigfloat.to_string ?digits b.mid) (Bigfloat.to_string ~digits:3 b.rad)
