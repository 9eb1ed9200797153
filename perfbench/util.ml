(* Shared helpers: clocks, seeded random streams, order statistics,
   bitwise comparison, and the metric table the run prints. *)

external maxrss_kb : int -> int = "perfbench_maxrss_kb"

let now () = Unix.gettimeofday ()
let now_ns () = Obs.Clock.now_ns ()

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Every random stream derives from the run's seed plus a fixed salt,
   so the same seed gives the same inputs in any process. *)
let rng ~seed salt = Random.State.make [| seed; salt; 0x5eed |]

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank quantile of an already sorted array. *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = quantile_sorted (sorted l) 0.5

(* Growable unboxed float buffer for per-request latencies. *)
type fbuf = { mutable data : Float.Array.t; mutable len : int }

let fbuf () = { data = Float.Array.create 4096; len = 0 }

let fpush b v =
  if b.len = Float.Array.length b.data then begin
    let d = Float.Array.create (2 * b.len) in
    Float.Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  Float.Array.set b.data b.len v;
  b.len <- b.len + 1

let fsorted b =
  let a = Array.init b.len (Float.Array.get b.data) in
  Array.sort compare a;
  a

let bits_equal (a : float array array) (b : float array array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ea eb ->
         Array.length ea = Array.length eb
         && Array.for_all2
              (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
              ea eb)
       a b

(* A copy of [r] with the last bit of its first component flipped: the
   reference that the gate self-test (--corrupt) checks against, to
   prove a mismatch is caught. *)
let perturb (r : float array array) =
  let r = Array.map Array.copy r in
  r.(0).(0) <- Int64.float_of_bits (Int64.logxor (Int64.bits_of_float r.(0).(0)) 1L);
  r

let safe_div a b = if b = 0.0 then 0.0 else a /. b

(* --- metric table --------------------------------------------------- *)

type metrics = (string * (float * string)) list ref

let metrics () : metrics = ref []
let put (m : metrics) name unit v = m := (name, (v, unit)) :: !m

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed (m : metrics) =
  let body =
    List.rev_map
      (fun (name, (v, unit)) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_number v)
          (json_string unit))
      !m
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " body)

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
