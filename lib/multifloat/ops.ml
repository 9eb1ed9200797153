(** Derived MultiFloat operations: everything beyond the generated
    add/sub/mul kernels ({!Kernel.KERNEL}).  Division and square root
    follow Section 4.3 of the paper: division-free Newton-Raphson
    iteration on [1/a] and [1/sqrt a] with a Karp-Markstein final
    correction. *)

module type S = sig
  include Kernel.KERNEL

  val add_float : t -> float -> t
  (** [add a (of_float f)]: the add network with a one-term operand. *)

  val sub_float : t -> float -> t
  (** [add a (of_float (-. f))]. *)

  val mul_float : t -> float -> t
  (** [mul a (of_float f)]. *)

  val one : t
  val two : t
  val of_int : int -> t
  val is_zero : t -> bool
  val is_nan : t -> bool
  val is_finite : t -> bool
  val sign : t -> int
  val abs : t -> t

  val inv : t -> t
  (** Newton-Raphson reciprocal, accurate to the full expansion
      precision. *)

  val div : t -> t -> t
  val div_float : t -> float -> t

  val sqrt : t -> t
  (** Newton-Raphson square root via the inverse square root; NaN for
      negative input, 0 for 0. *)

  val pow_int : t -> int -> t
  (** Integer power by binary exponentiation ([pow_int x 0 = one],
      negative exponents via {!inv}). *)

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val min : t -> t -> t
  val max : t -> t -> t

  val floor : t -> t
  (** Largest integer value not above the argument (exact: integers up
      to the full expansion precision are representable). *)

  val ceil : t -> t
  val trunc : t -> t
  val round : t -> t
  (** Nearest integer, half away from zero (like [Float.round]). *)

  val to_int : t -> int
  (** Truncating conversion; undefined beyond [max_int]. *)

  val rem : t -> t -> t
  (** [rem a b = a - b * trunc (a / b)] (the sign follows [a], as in
      [Float.rem]). *)

  val to_string : ?digits:int -> t -> string
  (** Scientific-notation rendering with [digits] significant decimal
      digits (default: full precision).  The last digit may be off by
      one unit: the conversion runs in the expansion arithmetic itself
      and is not guaranteed correctly rounded. *)

  val of_string : string -> t
  (** Parse a decimal literal (optionally signed, with fraction and
      exponent).  Raises [Invalid_argument] on malformed input. *)

  val pp : Format.formatter -> t -> unit

  val to_hex : t -> string
  (** Exact, lossless serialization: the components in C99 hexadecimal
      float notation joined by ["|"].  Round-trips bit-for-bit through
      {!of_hex}. *)

  val of_hex : string -> t
  (** Inverse of {!to_hex}.  Raises [Invalid_argument] on malformed
      input or wrong component count. *)

  val decimal_digits : int
  (** Significant decimal digits carried by this precision. *)

  module Infix : sig
    val ( + ) : t -> t -> t
    val ( - ) : t -> t -> t
    val ( * ) : t -> t -> t
    val ( / ) : t -> t -> t
    val ( ~- ) : t -> t
    val ( = ) : t -> t -> bool
    val ( < ) : t -> t -> bool
    val ( <= ) : t -> t -> bool
    val ( > ) : t -> t -> bool
    val ( >= ) : t -> t -> bool
  end
end

module Make (K : Kernel.KERNEL) : S with type t = K.t = struct
  include K

  let add_float a f = add a (of_float f)
  let sub_float a f = add a (of_float (-.f))
  let mul_float a f = mul a (of_float f)
  let one = of_float 1.0
  let two = of_float 2.0

  let of_int i =
    if Stdlib.abs i < 1 lsl 53 then of_float (Float.of_int i)
    else begin
      (* Split into exact 30-bit halves; both convert exactly. *)
      let hi = i asr 30 and lo = i land ((1 lsl 30) - 1) in
      add_float (scale_pow2 (of_float (Float.of_int hi)) 30) (Float.of_int lo)
    end

  let is_zero a = to_float a = 0.0
  let is_nan a = Float.is_nan (to_float a)
  let is_finite a = Array.for_all Float.is_finite (components a)
  let sign a = Stdlib.compare (to_float a) 0.0
  let abs a = if to_float a < 0.0 then neg a else a

  (* Number of n-term Newton iterations needed to go from 53 accurate
     bits to the full precision, doubling each time. *)
  let newton_iters =
    let rec go bits iters = if bits >= precision_bits then iters else go (2 * bits) (iters + 1) in
    go 53 0

  let inv a =
    let a0 = to_float a in
    if a0 = 0.0 || Float.is_nan a0 then of_float (1.0 /. a0)
    else begin
      let x = ref (of_float (1.0 /. a0)) in
      for _ = 1 to newton_iters do
        (* x <- x + x (1 - a x) *)
        x := add !x (mul !x (sub one (mul a !x)))
      done;
      !x
    end

  let div b a =
    let a0 = to_float a in
    if a0 = 0.0 || Float.is_nan a0 then mul_float b (1.0 /. a0)
    else begin
      let t = inv a in
      let q = mul b t in
      (* Karp-Markstein correction: q + t (b - a q). *)
      let r = sub b (mul a q) in
      add q (mul t r)
    end

  let div_float b f = div b (of_float f)

  let sqrt a =
    let a0 = to_float a in
    if a0 = 0.0 then zero
    else if a0 < 0.0 || Float.is_nan a0 then of_float Float.nan
    else begin
      (* Inverse square root by Newton: x <- x + x (1 - a x^2) / 2. *)
      let x = ref (of_float (1.0 /. Float.sqrt a0)) in
      for _ = 1 to newton_iters do
        let axx = mul a (mul !x !x) in
        x := add !x (scale_pow2 (mul !x (sub one axx)) (-1))
      done;
      (* sqrt a = a x, with a Karp-Markstein correction. *)
      let s = mul a !x in
      let r = sub a (mul s s) in
      add s (scale_pow2 (mul !x r) (-1))
    end

  let rec pow_int x k =
    if k < 0 then inv (pow_int x (-k))
    else if k = 0 then one
    else begin
      let h = pow_int x (k / 2) in
      let h2 = mul h h in
      if k land 1 = 0 then h2 else mul h2 x
    end

  let compare a b =
    let d = to_float (sub a b) in
    Float.compare d 0.0

  let equal a b = compare a b = 0
  let min a b = if compare a b <= 0 then a else b
  let max a b = if compare a b <= 0 then b else a

  (* Componentwise floor, as in QD: floor the leading term; only when a
     component is already integral can the next one contribute. *)
  let floor a =
    let c = components a in
    let out = Array.make terms 0.0 in
    let i = ref 0 in
    let continue = ref true in
    while !continue && !i < terms do
      let f = Float.floor c.(!i) in
      out.(!i) <- f;
      if f = c.(!i) then incr i else continue := false
    done;
    (* Re-normalize through the exact adders. *)
    Array.fold_left (fun acc v -> add_float acc v) zero out

  let ceil a = neg (floor (neg a))

  let trunc a = if to_float a >= 0.0 then floor a else ceil a

  let round a =
    let half = of_float 0.5 in
    if to_float a >= 0.0 then floor (add a half) else ceil (sub a half)

  let to_int a =
    let t = trunc a in
    let c = components t in
    Array.fold_left (fun acc v -> acc + Float.to_int v) 0 c

  let rem a b = sub a (mul b (trunc (div a b)))

  let decimal_digits = Stdlib.(1 + int_of_float (Float.of_int precision_bits *. 0.30103))

  (* 10^k as an expansion, exactly for small k and to full working
     precision otherwise. *)
  let pow10 k = pow_int (of_float 10.0) k

  let to_string ?digits a =
    let digits = match digits with Some d -> Stdlib.max 1 d | None -> decimal_digits in
    let a0 = to_float a in
    if Float.is_nan a0 then "nan"
    else if a0 = Float.infinity then "inf"
    else if a0 = Float.neg_infinity then "-inf"
    else if a0 = 0.0 then "0.0"
    else begin
      let negative = a0 < 0.0 in
      let v = abs a in
      (* Decimal exponent of the leading digit. *)
      let e10 = ref (int_of_float (Float.floor (Float.log10 (Float.abs a0)))) in
      let m = ref (div v (pow10 !e10)) in
      (* log10 can be off by one near powers of ten; fix up. *)
      while to_float !m >= 10.0 do
        m := div_float !m 10.0;
        incr e10
      done;
      while to_float !m < 1.0 do
        m := mul_float !m 10.0;
        decr e10
      done;
      (* Extract digits+1 digits, then round the last away.  The leading
         component alone can misreport the floor by one when the tail is
         negative (e.g. 4 - 2^-57), so correct against the full value. *)
      let raw = Bytes.create (digits + 1) in
      for i = 0 to digits do
        let d = int_of_float (Float.floor (to_float !m)) in
        let r = sub_float !m (Float.of_int d) in
        let d, r =
          if to_float r < 0.0 then (d - 1, add_float r 1.0)
          else if to_float (sub_float r 1.0) >= 0.0 then (d + 1, sub_float r 1.0)
          else (d, r)
        in
        let d = Stdlib.min 9 (Stdlib.max 0 d) in
        Bytes.set raw i (Char.chr (d + Char.code '0'));
        m := mul_float r 10.0
      done;
      (* Round to [digits] digits using the extra digit. *)
      let digits_arr = Array.init (digits + 1) (fun i -> Char.code (Bytes.get raw i) - Char.code '0') in
      if digits_arr.(digits) >= 5 then begin
        let rec carry i =
          if i < 0 then begin
            (* 9.99... rolled over to 10.0: shift the exponent. *)
            digits_arr.(0) <- 1;
            for j = 1 to digits - 1 do
              digits_arr.(j) <- 0
            done;
            incr e10
          end
          else if digits_arr.(i) = 9 then begin
            digits_arr.(i) <- 0;
            carry (i - 1)
          end
          else digits_arr.(i) <- digits_arr.(i) + 1
        in
        carry (digits - 1)
      end;
      let buf = Buffer.create (digits + 8) in
      if negative then Buffer.add_char buf '-';
      Buffer.add_char buf (Char.chr (digits_arr.(0) + Char.code '0'));
      Buffer.add_char buf '.';
      if digits = 1 then Buffer.add_char buf '0'
      else
        for i = 1 to digits - 1 do
          Buffer.add_char buf (Char.chr (digits_arr.(i) + Char.code '0'))
        done;
      if !e10 <> 0 then Buffer.add_string buf (Printf.sprintf "e%+03d" !e10);
      Buffer.contents buf
    end

  let of_string s =
    let fail () = invalid_arg (Printf.sprintf "Multifloat.of_string: %S" s) in
    let s = String.trim s in
    if s = "" then fail ();
    match String.lowercase_ascii s with
    | "nan" -> of_float Float.nan
    | "inf" | "+inf" | "infinity" -> of_float Float.infinity
    | "-inf" | "-infinity" -> of_float Float.neg_infinity
    | _ ->
        let n = String.length s in
        let pos = ref 0 in
        let negative =
          if s.[0] = '-' then begin
            incr pos;
            true
          end
          else begin
            if s.[0] = '+' then incr pos;
            false
          end
        in
        let acc = ref zero in
        let ndigits = ref 0 in
        let frac_digits = ref 0 in
        let seen_dot = ref false in
        let exp10 = ref 0 in
        (let continue = ref true in
         while !continue && !pos < n do
           match s.[!pos] with
           | '0' .. '9' as c ->
               acc := add_float (mul_float !acc 10.0) (Float.of_int (Char.code c - Char.code '0'));
               incr ndigits;
               if !seen_dot then incr frac_digits;
               incr pos
           | '.' ->
               if !seen_dot then fail ();
               seen_dot := true;
               incr pos
           | '_' -> incr pos
           | 'e' | 'E' ->
               incr pos;
               (try exp10 := int_of_string (String.sub s !pos (n - !pos)) with _ -> fail ());
               pos := n;
               continue := false
           | _ -> fail ()
         done);
        if !ndigits = 0 then fail ();
        let e = !exp10 - !frac_digits in
        let v =
          if e = 0 then !acc
          else if e > 0 then mul !acc (pow10 e)
          else div !acc (pow10 (-e))
        in
        if negative then neg v else v

  let pp ppf a = Format.pp_print_string ppf (to_string a)

  let to_hex a =
    String.concat "|" (Array.to_list (Array.map (Printf.sprintf "%h") (components a)))

  let of_hex s =
    let parts = String.split_on_char '|' s in
    if List.length parts <> terms then
      invalid_arg (Printf.sprintf "of_hex: expected %d components" terms);
    let comps =
      List.map
        (fun p ->
          match float_of_string_opt (String.trim p) with
          | Some v -> v
          | None -> invalid_arg (Printf.sprintf "of_hex: bad component %S" p))
        parts
    in
    of_components (Array.of_list comps)

  module Infix = struct
    let ( + ) = add
    let ( - ) = sub
    let ( * ) = mul
    let ( / ) = div
    let ( ~- ) = neg
    let ( = ) = equal
    let ( < ) a b = compare a b < 0
    let ( <= ) a b = compare a b <= 0
    let ( > ) a b = compare a b > 0
    let ( >= ) a b = compare a b >= 0
  end
end
