(* Wire protocol: length-prefixed JSON frames, schema fpan-serve/1.
   Operands travel as C99 hex-float strings because they are the only
   JSON transport exact for every double (Json_out numbers render
   inf/nan as null).  Inbound documents are schema-validated before
   decoding; the Json_out parser itself rejects duplicate keys and
   trailing garbage, so nothing ambiguous reaches execution. *)

module J = Obs.Json_out

type tier = Mf2 | Mf3 | Mf4

let tier_terms = function Mf2 -> 2 | Mf3 -> 3 | Mf4 -> 4

let tier_of_terms = function
  | 2 -> Mf2
  | 3 -> Mf3
  | 4 -> Mf4
  | n -> invalid_arg (Printf.sprintf "Serve.Protocol.tier_of_terms: %d" n)
let tier_name = function Mf2 -> "mf2" | Mf3 -> "mf3" | Mf4 -> "mf4"

let tier_of_name = function
  | "mf2" -> Some Mf2
  | "mf3" -> Some Mf3
  | "mf4" -> Some Mf4
  | _ -> None

type op = Add | Mul | Div | Sqrt | Exp | Log | Sin | Dot | Axpy | Sum | Poly_eval | Program | Stats

let op_name = function
  | Add -> "add"
  | Mul -> "mul"
  | Div -> "div"
  | Sqrt -> "sqrt"
  | Exp -> "exp"
  | Log -> "log"
  | Sin -> "sin"
  | Dot -> "dot"
  | Axpy -> "axpy"
  | Sum -> "sum"
  | Poly_eval -> "poly-eval"
  | Program -> "program"
  | Stats -> "stats"

let compute_ops = [ Add; Mul; Div; Sqrt; Exp; Log; Sin; Dot; Axpy; Sum; Poly_eval; Program ]

let op_of_name name =
  List.find_opt (fun o -> op_name o = name) (Stats :: compute_ops)

let arity = function
  | Stats -> 0
  | Sqrt | Exp | Log | Sin | Sum -> 1
  | Add | Mul | Div | Dot | Axpy | Poly_eval | Program -> 2

(* The multi-op chains a [Program] request may name, each evaluated
   as its op-by-op composition: ["sum"] is the plain fold,
   ["mul"; "sum"] elementwise mul then sum (a spelling of DOT), and
   ["axpy"; "dot"] updates y and dots it against z.  The first two
   are the same ops as Sum and Dot (Adaptive.Sla.of_wire). *)
let programs = [ [ "sum" ]; [ "mul"; "sum" ]; [ "axpy"; "dot" ] ]

let program_name chain = String.concat ";" chain

type request = {
  id : int;
  op : op;
  tier : tier;
      (* for SLA requests: the derived starting tier of the escalation
         ladder (the cheapest tier holding the operands untruncated) *)
  sla : int option;  (* accuracy SLA exponent q: absolute error <= scale * 2^-q *)
  deadline_ms : float option;
  prog : string list;
  x : float array array;
  y : float array array;
  z : float array array;
}

type response =
  | Result of {
      id : int;
      result : float array array;
      batch : int;
      chosen : string option;  (* SLA requests: the tier that met the budget *)
      bound : float option;  (* SLA requests: certified absolute error bound *)
    }
  | Shed of { id : int; reason : string }
  | Failed of { id : int; error : string }
  | Stats_reply of { id : int; stats : J.t }

let response_id = function
  | Result { id; _ } | Shed { id; _ } | Failed { id; _ } | Stats_reply { id; _ } -> id

(* --- hex-float element transport ------------------------------------ *)

(* %h prints every NaN as "nan", losing the payload (OCaml's own
   Float.nan is 0x7ff8000000000001, while float_of_string "nan" gives
   0x7ff8000000000000) — so NaNs carry their exact bit pattern. *)

let hex_digits = "0123456789abcdef"

(* The longest wire text: "-0x1.fffffffffffffp+1023". *)
let max_wire_len = 24

(* Write [c]'s wire text into [b] at [off], returning the end offset:
   exactly Printf "%h" for every non-NaN double, "nan:" and "%Lx" of
   the bits for a NaN.  Allocates nothing, so a reply writes its
   components in place. *)
let emit_float b off c =
  let bits = Int64.bits_of_float c in
  if Float.is_nan c then begin
    Bytes.blit_string "nan:" 0 b off 4;
    let top = ref 60 in
    while Int64.to_int (Int64.shift_right_logical bits !top) land 15 = 0 do
      top := !top - 4
    done;
    let p = ref (off + 4) in
    let sh = ref !top in
    while !sh >= 0 do
      Bytes.unsafe_set b !p hex_digits.[Int64.to_int (Int64.shift_right_logical bits !sh) land 15];
      incr p;
      sh := !sh - 4
    done;
    !p
  end
  else begin
    let p = ref off in
    if Float.sign_bit c then begin
      Bytes.unsafe_set b !p '-';
      incr p
    end;
    let e = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
    if e = 0x7ff then begin
      Bytes.blit_string "infinity" 0 b !p 8;
      !p + 8
    end
    else begin
      let m = Int64.to_int bits land 0xf_ffff_ffff_ffff in
      Bytes.unsafe_set b !p '0';
      Bytes.unsafe_set b (!p + 1) 'x';
      Bytes.unsafe_set b (!p + 2) (if e = 0 then '0' else '1');
      p := !p + 3;
      if m <> 0 then begin
        Bytes.unsafe_set b !p '.';
        incr p;
        (* hex digits from the top nibble down to the last nonzero one *)
        let rest = ref m and sh = ref 48 in
        while !rest <> 0 do
          Bytes.unsafe_set b !p hex_digits.[(!rest lsr !sh) land 15];
          incr p;
          rest := !rest land ((1 lsl !sh) - 1);
          sh := !sh - 4
        done
      end;
      let x = if e <> 0 then e - 1023 else if m = 0 then 0 else -1022 in
      Bytes.unsafe_set b !p 'p';
      Bytes.unsafe_set b (!p + 1) (if x < 0 then '-' else '+');
      p := !p + 2;
      let a = abs x in
      let digit k = Char.unsafe_chr (48 + k) in
      if a >= 1000 then begin
        Bytes.unsafe_set b !p (digit (a / 1000));
        incr p
      end;
      if a >= 100 then begin
        Bytes.unsafe_set b !p (digit (a / 100 mod 10));
        incr p
      end;
      if a >= 10 then begin
        Bytes.unsafe_set b !p (digit (a / 10 mod 10));
        incr p
      end;
      Bytes.unsafe_set b !p (digit (a mod 10));
      !p + 1
    end
  end

let float_to_wire c =
  let b = Bytes.create max_wire_len in
  Bytes.sub_string b 0 (emit_float b 0 c)

let float_of_wire s =
  if String.length s > 4 && String.sub s 0 4 = "nan:" then
    match Int64.of_string_opt ("0x" ^ String.sub s 4 (String.length s - 4)) with
    | Some b when Float.is_nan (Int64.float_of_bits b) -> Some (Int64.float_of_bits b)
    | _ -> None
  else float_of_string_opt s

(* The common component in one pass: a string literal at [s.[a]]
   holding canonical "%h" text (what [emit_float] writes for a finite
   double), parsed exactly into [dst.(k)]; returns the offset past the
   closing quote, or -1 for any other literal, which the caller then
   scans and reads with [float_of_wire] -- so the spellings accepted
   stay float_of_string's.  Such text has no escape or control
   character, so the literal is valid JSON and its text is its value. *)
let hex_literal dst k s n a =
  if a >= n || String.unsafe_get s a <> '"' then -1
  else begin
    let p = ref (a + 1) in
    let neg = !p < n && String.unsafe_get s !p = '-' in
    if neg then incr p;
    if !p + 3 > n || String.unsafe_get s !p <> '0' || String.unsafe_get s (!p + 1) <> 'x'
    then -1
    else begin
      let lead = String.unsafe_get s (!p + 2) in
      p := !p + 3;
      let frac = ref 0 and nd = ref 0 and ok = ref (lead = '0' || lead = '1') in
      if !p < n && String.unsafe_get s !p = '.' then begin
        incr p;
        let more = ref true in
        while !more && !p < n do
          let c = String.unsafe_get s !p in
          if c >= '0' && c <= '9' then frac := (!frac lsl 4) lor (Char.code c - 48)
          else if c >= 'a' && c <= 'f' then frac := (!frac lsl 4) lor (Char.code c - 87)
          else more := false;
          if !more then begin
            incr nd;
            incr p
          end
        done;
        if !nd = 0 || !nd > 13 then ok := false
      end;
      (* 'p', a sign, 1-4 exponent digits, the closing quote *)
      if (not !ok) || !p + 3 >= n || String.unsafe_get s !p <> 'p' then -1
      else begin
        let sign = String.unsafe_get s (!p + 1) in
        p := !p + 2;
        let e = ref 0 and ne = ref 0 in
        while !p < n && !ne <= 4 && String.unsafe_get s !p >= '0' && String.unsafe_get s !p <= '9' do
          e := (10 * !e) + Char.code (String.unsafe_get s !p) - 48;
          incr ne;
          incr p
        done;
        let e = if sign = '-' then - !e else !e in
        let mant = !frac lsl (4 * (13 - !nd)) in
        if (sign <> '+' && sign <> '-') || !ne = 0 || !ne > 4 || !p >= n
           || String.unsafe_get s !p <> '"'
        then -1
        else begin
          let bits =
            if lead = '1' then
              if e < -1022 || e > 1023 then -1L
              else Int64.logor (Int64.shift_left (Int64.of_int (e + 1023)) 52) (Int64.of_int mant)
            else if mant = 0 then 0L
            else if e = -1022 then Int64.of_int mant
            else -1L
          in
          if bits = -1L then -1
          else begin
            let v = Int64.float_of_bits bits in
            dst.(k) <- (if neg then -.v else v);
            !p + 1
          end
        end
      end
    end
  end

let element_to_json comps =
  J.List (Array.to_list (Array.map (fun c -> J.Str (float_to_wire c)) comps))

let elements_to_json els = J.List (Array.to_list (Array.map element_to_json els))

(* --- request -------------------------------------------------------- *)

(* fpan-serve/1 is the fixed-tier protocol; frames carrying the
   adaptive-precision fields (sla / chosen / bound) are fpan-serve/2 *)
let schema_v1 = "fpan-serve/1"
let schema_v2 = "fpan-serve/2"
let schema_field = ("schema", J.Str schema_v1)
let schema_field_v2 = ("schema", J.Str schema_v2)

let request_to_json r =
  J.Obj
    ([ (if r.sla = None then schema_field else schema_field_v2);
       ("id", J.Num (float_of_int r.id));
       ("op", J.Str (op_name r.op)) ]
    @ (match r.sla with
      | None -> [ ("tier", J.Str (tier_name r.tier)) ]
      | Some q -> [ ("sla", J.Num (float_of_int q)) ])
    @ (match r.deadline_ms with None -> [] | Some d -> [ ("deadline_ms", J.Num d) ])
    @ (if r.prog = [] then []
       else [ ("prog", J.List (List.map (fun s -> J.Str s) r.prog)) ])
    @ (if Array.length r.x = 0 then [] else [ ("x", elements_to_json r.x) ])
    @ (if Array.length r.y = 0 then [] else [ ("y", elements_to_json r.y) ])
    @ if Array.length r.z = 0 then [] else [ ("z", elements_to_json r.z) ])

let ( let* ) = Result.bind

(* One pass from payload bytes to a request.  The grammar is
   Json_out.parse's (its whitespace, escapes, number spellings,
   duplicate-key and trailing-garbage rules), the shape is
   Obs.Schemas.serve_request's, and hex components are parsed in
   place.  A value of the wrong shape is the frame's schema violation
   and is skipped, not trusted: the rest of the frame must still parse,
   and its id is still echoed.  So every frame gets the verdict that
   parsing, then validating, then decoding the tree gave it; a schema
   violation names its path as Obs.Schema.validate does. *)

exception Syntax of string

type dec = {
  s : string;
  n : int;
  mutable pos : int;
  mutable violation : string option;  (* the first schema violation *)
  mutable comps : float array;  (* scratch: the element being read *)
  mutable comp_err : string option;  (* its first component that is no wire float *)
}

(* An operand's elements at their observed widths, and the first
   element holding a component that is no wire float ([bad] = -1 if
   none), checked against the tier only once the whole frame is read:
   "tier" may follow "x". *)
type operand = { els : float array array; bad : int; bad_text : string }

let syntax d msg = raise (Syntax (Printf.sprintf "%s at offset %d" msg d.pos))
let violate d path msg = if d.violation = None then d.violation <- Some (path ^ ": " ^ msg)
let at d c = d.pos < d.n && String.unsafe_get d.s d.pos = c

let skip_ws d =
  while
    d.pos < d.n
    && (match String.unsafe_get d.s d.pos with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    d.pos <- d.pos + 1
  done

let expect d c = if at d c then d.pos <- d.pos + 1 else syntax d (Printf.sprintf "expected '%c'" c)

(* Skip whitespace up to a value, which must exist. *)
let value_start d =
  skip_ws d;
  if d.pos >= d.n then syntax d "unexpected end of input"

(* After a container item: true at ',' (more items), false at [close]. *)
let next_item d close =
  skip_ws d;
  if at d ',' then begin
    d.pos <- d.pos + 1;
    true
  end
  else if at d close then begin
    d.pos <- d.pos + 1;
    false
  end
  else syntax d (Printf.sprintf "expected ',' or '%c'" close)

(* Past a string literal.  [None] when it holds no escape: its text
   then spans from one past the opening quote to one before [d.pos].
   An escaped literal (rare on the wire) is handed to Json_out.parse,
   which checks its escapes and decodes it, so both readers agree on
   every escape. *)
let scan_string d =
  expect d '"';
  let start = d.pos - 1 and escaped = ref false and fin = ref false in
  while not !fin do
    if d.pos >= d.n then syntax d "unterminated string";
    let c = String.unsafe_get d.s d.pos in
    d.pos <- d.pos + if c = '\\' then 2 else 1;
    if c = '"' then fin := true else if c = '\\' then escaped := true
  done;
  if not !escaped then None
  else
    match J.parse (String.sub d.s start (d.pos - start)) with
    | Ok (J.Str text) -> Some text
    | _ -> syntax d "bad escape"

let string_value d =
  let a = d.pos + 1 in
  match scan_string d with Some text -> text | None -> String.sub d.s a (d.pos - 1 - a)

let scan_number d =
  let start = d.pos in
  if at d '-' then d.pos <- d.pos + 1;
  while
    d.pos < d.n
    && (match String.unsafe_get d.s d.pos with
       | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
       | _ -> false)
  do
    d.pos <- d.pos + 1
  done;
  match float_of_string_opt (String.sub d.s start (d.pos - start)) with
  | Some f -> f
  | None -> syntax d "bad number"

let at_number d =
  d.pos < d.n
  &&
  let c = String.unsafe_get d.s d.pos in
  c = '-' || (c >= '0' && c <= '9')

(* Check the JSON value at [d.pos] and move past it. *)
let rec skip_value d =
  value_start d;
  match String.unsafe_get d.s d.pos with
  | '"' -> ignore (scan_string d)
  | 't' -> lit d "true"
  | 'f' -> lit d "false"
  | 'n' -> lit d "null"
  | '[' ->
      d.pos <- d.pos + 1;
      skip_ws d;
      if at d ']' then d.pos <- d.pos + 1
      else
        while
          skip_value d;
          next_item d ']'
        do
          ()
        done
  | '{' ->
      d.pos <- d.pos + 1;
      skip_ws d;
      if at d '}' then d.pos <- d.pos + 1
      else begin
        let seen = Hashtbl.create 8 in
        while
          skip_ws d;
          let k = string_value d in
          if Hashtbl.mem seen k then syntax d (Printf.sprintf "duplicate key %S" k);
          Hashtbl.add seen k ();
          skip_ws d;
          expect d ':';
          skip_value d;
          next_item d '}'
        do
          ()
        done
      end
  | _ -> if at_number d then ignore (scan_number d) else syntax d "unexpected character"

and lit d kw =
  let l = String.length kw in
  if d.pos + l <= d.n && String.sub d.s d.pos l = kw then d.pos <- d.pos + l
  else syntax d ("expected " ^ kw)

(* A value of the wrong shape: record the violation, check and skip it. *)
let mismatch d path want =
  let got =
    match String.unsafe_get d.s d.pos with
    | '"' -> "string"
    | '[' -> "array"
    | '{' -> "object"
    | 't' | 'f' -> "bool"
    | 'n' -> "null"
    | _ -> "number"
  in
  violate d path (Printf.sprintf "expected %s, got %s" want got);
  skip_value d

let string_field d path =
  value_start d;
  if at d '"' then Some (string_value d)
  else begin
    mismatch d path "string";
    None
  end

let number_field d path ~integer =
  value_start d;
  if not (at_number d) then begin
    mismatch d path (if integer then "integer" else "number");
    None
  end
  else begin
    let f = scan_number d in
    if integer && not (Float.is_integer f) then begin
      violate d path "expected integer, got number";
      None
    end
    else Some f
  end

(* Items of an array value, [item i] reading each; a violation at
   [path ()] if the value is no array. *)
let array_items d path item =
  value_start d;
  if not (at d '[') then mismatch d (path ()) "array"
  else begin
    d.pos <- d.pos + 1;
    skip_ws d;
    if at d ']' then d.pos <- d.pos + 1
    else begin
      let i = ref 0 in
      while
        item !i;
        incr i;
        next_item d ']'
      do
        ()
      done
    end
  end

let prog_field d =
  let steps = ref [] in
  array_items d (fun () -> ".prog") (fun i ->
      match string_field d (Printf.sprintf ".prog[%d]" i) with
      | Some step -> steps := step :: !steps
      | None -> ());
  List.rev !steps

(* One component into [d.comps.(k)]: canonical hex in place, any other
   string through [float_of_wire]. *)
let component d key i k =
  value_start d;
  if k = Array.length d.comps then begin
    let grown = Array.make (2 * k) 0.0 in
    Array.blit d.comps 0 grown 0 k;
    d.comps <- grown
  end;
  let stop = hex_literal d.comps k d.s d.n d.pos in
  if stop >= 0 then d.pos <- stop
  else if not (at d '"') then mismatch d (Printf.sprintf ".%s[%d][%d]" key i k) "string"
  else begin
    let text = string_value d in
    match float_of_wire text with
    | Some f -> d.comps.(k) <- f
    | None -> if d.comp_err = None then d.comp_err <- Some text
  end

(* One element's components into [d.comps]; returns its width. *)
let element d key i =
  value_start d;
  if not (at d '[') then begin
    mismatch d (Printf.sprintf ".%s[%d]" key i) "array";
    0
  end
  else begin
    d.pos <- d.pos + 1;
    skip_ws d;
    if at d ']' then begin
      d.pos <- d.pos + 1;
      0
    end
    else begin
      let k = ref 0 in
      while
        component d key i !k;
        incr k;
        next_item d ']'
      do
        ()
      done;
      !k
    end
  end

(* Elements gather in a list: young cons cells, where a growing array
   would soon live in the major heap and pay a write barrier per
   element. *)
let operand_field d key =
  let els = ref [] in
  let bad = ref (-1) and bad_text = ref "" in
  array_items d (fun () -> "." ^ key) (fun i ->
      let width = element d key i in
      (match d.comp_err with
      | Some text ->
          if !bad < 0 then begin
            bad := i;
            bad_text := text
          end;
          d.comp_err <- None
      | None -> ());
      els := Array.sub d.comps 0 width :: !els);
  { els = Array.of_list (List.rev !els); bad = !bad; bad_text = !bad_text }

(* The operand's elements once the tier is known, failing at the first
   element that is the wrong width for a fixed tier or holds a bad
   component (in that order within an element). *)
let operand_elements ~terms = function
  | None -> Ok [||]
  | Some o ->
      let rec go i =
        if i = Array.length o.els then Ok o.els
        else
          match terms with
          | Some t when Array.length o.els.(i) <> t ->
              Error
                (Printf.sprintf "operand element has %d components, tier wants %d"
                   (Array.length o.els.(i)) t)
          | _ ->
              if i = o.bad then Error (Printf.sprintf "bad float component %S" o.bad_text)
              else go (i + 1)
      in
      go 0

(* The request-level rules, once the frame has its shape. *)
let check_request ~id ~op_text ~tier_text ~sla ~deadline_ms ~prog ~x ~y ~z =
  let* op =
    match op_of_name op_text with
    | Some op -> Ok op
    | None -> Error (Printf.sprintf "unknown op %S" op_text)
  in
  let* tier_opt =
    match (tier_text, sla) with
    | Some _, Some _ -> Error "sla and tier are mutually exclusive"
    | Some name, None -> (
        match tier_of_name name with
        | Some t -> Ok (Some t)
        | None -> Error (Printf.sprintf "unknown tier %S" name))
    | None, Some _ -> Ok None
    | None, None -> if op = Stats then Ok (Some Mf2) else Error "missing tier"
  in
  (* SLA operands keep each element's own width; uniformity and the
     1..4 range are the ladder's admission check below *)
  let terms = Option.map tier_terms tier_opt in
  let* x = operand_elements ~terms x in
  let* y = operand_elements ~terms y in
  let* z = operand_elements ~terms z in
  let* () =
    if op <> Program && prog <> [] then
      Error (Printf.sprintf "op %s takes no prog" (op_name op))
    else if op <> Program && Array.length z > 0 then
      Error (Printf.sprintf "op %s takes no operand z" (op_name op))
    else Ok ()
  in
  let* () =
    match op with
    | Stats -> Ok ()
    | Program -> (
        let nx = Array.length x and ny = Array.length y and nz = Array.length z in
        match prog with
        | [] -> Error "op program needs prog"
        | [ "sum" ] ->
            if nx = 0 then Error "op program needs operand x"
            else if ny > 0 || nz > 0 then Error "program sum takes only operand x"
            else Ok ()
        | [ "mul"; "sum" ] ->
            if nx = 0 then Error "op program needs operand x"
            else if nx <> ny then Error "vector operands differ in length"
            else if nz > 0 then Error "program mul;sum takes no operand z"
            else Ok ()
        | [ "axpy"; "dot" ] ->
            if nx = 0 then Error "op program needs operand x"
            else if ny <> nx + 1 then
              Error "program axpy;dot wants y = alpha followed by a vector of x's length"
            else if nz <> nx then
              Error "program axpy;dot wants z of x's length"
            else Ok ()
        | chain ->
            Error
              (Printf.sprintf "unsupported program %S (supported: %s)" (program_name chain)
                 (String.concat ", " (List.map program_name programs))))
    | _ -> (
        let need_y = arity op = 2 in
        match (Array.length x, Array.length y) with
        | 0, _ -> Error (Printf.sprintf "op %s needs operand x" (op_name op))
        | _, 0 when need_y -> Error (Printf.sprintf "op %s needs operand y" (op_name op))
        | _, ny when (not need_y) && ny > 0 ->
            Error (Printf.sprintf "op %s takes no operand y" (op_name op))
        | nx, ny -> (
            match op with
            | Add | Mul | Div -> if nx = 1 && ny = 1 then Ok () else Error "scalar op wants 1-element operands"
            | Sqrt | Exp | Log | Sin -> if nx = 1 then Ok () else Error "unary op wants a 1-element operand"
            | Dot -> if nx = ny then Ok () else Error "vector operands differ in length"
            | Axpy ->
                if ny = nx + 1 then Ok ()
                else Error "axpy wants y = alpha followed by a vector of x's length"
            | Sum -> Ok ()
            | Poly_eval -> if ny = 1 then Ok () else Error "poly-eval wants a 1-element point y"
            | Program | Stats -> Ok ()))
  in
  let* tier =
    match (tier_opt, sla) with
    | Some t, _ -> Ok t
    | None, None -> assert false
    | None, Some q -> (
        (* an SLA stands in for the tier: the op must be certifiable,
           and the budget and operands pass the ladder's own
           admission check, which names the starting tier *)
        match Adaptive.Sla.of_wire ~op:(op_name op) ~prog with
        | None ->
            Error
              (Printf.sprintf "op %s cannot carry an sla (certifiable ops: %s)"
                 (op_name op)
                 (String.concat ", " Adaptive.Sla.supported_wire_ops))
        | Some _ -> Result.map tier_of_terms (Adaptive.Sla.check ~q { Adaptive.Sla.x; y; z }))
  in
  Ok { id; op; tier; sla; deadline_ms; prog; x; y; z }

let request_of_frame payload =
  let d =
    { s = payload; n = String.length payload; pos = 0; violation = None;
      comps = Array.make 4 0.0; comp_err = None }
  in
  let id = ref None and op = ref None and tier = ref None in
  let sla = ref None and deadline_ms = ref None and prog = ref [] in
  let x = ref None and y = ref None and z = ref None in
  let fields () =
    d.pos <- d.pos + 1;
    skip_ws d;
    let seen = ref 0 and unknown = Hashtbl.create 1 in
    if at d '}' then d.pos <- d.pos + 1
    else
      while
        skip_ws d;
        let key = string_value d in
        skip_ws d;
        expect d ':';
        (* a repeated key is a syntax error, as in Json_out.parse *)
        let once bit =
          if !seen land bit <> 0 then syntax d (Printf.sprintf "duplicate key %S" key);
          seen := !seen lor bit
        in
        (match key with
        | "schema" -> (
            once 1;
            match string_field d ".schema" with
            | Some v when v = schema_v1 || v = schema_v2 -> ()
            | Some v ->
                violate d ".schema"
                  (Printf.sprintf "expected one of %S, %S, got %S" schema_v1 schema_v2 v)
            | None -> ())
        | "id" ->
            once 2;
            id := Option.map int_of_float (number_field d ".id" ~integer:true)
        | "op" ->
            once 4;
            op := string_field d ".op"
        | "tier" ->
            once 8;
            tier := string_field d ".tier"
        | "sla" ->
            once 16;
            sla := Option.map int_of_float (number_field d ".sla" ~integer:true)
        | "deadline_ms" ->
            once 32;
            deadline_ms := number_field d ".deadline_ms" ~integer:false
        | "prog" ->
            once 64;
            prog := prog_field d
        | "x" ->
            once 128;
            x := Some (operand_field d "x")
        | "y" ->
            once 256;
            y := Some (operand_field d "y")
        | "z" ->
            once 512;
            z := Some (operand_field d "z")
        | _ ->
            if Hashtbl.mem unknown key then syntax d (Printf.sprintf "duplicate key %S" key);
            Hashtbl.add unknown key ();
            violate d "$" (Printf.sprintf "unexpected key %S" key);
            skip_value d);
        next_item d '}'
      do
        ()
      done;
    List.iter
      (fun (bit, key) ->
        if !seen land bit = 0 then violate d "$" (Printf.sprintf "missing required key %S" key))
      [ (1, "schema"); (2, "id"); (4, "op") ]
  in
  match
    value_start d;
    if at d '{' then fields () else mismatch d "$" "object";
    skip_ws d;
    if d.pos <> d.n then syntax d "trailing garbage"
  with
  | exception Syntax msg -> Error (0, "bad json: " ^ msg)
  | () -> (
      let id = Option.value ~default:0 !id in
      match (d.violation, !op) with
      | Some v, _ -> Error (id, v)
      | None, None -> assert false (* a missing op is a violation *)
      | None, Some op_text ->
          Result.map_error
            (fun e -> (id, e))
            (check_request ~id ~op_text ~tier_text:!tier ~sla:!sla ~deadline_ms:!deadline_ms
               ~prog:!prog ~x:!x ~y:!y ~z:!z))

let request_of_json doc = Result.map_error snd (request_of_frame (J.to_string_compact doc))

(* --- response ------------------------------------------------------- *)

let response_to_json = function
  | Result { id; result; batch; chosen; bound } ->
      J.Obj
        ([ (if chosen = None && bound = None then schema_field else schema_field_v2);
           ("id", J.Num (float_of_int id));
           ("status", J.Str "ok");
           ("result", elements_to_json result);
           ("batch", J.Num (float_of_int batch)) ]
        @ (match chosen with None -> [] | Some c -> [ ("chosen", J.Str c) ])
        @ match bound with None -> [] | Some b -> [ ("bound", J.Str (float_to_wire b)) ])
  | Shed { id; reason } ->
      J.Obj
        [ schema_field;
          ("id", J.Num (float_of_int id));
          ("status", J.Str "shed");
          ("reason", J.Str reason) ]
  | Failed { id; error } ->
      J.Obj
        [ schema_field;
          ("id", J.Num (float_of_int id));
          ("status", J.Str "error");
          ("error", J.Str error) ]
  | Stats_reply { id; stats } ->
      J.Obj
        [ schema_field;
          ("id", J.Num (float_of_int id));
          ("status", J.Str "ok");
          ("stats", stats) ]

let int_member key doc =
  match J.member key doc with
  | Some (J.Num f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let element_of_json v =
  match J.to_list v with
  | None -> Error "result element is not an array"
  | Some comps ->
      let out = Array.make (List.length comps) 0.0 in
      let rec go i = function
        | [] -> Ok out
        | J.Str s :: rest -> (
            match float_of_wire s with
            | Some f ->
                out.(i) <- f;
                go (i + 1) rest
            | None -> Error (Printf.sprintf "bad float component %S" s))
        | _ -> Error "result component is not a string"
      in
      go 0 comps

let response_of_json doc =
  match Obs.Schema.validate Obs.Schemas.serve_response doc with
  | Error violations -> Error (String.concat "; " violations)
  | Ok () -> (
      let id = Option.value ~default:0 (int_member "id" doc) in
      match Option.bind (J.member "status" doc) J.to_str with
      | Some "ok" -> (
          match J.member "stats" doc with
          | Some stats -> Ok (Stats_reply { id; stats })
          | None -> (
              match J.member "result" doc with
              | Some v -> (
                  (* components already validated as strings; any tier's
                     element width is accepted on the way back *)
                  match J.to_list v with
                  | None -> Error "result is not an array"
                  | Some els ->
                      let rec go acc = function
                        | [] -> Ok (Array.of_list (List.rev acc))
                        | el :: rest -> (
                            match element_of_json el with
                            | Ok c -> go (c :: acc) rest
                            | Error _ as e -> e)
                      in
                      let* result = go [] els in
                      let batch = Option.value ~default:1 (int_member "batch" doc) in
                      let chosen = Option.bind (J.member "chosen" doc) J.to_str in
                      let* bound =
                        match Option.bind (J.member "bound" doc) J.to_str with
                        | None -> Ok None
                        | Some s -> (
                            match float_of_wire s with
                            | Some b -> Ok (Some b)
                            | None -> Error (Printf.sprintf "bad bound %S" s))
                      in
                      Ok (Result { id; result; batch; chosen; bound }))
              | None -> Error "ok response carries neither result nor stats"))
      | Some "shed" ->
          let reason =
            Option.value ~default:"unspecified" (Option.bind (J.member "reason" doc) J.to_str)
          in
          Ok (Shed { id; reason })
      | Some "error" ->
          let error =
            Option.value ~default:"unspecified" (Option.bind (J.member "error" doc) J.to_str)
          in
          Ok (Failed { id; error })
      | _ -> Error "missing status")

(* --- framing -------------------------------------------------------- *)

(* Both ends write into sockets the peer may have abruptly closed; the
   default SIGPIPE disposition would kill the whole process instead of
   letting the write raise Unix_error(EPIPE,...), which the callers
   handle by dropping the connection. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let max_frame = 16 * 1024 * 1024

let frame_of_string payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let write_frame fd payload =
  let data = frame_of_string payload in
  let n = String.length data in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd data !pos (n - !pos)
  done

let really_read fd buf off len =
  let pos = ref 0 in
  let eof = ref false in
  while (not !eof) && !pos < len do
    let k = Unix.read fd buf (off + !pos) (len - !pos) in
    if k = 0 then eof := true else pos := !pos + k
  done;
  !pos

let read_frame fd =
  let hdr = Bytes.create 4 in
  match really_read fd hdr 0 4 with
  | 0 -> None
  | k when k < 4 -> failwith "Serve.Protocol: truncated frame header"
  | _ ->
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max_frame then
        failwith (Printf.sprintf "Serve.Protocol: bad frame length %d" len);
      let body = Bytes.create len in
      if really_read fd body 0 len < len then failwith "Serve.Protocol: truncated frame body";
      Some (Bytes.unsafe_to_string body)

(* --- reply writer ---------------------------------------------------- *)

(* Replies go out as bytes appended to a per-connection sink.  A
   [Result] frame is written in place: length prefix reserved and
   patched, JSON text and hex components emitted straight into the
   sink, with no tree, no string per component and no copy through
   [frame_of_string].  The bytes are those of the tree encoder
   ([frame_of_string (to_string_compact (response_to_json r))]); the
   other replies, off the hot path, go through it. *)
type sink = { mutable bytes : Bytes.t; mutable len : int }

let sink () = { bytes = Bytes.create 4096; len = 0 }

let reserve s k =
  let need = s.len + k in
  if need > Bytes.length s.bytes then begin
    let cap = ref (2 * Bytes.length s.bytes) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let grown = Bytes.create !cap in
    Bytes.blit s.bytes 0 grown 0 s.len;
    s.bytes <- grown
  end

let put_char s c =
  reserve s 1;
  Bytes.unsafe_set s.bytes s.len c;
  s.len <- s.len + 1

let put_string s str =
  let n = String.length str in
  reserve s n;
  Bytes.blit_string str 0 s.bytes s.len n;
  s.len <- s.len + n

(* Json_out renders an integer below 2^53 in magnitude as its decimal
   digits and anything larger through its shortest-float rule. *)
let put_int s n =
  if n <= -0x20000000000000 || n >= 0x20000000000000 then
    put_string s (J.to_string_compact (J.Num (float_of_int n)))
  else begin
    if n < 0 then put_char s '-';
    let a = abs n in
    let digits = ref 1 and t = ref a in
    while !t >= 10 do
      t := !t / 10;
      incr digits
    done;
    reserve s !digits;
    let t = ref a in
    for i = !digits - 1 downto 0 do
      Bytes.unsafe_set s.bytes (s.len + i) (Char.unsafe_chr (48 + (!t mod 10)));
      t := !t / 10
    done;
    s.len <- s.len + !digits
  end

let put_wire s c =
  reserve s (max_wire_len + 2);
  Bytes.unsafe_set s.bytes s.len '"';
  let e = emit_float s.bytes (s.len + 1) c in
  Bytes.unsafe_set s.bytes e '"';
  s.len <- e + 1

let write_response s resp =
  match resp with
  | Result { id; result; batch; chosen; bound } ->
      let start = s.len in
      reserve s 4;
      s.len <- s.len + 4;
      put_string s
        (if chosen = None && bound = None then {|{"schema":"fpan-serve/1","id":|}
         else {|{"schema":"fpan-serve/2","id":|});
      put_int s id;
      put_string s {|,"status":"ok","result":[|};
      for i = 0 to Array.length result - 1 do
        if i > 0 then put_char s ',';
        put_char s '[';
        let el = result.(i) in
        for j = 0 to Array.length el - 1 do
          if j > 0 then put_char s ',';
          put_wire s el.(j)
        done;
        put_char s ']'
      done;
      put_string s {|],"batch":|};
      put_int s batch;
      (match chosen with
      | None -> ()
      | Some c ->
          put_string s {|,"chosen":|};
          put_string s (J.to_string_compact (J.Str c)));
      (match bound with
      | None -> ()
      | Some b ->
          put_string s {|,"bound":|};
          put_wire s b);
      put_char s '}';
      Bytes.set_int32_be s.bytes start (Int32.of_int (s.len - start - 4))
  | Shed _ | Failed _ | Stats_reply _ ->
      put_string s (frame_of_string (J.to_string_compact (response_to_json resp)))

(* --- incremental deframing ------------------------------------------ *)

(* A flat byte region with a read cursor: each feed blits only the new
   chunk and extracts frames in place, so receiving a near-max frame in
   small reads costs O(frame), not O(frame^2) as re-buffering the whole
   backlog on every call would.  The region is compacted (remainder
   shifted to offset 0) only right before it must grow, which keeps the
   shift amortized O(1) per byte. *)
type deframer = {
  mutable data : Bytes.t;
  mutable start : int;  (* offset of the first unconsumed byte *)
  mutable len : int;  (* unconsumed bytes from [start] *)
}

let deframer () = { data = Bytes.create 4096; start = 0; len = 0 }

let feed d bytes len =
  if d.start + d.len + len > Bytes.length d.data then begin
    if d.start > 0 then begin
      Bytes.blit d.data d.start d.data 0 d.len;
      d.start <- 0
    end;
    if d.len + len > Bytes.length d.data then begin
      let cap = ref (Bytes.length d.data) in
      while !cap < d.len + len do
        cap := !cap * 2
      done;
      let grown = Bytes.create !cap in
      Bytes.blit d.data 0 grown 0 d.len;
      d.data <- grown
    end
  end;
  Bytes.blit bytes 0 d.data (d.start + d.len) len;
  d.len <- d.len + len;
  let frames = ref [] in
  let err = ref None in
  let continue = ref true in
  while !continue && !err = None && d.len >= 4 do
    let flen = Int32.to_int (Bytes.get_int32_be d.data d.start) in
    if flen < 0 || flen > max_frame then
      err := Some (Printf.sprintf "bad frame length %d" flen)
    else if d.len - 4 >= flen then begin
      frames := Bytes.sub_string d.data (d.start + 4) flen :: !frames;
      d.start <- d.start + 4 + flen;
      d.len <- d.len - 4 - flen
    end
    else continue := false
  done;
  if d.len = 0 then d.start <- 0;
  match !err with Some e -> Error e | None -> Ok (List.rev !frames)
