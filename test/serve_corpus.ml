(* Request frames for the decoder's differential test.  [valid] is
   shaped like the benchmark's two pools (scalar and vector ops, every
   tier, fixed and SLA, specials among the fixed-tier operands);
   [malformed] is every way a frame can go wrong that the serve
   protocol distinguishes.  The text is built here with Printf, not
   with the protocol's own encoder, so the corpus does not depend on
   the code it tests.

   [serve_decode_corpus.expected] holds, one line per frame in
   [all ()] order, the verdict the tree-walking decoder (Json_out.parse,
   schema validation, the tree walk) gave each frame before the
   single-pass decoder replaced it:
     ok <digest of the decoded request>
     json                      (not JSON: id 0 echoed)
     schema <id>               (schema violation, id echoed)
     error <id> <text>         (semantic rejection, exact text) *)

module P = Serve.Protocol

let wire f =
  if Float.is_nan f then Printf.sprintf "nan:%Lx" (Int64.bits_of_float f)
  else Printf.sprintf "%h" f

let str s = "\"" ^ s ^ "\""
let comps cs = "[" ^ String.concat "," (List.map (fun c -> str (wire c)) (Array.to_list cs)) ^ "]"
let operand els = "[" ^ String.concat "," (List.map comps (Array.to_list els)) ^ "]"

let obj ?(sep = "") fields =
  "{" ^ sep
  ^ String.concat ("," ^ sep) (List.map (fun (k, v) -> str k ^ sep ^ ":" ^ sep ^ v) fields)
  ^ sep ^ "}"

let specials =
  [| 0.0; -0.0; 4.9e-324; -4.9e-324; Int64.float_of_bits 0x000fffffffffffffL;
     Float.min_float; Float.max_float; Float.infinity; Float.neg_infinity; Float.nan;
     Int64.float_of_bits 0x7ff8000000000001L; Int64.float_of_bits 0xfff0000000000001L;
     Int64.float_of_bits 0x7ff4000000000000L; 1.0; -1.5 |]

let finite_specials = [| 0.0; -0.0; 4.9e-324; -4.9e-324; Int64.float_of_bits 0x000fffffffffffffL |]

(* A nonoverlapping expansion, as the benchmark draws them; [special]
   overwrites one component with a special value. *)
let expansion st ~terms ~special =
  let e = Random.State.int st 17 - 8 in
  let m = 1.0 +. Random.State.float st 1.0 in
  let sign = if Random.State.bool st then 1.0 else -1.0 in
  let c = Array.make terms (sign *. Float.ldexp m e) in
  for k = 1 to terms - 1 do
    c.(k) <- c.(k - 1) *. Float.ldexp (Random.State.float st 1.0 -. 0.5) (-53)
  done;
  (match special with
  | Some pool -> c.(Random.State.int st terms) <- pool.(Random.State.int st (Array.length pool))
  | None -> ());
  c

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One frame from its fields: every fifth with its keys shuffled,
   every seventh with JSON whitespace around every token. *)
let frame st i fields =
  let fields = if i mod 5 = 4 then shuffle st fields else fields in
  obj ~sep:(if i mod 7 = 6 then " \n\t\r " else "") fields

let header ~sla ~id ~op =
  [ ("schema", str (if sla then "fpan-serve/2" else "fpan-serve/1"));
    ("id", string_of_int id);
    ("op", str op) ]

let scalar_ops = [| "add"; "mul"; "div"; "sqrt"; "exp"; "log"; "sin" |]
let sla_qs = [| 1; 40; 100; 160; 200 |]

let scalar st i =
  let op = scalar_ops.(Random.State.int st (Array.length scalar_ops)) in
  let unary = match op with "sqrt" | "exp" | "log" | "sin" -> true | _ -> false in
  let sla = (op = "add" || op = "mul" || op = "div" || op = "sqrt") && Random.State.int st 3 = 0 in
  let terms, tier_field, special =
    if sla then
      ( 1 + Random.State.int st 4,
        [ ("sla", string_of_int sla_qs.(Random.State.int st 5)) ],
        if Random.State.int st 3 = 0 then Some finite_specials else None )
    else
      let t = 2 + Random.State.int st 3 in
      ( t,
        [ ("tier", str (Printf.sprintf "mf%d" t)) ],
        if Random.State.int st 3 = 0 then Some specials else None )
  in
  let el () = [| expansion st ~terms ~special |] in
  let deadline = if i mod 11 = 3 then [ ("deadline_ms", "12.5") ] else [] in
  frame st i
    (header ~sla ~id:(i + 1) ~op @ tier_field @ deadline
    @ [ ("x", operand (el ())) ]
    @ if unary then [] else [ ("y", operand (el ())) ])

let vector_kinds =
  [| ("dot", []); ("sum", []); ("axpy", []); ("poly-eval", []); ("program", [ "sum" ]);
     ("program", [ "mul"; "sum" ]); ("program", [ "axpy"; "dot" ]) |]

let vector st i =
  let op, prog = vector_kinds.(Random.State.int st (Array.length vector_kinds)) in
  let n = [| 1; 2; 3; 16; 64 |].(Random.State.int st 5) in
  let sla = op <> "poly-eval" && Random.State.bool st in
  let terms, tier_field, special =
    if sla then (2, [ ("sla", string_of_int sla_qs.(Random.State.int st 5)) ], None)
    else
      let t = 2 + Random.State.int st 3 in
      (t, [ ("tier", str (Printf.sprintf "mf%d" t)) ], Some specials)
  in
  let vec len =
    Array.init len (fun _ ->
        expansion st ~terms ~special:(if Random.State.int st 8 = 0 then special else None))
  in
  let prog_field =
    if prog = [] then [] else [ ("prog", "[" ^ String.concat "," (List.map str prog) ^ "]") ]
  in
  let x = vec n in
  let operands =
    match (op, prog) with
    | "dot", _ | "program", [ "mul"; "sum" ] -> [ ("x", operand x); ("y", operand (vec n)) ]
    | "axpy", _ -> [ ("x", operand x); ("y", operand (vec (n + 1))) ]
    | "program", [ "axpy"; "dot" ] ->
        [ ("x", operand x); ("y", operand (vec (n + 1))); ("z", operand (vec n)) ]
    | "poly-eval", _ -> [ ("x", operand x); ("y", operand (vec 1)) ]
    | _ -> [ ("x", operand x) ]
  in
  frame st i (header ~sla ~id:(1000 + i) ~op @ tier_field @ prog_field @ operands)

let valid () =
  let st = Random.State.make [| 0x5e7e; 25 |] in
  List.init 300 (scalar st) @ List.init 100 (vector st)
  @ [ {|{"schema":"fpan-serve/1","id":5,"op":"stats"}|} ]

(* --- malformed frames ------------------------------------------------- *)

let x1 = {|[["0x1p+0","0x0p+0"]]|}
let v1 = {|"schema":"fpan-serve/1"|}
let v2 = {|"schema":"fpan-serve/2"|}

(* A fixed-tier mf2 add whose x component is [c] (raw JSON text). *)
let add_with c =
  Printf.sprintf {|{%s,"id":9,"op":"add","tier":"mf2","x":[[%s,"0x0p+0"]],"y":%s}|} v1 c x1

let truncation_bases =
  [ Printf.sprintf {|{%s,"id":17,"op":"mul","tier":"mf2","deadline_ms":2.5,"x":[["0x1.8p+1","-0x1.2p-54"]],"y":[["nan:7ff8000000000001","0x0.0000000000001p-1022"]]}|} v1;
    Printf.sprintf {|{%s,"id":18,"op":"dot","sla":80,"x":[["0x1p+0"],["-0x1.4p+2"]],"y":[["0x1p-3"],["0x1.1p+1"]]}|} v2;
    Printf.sprintf {|{%s,"id":19,"op":"program","tier":"mf3","prog":["axpy","dot"],"x":[["0x1p+0","0x0p+0","0x0p+0"]],"y":[["0x1p+1","0x0p+0","0x0p+0"],["0x1p+2","0x0p+0","0x0p+0"]],"z":[["-0x1p+0","0x0p+0","0x0p+0"]]}|} v1 ]

let components =
  (* bad hex, non-canonical spellings float_of_string accepts, NaN
     payload rules, escapes inside a component *)
  [ {|"0x1.g"|}; {|"0x"|}; {|""|}; {|"1.5x"|}; {|"0x1p"|}; {|"0x1.8p+99999"|}; {|"0x1.p+0"|};
    {|"0X1P+0"|}; {|"1.5"|}; {|"inf"|}; {|"-inf"|}; {|"infinity"|}; {|"-infinity"|}; {|"nan"|};
    {|"0x1.8p1"|}; {|"0x1.80p+0"|}; {|"0x0.8p-1021"|}; {|"0x10p-4"|}; {|"1e308"|};
    {|"0x1p-1074"|}; {|"+0x1p+0"|}; {|"0x1_0p+0"|}; {|" 0x1p+0"|}; {|"0x1p+0 "|};
    {|"0x1.fffffffffffff8p+0"|}; {|"0x1.00000000000001p+0"|}; {|"0x2p+0"|}; {|"-0x0p+0"|};
    {|"0x0p+0"|}; {|"0x0p-1074"|}; {|"0x0.0000000000001p-1022"|}; {|"0x1p-1023"|};
    {|"0x1p+1024"|}; {|"0x1.fffffffffffffp+1023"|}; {|"0x1p-1022"|}; {|"0x1p+01"|};
    {|"nan:"|}; {|"nan:zz"|}; {|"nan:0"|}; {|"nan:7ff0000000000000"|}; {|"nan:7FF8000000000001"|};
    {|"nan:fff8000000000000"|}; {|"nan:17ff8000000000000"|}; {|"0x1p+0"|}; {|"0x1p\/0"|};
    {|"0x1p+0"|}; {|1|}; {|null|}; {|true|}; {|["0x1p+0"]|}; {|{"a":1}|} ]

let misc =
  [ (* duplicate keys, top level and nested *)
    Printf.sprintf {|{%s,"id":3,"op":"stats","op":"add"}|} v1;
    Printf.sprintf {|{%s,"id":3,"id":4,"op":"stats"}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"stats","junk":1,"junk":2}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"stats","op":"add"}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"sum","tier":"mf2","x":[[{"a":1,"a":2}]]}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"sum","tier":"mf2","x":[["0x1p+0","0x0p+0"]],"junk":{"b":[{"c":1,"c":2}]}}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"sum","tier":"mf2","x":{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"g":7,"h":8,"i":9,"a":10}}|} v1;
    (* unknown keys *)
    Printf.sprintf {|{%s,"id":3,"op":"stats","junk":true}|} v1;
    Printf.sprintf {|{"junk":true,%s,"id":3,"op":"stats"}|} v1;
    Printf.sprintf {|{%s,"junk":true,"op":"stats"}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"stats","Id":4}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"sum","tier":"mf2","x":[["0x1p+0","0x0p+0"]],"w":[]}|} v1;
    (* reordered keys, whitespace, escapes in keys and values *)
    Printf.sprintf {|{"x":%s,"y":%s,"tier":"mf2","op":"add","id":21,%s}|} x1 x1 v1;
    Printf.sprintf " \t\n{ %s , \"id\" : 22 , \"op\" : \"add\" , \"tier\" : \"mf2\" , \"x\" : [ [ \"0x1p+0\" , \"0x0p+0\" ] ] , \"y\" : %s } \r\n" v1 x1;
    Printf.sprintf {|{"schema":"fpan-serve/1","id":23,"op":"add","tier":"mf2","x":%s,"y":%s}|} x1 x1;
    Printf.sprintf {|{%s,"id":24,"op":"a\"dd","tier":"mf2","x":%s,"y":%s}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":24,"op":"add\n","tier":"mf2","x":%s,"y":%s}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":25,"op":"add","tier":"mf2","x":%s,"y":%s,"\q":1}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":26,"op":"add","tier":"mf2","x":%s,"y":%s,"\u12G4":1}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":26,"op":"add","tier":"mf2","x":%s,"y":%s,"\u12|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":27,"op":"add","tier":"mf2","x":%s,"y":%s,"é中":1}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":28,"op":"stats","prog":["a\tb"]}|} v1;
    (* wrong component counts, mixed SLA widths *)
    Printf.sprintf {|{%s,"id":30,"op":"sqrt","tier":"mf3","x":[["0x1p+0","0x0p+0"]]}|} v1;
    Printf.sprintf {|{%s,"id":31,"op":"add","tier":"mf2","x":[["0x1p+0"]],"y":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":32,"op":"add","tier":"mf2","x":%s,"y":[["0x1p+0","0x0p+0","0x0p+0"]]}|} v1 x1;
    Printf.sprintf {|{%s,"id":33,"op":"dot","tier":"mf2","x":[["0x1p+0","0x0p+0"],["0x1p+0"]],"y":[["bad","0x0p+0"],["0x1p+0","0x0p+0"]]}|} v1;
    Printf.sprintf {|{%s,"id":34,"op":"dot","tier":"mf2","x":[["0x1p+0","bad"],["0x1p+0"]],"y":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":35,"op":"dot","tier":"mf2","x":[["0x1p+0","0x0p+0"],["0x1p+0","bad"]],"y":[["0x1p+0"],["0x1p+0"]]}|} v1;
    Printf.sprintf {|{"y":[["0x1p+0"]],"x":[["0x1p+0","bad"]],"op":"add","id":36,"tier":"mf2",%s}|} v1;
    Printf.sprintf {|{%s,"id":37,"op":"sum","tier":"mf2","x":[[]]}|} v1;
    Printf.sprintf {|{%s,"id":38,"op":"sum","tier":"mf2","x":[]}|} v1;
    Printf.sprintf {|{%s,"id":40,"op":"add","sla":80,"x":[["0x1p+0","0x0p+0"]],"y":[["0x1p+0"]]}|} v2;
    Printf.sprintf {|{%s,"id":41,"op":"add","sla":80,"x":[["0x1p+0","0x0p+0","0x0p+0","0x0p+0","0x0p+0"]],"y":[["0x1p+0","0x0p+0","0x0p+0","0x0p+0","0x0p+0"]]}|} v2;
    Printf.sprintf {|{%s,"id":42,"op":"add","sla":80,"x":[[]],"y":[[]]}|} v2;
    Printf.sprintf {|{%s,"id":43,"op":"add","sla":80,"x":[["inf"]],"y":[["0x1p+0"]]}|} v2;
    Printf.sprintf {|{%s,"id":44,"op":"add","sla":80,"x":[["0x1p+0","bad"]],"y":[["0x1p+0"]]}|} v2;
    Printf.sprintf {|{%s,"id":45,"op":"sum","sla":80,"x":[["0x1p+0"],["0x1p+0","0x0p+0"]]}|} v2;
    (* ids and slas that are not integers, numbers JSON spells oddly *)
    Printf.sprintf {|{%s,"id":1.5,"op":"stats"}|} v1;
    Printf.sprintf {|{%s,"id":"7","op":"stats"}|} v1;
    Printf.sprintf {|{%s,"id":null,"op":"stats"}|} v1;
    Printf.sprintf {|{%s,"id":true,"op":"stats"}|} v1;
    Printf.sprintf {|{%s,"id":[7],"op":"stats"}|} v1;
    Printf.sprintf {|{%s,"id":1e400,"op":"stats"}|} v1;
    Printf.sprintf {|{%s,"id":1e300,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":9007199254740993,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":4611686018427387904,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":-12,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":01,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":-0,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":1e3,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":1E+3,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":7.0,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":7.,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":.5,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":--1,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":1.2.3,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":-,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":1e,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":1-2,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":0x10,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":+1,"op":"cbrt"}|} v1;
    Printf.sprintf {|{%s,"id":12,"op":"add","sla":80.5,"x":%s,"y":%s}|} v2 x1 x1;
    Printf.sprintf {|{%s,"id":12,"op":"add","sla":"80","x":%s,"y":%s}|} v2 x1 x1;
    Printf.sprintf {|{%s,"id":12,"op":"add","sla":8e1,"x":%s,"y":%s}|} v2 x1 x1;
    Printf.sprintf {|{%s,"id":12,"op":"add","tier":"mf2","deadline_ms":"5","x":%s,"y":%s}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":12,"op":"add","tier":"mf2","deadline_ms":null,"x":%s,"y":%s}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":12,"op":"add","tier":"mf2","deadline_ms":-3,"x":%s,"y":%s}|} v1 x1 x1;
    (* missing required keys, wrong shapes, non-objects *)
    {|{"id":3,"op":"stats"}|};
    Printf.sprintf {|{%s,"op":"stats"}|} v1;
    Printf.sprintf {|{%s,"id":3}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":5}|} v1;
    Printf.sprintf {|{"schema":"fpan-serve/9","id":3,"op":"stats"}|};
    Printf.sprintf {|{"schema":3,"id":3,"op":"stats"}|};
    Printf.sprintf {|{%s,"id":3,"op":"add","tier":5,"x":%s,"y":%s}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":3,"op":"add","tier":"mf2","x":"0x1p+0","y":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":3,"op":"add","tier":"mf2","x":["0x1p+0","0x0p+0"],"y":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":3,"op":"add","tier":"mf2","x":[[1,2]],"y":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":3,"op":"sum","tier":"mf2","prog":"sum","x":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":3,"op":"program","tier":"mf2","prog":[1],"x":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":3,"op":"program","tier":"mf2","prog":[],"x":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":3,"op":"sum","tier":"mf2","prog":[],"x":%s}|} v1 x1;
    {|[1,2]|}; {|"str"|}; {|5|}; {|null|}; {|true|}; {|{}|}; {|[]|}; ""; "   "; "{"; "}";
    (* trailing garbage, syntax *)
    Printf.sprintf {|{%s,"id":3,"op":"stats"} x|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"stats"}{}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"stats",}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"stats","x":[[],]}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"stats","x":[[] []]}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"stats","junk":tru}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"stats","junk":nul}|} v1;
    Printf.sprintf {|{%s,"id":3,"op":"stats","junk":falsey}|} v1;
    Printf.sprintf {|{%s "id":3,"op":"stats"}|} v1;
    Printf.sprintf {|{%s,"id" 3,"op":"stats"}|} v1;
    Printf.sprintf {|{%s,id:3,"op":"stats"}|} v1;
    Printf.sprintf {|{%s,"id":3,'op':"stats"}|} v1;
    Printf.sprintf "{%s,\"id\":3,\"op\":\"stats\"}\000" v1;
    Printf.sprintf "{%s,\"id\":3,\"op\":\"st\001ats\"}" v1;
    Printf.sprintf "{%s,\"id\":3,\"op\":\"stats\",\"junk\":\"\255\254\"}" v1;
    (* semantic errors, each keeping its text *)
    Printf.sprintf {|{%s,"id":42,"op":"cbrt","tier":"mf2"}|} v1;
    Printf.sprintf {|{%s,"id":42,"op":"add","tier":"mf9","x":[["0x1p+0"]]}|} v1;
    Printf.sprintf {|{%s,"id":42,"op":"add","x":%s,"y":%s}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"mul","tier":"mf2","x":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"mul","tier":"mf2","y":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"sqrt","tier":"mf2","x":%s,"y":%s}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"add","tier":"mf2","x":[["0x1p+0","0x0p+0"],["0x1p+0","0x0p+0"]],"y":[["0x1p+0","0x0p+0"],["0x1p+0","0x0p+0"]]}|} v1;
    Printf.sprintf {|{%s,"id":42,"op":"exp","tier":"mf2","x":[["0x1p+0","0x0p+0"],["0x1p+0","0x0p+0"]]}|} v1;
    Printf.sprintf {|{%s,"id":42,"op":"dot","tier":"mf2","x":%s,"y":[["0x1p+0","0x0p+0"],["0x1p+0","0x0p+0"]]}|} v1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"axpy","tier":"mf2","x":%s,"y":%s}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"poly-eval","tier":"mf2","x":%s,"y":[["0x1p+0","0x0p+0"],["0x1p+0","0x0p+0"]]}|} v1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"sum","tier":"mf2","prog":["sum"],"x":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"sum","tier":"mf2","x":%s,"z":%s}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"program","tier":"mf2","x":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"program","tier":"mf2","prog":["sum"]}|} v1;
    Printf.sprintf {|{%s,"id":42,"op":"program","tier":"mf2","prog":["sum"],"x":%s,"y":%s}|} v1 x1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"program","tier":"mf2","prog":["mul","sum"],"x":%s,"y":[["0x1p+0","0x0p+0"],["0x1p+0","0x0p+0"]]}|} v1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"program","tier":"mf2","prog":["mul","sum"],"x":%s,"y":%s,"z":%s}|} v1 x1 x1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"program","tier":"mf2","prog":["axpy","dot"],"x":%s,"y":%s,"z":%s}|} v1 x1 x1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"program","tier":"mf2","prog":["axpy","dot"],"x":%s,"y":[["0x1p+0","0x0p+0"],["0x1p+0","0x0p+0"]]}|} v1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"program","tier":"mf2","prog":["dot","sum"],"x":%s}|} v1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"add","tier":"mf2","sla":80,"x":%s,"y":%s}|} v2 x1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"exp","sla":80,"x":%s}|} v2 x1;
    Printf.sprintf {|{%s,"id":42,"op":"program","sla":80,"prog":["dot","sum"],"x":%s}|} v2 x1;
    Printf.sprintf {|{%s,"id":42,"op":"add","sla":500,"x":%s,"y":%s}|} v2 x1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"add","sla":0,"x":%s,"y":%s}|} v2 x1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"add","sla":-4,"x":%s,"y":%s}|} v2 x1 x1;
    Printf.sprintf {|{%s,"id":42,"op":"stats","sla":80}|} v2;
    Printf.sprintf {|{%s,"id":42,"op":"stats","x":[["0x1p+0"]]}|} v1;
    Printf.sprintf {|{%s,"id":42,"op":"stats","tier":"mf3","x":[["0x1p+0","0x0p+0","0x0p+0"]]}|} v1;
    Printf.sprintf {|{%s,"id":42,"op":"sum","sla":80,"x":[["0x1p+0","0x0p+0"]]}|} v1 ]

let malformed () =
  List.concat_map (fun f -> List.init (String.length f) (fun k -> String.sub f 0 k)) truncation_bases
  @ List.map add_with components @ misc

let all () = valid () @ malformed ()

(* --- verdicts ------------------------------------------------------------ *)

(* Every bit of a decoded request, hashed. *)
let digest (r : P.request) =
  let b = Buffer.create 256 in
  let bits f = Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float f)) in
  Buffer.add_string b
    (Printf.sprintf "%d|%s|%s|%s|" r.P.id (P.op_name r.P.op) (P.tier_name r.P.tier)
       (match r.P.sla with None -> "-" | Some q -> string_of_int q));
  (match r.P.deadline_ms with None -> Buffer.add_char b '-' | Some d -> bits d);
  Buffer.add_string b ("|" ^ String.concat ";" r.P.prog ^ "|");
  List.iter
    (fun els ->
      Array.iter
        (fun e ->
          Array.iter bits e;
          Buffer.add_char b '/')
        els;
      Buffer.add_char b '|')
    [ r.P.x; r.P.y; r.P.z ];
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The verdict line of a decoder result: [Error (id, text)], with
   "bad json: " marking frames that are not JSON, and a schema
   violation's path ("$: ...", ".x[0][1]: ...") marking those. *)
let verdict = function
  | Ok r -> "ok " ^ digest r
  | Error (id, e) ->
      if String.length e >= 10 && String.sub e 0 10 = "bad json: " then
        if id = 0 then "json" else Printf.sprintf "json %d" id
      else if String.length e > 0 && (e.[0] = '$' || e.[0] = '.') then
        Printf.sprintf "schema %d" id
      else Printf.sprintf "error %d %s" id e
