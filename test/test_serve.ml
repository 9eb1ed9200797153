(* The serving layer's contract: wire codec exactness (hex-float
   transport of NaN / infinities / signed zero / subnormals), deframer
   reassembly under arbitrary fragmentation, bitwise equality of served
   batched responses against the scalar path for every op x tier over
   Check.Corpus adversarial operands, the admission bound with explicit
   shed responses, deadline sheds, and the zero-loss graceful drain. *)

module P = Serve.Protocol
module J = Obs.Json_out

let bits = Int64.bits_of_float

let check_elements msg (a : float array array) (b : float array array) =
  Alcotest.(check int) (msg ^ ": element count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i ea ->
      let eb = b.(i) in
      Alcotest.(check int) (msg ^ ": component count") (Array.length ea) (Array.length eb);
      Array.iteri
        (fun j c ->
          Alcotest.(check int64)
            (Printf.sprintf "%s: element %d component %d" msg i j)
            (bits c) (bits eb.(j)))
        ea)
    a

(* --- codec ----------------------------------------------------------- *)

let specials =
  [| Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 4.9e-324;
     -4.9e-324; Float.max_float; Float.min_float; 1.0; -1.5 |]

let test_request_roundtrip () =
  let reqs =
    [ { P.id = 7; op = P.Add; tier = P.Mf2; sla = None; deadline_ms = Some 12.5; prog = [];
        x = [| [| 1.0; 4.9e-324 |] |]; y = [| [| Float.nan; -0.0 |] |]; z = [||] };
      { P.id = 8; op = P.Dot; tier = P.Mf3; sla = None; deadline_ms = None; prog = [];
        x = [| [| Float.infinity; 0.0; -0.0 |]; [| 1.0; 1e-300; 4.9e-324 |] |];
        y = [| [| -1.0; 2.0; 3.0 |]; [| Float.neg_infinity; 0.5; -0.25 |] |]; z = [||] };
      { P.id = 9; op = P.Sqrt; tier = P.Mf4; sla = None; deadline_ms = None; prog = [];
        x = [| [| 2.0; 1e-17; 1e-34; 4.9e-324 |] |]; y = [||]; z = [||] };
      { P.id = 10; op = P.Program; tier = P.Mf2; sla = None; deadline_ms = None;
        prog = [ "axpy"; "dot" ];
        x = [| [| 1.0; 4.9e-324 |] |];
        y = [| [| 2.0; -0.0 |]; [| 0.5; 1e-300 |] |];
        z = [| [| Float.nan; 3.0 |] |] };
      (* an sla request: v2 frame, tier derived from the operand width *)
      { P.id = 11; op = P.Mul; tier = P.Mf2; sla = Some 80; deadline_ms = None; prog = [];
        x = [| [| 1.5; 4.9e-324 |] |]; y = [| [| 0.75; -0.0 |] |]; z = [||] } ]
  in
  List.iter
    (fun r ->
      let doc = J.parse_exn (J.to_string (P.request_to_json r)) in
      match P.request_of_json doc with
      | Error e -> Alcotest.fail ("request did not round-trip: " ^ e)
      | Ok r' ->
          Alcotest.(check int) "id" r.P.id r'.P.id;
          Alcotest.(check string) "op" (P.op_name r.P.op) (P.op_name r'.P.op);
          Alcotest.(check string) "tier" (P.tier_name r.P.tier) (P.tier_name r'.P.tier);
          Alcotest.(check (option int)) "sla" r.P.sla r'.P.sla;
          Alcotest.(check (list string)) "prog" r.P.prog r'.P.prog;
          check_elements "x" r.P.x r'.P.x;
          check_elements "y" r.P.y r'.P.y;
          check_elements "z" r.P.z r'.P.z)
    reqs;
  (* every special double survives the hex transport bitwise *)
  let x = Array.map (fun f -> [| f; 0.0 |]) specials in
  let r =
    { P.id = 1; op = P.Sum; tier = P.Mf2; sla = None; deadline_ms = None; prog = []; x;
      y = [||]; z = [||] }
  in
  match P.request_of_json (J.parse_exn (J.to_string (P.request_to_json r))) with
  | Error e -> Alcotest.fail e
  | Ok r' -> check_elements "specials" x r'.P.x

let test_response_roundtrip () =
  let resps =
    [ P.Result
        { id = 3; result = Array.map (fun f -> [| f; -0.0 |]) specials; batch = 17;
          chosen = None; bound = None };
      (* an sla response: chosen tier + certified bound ride the frame *)
      P.Result
        { id = 6; result = [| [| 1.5; 4.9e-324 |] |]; batch = 1; chosen = Some "mf2";
          bound = Some 1.25e-30 };
      P.Shed { id = 4; reason = "queue_full" };
      P.Failed { id = 5; error = "no such op" } ]
  in
  List.iter
    (fun resp ->
      match P.response_of_json (J.parse_exn (J.to_string (P.response_to_json resp))) with
      | Error e -> Alcotest.fail e
      | Ok got -> (
          Alcotest.(check int) "id" (P.response_id resp) (P.response_id got);
          match (resp, got) with
          | P.Result a, P.Result b ->
              check_elements "result" a.result b.result;
              Alcotest.(check int) "batch" a.batch b.batch;
              Alcotest.(check (option string)) "chosen" a.chosen b.chosen;
              Alcotest.(check bool) "bound bitwise" true
                (match (a.bound, b.bound) with
                | None, None -> true
                | Some u, Some v -> Int64.equal (bits u) (bits v)
                | _ -> false)
          | P.Shed a, P.Shed b -> Alcotest.(check string) "reason" a.reason b.reason
          | P.Failed a, P.Failed b -> Alcotest.(check string) "error" a.error b.error
          | _ -> Alcotest.fail "response kind changed in flight"))
    resps

let test_request_validation () =
  let reject msg json =
    match P.request_of_json (J.parse_exn json) with
    | Ok _ -> Alcotest.fail (msg ^ ": accepted")
    | Error _ -> ()
  in
  reject "unknown op"
    {|{"schema":"fpan-serve/1","id":1,"op":"cbrt","tier":"mf2","x":[["0x1p+0","0x0p+0"]]}|};
  reject "unknown tier"
    {|{"schema":"fpan-serve/1","id":1,"op":"add","tier":"mf9","x":[["0x1p+0"]]}|};
  reject "wrong component count"
    {|{"schema":"fpan-serve/1","id":1,"op":"sqrt","tier":"mf3","x":[["0x1p+0","0x0p+0"]]}|};
  reject "missing y"
    {|{"schema":"fpan-serve/1","id":1,"op":"mul","tier":"mf2","x":[["0x1p+0","0x0p+0"]]}|};
  reject "unknown key"
    {|{"schema":"fpan-serve/1","id":1,"op":"stats","junk":true}|};
  reject "bad schema" {|{"schema":"fpan-serve/9","id":1,"op":"stats"}|};
  reject "sla and tier together"
    {|{"schema":"fpan-serve/2","id":1,"op":"add","tier":"mf2","sla":80,"x":[["0x1p+0","0x0p+0"]],"y":[["0x1p+0","0x0p+0"]]}|};
  reject "sla on an uncertifiable op"
    {|{"schema":"fpan-serve/2","id":1,"op":"exp","sla":80,"x":[["0x1p+0","0x0p+0"]]}|};
  reject "sla out of range"
    {|{"schema":"fpan-serve/2","id":1,"op":"add","sla":500,"x":[["0x1p+0","0x0p+0"]],"y":[["0x1p+0","0x0p+0"]]}|};
  reject "sla with non-uniform operand widths"
    {|{"schema":"fpan-serve/2","id":1,"op":"add","sla":80,"x":[["0x1p+0","0x0p+0"]],"y":[["0x1p+0"]]}|};
  reject "sla with non-finite operands"
    {|{"schema":"fpan-serve/2","id":1,"op":"add","sla":80,"x":[["inf"]],"y":[["0x1p+0"]]}|};
  reject "axpy length mismatch"
    {|{"schema":"fpan-serve/1","id":1,"op":"axpy","tier":"mf2","x":[["0x1p+0","0x0p+0"]],"y":[["0x1p+0","0x0p+0"]]}|};
  reject "unknown program chain"
    {|{"schema":"fpan-serve/1","id":1,"op":"program","tier":"mf2","prog":["dot","sum"],"x":[["0x1p+0","0x0p+0"]]}|};
  reject "program without prog"
    {|{"schema":"fpan-serve/1","id":1,"op":"program","tier":"mf2","x":[["0x1p+0","0x0p+0"]]}|};
  reject "prog on a plain op"
    {|{"schema":"fpan-serve/1","id":1,"op":"sum","tier":"mf2","prog":["sum"],"x":[["0x1p+0","0x0p+0"]]}|};
  reject "z on a plain op"
    {|{"schema":"fpan-serve/1","id":1,"op":"sum","tier":"mf2","x":[["0x1p+0","0x0p+0"]],"z":[["0x1p+0","0x0p+0"]]}|};
  reject "program axpy;dot missing z"
    {|{"schema":"fpan-serve/1","id":1,"op":"program","tier":"mf2","prog":["axpy","dot"],"x":[["0x1p+0","0x0p+0"]],"y":[["0x1p+0","0x0p+0"],["0x1p+1","0x0p+0"]]}|}

let test_deframer_fragmentation () =
  let payloads = [ "alpha"; ""; String.make 5000 'x'; "{\"last\":1}" ] in
  let stream = String.concat "" (List.map P.frame_of_string payloads) in
  (* every chunk size reassembles the same frames *)
  List.iter
    (fun chunk ->
      let d = P.deframer () in
      let got = ref [] in
      let pos = ref 0 in
      let n = String.length stream in
      while !pos < n do
        let len = min chunk (n - !pos) in
        let b = Bytes.of_string (String.sub stream !pos len) in
        (match P.feed d b len with
        | Ok frames -> got := !got @ frames
        | Error e -> Alcotest.fail e);
        pos := !pos + len
      done;
      Alcotest.(check (list string))
        (Printf.sprintf "chunk=%d" chunk)
        payloads !got)
    [ 1; 2; 3; 4; 5; 7; 4096; String.length stream ];
  (* oversized length prefix is refused *)
  let d = P.deframer () in
  let evil = Bytes.create 4 in
  Bytes.set_int32_be evil 0 (Int32.of_int (P.max_frame + 1));
  match P.feed d evil 4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted"

(* A near-1-MiB frame arriving in 64 KiB reads, with a small frame
   straddling the tail: exercises the deframer's buffer growth,
   compaction, and cursor-reset paths. *)
let test_deframer_large_frame () =
  let big = String.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) in
  let payloads = [ big; "tail" ] in
  let stream = String.concat "" (List.map P.frame_of_string payloads) in
  let d = P.deframer () in
  let got = ref [] in
  let pos = ref 0 in
  let n = String.length stream in
  while !pos < n do
    let len = min 65536 (n - !pos) in
    let b = Bytes.of_string (String.sub stream !pos len) in
    (match P.feed d b len with
    | Ok frames -> got := !got @ frames
    | Error e -> Alcotest.fail e);
    pos := !pos + len
  done;
  Alcotest.(check (list string)) "large frame reassembles" payloads !got

(* --- the single-pass decoder and the direct writer ------------------- *)

(* Every corpus frame gets the verdict the tree-walking decoder gave it
   (recorded in serve_decode_corpus.expected, see Serve_corpus): the
   same request bits, the same rejection class and echoed id, the same
   text for a semantic rejection.  Frames that parse as JSON also go
   through the [request_of_json] adapter, which must agree. *)
let test_decoder_corpus () =
  let frames = Array.of_list (Serve_corpus.all ()) in
  let expected =
    let ic = open_in_bin "serve_decode_corpus.expected" in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
          close_in ic;
          Array.of_list (List.rev acc)
    in
    go []
  in
  Alcotest.(check int) "one recorded verdict per frame" (Array.length frames)
    (Array.length expected);
  Array.iteri
    (fun i f ->
      let got = Serve_corpus.verdict (P.request_of_frame f) in
      if got <> expected.(i) then
        Alcotest.failf "frame %d %S: recorded %S, decoded %S" i f expected.(i) got;
      match J.parse f with
      | Error _ -> ()
      | Ok doc ->
          let adapted =
            Serve_corpus.verdict (Result.map_error (fun e -> (0, e)) (P.request_of_json doc))
          in
          let same =
            match (String.split_on_char ' ' got, String.split_on_char ' ' adapted) with
            | "ok" :: d, "ok" :: d' -> d = d'
            | k :: _, k' :: _ -> k = k' && k <> "ok"
            | _ -> false
          in
          if not same then Alcotest.failf "frame %d %S: adapter %S, decoder %S" i f adapted got)
    frames

let printf_wire f =
  if Float.is_nan f then Printf.sprintf "nan:%Lx" (Int64.bits_of_float f)
  else Printf.sprintf "%h" f

let tree_frame r = P.frame_of_string (J.to_string_compact (P.response_to_json r))

let direct_frame r =
  let s = P.sink () in
  P.write_response s r;
  Bytes.sub_string s.P.bytes 0 s.P.len

(* The hex emitter is Printf "%h" over the specials and 2^20 random bit
   patterns (a quarter of them zeros, subnormals, infinities and NaNs,
   an eighth with short mantissas), and the direct writer is the tree
   encoder byte for byte over replies carrying all of them, every id
   and field shape, and frames appended back to back. *)
let test_writer_bytes () =
  let st = Random.State.make [| 0x7717 |] in
  let pattern () =
    let b = Random.State.bits64 st in
    match Random.State.int st 8 with
    | 0 -> Int64.logand b 0x800f_ffff_ffff_ffffL
    | 1 -> Int64.logor b 0x7ff0_0000_0000_0000L
    | 2 -> Int64.logand b 0xffff_f000_0000_0000L
    | _ -> b
  in
  let floats =
    Array.append specials
      (Array.init (1 lsl 20) (fun _ -> Int64.float_of_bits (pattern ())))
  in
  Array.iter
    (fun f ->
      let want = printf_wire f in
      let got = P.float_to_wire f in
      if got <> want then
        Alcotest.failf "float_to_wire %Lx: %S, Printf gives %S" (Int64.bits_of_float f) got want)
    floats;
  let ids =
    [| 0; 1; -1; 42; 9007199254740991; -9007199254740991; 9007199254740992;
       -9007199254740992; 1 lsl 60; max_int; min_int |]
  in
  let chosens = [| None; Some "mf2"; Some "bigfloat"; Some "odd \"q\"\n" |] in
  let next = ref 0 in
  let take () =
    let f = floats.(!next mod Array.length floats) in
    incr next;
    f
  in
  let rec results k acc =
    if !next >= Array.length floats then List.rev acc
    else begin
      let width = 1 + (k mod 4) in
      let n = if k mod 97 = 0 then 0 else 1 + Random.State.int st 64 in
      let result = Array.init n (fun _ -> Array.init width (fun _ -> take ())) in
      let chosen = chosens.(k mod 4) in
      let bound = if k mod 3 = 0 then None else Some (take ()) in
      let id = ids.(k mod Array.length ids) in
      results (k + 1) (P.Result { id; result; batch = 1 + (k mod 64); chosen; bound } :: acc)
    end
  in
  let replies =
    results 0 []
    @ [ P.Result { id = 3; result = [| [||] |]; batch = 1; chosen = None; bound = None };
        P.Shed { id = 4; reason = "queue_full" };
        P.Failed { id = 5; error = "bad \"json\": \001" };
        P.Stats_reply { id = 6; stats = J.Obj [ ("k", J.List [ J.Num 1.5; J.Null ]) ] } ]
  in
  List.iter
    (fun r ->
      let want = tree_frame r in
      let got = direct_frame r in
      if got <> want then Alcotest.failf "reply %d: %S, tree encoder %S" (P.response_id r) got want)
    replies;
  (* one sink, every reply appended: the concatenation of the frames *)
  let s = P.sink () in
  List.iter (P.write_response s) replies;
  Alcotest.(check bool) "frames append back to back" true
    (Bytes.sub_string s.P.bytes 0 s.P.len = String.concat "" (List.map tree_frame replies))

(* --- server fixture -------------------------------------------------- *)

let sock_dir =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpan_serve_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (EEXIST, _, _) -> ());
  at_exit (fun () ->
      (try
         Array.iter
           (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ());
  dir

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat sock_dir
    (Printf.sprintf "serve_test_%d_%d.sock" (Unix.getpid ()) !sock_counter)

let with_server ?queue_capacity ?max_batch ?window_us ?cache_capacity f =
  let path = fresh_sock () in
  Runtime.Sched.with_sched ~workers:2 (fun sched ->
      let srv =
        Serve.Server.start ~sched ~addr:(Serve.Server.Unix_path path) ?queue_capacity
          ?max_batch ?window_us ?cache_capacity ()
      in
      Fun.protect
        ~finally:(fun () -> Serve.Server.stop srv)
        (fun () -> f srv (Serve.Server.Unix_path path)))

let mk_req ?sla ?deadline_ms ?(prog = []) ?(z = [||]) ~id ~op ~tier ~x ~y () =
  { P.id; op; tier; sla; deadline_ms; prog; x; y; z }

let stats_int doc k =
  match Option.bind (J.member k doc) J.to_num with
  | Some f -> int_of_float f
  | None -> Alcotest.fail ("stats missing " ^ k)

let stats_rows doc k =
  match J.member k doc with
  | Some (J.List rows) -> rows
  | _ -> Alcotest.fail ("stats missing " ^ k)

(* The sample count of one [latency_ns] histogram row. *)
let latency_count doc name =
  match
    List.find_opt (fun r -> J.member "name" r = Some (J.Str name)) (stats_rows doc "latency_ns")
  with
  | Some row -> stats_int row "count"
  | None -> Alcotest.fail ("latency_ns has no row " ^ name)

let shed_buckets doc =
  List.map
    (fun r ->
      match J.member "bucket" r with
      | Some (J.Str b) -> (b, stats_int r "count")
      | _ -> Alcotest.fail "bucket row without a name")
    (stats_rows doc "shed_by_bucket")

let shed_total doc =
  List.fold_left
    (fun acc k -> acc + stats_int doc k)
    0
    [ "shed_full"; "shed_deadline"; "shed_closed"; "shed_displaced" ]

(* --- bitwise server vs scalar over the adversarial corpus ------------ *)

let corpus_operands ~terms n =
  let rng = Random.State.make [| 0x5e7e; terms |] in
  Array.init n (fun i ->
      let c = Check.Corpus.scalar_case rng ~terms i in
      (c.Check.Corpus.x, c.Check.Corpus.y))

(* Requests for one (op, tier), ids from [first_id]; returns them with
   the next free id. *)
let requests_for_op ~tier ~op ~first_id =
  let terms = P.tier_terms tier in
  let ops = corpus_operands ~terms 24 in
  let reqs =
    match op with
    | P.Add | P.Mul | P.Div ->
        Array.to_list
          (Array.mapi
             (fun i (x, y) ->
               mk_req ~id:(first_id + i) ~op ~tier ~x:[| x |] ~y:[| y |] ())
             ops)
    | P.Sqrt | P.Exp | P.Log | P.Sin ->
        Array.to_list
          (Array.mapi
             (fun i (x, _) -> mk_req ~id:(first_id + i) ~op ~tier ~x:[| x |] ~y:[||] ())
             ops)
    | P.Dot ->
        let xs = Array.map fst ops and ys = Array.map snd ops in
        [ mk_req ~id:first_id ~op ~tier ~x:xs ~y:ys () ]
    | P.Axpy ->
        let xs = Array.map fst ops in
        let ys = Array.append [| fst ops.(0) |] (Array.map snd ops) in
        [ mk_req ~id:first_id ~op ~tier ~x:xs ~y:ys () ]
    | P.Sum -> [ mk_req ~id:first_id ~op ~tier ~x:(Array.map fst ops) ~y:[||] () ]
    | P.Poly_eval ->
        [ mk_req ~id:first_id ~op ~tier
            ~x:(Array.sub (Array.map fst ops) 0 8)
            ~y:[| snd ops.(1) |] () ]
    | P.Program ->
        (* one request per program chain, over the same corpus operands *)
        let xs = Array.map fst ops and ys = Array.map snd ops in
        [ mk_req ~id:first_id ~op ~tier ~prog:[ "sum" ] ~x:xs ~y:[||] ();
          mk_req ~id:(first_id + 1) ~op ~tier ~prog:[ "mul"; "sum" ] ~x:xs ~y:ys ();
          mk_req ~id:(first_id + 2) ~op ~tier ~prog:[ "axpy"; "dot" ] ~x:xs
            ~y:(Array.append [| fst ops.(0) |] ys)
            ~z:xs () ]
    | P.Stats -> []
  in
  (reqs, first_id + List.length reqs)

let test_bitwise_vs_scalar () =
  with_server ~queue_capacity:512 ~max_batch:64 ~window_us:2000. (fun _srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          List.iter
            (fun tier ->
              let next = ref 1 in
              let reqs =
                List.concat_map
                  (fun op ->
                    let rs, nid = requests_for_op ~tier ~op ~first_id:!next in
                    next := nid;
                    rs)
                  P.compute_ops
              in
              let resps = Serve.Client.call_many cl reqs in
              List.iter2
                (fun (req : P.request) resp ->
                  let label =
                    Printf.sprintf "%s/%s id=%d" (P.tier_name tier)
                      (P.op_name req.P.op) req.P.id
                  in
                  match resp with
                  | P.Result { result; batch; _ } -> (
                      Alcotest.(check bool) (label ^ ": batch >= 1") true (batch >= 1);
                      match Serve.Batcher.eval_one req with
                      | Ok expect -> check_elements label expect result
                      | Error e -> Alcotest.fail (label ^ ": scalar path failed: " ^ e))
                  | P.Shed { reason; _ } -> Alcotest.fail (label ^ ": shed " ^ reason)
                  | P.Failed { error; _ } -> Alcotest.fail (label ^ ": " ^ error)
                  | P.Stats_reply _ -> Alcotest.fail (label ^ ": stats?"))
                reqs resps)
            [ P.Mf2; P.Mf3; P.Mf4 ]))

(* Batching actually happened and still matched the scalar path: a
   pipelined burst of adds must land in micro-batches larger than 1
   (window 50 ms, far beyond the burst's arrival spread). *)
let test_batches_form () =
  with_server ~queue_capacity:512 ~max_batch:128 ~window_us:50_000. (fun _srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let reqs =
            List.init 64 (fun i ->
                mk_req ~id:(i + 1) ~op:P.Add ~tier:P.Mf2
                  ~x:[| [| float_of_int i; 1e-20 |] |]
                  ~y:[| [| 1.0; -1e-21 |] |] ())
          in
          let resps = Serve.Client.call_many cl reqs in
          let max_batch_seen =
            List.fold_left
              (fun acc r ->
                match r with P.Result { batch; _ } -> max acc batch | _ -> acc)
              0 resps
          in
          Alcotest.(check bool) "micro-batches formed" true (max_batch_seen > 1)))

(* --- adaptive SLA requests through the server ------------------------ *)

let sla_requests () =
  let next = ref 0 in
  let fresh () = incr next; !next in
  (* element k of a w-component operand: a nonoverlapping expansion *)
  let e ?(w = 2) i k =
    let v = 1.0 +. (float_of_int ((17 * i) + k) /. 64.0) in
    Array.init w (fun j -> v *. (1e-18 ** float_of_int j))
  in
  let vec ?w n k = Array.init n (fun i -> e ?w i k) in
  let req ?prog ?(z = [||]) ~q ~w op x y =
    mk_req ~sla:q ?prog ~z ~id:(fresh ()) ~op ~tier:(P.tier_of_terms (max 2 w)) ~x ~y ()
  in
  (* every certifiable op spelling over w-component operands: the
     ladder starts at mf2 for w <= 2, at mf3 and mf4 above *)
  let all_ops ~w q =
    [ req ~q ~w P.Add [| e ~w 1 0 |] [| e ~w 2 1 |];
      req ~q ~w P.Mul [| e ~w 3 0 |] [| e ~w 4 1 |];
      req ~q ~w P.Div [| e ~w 5 0 |] [| e ~w 6 1 |];
      req ~q ~w P.Sqrt [| e ~w 7 0 |] [||];
      req ~q ~w P.Dot (vec ~w 4 0) (vec ~w 4 1);
      req ~q ~w P.Sum (vec ~w 5 2) [||];
      req ~q ~w P.Axpy (vec ~w 3 0) (vec ~w 4 1);
      req ~q ~w ~prog:[ "sum" ] P.Program (vec ~w 6 3) [||];
      req ~q ~w ~prog:[ "mul"; "sum" ] P.Program (vec ~w 5 0) (vec ~w 5 2);
      req ~q ~w ~prog:[ "axpy"; "dot" ] ~z:(vec ~w 4 3) P.Program (vec ~w 4 0) (vec ~w 5 1) ]
  in
  (* components that overlap, so the kernels' nonoverlap precondition
     fails: at q = 200 mf4's ball misses and the bigfloat rung answers *)
  let overlap ~sign i =
    Array.init 3 (fun j ->
        sign
        *. Float.ldexp (1.0 +. (float_of_int (((7 * i) + (3 * j)) mod 13) /. 16.0))
             (if (i + j) mod 2 = 0 then 2 else -1))
  in
  (* finite operands whose magnitude sum overflows, times an exact zero *)
  let big = [| Float.max_float; 0x1p970 |] and zero = [| 0.0; 0.0 |] in
  let one = [| 1.0; 0.0 |] in
  List.concat_map (all_ops ~w:2) [ 20; 60; 100; 140; 180 ]
  @ List.concat_map (fun w -> List.concat_map (all_ops ~w) [ 20; 100; 180 ]) [ 1; 3; 4 ]
  (* long reductions at the tightest budgets: the static certificate
     misses at mf4 and the ball certificate decides *)
  @ List.concat_map
      (fun q ->
        List.concat_map
          (fun n -> [ req ~q ~w:2 P.Sum (vec n 0) [||]; req ~q ~w:2 P.Dot (vec n 1) (vec n 2) ])
          [ 40; 300 ])
      [ 190; 197; 200 ]
  @ [ req ~q:200 ~w:3 P.Dot
        (Array.init 40 (overlap ~sign:1.0))
        (Array.init 40 (fun i ->
             overlap ~sign:(if (i + 5) mod 3 = 0 then -1.0 else 1.0) (i + 5)));
      req ~q:10 ~w:2 P.Mul [| big |] [| zero |];
      req ~q:10 ~w:2 ~prog:[ "axpy"; "dot" ] ~z:[| one |] P.Program [| big |] [| zero; one |];
      req ~q:10 ~w:2 P.Axpy [| big |] [| zero; one |] ]

let test_sla_end_to_end () =
  with_server ~queue_capacity:256 ~max_batch:32 ~window_us:1000. (fun srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let reqs = sla_requests () in
          let resps = Serve.Client.call_many cl reqs in
          let outcomes =
            List.map2
              (fun (req : P.request) resp ->
                let q = Option.get req.P.sla in
                let label =
                  Printf.sprintf "%s/sla=%d id=%d" (P.op_name req.P.op) q req.P.id
                in
                match resp with
                | P.Result { result; chosen; bound; _ } ->
                    let chosen =
                      match chosen with
                      | Some c -> c
                      | None -> Alcotest.fail (label ^ ": no chosen tier on the reply")
                    in
                    let bound =
                      match bound with
                      | Some b -> b
                      | None -> Alcotest.fail (label ^ ": no certified bound on the reply")
                    in
                    (* the certificate honours the SLA threshold *)
                    (match
                       Adaptive.Sla.of_wire ~op:(P.op_name req.P.op) ~prog:req.P.prog
                     with
                    | None -> Alcotest.fail (label ^ ": op not certifiable?")
                    | Some op ->
                        let inp =
                          { Adaptive.Sla.x = req.P.x; y = req.P.y; z = req.P.z }
                        in
                        let scale = Adaptive.Certify.scale op inp in
                        Alcotest.(check bool) (label ^ ": bound within threshold") true
                          (bound <= Adaptive.Certify.threshold ~q ~scale));
                    (* the served answer is bitwise the scalar ladder's —
                       result, chosen rung and bound — and, on a
                       MultiFloat rung, the direct fixed-tier answer *)
                    let o =
                      match Serve.Batcher.eval_adaptive req with
                      | Ok o -> o
                      | Error e -> Alcotest.fail (label ^ ": scalar ladder failed: " ^ e)
                    in
                    check_elements label o.Adaptive.Escalate.result result;
                    Alcotest.(check string) (label ^ ": chosen matches scalar ladder")
                      o.Adaptive.Escalate.chosen chosen;
                    Alcotest.(check int64) (label ^ ": bound matches scalar ladder")
                      (bits o.Adaptive.Escalate.bound) (bits bound);
                    (match chosen with
                    | "mf2" | "mf3" | "mf4" -> (
                        let terms = match chosen with "mf2" -> 2 | "mf3" -> 3 | _ -> 4 in
                        match
                          Serve.Batcher.eval_one (Serve.Batcher.pad_request ~terms req)
                        with
                        | Ok twin -> check_elements (label ^ ": fixed-tier twin") twin result
                        | Error e -> Alcotest.fail (label ^ ": twin failed: " ^ e))
                    | "bigfloat" -> ()
                    | t -> Alcotest.fail (label ^ ": unknown tier " ^ t));
                    o
                | P.Shed { reason; _ } -> Alcotest.fail (label ^ ": shed " ^ reason)
                | P.Failed { error; _ } -> Alcotest.fail (label ^ ": " ^ error)
                | P.Stats_reply _ -> Alcotest.fail (label ^ ": stats?"))
              reqs resps
          in
          (* the stats document counts exactly what the scalar ladder
             decided: escalations, and replies per rung *)
          let doc = Serve.Server.stats_doc srv in
          (match Obs.Schema.validate Obs.Schemas.serve_stats doc with
          | Ok () -> ()
          | Error vs -> Alcotest.fail (String.concat "; " vs));
          let sla_doc =
            match J.member "sla" doc with
            | Some d -> d
            | None -> Alcotest.fail "stats missing the sla block"
          in
          Alcotest.(check int) "sla requests counted" (List.length reqs)
            (stats_int sla_doc "requests");
          Alcotest.(check int) "escalations = scalar sum"
            (List.fold_left (fun a (o : Adaptive.Escalate.outcome) -> a + o.escalations) 0
               outcomes)
            (stats_int sla_doc "escalations");
          let served =
            List.map
              (fun row ->
                match J.member "chosen" row with
                | Some (J.Str t) -> (t, stats_int row "count")
                | _ -> Alcotest.fail "sla.chosen row without a tier")
              (stats_rows sla_doc "chosen")
          in
          List.iter
            (fun tier ->
              let n =
                List.length
                  (List.filter (fun (o : Adaptive.Escalate.outcome) -> o.chosen = tier) outcomes)
              in
              Alcotest.(check bool) (tier ^ ": rung reached") true (n > 0);
              Alcotest.(check int) (tier ^ ": chosen = scalar count") n
                (Option.value ~default:0 (List.assoc_opt tier served));
              Alcotest.(check int) (tier ^ ": latency rows = chosen") n
                (latency_count doc ("serve.sla.latency_ns." ^ tier)))
            [ "mf2"; "mf3"; "mf4"; "bigfloat" ]))

(* --- admission bound and explicit sheds ------------------------------ *)

let poison_req ~id ~n =
  (* one long-running request holds the batcher busy: an SLA sum of
     cancelling pairs, which no static certificate covers, so it settles
     by mf4's ball certificate -- about 100 ms for 20000 elements,
     several times what its frame takes to decode *)
  let x =
    Array.init n (fun i ->
        let a = 1.0 +. (float_of_int (i / 2) *. 1e-3) in
        if i land 1 = 0 then [| a; 1e-17 |] else [| -.a; 3e-30 |])
  in
  mk_req ~id ~sla:200 ~op:P.Sum ~tier:P.Mf2 ~x ~y:[||] ()

let test_admission_bound () =
  let cap = 4 in
  with_server ~queue_capacity:cap ~max_batch:1 ~window_us:0. (fun srv addr ->
      let slow = Serve.Client.connect addr in
      let flood = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close slow;
          Serve.Client.close flood)
        (fun () ->
          (* fill the batcher (1 executing) and the whole queue (cap) *)
          let n_poison = cap + 1 in
          let poisons =
            List.init n_poison (fun i -> poison_req ~id:(i + 1) ~n:20_000)
          in
          List.iter (Serve.Client.send slow) poisons;
          (* give the io loop time to ingest the poisons *)
          Unix.sleepf 0.05;
          let n_flood = 40 in
          let floods =
            List.init n_flood (fun i ->
                mk_req ~id:(i + 100) ~op:P.Add ~tier:P.Mf2
                  ~x:[| [| 1.0; 0.0 |] |] ~y:[| [| 2.0; 0.0 |] |] ())
          in
          let flood_resps = Serve.Client.call_many flood floods in
          let shed_full =
            List.length
              (List.filter
                 (function P.Shed { reason = "queue_full"; _ } -> true | _ -> false)
                 flood_resps)
          in
          (* every flooded request was answered, none silently dropped *)
          Alcotest.(check int) "flood responses" n_flood (List.length flood_resps);
          Alcotest.(check bool) "overload produced explicit sheds" true (shed_full > 0);
          List.iter
            (function
              | P.Result _ | P.Shed { reason = "queue_full"; _ } -> ()
              | P.Shed { reason; _ } -> Alcotest.fail ("unexpected shed: " ^ reason)
              | P.Failed { error; _ } -> Alcotest.fail error
              | P.Stats_reply _ -> Alcotest.fail "stats?")
            flood_resps;
          (* the poisons are all answered: served, or refused explicitly *)
          List.iter
            (fun _ ->
              match Serve.Client.recv slow with
              | P.Result _ | P.Shed { reason = "queue_full"; _ } -> ()
              | P.Shed { reason; _ } -> Alcotest.fail ("poison shed: " ^ reason)
              | P.Failed { error; _ } -> Alcotest.fail ("poison failed: " ^ error)
              | P.Stats_reply _ -> Alcotest.fail "stats?")
            poisons;
          (* the bound held: depth never exceeded the capacity *)
          let doc = Serve.Server.stats_doc srv in
          (match Obs.Schema.validate Obs.Schemas.serve_stats doc with
          | Ok () -> ()
          | Error vs -> Alcotest.fail (String.concat "; " vs));
          Alcotest.(check bool) "max depth within bound" true
            (stats_int doc "queue_max_depth" <= cap);
          Alcotest.(check bool) "sheds counted" true
            (stats_int doc "shed_full" >= shed_full)))

(* A fixed-tier and an SLA request, both expired on arrival: each is
   shed "deadline" and counted in its own bucket — the bucket split
   covers every shed. *)
let test_deadline_shed () =
  with_server ~queue_capacity:16 ~max_batch:8 ~window_us:5_000. (fun srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let reqs =
            [ mk_req ~deadline_ms:0.0 ~id:1 ~op:P.Add ~tier:P.Mf2
                ~x:[| [| 1.0; 0.0 |] |] ~y:[| [| 2.0; 0.0 |] |] ();
              mk_req ~sla:80 ~deadline_ms:0.0 ~id:2 ~op:P.Mul ~tier:P.Mf2
                ~x:[| [| 1.5; 0.0 |] |] ~y:[| [| 3.0; 0.0 |] |] () ]
          in
          List.iter
            (function
              | P.Shed { reason = "deadline"; _ } -> ()
              | P.Shed { reason; _ } -> Alcotest.fail ("wrong reason: " ^ reason)
              | P.Result _ -> Alcotest.fail "expired deadline was served"
              | P.Failed { error; _ } -> Alcotest.fail error
              | P.Stats_reply _ -> Alcotest.fail "stats?")
            (Serve.Client.call_many cl reqs);
          let doc = Serve.Server.stats_doc srv in
          Alcotest.(check int) "deadline sheds" 2 (stats_int doc "shed_deadline");
          let buckets = shed_buckets doc in
          Alcotest.(check (list (pair string int)))
            "each deadline shed in its bucket"
            [ ("fixed", 1); ("q1-50", 0); ("q51-100", 1); ("q101-150", 0); ("q151-200", 0) ]
            buckets;
          Alcotest.(check int) "buckets sum to the shed counters" (shed_total doc)
            (List.fold_left (fun acc (_, n) -> acc + n) 0 buckets)))

(* --- bad input on the wire ------------------------------------------- *)

let test_wire_errors () =
  with_server (fun _srv addr ->
      let send_raw payload =
        let fd =
          match addr with
          | Serve.Server.Unix_path p ->
              let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
              Unix.connect fd (ADDR_UNIX p);
              fd
          | _ -> Alcotest.fail "unix fixture expected"
        in
        P.write_frame fd payload;
        let resp = P.read_frame fd in
        Unix.close fd;
        resp
      in
      (* duplicate keys are rejected by the parser, as a Failed reply *)
      (match send_raw {|{"schema":"fpan-serve/1","id":3,"op":"stats","op":"add"}|} with
      | Some payload -> (
          match P.response_of_json (J.parse_exn payload) with
          | Ok (P.Failed _) -> ()
          | Ok _ -> Alcotest.fail "duplicate-key frame was not an error"
          | Error e -> Alcotest.fail e)
      | None -> Alcotest.fail "no reply to duplicate-key frame");
      (* unknown op: Failed with the offending id echoed *)
      match send_raw {|{"schema":"fpan-serve/1","id":42,"op":"cbrt","tier":"mf2"}|} with
      | Some payload -> (
          match P.response_of_json (J.parse_exn payload) with
          | Ok (P.Failed { id; _ }) -> Alcotest.(check int) "id echoed" 42 id
          | Ok _ -> Alcotest.fail "unknown op accepted"
          | Error e -> Alcotest.fail e)
      | None -> Alcotest.fail "no reply to unknown-op frame")

(* A configured window ends on time: one queued entry and a 200 us
   window return well inside the millisecond that waiting in poll(2)'s
   whole milliseconds used to take (best of five). *)
let test_window_on_time () =
  let q = Serve.Admission.create ~capacity:4 in
  let best = ref infinity in
  for _ = 1 to 5 do
    ignore (Serve.Admission.push q 1);
    let t0 = Unix.gettimeofday () in
    let got = Serve.Admission.pop_batch q ~max:8 ~window_ns:200_000L in
    best := Float.min !best (Unix.gettimeofday () -. t0);
    Alcotest.(check (list int)) "the queued entry" [ 1 ] got
  done;
  Serve.Admission.destroy q;
  if !best >= 0.0009 then Alcotest.failf "200 us window took %.0f us" (!best *. 1e6)

(* Groups of scalar requests, and a group with one vector request, are
   evaluated on the batcher domain without touching the scheduler; a
   group with two vector requests fans out.  Either way every reply is
   eval_one's, and [batch] is the group's size. *)
let test_inline_groups () =
  Runtime.Sched.with_sched ~workers:2 (fun sched ->
      let serve reqs =
        Runtime.Sched.reset_stats sched;
        let queue = Serve.Admission.create ~capacity:64 in
        let replies = ref [] in
        List.iter
          (fun req ->
            let reply r = replies := r :: !replies in
            match
              Serve.Admission.push queue
                { Serve.Batcher.req; arrival_ns = Obs.Clock.now_ns (); reply }
            with
            | `Ok -> ()
            | _ -> Alcotest.fail "push refused")
          reqs;
        (* everything is queued before the batcher's first cycle *)
        let b = Serve.Batcher.create ~sched ~queue ~max_batch:64 ~window_ns:0L () in
        Serve.Admission.close queue;
        Serve.Batcher.join b;
        Serve.Admission.destroy queue;
        let tasks =
          Array.fold_left
            (fun a w -> a + w.Runtime.Sched.tasks_executed)
            0 (Runtime.Sched.stats sched)
        in
        List.iter
          (fun (req : P.request) ->
            match
              List.find_opt (fun r -> P.response_id r = req.P.id) !replies
            with
            | Some (P.Result { result; batch; _ }) -> (
                Alcotest.(check int) "batch is the group" (List.length reqs) batch;
                match Serve.Batcher.eval_one req with
                | Ok want -> check_elements "inline vs eval_one" want result
                | Error e -> Alcotest.fail e)
            | _ -> Alcotest.fail "request not served")
          reqs;
        tasks
      in
      let el i = [| [| 1.0 +. float_of_int i; 1e-20 |] |] in
      let vec n = Array.init n (fun i -> [| 0.5 +. float_of_int i; 1e-19 |]) in
      let req ~id ~op ~x ~y =
        { P.id; op; tier = P.Mf2; sla = None; deadline_ms = None; prog = []; x; y; z = [||] }
      in
      let adds = List.init 16 (fun i -> req ~id:(i + 1) ~op:P.Add ~x:(el i) ~y:(el (i + 1))) in
      Alcotest.(check int) "scalar group: no scheduler task" 0 (serve adds);
      let dot id = req ~id ~op:P.Dot ~x:(vec 32) ~y:(vec 32) in
      Alcotest.(check int) "one vector request: no scheduler task" 0 (serve [ dot 1 ]);
      Alcotest.(check bool) "two vector requests fan out" true (serve [ dot 1; dot 2 ] > 0))

(* One client vanishing with unread replies pending must not take the
   service down: SIGPIPE is ignored, so the failed reply write just
   marks the conn dead and the io domain sweeps (and closes) it. *)
let test_abrupt_disconnect () =
  with_server ~queue_capacity:256 ~max_batch:8 ~window_us:500. (fun _srv addr ->
      let rude = Serve.Client.connect addr in
      let reqs =
        List.init 64 (fun i ->
            mk_req ~id:(i + 1) ~op:P.Add ~tier:P.Mf2
              ~x:[| [| float_of_int i; 0.0 |] |] ~y:[| [| 1.0; 0.0 |] |] ())
      in
      List.iter (Serve.Client.send rude) reqs;
      (* hang up without reading a single reply *)
      Serve.Client.close rude;
      Unix.sleepf 0.1;
      (* the server survived and still serves fresh clients *)
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let req =
            mk_req ~id:1 ~op:P.Mul ~tier:P.Mf2 ~x:[| [| 3.0; 0.0 |] |]
              ~y:[| [| 7.0; 0.0 |] |] ()
          in
          match Serve.Client.call cl req with
          | P.Result _ -> ()
          | _ -> Alcotest.fail "server unhealthy after abrupt disconnect"))

(* --- stats over the wire --------------------------------------------- *)

let test_wire_stats () =
  with_server (fun _srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let req =
            mk_req ~id:1 ~op:P.Add ~tier:P.Mf3
              ~x:[| [| 1.0; 1e-20; 1e-40 |] |] ~y:[| [| 2.0; 0.0; 0.0 |] |] ()
          in
          (match Serve.Client.call cl req with
          | P.Result _ -> ()
          | _ -> Alcotest.fail "warm-up request failed");
          let doc = Serve.Client.stats cl in
          (match Obs.Schema.validate Obs.Schemas.serve_stats doc with
          | Ok () -> ()
          | Error vs -> Alcotest.fail (String.concat "; " vs));
          Alcotest.(check bool) "the warm-up was served" true
            (stats_int doc "completed" >= 1)))

(* --- graceful drain loses nothing ------------------------------------ *)

let test_graceful_drain () =
  with_server ~queue_capacity:256 ~max_batch:32 ~window_us:5_000. (fun srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let n = 100 in
          let reqs =
            List.init n (fun i ->
                mk_req ~id:(i + 1) ~op:P.Mul ~tier:P.Mf2
                  ~x:[| [| float_of_int (i + 1); 1e-18 |] |]
                  ~y:[| [| 3.0; -1e-19 |] |] ())
          in
          List.iter (Serve.Client.send cl) reqs;
          (* let the io loop ingest the burst, then pull the rug *)
          Unix.sleepf 0.05;
          Serve.Server.stop srv;
          let resps = ref [] in
          (try
             for _ = 1 to n do
               resps := Serve.Client.recv cl :: !resps
             done
           with Failure _ -> ());
          let n_result =
            List.length
              (List.filter (function P.Result _ -> true | _ -> false) !resps)
          in
          let n_closed =
            List.length
              (List.filter
                 (function P.Shed { reason = "closed"; _ } -> true | _ -> false)
                 !resps)
          in
          (* every frame got an answer: served or explicitly refused *)
          Alcotest.(check int) "all requests answered" n (List.length !resps);
          Alcotest.(check int) "answers partition into served + closed" n
            (n_result + n_closed);
          (* zero accepted requests were lost *)
          let doc = Serve.Server.stats_doc srv in
          Alcotest.(check int) "completed = accepted" (stats_int doc "accepted")
            (stats_int doc "completed");
          Alcotest.(check int) "served = accepted" (stats_int doc "accepted") n_result;
          (* every accepted request ends exactly one way *)
          Alcotest.(check int) "accepted = completed + errors + deadline + displaced"
            (stats_int doc "accepted")
            (stats_int doc "completed" + stats_int doc "errors"
            + stats_int doc "shed_deadline" + stats_int doc "shed_displaced");
          Alcotest.(check int) "one latency sample per completed request"
            (stats_int doc "completed")
            (latency_count doc "serve.latency_ns");
          (* the listener is down: connecting now fails *)
          match Serve.Client.connect addr with
          | exception Unix.Unix_error _ -> ()
          | cl2 ->
              Serve.Client.close cl2;
              Alcotest.fail "listener still accepting after stop"))

(* Sched.drain_all (the signal-handler path) also drains the server:
   the on_shutdown hook runs before the workers stop. *)
let test_drain_all_hook () =
  let path = fresh_sock () in
  let sched = Runtime.Sched.create ~workers:2 () in
  let srv =
    Serve.Server.start ~sched ~addr:(Serve.Server.Unix_path path) ~max_batch:4
      ~window_us:1000. ()
  in
  let cl = Serve.Client.connect (Serve.Server.Unix_path path) in
  let n = 20 in
  let reqs =
    List.init n (fun i ->
        mk_req ~id:(i + 1) ~op:P.Add ~tier:P.Mf4
          ~x:[| [| 1.0; 1e-17; 1e-34; 1e-51 |] |]
          ~y:[| [| float_of_int i; 0.0; 0.0; 0.0 |] |] ())
  in
  List.iter (Serve.Client.send cl) reqs;
  Unix.sleepf 0.05;
  Runtime.Sched.drain_all ();
  let resps = ref [] in
  (try
     for _ = 1 to n do
       resps := Serve.Client.recv cl :: !resps
     done
   with Failure _ -> ());
  Serve.Client.close cl;
  Alcotest.(check int) "all answered through drain_all" n (List.length !resps);
  let doc = Serve.Server.stats_doc srv in
  Alcotest.(check int) "completed = accepted" (stats_int doc "accepted")
    (stats_int doc "completed")

(* --- one registry per server ----------------------------------------- *)

let adds n =
  List.init n (fun i ->
      mk_req ~id:(i + 1) ~op:P.Add ~tier:P.Mf2
        ~x:[| [| float_of_int i; 1e-20 |] |] ~y:[| [| 1.0; 0.0 |] |] ())

let expect_served resps =
  List.iter
    (function
      | P.Result _ -> ()
      | P.Shed { reason; _ } -> Alcotest.fail ("shed " ^ reason)
      | P.Failed { error; _ } -> Alcotest.fail error
      | P.Stats_reply _ -> Alcotest.fail "stats?")
    resps

(* Two servers alive in one process count into separate registries:
   traffic sent to one never shows in the other's stats. *)
let test_servers_isolated () =
  with_server (fun busy busy_addr ->
      with_server (fun idle _ ->
          let cl = Serve.Client.connect busy_addr in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close cl)
            (fun () ->
              let n = 12 in
              expect_served (Serve.Client.call_many cl (adds n));
              let b = Serve.Server.stats_doc busy and i = Serve.Server.stats_doc idle in
              Alcotest.(check int) "busy: accepted" n (stats_int b "accepted");
              Alcotest.(check int) "busy: completed" n (stats_int b "completed");
              Alcotest.(check int) "busy: latency samples" n
                (latency_count b "serve.latency_ns");
              List.iter
                (fun k -> Alcotest.(check int) ("idle: " ^ k) 0 (stats_int i k))
                [ "accepted"; "completed"; "batches"; "errors" ];
              Alcotest.(check int) "idle: no batch sizes" 0
                (List.length (stats_rows i "batch_histogram"));
              Alcotest.(check int) "idle: latency samples" 0
                (latency_count i "serve.latency_ns"))))

(* The process-wide registry holds no serve count: server, batcher,
   cache and admission all count per server. *)
let test_no_global_serve_metrics () =
  with_server ~cache_capacity:64 (fun _srv addr ->
      let cl = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          (* the second pass answers from the cache *)
          expect_served (Serve.Client.call_many cl (adds 8));
          expect_served (Serve.Client.call_many cl (adds 8));
          ignore (Serve.Client.stats cl)));
  let leaked =
    List.filter
      (fun name -> String.starts_with ~prefix:"serve." name)
      (List.map fst (Obs.Metrics.snapshot Obs.Metrics.global))
  in
  Alcotest.(check (list string)) "no serve.* metric in the global registry" [] leaked

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        [ Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "request validation" `Quick test_request_validation;
          Alcotest.test_case "deframer fragmentation" `Quick test_deframer_fragmentation;
          Alcotest.test_case "deframer large frame" `Quick test_deframer_large_frame;
          Alcotest.test_case "decoder matches the tree decoder's verdicts" `Quick
            test_decoder_corpus;
          Alcotest.test_case "direct writer matches the tree encoder" `Quick test_writer_bytes ] );
      ( "bitwise",
        [ Alcotest.test_case "server vs scalar, all ops x tiers" `Quick
            test_bitwise_vs_scalar;
          Alcotest.test_case "micro-batches form" `Quick test_batches_form;
          Alcotest.test_case "small groups evaluate inline" `Quick test_inline_groups ] );
      ( "sla",
        [ Alcotest.test_case "escalation end to end" `Quick test_sla_end_to_end ] );
      ( "admission",
        [ Alcotest.test_case "bound holds, sheds explicit" `Quick test_admission_bound;
          Alcotest.test_case "deadline shed" `Quick test_deadline_shed;
          Alcotest.test_case "wire errors" `Quick test_wire_errors;
          Alcotest.test_case "window ends on time" `Quick test_window_on_time;
          Alcotest.test_case "abrupt disconnect survived" `Quick test_abrupt_disconnect;
          Alcotest.test_case "wire stats" `Quick test_wire_stats ] );
      ( "drain",
        [ Alcotest.test_case "graceful drain zero loss" `Quick test_graceful_drain;
          Alcotest.test_case "drain_all runs the hook" `Quick test_drain_all_hook ] );
      ( "registry",
        [ Alcotest.test_case "servers keep separate stats" `Quick test_servers_isolated;
          Alcotest.test_case "nothing in the global registry" `Quick
            test_no_global_serve_metrics ] ) ]
