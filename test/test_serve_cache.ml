(* The response cache's two contracts.  Correctness: a cached response
   is bitwise the uncached one, for arbitrary operand bit patterns —
   NaN payloads, signed zero, subnormals, infinities — across every
   scalar op and tier (qcheck drives a real server twice per request
   and compares both replies against the scalar path).  Mechanics: the
   LRU is bounded, evicts least-recently-used first, and keys on exact
   bit patterns so lookalike operands never collide. *)

module P = Serve.Protocol
module C = Serve.Cache

let bits = Int64.bits_of_float

(* --- keying exactness ------------------------------------------------ *)

let mk ?sla ?deadline_ms ?(op = P.Add) ?(tier = P.Mf2) ?(prog = []) ?(z = [||]) x y =
  { P.id = 1; op; tier; sla; deadline_ms; prog; x; y; z }

let key_exn r =
  match C.key_of_request r with
  | Some k -> k
  | None -> Alcotest.fail "request unexpectedly uncacheable"

let test_keying () =
  let base = mk [| [| 1.0; 0.0 |] |] [| [| 2.0; 0.0 |] |] in
  (* the keys that must differ: same printed value, different bits *)
  let neg_zero = mk [| [| 1.0; -0.0 |] |] [| [| 2.0; 0.0 |] |] in
  Alcotest.(check bool) "0.0 vs -0.0 distinct" false
    (String.equal (key_exn base) (key_exn neg_zero));
  let nan1 = Int64.float_of_bits 0x7ff8000000000001L in
  let nan2 = Int64.float_of_bits 0x7ff8000000000002L in
  let k1 = key_exn (mk [| [| nan1; 0.0 |] |] [| [| 2.0; 0.0 |] |]) in
  let k2 = key_exn (mk [| [| nan2; 0.0 |] |] [| [| 2.0; 0.0 |] |]) in
  Alcotest.(check bool) "NaN payloads distinct" false (String.equal k1 k2);
  let sub1 = mk [| [| 4.9e-324; 0.0 |] |] [| [| 2.0; 0.0 |] |] in
  let sub2 = mk [| [| 9.9e-324; 0.0 |] |] [| [| 2.0; 0.0 |] |] in
  Alcotest.(check bool) "subnormals distinct" false
    (String.equal (key_exn sub1) (key_exn sub2));
  (* op / tier / program chain are part of the identity *)
  Alcotest.(check bool) "ops distinct" false
    (String.equal (key_exn base) (key_exn (mk ~op:P.Mul [| [| 1.0; 0.0 |] |] [| [| 2.0; 0.0 |] |])));
  Alcotest.(check bool) "tiers distinct" false
    (String.equal
       (key_exn (mk ~op:P.Sqrt [| [| 1.0; 0.0 |] |] [||]))
       (key_exn (mk ~op:P.Sqrt ~tier:P.Mf3 [| [| 1.0; 0.0; 0.0 |] |] [||])));
  (* the uncacheable shapes *)
  (* the SLA exponent is part of the identity: a loose-bound entry must
     never answer a tighter-bound request, and an SLA request must never
     collide with the fixed-tier request carrying the same operands *)
  let sla80 = mk ~sla:80 [| [| 1.0; 0.0 |] |] [| [| 2.0; 0.0 |] |] in
  let sla120 = mk ~sla:120 [| [| 1.0; 0.0 |] |] [| [| 2.0; 0.0 |] |] in
  Alcotest.(check bool) "sla exponents distinct" false
    (String.equal (key_exn sla80) (key_exn sla120));
  Alcotest.(check bool) "sla vs fixed-tier distinct" false
    (String.equal (key_exn sla80) (key_exn base));
  (* the uncacheable shapes *)
  Alcotest.(check bool) "deadline is uncacheable" true
    (C.key_of_request (mk ~deadline_ms:5.0 [| [| 1.0; 0.0 |] |] [| [| 2.0; 0.0 |] |])
     = None);
  Alcotest.(check bool) "stats is uncacheable" true
    (C.key_of_request
       { P.id = 1; op = P.Stats; tier = P.Mf2; sla = None; deadline_ms = None; prog = [];
         x = [||]; y = [||]; z = [||] }
     = None);
  let big = Array.init 9 (fun i -> [| float_of_int i; 0.0 |]) in
  Alcotest.(check bool) "large vector operand is uncacheable" true
    (C.key_of_request (mk ~op:P.Sum big [||]) = None)

(* --- LRU mechanics ---------------------------------------------------- *)

let v f = { C.result = [| [| f |] |]; chosen = None; bound = None }

let lru_keys c = List.rev (C.fold_lru (fun k acc -> k :: acc) c [])

let test_eviction_order () =
  let c = C.create ~capacity:3 in
  C.add c "a" (v 1.0);
  C.add c "b" (v 2.0);
  C.add c "c" (v 3.0);
  Alcotest.(check (list string)) "LRU-first after fills" [ "a"; "b"; "c" ]
    (lru_keys c);
  (* touching "a" moves it to MRU, so "b" becomes the victim *)
  (match C.find c "a" with
  | Some r ->
      Alcotest.(check int64) "touched value intact" (bits 1.0)
        (bits r.C.result.(0).(0))
  | None -> Alcotest.fail "resident key missed");
  C.add c "d" (v 4.0);
  Alcotest.(check (list string)) "b evicted, not a" [ "c"; "a"; "d" ] (lru_keys c);
  Alcotest.(check bool) "evicted key misses" true (C.find c "b" = None);
  let s = C.stats c in
  Alcotest.(check int) "size at capacity" 3 s.C.size;
  Alcotest.(check int) "one eviction" 1 s.C.evictions;
  (* re-adding an existing key refreshes in place: no eviction *)
  C.add c "c" (v 30.0);
  Alcotest.(check int) "refresh does not grow" 3 (C.stats c).C.size;
  Alcotest.(check int) "refresh does not evict" 1 (C.stats c).C.evictions;
  (match C.find c "c" with
  | Some r ->
      Alcotest.(check int64) "refreshed value" (bits 30.0) (bits r.C.result.(0).(0))
  | None -> Alcotest.fail "refreshed key missed");
  Alcotest.(check (list string)) "refresh moved to MRU" [ "a"; "d"; "c" ] (lru_keys c)

let test_capacity_bound () =
  (* arbitrary add/find interleavings never grow past capacity, and
     the list view always agrees with the table size *)
  let prop ops =
    let c = C.create ~capacity:4 in
    List.iter
      (fun (k, is_add) ->
        let key = "k" ^ string_of_int (k mod 10) in
        if is_add then C.add c key (v (float_of_int k)) else ignore (C.find c key);
        let s = C.stats c in
        if s.C.size > 4 then failwith "capacity exceeded";
        if List.length (lru_keys c) <> s.C.size then failwith "list/table disagree")
      ops;
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"bounded LRU"
       QCheck.(list (pair small_nat bool))
       prop)

let test_disabled () =
  let c = C.create ~capacity:0 in
  C.add c "a" (v 1.0);
  Alcotest.(check bool) "disabled never stores" true (C.find c "a" = None);
  let s = C.stats c in
  Alcotest.(check int) "disabled size" 0 s.C.size;
  Alcotest.(check int) "disabled hits" 0 s.C.hits

let test_kind_counters () =
  (* hits and misses are attributed to the kind the caller names, and
     the stats view keeps the per-kind split consistent with the
     global counters *)
  let c = C.create ~capacity:8 in
  ignore (C.find ~kind:"add" c "k1");
  C.add c "k1" (v 1.0);
  ignore (C.find ~kind:"add" c "k1");
  ignore (C.find ~kind:"add" c "k1");
  ignore (C.find ~kind:"sla:add" c "k2");
  C.add c "k2" (v 2.0);
  ignore (C.find ~kind:"sla:add" c "k2");
  ignore (C.find c "k3") (* default kind: "other" *);
  let s = C.stats c in
  Alcotest.(check int) "global hits" 3 s.C.hits;
  Alcotest.(check int) "global misses" 3 s.C.misses;
  let by k =
    match List.find_opt (fun (ks : C.kind_stats) -> ks.C.kind = k) s.C.by_kind with
    | Some ks -> (ks.C.k_hits, ks.C.k_misses)
    | None -> Alcotest.fail (Printf.sprintf "kind %s missing from stats" k)
  in
  Alcotest.(check (pair int int)) "add split" (2, 1) (by "add");
  Alcotest.(check (pair int int)) "sla:add split" (1, 1) (by "sla:add");
  Alcotest.(check (pair int int)) "other split" (0, 1) (by "other");
  let total_h = List.fold_left (fun a (k : C.kind_stats) -> a + k.C.k_hits) 0 s.C.by_kind in
  let total_m =
    List.fold_left (fun a (k : C.kind_stats) -> a + k.C.k_misses) 0 s.C.by_kind
  in
  Alcotest.(check int) "kinds sum to global hits" s.C.hits total_h;
  Alcotest.(check int) "kinds sum to global misses" s.C.misses total_m;
  (* kind attribution names: op name, "sla:"-prefixed for SLA requests *)
  Alcotest.(check string) "fixed-tier kind" "add"
    (C.kind_of_request (mk [| [| 1.0; 0.0 |] |] [| [| 2.0; 0.0 |] |]));
  Alcotest.(check string) "sla kind" "sla:add"
    (C.kind_of_request (mk ~sla:80 [| [| 1.0; 0.0 |] |] [| [| 2.0; 0.0 |] |]))

(* --- cached = uncached, bitwise, through a real server ---------------- *)

let sock_dir =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpan_cache_%d" (Unix.getpid ()))
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
    (Printf.sprintf "serve_cache_%d_%d.sock" (Unix.getpid ()) !sock_counter)

let scalar_ops = [| P.Add; P.Mul; P.Div; P.Sqrt; P.Exp; P.Log; P.Sin |]
let all_tiers = [| P.Mf2; P.Mf3; P.Mf4 |]

let special_bits =
  [ 0x7ff8000000000001L;  (* NaN, low payload bit *)
    0xfff8000000000042L;  (* negative NaN, payload 0x42 *)
    Int64.bits_of_float Float.nan;
    Int64.bits_of_float Float.infinity;
    Int64.bits_of_float Float.neg_infinity;
    0x8000000000000000L;  (* -0.0 *)
    0x0000000000000000L;
    0x0000000000000001L;  (* smallest subnormal *)
    0x8000000000000001L;
    Int64.bits_of_float Float.max_float;
    Int64.bits_of_float Float.min_float;
    Int64.bits_of_float 1.0 ]

let gen_bits64 =
  (* two 32-bit halves: every double bit pattern is reachable *)
  QCheck.Gen.(
    map2
      (fun hi lo ->
        Int64.logor
          (Int64.shift_left (Int64.of_int hi) 32)
          (Int64.of_int lo))
      (int_bound 0xffffffff) (int_bound 0xffffffff))

let gen_component =
  QCheck.Gen.(
    map Int64.float_of_bits
      (frequency [ (2, oneofl special_bits); (3, gen_bits64) ]))

let gen_request =
  QCheck.Gen.(
    int_range 0 (Array.length scalar_ops - 1) >>= fun oi ->
    int_range 0 (Array.length all_tiers - 1) >>= fun ti ->
    let op = scalar_ops.(oi) and tier = all_tiers.(ti) in
    let terms = P.tier_terms tier in
    let element = array_size (return terms) gen_component in
    element >>= fun e1 ->
    element >>= fun e2 ->
    let binary = match op with P.Add | P.Mul | P.Div -> true | _ -> false in
    return
      { P.id = 1; op; tier; sla = None; deadline_ms = None; prog = [];
        x = [| e1 |]; y = (if binary then [| e2 |] else [||]); z = [||] })

let arb_request =
  QCheck.make
    ~print:(fun r -> Obs.Json_out.to_string_compact (P.request_to_json r))
    gen_request

let elements_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ea eb ->
         Array.length ea = Array.length eb
         && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) ea eb)
       a b

let test_cached_bitwise () =
  let path = fresh_sock () in
  Runtime.Sched.with_sched ~workers:2 (fun sched ->
      let srv =
        Serve.Server.start ~sched ~addr:(Serve.Server.Unix_path path)
          ~queue_capacity:64 ~max_batch:8 ~window_us:100. ~cache_capacity:1024 ()
      in
      Fun.protect
        ~finally:(fun () -> Serve.Server.stop srv)
        (fun () ->
          let cl = Serve.Client.connect (Serve.Server.Unix_path path) in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close cl)
            (fun () ->
              let prop req =
                let expect =
                  match Serve.Batcher.eval_one req with
                  | Ok r -> r
                  | Error e -> failwith ("scalar path refused: " ^ e)
                in
                let once tag =
                  match Serve.Client.call cl req with
                  | P.Result { result; _ } ->
                      if not (elements_bits_equal result expect) then
                        failwith (tag ^ " response differs from scalar path");
                      result
                  | _ -> failwith (tag ^ " response not a result")
                in
                (* the first call populates; the second answers from
                   the LRU — both must be bit-for-bit the scalar path *)
                let cold = once "cold" in
                let warm = once "warm" in
                if not (elements_bits_equal cold warm) then
                  failwith "hit differs from miss";
                true
              in
              QCheck.Test.check_exn
                (QCheck.Test.make ~count:120 ~name:"cached = uncached, bitwise"
                   arb_request prop);
              (* the warm calls really did come from the cache *)
              let s = Serve.Server.cache_stats srv in
              Alcotest.(check bool)
                (Printf.sprintf "cache hits recorded (%d)" s.C.hits)
                true (s.C.hits > 0))))

(* --- cache behavior under injected faults ----------------------------- *)

(* A client that vanishes mid-reply while being answered from the LRU
   must never poison the entry: qcheck populates the cache, slams a
   raw connection shut the instant the cached-hit reply is in flight,
   then re-asks — the survivor hit must still be bitwise the scalar
   path. *)
let test_disconnect_no_poison () =
  let path = fresh_sock () in
  Runtime.Sched.with_sched ~workers:2 (fun sched ->
      let srv =
        Serve.Server.start ~sched ~addr:(Serve.Server.Unix_path path)
          ~queue_capacity:64 ~max_batch:8 ~window_us:100. ~cache_capacity:1024 ()
      in
      Fun.protect
        ~finally:(fun () -> Serve.Server.stop srv)
        (fun () ->
          let cl = Serve.Client.connect ~deadline_ms:30_000 (Serve.Server.Unix_path path) in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close cl)
            (fun () ->
              let sockaddr = Unix.ADDR_UNIX path in
              let prop req =
                let expect =
                  match Serve.Batcher.eval_one req with
                  | Ok r -> r
                  | Error e -> failwith ("scalar path refused: " ^ e)
                in
                let ask tag =
                  match Serve.Client.call cl req with
                  | P.Result { result; _ } ->
                      if not (elements_bits_equal result expect) then
                        failwith (tag ^ " differs from scalar path")
                  | _ -> failwith (tag ^ " not a result")
                in
                (* populate, then the mid-stream disconnect: a raw conn
                   sends the (now cached) request and slams shut
                   without reading the hit reply *)
                ask "cold";
                let fd =
                  Unix.socket ~cloexec:true
                    (Unix.domain_of_sockaddr sockaddr)
                    SOCK_STREAM 0
                in
                (try
                   Unix.connect fd sockaddr;
                   let frame =
                     P.frame_of_string
                       (Obs.Json_out.to_string_compact (P.request_to_json req))
                   in
                   ignore (Unix.write_substring fd frame 0 (String.length frame))
                 with _ -> ());
                (try Unix.close fd with _ -> ());
                (* the entry must have survived the wreck intact *)
                ask "post-disconnect hit";
                true
              in
              QCheck.Test.check_exn
                (QCheck.Test.make ~count:60
                   ~name:"mid-stream disconnect never poisons the LRU"
                   arb_request prop);
              let s = Serve.Server.cache_stats srv in
              Alcotest.(check bool)
                (Printf.sprintf "hits actually exercised (%d)" s.C.hits)
                true (s.C.hits > 0))))

(* Shed requests must never populate the cache: jam the batcher with
   uncacheable slow work so cacheable flood requests shed queue_full,
   then check the cache holds exactly the answered distinct requests
   and nothing more. *)
let test_shed_never_cached () =
  let path = fresh_sock () in
  Runtime.Sched.with_sched ~workers:2 (fun sched ->
      let srv =
        Serve.Server.start ~sched ~addr:(Serve.Server.Unix_path path)
          ~queue_capacity:4 ~max_batch:1 ~window_us:0. ~cache_capacity:1024 ()
      in
      Fun.protect
        ~finally:(fun () -> Serve.Server.stop srv)
        (fun () ->
          let addr = Serve.Server.Unix_path path in
          let slow = Serve.Client.connect ~deadline_ms:60_000 addr in
          let flood = Serve.Client.connect ~deadline_ms:60_000 addr in
          Fun.protect
            ~finally:(fun () ->
              Serve.Client.close slow;
              Serve.Client.close flood)
            (fun () ->
              (* poison: SLA sums of 20000 cancelling pairs — far past
                 the cacheable operand bound, so the cache sees only the
                 flood.  No static certificate covers them, so each
                 settles by mf4's ball certificate (about 100 ms), long
                 after its frame is decoded: the batcher is still busy
                 when the flood arrives, one poison running and two
                 queued, so two floods queue and the rest shed. *)
              let pair i =
                let a = 1.0 +. (float_of_int (i / 2) *. 1e-3) in
                if i land 1 = 0 then [| a; 1e-17 |] else [| -.a; 3e-30 |]
              in
              let poisons =
                List.init 3 (fun i ->
                    { P.id = i + 1; op = P.Sum; tier = P.Mf2; sla = Some 200;
                      deadline_ms = None; prog = []; x = Array.init 20_000 pair;
                      y = [||]; z = [||] })
              in
              List.iter (Serve.Client.send slow) poisons;
              Unix.sleepf 0.05;
              (* flood: distinct cacheable requests; some must shed *)
              let floods =
                List.init 64 (fun i ->
                    mk ~op:P.Add
                      [| [| 3.0 +. float_of_int i; 1e-18 |] |]
                      [| [| 2.0; 0.0 |] |]
                    |> fun r -> { r with P.id = i + 100 })
              in
              let resps = Serve.Client.call_many flood floods in
              let ok =
                List.length
                  (List.filter (function P.Result _ -> true | _ -> false) resps)
              in
              let shed =
                List.length
                  (List.filter
                     (function
                       | P.Shed { reason = "queue_full"; _ } -> true
                       | _ -> false)
                     resps)
              in
              Alcotest.(check int) "every flood answered" 64 (ok + shed);
              Alcotest.(check bool)
                (Printf.sprintf "overload produced sheds (%d)" shed)
                true (shed > 0);
              (* drain the poisons so the server is quiet *)
              List.iter
                (fun _ -> ignore (Serve.Client.recv slow))
                poisons;
              (* the cache holds exactly the answered flood requests:
                 every flood operand is distinct, the poisons are
                 uncacheable, so size = answered — a shed that slipped
                 into the LRU would show up as size > ok *)
              let s = Serve.Server.cache_stats srv in
              Alcotest.(check int) "cache size = answered distinct requests"
                ok s.C.size)))

let () =
  Alcotest.run "serve_cache"
    [ ( "keying",
        [ Alcotest.test_case "exact bit-pattern identity" `Quick test_keying ] );
      ( "lru",
        [ Alcotest.test_case "eviction order" `Quick test_eviction_order;
          Alcotest.test_case "capacity bound" `Quick test_capacity_bound;
          Alcotest.test_case "disabled cache" `Quick test_disabled;
          Alcotest.test_case "per-kind counters" `Quick test_kind_counters ] );
      ( "bitwise",
        [ Alcotest.test_case "cached = uncached over arbitrary bits" `Quick
            test_cached_bitwise ] );
      ( "faults",
        [ Alcotest.test_case "mid-stream disconnect never poisons the LRU"
            `Quick test_disconnect_no_poison;
          Alcotest.test_case "shed requests never populate the cache" `Quick
            test_shed_never_cached ] ) ]
