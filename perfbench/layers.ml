(* Per-layer measurements for the traced run.  Each one replays the
   workload's seeded inputs through a layer's public functions and
   times the calls from outside; nothing here reaches into a layer. *)

module P = Serve.Protocol
module J = Obs.Json_out

(* Median of three timed passes of [f] (seconds per pass). *)
let time3 f =
  Util.median (List.init 3 (fun _ -> snd (Util.time f)))

(* The reply the server would send for [r] (batch size aside), via the
   scalar reference path. *)
let reference (r : P.request) =
  match r.P.sla with
  | Some _ -> (
      match Serve.Batcher.eval_adaptive r with
      | Ok o ->
          P.Result
            { id = r.P.id; result = o.Adaptive.Escalate.result; batch = 1;
              chosen = Some o.Adaptive.Escalate.chosen; bound = Some o.Adaptive.Escalate.bound }
      | Error error -> P.Failed { id = r.P.id; error })
  | None -> (
      match Serve.Batcher.eval_one r with
      | Ok result -> P.Result { id = r.P.id; result; batch = 1; chosen = None; bound = None }
      | Error error -> P.Failed { id = r.P.id; error })

let encode_reply resp = P.frame_of_string (J.to_string_compact (P.response_to_json resp))

(* --- protocol, cache, kernel stage ----------------------------------- *)

(* Puts the protocol, cache and evaluation metrics and returns the
   summed cost of those stages per request (ns): deframe, parse,
   decode, cache lookup, scalar evaluation and reply encoding. *)
let serve_stages (m : Util.metrics) (pool : Gen.pool) (sample : int array) =
  let k = float_of_int (Array.length sample) in
  let frames = Array.map (fun i -> pool.Gen.frames.(i)) sample in
  let reqs = Array.map (fun i -> pool.Gen.reqs.(i)) sample in
  let per f = time3 f *. 1e9 /. k in
  let d = P.deframer () in
  let payloads = ref [||] in
  let w0 = Gc.minor_words () in
  let deframe_ns =
    per (fun () ->
        payloads :=
          Array.map
            (fun f ->
              match P.feed d (Bytes.unsafe_of_string f) (String.length f) with
              | Ok [ p ] -> p
              | _ -> failwith "deframe")
            frames)
  in
  let docs = ref [||] in
  let parse_ns = per (fun () -> docs := Array.map J.parse_exn !payloads) in
  let decode_ns =
    per (fun () ->
        Array.iter
          (fun doc -> match P.request_of_json doc with Ok _ -> () | Error e -> failwith e)
          !docs)
  in
  let e0 = Gc.minor_words () in
  let replies, eval_s = Util.time (fun () -> Array.map reference reqs) in
  let eval_words = Gc.minor_words () -. e0 in
  let out = ref [||] in
  let encode_ns = per (fun () -> out := Array.map encode_reply replies) in
  (* codec allocation per request: three passes of each stage, the
     reference evaluation in between excluded *)
  let words = (Gc.minor_words () -. w0 -. eval_words) /. (3.0 *. k) in
  let bytes a = Array.fold_left (fun acc s -> acc +. float_of_int (String.length s)) 0.0 a /. k in
  (* the server's cache path: key, find, and insert on a miss *)
  let cache = Serve.Cache.create ~capacity:4096 in
  let lookups = ref 0 in
  let (), cache_s =
    Util.time (fun () ->
        Array.iteri
          (fun i r ->
            match Serve.Cache.key_of_request r with
            | None -> ()
            | Some key -> (
                incr lookups;
                match Serve.Cache.find ~kind:(Serve.Cache.kind_of_request r) cache key with
                | Some _ -> ()
                | None -> (
                    match replies.(i) with
                    | P.Result { result; chosen; bound; _ } ->
                        Serve.Cache.add cache key { Serve.Cache.result; chosen; bound }
                    | _ -> ())))
          reqs)
  in
  Util.put m "protocol.deframe_ns" "ns" deframe_ns;
  Util.put m "protocol.parse_ns" "ns" parse_ns;
  Util.put m "protocol.decode_ns" "ns" decode_ns;
  Util.put m "protocol.encode_ns" "ns" encode_ns;
  Util.put m "protocol.bytes_in" "B" (bytes frames);
  Util.put m "protocol.bytes_out" "B" (bytes !out);
  Util.put m "protocol.alloc_words" "words" words;
  Util.put m "cache.lookup_ns" "ns"
    (Util.safe_div (cache_s *. 1e9) (float_of_int !lookups));
  Util.put m "batcher.eval_us" "us" (eval_s *. 1e6 /. k);
  deframe_ns +. parse_ns +. decode_ns +. encode_ns +. ((cache_s +. eval_s) *. 1e9 /. k)

(* --- admission and batcher ------------------------------------------- *)

let admission_push_ns () =
  let q = Serve.Admission.create ~capacity:64 in
  let pushes = ref 0 in
  let t = ref 0.0 in
  for _ = 1 to 2000 do
    let t0 = Util.now () in
    for i = 1 to 32 do
      ignore (Serve.Admission.push q i)
    done;
    t := !t +. (Util.now () -. t0);
    pushes := !pushes + 32;
    ignore (Serve.Admission.pop_batch q ~max:32 ~window_ns:0L)
  done;
  Serve.Admission.destroy q;
  !t *. 1e9 /. float_of_int !pushes

(* The batcher fed in process by the same closed loop as the load
   generator (16 in flight) at the production settings: push to reply,
   batching window included.  Returns (turnarounds sorted in us,
   mean batch size). *)
let batcher_turnaround (pool : Gen.pool) (sample : int array) ~seconds =
  let sched = Runtime.Sched.create ~workers:2 () in
  let queue = Serve.Admission.create ~capacity:64 in
  let b = Serve.Batcher.create ~sched ~queue ~max_batch:32 ~window_ns:200_000L () in
  let lock = Mutex.create () and cv = Condition.create () in
  let done_ = Queue.create () in
  let reply t_push _ =
    let t = Util.now_ns () in
    Mutex.lock lock;
    Queue.add (t -. t_push) done_;
    Condition.signal cv;
    Mutex.unlock lock
  in
  let lats = Util.fbuf () in
  let next = ref 0 in
  let push () =
    let req = pool.Gen.reqs.(sample.(!next mod Array.length sample)) in
    incr next;
    let t = Util.now_ns () in
    match Serve.Admission.push queue { Serve.Batcher.req; arrival_ns = t; reply = reply t } with
    | `Ok -> ()
    | _ -> failwith "admission refused a closed-loop push"
  in
  for _ = 1 to 16 do
    push ()
  done;
  let t_end = Util.now () +. seconds in
  while Util.now () < t_end do
    Mutex.lock lock;
    while Queue.is_empty done_ do
      Condition.wait cv lock
    done;
    let got = Queue.fold (fun acc v -> v :: acc) [] done_ in
    Queue.clear done_;
    Mutex.unlock lock;
    List.iter
      (fun v ->
        Util.fpush lats (v *. 1e-3);
        push ())
      got
  done;
  Serve.Admission.close queue;
  Serve.Batcher.join b;
  Serve.Admission.destroy queue;
  Runtime.Sched.shutdown sched;
  let s = Serve.Batcher.stats b in
  let n, sum =
    List.fold_left (fun (n, sum) (size, c) -> (n + c, sum + (size * c))) (0, 0) s.Serve.Batcher.histogram
  in
  (Util.fsorted lats, Util.safe_div (float_of_int sum) (float_of_int n))

(* --- kernels and fused kernels --------------------------------------- *)

(* FPAN flop count of one multiplication at 2/3/4 terms (EXPERIMENTS.md
   §4.2), the divisor of kernels.ns_per_flop. *)
let mul_flops = [ ("mf2", 9.0); ("mf3", 57.0); ("mf4", 130.0) ]

module Kern (M : Multifloat.Ops.S) (V : Multifloat.Batch.V with type elt = M.t) = struct
  let n = 1024

  let vec st = V.of_floats (Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0))

  (* (dot ns/op, axpy ns/op), sequential planar kernels. *)
  let measure st =
    let x = vec st and y = vec st in
    let alpha = M.of_float 1e-3 in
    let reps = 200 in
    let per t = t *. 1e9 /. float_of_int (reps * n) in
    let dot =
      time3 (fun () ->
          for _ = 1 to reps do
            ignore (V.dot ~init:M.zero ~x ~xoff:0 ~y ~yoff:0 ~len:n)
          done)
    in
    let axpy =
      time3 (fun () ->
          for _ = 1 to reps do
            V.axpy ~lo:0 ~hi:n ~alpha ~x ~y
          done)
    in
    (per dot, per axpy)

  (* A fixed-tier program request as its fused single pass and as the
     op-by-op composition: (fused s, unfused s), [reps] runs each.
     The plain ["sum"] chain has nothing to fuse and is skipped. *)
  let program (r : P.request) ~reps =
    let v rows = V.of_array (Array.map M.of_components rows) in
    let x = v r.P.x in
    let n = V.length x in
    let run f = time3 (fun () -> for _ = 1 to reps do f () done) in
    match r.P.prog with
    | [ "mul"; "sum" ] ->
        let y = v r.P.y and t = V.create n in
        let fused = run (fun () -> ignore (V.dot ~init:M.zero ~x ~xoff:0 ~y ~yoff:0 ~len:n)) in
        let unfused =
          run (fun () ->
              V.mul ~dst:t x y;
              ignore (V.sum ~init:M.zero ~x:t ~xoff:0 ~len:n))
        in
        Some (fused, unfused)
    | [ "axpy"; "dot" ] ->
        let alpha = M.of_components r.P.y.(0) in
        let y = v (Array.sub r.P.y 1 n) and z = v r.P.z in
        let fused =
          run (fun () ->
              let y = V.copy y in
              ignore (V.axpy_dot ~lo:0 ~hi:n ~alpha ~x ~y ~w:z ~init:M.zero))
        in
        let unfused =
          run (fun () ->
              let y = V.copy y in
              V.axpy ~lo:0 ~hi:n ~alpha ~x ~y;
              ignore (V.dot ~init:M.zero ~x:y ~xoff:0 ~y:z ~yoff:0 ~len:n))
        in
        Some (fused, unfused)
    | _ -> None
end

module K2 = Kern (Multifloat.Mf2) (Multifloat.Batch.Mf2v)
module K3 = Kern (Multifloat.Mf3) (Multifloat.Batch.Mf3v)
module K4 = Kern (Multifloat.Mf4) (Multifloat.Batch.Mf4v)

let kernels (m : Util.metrics) ~seed =
  let st = Util.rng ~seed 11 in
  List.iter
    (fun (tier, (dot, axpy)) ->
      Util.put m ("kernels.dot_ns_per_op." ^ tier) "ns" dot;
      Util.put m ("kernels.axpy_ns_per_op." ^ tier) "ns" axpy;
      Util.put m ("kernels.ns_per_flop." ^ tier) "ns" (dot /. List.assoc tier mul_flops))
    [ ("mf2", K2.measure st); ("mf3", K3.measure st); ("mf4", K4.measure st) ]

(* fuse.program_speedup: summed op-by-op time over summed fused time
   across the pool's fixed-tier program requests. *)
let program_speedup (pool : Gen.pool) =
  let fused = ref 0.0 and unfused = ref 0.0 in
  Array.iter
    (fun (r : P.request) ->
      if r.P.op = P.Program && r.P.sla = None then
        let reps = max 1 (4096 / Array.length r.P.x) in
        let res =
          match r.P.tier with
          | P.Mf2 -> K2.program r ~reps
          | P.Mf3 -> K3.program r ~reps
          | P.Mf4 -> K4.program r ~reps
        in
        match res with
        | Some (f, u) ->
            fused := !fused +. f;
            unfused := !unfused +. u
        | None -> ())
    pool.Gen.reqs;
  Util.safe_div !unfused !fused

(* fuse.residual_speedup: gemv then an elementwise subtract, over the
   fused gemv_residual, on the dense workload's mf4 system. *)
let residual_speedup (inp : Dense.inputs) =
  let module G = Dense.G4 in
  let n = inp.Dense.n in
  let a = G.V.of_array (Array.map Multifloat.Mf4.of_float inp.Dense.sa) in
  let x = G.V.of_array inp.Dense.sb and b = G.V.of_array inp.Dense.sb in
  let y = G.V.create n and r = G.V.create n in
  let reps = max 1 (2_000_000 / (n * n)) in
  let fused = time3 (fun () -> for _ = 1 to reps do G.gemv_residual ~m:n ~n ~a ~x ~b ~r done) in
  let unfused =
    time3 (fun () ->
        for _ = 1 to reps do
          G.gemv ~m:n ~n ~a ~x ~y;
          G.V.sub ~dst:r b y
        done)
  in
  Util.safe_div unfused fused
