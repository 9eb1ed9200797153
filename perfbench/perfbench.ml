(* The repository benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 [--tiny] [--corrupt]
     perfbench.exe digest --workload W --seed N [--tiny]
     perfbench.exe declare

   A run builds its inputs from the seed, sets up (seven times; the
   median is setup_s), measures for S seconds, checks outputs bitwise,
   and prints one JSON object as its last stdout line: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  A
   mismatch exits 1 after printing.  [digest] prints a hash of the
   generated frames and traffic (the determinism test); [declare]
   prints the metric names and units.  [--tiny] shrinks every input
   for the smoke tests; [--corrupt] perturbs the bitwise references,
   so a correct build must fail its gates. *)

module J = Obs.Json_out

let workloads =
  [ ( "serve_scalar",
      "scalar add/mul/div/sqrt/exp over mf2-mf4 with a 4096-entry cache and ~40% of \
       lookups hitting: codec, cache, admission window and idle scheduler carry the time" );
    ( "serve_vector",
      "dot/sum/axpy and fused programs of 16-1024 elements, half under accuracy SLAs: \
       codec bytes, scheduler fan-out, adaptive certification and kernels do real work" );
    ( "dense",
      "library path, no server: one request is an n=512 103-bit GEMM on the tiled \
       engine, then an mf4 refinement solve at condition 1e12 to 212 bits, on a 2-worker \
       scheduler" ) ]

let load_model = "closed loop: 1 load-generator thread, 2 connections x 8 requests in flight"

let end_to_end =
  [ ("req_per_s", "1/s"); ("latency_p50_us", "us"); ("latency_p99_us", "us"); ("setup_s", "s");
    ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("protocol.deframe_ns", "ns"); ("protocol.parse_ns", "ns"); ("protocol.decode_ns", "ns");
    ("protocol.encode_ns", "ns"); ("protocol.bytes_in", "B"); ("protocol.bytes_out", "B");
    ("protocol.alloc_words", "words"); ("cache.hit_ratio", "ratio"); ("cache.lookups", "count");
    ("cache.lookup_ns", "ns"); ("admission.push_ns", "ns"); ("admission.shed_frac", "ratio");
    ("admission.max_depth", "count"); ("batcher.turnaround_us_p50", "us");
    ("batcher.turnaround_us_p99", "us"); ("batcher.batch_size_mean", "count");
    ("batcher.eval_us", "us"); ("sched.tasks", "count"); ("sched.steals", "count");
    ("sched.steal_attempts", "count"); ("sched.idle_steal_attempts_per_s", "1/s");
    ("sched.busy_frac", "ratio"); ("engine.gemm_seq_s", "s"); ("engine.gemm_rt_s", "s");
    ("engine.parallel_eff", "ratio"); ("kernels.dot_ns_per_op.mf2", "ns");
    ("kernels.dot_ns_per_op.mf3", "ns"); ("kernels.dot_ns_per_op.mf4", "ns");
    ("kernels.axpy_ns_per_op.mf2", "ns"); ("kernels.axpy_ns_per_op.mf3", "ns");
    ("kernels.axpy_ns_per_op.mf4", "ns"); ("kernels.ns_per_flop.mf2", "ns");
    ("kernels.ns_per_flop.mf3", "ns"); ("kernels.ns_per_flop.mf4", "ns");
    ("fuse.residual_speedup", "ratio"); ("fuse.program_speedup", "ratio");
    ("adaptive.rung_share.mf2", "ratio"); ("adaptive.rung_share.mf3", "ratio");
    ("adaptive.rung_share.mf4", "ratio"); ("adaptive.rung_share.bigfloat", "ratio");
    ("adaptive.escalations_per_req", "count"); ("adaptive.escalate_us_per_req", "us");
    ("bigfloat.us_per_req", "us"); ("linalg.factor_s", "s"); ("linalg.residual_ms_per_iter", "ms");
    ("linalg.iterations", "count"); ("gemm_gops", "Gop/s"); ("solve_s", "s");
    ("gc.minor_words_per_req", "words"); ("gc.major_collections", "count");
    ("server.cpu_us_per_req", "us"); ("server.unexplained_frac", "ratio");
    ("client.cpu_frac", "ratio"); ("client.call_us", "us"); ("trace.overhead_frac", "ratio");
    ("trace.request_span_us", "us"); ("trace.batch_span_us", "us"); ("fail_frac", "ratio") ]

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  corrupt : bool;
}

(* --- output ----------------------------------------------------------- *)

let git_commit () =
  let read p = try Some (String.trim (In_channel.with_open_text p In_channel.input_all)) with _ -> None in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read (".git/" ^ r) with Some c -> c | None -> "unknown")
  | Some h -> h
  | None -> "unknown"

let header o =
  let str s = J.Str s and num n = J.Num (float_of_int n) in
  J.to_string_compact
    (J.Obj
       [ ( "perfbench",
           J.Obj
             [ ("workload", str o.workload); ("why", str (List.assoc o.workload workloads));
               ( "load_model",
                 str (if o.workload = "dense" then "library calls, one round after another" else load_model) );
               ("seed", num o.seed); ("seconds", J.Num o.seconds); ("trace", J.Bool o.trace);
               ("tiny", J.Bool o.tiny);
               ( "host",
                 J.Obj
                   [ ("nproc", num (Domain.recommended_domain_count ()));
                     ("ocaml", str Build_info.ocaml_version); ("flambda", J.Bool Build_info.flambda);
                     ("commit", str (git_commit ())) ] ) ] ) ])

(* Print the result line: exactly the declared metrics of this mode,
   a layer that does not run in this workload reading 0. *)
let emit o ~correct ~attempted ~failed (m : Util.metrics) =
  let declared = if o.trace then per_layer else end_to_end in
  List.iter
    (fun (name, (_, unit)) ->
      match List.assoc_opt name declared with
      | Some u when u = unit -> ()
      | _ -> failwith ("undeclared metric " ^ name))
    !m;
  let out = Util.metrics () in
  List.iter
    (fun (name, unit) ->
      Util.put out name unit (match List.assoc_opt name !m with Some (v, _) -> v | None -> 0.0))
    declared;
  print_endline (Util.result_line ~correct ~attempted ~failed out)

(* --- serve workloads -------------------------------------------------- *)

let kind_of o = if o.workload = "serve_scalar" then `Scalar else `Vector
let servers = ref []

let spawn k =
  let path = Printf.sprintf ".perfbench-%d-%d.sock" (Unix.getpid ()) k in
  let s = Load.spawn ~path ~cache:4096 in
  servers := s :: !servers;
  s

let stop s =
  servers := List.filter (fun x -> x != s) !servers;
  Load.stop s

(* Set-up is repeated this many times and setup_s is the median. *)
let setup_reps = 7

(* Run [f] [setup_reps] times, each from a collected heap so one
   repetition's garbage does not bill the next, handing every result
   but the last to [discard].  Returns the last result and the median
   time. *)
let setup_median ?(discard = ignore) f =
  let last = ref None and times = ref [] in
  for _ = 1 to setup_reps do
    Option.iter discard !last;
    last := None;
    Gc.full_major ();
    let r, t = Util.time f in
    last := Some r;
    times := t :: !times
  done;
  (Option.get !last, Util.median !times)

(* Server start (fork to listening) plus pool generation with frame
   encoding.  Returns the server, the pool and the set-up time. *)
let serve_setup o =
  let k = ref 0 in
  let s, start_s =
    setup_median ~discard:stop (fun () ->
        incr k;
        spawn !k)
  in
  let pool, pool_s = setup_median (fun () -> Gen.pool (kind_of o) ~seed:o.seed ~tiny:o.tiny) in
  (s, pool, start_s +. pool_s)

(* The measured window is cut into [slices] equal slices; the
   end-to-end figures are medians across them, which keeps a transient
   stall in one slice from moving the run's numbers. *)
let slices = 6

let drive o pool s ~seconds ~at_window =
  Load.drive pool ~path:s.Load.path ~seed:o.seed ~conns:2 ~depth:8
    ~warmup:(if o.tiny then 0.2 else 1.0) ~seconds ~slices ~at_window

let flag_client (r : Load.run) =
  if r.Load.cpu_frac > 0.9 then
    Util.log "WARNING client.cpu_frac %.2f > 0.9: the load generator, not the server, sets this run's numbers"
      r.Load.cpu_frac

let serve_e2e o =
  let s, pool, setup_s = serve_setup o in
  let r = drive o pool s ~seconds:o.seconds ~at_window:(fun _ -> ()) in
  stop s;
  flag_client r;
  let checked, bad = Load.check ~corrupt:o.corrupt pool r.Load.samples in
  Util.log "%d replies in %.2fs, %d checked bitwise, %d mismatches, client cpu %.2f" r.Load.completed
    r.Load.wall_s checked bad r.Load.cpu_frac;
  let m = Util.metrics () in
  let per_slice f = Util.median (Array.to_list (Array.map f r.Load.lats_us)) in
  let slice_s = r.Load.wall_s /. float_of_int slices in
  Util.put m "req_per_s" "1/s" (per_slice (fun l -> float_of_int (Array.length l) /. slice_s));
  Util.put m "latency_p50_us" "us" (per_slice (fun l -> Util.quantile_sorted l 0.5));
  Util.put m "latency_p99_us" "us" (per_slice (fun l -> Util.quantile_sorted l 0.99));
  Util.put m "setup_s" "s" setup_s;
  Util.put m "peak_rss_mb" "MB" (float_of_int (Util.maxrss_kb 1) /. 1024.0);
  let failed = r.Load.failed + bad + r.Load.unanswered in
  (failed = 0 && r.Load.completed > 0, r.Load.completed, failed, m)

(* Server-side snapshots around a measured window. *)
type snap = { doc : J.t; rep : Load.report }

let snapshot s = { doc = Load.stats_doc s; rep = Load.report s }

let rec path doc = function
  | [] -> doc
  | k :: rest -> ( match J.member k doc with Some v -> path v rest | None -> J.Null)

let num doc keys = match path doc keys with J.Num f -> f | _ -> 0.0
let delta a b keys = num b.doc keys -. num a.doc keys

let rows doc keys = match path doc keys with J.List l -> l | _ -> []

(* Requests the server settled at rung [t] so far. *)
let chosen doc t =
  List.fold_left
    (fun acc r -> if J.member "chosen" r = Some (J.Str t) then num r [ "count" ] else acc)
    0.0
    (rows doc [ "sla"; "chosen" ])

(* Scheduler counters over a window, from two renderings of
   [Runtime.Sched.stats_json] (the server's stats op carries one). *)
let sched_layer m ~before ~after ~wall =
  let w0 = rows before [] and w1 = rows after [] in
  let d field =
    List.map2 (fun x y -> num y [ field ] -. num x [ field ]) w0 w1
  in
  let sum l = List.fold_left ( +. ) 0.0 l in
  let tasks = d "tasks" and attempts = d "steal_attempts" in
  let busy = sum (d "busy_seconds") and idle = sum (d "idle_seconds") in
  Util.put m "sched.tasks" "count" (sum tasks);
  Util.put m "sched.steals" "count" (sum (d "steals"));
  Util.put m "sched.steal_attempts" "count" (sum attempts);
  Util.put m "sched.idle_steal_attempts_per_s" "1/s"
    (sum (List.map2 (fun t a -> if t = 0.0 then a else 0.0) tasks attempts) /. wall);
  Util.put m "sched.busy_frac" "ratio" (Util.safe_div busy (busy +. idle))

(* One server, two windows: untraced (the per-layer counters), then
   with the server's span tracing switched on (the tracing overhead and
   the library's own serve.request / serve.batch spans). *)
let serve_trace o =
  let s, pool, _ = serve_setup o in
  let phase = o.seconds *. 0.3 in
  let snaps = ref [] in
  let at w = snaps := (w, snapshot s) :: !snaps in
  let ra = drive o pool s ~seconds:phase ~at_window:at in
  let a = List.assoc `Start !snaps and b = List.assoc `End !snaps in
  Load.trace_on s;
  snaps := [];
  let rb = drive o pool s ~seconds:phase ~at_window:at in
  let tb = List.assoc `End !snaps in
  (* Serve.Client: sequential round trips on the idle server *)
  let cl = Load.client s in
  let next = Gen.traffic pool ~seed:o.seed ~conn:9 in
  let calls =
    List.init (if o.tiny then 20 else 200) (fun _ ->
        let req = pool.Gen.reqs.(next ()) in
        snd (Util.time (fun () -> ignore (Serve.Client.call cl req))) *. 1e6)
  in
  Serve.Client.close cl;
  stop s;
  let m = Util.metrics () in
  let completed = float_of_int ra.Load.completed in
  let rps r = float_of_int r.Load.completed /. r.Load.wall_s in
  (* layers replayed in process, on the same seeded traffic *)
  let sample =
    let next = Gen.traffic pool ~seed:o.seed ~conn:0 in
    Array.init (if kind_of o = `Scalar then 4000 else 48) (fun _ -> next ())
  in
  let stages_ns = Layers.serve_stages m pool sample in
  let push_ns = Layers.admission_push_ns () in
  let turn, bsize =
    Layers.batcher_turnaround pool sample ~seconds:(Float.min 3.0 (o.seconds *. 0.15))
  in
  let hits = delta a b [ "cache"; "hits" ] and misses = delta a b [ "cache"; "misses" ] in
  Util.put m "cache.hit_ratio" "ratio" (Util.safe_div hits (hits +. misses));
  Util.put m "cache.lookups" "count" (hits +. misses);
  Util.put m "admission.push_ns" "ns" push_ns;
  let shed k = delta a b [ k ] in
  Util.put m "admission.shed_frac" "ratio"
    (Util.safe_div
       (shed "shed_full" +. shed "shed_deadline" +. shed "shed_closed" +. shed "shed_displaced")
       completed);
  Util.put m "admission.max_depth" "count" (num b.doc [ "queue_max_depth" ]);
  Util.put m "batcher.turnaround_us_p50" "us" (Util.quantile_sorted turn 0.5);
  Util.put m "batcher.turnaround_us_p99" "us" (Util.quantile_sorted turn 0.99);
  Util.put m "batcher.batch_size_mean" "count" bsize;
  sched_layer m ~before:(path a.doc [ "sched" ]) ~after:(path b.doc [ "sched" ]) ~wall:ra.Load.wall_s;
  (* adaptive ladder: rung shares as served, costs replayed *)
  let sla_n = delta a b [ "sla"; "requests" ] in
  List.iter
    (fun t ->
      Util.put m ("adaptive.rung_share." ^ t) "ratio"
        (Util.safe_div (chosen b.doc t -. chosen a.doc t) sla_n))
    [ "mf2"; "mf3"; "mf4"; "bigfloat" ];
  Util.put m "adaptive.escalations_per_req" "count"
    (Util.safe_div (delta a b [ "sla"; "escalations" ]) sla_n);
  if kind_of o = `Vector then begin
    (* the ladder as the scalar reference runs it, per SLA request, and
       the bigfloat rung's own cost on the same inputs whether or not
       the ladder reached it *)
    let esc_t = ref 0.0 and esc_n = ref 0 and big_t = ref 0.0 and big_n = ref 0 in
    Array.iter
      (fun (r : Serve.Protocol.request) ->
        match
          ( r.Serve.Protocol.sla,
            Adaptive.Sla.of_wire ~op:(Serve.Protocol.op_name r.Serve.Protocol.op)
              ~prog:r.Serve.Protocol.prog )
        with
        | Some _, Some op ->
            esc_t := !esc_t +. snd (Util.time (fun () -> Serve.Batcher.eval_adaptive r));
            incr esc_n;
            let inp =
              { Adaptive.Sla.x = r.Serve.Protocol.x; y = r.Serve.Protocol.y; z = r.Serve.Protocol.z }
            in
            big_t := !big_t +. snd (Util.time (fun () -> Adaptive.Escalate.bigfloat_eval op inp));
            incr big_n
        | _ -> ())
      pool.Gen.reqs;
    Util.put m "adaptive.escalate_us_per_req" "us" (Util.safe_div (!esc_t *. 1e6) (float_of_int !esc_n));
    Util.put m "bigfloat.us_per_req" "us" (Util.safe_div (!big_t *. 1e6) (float_of_int !big_n));
    Layers.kernels m ~seed:o.seed;
    Util.put m "fuse.program_speedup" "ratio" (Layers.program_speedup pool)
  end;
  (* the server process: CPU and GC per completed request *)
  let cpu_us = (b.rep.Load.cpu_s -. a.rep.Load.cpu_s) *. 1e6 /. completed in
  let stage_us = (stages_ns +. push_ns) *. 1e-3 in
  Util.put m "gc.minor_words_per_req" "words"
    ((b.rep.Load.minor_words -. a.rep.Load.minor_words) /. completed);
  Util.put m "gc.major_collections" "count"
    (float_of_int (b.rep.Load.major_collections - a.rep.Load.major_collections));
  Util.put m "server.cpu_us_per_req" "us" cpu_us;
  Util.put m "server.unexplained_frac" "ratio" (1.0 -. Util.safe_div stage_us cpu_us);
  Util.put m "client.cpu_frac" "ratio" ra.Load.cpu_frac;
  Util.put m "client.call_us" "us" (Util.median calls);
  Util.put m "trace.overhead_frac" "ratio" (1.0 -. Util.safe_div (rps rb) (rps ra));
  let span_us n t = Util.safe_div (t *. 1e-3) (float_of_int n) in
  Util.put m "trace.request_span_us" "us" (span_us tb.rep.Load.request_spans tb.rep.Load.request_span_ns);
  Util.put m "trace.batch_span_us" "us" (span_us tb.rep.Load.batch_spans tb.rep.Load.batch_span_ns);
  flag_client ra;
  flag_client rb;
  let checked, bad = Load.check ~corrupt:o.corrupt pool (ra.Load.samples @ rb.Load.samples) in
  Util.log "traced run: %d + %d replies, %d checked bitwise, %d mismatches" ra.Load.completed
    rb.Load.completed checked bad;
  let attempted = ra.Load.completed + rb.Load.completed in
  let failed = ra.Load.failed + rb.Load.failed + bad + ra.Load.unanswered + rb.Load.unanswered in
  Util.put m "fail_frac" "ratio" (Util.safe_div (float_of_int failed) (float_of_int attempted));
  (failed = 0 && attempted > 0, attempted, failed, m)

(* --- dense ------------------------------------------------------------ *)

(* Scheduler start plus input generation. *)
let dense_setup o =
  let rt, sched_s =
    setup_median ~discard:Runtime.Sched.shutdown (fun () -> Runtime.Sched.create ~workers:2 ())
  in
  let inp, make_s = setup_median (fun () -> Dense.make ~seed:o.seed ~tiny:o.tiny) in
  (rt, inp, sched_s +. make_s)

let dense_e2e o =
  let rt, inp, setup_s = dense_setup o in
  let first, times, bad_rounds = Dense.rounds rt inp ~seconds:o.seconds ~min_rounds:slices in
  Runtime.Sched.shutdown rt;
  let bad_seq, _ = Dense.check ~corrupt:o.corrupt inp first in
  let bad = bad_rounds + bad_seq in
  let n = List.length times in
  let busy = List.fold_left (fun a (_, g, s) -> a +. g +. s) 0.0 times in
  (* latencies per slice of the window by round start, as for serve *)
  let slice (start, _, _) = min (slices - 1) (int_of_float (start /. o.seconds *. float_of_int slices)) in
  let per_slice q =
    Util.median
      (List.filter_map
         (fun k ->
           match List.filter (fun r -> slice r = k) times with
           | [] -> None
           | rs -> Some (Util.quantile_sorted (Util.sorted (List.map (fun (_, g, s) -> (g +. s) *. 1e6) rs)) q))
         (List.init slices Fun.id))
  in
  Util.log "%d rounds (gemm %.3fs, solve %.3fs median), %d mismatches" n
    (Util.median (List.map (fun (_, g, _) -> g) times))
    (Util.median (List.map (fun (_, _, s) -> s) times))
    bad;
  let m = Util.metrics () in
  Util.put m "req_per_s" "1/s" (float_of_int n /. busy);
  Util.put m "latency_p50_us" "us" (per_slice 0.5);
  Util.put m "latency_p99_us" "us" (per_slice 0.99);
  Util.put m "setup_s" "s" setup_s;
  Util.put m "peak_rss_mb" "MB" (float_of_int (Util.maxrss_kb 0) /. 1024.0);
  (bad = 0, 2 * n, bad, m)

let dense_trace o =
  let rt, inp, _ = dense_setup o in
  let m = Util.metrics () in
  let phase = o.seconds *. 0.3 in
  Runtime.Sched.reset_stats rt;
  let before = Runtime.Sched.stats_json (Runtime.Sched.stats rt) in
  let g0 = Gc.quick_stat () in
  let (first, ra, bad_a), wa =
    Util.time (fun () -> Dense.rounds rt inp ~seconds:phase ~min_rounds:2)
  in
  let g1 = Gc.quick_stat () in
  sched_layer m ~before ~after:(Runtime.Sched.stats_json (Runtime.Sched.stats rt)) ~wall:wa;
  (* traced rounds: the refinement's own refine.solve / refine.iter spans *)
  Obs.Trace.set_enabled true;
  let spans = ref [] in
  let after () = spans := List.rev_append (Obs.Trace.drain ()) !spans in
  let (_, rb, bad_b), wb =
    Util.time (fun () -> Dense.rounds ~after rt inp ~seconds:phase ~min_rounds:2)
  in
  Obs.Trace.set_enabled false;
  let named n = List.filter (fun (s : Obs.Trace.span) -> s.Obs.Trace.name = n) !spans in
  let solves = named "refine.solve" and iters = named "refine.iter" in
  let dur (s : Obs.Trace.span) = (s.Obs.Trace.t1_ns -. s.Obs.Trace.t0_ns) *. 1e-9 in
  let iter_s = Util.safe_div (List.fold_left (fun a s -> a +. dur s) 0.0 iters) (float_of_int (List.length iters)) in
  (* the LU factorization: from each refine.solve start to its first
     refine.iter, less one iteration, since both stretches also hold a
     double-precision solve and a residual *)
  let pre =
    List.map
      (fun (sv : Obs.Trace.span) ->
        let first =
          List.fold_left
            (fun acc (it : Obs.Trace.span) ->
              if it.Obs.Trace.t0_ns >= sv.Obs.Trace.t0_ns && it.Obs.Trace.t1_ns <= sv.Obs.Trace.t1_ns
              then Float.min acc it.Obs.Trace.t0_ns
              else acc)
            sv.Obs.Trace.t1_ns iters
        in
        (first -. sv.Obs.Trace.t0_ns) *. 1e-9)
      solves
  in
  Util.put m "linalg.factor_s" "s" (Float.max 0.0 (Util.median pre -. iter_s));
  Util.put m "linalg.residual_ms_per_iter" "ms" (iter_s *. 1e3);
  Util.put m "linalg.iterations" "count"
    (Util.safe_div (float_of_int (List.length iters)) (float_of_int (List.length solves)));
  let na = float_of_int (List.length ra) in
  let gemm_rt = Util.median (List.map (fun (_, g, _) -> g) ra) in
  let solve_s = Util.median (List.map (fun (_, _, s) -> s) ra) in
  let n3 = float_of_int inp.Dense.n ** 3.0 in
  Util.put m "gemm_gops" "Gop/s" (n3 /. gemm_rt *. 1e-9);
  Util.put m "solve_s" "s" solve_s;
  Util.put m "engine.gemm_rt_s" "s" gemm_rt;
  Util.put m "gc.minor_words_per_req" "words" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. na);
  Util.put m "gc.major_collections" "count"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  Util.put m "trace.overhead_frac" "ratio"
    (1.0 -. Util.safe_div (float_of_int (List.length rb) /. wb) (na /. wa));
  Runtime.Sched.shutdown rt;
  Layers.kernels m ~seed:o.seed;
  Util.put m "fuse.residual_speedup" "ratio" (Layers.residual_speedup inp);
  let bad_seq, seq_s = Dense.check ~corrupt:o.corrupt inp first in
  let bad = bad_a + bad_b + bad_seq in
  Util.put m "engine.gemm_seq_s" "s" seq_s;
  Util.put m "engine.parallel_eff" "ratio" (seq_s /. (gemm_rt *. 2.0));
  let attempted = 2 * (List.length ra + List.length rb) in
  Util.put m "fail_frac" "ratio" (Util.safe_div (float_of_int bad) (float_of_int attempted));
  (bad = 0, attempted, bad, m)

(* --- main ------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload serve_scalar|serve_vector|dense --seed N --seconds S \
     --trace 0|1 [--tiny] [--corrupt]\n       perfbench.exe digest --workload W --seed N [--tiny]\n       \
     perfbench.exe declare";
  exit 2

let parse args =
  let o =
    ref { workload = ""; seed = 1; seconds = 10.0; trace = false; tiny = false; corrupt = false }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> o := { !o with workload = w }; go rest
    | "--seed" :: n :: rest -> o := { !o with seed = int_of_string n }; go rest
    | "--seconds" :: s :: rest -> o := { !o with seconds = float_of_string s }; go rest
    | "--trace" :: t :: rest -> o := { !o with trace = t = "1" }; go rest
    | "--tiny" :: rest -> o := { !o with tiny = true }; go rest
    | "--corrupt" :: rest -> o := { !o with corrupt = true }; go rest
    | _ -> usage ()
  in
  (try go args with Failure _ -> usage ());
  if not (List.mem_assoc !o.workload workloads) then usage ();
  !o

let digest o =
  if o.workload = "dense" then begin
    let inp = Dense.make ~seed:o.seed ~tiny:o.tiny in
    let floats v = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") v)) in
    print_endline
      (Digest.to_hex
         (Digest.string
            (floats inp.Dense.sa
            ^ floats (Array.concat (List.map Multifloat.Mf2.components (Array.to_list (Dense.G2.V.to_array inp.Dense.ga)))))))
  end
  else begin
    let pool = Gen.pool (kind_of o) ~seed:o.seed ~tiny:o.tiny in
    let next = Gen.traffic pool ~seed:o.seed ~conn:0 in
    let idx = String.concat "," (List.init 1000 (fun _ -> string_of_int (next ()))) in
    print_endline (Gen.digest pool ^ " " ^ Digest.to_hex (Digest.string idx))
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "declare" ] ->
      List.iter (fun (n, u) -> Printf.printf "end_to_end %s %s\n" n u) end_to_end;
      List.iter (fun (n, u) -> Printf.printf "per_layer %s %s\n" n u) per_layer
  | "digest" :: args -> digest (parse args)
  | args ->
      let o = parse args in
      Serve.Protocol.ignore_sigpipe ();
      Obs.Trace.set_enabled false;
      Obs.Trace.set_ring_capacity 65536;
      at_exit (fun () -> List.iter Load.stop !servers);
      print_endline (header o);
      let correct, attempted, failed, m =
        match (o.workload, o.trace) with
        | "dense", false -> dense_e2e o
        | "dense", true -> dense_trace o
        | _, false -> serve_e2e o
        | _, true -> serve_trace o
      in
      emit o ~correct ~attempted ~failed m;
      if not correct then exit 1
