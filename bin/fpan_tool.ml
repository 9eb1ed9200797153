(* Command-line tool for inspecting, checking, and searching FPANs. *)

open Cmdliner

(* SIGINT/SIGTERM on a long-running subcommand: drain every live
   scheduler (running registered drain hooks, so in-flight work and
   artifacts flush) before dying with the conventional 128+signum
   status. *)
let drain_on_signal () =
  let handler signum =
    prerr_endline "fpan_tool: signal received, draining schedulers";
    (try Runtime.Sched.drain_all () with _ -> ());
    exit (128 + signum)
  in
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle handler) with _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let find_network name =
  match List.assoc_opt name Fpan.Networks.all with
  | Some net -> net
  | None ->
      Printf.eprintf "unknown network %s; available: %s\n" name
        (String.concat ", " (List.map fst Fpan.Networks.all));
      exit 2

let terms_of name = int_of_string (String.sub name (String.length name - 1) 1)

let check_network name cases seed =
  let net = find_network name in
  let n = terms_of name in
  let report =
    if String.length name >= 3 && String.sub name 0 3 = "mul" then
      Fpan.Checker.check_mul net ~terms:n ~expand:(Fpan.Networks.mul_expand n) ~cases ~seed
    else Fpan.Checker.check_add net ~terms:n ~cases ~seed
  in
  Format.printf "%s: %a@." name Fpan.Checker.pp_report report;
  Fpan.Checker.passed report

let list_cmd =
  let doc = "List all networks with size, depth, and flop counts." in
  let run () =
    Format.printf "%-6s %6s %6s %6s %10s@." "name" "size" "depth" "flops" "error";
    List.iter
      (fun (name, net) ->
        Format.printf "%-6s %6d %6d %6d %10s@." name (Fpan.Network.size net)
          (Fpan.Network.depth net) (Fpan.Network.flops net)
          (Printf.sprintf "2^-%d" net.Fpan.Network.error_exp))
      Fpan.Networks.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let name_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"NETWORK")

let cases_arg =
  Arg.(value & opt int 100_000 & info [ "cases"; "n" ] ~docv:"N" ~doc:"Number of random cases.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let show_cmd =
  let doc = "Print the gate listing of a network." in
  let run name = Format.printf "%a@." Fpan.Network.pp (find_network name) in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ name_arg)

let check_cmd =
  let doc = "Check a network's correctness conditions on random adversarial inputs." in
  let run name cases seed = if not (check_network name cases seed) then exit 1 in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ name_arg $ cases_arg $ seed_arg)

let check_all_cmd =
  let doc = "Check every network." in
  let run cases seed =
    let ok = List.for_all (fun (name, _) -> check_network name cases seed) Fpan.Networks.all in
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "check-all" ~doc) Term.(const run $ cases_arg $ seed_arg)

let dot_cmd =
  let doc = "Emit a Graphviz rendering of a network." in
  let run name = print_string (Fpan.Dot.render (find_network name)) in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ name_arg)

let search_cmd =
  let doc = "Run the simulated-annealing search to shrink a network." in
  let steps_arg =
    Arg.(value & opt int 20_000 & info [ "steps" ] ~docv:"N" ~doc:"Annealing steps.")
  in
  let run name steps seed =
    let net = find_network name in
    let n = terms_of name in
    let is_mul = String.length name >= 3 && String.sub name 0 3 = "mul" in
    let best = Fpan.Search.anneal ~seed ~steps ~terms:n ~is_mul net in
    Format.printf "%a@." Fpan.Network.pp best
  in
  Cmd.v (Cmd.info "search" ~doc) Term.(const run $ name_arg $ steps_arg $ seed_arg)

let analyze_cmd =
  let doc = "Print the static exponent-domain certificate for a network." in
  let run name =
    let net = find_network name in
    let n = terms_of name in
    let kind =
      if String.length name >= 3 && String.sub name 0 3 = "mul" then Fpan.Analyze.Mul_inputs n
      else Fpan.Analyze.Add_inputs n
    in
    let r = Fpan.Analyze.analyze net kind in
    Format.printf "%s: %a@." name Fpan.Analyze.pp r;
    Format.printf "claimed bound 2^-%d; static certificate proves 2^%d in the no-cancellation regime@."
      net.Fpan.Network.error_exp r.Fpan.Analyze.discarded_total_exponent
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ name_arg)

let enumerate_cmd =
  let doc =
    "Exhaustively enumerate all 2-term-addition FPANs of a given size against the Figure 2 \
     specification (the lower-bound half of the paper's optimality proof)."
  in
  let size_arg = Arg.(value & opt int 4 & info [ "size" ] ~docv:"N" ~doc:"Gate count to enumerate.") in
  let run size cases =
    let r = Fpan.Enumerate.search_size ~size ~checker_cases:cases () in
    Format.printf "size %d: %a@." size Fpan.Enumerate.pp_result r;
    List.iter (fun net -> Format.printf "%a@." Fpan.Network.pp net) r.Fpan.Enumerate.verified_correct;
    if r.Fpan.Enumerate.verified_correct = [] then
      Format.printf "no %d-gate FPAN meets the Figure 2 specification@." size
  in
  Cmd.v (Cmd.info "enumerate" ~doc) Term.(const run $ size_arg $ cases_arg)

let check_n_cmd =
  let doc = "Check the programmatic n-term addition network (any n >= 2)." in
  let n_arg = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  let run n cases seed =
    let net = Fpan.Networks.add_n n in
    Format.printf "%a@." Fpan.Network.pp net;
    let report = Fpan.Checker.check_add net ~terms:n ~cases ~seed in
    Format.printf "%a@." Fpan.Checker.pp_report report;
    if not (Fpan.Checker.passed report) then exit 1
  in
  Cmd.v (Cmd.info "check-n" ~doc) Term.(const run $ n_arg $ cases_arg $ seed_arg)

let fuzz_cmd =
  let doc =
    "Differential fuzz of every extended-precision implementation (MultiFloat scalar and batch, \
     QD, CAMPARY, software FPU) against the exact-arithmetic oracle, with ulp histograms, \
     bitwise scalar-vs-batch comparison, and counterexample shrinking.  Writes a JSON audit \
     report and exits nonzero on any gated failure."
  in
  let cases_arg =
    Arg.(value & opt int Check.Fuzz.default.Check.Fuzz.cases
         & info [ "cases"; "n" ] ~docv:"N" ~doc:"Scalar cases per precision tier.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.") in
  let ops_arg =
    Arg.(value & opt (some string) None
         & info [ "ops" ] ~docv:"OPS"
             ~doc:"Comma-separated operation filter (add,sub,mul,div,sqrt,dot,axpy,gemv).")
  in
  let tiers_arg =
    Arg.(value & opt (some string) None
         & info [ "tiers" ] ~docv:"TIERS" ~doc:"Comma-separated term counts to audit (2,3,4).")
  in
  let vec_len_arg =
    Arg.(value & opt int Check.Fuzz.default.Check.Fuzz.vec_len
         & info [ "vec-len" ] ~docv:"N" ~doc:"Vector length for DOT/AXPY/GEMV cases.")
  in
  let out_arg =
    Arg.(value & opt string "CHECK_report.json"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Where to write the JSON audit report.")
  in
  let split_commas s = String.split_on_char ',' s |> List.filter (fun p -> p <> "") in
  let run cases seed ops tiers vec_len out =
    drain_on_signal ();
    (* The harness must prove it can catch a broken renormalization
       before its clean bill of health means anything. *)
    (match Check.Fuzz.self_test () with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok (finding, _, terms) ->
        Printf.printf
          "self-test: sloppy_add caught (%s on %s corpus, %.3g ulps), shrunk to %d terms\n%!"
          (Check.Differ.kind_name finding.Check.Differ.kind)
          (Check.Corpus.cls_name finding.Check.Differ.cls)
          finding.Check.Differ.ulps terms);
    let cfg =
      { Check.Fuzz.default with
        Check.Fuzz.cases; seed; vec_len;
        ops =
          (match ops with
          | None -> Check.Fuzz.default.Check.Fuzz.ops
          | Some s -> List.map Check.Corpus.op_of_name (split_commas s));
        tiers =
          (match tiers with
          | None -> Check.Fuzz.default.Check.Fuzz.tiers
          | Some s -> List.map int_of_string (split_commas s))
      }
    in
    let report = Check.Fuzz.run cfg in
    List.iter
      (fun row ->
        let st = row.Check.Fuzz.stats in
        Printf.printf "%-10s %-5s %s  cases %7d  skipped %5d  max %10.4g ulps  mean %10.4g%s\n"
          row.Check.Fuzz.impl row.Check.Fuzz.op
          (if row.Check.Fuzz.gated then "gated" else "audit")
          (Check.Ulp_stats.count st)
          (Check.Ulp_stats.skipped st)
          (Check.Ulp_stats.max_ulps st) (Check.Ulp_stats.mean st)
          (if Check.Ulp_stats.exceed st > 0 then
             Printf.sprintf "  EXCEED %d" (Check.Ulp_stats.exceed st)
           else ""))
      report.Check.Fuzz.rows;
    List.iter
      (fun f ->
        Printf.printf "FAIL %s %s [%s] %s: shrunk to %d terms\n"
          f.Check.Fuzz.finding.Check.Differ.impl
          (Check.Corpus.op_name f.Check.Fuzz.finding.Check.Differ.op)
          (Check.Corpus.cls_name f.Check.Fuzz.finding.Check.Differ.cls)
          (Check.Differ.kind_name f.Check.Fuzz.finding.Check.Differ.kind)
          f.Check.Fuzz.shrunk_terms;
        Array.iteri
          (fun i o ->
            Printf.printf "  operand %d: %s\n" i
              (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") o))))
          f.Check.Fuzz.shrunk)
      report.Check.Fuzz.failures;
    Check.Fuzz.write_report out report;
    Printf.printf "%d scalar + %d vector cases; %d failure(s); report: %s\n"
      report.Check.Fuzz.scalar_cases report.Check.Fuzz.vector_cases
      report.Check.Fuzz.failure_count out;
    if not (Check.Fuzz.passed report) then exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ cases_arg $ seed_arg $ ops_arg $ tiers_arg $ vec_len_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* bench-sched: worker-count scaling curve of the work-stealing tiled
   GEMM engine (lib/runtime), with execution telemetry and bitwise
   determinism checks against the sequential batched kernel. *)

let bench_sched_run n terms workers_csv reps tile sweep obs out =
  drain_on_signal ();
  let module B =
    (val (match terms with
         | 2 -> (module Blas.Instances.Mf2 : Blas.Numeric.BATCHED)
         | 3 -> (module Blas.Instances.Mf3)
         | 4 -> (module Blas.Instances.Mf4)
         | t ->
             Printf.eprintf "bench-sched: --terms must be 2, 3, or 4 (got %d)\n" t;
             exit 2))
  in
  let module K = Blas.Kernels.Make_batched (B) in
  let workers =
    String.split_on_char ',' workers_csv
    |> List.filter_map (fun s ->
           match int_of_string_opt (String.trim s) with
           | Some w when w >= 1 -> Some w
           | _ -> None)
  in
  let workers = if workers = [] then [ 1; 2; 4 ] else workers in
  let rng = Random.State.make [| 0x5ced; n; terms |] in
  let rand_vec len = K.vec_of_floats (Array.init len (fun _ -> Random.State.float rng 2.0 -. 1.0)) in
  let a = rand_vec (n * n) and b = rand_vec (n * n) in
  let ops = n * n * n in
  let time_gemm f =
    (* fresh C per rep (GEMM accumulates); one warmup, then best-of *)
    f (K.V.create (n * n));
    let best = ref infinity and result = ref None in
    for _ = 1 to max 1 reps do
      let c = K.V.create (n * n) in
      let t0 = Unix.gettimeofday () in
      f c;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some (K.vec_to_floats c)
    done;
    (!best, Option.get !result)
  in
  let gops dt = Float.of_int ops /. dt *. 1e-9 in
  Printf.printf "bench-sched: %d-bit GEMM, n = %d, tile %dx%d, best of %d\n" B.bits n (fst tile)
    (snd tile) reps;
  let t_seq, ref_c = time_gemm (fun c -> K.gemm ~m:n ~n ~k:n ~a ~b ~c) in
  Printf.printf "  sequential batched kernel: %.4f s  (%.4f Gop/s)\n" t_seq (gops t_seq);
  let mismatches = ref 0 in
  let module J = Obs.Json_out in
  if obs then begin
    Obs.Trace.set_enabled true;
    Obs.Trace.clear ();
    Obs.Metrics.reset Obs.Metrics.global
  end;
  let last_sched = ref None in
  let curve =
    List.map
      (fun w ->
        Runtime.Sched.with_sched ~workers:w (fun rt ->
            Runtime.Sched.reset_stats rt;
            let t_rt, c_rt = time_gemm (fun c -> K.gemm_rt rt ~tile ~m:n ~n ~k:n ~a ~b ~c ()) in
            let stats = Runtime.Sched.stats rt in
            let bitwise = c_rt = ref_c in
            if not bitwise then incr mismatches;
            let steals = Array.fold_left (fun acc s -> acc + s.Runtime.Sched.steals) 0 stats in
            Printf.printf
              "  %2d worker%s: runtime %.4f s (%.4f Gop/s, %.2fx vs seq, %d steals)  bitwise %s\n"
              w
              (if w = 1 then " " else "s")
              t_rt (gops t_rt) (t_seq /. t_rt) steals
              (if bitwise then "ok" else "MISMATCH");
            let telemetry = Runtime.Sched.stats_json stats in
            last_sched := Some telemetry;
            J.Obj
              [ ("workers", J.Num (Float.of_int w));
                ("runtime_wall_s", J.Num t_rt);
                ("runtime_gops", J.Num (gops t_rt));
                ("speedup_vs_seq", J.Num (t_seq /. t_rt));
                ("bitwise_equal_seq", J.Bool bitwise);
                ("telemetry", telemetry) ]))
      workers
  in
  let tile_sweep =
    if not sweep then []
    else begin
      Printf.printf "  tile sweep (workers = %d):\n" (List.hd workers);
      List.map
        (fun t ->
          let dt, c =
            Runtime.Sched.with_sched ~workers:(List.hd workers) (fun rt ->
                time_gemm (fun cc -> K.gemm_rt rt ~tile:(t, t) ~m:n ~n ~k:n ~a ~b ~c:cc ()))
          in
          if c <> ref_c then incr mismatches;
          Printf.printf "    %3dx%-3d: %.4f s  (%.4f Gop/s)\n" t t dt (gops dt);
          J.Obj [ ("tile", J.Num (Float.of_int t)); ("wall_s", J.Num dt); ("gops", J.Num (gops dt)) ])
        [ 8; 16; 32; 64; 128 ]
    end
  in
  (* With --obs the whole curve ran traced: export the spans as a
     Chrome trace plus an fpan-trace/1 summary (the summary's sched
     rows are the last curve point's telemetry, verbatim) and link
     both from the BENCH json. *)
  let obs_block =
    if not obs then []
    else begin
      Obs.Trace.set_enabled false;
      let dropped = Obs.Trace.dropped () in
      let spans = Obs.Trace.drain () in
      let unbalanced = Obs.Trace.unbalanced () in
      let base = Filename.remove_extension out in
      let summary_path = base ^ "_trace.json" in
      let chrome_path = base ^ "_chrome_trace.json" in
      let summary =
        Obs.Export.summary ~workload:"bench-sched" ?sched:!last_sched ~spans
          ~metrics:(Obs.Metrics.snapshot Obs.Metrics.global) ~dropped ~unbalanced ()
      in
      Obs.Schema.check ~name:summary_path Obs.Schemas.trace_summary summary;
      let chrome = Obs.Export.chrome_trace spans in
      Obs.Schema.check ~name:chrome_path Obs.Schemas.chrome_trace chrome;
      Obs.Export.write_json summary_path summary;
      Obs.Export.write_json chrome_path chrome;
      Printf.printf "  trace summary: %s; chrome trace: %s (%d spans, %d dropped)\n" summary_path
        chrome_path (List.length spans) dropped;
      [ ("obs", J.Obj [ ("trace_summary", J.Str summary_path); ("chrome_trace", J.Str chrome_path) ]) ]
    end
  in
  let json =
    J.Obj
      ([ ("schema", J.Str "fpan-bench-sched/2");
         ("kernel", J.Str "GEMM");
         ("bits", J.Num (Float.of_int B.bits));
         ("n", J.Num (Float.of_int n));
         ("tile_m", J.Num (Float.of_int (fst tile)));
         ("tile_n", J.Num (Float.of_int (snd tile)));
         ("reps", J.Num (Float.of_int reps));
         ("seq_wall_s", J.Num t_seq);
         ("seq_gops", J.Num (gops t_seq));
         ("curve", J.List curve) ]
      @ (if tile_sweep = [] then [] else [ ("tile_sweep", J.List tile_sweep) ])
      @ obs_block)
  in
  Obs.Schema.check ~name:out Obs.Schemas.bench_sched json;
  J.write_file out json;
  Printf.printf "  scaling curve written to %s\n" out;
  if !mismatches > 0 then begin
    Printf.eprintf "bench-sched: %d bitwise mismatch(es) -- determinism violated\n" !mismatches;
    exit 1
  end

let bench_sched_cmd =
  let doc =
    "Benchmark the work-stealing tiled GEMM runtime across worker counts (scaling curve, \
     per-worker telemetry, bitwise-determinism checks)."
  in
  let n_arg =
    Arg.(value & opt int 256 & info [ "n"; "size" ] ~docv:"N" ~doc:"Matrix dimension.")
  in
  let terms_arg =
    Arg.(value & opt int 2 & info [ "terms" ] ~docv:"T" ~doc:"MultiFloat terms (2, 3, or 4).")
  in
  let workers_arg =
    Arg.(
      value & opt string "1,2,4"
      & info [ "workers" ] ~docv:"W,W,..." ~doc:"Comma-separated worker counts.")
  in
  let reps_arg =
    Arg.(value & opt int 3 & info [ "reps" ] ~docv:"R" ~doc:"Timed repetitions (best-of).")
  in
  let tile_arg =
    let parse s =
      match String.split_on_char 'x' (String.lowercase_ascii s) with
      | [ a ] | [ a; "" ] -> (
          match int_of_string_opt a with Some t when t > 0 -> Ok (t, t) | _ -> Error (`Msg "bad tile"))
      | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some tm, Some tn when tm > 0 && tn > 0 -> Ok (tm, tn)
          | _ -> Error (`Msg "bad tile"))
      | _ -> Error (`Msg "bad tile")
    in
    let print ppf (tm, tn) = Format.fprintf ppf "%dx%d" tm tn in
    Arg.(
      value
      & opt (conv (parse, print)) (32, 32)
      & info [ "tile" ] ~docv:"MxN" ~doc:"GEMM tile size (e.g. 32 or 32x64).")
  in
  let sweep_arg =
    Arg.(value & flag & info [ "sweep-tiles" ] ~doc:"Also sweep square tile sizes 8..128.")
  in
  let obs_arg =
    Arg.(
      value & flag
      & info [ "obs" ]
          ~doc:
            "Trace the whole run and also write a Chrome trace and an fpan-trace/1 summary next \
             to the output file.")
  in
  let out_arg =
    Arg.(
      value & opt string "BENCH_sched.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"JSON output path.")
  in
  Cmd.v
    (Cmd.info "bench-sched" ~doc)
    Term.(
      const bench_sched_run $ n_arg $ terms_arg $ workers_arg $ reps_arg $ tile_arg $ sweep_arg
      $ obs_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* trace: run an instrumented workload untraced then traced, measure
   the overhead, and export the Chrome trace + fpan-trace/1 summary.
   The summary's sched rows are Sched.stats_json verbatim; we parse
   the written file back and demand the rows survived the round trip
   bitwise, which is the acceptance check that BENCH telemetry and
   trace telemetry cannot disagree. *)

let trace_run workload n terms workers reps out_prefix =
  drain_on_signal ();
  let module J = Obs.Json_out in
  (* One execution of the workload: wall seconds plus the per-worker
     telemetry when a scheduler was involved. *)
  let execute =
    match workload with
    | "gemm" ->
        let module B =
          (val (match terms with
               | 2 -> (module Blas.Instances.Mf2 : Blas.Numeric.BATCHED)
               | 3 -> (module Blas.Instances.Mf3)
               | 4 -> (module Blas.Instances.Mf4)
               | t ->
                   Printf.eprintf "trace: --terms must be 2, 3, or 4 (got %d)\n" t;
                   exit 2))
        in
        let module K = Blas.Kernels.Make_batched (B) in
        let rng = Random.State.make [| 0x7ace; n; terms |] in
        let rand_vec len =
          K.vec_of_floats (Array.init len (fun _ -> Random.State.float rng 2.0 -. 1.0))
        in
        let a = rand_vec (n * n) and b = rand_vec (n * n) in
        fun () ->
          Runtime.Sched.with_sched ~workers (fun rt ->
              Runtime.Sched.reset_stats rt;
              let c = K.V.create (n * n) in
              let t0 = Unix.gettimeofday () in
              K.gemm_rt rt ~m:n ~n ~k:n ~a ~b ~c ();
              let wall = Unix.gettimeofday () -. t0 in
              (wall, Some (Runtime.Sched.stats_json (Runtime.Sched.stats rt))))
    | "refine" ->
        let module M = Multifloat.Mf2 in
        let module RB = Linalg.Refine_batched (M) (Multifloat.Batch.Mf2v) in
        let rng = Random.State.make [| 0xbeef; n |] in
        let a = Array.init (n * n) (fun _ -> Random.State.float rng 2.0 -. 1.0) in
        for i = 0 to n - 1 do
          (* diagonally dominant, so refinement converges *)
          a.((i * n) + i) <- a.((i * n) + i) +. Float.of_int n
        done;
        let b = Array.init n (fun _ -> M.of_float (Random.State.float rng 2.0 -. 1.0)) in
        fun () ->
          Runtime.Sched.with_sched ~workers (fun rt ->
              Runtime.Sched.reset_stats rt;
              let t0 = Unix.gettimeofday () in
              let _x, _stats = RB.solve ~rt ~n ~a ~b () in
              let wall = Unix.gettimeofday () -. t0 in
              (wall, Some (Runtime.Sched.stats_json (Runtime.Sched.stats rt))))
    | "fuzz" ->
        let cfg =
          { Check.Fuzz.default with Check.Fuzz.cases = Stdlib.max 50 n; tiers = [ 2; 3 ] }
        in
        fun () ->
          let t0 = Unix.gettimeofday () in
          let r = Check.Fuzz.run cfg in
          ignore r.Check.Fuzz.failure_count;
          (Unix.gettimeofday () -. t0, None)
    | w ->
        Printf.eprintf "trace: unknown workload %s (gemm, refine, fuzz)\n" w;
        exit 2
  in
  let best_of reps =
    let best = ref infinity and sched = ref None in
    for _ = 1 to Stdlib.max 1 reps do
      let dt, s = execute () in
      if dt < !best then best := dt;
      sched := s (* telemetry of the most recent run *)
    done;
    (!best, !sched)
  in
  ignore (execute ()) (* warmup *);
  Obs.Trace.set_enabled false;
  let t_un, _ = best_of reps in
  Obs.Trace.set_enabled true;
  ignore (execute ()) (* traced warmup: creates the per-domain rings *);
  Obs.Trace.clear ();
  Obs.Metrics.reset Obs.Metrics.global;
  let t_tr, sched = best_of reps in
  Obs.Trace.set_enabled false;
  let dropped = Obs.Trace.dropped () in
  let spans = Obs.Trace.drain () in
  let unbalanced = Obs.Trace.unbalanced () in
  let metrics = Obs.Metrics.snapshot Obs.Metrics.global in
  let overhead_pct = (t_tr -. t_un) /. t_un *. 100.0 in
  let overhead =
    J.Obj
      [ ("untraced_wall_s", J.Num t_un);
        ("traced_wall_s", J.Num t_tr);
        ("overhead_pct", J.Num overhead_pct) ]
  in
  let summary =
    Obs.Export.summary ~workload ?sched ~extra:[ ("overhead", overhead) ] ~spans ~metrics
      ~dropped ~unbalanced ()
  in
  let summary_path = Printf.sprintf "%s_%s.json" out_prefix workload in
  let chrome_path = Printf.sprintf "%s_%s_chrome.json" out_prefix workload in
  Obs.Schema.check ~name:summary_path Obs.Schemas.trace_summary summary;
  let chrome = Obs.Export.chrome_trace spans in
  Obs.Schema.check ~name:chrome_path Obs.Schemas.chrome_trace chrome;
  Obs.Export.write_json summary_path summary;
  Obs.Export.write_json chrome_path chrome;
  Printf.printf "trace %s: untraced %.4f s, traced %.4f s (overhead %+.2f%%)\n" workload t_un t_tr
    overhead_pct;
  Printf.printf "  %d spans (%d dropped, %d unbalanced); summary %s; chrome trace %s\n"
    (List.length spans) dropped unbalanced summary_path chrome_path;
  (* round-trip cross-check: the sched rows in the file on disk must
     be bitwise the rows Sched.stats produced *)
  match sched with
  | None -> ()
  | Some expect -> (
      match J.parse_file summary_path with
      | Error msg ->
          Printf.eprintf "trace: cannot re-read %s: %s\n" summary_path msg;
          exit 1
      | Ok doc -> (
          match J.member "sched" doc with
          | Some got when J.to_string got = J.to_string expect ->
              Printf.printf "  sched telemetry round-trips bitwise against Sched.stats: ok\n"
          | _ ->
              Printf.eprintf "trace: sched telemetry in %s differs from Sched.stats\n" summary_path;
              exit 1))

let trace_cmd =
  let doc =
    "Run an instrumented workload with tracing off then on, report the tracing overhead, and \
     export a Chrome trace (load in Perfetto / about:tracing) plus an fpan-trace/1 summary whose \
     scheduler telemetry is bitwise that of Runtime.Sched.stats."
  in
  let workload_arg =
    Arg.(value & pos 0 string "gemm" & info [] ~docv:"WORKLOAD" ~doc:"gemm, refine, or fuzz.")
  in
  let n_arg =
    Arg.(value & opt int 192
         & info [ "n"; "size" ] ~docv:"N"
             ~doc:"Problem size (matrix dimension; for fuzz: scalar cases per tier).")
  in
  let terms_arg =
    Arg.(value & opt int 2 & info [ "terms" ] ~docv:"T" ~doc:"MultiFloat terms (gemm only).")
  in
  let workers_arg =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"W" ~doc:"Scheduler worker count.")
  in
  let reps_arg =
    Arg.(value & opt int 3 & info [ "reps" ] ~docv:"R" ~doc:"Timed repetitions (best-of).")
  in
  let out_arg =
    Arg.(value & opt string "TRACE"
         & info [ "out"; "o" ] ~docv:"PREFIX" ~doc:"Output path prefix.")
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const trace_run $ workload_arg $ n_arg $ terms_arg $ workers_arg $ reps_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* serve / loadgen: the batched extended-precision evaluation service
   (lib/serve) and its load generator. *)

module SP = Serve.Protocol

let parse_endpoint s : Serve.Server.addr =
  if String.contains s '/' then Serve.Server.Unix_path s
  else
    match String.rindex_opt s ':' with
    | Some i -> (
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some port -> Serve.Server.Tcp { host = String.sub s 0 i; port }
        | None -> Serve.Server.Unix_path s)
    | None -> Serve.Server.Unix_path s

let show_sockaddr = function
  | Unix.ADDR_UNIX p -> "unix:" ^ p
  | Unix.ADDR_INET (ip, port) ->
      Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr ip) port

let serve_run endpoint queue max_batch window_us shards cache max_conns =
  let addr = parse_endpoint endpoint in
  let stop_flag = ref false in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> stop_flag := true)))
    [ Sys.sigint; Sys.sigterm ];
  let wait () =
    while not !stop_flag do
      try Unix.sleepf 0.2 with Unix.Unix_error (EINTR, _, _) -> ()
    done
  in
  if shards >= 1 then begin
    (* sharded: this (parent) process stays domain-free — the shards
       are forked first and each builds its own scheduler *)
    let t =
      Serve.Shard.start ~addr ~shards ~queue_capacity:queue ~max_batch ~window_us
        ~cache_capacity:cache ~max_conns ()
    in
    Printf.printf "fpan_tool serve: listening on %s, %d shard(s) %s\n"
      (show_sockaddr (Serve.Shard.bound_addr t))
      shards
      (String.concat "," (List.map string_of_int (Serve.Shard.pids t)));
    Printf.printf
      "  queue %d/shard, max-batch %d, window %g us, cache %d; SIGINT/SIGTERM drains\n%!"
      queue max_batch window_us cache;
    wait ();
    print_endline "fpan_tool serve: draining";
    Serve.Shard.stop t;
    let s = Serve.Shard.stats t in
    Printf.printf "dispatched %s, restarts %d, refused %d\n"
      (String.concat "," (Array.to_list (Array.map string_of_int s.Serve.Shard.dispatched)))
      s.Serve.Shard.restarts s.Serve.Shard.refused
  end
  else
    (* the batcher evaluates on its own domain: the scheduler only
       carries the drain hook, and one worker spawns no domain *)
    Runtime.Sched.with_sched ~workers:1 (fun sched ->
        let srv =
          Serve.Server.start ~sched ~addr ~queue_capacity:queue ~max_batch ~window_us
            ~cache_capacity:cache ~max_conns ()
        in
        Printf.printf "fpan_tool serve: listening on %s\n"
          (show_sockaddr (Serve.Server.bound_addr srv));
        Printf.printf
          "  queue %d, max-batch %d, window %g us, cache %d; SIGINT/SIGTERM drains\n%!"
          queue max_batch window_us cache;
        wait ();
        print_endline "fpan_tool serve: draining";
        Serve.Server.stop srv;
        print_endline (Obs.Json_out.to_string (Serve.Server.stats_doc srv)))

let serve_cmd =
  let doc =
    "Run the batched extended-precision evaluation server: length-prefixed JSON frames \
     (fpan-serve/1) over a unix or TCP socket, deadline-aware micro-batching (each request \
     answered by the scalar reference path on the batcher domain), bounded admission with \
     explicit shed responses, and a graceful drain on SIGINT/SIGTERM that answers every \
     accepted request before exiting."
  in
  let endpoint_arg =
    Arg.(value & opt string "./fpan_serve.sock"
         & info [ "listen"; "l" ] ~docv:"ADDR"
             ~doc:"Socket to serve on: a unix path, or HOST:PORT for TCP (port 0 = ephemeral).")
  in
  let queue_arg =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc:"Admission queue capacity.")
  in
  let max_batch_arg =
    Arg.(value & opt int 32 & info [ "max-batch" ] ~docv:"N" ~doc:"Micro-batch size cap.")
  in
  let window_arg =
    Arg.(value & opt float 0.
         & info [ "window-us" ] ~docv:"US"
             ~doc:
               "Batching window in microseconds: how long a batcher cycle waits after its \
                first request for stragglers.  0 (the default) takes every request already \
                queued, up to --max-batch, without waiting; replies still coalesce into one \
                write per connection per cycle.  --max-batch 1 gives batch-size-1 serving.")
  in
  let shards_arg =
    Arg.(value & opt int 0
         & info [ "shards" ] ~docv:"N"
             ~doc:"Fork N server processes behind a connection distributor \
                   (0 = single-process).  Each shard runs its own batcher and \
                   cache; dead shards are detected and restarted.")
  in
  let cache_arg =
    Arg.(value & opt int 0
         & info [ "cache" ] ~docv:"N"
             ~doc:"Memoizing LRU capacity for repeated scalar requests \
                   (0 = off).  Hits are bitwise-identical to misses.")
  in
  let max_conns_arg =
    Arg.(value & opt int 16384
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Concurrent connection cap (per shard when sharded).")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const serve_run $ endpoint_arg $ queue_arg $ max_batch_arg
          $ window_arg $ shards_arg $ cache_arg $ max_conns_arg)

(* --- loadgen -------------------------------------------------------- *)

(* Deterministic request mix: ops x tiers round-robin over the id
   space, operand values a function of the id alone.  With [slas] the
   tier axis is replaced by an accuracy-budget axis: requests carry an
   SLA exponent q (round-robin over the list) and 2-component operands,
   so every ladder starts at mf2 and the escalation mix is the swept
   variable. *)
let lg_request ?(slas = []) ~ops ~tiers id =
  let op = List.nth ops (id mod List.length ops) in
  let sla =
    match slas with
    | [] -> None
    | qs -> Some (List.nth qs (id / List.length ops mod List.length qs))
  in
  let tier =
    match sla with
    | Some _ -> SP.Mf2
    | None -> List.nth tiers (id / List.length ops mod List.length tiers)
  in
  let terms = match sla with Some _ -> 2 | None -> SP.tier_terms tier in
  let element k =
    let v = 1.0 +. (Float.of_int ((id + k) mod 97) /. 97.0) in
    Array.init terms (fun j -> v *. (1e-17 ** Float.of_int j))
  in
  let vec n k0 = Array.init n (fun k -> element (k0 + k)) in
  let prog, x, y, z =
    match op with
    | SP.Add | SP.Mul | SP.Div -> ([], [| element 0 |], [| element 1 |], [||])
    | SP.Sqrt | SP.Exp | SP.Log | SP.Sin -> ([], [| element 0 |], [||], [||])
    | SP.Dot -> ([], vec 8 0, vec 8 8, [||])
    | SP.Axpy -> ([], vec 8 0, vec 9 8, [||])
    | SP.Sum -> ([], vec 8 0, [||], [||])
    | SP.Poly_eval -> ([], vec 8 0, [| element 9 |], [||])
    | SP.Program ->
        (* round-robin over the program chains *)
        (match List.nth SP.programs (id mod List.length SP.programs) with
        | [ "sum" ] as p -> (p, vec 8 0, [||], [||])
        | [ "mul"; "sum" ] as p -> (p, vec 8 0, vec 8 8, [||])
        | p -> (p, vec 8 0, vec 9 8, vec 8 17))
    | SP.Stats -> ([], [||], [||], [||])
  in
  { SP.id; op; tier; sla; deadline_ms = None; prog; x; y; z }

type lg_counts = {
  mutable lg_sent : int;
  mutable lg_ok : int;
  mutable lg_shed : int;
  mutable lg_err : int;
  mutable lg_lats : float list;  (** latency, microseconds *)
}

(* Find the char right after [sub] in [s], or -1.  Payloads are tiny
   and we control the encoder, so naive scan is fine. *)
let lg_after s sub =
  let n = String.length s and m = String.length sub in
  let rec eq i j = j >= m || (s.[i + j] = sub.[j] && eq i (j + 1)) in
  let rec go i = if i + m > n then -1 else if eq i 0 then i + m else go (i + 1) in
  go 0

(* (id, status initial) without a full JSON parse: the load generator
   is measurement harness, so it stays off the codec it is measuring
   (wrk-style).  Correctness of the served bytes is test_serve's job. *)
let lg_scan payload =
  let id = ref 0 in
  let k = ref (lg_after payload "\"id\":") in
  if !k >= 0 then
    while
      !k < String.length payload && payload.[!k] >= '0' && payload.[!k] <= '9'
    do
      id := (!id * 10) + (Char.code payload.[!k] - Char.code '0');
      incr k
    done;
  let sp = lg_after payload "\"status\":\"" in
  let status = if sp >= 0 && sp < String.length payload then payload.[sp] else 'e' in
  (!id, status)

(* One multiplexed closed-loop connection: [pipeline] requests in
   flight until the deadline, then drain what is still outstanding.
   Request frames are encoded once per pipeline slot up front and
   resent verbatim (slot ids recycle, one in flight per id); replies
   are scanned, not parsed.  Thousands of these ride on a handful of
   poll-based driver threads — a domain per connection stops scaling
   around a hundred. *)
type lg_conn = {
  lc_fd : Unix.file_descr;
  lc_frames : string array;
  lc_tsend : float array;
  lc_defr : SP.deframer;
  lc_counts : lg_counts;
  mutable lc_pend : string;  (* bytes not yet accepted by the kernel *)
  mutable lc_wreg : bool;  (* write interest currently registered *)
  mutable lc_alive : bool;
}

let lg_conn_make ~sockaddr ~slas ~ops ~tiers ~pipeline ~cid =
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sockaddr) SOCK_STREAM 0 in
  let rec connect tries =
    try Unix.connect fd sockaddr
    with Unix.Unix_error ((ECONNREFUSED | EAGAIN | EINTR), _, _) when tries < 50 ->
      (* backlog overflow under a connection storm: back off and retry *)
      Unix.sleepf 0.01;
      connect (tries + 1)
  in
  connect 0;
  Unix.set_nonblock fd;
  {
    lc_fd = fd;
    lc_frames =
      Array.init pipeline (fun i ->
          let req = lg_request ~slas ~ops ~tiers ((i * 131) + (cid * 17)) in
          let req = { req with SP.id = i + 1 } in
          SP.frame_of_string (Obs.Json_out.to_string_compact (SP.request_to_json req)));
    lc_tsend = Array.make (pipeline + 1) 0.0;
    lc_defr = SP.deframer ();
    lc_counts = { lg_sent = 0; lg_ok = 0; lg_shed = 0; lg_err = 0; lg_lats = [] };
    lc_pend = "";
    lc_wreg = false;
    lc_alive = true;
  }

let lg_outstanding cn =
  let c = cn.lc_counts in
  c.lg_sent - (c.lg_ok + c.lg_shed + c.lg_err)

(* One driver thread: [nconns] connections multiplexed over a poll
   set.  Write interest is registered only while a connection has
   kernel-refused bytes pending, so the steady-state poll watches
   reads alone. *)
let lg_driver ~sockaddr ~slas ~ops ~tiers ~pipeline ~t_end ~cid0 ~nconns =
  let rd = Serve.Readiness.create () in
  let conns = Hashtbl.create (2 * nconns) in
  let made = ref [] in
  (try
     for i = 0 to nconns - 1 do
       let cn = lg_conn_make ~sockaddr ~slas ~ops ~tiers ~pipeline ~cid:(cid0 + i) in
       Hashtbl.replace conns (Obj.magic cn.lc_fd : int) cn;
       Serve.Readiness.add rd cn.lc_fd ~read:true ~write:false;
       made := cn :: !made
     done
   with Unix.Unix_error ((EMFILE | ENFILE), _, _) -> ());
  let made = List.rev !made in
  let drop cn =
    if cn.lc_alive then begin
      cn.lc_alive <- false;
      Serve.Readiness.remove rd cn.lc_fd;
      Hashtbl.remove conns (Obj.magic cn.lc_fd : int);
      try Unix.close cn.lc_fd with _ -> ()
    end
  in
  let flush cn =
    if cn.lc_alive && String.length cn.lc_pend > 0 then begin
      let s = cn.lc_pend in
      let n = String.length s in
      let k = ref 0 in
      let stalled = ref false in
      (try
         while !k < n && not !stalled do
           match Unix.write_substring cn.lc_fd s !k (n - !k) with
           | w -> k := !k + w
           | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> stalled := true
           | exception Unix.Unix_error (EINTR, _, _) -> ()
         done
       with Unix.Unix_error _ -> drop cn);
      if cn.lc_alive then begin
        cn.lc_pend <- (if !k >= n then "" else String.sub s !k (n - !k));
        let want_w = String.length cn.lc_pend > 0 in
        if want_w <> cn.lc_wreg then begin
          Serve.Readiness.modify rd cn.lc_fd ~read:true ~write:want_w;
          cn.lc_wreg <- want_w
        end
      end
    end
  in
  let send_slot cn id =
    cn.lc_pend <- cn.lc_pend ^ cn.lc_frames.(id - 1);
    cn.lc_tsend.(id) <- Obs.Clock.now_ns ();
    cn.lc_counts.lg_sent <- cn.lc_counts.lg_sent + 1
  in
  let absorb cn ~resend payload =
    let id, status = lg_scan payload in
    if id >= 1 && id <= pipeline then begin
      let c = cn.lc_counts in
      (match status with
      | 'o' ->
          c.lg_ok <- c.lg_ok + 1;
          c.lg_lats <- ((Obs.Clock.now_ns () -. cn.lc_tsend.(id)) *. 1e-3) :: c.lg_lats
      | 's' -> c.lg_shed <- c.lg_shed + 1
      | _ -> c.lg_err <- c.lg_err + 1);
      if resend then send_slot cn id
    end
  in
  let rbuf = Bytes.create 65536 in
  let read_conn cn ~resend =
    let continue = ref true in
    while !continue && cn.lc_alive do
      match Unix.read cn.lc_fd rbuf 0 (Bytes.length rbuf) with
      | 0 -> drop cn
      | n -> (
          match SP.feed cn.lc_defr rbuf n with
          | Ok fs ->
              List.iter (absorb cn ~resend) fs;
              flush cn
          | Error _ -> drop cn)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> drop cn
    done
  in
  List.iter
    (fun cn ->
      for id = 1 to pipeline do
        send_slot cn id
      done;
      flush cn)
    made;
  let step ~resend =
    match Serve.Readiness.wait rd ~timeout_ms:100 with
    | [] -> ()
    | evs ->
        List.iter
          (fun (e : Serve.Readiness.event) ->
            match Hashtbl.find_opt conns (Obj.magic e.Serve.Readiness.fd : int) with
            | None -> ()
            | Some cn ->
                if e.Serve.Readiness.error then drop cn
                else begin
                  if e.Serve.Readiness.writable then flush cn;
                  if cn.lc_alive && (e.Serve.Readiness.readable || e.Serve.Readiness.hangup) then
                    read_conn cn ~resend
                end)
          evs
  in
  while Unix.gettimeofday () < t_end do
    step ~resend:true
  done;
  (* drain: stop re-offering load, collect what is still in flight *)
  let t_drain = t_end +. 5.0 in
  let rec outstanding = function
    | [] -> false
    | cn :: rest -> (cn.lc_alive && lg_outstanding cn > 0) || outstanding rest
  in
  while outstanding made && Unix.gettimeofday () < t_drain do
    step ~resend:false
  done;
  List.iter drop made;
  List.map (fun cn -> cn.lc_counts) made

let lg_percentiles lats =
  let a = Array.of_list lats in
  Array.sort compare a;
  let n = Array.length a in
  let module J = Obs.Json_out in
  let pct p =
    if n = 0 then J.Null
    else J.Num a.(min (n - 1) (int_of_float ((p *. Float.of_int (n - 1)) +. 0.5)))
  in
  J.Obj
    [ ("p50", pct 0.50); ("p90", pct 0.90); ("p95", pct 0.95); ("p99", pct 0.99);
      ("max", if n = 0 then J.Null else J.Num a.(n - 1)) ]

(* Drive one cell: [conns] closed-loop connections against [sockaddr]
   for [duration] seconds, multiplexed over up to 16 driver threads. *)
let lg_drive ~sockaddr ~slas ~ops ~tiers ~conns ~pipeline ~duration =
  let t0 = Unix.gettimeofday () in
  let t_end = t0 +. duration in
  let nthreads = max 1 (min 16 ((conns + 255) / 256)) in
  let base = conns / nthreads and extra = conns mod nthreads in
  let chunks =
    List.init nthreads (fun i ->
        let n = base + if i < extra then 1 else 0 in
        let cid0 = (i * base) + min i extra in
        (cid0, n))
  in
  let results = Array.make nthreads [] in
  let threads =
    List.mapi
      (fun i (cid0, n) ->
        Thread.create
          (fun () ->
            results.(i) <-
              lg_driver ~sockaddr ~slas ~ops ~tiers ~pipeline ~t_end ~cid0 ~nconns:n)
          ())
      chunks
  in
  List.iter Thread.join threads;
  let per_conn = List.concat (Array.to_list results) in
  let wall = Unix.gettimeofday () -. t0 in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 per_conn in
  let lats = List.concat_map (fun c -> c.lg_lats) per_conn in
  (total (fun c -> c.lg_sent), total (fun c -> c.lg_ok), total (fun c -> c.lg_shed),
   total (fun c -> c.lg_err), lats, wall)

let rows_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ea eb ->
         Array.length ea = Array.length eb
         && Array.for_all2
              (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
              ea eb)
       a b

(* The bitwise canary: a hard gate, not a statistic.  Every response
   the service hands back — from any shard, cached or not — must be
   bit-for-bit what the single-process scalar path computes.  Each
   request goes twice so a cache-enabled server answers the repeat
   from the LRU; a mismatch anywhere fails the whole loadgen run. *)
let lg_canary ~sockaddr ~slas ~ops ~tiers ~pipeline =
  let cl = Serve.Client.connect_sockaddr ~deadline_ms:30_000 sockaddr in
  let checked = ref 0 in
  let mismatches = ref 0 in
  for i = 0 to (2 * pipeline) - 1 do
    (* i and i + pipeline build the same request: the second pass hits
       the cache when one is configured *)
    let req = lg_request ~slas ~ops ~tiers (i mod pipeline * 131) in
    let req = { req with SP.id = i + 1 } in
    incr checked;
    match (Serve.Client.call cl req, req.SP.sla) with
    | SP.Result { result; chosen = None; bound = None; _ }, None -> (
        match Serve.Batcher.eval_one req with
        | Ok expect when rows_bits_equal result expect -> ()
        | _ -> incr mismatches)
    | SP.Result { result; chosen = Some chosen; bound = Some bound; _ }, Some _ -> (
        (* an SLA reply must be the scalar ladder's outcome: result,
           chosen rung and certified bound, bit for bit; settled at a
           MultiFloat rung it must also be what a direct fixed-tier
           request at that tier computes (the bigfloat fallback has no
           fixed-tier twin) *)
        match Serve.Batcher.eval_adaptive req with
        | Ok o
          when rows_bits_equal result o.Adaptive.Escalate.result
               && chosen = o.Adaptive.Escalate.chosen
               && Int64.equal (Int64.bits_of_float bound)
                    (Int64.bits_of_float o.Adaptive.Escalate.bound) -> (
            match Adaptive.Sla.terms_of_rung chosen with
            | Some terms -> (
                match Serve.Batcher.eval_one (Serve.Batcher.pad_request ~terms req) with
                | Ok twin when rows_bits_equal result twin -> ()
                | _ -> incr mismatches)
            | None -> ())
        | _ -> incr mismatches)
    | _ -> incr mismatches
  done;
  Serve.Client.close cl;
  (!checked, !mismatches)

let loadgen_run connect queue duration conns_csv pipeline ops_csv tiers_csv
    slas_csv configs_csv shards_csv cache out =
  let module J = Obs.Json_out in
  drain_on_signal ();
  let split s = String.split_on_char ',' s |> List.filter (fun p -> String.trim p <> "") in
  let slas =
    List.map
      (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some q when q >= 1 && q <= 200 -> q
        | _ ->
            Printf.eprintf "loadgen: bad sla exponent %s (want 1..200)\n" s;
            exit 2)
      (split slas_csv)
  in
  let ops =
    List.map
      (fun name ->
        match SP.op_of_name (String.trim name) with
        | Some SP.Stats | None ->
            Printf.eprintf "loadgen: unknown op %s\n" name;
            exit 2
        | Some op ->
            if
              slas <> []
              && op <> SP.Program
              && not (List.mem (SP.op_name op) Adaptive.Sla.supported_wire_ops)
            then begin
              Printf.eprintf
                "loadgen: op %s cannot carry an sla (certifiable ops: %s)\n" name
                (String.concat ", " Adaptive.Sla.supported_wire_ops);
              exit 2
            end;
            op)
      (split ops_csv)
  in
  let tiers =
    List.map
      (fun name ->
        match SP.tier_of_name (String.trim name) with
        | Some t -> t
        | None ->
            Printf.eprintf "loadgen: unknown tier %s (mf2, mf3, mf4)\n" name;
            exit 2)
      (split tiers_csv)
  in
  let conns_list =
    List.filter_map (fun s -> int_of_string_opt (String.trim s)) (split conns_csv)
  in
  let conns_list = if conns_list = [] then [ 8 ] else conns_list in
  let shard_counts =
    List.filter_map (fun s -> int_of_string_opt (String.trim s)) (split shards_csv)
  in
  let shard_counts = if shard_counts = [] then [ 0 ] else shard_counts in
  let configs =
    List.map
      (fun spec ->
        match String.split_on_char ':' (String.trim spec) with
        | [ b; w ] -> (
            match (int_of_string_opt b, float_of_string_opt w) with
            | Some b, Some w when b >= 1 && w >= 0. -> (b, w)
            | _ ->
                Printf.eprintf "loadgen: bad config %s (want MAXBATCH:WINDOW_US)\n" spec;
                exit 2)
        | _ ->
            Printf.eprintf "loadgen: bad config %s (want MAXBATCH:WINDOW_US)\n" spec;
            exit 2)
      (split configs_csv)
  in
  let mode = match connect with None -> "inproc" | Some _ -> "connect" in
  Printf.printf "loadgen: mode %s, %d cell(s), %.2fs each\n%!" mode
    (List.length configs * List.length shard_counts * List.length conns_list)
    duration;
  (* Every sharded fleet forks up front: Unix.fork is illegal once any
     single-process cell has spawned a scheduler domain in this
     process, so the forking all happens while we are still clean. *)
  let fleets =
    if connect <> None then []
    else
      List.concat_map
        (fun (b, w) ->
          List.filter_map
            (fun s ->
              if s < 1 then None
              else begin
                let sock =
                  Printf.sprintf "./fpan_loadgen_%d_b%d_w%g_s%d.sock" (Unix.getpid ())
                    b w s
                in
                let t =
                  Serve.Shard.start ~addr:(Serve.Server.Unix_path sock) ~shards:s
                    ~queue_capacity:queue ~max_batch:b ~window_us:w ~cache_capacity:cache ()
                in
                Some ((b, w, s), t)
              end)
            shard_counts)
        configs
  in
  let canary_checked = ref 0 in
  let canary_bad = ref 0 in
  let canary sockaddr =
    let checked, bad = lg_canary ~sockaddr ~slas ~ops ~tiers ~pipeline in
    canary_checked := !canary_checked + checked;
    canary_bad := !canary_bad + bad
  in
  (* one cell = (max_batch, window) x shard count x connection count *)
  let run_cell (max_batch, window_us) nshards conns =
    let label = Printf.sprintf "b%d-w%g-s%d-c%d" max_batch window_us nshards conns in
    let drive sockaddr =
      lg_drive ~sockaddr ~slas ~ops ~tiers ~conns ~pipeline ~duration
    in
    let (sent, ok, shed, errors, lats, wall), stats =
      match connect with
      | Some endpoint ->
          let sockaddr = Serve.Server.sockaddr_of_addr (parse_endpoint endpoint) in
          let probe = Serve.Client.connect_sockaddr ~deadline_ms:30_000 sockaddr in
          let res = drive sockaddr in
          canary sockaddr;
          let stats = Serve.Client.stats probe in
          Serve.Client.close probe;
          (res, stats)
      | None when nshards >= 1 ->
          let t = List.assoc (max_batch, window_us, nshards) fleets in
          let sockaddr = Serve.Shard.bound_addr t in
          let res = drive sockaddr in
          canary sockaddr;
          (* the stats probe reaches one shard — representative, not
             fleet-aggregated *)
          let probe = Serve.Client.connect_sockaddr ~deadline_ms:30_000 sockaddr in
          let stats = Serve.Client.stats probe in
          Serve.Client.close probe;
          (res, stats)
      | None ->
          Runtime.Sched.with_sched ~workers:1 (fun sched ->
              let sock = Printf.sprintf "./fpan_loadgen_%d.sock" (Unix.getpid ()) in
              let srv =
                Serve.Server.start ~sched ~addr:(Serve.Server.Unix_path sock)
                  ~queue_capacity:queue ~max_batch ~window_us ~cache_capacity:cache ()
              in
              let res = drive (Serve.Server.bound_addr srv) in
              canary (Serve.Server.bound_addr srv);
              let stats = Serve.Server.stats_doc srv in
              Serve.Server.stop srv;
              (res, stats))
    in
    let throughput = if wall > 0. then Float.of_int ok /. wall else 0. in
    let shed_rate = if sent > 0 then Float.of_int shed /. Float.of_int sent else 0. in
    Printf.printf
      "  %-18s sent %7d  ok %7d  shed %6d  err %3d  %8.0f req/s  shed %5.1f%%\n%!"
      label sent ok shed errors throughput (100. *. shed_rate);
    let member key =
      match J.member key stats with Some v -> v | None -> J.List []
    in
    ( label, max_batch, nshards, conns, throughput,
      J.Obj
        [ ("label", J.Str label);
          ("max_batch", J.Num (Float.of_int max_batch));
          ("window_us", J.Num window_us);
          ("shards", J.Num (Float.of_int nshards));
          ("conns", J.Num (Float.of_int conns));
          ("pipeline", J.Num (Float.of_int pipeline));
          ("sent", J.Num (Float.of_int sent));
          ("ok", J.Num (Float.of_int ok));
          ("shed", J.Num (Float.of_int shed));
          ("errors", J.Num (Float.of_int errors));
          ("wall_s", J.Num wall);
          ("throughput_rps", J.Num throughput);
          ("shed_rate", J.Num shed_rate);
          ("latency_us", lg_percentiles lats);
          ("batch_histogram", member "batch_histogram");
          ("sched", member "sched") ] )
  in
  let cells =
    List.concat_map
      (fun cfg ->
        List.concat_map
          (fun s -> List.map (fun c -> run_cell cfg s c) conns_list)
          shard_counts)
      configs
  in
  List.iter (fun (_, t) -> Serve.Shard.stop t) fleets;
  (* batching vs batch-size-1, at the highest offered load in the
     first swept topology *)
  let top = List.fold_left max 1 conns_list in
  let s0 = List.hd shard_counts in
  let tput_of pred =
    List.filter_map
      (fun (_, b, s, c, tput, _) ->
        if c = top && s = s0 && pred b then Some tput else None)
      cells
  in
  let speedup =
    match (tput_of (fun b -> b = 1), tput_of (fun b -> b > 1)) with
    | base :: _, batched when batched <> [] && base > 0. ->
        Some (List.fold_left max 0. batched /. base)
    | _ -> None
  in
  (match speedup with
  | Some s -> Printf.printf "  micro-batching speedup at %d conns: %.2fx\n" top s
  | None -> ());
  (* the connection- and shard-scaling curve: one point per cell *)
  let scaling =
    List.map
      (fun (label, _, s, c, tput, _) ->
        J.Obj
          [ ("label", J.Str label);
            ("shards", J.Num (Float.of_int s));
            ("conns", J.Num (Float.of_int c));
            ("throughput_rps", J.Num tput) ])
      cells
  in
  if !canary_bad > 0 then begin
    Printf.eprintf
      "loadgen: BITWISE CANARY FAILED: %d of %d responses differ from the \
       single-process scalar path\n"
      !canary_bad !canary_checked;
    exit 3
  end;
  Printf.printf "  bitwise canary: %d/%d responses exact\n" !canary_checked
    !canary_checked;
  let json =
    J.Obj
      [ ("schema", J.Str "fpan-serve/3");
        ("mode", J.Str mode);
        (* every server scheduler has one worker: serving runs no task on it *)
        ("workers", J.Num 1.);
        ("queue_capacity", J.Num (Float.of_int queue));
        ("cache_capacity", J.Num (Float.of_int cache));
        ("duration_s", J.Num duration);
        ("ops", J.List (List.map (fun o -> J.Str (SP.op_name o)) ops));
        ("tiers", J.List (List.map (fun t -> J.Str (SP.tier_name t)) tiers));
        ("slas", J.List (List.map (fun q -> J.Num (Float.of_int q)) slas));
        ("cells", J.List (List.map (fun (_, _, _, _, _, doc) -> doc) cells));
        ("scaling", J.List scaling);
        ( "canary",
          J.Obj
            [ ("checked", J.Num (Float.of_int !canary_checked));
              ("mismatches", J.Num (Float.of_int !canary_bad)) ] );
        ("batching_speedup",
         match speedup with Some s -> J.Num s | None -> J.Null) ]
  in
  Obs.Schema.check ~name:out Obs.Schemas.bench_serve json;
  J.write_file out json;
  Printf.printf "  written to %s\n" out

let loadgen_cmd =
  let doc =
    "Generate load against the evaluation service and write BENCH_serve.json: sweeps \
     micro-batch configuration x offered load with closed-loop pipelined clients, reports \
     throughput, latency percentiles, shed rates, and the server's batch-size histogram, and \
     computes the micro-batching speedup over batch-size-1 serving.  By default each cell \
     spins up its own in-process server; --connect drives an external one."
  in
  let connect_arg =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Drive an already-running server (unix path or HOST:PORT) instead of \
                   in-process ones.")
  in
  let queue_arg =
    Arg.(value & opt int 256
         & info [ "queue" ] ~docv:"N" ~doc:"Admission queue capacity for in-process servers.")
  in
  let duration_arg =
    Arg.(value & opt float 1.5 & info [ "duration" ] ~docv:"S" ~doc:"Seconds per cell.")
  in
  let conns_arg =
    Arg.(value & opt string "4,8"
         & info [ "conns"; "clients" ] ~docv:"N,N,..."
             ~doc:
               "Concurrent connection counts to sweep (thousands are fine: connections \
                are multiplexed over poll-based driver threads); the batching-speedup \
                headline is computed at the highest count.")
  in
  let pipeline_arg =
    Arg.(value & opt int 32
         & info [ "pipeline" ] ~docv:"N" ~doc:"In-flight requests per client.")
  in
  let ops_arg =
    Arg.(value & opt string "add,mul,div,sqrt"
         & info [ "ops" ] ~docv:"OPS" ~doc:"Comma-separated operation mix.")
  in
  let tiers_arg =
    Arg.(value & opt string "mf2,mf4"
         & info [ "tiers" ] ~docv:"TIERS" ~doc:"Comma-separated tier mix (mf2,mf3,mf4).")
  in
  let slas_arg =
    Arg.(value & opt string ""
         & info [ "sla" ] ~docv:"Q,Q,..."
             ~doc:
               "Accuracy-SLA sweep: requests carry an error budget of 2^-Q \
                (round-robin over the list) instead of a fixed tier, and the server \
                escalates mf2 -> mf3 -> mf4 -> bigfloat until the certified bound \
                meets each budget.  Only the certifiable ops qualify.  Empty (the \
                default) keeps fixed-tier requests.")
  in
  let configs_arg =
    Arg.(value & opt string "1:0,8:200,32:1000,128:3000"
         & info [ "configs" ] ~docv:"B:W,..."
             ~doc:"Micro-batch configurations to sweep, MAXBATCH:WINDOW_US each \
                   (1:0 is the batch-size-1 baseline).")
  in
  let shards_arg =
    Arg.(value & opt string "0"
         & info [ "shards" ] ~docv:"N,N,..."
             ~doc:
               "Shard counts to sweep for in-process servers (0 = single-process; \
                each count >= 1 forks that many server processes behind a \
                distributor).  The scaling curve in the output has one point per \
                (shards, conns) cell.")
  in
  let cache_arg =
    Arg.(value & opt int 0
         & info [ "cache" ] ~docv:"N"
             ~doc:"Memoizing LRU capacity for in-process servers (0 = off).")
  in
  let out_arg =
    Arg.(value & opt string "BENCH_serve.json"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"JSON output path.")
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(const loadgen_run $ connect_arg $ queue_arg $ duration_arg
          $ conns_arg $ pipeline_arg $ ops_arg $ tiers_arg $ slas_arg $ configs_arg
          $ shards_arg $ cache_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* chaos: the fault-injection campaign runner (lib/chaos).  Runs each
   named scenario against a real forked shard fleet, drives a
   deterministic request sequence through a retrying client while
   injecting the scenario's wire faults, and asserts three invariants:
   no server death, every request answered bitwise-identical to the
   fault-free scalar path, no descriptor leak.  Everything written to
   CHAOS_report.json is a pure function of (seed, shards, requests) —
   re-running with the same arguments reproduces the file byte for
   byte. *)

let chaos_fd_count () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Array.length entries
  | exception _ -> -1 (* no procfs: leak check degrades to a no-op *)

(* Deterministic request for campaign index n: cycles every scalar op
   and tier, with every fifth request carrying an accuracy SLA, so
   each fault class crosses each request class. *)
let chaos_request n =
  let req =
    if n mod 5 = 4 then
      lg_request ~slas:[ 40; 80; 120 ] ~ops:[ SP.Add; SP.Mul; SP.Div ]
        ~tiers:[ SP.Mf2 ] (n * 131)
    else
      lg_request
        ~ops:[ SP.Add; SP.Mul; SP.Div; SP.Sqrt; SP.Exp; SP.Log; SP.Sin ]
        ~tiers:[ SP.Mf2; SP.Mf3; SP.Mf4 ] (n * 131)
  in
  { req with SP.id = n + 1 }

let chaos_raw_conn sockaddr =
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sockaddr) SOCK_STREAM 0
  in
  (try Unix.connect fd sockaddr
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

let chaos_write_all fd s =
  let n = String.length s in
  let k = ref 0 in
  while !k < n do
    k := !k + Unix.write_substring fd s !k (n - !k)
  done

(* Execute one wire action as noise on a throwaway connection; the
   real request always travels the retrying client afterwards, so the
   accounting stays exact whatever the server does with the wreck. *)
let chaos_noise ~sockaddr action req =
  let frame =
    SP.frame_of_string (Obs.Json_out.to_string_compact (SP.request_to_json req))
  in
  let finish fd =
    ignore (Serve.Readiness.wait_readable fd ~timeout_ms:2000);
    try Unix.close fd with _ -> ()
  in
  match action with
  | Chaos.Plan.Clean | Chaos.Plan.Kill_shard -> ()
  | Chaos.Plan.Corrupt_header ->
      let fd = chaos_raw_conn sockaddr in
      (* a length prefix far past max_frame followed by junk: the
         deframer must refuse it and the server must drop the conn *)
      (try chaos_write_all fd "\xff\xff\xff\xf0garbage-not-a-frame" with _ -> ());
      finish fd
  | Chaos.Plan.Truncate_close ->
      let fd = chaos_raw_conn sockaddr in
      let cut = max 5 (String.length frame / 2) in
      (try chaos_write_all fd (String.sub frame 0 cut) with _ -> ());
      (try Unix.close fd with _ -> ())
  | Chaos.Plan.Abort_close ->
      let fd = chaos_raw_conn sockaddr in
      (try chaos_write_all fd frame with _ -> ());
      (* close before reading: the reply hits a dead peer *)
      (try Unix.close fd with _ -> ())
  | Chaos.Plan.Stall_mid_us us ->
      let fd = chaos_raw_conn sockaddr in
      (try
         chaos_write_all fd (String.sub frame 0 6);
         Unix.sleepf (Float.of_int us *. 1e-6);
         chaos_write_all fd
           (String.sub frame 6 (String.length frame - 6))
       with _ -> ());
      finish fd

let chaos_wait_full fleet shards =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    if List.length (Serve.Shard.pids fleet) >= shards then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

type chaos_outcome = {
  co_requests : int;
  co_answered : int;
  co_checked : int;
  co_mismatches : int;
  co_shed : int;
  co_restarts : int;
  co_deaths : int;
  co_shed_buckets : int array;
}

let chaos_fleet_scenario ~seed ~shards ~requests (s : Chaos.Plan.scenario) =
  let sock = Printf.sprintf "./fpan_chaos_%d.sock" (Unix.getpid ()) in
  (* children inherit the armed seam plan through fork; the parent
     swaps to its own (accept/dispatch) plan once the fleet is up *)
  Chaos.Injector.arm ~seed s.Chaos.Plan.seam_rules;
  let fleet =
    Serve.Shard.start ~addr:(Serve.Server.Unix_path sock) ~shards ~queue_capacity:64
      ~max_batch:8 ~window_us:100. ~cache_capacity:32 ()
  in
  Chaos.Injector.disarm ();
  if s.Chaos.Plan.parent_rules <> [] then
    Chaos.Injector.arm ~seed s.Chaos.Plan.parent_rules;
  let sockaddr = Serve.Shard.bound_addr fleet in
  let acts = Chaos.Plan.actions ~seed s ~n:requests in
  let answered = ref 0 in
  let checked = ref 0 in
  let mismatches = ref 0 in
  let kills = ref 0 in
  let cl = Serve.Client.connect_sockaddr ~deadline_ms:5000 sockaddr in
  for n = 0 to requests - 1 do
    let req = chaos_request n in
    match Serve.Batcher.eval_one req with
    | Error e -> failwith ("chaos: fault-free reference failed: " ^ e)
    | Ok expect -> (
        (match acts.(n) with
        | Chaos.Plan.Kill_shard -> (
            match Serve.Shard.pids fleet with
            | pid :: _ ->
                (try Unix.kill pid Sys.sigkill with _ -> ());
                incr kills;
                ignore (chaos_wait_full fleet shards)
            | [] -> ())
        | a -> ( try chaos_noise ~sockaddr a req with _ -> ()));
        match Serve.Client.call_retry ~seed ~max_attempts:12 cl req with
        | SP.Result { result; _ } ->
            incr answered;
            if rows_bits_equal result expect then incr checked
            else incr mismatches
        | SP.Shed _ | SP.Failed _ | SP.Stats_reply _ -> incr mismatches
        | exception _ -> incr mismatches)
  done;
  (* the no-server-death invariant: the fleet must end the scenario at
     full strength (every kill re-forked, nothing else died) *)
  let full = chaos_wait_full fleet shards in
  let deaths = if full then 0 else shards - List.length (Serve.Shard.pids fleet) in
  Serve.Client.close cl;
  Serve.Shard.stop fleet;
  Chaos.Injector.disarm ();
  {
    co_requests = requests;
    co_answered = !answered;
    co_checked = !checked;
    co_mismatches = !mismatches;
    co_shed = 0;
    co_restarts = !kills;
    co_deaths = deaths;
    co_shed_buckets = Array.make (Array.length Serve.Batcher.shed_buckets) 0;
  }

(* The admission-overload scenario runs in-process: a bounded queue
   with no consumer, pushed one deterministic priority mix, so the
   per-bucket shed split is an exact function of the seed. *)
let chaos_admission_scenario ~seed ~requests (_s : Chaos.Plan.scenario) =
  let capacity = 8 in
  let q = Serve.Admission.create ~capacity in
  let shed_buckets = Array.make (Array.length Serve.Batcher.shed_buckets) 0 in
  let shed = ref 0 in
  for n = 0 to requests - 1 do
    let h = Chaos.Rng.hash ~seed ~salt:0x0ad ~n in
    let c = Int64.to_int (Int64.rem (Int64.logand h 0x7fffffffL) 5L) in
    let prio =
      if c = 0 then 53 * (2 + (n mod 3)) (* fixed tiers: mf2/mf3/mf4 *)
      else ((c - 1) * 50) + 1 + (n mod 50) (* sla q inside bucket c *)
    in
    match Serve.Admission.push ~priority:prio q c with
    | `Ok -> ()
    | `Full ->
        incr shed;
        shed_buckets.(c) <- shed_buckets.(c) + 1
    | `Displaced victim ->
        incr shed;
        shed_buckets.(victim) <- shed_buckets.(victim) + 1
    | `Closed -> ()
  done;
  Serve.Admission.close q;
  let rec drain k =
    match Serve.Admission.pop_batch q ~max:64 ~window_ns:0L with
    | [] -> k
    | l -> drain (k + List.length l)
  in
  let answered = drain 0 in
  Serve.Admission.destroy q;
  {
    co_requests = requests;
    co_answered = answered;
    co_checked = 0;
    co_mismatches = (if answered + !shed = requests then 0 else 1);
    co_shed = !shed;
    co_restarts = 0;
    co_deaths = 0;
    co_shed_buckets = shed_buckets;
  }

let chaos_run seed shards requests scenarios_csv out =
  let module J = Obs.Json_out in
  if shards < 1 then begin
    prerr_endline "chaos: --shards must be >= 1";
    exit 2
  end;
  let scenarios =
    match
      String.split_on_char ',' scenarios_csv
      |> List.filter (fun s -> String.trim s <> "")
    with
    | [] -> Chaos.Plan.matrix
    | names ->
        List.map
          (fun name ->
            match Chaos.Plan.find (String.trim name) with
            | Some s -> s
            | None ->
                Printf.eprintf "chaos: unknown scenario %s (have: %s)\n"
                  name
                  (String.concat ", "
                     (List.map
                        (fun (s : Chaos.Plan.scenario) -> s.Chaos.Plan.name)
                        Chaos.Plan.matrix));
                exit 2)
          names
  in
  Printf.printf "fpan_tool chaos: seed %d, %d shard(s), %d request(s) x %d scenario(s)\n%!"
    seed shards requests (List.length scenarios);
  (* warm-up: one fault-free fleet cycle, so every lazily-created
     descriptor (metrics plumbing, readiness state) exists before the
     fd-leak baseline is taken *)
  let clean =
    {
      Chaos.Plan.name = "warmup";
      summary = "fault-free warm-up";
      kind = Chaos.Plan.Fleet;
      classes = [];
      seam_rules = [];
      parent_rules = [];
      wire = [];
    }
  in
  let warm = chaos_fleet_scenario ~seed ~shards:1 ~requests:2 clean in
  if warm.co_checked <> 2 then begin
    prerr_endline "chaos: fault-free warm-up failed; not a chaos finding";
    exit 2
  end;
  let fd_baseline = chaos_fd_count () in
  let results =
    List.map
      (fun (s : Chaos.Plan.scenario) ->
        let o =
          match s.Chaos.Plan.kind with
          | Chaos.Plan.Fleet -> chaos_fleet_scenario ~seed ~shards ~requests s
          | Chaos.Plan.Admission -> chaos_admission_scenario ~seed ~requests s
        in
        let injected = Chaos.Plan.injected_count ~seed s ~n:requests in
        let passed =
          o.co_mismatches = 0 && o.co_deaths = 0
          && o.co_answered + o.co_shed = o.co_requests
        in
        Printf.printf
          "  %-14s injected %-4s answered %d/%d  shed %-3d restarts %-2d %s\n%!"
          s.Chaos.Plan.name
          (match injected with Some k -> string_of_int k | None -> "-")
          o.co_answered o.co_requests o.co_shed o.co_restarts
          (if passed then "ok" else "FAILED");
        (s, o, injected, passed))
      scenarios
  in
  let fd_after = chaos_fd_count () in
  let fd_leak =
    if fd_baseline < 0 || fd_after < 0 then 0 else max 0 (fd_after - fd_baseline)
  in
  let deaths = List.fold_left (fun a (_, o, _, _) -> a + o.co_deaths) 0 results in
  let mismatches =
    List.fold_left (fun a (_, o, _, _) -> a + o.co_mismatches) 0 results
  in
  let passed =
    deaths = 0 && mismatches = 0 && fd_leak = 0
    && List.for_all (fun (_, _, _, p) -> p) results
  in
  let num k = J.Num (Float.of_int k) in
  let scenario_doc ((s : Chaos.Plan.scenario), o, injected, sp) =
    J.Obj
      [ ("name", J.Str s.Chaos.Plan.name);
        ("classes", J.List (List.map (fun c -> J.Str c) s.Chaos.Plan.classes));
        ("injected", match injected with Some k -> num k | None -> J.Null);
        ("requests", num o.co_requests);
        ("answered", num o.co_answered);
        ("checked_bitwise", num o.co_checked);
        ("shed", num o.co_shed);
        ("restarts", num o.co_restarts);
        ( "shed_by_bucket",
          J.List
            (List.init (Array.length Serve.Batcher.shed_buckets) (fun i ->
                 J.Obj
                   [ ("bucket", J.Str Serve.Batcher.shed_buckets.(i));
                     ("count", num o.co_shed_buckets.(i)) ])) );
        ("passed", J.Bool sp) ]
  in
  let json =
    J.Obj
      [ ("schema", J.Str "fpan-chaos/1");
        ("seed", num seed);
        ("shards", num shards);
        ("requests_per_scenario", num requests);
        ("scenarios", J.List (List.map scenario_doc results));
        ( "invariants",
          J.Obj
            [ ("server_deaths", num deaths);
              ("bitwise_mismatches", num mismatches);
              ("fd_leak", num fd_leak) ] );
        ("passed", J.Bool passed) ]
  in
  Obs.Schema.check ~name:out Obs.Schemas.chaos_report json;
  J.write_file out json;
  Printf.printf "  invariants: deaths %d, mismatches %d, fd leak %d -> %s\n"
    deaths mismatches fd_leak
    (if passed then "PASS" else "FAIL");
  Printf.printf "  written to %s\n%!" out;
  if not passed then exit 1

let chaos_cmd =
  let doc =
    "Run the seeded fault-injection campaign against a real forked shard fleet and write \
     CHAOS_report.json (fpan-chaos/1): each named scenario injects one fault family \
     (syscall noise at the read/write/wait seams, accept EMFILE, dispatch drops, wire \
     corruption/truncation/resets, latency stalls, shard SIGKILL storms, admission \
     overload) while a retrying client drives a deterministic request mix, asserting that \
     no server dies, every answer is bitwise-identical to the fault-free scalar path, and \
     no descriptor leaks.  The report is byte-reproducible for a fixed seed."
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")
  in
  let shards_arg =
    Arg.(value & opt int 2
         & info [ "shards" ] ~docv:"N" ~doc:"Shard processes per fleet scenario.")
  in
  let requests_arg =
    Arg.(value & opt int 48
         & info [ "requests" ] ~docv:"N" ~doc:"Requests driven per scenario.")
  in
  let scenarios_arg =
    Arg.(value & opt string ""
         & info [ "scenarios" ] ~docv:"NAME,..."
             ~doc:"Scenario subset to run (default: the full matrix).")
  in
  let out_arg =
    Arg.(value & opt string "CHAOS_report.json"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"JSON output path.")
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const chaos_run $ seed_arg $ shards_arg $ requests_arg $ scenarios_arg
          $ out_arg)

(* ------------------------------------------------------------------ *)
(* adaptive: compute-path benchmark + fuzz gate of SLA-driven tier
   escalation.  Times the escalation engine (lib/adaptive) on a
   mixed-SLA workload against always-mf4 evaluation of the same
   requests, records the escalation histogram, runs the Sla_fuzz
   obligations (containment / monotonicity / bitwise identity), and
   merges the "adaptive" block into the BENCH_serve.json that loadgen
   writes. *)

module AD = Adaptive

let ad_op_of_name name =
  match AD.Sla.of_wire ~op:(String.trim name) ~prog:[] with
  | Some op -> op
  | None -> (
      (* allow the program chains by their spelling *)
      match AD.Sla.of_wire ~op:"program" ~prog:(String.split_on_char ';' (String.trim name)) with
      | Some op -> op
      | None ->
          Printf.eprintf "adaptive: op %s is not sla-certifiable (certifiable: %s)\n" name
            (String.concat ", " AD.Sla.supported_wire_ops);
          exit 2)

(* Deterministic mixed-SLA workload: ops x budgets round-robin,
   2-component operands so every ladder starts at mf2 and the budget
   alone decides how far each request climbs. *)
let ad_workload ~cases ~n ~ops ~slas ~seed =
  let rng = Random.State.make [| 0xada; seed |] in
  Array.init cases (fun i ->
      let op = List.nth ops (i mod List.length ops) in
      let q = List.nth slas (i / List.length ops mod List.length slas) in
      let element ?(pos = false) () =
        let v = Fpan.Gen.expansion rng ~n:2 ~e0_min:(-8) ~e0_max:8 () in
        if pos && v.(0) < 0.0 then Array.map Float.neg v else v
      in
      let vec len = Array.init len (fun _ -> element ()) in
      let x, y, z =
        match op with
        | AD.Sla.Add | AD.Sla.Mul | AD.Sla.Div -> ([| element () |], [| element () |], [||])
        | AD.Sla.Sqrt -> ([| element ~pos:true () |], [||], [||])
        | AD.Sla.Sum -> (vec n, [||], [||])
        | AD.Sla.Dot -> (vec n, vec n, [||])
        | AD.Sla.Axpy -> (vec n, vec (n + 1), [||])
        | AD.Sla.Axpy_dot -> (vec n, vec (n + 1), vec n)
      in
      (op, q, { AD.Sla.x; y; z }))

let ad_best_of reps f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to Stdlib.max 1 reps do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let adaptive_run cases n ops_csv slas_csv reps fuzz_cases seed out =
  let module J = Obs.Json_out in
  let split s = String.split_on_char ',' s |> List.filter (fun p -> String.trim p <> "") in
  let ops = List.map ad_op_of_name (split ops_csv) in
  let slas =
    List.map
      (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some q when q >= AD.Sla.q_min && q <= AD.Sla.q_max -> q
        | _ ->
            Printf.eprintf "adaptive: bad sla exponent %s (want %d..%d)\n" s AD.Sla.q_min
              AD.Sla.q_max;
            exit 2)
      (split slas_csv)
  in
  if ops = [] || slas = [] then begin
    Printf.eprintf "adaptive: need at least one op and one sla exponent\n";
    exit 2
  end;
  let work = ad_workload ~cases ~n ~ops ~slas ~seed in
  (* one recorded pass: escalation histogram + per-(op,q) mix *)
  let histo = Hashtbl.create 4 in
  let mix = Hashtbl.create 16 in
  let escalations = ref 0 in
  Array.iter
    (fun (op, q, inp) ->
      match AD.Escalate.run ~q ~op inp with
      | Error e ->
          Printf.eprintf "adaptive: escalation failed on a generated case: %s\n" e;
          exit 3
      | Ok o ->
          escalations := !escalations + o.AD.Escalate.escalations;
          let bump tbl key =
            match Hashtbl.find_opt tbl key with
            | Some r -> incr r
            | None -> Hashtbl.add tbl key (ref 1)
          in
          bump histo o.AD.Escalate.chosen;
          bump mix (AD.Sla.op_name op, q))
    work;
  (* timed passes: the SLA-driven path vs always-mf4 over the same
     workload.  Both sides widen the narrow client operands themselves
     (Sla.pad, exact), exactly as the respective service paths do: the
     comparison is "serve these requests adaptively" vs "serve these
     requests at the top tier". *)
  let sla_wall =
    ad_best_of reps (fun () ->
        Array.iter
          (fun (op, q, inp) -> ignore (AD.Escalate.run ~q ~op inp))
          work)
  in
  let mf4_wall =
    ad_best_of reps (fun () ->
        Array.iter
          (fun (op, _, inp) -> ignore (AD.Eval.eval ~terms:4 op (AD.Sla.pad ~terms:4 inp)))
          work)
  in
  let sla_rps = if sla_wall > 0. then Float.of_int cases /. sla_wall else 0. in
  let mf4_rps = if mf4_wall > 0. then Float.of_int cases /. mf4_wall else 0. in
  let speedup = if sla_wall > 0. then mf4_wall /. sla_wall else 0. in
  Printf.printf "adaptive: %d cases, %d escalations\n" cases !escalations;
  List.iter
    (fun t ->
      match Hashtbl.find_opt histo t with
      | Some r -> Printf.printf "  chosen %-9s %6d\n" t !r
      | None -> ())
    AD.Sla.rungs;
  Printf.printf "  sla-driven %8.0f req/s   always-mf4 %8.0f req/s   speedup %.2fx\n" sla_rps
    mf4_rps speedup;
  (* the fuzz gate: containment, monotonicity, bitwise identity *)
  let fz = Check.Sla_fuzz.run ~cases:fuzz_cases ~seed () in
  Printf.printf
    "  fuzz: %d cases, %d containment violations, %d monotonicity violations, %d bitwise \
     mismatches\n"
    fz.Check.Sla_fuzz.cases fz.Check.Sla_fuzz.containment_violations
    fz.Check.Sla_fuzz.monotonicity_violations fz.Check.Sla_fuzz.bitwise_mismatches;
  if not (Check.Sla_fuzz.passed fz) then begin
    Printf.eprintf "adaptive: FUZZ GATE FAILED (seed %d replays it)\n" seed;
    exit 3
  end;
  let block =
    J.Obj
      [ ("cases", J.Num (Float.of_int cases));
        ("n", J.Num (Float.of_int n));
        ( "mix",
          J.List
            (Hashtbl.fold
               (fun (op, q) r acc -> ((op, q), !r) :: acc)
               mix []
             |> List.sort compare
             |> List.map (fun ((op, q), count) ->
                    J.Obj
                      [ ("op", J.Str op);
                        ("q", J.Num (Float.of_int q));
                        ("count", J.Num (Float.of_int count)) ])) );
        ( "escalation_histogram",
          J.List
            (List.filter_map
               (fun t ->
                 Option.map
                   (fun r ->
                     J.Obj
                       [ ("chosen", J.Str t); ("count", J.Num (Float.of_int !r)) ])
                   (Hashtbl.find_opt histo t))
               AD.Sla.rungs) );
        ("escalations", J.Num (Float.of_int !escalations));
        ("sla_throughput_rps", J.Num sla_rps);
        ("mf4_throughput_rps", J.Num mf4_rps);
        ("speedup_vs_mf4", J.Num speedup);
        ( "fuzz",
          J.Obj
            [ ("cases", J.Num (Float.of_int fz.Check.Sla_fuzz.cases));
              ( "containment_violations",
                J.Num (Float.of_int fz.Check.Sla_fuzz.containment_violations) );
              ( "monotonicity_violations",
                J.Num (Float.of_int fz.Check.Sla_fuzz.monotonicity_violations) );
              ( "bitwise_mismatches",
                J.Num (Float.of_int fz.Check.Sla_fuzz.bitwise_mismatches) ) ] ) ]
  in
  (* merge into the loadgen artifact, keeping every other field; with
     no artifact there is nothing to merge into *)
  if not (Sys.file_exists out) then
    Printf.eprintf "adaptive: %s not found -- results not merged (run `fpan_tool loadgen` first)\n"
      out
  else
    let doc =
      match J.parse_file out with
      | Ok (J.Obj fields) ->
          J.Obj (List.filter (fun (k, _) -> k <> "adaptive") fields @ [ ("adaptive", block) ])
      | Ok _ | Error _ ->
          Printf.eprintf "adaptive: %s unreadable -- expected a `fpan_tool loadgen` artifact\n" out;
          exit 2
    in
    Obs.Schema.check ~name:out Obs.Schemas.bench_serve doc;
    J.write_file out doc;
    Printf.printf "  merged adaptive block into %s\n" out

let adaptive_cmd =
  let doc =
    "Benchmark and fuzz SLA-driven adaptive-precision evaluation: times the escalation \
     engine (cheapest certified tier first, mf2 -> mf3 -> mf4 -> bigfloat) on a mixed-SLA \
     workload against always-mf4 evaluation of the same requests, records the escalation \
     histogram, runs the certification fuzz gate (certified bounds must contain the true \
     error, escalation must be monotone in the budget, results must match the fixed-tier \
     path bitwise), and merges the results into the BENCH_serve.json written by loadgen."
  in
  let cases_arg =
    Arg.(value & opt int 4096 & info [ "cases" ] ~docv:"N" ~doc:"Workload size per timed pass.")
  in
  let n_arg =
    Arg.(value & opt int 32
         & info [ "n" ] ~docv:"LEN" ~doc:"Vector length for the reduction ops (sum, dot, axpy, axpy;dot).")
  in
  let ops_arg =
    Arg.(value & opt string "add,mul,dot,sum"
         & info [ "ops" ] ~docv:"OPS"
             ~doc:"Comma-separated certifiable op mix (program chains by their \
                   spelling, e.g. axpy;dot).")
  in
  let slas_arg =
    Arg.(value & opt string "20,60,100,140,180"
         & info [ "sla" ] ~docv:"Q,Q,..."
             ~doc:"Error budgets 2^-Q to round-robin over the workload.")
  in
  let reps_arg =
    Arg.(value & opt int 5 & info [ "reps" ] ~docv:"R" ~doc:"Timed repetitions (best-of).")
  in
  let fuzz_arg =
    Arg.(value & opt int 5000
         & info [ "fuzz-cases" ] ~docv:"N" ~doc:"Cases for the certification fuzz gate.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Deterministic workload seed.")
  in
  let out_arg =
    Arg.(value & opt string "BENCH_serve.json"
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Loadgen artifact to merge the adaptive block into.")
  in
  Cmd.v (Cmd.info "adaptive" ~doc)
    Term.(const adaptive_run $ cases_arg $ n_arg $ ops_arg $ slas_arg $ reps_arg
          $ fuzz_arg $ seed_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* verify: exhaustive small-width verification certificates.  Bit-blast
   the networks and kernel chains to constraint circuits, enumerate the
   whole reduced-width operand space on the runtime, and write the
   fpan-verify/1 certificate.  Exit 1 on any violation, 2 if the
   verifier's own mutant self-test fails. *)

(* A target's sweep width: its tuned default, capped by --sweep-width
   (a cap never widens a sweep: add3 at width 4 is 38x the tuples of
   its default 3). *)
let sweep_width ?cap default = match cap with None -> default | Some w -> min default w

let verify_net_spec ?width name =
  let w = sweep_width ?cap:width in
  let spec =
    match name with
    | "add2" ->
        Some (Verify.Sweep.add_network ~width:(w 5) ~window:1 ~gap:2 Fpan.Networks.add2 ~terms:2)
    | "add3" ->
        Some (Verify.Sweep.add_network ~width:(w 3) ~window:1 ~gap:2 Fpan.Networks.add3 ~terms:3)
    | "add4" ->
        Some (Verify.Sweep.add_network ~width:(w 3) ~window:1 ~gap:1 Fpan.Networks.add4 ~terms:4)
    | "mul2" ->
        Some (Verify.Sweep.mul_network ~width:(w 5) ~window:1 ~gap:2 Fpan.Networks.mul2 ~terms:2)
    | "mul3" ->
        Some (Verify.Sweep.mul_network ~width:(w 3) ~window:1 ~gap:1 Fpan.Networks.mul3 ~terms:3)
    | "sloppy-add2" ->
        let s = Verify.Mutants.mutant_spec () in
        Some { s with Verify.Sweep.width = w s.Verify.Sweep.width }
    | _ -> None
  in
  match spec with
  | Some s -> s
  | None ->
      Printf.eprintf "verify: unknown network %s (add2 add3 add4 mul2 mul3 sloppy-add2)\n" name;
      exit 2

let verify_chain_spec ?width name =
  (* "name:terms", e.g. sum_step:2 *)
  let chain, terms =
    match String.rindex_opt name ':' with
    | Some i ->
        ( String.sub name 0 i,
          try int_of_string (String.sub name (i + 1) (String.length name - i - 1))
          with _ ->
            Printf.eprintf "verify: bad chain spec %s (want name:terms)\n" name;
            exit 2 )
    | None -> (name, 2)
  in
  let default_width = match chain with "dot_step" | "mul" -> 3 | _ -> 4 in
  try Verify.Sweep.chain ~width:(sweep_width ?cap:width default_width) ~window:1 ~gap:2 chain ~terms
  with Invalid_argument msg ->
    prerr_endline msg;
    exit 2

let verify_run networks chains gate_width sweep_width workers max_cex no_self_test out =
  drain_on_signal ();
  let split_commas s = String.split_on_char ',' s |> List.filter (fun p -> p <> "") in
  (* The verifier must first prove it can catch a broken network at
     all: sloppy-add2 (a dropped TwoSum error) has to fail with a
     small shrunk counterexample, and the real add2 has to pass. *)
  if not no_self_test then begin
    match Verify.Mutants.self_test ~workers () with
    | Error msg ->
        prerr_endline ("verify: " ^ msg);
        exit 2
    | Ok f ->
        Printf.printf "self-test: sloppy-add2 caught (%s violation), shrunk to %d terms\n%!"
          (Verify.Sweep.obligation_name f.Verify.Sweep.obligation)
          f.Verify.Sweep.shrunk_terms
  end;
  let specs =
    List.map (verify_net_spec ?width:sweep_width) (split_commas networks)
    @ List.map (verify_chain_spec ?width:sweep_width) (split_commas chains)
  in
  let gate =
    if gate_width = 0 then None
    else begin
      let fmt = Gpu32.Minifloat.fmt ~p:gate_width ~emin:(-6) ~emax:6 in
      let g = Verify.Sweep.gate_level ~workers fmt in
      Printf.printf
        "gate level p=%d [%d values, %d ordered pairs]: two_sum %d/%d, fast_two_sum %d/%d, \
         two_prod %d/%d checked/skipped -> %s\n\
         %!"
        gate_width g.Verify.Sweep.values g.Verify.Sweep.pairs
        g.Verify.Sweep.two_sum.Verify.Sweep.g_checked g.Verify.Sweep.two_sum.Verify.Sweep.g_skipped
        g.Verify.Sweep.fast_two_sum.Verify.Sweep.g_checked
        g.Verify.Sweep.fast_two_sum.Verify.Sweep.g_skipped
        g.Verify.Sweep.two_prod.Verify.Sweep.g_checked
        g.Verify.Sweep.two_prod.Verify.Sweep.g_skipped
        (if Verify.Sweep.gate_passed g then "PASS" else "VIOLATED");
      Some g
    end
  in
  let results =
    List.map
      (fun spec ->
        let r =
          try Verify.Sweep.run ~max_cex ~workers spec
          with Invalid_argument msg ->
            prerr_endline ("verify: " ^ msg);
            exit 2
        in
        let bound =
          match r.Verify.Sweep.error_bound_exp with
          | Some q -> Printf.sprintf ", worst err 2^%.2f vs bound 2^-%d" r.Verify.Sweep.worst_err_log2 q
          | None -> ""
        in
        Printf.printf "%-18s width %d: %d tuples, %d constraints, footprint %d bits%s -> %s\n%!"
          r.Verify.Sweep.spec.Verify.Sweep.name r.Verify.Sweep.spec.Verify.Sweep.width
          r.Verify.Sweep.tuples r.Verify.Sweep.constraints r.Verify.Sweep.footprint bound
          (if Verify.Sweep.passed r then "PASS" else "VIOLATED");
        List.iter
          (fun (f : Verify.Sweep.failure) ->
            Printf.printf "  FAIL tuple %d (%s), shrunk to %d terms:\n" f.Verify.Sweep.index
              (Verify.Sweep.obligation_name f.Verify.Sweep.obligation)
              f.Verify.Sweep.shrunk_terms;
            Array.iteri
              (fun i o ->
                Printf.printf "    operand %d: %s\n" i
                  (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") o))))
              f.Verify.Sweep.shrunk)
          r.Verify.Sweep.failures;
        r)
      specs
  in
  let json = Verify.Sweep.certificate ?gate results in
  Obs.Schema.check ~name:out Obs.Schemas.verify_certificate json;
  Obs.Json_out.write_file out json;
  let ok =
    List.for_all Verify.Sweep.passed results
    && match gate with None -> true | Some g -> Verify.Sweep.gate_passed g
  in
  Printf.printf "certificate: %s (%s)\n" out (if ok then "passed" else "VIOLATIONS");
  if not ok then exit 1

let verify_cmd =
  let doc =
    "Exhaustively verify networks and kernel chains at reduced width: bit-blast each to a \
     constraint circuit, enumerate every operand tuple of the small-width space on the \
     work-stealing runtime, check EFT exactness, output nonoverlap, the scaled error bound, and \
     bitwise circuit-vs-interpreter equivalence, and write a machine-readable fpan-verify/1 \
     certificate.  Deterministic for any --workers.  Exits 1 on any violation (with a shrunk \
     counterexample), 2 if the verifier's own mutant self-test fails."
  in
  let networks_arg =
    Arg.(value & opt string "add2,add3,mul2"
         & info [ "networks" ] ~docv:"NAMES"
             ~doc:"Comma-separated networks to sweep (add2 add3 add4 mul2 mul3, plus the seeded \
                   mutant sloppy-add2).  Empty to skip.")
  in
  let chains_arg =
    Arg.(value & opt string "sum_step:2,dot_step:2"
         & info [ "chains" ] ~docv:"NAMES"
             ~doc:
               ("Comma-separated kernel chains as name:terms, from: "
               ^ String.concat ", " (List.map fst Fpan_ir.Fuse.chains)
               ^ ".  Empty to skip."))
  in
  let width_arg =
    Arg.(value & opt int 8
         & info [ "width" ] ~docv:"BITS"
             ~doc:"Gate-level format precision: every ordered pair of the full width-BITS format \
                   (emin -6, emax 6) is checked for TwoSum/FastTwoSum/TwoProd exactness.  0 \
                   skips the gate level.")
  in
  let sweep_width_arg =
    Arg.(value & opt (some int) None
         & info [ "sweep-width" ] ~docv:"BITS"
             ~doc:"Cap every network/chain sweep width: each target sweeps at min(its default, \
                   BITS).  Defaults are tuned per target (add2 and mul2 5; add3, add4, mul3 and \
                   the dot_step and mul chains 3; other chains 4; sloppy-add2 4), so a cap only \
                   ever narrows a sweep.")
  in
  let workers_arg =
    Arg.(value & opt int (Domain.recommended_domain_count ())
         & info [ "workers"; "j" ] ~docv:"N" ~doc:"Worker domains for the sweeps.")
  in
  let max_cex_arg =
    Arg.(value & opt int 5
         & info [ "max-cex" ] ~docv:"K" ~doc:"Counterexamples recorded and shrunk per sweep.")
  in
  let no_self_test_arg =
    Arg.(value & flag
         & info [ "no-self-test" ] ~doc:"Skip the sloppy-add2 mutant self-test (tests only).")
  in
  let out_arg =
    Arg.(value & opt string "VERIFY_core.json"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Where to write the certificate.")
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const verify_run $ networks_arg $ chains_arg $ width_arg $ sweep_width_arg $ workers_arg
      $ max_cex_arg $ no_self_test_arg $ out_arg)

let () =
  let doc = "Inspect and verify floating-point accumulation networks." in
  let info = Cmd.info "fpan_tool" ~doc in
  (* bare `fpan_tool` prints the unified usage instead of an error *)
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let group =
    Cmd.group ~default info
      [ list_cmd; show_cmd; check_cmd; check_all_cmd; check_n_cmd; dot_cmd; search_cmd;
        analyze_cmd; enumerate_cmd; fuzz_cmd; verify_cmd; bench_sched_cmd; trace_cmd; serve_cmd;
        loadgen_cmd; adaptive_cmd; chaos_cmd ]
  in
  match Cmd.eval_value group with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term) ->
      (* cmdliner already printed the diagnostic (unknown command ->
         `Parse, unknown/malformed option -> `Term); add the one-line
         hint and use the conventional usage-error status *)
      prerr_endline "fpan_tool: unknown or malformed option -- try 'fpan_tool --help'";
      exit 2
  | Error `Exn -> exit Cmd.Exit.internal_error
