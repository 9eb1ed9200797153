(* The fuzzing campaign: corpus generation, the differential driver,
   counterexample shrinking, and the machine-readable report.

   A run is deterministic in (seed, config): each tier draws from
   [Random.State.make [| seed; terms |]], so a failure reported by CI
   replays locally from the seed alone.  Every run starts with a
   mutation self-test — QD's [sloppy_add] (a genuinely broken
   renormalization under cancellation) is temporarily enrolled as a
   gated implementation and must be caught and shrunk — so a fuzz run
   that finds nothing is evidence about the kernels, not about a dead
   harness. *)

type config = {
  cases : int;
  seed : int;
  tiers : int list;
  ops : Corpus.op list;
  vec_len : int;
  max_findings : int;  (* findings shrunk and carried in the report *)
}

let default =
  { cases = 2000; seed = 42; tiers = [ 2; 3; 4 ]; ops = Corpus.all_ops; vec_len = 12;
    max_findings = 16 }

type shrunk_finding = {
  finding : Differ.finding;
  shrunk : float array array;
  shrunk_terms : int;
}

type stat_row = {
  impl : string;
  op : string;
  q : int;
  gated : bool;
  stats : Ulp_stats.t;
}

type report = {
  config : config;
  scalar_cases : int;
  vector_cases : int;
  failure_count : int;  (* all failures, including beyond max_findings *)
  failures : shrunk_finding list;
  rows : stat_row list;
}

let passed r = r.failure_count = 0

(* --- campaign ------------------------------------------------------- *)

let gemv_rows = 3

let run cfg =
  let table : (string * string, stat_row) Hashtbl.t = Hashtbl.create 97 in
  let order = ref [] in
  let failures = ref [] in
  let failure_count = ref 0 in
  let scalar_cases = ref 0 and vector_cases = ref 0 in
  let scalar_ops = List.filter (fun o -> List.mem o Corpus.scalar_ops) cfg.ops in
  let vector_ops = List.filter (fun o -> List.mem o Corpus.vector_ops) cfg.ops in
  let n_vec = if vector_ops = [] then 0 else Stdlib.max 1 (cfg.cases / 64) in
  List.iter
    (fun terms ->
      let impls = Impls.tier terms in
      let q = Impls.q_of_terms terms in
      let stat_of impl_name op =
        let key = (impl_name, Corpus.op_name op) in
        match Hashtbl.find_opt table key with
        | Some row -> row.stats
        | None ->
            let gated =
              match Impls.find impl_name with Some i -> i.Impls.gated | None -> true
            in
            let row =
              { impl = impl_name; op = Corpus.op_name op; q; gated; stats = Ulp_stats.create () }
            in
            Hashtbl.add table key row;
            order := key :: !order;
            row.stats
      in
      let sink =
        { Differ.on_ulps = (fun impl op ulps -> Ulp_stats.record (stat_of impl.Impls.name op) ulps);
          on_skip = (fun impl op -> Ulp_stats.skip (stat_of impl.Impls.name op));
          on_fail =
            (fun finding ~keep ->
              incr failure_count;
              Ulp_stats.fail (stat_of finding.Differ.impl finding.Differ.op);
              if List.length !failures < cfg.max_findings then begin
                let shrunk = Shrink.shrink ~keep finding.Differ.inputs in
                failures :=
                  { finding; shrunk; shrunk_terms = Shrink.nonzero_terms shrunk } :: !failures
              end)
        }
      in
      (* One span per tier with its case count as the argument, and a
         per-operand-class throughput counter (fuzz.cases.<class>) in
         the metrics registry. *)
      let tr = Obs.Trace.enabled () in
      let tier_cases = ref 0 in
      let count_cls cls =
        incr tier_cases;
        Obs.Metrics.incr
          (Obs.Metrics.counter Obs.Metrics.global ("fuzz.cases." ^ Corpus.cls_name cls))
      in
      if tr then Obs.Trace.begin_span Obs.Trace.Fuzz (Printf.sprintf "fuzz.tier%d" terms);
      if scalar_ops <> [] then begin
        let rng = Random.State.make [| cfg.seed; terms |] in
        for i = 0 to cfg.cases - 1 do
          incr scalar_cases;
          let case = Corpus.scalar_case rng ~terms i in
          count_cls case.Corpus.cls;
          Differ.run_scalar_case sink ~impls ~q ~ops:scalar_ops ~case
        done
      end;
      if n_vec > 0 then begin
        let rng = Random.State.make [| cfg.seed; terms; 1 |] in
        for i = 0 to n_vec - 1 do
          incr vector_cases;
          let cls, x, y = Corpus.vector_case rng ~terms ~len:cfg.vec_len i in
          count_cls cls;
          let alpha = Fpan.Gen.expansion rng ~n:terms ~e0_min:(-20) ~e0_max:20 () in
          let a =
            Array.init (gemv_rows * cfg.vec_len) (fun _ ->
                Fpan.Gen.expansion rng ~n:terms ~e0_min:(-30) ~e0_max:30 ())
          in
          Differ.run_vector_case sink ~impls ~q ~ops:vector_ops ~cls ~alpha ~x ~y ~a ~m:gemv_rows
        done
      end;
      if tr then
        Obs.Trace.end_span_f ~arg_name:"cases" ~arg:(float_of_int !tier_cases))
    cfg.tiers;
  let rows = List.rev_map (fun key -> Hashtbl.find table key) !order in
  { config = cfg; scalar_cases = !scalar_cases; vector_cases = !vector_cases;
    failure_count = !failure_count; failures = List.rev !failures; rows }

(* --- mutation self-test --------------------------------------------- *)

(* QD's sloppy double-double addition drops the low-order correction:
   a real renormalization bug of exactly the class the audit exists to
   catch.  Enroll it as a gated tier-2 implementation and demand that
   the harness (a) flags it and (b) shrinks the counterexample to at
   most four nonzero terms. *)
let sloppy_mutant =
  let wrap c = { Baselines.Qd_dd.hi = c.(0); lo = c.(1) } in
  { Impls.name = "mutant-sloppy-dd"; terms = 2; gated = true; bitref = None;
    add = Some (fun x y -> Baselines.Qd_dd.components (Baselines.Qd_dd.sloppy_add (wrap x) (wrap y)));
    sub = None; mul = None; div = None; sqrt_ = None; dot = None; axpy = None; gemv = None;
    ball = None }

let self_test () =
  let q = Impls.q_of_terms 2 in
  let caught = ref None in
  let failure_count = ref 0 in
  let sink =
    { Differ.on_ulps = (fun _ _ _ -> ());
      on_skip = (fun _ _ -> ());
      on_fail =
        (fun finding ~keep ->
          incr failure_count;
          if !caught = None then begin
            let shrunk = Shrink.shrink ~keep finding.Differ.inputs in
            caught := Some (finding, shrunk, Shrink.nonzero_terms shrunk)
          end)
    }
  in
  let rng = Random.State.make [| 7; 2 |] in
  let i = ref 0 in
  while !caught = None && !i < 4000 do
    let case = Corpus.scalar_case rng ~terms:2 !i in
    Differ.run_scalar_case sink ~impls:[ sloppy_mutant ] ~q ~ops:[ Corpus.Add ] ~case;
    incr i
  done;
  match !caught with
  | None ->
      Error
        "mutation self-test: sloppy_add survived 4000 adversarial cases — the audit harness is \
         not detecting broken renormalization"
  | Some (_, _, terms) when terms > 4 ->
      Error
        (Printf.sprintf
           "mutation self-test: counterexample only shrank to %d nonzero terms (want <= 4)" terms)
  | Some (finding, shrunk, terms) -> Ok (finding, shrunk, terms)

(* --- report --------------------------------------------------------- *)

module J = Obs.Json_out

let hex v = Printf.sprintf "%h" v

let json_operands inputs =
  J.List
    (Array.to_list
       (Array.map
          (fun o -> J.List (Array.to_list (Array.map (fun v -> J.Str (hex v)) o)))
          inputs))

let json_of_failure f =
  J.Obj
    [ ("impl", J.Str f.finding.Differ.impl);
      ("op", J.Str (Corpus.op_name f.finding.Differ.op));
      ("class", J.Str (Corpus.cls_name f.finding.Differ.cls));
      ("kind", J.Str (Differ.kind_name f.finding.Differ.kind));
      ("ulps", J.Num f.finding.Differ.ulps);
      ("inputs", json_operands f.finding.Differ.inputs);
      ("got", J.List (Array.to_list (Array.map (fun v -> J.Str (hex v)) f.finding.Differ.got)));
      ("shrunk", json_operands f.shrunk);
      ("shrunk_terms", J.Num (Float.of_int f.shrunk_terms))
    ]

let to_json r =
  J.Obj
    [ ("schema", J.Str "fpan-check/1");
      ("seed", J.Num (Float.of_int r.config.seed));
      ("cases", J.Num (Float.of_int r.config.cases));
      ("scalar_cases", J.Num (Float.of_int r.scalar_cases));
      ("vector_cases", J.Num (Float.of_int r.vector_cases));
      ("vec_len", J.Num (Float.of_int r.config.vec_len));
      ("tiers", J.List (List.map (fun t -> J.Num (Float.of_int t)) r.config.tiers));
      ("ops", J.List (List.map (fun o -> J.Str (Corpus.op_name o)) r.config.ops));
      ("passed", J.Bool (passed r));
      ("failure_count", J.Num (Float.of_int r.failure_count));
      ("failures", J.List (List.map json_of_failure r.failures));
      ( "results",
        J.List
          (List.map
             (fun row ->
               Ulp_stats.to_json ~impl:row.impl ~op:row.op ~q:row.q ~gated:row.gated row.stats)
             r.rows) )
    ]

let write_report path r = J.write_file path (to_json r)
