(* Micro-batcher domain: pop — shed expired — group by (op, tier,
   sla?) — evaluate each group's requests — scatter replies.

   One evaluator: every request, batched or not, is evaluated by
   [eval_fixed], the scalar kernels in index order, so a served
   response is the scalar path's by construction whatever the batch.
   A group with two or more vector requests fans them out over the
   scheduler with [parallel_for]; every other group is evaluated on
   the batcher domain.  The grouping decides the reply's [batch] field
   and the SLA cohorts, not the arithmetic.

   SLA cohorts: requests carrying an accuracy SLA group by (op,
   starting tier).  The ladder itself is Adaptive.Escalate's: each
   element is planned (its rung picked from the operands alone), each
   rung's planned elements are evaluated as one group exactly as a
   fixed-tier group is, and each element is settled against its own
   budget.  Results at an element's chosen tier are therefore bitwise
   what a fixed-tier request with the zero-padded operands would have
   returned, and every decision is the scalar ladder's. *)

module P = Protocol
module A = Adaptive

type entry = {
  req : P.request;
  arrival_ns : float;
  reply : P.response -> unit;
}

type stats = {
  batches : int;
  completed : int;
  shed_deadline : int;
  errors : int;
  histogram : (int * int) list;
  sla_requests : int;
  sla_escalations : int;  (* total rungs climbed past starting tiers *)
  sla_chosen : (string * int) list;  (* escalation histogram: tier -> count *)
}

(* --- per-tier execution --------------------------------------------- *)

let sla_op (r : P.request) = A.Sla.of_wire ~op:(P.op_name r.P.op) ~prog:r.P.prog
let sla_inputs (r : P.request) = { A.Sla.x = r.P.x; y = r.P.y; z = r.P.z }

module Exec (M : Multifloat.Ops.S) = struct
  module E = Multifloat.Elementary.Make (M)
  module Poly = Multifloat.Poly.Make (M)

  let elt c = M.of_components c

  (* The scalar kernels, index order.  The certifiable ops are the
     ladder's own evaluator's. *)
  let eval_one (r : P.request) : float array array =
    let x i = elt r.x.(i) in
    let one v = [| M.components v |] in
    match r.op with
    | P.Exp -> one (E.exp (x 0))
    | P.Log -> one (E.log (x 0))
    | P.Sin -> one (E.sin (x 0))
    | P.Poly_eval -> one (Poly.eval (Array.map elt r.x) (elt r.y.(0)))
    | P.Stats -> invalid_arg "Serve.Batcher: stats is not a compute op"
    | _ -> (
        match sla_op r with
        | Some op -> A.Eval.eval ~terms:M.terms op (sla_inputs r)
        | None ->
            invalid_arg
              (Printf.sprintf "Serve.Batcher: unsupported program %S" (P.program_name r.prog)))
end

module X2 = Exec (Multifloat.Mf2)
module X3 = Exec (Multifloat.Mf3)
module X4 = Exec (Multifloat.Mf4)

(* The fixed-tier twin of an SLA request at one ladder rung: operands
   zero-padded (exact) to the rung's width, the sla dropped.  This is
   the request whose direct evaluation the SLA path must match
   bitwise. *)
let pad_request ~terms (r : P.request) =
  let pad rows = Array.map (A.Sla.pad_element ~terms) rows in
  {
    r with
    P.tier = P.tier_of_terms terms;
    sla = None;
    x = pad r.P.x;
    y = pad r.P.y;
    z = pad r.P.z;
  }

let eval_fixed (r : P.request) =
  match r.P.tier with
  | P.Mf2 -> X2.eval_one r
  | P.Mf3 -> X3.eval_one r
  | P.Mf4 -> X4.eval_one r

(* Scalar reference path for SLA requests: the escalation ladder with
   each rung evaluated by the scalar kernels. *)
let eval_adaptive (r : P.request) : (A.Escalate.outcome, string) result =
  match (r.P.sla, sla_op r) with
  | None, _ -> Error "request carries no sla"
  | Some _, None -> Error (Printf.sprintf "op %s cannot carry an sla" (P.op_name r.P.op))
  | Some q, Some op -> (
      try A.Escalate.run ~q ~op (sla_inputs r) with e -> Error (Printexc.to_string e))

let eval_one (r : P.request) =
  match (r.P.op, r.P.sla) with
  | P.Stats, _ -> Error "stats is not a compute op"
  | _, Some _ -> Result.map (fun (o : A.Escalate.outcome) -> o.result) (eval_adaptive r)
  | _, None -> (
      try Ok (eval_fixed r) with e -> Error (Printexc.to_string e))

(* A group fans out over the scheduler only when at least two of its
   requests carry a multi-element operand.  Any other group runs on
   the batcher domain: a scalar evaluation takes about a microsecond,
   less than waking a worker to steal it, and a lone vector request
   has nothing to split.  Either way each request is [eval_fixed] on
   its own, so the domain changes and the bits do not; a raise fails
   the group with the first raising request's exception. *)
let fans_out (reqs : P.request array) =
  let multi (r : P.request) =
    Array.length r.P.x > 1 || Array.length r.P.y > 1 || Array.length r.P.z > 1
  in
  Array.fold_left (fun k r -> if multi r then k + 1 else k) 0 reqs >= 2

let eval_group sched (reqs : P.request array) =
  if not (fans_out reqs) then Array.map eval_fixed reqs
  else begin
    let out = Array.make (Array.length reqs) [||] in
    Runtime.Sched.parallel_for sched ~lo:0 ~hi:(Array.length reqs) (fun lo hi ->
        for i = lo to hi - 1 do
          out.(i) <- eval_fixed reqs.(i)
        done);
    out
  end

(* --- the batcher domain --------------------------------------------- *)

module M = Obs.Metrics

(* Shed accounting buckets: one for fixed-tier work, four q ranges for
   SLA work.  Fixed shape, fixed order — the stats document must be
   deterministic. *)
let shed_buckets = [| "fixed"; "q1-50"; "q51-100"; "q101-150"; "q151-200" |]

let shed_bucket (req : P.request) =
  match req.P.sla with
  | None -> 0
  | Some q -> if q <= 50 then 1 else if q <= 100 then 2 else if q <= 150 then 3 else 4

type t = {
  sched : Runtime.Sched.t;
  queue : entry Admission.t;
  max_batch : int;
  window_ns : int64;
  flush : unit -> unit;
  metrics : M.registry;
  completed_ctr : M.counter;
  shed_deadline_ctr : M.counter;
  errors_ctr : M.counter;
  sla_requests_ctr : M.counter;
  sla_escalations_ctr : M.counter;
  shed_ctrs : M.counter array;  (* by shed_bucket *)
  latency_hist : M.hist;
  (* per-rung serving latency: how much an SLA request pays for ending
     up at each tier (escalated elements accumulate every rung they
     visited) *)
  sla_latency_hists : (string * M.hist) list;
  members : (string, M.counter) Hashtbl.t;  (* batcher domain only *)
  mutable domain : unit Domain.t option;
}

let expired now (e : entry) =
  match e.req.P.deadline_ms with
  | None -> false
  | Some d -> (now -. e.arrival_ns) *. 1e-6 > d

(* Group by (op, tier, sla?), preserving arrival order inside each
   group and first-appearance order across groups.  SLA requests form
   their own escalation cohorts per (op, starting tier); the concrete
   q may differ inside a cohort — certification is per element. *)
let group_entries entries =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun e ->
      let key = (e.req.P.op, e.req.P.tier, e.req.P.sla <> None) in
      match Hashtbl.find_opt tbl key with
      | Some acc -> acc := e :: !acc
      | None ->
          Hashtbl.add tbl key (ref [ e ]);
          order := key :: !order)
    entries;
  List.rev_map (fun key -> List.rev !(Hashtbl.find tbl key)) !order
  |> List.rev

(* A counter-family member ([serve.batch_size.<n>],
   [serve.sla.chosen.<tier>]), registered on first use so a family
   lists exactly the labels that occurred, and cached so the steady
   state takes no registry lock. *)
let member t name =
  match Hashtbl.find_opt t.members name with
  | Some c -> c
  | None ->
      let c = M.counter t.metrics name in
      Hashtbl.add t.members name c;
      c

let count_batch t n = M.incr (member t ("serve.batch_size." ^ string_of_int n))

let count_shed t req = M.incr t.shed_ctrs.(shed_bucket req)

(* counters move before the replies go out, so a client that reacts
   to its response instantly still sees itself in the stats *)
let run_fixed_group t (arr : entry array) =
  let n = Array.length arr in
  match eval_group t.sched (Array.map (fun e -> e.req) arr) with
  | results ->
      M.add t.completed_ctr n;
      count_batch t n;
      let now = Obs.Clock.now_ns () in
      Array.iteri
        (fun i e ->
          M.observe t.latency_hist (now -. e.arrival_ns);
          e.reply
            (P.Result
               { id = e.req.P.id; result = results.(i); batch = n;
                 chosen = None; bound = None }))
        arr
  | exception e ->
      let msg = Printexc.to_string e in
      M.add t.errors_ctr n;
      count_batch t n;
      Array.iter (fun en -> en.reply (P.Failed { id = en.req.P.id; error = msg })) arr

(* One SLA cohort in three steps: plan every element, evaluate each
   rung's planned elements as one group through [eval_group], settle
   each element.  If evaluating or settling raises, every element not
   yet settled fails with the exception's text. *)
let run_sla_group t (arr : entry array) =
  let n = Array.length arr in
  let plans =
    Array.map
      (fun e ->
        match (sla_op e.req, e.req.P.sla) with
        | Some op, Some q -> (
            try A.Escalate.plan ~q ~op (sla_inputs e.req)
            with ex -> Error (Printexc.to_string ex))
        | _ -> Error "not an sla-certifiable request")
      arr
  in
  let rung i = match plans.(i) with Ok p -> p.A.Escalate.terms | Error _ -> 0 in
  let settled = Array.make n None in
  let failure = ref "" in
  (try
     for terms = A.Sla.min_terms to A.Sla.max_terms do
       let idxs = Array.of_list (List.filter (fun i -> rung i = terms) (List.init n Fun.id)) in
       if idxs <> [||] then begin
         let padded = Array.map (fun i -> pad_request ~terms arr.(i).req) idxs in
         let res = eval_group t.sched padded in
         Array.iteri
           (fun k i ->
             settled.(i) <- Some (A.Escalate.settle (Result.get_ok plans.(i)) res.(k)))
           idxs
       end
     done
   with e -> failure := Printexc.to_string e);
  let outcomes =
    Array.mapi
      (fun i plan ->
        match (plan, settled.(i)) with
        | Ok _, Some o -> Ok o
        | Ok _, None -> Error !failure
        | Error msg, _ -> Error msg)
      plans
  in
  let n_fail = Array.fold_left (fun a o -> if Result.is_ok o then a else a + 1) 0 outcomes in
  M.add t.completed_ctr (n - n_fail);
  M.add t.errors_ctr n_fail;
  M.add t.sla_requests_ctr n;
  Array.iter
    (function
      | Ok (o : A.Escalate.outcome) ->
          M.add t.sla_escalations_ctr o.escalations;
          M.incr (member t ("serve.sla.chosen." ^ o.chosen))
      | Error _ -> ())
    outcomes;
  count_batch t n;
  let now = Obs.Clock.now_ns () in
  Array.iteri
    (fun i e ->
      match outcomes.(i) with
      | Ok o ->
          M.observe t.latency_hist (now -. e.arrival_ns);
          (match List.assoc_opt o.chosen t.sla_latency_hists with
          | Some h -> M.observe h (now -. e.arrival_ns)
          | None -> ());
          e.reply
            (P.Result
               { id = e.req.P.id; result = o.result; batch = n; chosen = Some o.chosen;
                 bound = Some o.bound })
      | Error error -> e.reply (P.Failed { id = e.req.P.id; error }))
    arr

let run_group t (group : entry list) =
  let arr = Array.of_list group in
  let tr = Obs.Trace.enabled () in
  if tr then Obs.Trace.begin_span Obs.Trace.Io "serve.batch";
  if arr.(0).req.P.sla <> None then run_sla_group t arr else run_fixed_group t arr;
  if tr then
    Obs.Trace.end_span_f ~arg_name:"batch" ~arg:(float_of_int (Array.length arr))

let cycle t entries =
  let now = Obs.Clock.now_ns () in
  let live, late = List.partition (fun e -> not (expired now e)) entries in
  List.iter
    (fun e ->
      M.incr t.shed_deadline_ctr;
      count_shed t e.req;
      e.reply (P.Shed { id = e.req.P.id; reason = "deadline" }))
    late;
  List.iter (run_group t) (group_entries live);
  (* one flush per cycle: replies buffered per connection by the
     server go out in a single write each *)
  t.flush ()

let rec loop t =
  match Admission.pop_batch t.queue ~max:t.max_batch ~window_ns:t.window_ns with
  | [] -> ()
  | entries ->
      cycle t entries;
      loop t

let create ~sched ~queue ~max_batch ~window_ns ?(flush = fun () -> ()) () =
  if max_batch < 1 then invalid_arg "Serve.Batcher.create: max_batch < 1";
  let metrics = M.create () in
  let ctr name = M.counter metrics ("serve." ^ name) in
  let hist name = M.hist metrics ("serve." ^ name) in
  let t =
    {
      sched;
      queue;
      max_batch;
      window_ns;
      flush;
      metrics;
      completed_ctr = ctr "completed";
      shed_deadline_ctr = ctr "shed_deadline";
      errors_ctr = ctr "errors";
      sla_requests_ctr = ctr "sla_requests";
      sla_escalations_ctr = ctr "sla_escalations";
      shed_ctrs = Array.map (fun b -> ctr ("shed." ^ b)) shed_buckets;
      latency_hist = hist "latency_ns";
      sla_latency_hists =
        List.map (fun tier -> (tier, hist ("sla.latency_ns." ^ tier))) A.Sla.rungs;
      members = Hashtbl.create 16;
      domain = None;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> loop t));
  t

let join t =
  match t.domain with
  | None -> ()
  | Some d ->
      Domain.join d;
      t.domain <- None

let metrics t = t.metrics

let stats_of snap : stats =
  let count name = M.count snap ("serve." ^ name) in
  let histogram =
    M.family snap "serve.batch_size."
    |> List.map (fun (size, n) -> (int_of_string size, n))
    |> List.sort compare
  in
  {
    batches = List.fold_left (fun a (_, n) -> a + n) 0 histogram;
    completed = count "completed";
    shed_deadline = count "shed_deadline";
    errors = count "errors";
    histogram;
    sla_requests = count "sla_requests";
    sla_escalations = count "sla_escalations";
    sla_chosen =
      M.family snap "serve.sla.chosen."
      |> List.sort (fun (a, _) (b, _) ->
             compare (A.Sla.rung_rank a, a) (A.Sla.rung_rank b, b));
  }

let stats t = stats_of (M.snapshot t.metrics)

let shed_by_bucket snap =
  Array.to_list (Array.map (fun b -> (b, M.count snap ("serve.shed." ^ b))) shed_buckets)
