(* Micro-batcher domain: pop — shed expired — answer each live entry
   on this domain, in arrival order — flush.

   One request, one answer: a fixed-tier request is answered by
   [eval_one] and an SLA request by [eval_adaptive] (Escalate.run), the
   very calls that are the reference, so a served reply is the
   reference result by construction whatever else the cycle held.  An
   exception fails only its own request.  A cycle's live count is the
   reply's [batch] field and the [serve.batch_size.<n>] member it
   counts in; it does not change the arithmetic. *)

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
      try
        Ok
          (match r.P.tier with
          | P.Mf2 -> X2.eval_one r
          | P.Mf3 -> X3.eval_one r
          | P.Mf4 -> X4.eval_one r)
      with e -> Error (Printexc.to_string e))

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
  (* per-rung serving latency: arrival to reply of the SLA requests
     that settled at each tier *)
  sla_latency_hists : (string * M.hist) list;
  members : (string, M.counter) Hashtbl.t;  (* batcher domain only *)
  mutable domain : unit Domain.t option;
}

let expired now (e : entry) =
  match e.req.P.deadline_ms with
  | None -> false
  | Some d -> (now -. e.arrival_ns) *. 1e-6 > d

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

(* Answer one live entry with the reference call for its kind.  Its
   counters move before its reply goes out, so a client that reacts to
   the response instantly still sees itself in the stats. *)
let answer t batch (e : entry) =
  let id = e.req.P.id in
  let failed error =
    M.incr t.errors_ctr;
    e.reply (P.Failed { id; error })
  in
  let served result ~chosen ~bound =
    M.incr t.completed_ctr;
    let latency = Obs.Clock.now_ns () -. e.arrival_ns in
    M.observe t.latency_hist latency;
    Option.iter
      (fun tier ->
        Option.iter (fun h -> M.observe h latency) (List.assoc_opt tier t.sla_latency_hists))
      chosen;
    e.reply (P.Result { id; result; batch; chosen; bound })
  in
  match e.req.P.sla with
  | None -> (
      match eval_one e.req with
      | Ok result -> served result ~chosen:None ~bound:None
      | Error msg -> failed msg)
  | Some _ -> (
      M.incr t.sla_requests_ctr;
      match eval_adaptive e.req with
      | Ok o ->
          M.add t.sla_escalations_ctr o.escalations;
          M.incr (member t ("serve.sla.chosen." ^ o.chosen));
          served o.result ~chosen:(Some o.chosen) ~bound:(Some o.bound)
      | Error msg -> failed msg)

let cycle t entries =
  let now = Obs.Clock.now_ns () in
  let live, late = List.partition (fun e -> not (expired now e)) entries in
  List.iter
    (fun e ->
      M.incr t.shed_deadline_ctr;
      count_shed t e.req;
      e.reply (P.Shed { id = e.req.P.id; reason = "deadline" }))
    late;
  (match List.length live with
  | 0 -> ()
  | n ->
      count_batch t n;
      let tr = Obs.Trace.enabled () in
      if tr then Obs.Trace.begin_span Obs.Trace.Io "serve.batch";
      List.iter (answer t n) live;
      if tr then Obs.Trace.end_span_f ~arg_name:"batch" ~arg:(float_of_int n));
  (* one flush per cycle: replies buffered per connection by the
     server go out in a single write each *)
  t.flush ()

let rec loop t =
  match Admission.pop_batch t.queue ~max:t.max_batch ~window_ns:t.window_ns with
  | [] -> ()
  | entries ->
      cycle t entries;
      loop t

let create ~sched:_ ~queue ~max_batch ~window_ns ?(flush = fun () -> ()) () =
  if max_batch < 1 then invalid_arg "Serve.Batcher.create: max_batch < 1";
  let metrics = M.create () in
  let ctr name = M.counter metrics ("serve." ^ name) in
  let hist name = M.hist metrics ("serve." ^ name) in
  let t =
    {
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
