(* The serve workloads' two processes.  The server runs in a forked
   child (forked before this process starts any domain, so the load
   generator's GC pauses never stop the server's domains) behind a
   control pipe; the load generator is one thread holding a few
   closed-loop connections, each keeping a fixed number of requests in
   flight and sending the next pre-encoded frame as each reply lands. *)

module P = Serve.Protocol

(* --- server child ---------------------------------------------------- *)

type server = {
  pid : int;
  path : string;  (** unix socket, relative to the working directory *)
  ctl : Unix.file_descr;
      (** 'r' asks for a report line, 't' turns span tracing on, 'q' (or
          EOF) stops *)
  rep : in_channel;
}

(* What the child reports about itself on request. *)
type report = {
  cpu_s : float;  (** user + system time of the whole server process *)
  minor_words : float;
  major_collections : int;
  request_spans : int;  (** serve.request spans drained since the last report *)
  request_span_ns : float;  (** their summed duration *)
  batch_spans : int;
  batch_span_ns : float;
}

let span_totals name spans =
  List.fold_left
    (fun (n, t) (s : Obs.Trace.span) ->
      if s.Obs.Trace.name = name then (n + 1, t +. (s.Obs.Trace.t1_ns -. s.Obs.Trace.t0_ns))
      else (n, t))
    (0, 0.0) spans

let child_main ~path ~cache ~ctl ~rep =
  Obs.Trace.set_enabled false;
  let sched = Runtime.Sched.create ~workers:2 () in
  let srv = Serve.Server.start ~sched ~addr:(Serve.Server.Unix_path path) ~cache_capacity:cache () in
  let out = Unix.out_channel_of_descr rep in
  output_string out "ready\n";
  flush out;
  let b = Bytes.create 1 in
  let rec loop () =
    match Unix.read ctl b 0 1 with
    | 1 when Bytes.get b 0 = 'r' ->
        let g = Gc.quick_stat () in
        let spans = Obs.Trace.drain () in
        let rn, rt = span_totals "serve.request" spans in
        let bn, bt = span_totals "serve.batch" spans in
        Printf.fprintf out "%.17g %.17g %d %d %.17g %d %.17g\n" (Util.cpu_s ())
          g.Gc.minor_words g.Gc.major_collections rn rt bn bt;
        flush out;
        loop ()
    | 1 when Bytes.get b 0 = 't' ->
        Obs.Trace.set_enabled true;
        loop ()
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
  in
  loop ();
  Serve.Server.stop srv;
  Runtime.Sched.shutdown sched

let spawn ~path ~cache =
  flush stdout;
  flush stderr;
  let ctl_r, ctl_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close ctl_w;
      Unix.close rep_r;
      let code =
        try
          child_main ~path ~cache ~ctl:ctl_r ~rep:rep_w;
          0
        with e ->
          prerr_endline ("perfbench server: " ^ Printexc.to_string e);
          3
      in
      Unix._exit code
  | pid ->
      Unix.close ctl_r;
      Unix.close rep_w;
      let rep = Unix.in_channel_of_descr rep_r in
      let s = { pid; path; ctl = ctl_w; rep } in
      (match Unix.select [ rep_r ] [] [] 60.0 with
      | [], _, _ -> failwith "server did not come up within 60 s"
      | _ -> if input_line rep <> "ready" then failwith "server failed to start");
      s

let trace_on s = ignore (Unix.write_substring s.ctl "t" 0 1)

let report s =
  ignore (Unix.write_substring s.ctl "r" 0 1);
  Scanf.sscanf (input_line s.rep) "%f %f %d %d %f %d %f"
    (fun cpu_s minor_words major_collections request_spans request_span_ns batch_spans
         batch_span_ns ->
      { cpu_s; minor_words; major_collections; request_spans; request_span_ns; batch_spans;
        batch_span_ns })

(* Stop the child and wait for it; a child that does not drain within
   20 s is killed, so no run leaves a process behind. *)
let stop s =
  (try ignore (Unix.write_substring s.ctl "q" 0 1) with Unix.Unix_error _ -> ());
  (try Unix.close s.ctl with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        if Util.now () > deadline then begin
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> wait ()
  in
  wait ();
  close_in_noerr s.rep;
  try Unix.unlink s.path with Unix.Unix_error _ -> ()

let client s = Serve.Client.connect ~deadline_ms:30_000 (Serve.Server.Unix_path s.path)

let stats_doc s =
  let c = client s in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> Serve.Client.stats c)

(* --- closed-loop load generator --------------------------------------- *)

(* (id, status initial) read straight off the reply bytes: the load
   generator stays off the codec it measures.  The emitter writes "id" before
   "status", both near the front. *)
let scan payload =
  let n = String.length payload in
  let find sub from =
    let m = String.length sub in
    let rec go i =
      if i + m > n then -1 else if String.sub payload i m = sub then i + m else go (i + 1)
    in
    go from
  in
  let k = find "\"id\":" 0 in
  let id = ref 0 and j = ref k in
  if k >= 0 then
    while !j < n && payload.[!j] >= '0' && payload.[!j] <= '9' do
      id := (!id * 10) + Char.code payload.[!j] - Char.code '0';
      incr j
    done;
  let s = find "\"status\":\"" (max 0 !j) in
  (!id, if s >= 0 && s < n then payload.[s] else 'e')

type conn = {
  fd : Unix.file_descr;
  defr : P.deframer;
  next : unit -> int;  (** pool index of the next request to send *)
  out : (string * int ref) Queue.t;  (** frames (and bytes written) not yet sent *)
  slot_id : int array;  (** in-flight request ids, -1 when free *)
  slot_t : float array;  (** their send times, ns *)
}

type run = {
  completed : int;  (** replies received inside the measured window *)
  failed : int;  (** of those, shed or error replies *)
  wall_s : float;  (** measured window length *)
  cpu_frac : float;  (** load-generator CPU / wall over the window *)
  lats_us : float array array;
      (** send-to-reply latencies (us) of each of [slices] equal slices of
          the window, each sorted *)
  samples : (int * string) list;  (** (pool index, reply payload) kept for checking *)
  unanswered : int;  (** requests still in flight when the drain gave up *)
}

(* Run [warmup] seconds unrecorded, then [seconds] measured, then stop
   offering load and drain.  [at_window] runs at the start and the end
   of the measured window (server-side snapshots).  Latencies are kept
   per slice of the window, so a caller can take medians across
   slices.  Replies are sampled for bitwise checking: the first 1000
   of the window, then a seeded 1 in 16. *)
let drive (pool : Gen.pool) ~path ~seed ~conns ~depth ~warmup ~seconds ~slices
    ~(at_window : [ `Start | `End ] -> unit) =
  let make c =
    let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
    Unix.connect fd (ADDR_UNIX path);
    Unix.set_nonblock fd;
    { fd; defr = P.deframer (); next = Gen.traffic pool ~seed ~conn:c; out = Queue.create ();
      slot_id = Array.make depth (-1); slot_t = Array.make depth 0.0 }
  in
  let cs = Array.init conns make in
  let lats = Array.init slices (fun _ -> Util.fbuf ()) in
  let tw = ref 0.0 in
  let samples = ref [] and nsamples = ref 0 in
  let sample_st = Util.rng ~seed 7 in
  let completed = ref 0 and failed = ref 0 in
  let phase = ref `Warm in
  let send c slot =
    let idx = c.next () in
    Queue.add (pool.Gen.frames.(idx), ref 0) c.out;
    c.slot_id.(slot) <- idx + 1;
    c.slot_t.(slot) <- Util.now_ns ()
  in
  let flush c =
    let stop = ref false in
    while (not !stop) && not (Queue.is_empty c.out) do
      let s, off = Queue.peek c.out in
      match Unix.write_substring c.fd s !off (String.length s - !off) with
      | w ->
          off := !off + w;
          if !off = String.length s then ignore (Queue.pop c.out)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> stop := true
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  in
  let absorb c payload =
    let id, status = scan payload in
    (* the oldest in-flight send of this id answers first *)
    let best = ref (-1) in
    Array.iteri
      (fun k v -> if v = id && (!best < 0 || c.slot_t.(k) < c.slot_t.(!best)) then best := k)
      c.slot_id;
    if !best < 0 then failwith (Printf.sprintf "reply for unknown id %d" id);
    let slot = !best in
    let t = Util.now_ns () in
    if !phase = `Measure then begin
      incr completed;
      if status <> 'o' then incr failed;
      let k = int_of_float ((t -. !tw) /. (seconds *. 1e9) *. float_of_int slices) in
      Util.fpush lats.(max 0 (min (slices - 1) k)) ((t -. c.slot_t.(slot)) *. 1e-3);
      if !nsamples < 1000 || Random.State.int sample_st 16 = 0 then begin
        incr nsamples;
        samples := (id - 1, payload) :: !samples
      end
    end;
    c.slot_id.(slot) <- -1;
    if !phase <> `Drain then send c slot
  in
  let rbuf = Bytes.create 65536 in
  let read c =
    let more = ref true in
    while !more do
      match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
      | 0 -> failwith "server closed a load connection"
      | n -> (
          match P.feed c.defr rbuf n with
          | Ok frames -> List.iter (absorb c) frames
          | Error e -> failwith ("bad reply framing: " ^ e))
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> more := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  in
  let in_flight () =
    Array.fold_left
      (fun a c -> a + Array.fold_left (fun a v -> if v >= 0 then a + 1 else a) 0 c.slot_id)
      0 cs
  in
  let step () =
    let wr = Array.to_list cs |> List.filter (fun c -> not (Queue.is_empty c.out)) in
    let r, w, _ =
      try
        Unix.select (Array.to_list (Array.map (fun c -> c.fd) cs)) (List.map (fun c -> c.fd) wr)
          [] 0.05
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    Array.iter
      (fun c ->
        if List.mem c.fd w then flush c;
        if List.mem c.fd r then read c;
        flush c)
      cs
  in
  Array.iter
    (fun c ->
      for slot = 0 to depth - 1 do
        send c slot
      done;
      flush c)
    cs;
  let t0 = Util.now () in
  while Util.now () < t0 +. warmup do
    step ()
  done;
  at_window `Start;
  phase := `Measure;
  let t_start = Util.now () and cpu0 = Util.cpu_s () in
  tw := Util.now_ns ();
  while Util.now () < t_start +. seconds do
    step ()
  done;
  let wall_s = Util.now () -. t_start and cpu_s = Util.cpu_s () -. cpu0 in
  phase := `Drain;
  at_window `End;
  let t_drain = Util.now () +. 30.0 in
  while in_flight () > 0 && Util.now () < t_drain do
    step ()
  done;
  let unanswered = in_flight () in
  Array.iter (fun c -> Unix.close c.fd) cs;
  { completed = !completed; failed = !failed; wall_s; cpu_frac = cpu_s /. wall_s;
    lats_us = Array.map Util.fsorted lats; samples = !samples; unanswered }

(* --- bitwise gate ---------------------------------------------------- *)

(* Each sampled reply must be bitwise what the scalar reference path
   computes for its request; an SLA reply settled at a MultiFloat rung
   must also match its fixed-tier twin.  Returns (checked, mismatches).
   [corrupt] perturbs every reference, so every sample must mismatch. *)
let check ?(corrupt = false) (pool : Gen.pool) samples =
  let memo = Hashtbl.create 256 in
  let expected idx =
    match Hashtbl.find_opt memo idx with
    | Some e -> e
    | None ->
        let e = Serve.Batcher.eval_one pool.Gen.reqs.(idx) in
        let e = if corrupt then Result.map Util.perturb e else e in
        Hashtbl.replace memo idx e;
        e
  in
  let bad = ref 0 in
  List.iter
    (fun (idx, payload) ->
      let req = pool.Gen.reqs.(idx) in
      let ok =
        match Result.bind (Obs.Json_out.parse payload) P.response_of_json with
        | Ok (P.Result { id; result; chosen; _ }) when id = req.P.id -> (
            match expected idx with
            | Ok want when Util.bits_equal result want -> (
                match (req.P.sla, chosen) with
                | Some _, Some (("mf2" | "mf3" | "mf4") as t) -> (
                    let terms = Char.code t.[2] - Char.code '0' in
                    match Serve.Batcher.eval_one (Serve.Batcher.pad_request ~terms req) with
                    | Ok twin -> Util.bits_equal result twin
                    | Error _ -> false)
                | _ -> true)
            | _ -> false)
        | _ -> false
      in
      if not ok then incr bad)
    samples;
  (List.length samples, !bad)
