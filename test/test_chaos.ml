(* lib/chaos: the determinism contracts behind the fault-injection
   subsystem.  The rng and plan layers must be pure functions of their
   seeds; the injector must fire on an exact count-based schedule and
   cost zero allocation when disarmed; priority displacement in the
   admission queue must shed oldest-lowest first and never touch
   equal-priority pushes; the client deadline must bound a read
   against a mute peer; and a server with armed syscall seams must
   stay bitwise-identical to the fault-free scalar path.

   No test here forks, so domain-spawning fixtures are safe
   anywhere. *)

module P = Serve.Protocol
module F = Chaos.Fault
module I = Chaos.Injector

let bits = Int64.bits_of_float

let elements_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ea eb ->
         Array.length ea = Array.length eb
         && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) ea eb)
       a b

(* --- rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  for n = 0 to 99 do
    Alcotest.(check int64) "hash reproducible"
      (Chaos.Rng.hash ~seed:42 ~salt:7 ~n)
      (Chaos.Rng.hash ~seed:42 ~salt:7 ~n);
    let u = Chaos.Rng.uniform ~seed:42 ~salt:7 ~n in
    Alcotest.(check (float 0.0)) "uniform reproducible" u
      (Chaos.Rng.uniform ~seed:42 ~salt:7 ~n);
    Alcotest.(check bool) "uniform in [0,1)" true (u >= 0.0 && u < 1.0)
  done;
  (* streams and seeds decorrelate *)
  Alcotest.(check bool) "seed matters" false
    (Int64.equal
       (Chaos.Rng.hash ~seed:1 ~salt:7 ~n:3)
       (Chaos.Rng.hash ~seed:2 ~salt:7 ~n:3));
  Alcotest.(check bool) "salt matters" false
    (Int64.equal
       (Chaos.Rng.hash ~seed:1 ~salt:7 ~n:3)
       (Chaos.Rng.hash ~seed:1 ~salt:8 ~n:3))

let test_rng_backoff () =
  for attempt = 0 to 20 do
    let ms =
      Chaos.Rng.backoff_ms ~seed:0 ~stream:5 ~attempt ~base_ms:10.0
    in
    Alcotest.(check (float 0.0)) "backoff reproducible" ms
      (Chaos.Rng.backoff_ms ~seed:0 ~stream:5 ~attempt ~base_ms:10.0);
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d in [5, 500] ms (got %g)" attempt ms)
      true
      (ms >= 5.0 && ms <= 500.0)
  done

(* --- plan ------------------------------------------------------------- *)

let test_plan_deterministic () =
  List.iter
    (fun (s : Chaos.Plan.scenario) ->
      let a = Chaos.Plan.actions ~seed:3 s ~n:64 in
      let b = Chaos.Plan.actions ~seed:3 s ~n:64 in
      Alcotest.(check bool) (s.Chaos.Plan.name ^ " schedule reproducible") true
        (a = b);
      let non_clean =
        Array.fold_left
          (fun k act -> if act = Chaos.Plan.Clean then k else k + 1)
          0 a
      in
      match Chaos.Plan.injected_count ~seed:3 s ~n:64 with
      | Some k ->
          Alcotest.(check int) (s.Chaos.Plan.name ^ " injected count exact")
            non_clean k;
          Alcotest.(check bool) (s.Chaos.Plan.name ^ " wire scenario") true
            (s.Chaos.Plan.wire <> [])
      | None ->
          Alcotest.(check int) (s.Chaos.Plan.name ^ " seam-only: no wire actions")
            0 non_clean)
    Chaos.Plan.matrix

let test_plan_lookup () =
  Alcotest.(check bool) "matrix non-empty" true (Chaos.Plan.matrix <> []);
  List.iter
    (fun (s : Chaos.Plan.scenario) ->
      match Chaos.Plan.find s.Chaos.Plan.name with
      | Some s' ->
          Alcotest.(check string) "find returns the scenario"
            s.Chaos.Plan.name s'.Chaos.Plan.name
      | None -> Alcotest.fail ("find lost " ^ s.Chaos.Plan.name))
    Chaos.Plan.matrix;
  Alcotest.(check bool) "unknown name" true
    (Chaos.Plan.find "no-such-scenario" = None)

(* --- injector --------------------------------------------------------- *)

let schedule () =
  I.arm ~seed:7 [ (F.Read, [ (F.Eintr, 5) ]) ];
  let l = List.init 50 (fun _ -> I.read_fault ()) in
  I.disarm ();
  l

let test_injector_schedule () =
  let a = schedule () in
  let b = schedule () in
  Alcotest.(check bool) "re-arm reproduces the firing pattern" true (a = b);
  let fired = List.length (List.filter (fun f -> f = F.Eintr) a) in
  (* 50 calls at period 5: exactly one firing per period window *)
  Alcotest.(check int) "period honored exactly" 10 fired;
  Alcotest.(check bool) "everything else passes" true
    (List.for_all (fun f -> f = F.Eintr || f = F.Pass) a);
  (* sites are independent streams: the write seam was never armed *)
  I.arm ~seed:7 [ (F.Read, [ (F.Eintr, 5) ]) ];
  Alcotest.(check bool) "unarmed site passes" true (I.write_fault () = F.Pass);
  I.disarm ()

let test_injector_disarmed_zero_alloc () =
  I.disarm ();
  (* warm the code paths before measuring *)
  for _ = 1 to 100 do
    ignore (I.read_fault ());
    ignore (I.write_fault ());
    ignore (I.accept_fault ());
    ignore (I.wait_fault ());
    ignore (I.dispatch_fault ());
    ignore (I.fork_fault ())
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 50_000 do
    ignore (I.read_fault ());
    ignore (I.write_fault ());
    ignore (I.accept_fault ());
    ignore (I.wait_fault ());
    ignore (I.dispatch_fault ());
    ignore (I.fork_fault ())
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "disarmed hooks allocate nothing" 0.0 delta

(* --- admission priority displacement ---------------------------------- *)

let test_admission_displacement () =
  let q = Serve.Admission.create ~capacity:2 in
  let displaced = ref 0 in
  let push ?priority v =
    let r = Serve.Admission.push ?priority q v in
    (match r with `Displaced _ -> incr displaced | _ -> ());
    r
  in
  Alcotest.(check bool) "a admitted" true (push "a" = `Ok);
  Alcotest.(check bool) "b admitted" true (push "b" = `Ok);
  (* equal priorities keep the historical full-means-`Full behavior *)
  Alcotest.(check bool) "tie never displaces" true (push "c" = `Full);
  (* a higher-priority push evicts the oldest lowest-priority entry *)
  (match push ~priority:5 "d" with
  | `Displaced "a" -> ()
  | `Displaced v -> Alcotest.fail ("wrong victim: " ^ v)
  | _ -> Alcotest.fail "expected displacement");
  (match push ~priority:3 "e" with
  | `Displaced "b" -> ()
  | `Displaced v -> Alcotest.fail ("wrong victim: " ^ v)
  | _ -> Alcotest.fail "expected displacement");
  (* queue now d(5), e(3): a 4 displaces only the strictly lower 3 *)
  (match push ~priority:4 "f" with
  | `Displaced "e" -> ()
  | `Displaced v -> Alcotest.fail ("wrong victim: " ^ v)
  | _ -> Alcotest.fail "expected displacement");
  (* queue d(5), f(4): another 4 ties with the minimum and refuses *)
  Alcotest.(check bool) "equal-to-minimum refuses" true (push ~priority:4 "g" = `Full);
  Alcotest.(check int) "depth bounded throughout" 2 (Serve.Admission.depth q);
  Alcotest.(check int) "displacements counted" 3 !displaced;
  (* survivors drain in arrival order *)
  Serve.Admission.close q;
  Alcotest.(check (list string)) "FIFO among survivors" [ "d"; "f" ]
    (Serve.Admission.pop_batch q ~max:8 ~window_ns:0L);
  Serve.Admission.destroy q

(* --- client deadline -------------------------------------------------- *)

let sock_dir =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpan_chaos_test_%d" (Unix.getpid ()))
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
  Filename.concat sock_dir (Printf.sprintf "chaos_%d.sock" !sock_counter)

let test_client_deadline () =
  (* a listener that never accepts: connect lands in the backlog, the
     request is swallowed by the kernel, and no reply ever comes — the
     read deadline is the only way out *)
  let path = fresh_sock () in
  let srv = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close srv with _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind srv (Unix.ADDR_UNIX path);
      Unix.listen srv 4;
      let cl = Serve.Client.connect_sockaddr ~deadline_ms:300 (Unix.ADDR_UNIX path) in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close cl)
        (fun () ->
          let req =
            { P.id = 1; op = P.Add; tier = P.Mf2; sla = None; deadline_ms = None;
              prog = []; x = [| [| 1.0; 0.0 |] |]; y = [| [| 2.0; 0.0 |] |]; z = [||] }
          in
          let t0 = Unix.gettimeofday () in
          (match Serve.Client.call cl req with
          | exception Failure msg ->
              Alcotest.(check bool)
                ("failure names the deadline: " ^ msg)
                true
                (String.length msg >= 8
                && String.index_opt msg 'd' <> None
                &&
                let re = "deadline" in
                let n = String.length msg and m = String.length re in
                let rec scan i =
                  i + m <= n && (String.sub msg i m = re || scan (i + 1))
                in
                scan 0)
          | _ -> Alcotest.fail "read against a mute peer returned");
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "deadline bounded the wait (%.2fs)" elapsed)
            true
            (elapsed < 5.0)))

(* --- armed seams against a live server -------------------------------- *)

let chaos_req n =
  let v k = 1.0 +. (float_of_int ((n + k) mod 211) /. 211.0) in
  let e2 k = [| v k; v k *. 1e-17 |] in
  let e4 k = [| v k; v k *. 1e-17; v k *. 1e-34; v k *. 1e-51 |] in
  match n mod 4 with
  | 0 ->
      { P.id = n + 1; op = P.Add; tier = P.Mf2; sla = None; deadline_ms = None;
        prog = []; x = [| e2 0 |]; y = [| e2 1 |]; z = [||] }
  | 1 ->
      { P.id = n + 1; op = P.Mul; tier = P.Mf4; sla = None; deadline_ms = None;
        prog = []; x = [| e4 0 |]; y = [| e4 1 |]; z = [||] }
  | 2 ->
      { P.id = n + 1; op = P.Sqrt; tier = P.Mf3; sla = None; deadline_ms = None;
        prog = [];
        x = [| [| v 0; v 0 *. 1e-17; v 0 *. 1e-34 |] |]; y = [||]; z = [||] }
  | _ ->
      { P.id = n + 1; op = P.Div; tier = P.Mf2; sla = Some 60; deadline_ms = None;
        prog = []; x = [| e2 0 |]; y = [| e2 1 |]; z = [||] }

let test_armed_server_bitwise () =
  let s =
    match Chaos.Plan.find "syscall-noise" with
    | Some s -> s
    | None -> Alcotest.fail "syscall-noise scenario missing"
  in
  let path = fresh_sock () in
  Runtime.Sched.with_sched ~workers:2 (fun sched ->
      I.arm ~seed:0 s.Chaos.Plan.seam_rules;
      Fun.protect
        ~finally:(fun () -> I.disarm ())
        (fun () ->
          let srv =
            Serve.Server.start ~sched ~addr:(Serve.Server.Unix_path path)
              ~queue_capacity:64 ~max_batch:8 ~window_us:100. ()
          in
          Fun.protect
            ~finally:(fun () -> Serve.Server.stop srv)
            (fun () ->
              let cl =
                Serve.Client.connect_sockaddr ~deadline_ms:10_000
                  (Unix.ADDR_UNIX path)
              in
              Fun.protect
                ~finally:(fun () -> Serve.Client.close cl)
                (fun () ->
                  for n = 0 to 39 do
                    let req = chaos_req n in
                    let expect =
                      match Serve.Batcher.eval_one req with
                      | Ok e -> e
                      | Error e -> Alcotest.fail e
                    in
                    match Serve.Client.call_retry ~seed:0 cl req with
                    | P.Result { result; _ } ->
                        Alcotest.(check bool)
                          (Printf.sprintf "request %d bitwise under noise" n)
                          true
                          (elements_bits_equal result expect)
                    | _ ->
                        Alcotest.fail
                          (Printf.sprintf "request %d not served under noise" n)
                  done))))

let () =
  Alcotest.run "chaos"
    [ ( "rng",
        [ Alcotest.test_case "hash/uniform determinism" `Quick
            test_rng_deterministic;
          Alcotest.test_case "backoff schedule" `Quick test_rng_backoff ] );
      ( "plan",
        [ Alcotest.test_case "schedule determinism" `Quick
            test_plan_deterministic;
          Alcotest.test_case "matrix lookup" `Quick test_plan_lookup ] );
      ( "injector",
        [ Alcotest.test_case "count-based schedule" `Quick
            test_injector_schedule;
          Alcotest.test_case "disarmed is zero-allocation" `Quick
            test_injector_disarmed_zero_alloc ] );
      ( "admission",
        [ Alcotest.test_case "priority displacement" `Quick
            test_admission_displacement ] );
      ( "client",
        [ Alcotest.test_case "read deadline against a mute peer" `Quick
            test_client_deadline ] );
      ( "server",
        [ Alcotest.test_case "armed syscall seams stay bitwise" `Slow
            test_armed_server_bitwise ] ) ]
