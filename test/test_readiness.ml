(* The readiness loop under the server: registration / deregistration
   churn, event delivery with no spurious reports, and the regression
   the whole abstraction exists for — registering and serving a
   descriptor whose numeric value is beyond FD_SETSIZE. *)

module R = Serve.Readiness

let with_pipe f =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with _ -> ());
      try Unix.close w with _ -> ())
    (fun () -> f r w)

let test_churn () =
  let t = R.create () in
  let pipes = Array.init 100 (fun _ -> Unix.pipe ~cloexec:true ()) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun (r, w) ->
          (try Unix.close r with _ -> ());
          try Unix.close w with _ -> ())
        pipes)
    (fun () ->
      (* grow, interleaving adds with removes, several rounds *)
      for round = 1 to 3 do
        Array.iter (fun (r, _) -> R.add t r ~read:true ~write:false) pipes;
        Alcotest.(check int)
          (Printf.sprintf "all registered (round %d)" round)
          100 (R.registered t);
        Array.iteri
          (fun i (r, _) -> if i mod 2 = 0 then R.remove t r)
          pipes;
        Alcotest.(check int)
          (Printf.sprintf "half removed (round %d)" round)
          50 (R.registered t);
        (* double-add of a live registration is a caller bug *)
        (match pipes.(1) with
        | r, _ -> (
            match R.add t r ~read:true ~write:false with
            | () -> Alcotest.fail "double add accepted"
            | exception Invalid_argument _ -> ()));
        (* remove is idempotent: a second remove is a no-op *)
        (match pipes.(0) with r, _ -> R.remove t r);
        Array.iteri (fun i (r, _) -> if i mod 2 = 1 then R.remove t r) pipes;
        Alcotest.(check int)
          (Printf.sprintf "all removed (round %d)" round)
          0 (R.registered t)
      done;
      (* mem tracks membership through modify *)
      match pipes.(7) with
      | r, _ ->
          R.add t r ~read:true ~write:false;
          Alcotest.(check bool) "mem after add" true (R.mem t r);
          R.modify t r ~read:true ~write:true;
          Alcotest.(check bool) "mem after modify" true (R.mem t r);
          R.remove t r;
          Alcotest.(check bool) "mem after remove" false (R.mem t r))

let test_event_delivery () =
  let t = R.create () in
  with_pipe (fun r1 w1 ->
      with_pipe (fun r2 _w2 ->
          R.add t r1 ~read:true ~write:false;
          R.add t r2 ~read:true ~write:false;
          (* nothing ready: a timed wait returns no events *)
          Alcotest.(check int) "quiet timeout" 0 (List.length (R.wait t ~timeout_ms:10));
          (* only the fd with data reports — no spurious events for
             the idle sibling *)
          ignore (Unix.write w1 (Bytes.of_string "x") 0 1);
          let evs = R.wait t ~timeout_ms:1000 in
          Alcotest.(check int) "one event" 1 (List.length evs);
          let e = List.hd evs in
          Alcotest.(check bool) "right fd" true (e.R.fd = r1);
          Alcotest.(check bool) "readable" true e.R.readable;
          Alcotest.(check bool) "not writable" false e.R.writable;
          (* drained: the level-triggered report stops *)
          ignore (Unix.read r1 (Bytes.create 8) 0 8);
          Alcotest.(check int) "quiet after drain" 0 (List.length (R.wait t ~timeout_ms:10))))

let test_write_interest () =
  let t = R.create () in
  with_pipe (fun _r w ->
      (* read-only interest on a writable fd: no event *)
      R.add t w ~read:true ~write:false;
      Alcotest.(check int)
        "no write event without interest" 0
        (List.length (R.wait t ~timeout_ms:10));
      (* flip interest to writes: an empty pipe is ready at once *)
      R.modify t w ~read:false ~write:true;
      let evs = R.wait t ~timeout_ms:1000 in
      Alcotest.(check int) "writable event" 1 (List.length evs);
      Alcotest.(check bool) "writable flag" true (List.hd evs).R.writable)

let test_hangup () =
  let t = R.create () in
  let r, w = Unix.pipe ~cloexec:true () in
  R.add t r ~read:true ~write:false;
  Unix.close w;
  let evs = R.wait t ~timeout_ms:1000 in
  Alcotest.(check int) "hangup reported" 1 (List.length evs);
  let e = List.hd evs in
  Alcotest.(check bool) "hangup or readable" true (e.R.hangup || e.R.readable);
  R.remove t r;
  Unix.close r

let test_poll1 () =
  with_pipe (fun r w ->
      Alcotest.(check bool) "not readable yet" false
        (R.wait_readable r ~timeout_ms:10);
      Alcotest.(check bool) "writable pipe" true (R.wait_writable w ~timeout_ms:10);
      ignore (Unix.write w (Bytes.of_string "!") 0 1);
      Alcotest.(check bool) "readable now" true (R.wait_readable r ~timeout_ms:1000);
      match R.poll1 r ~read:true ~write:false ~timeout_ms:100 with
      | Some e ->
          Alcotest.(check bool) "poll1 readable" true e.R.readable;
          Alcotest.(check bool) "poll1 fd" true (e.R.fd = r)
      | None -> Alcotest.fail "poll1 returned no event")

(* The regression the poll loop exists for: a descriptor whose
   *value* is past FD_SETSIZE.  select(2) cannot represent it at all;
   poll serves it like any other.  The ladder of dups pushes a pipe's
   fd number beyond 1024 without needing 1024 live sockets. *)
let test_beyond_fd_setsize () =
  let target = 1300 in
  let r, w = Unix.pipe ~cloexec:true () in
  let held = ref [] in
  let high = ref r in
  (try
     while (Obj.magic !high : int) <= target do
       let d = Unix.dup ~cloexec:true r in
       held := d :: !held;
       high := d
     done
   with Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
     (* ulimit too low to manufacture a high descriptor: nothing to test *)
     List.iter (fun d -> try Unix.close d with _ -> ()) !held;
     Unix.close r;
     Unix.close w;
     Alcotest.skip ());
  let high = !high in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun d -> try Unix.close d with _ -> ()) !held;
      (try Unix.close r with _ -> ());
      try Unix.close w with _ -> ())
    (fun () ->
      Alcotest.(check bool) "fd value beyond FD_SETSIZE" true
        ((Obj.magic high : int) > 1024);
      let t = R.create () in
      R.add t high ~read:true ~write:false;
      ignore (Unix.write w (Bytes.of_string "!") 0 1);
      let evs = R.wait t ~timeout_ms:1000 in
      Alcotest.(check int) "high fd event" 1 (List.length evs);
      Alcotest.(check bool) "high fd readable" true (List.hd evs).R.readable;
      R.remove t high)

let () =
  Alcotest.run "readiness"
    [ ( "registration",
        [ Alcotest.test_case "churn" `Quick test_churn ] );
      ( "events",
        [ Alcotest.test_case "delivery, no spurious reports" `Quick
            test_event_delivery;
          Alcotest.test_case "write interest" `Quick test_write_interest;
          Alcotest.test_case "hangup" `Quick test_hangup;
          Alcotest.test_case "poll1 and timed waits" `Quick test_poll1 ] );
      ( "scale",
        [ Alcotest.test_case "fd beyond FD_SETSIZE" `Quick
            test_beyond_fd_setsize ] ) ]
