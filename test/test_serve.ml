(* Tests for lib/serve: wire-protocol framing and codecs, degradation
   of malformed frames (garbage, oversized, truncated) to error replies
   that never kill the event loop, per-request fuel isolation within a
   batch, reply/CLI byte identity, concurrent-client correlation by
   request id, and socket hygiene (stale socket recovery, double-serve
   diagnostics). *)

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; "{\"id\":1}"; String.make 70_000 'q' ] in
  let wire = String.concat "" (List.map Serve.Protocol.frame_of_payload payloads) in
  (* feed in awkward chunk sizes so every header/payload boundary is
     crossed mid-chunk at least once *)
  let d = Serve.Protocol.decoder () in
  let got = ref [] in
  let n = String.length wire in
  let rec feed off =
    if off < n then begin
      let len = min 3 (n - off) in
      Serve.Protocol.feed_string d (String.sub wire off len);
      let rec pop () =
        match Serve.Protocol.next_frame d with
        | Serve.Protocol.Frame p -> got := p :: !got; pop ()
        | Serve.Protocol.Need_more -> ()
        | Serve.Protocol.Oversized _ -> Alcotest.fail "unexpected oversized"
      in
      pop ();
      feed (off + len)
    end
  in
  feed 0;
  Alcotest.(check (list string)) "all frames recovered" payloads
    (List.rev !got);
  check_int "decoder drained" 0 (Serve.Protocol.buffered d)

let test_frame_oversized () =
  let d = Serve.Protocol.decoder ~max_frame:8 () in
  Serve.Protocol.feed_string d (Serve.Protocol.frame_of_payload "123456789");
  (match Serve.Protocol.next_frame d with
   | Serve.Protocol.Oversized n -> check_int "declared length" 9 n
   | _ -> Alcotest.fail "expected Oversized")

let test_codec_roundtrip () =
  let r =
    Serve.Protocol.request ~bench:"atax" ~budget:0.5 ~mode:"coupled-only"
      ~alpha:1.1 ~fuel:12345 ~max_invocations:3 ~id:7 "run"
  in
  (match
     Serve.Protocol.parse_request
       (Obs.Json.to_string (Serve.Protocol.request_to_json r))
   with
   | Ok r' -> check_bool "request roundtrip" true (r = r')
   | Error _ -> Alcotest.fail "request did not parse");
  let rep = Serve.Protocol.error_reply ~id:9 ~cls:"out-of-fuel" "msg" in
  (match
     Serve.Protocol.parse_reply
       (Obs.Json.to_string (Serve.Protocol.reply_to_json rep))
   with
   | Ok rep' -> check_bool "reply roundtrip" true (rep = rep')
   | Error m -> Alcotest.fail m);
  (* missing verb still recovers the id for the error reply *)
  (match Serve.Protocol.parse_request "{\"id\": 42}" with
   | Error (42, _) -> ()
   | _ -> Alcotest.fail "expected Error with id 42");
  (match Serve.Protocol.parse_request "]junk[" with
   | Error (0, _) -> ()
   | _ -> Alcotest.fail "expected Error with id 0")

(* ------------------------------------------------------------------ *)
(* In-process daemon helpers                                           *)
(* ------------------------------------------------------------------ *)

(* Serve a socketpair from a separate domain; hand the caller a client
   on the other end plus the raw fd (for byte-level poking). EOF from
   the client (closing its end) or a shutdown request both end the
   server. *)
let with_fd_server_fd ?(config = Serve.Server.default_config) f =
  let client_fd, server_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let dom =
    Domain.spawn (fun () ->
        Serve.Server.serve_fds ~config ~input:server_fd ~output:server_fd ())
  in
  let cl = Serve.Client.of_fds ~input:client_fd ~output:client_fd () in
  let finish () =
    (try Unix.close client_fd with Unix.Unix_error _ -> ());
    Domain.join dom;
    (try Unix.close server_fd with Unix.Unix_error _ -> ())
  in
  (match f cl client_fd with
   | () -> finish ()
   | exception e -> finish (); raise e)

let with_fd_server ?config f = with_fd_server_fd ?config (fun cl _ -> f cl)

let write_raw fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let temp_sock () =
  let f = Filename.temp_file "cayman-serve-test" ".sock" in
  Sys.remove f;
  f

let with_socket_server ?(config = Serve.Server.default_config) path f =
  let dom = Domain.spawn (fun () -> Serve.Server.serve_socket ~config path) in
  let cl = Serve.Client.connect_when_up path in
  (match f cl with
   | () ->
     Serve.Client.shutdown cl;
     Serve.Client.close cl;
     Domain.join dom
   | exception e ->
     (try Serve.Client.shutdown cl with _ -> ());
     Serve.Client.close cl;
     Domain.join dom;
     raise e)

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let test_health_and_bad_verb () =
  with_fd_server @@ fun cl ->
  let r = Serve.Client.rpc cl "health" in
  check_bool "health ok" true r.Serve.Protocol.rp_ok;
  check "health output" "ok\n" r.Serve.Protocol.rp_output;
  let r = Serve.Client.rpc cl "frobnicate" in
  check_bool "unknown verb fails" false r.Serve.Protocol.rp_ok;
  check "unknown verb class" "bad-request" r.Serve.Protocol.rp_class

(* A daemon's jobs, engine and store belong to its session: once it
   returns, whatever was in force before it is back. The session pins
   values unlike the ambient ones, so the check bites under any
   CAYMAN_INTERP/CAYMAN_JOBS. *)
let test_session_settings_restored () =
  let module I = Cayman_sim.Interp in
  let engine0 = I.current_engine () in
  let jobs0 = Engine.Config.jobs () in
  let active0 = Memo.Store.active () in
  Memo.Store.with_temp_dir @@ fun dir ->
  let config =
    { Serve.Server.default_config with
      Serve.Server.sc_interp =
        Some (match engine0 with I.Staged -> I.Reference | I.Reference -> I.Staged);
      sc_jobs = (if jobs0 = 3 then 2 else 3);
      sc_cache = true;
      sc_cache_dir = Some dir }
  in
  with_fd_server ~config (fun cl ->
      let r = Serve.Client.rpc cl "health" in
      check "health output" "ok\n" r.Serve.Protocol.rp_output);
  check "engine restored" (I.engine_name engine0)
    (I.engine_name (I.current_engine ()));
  check_int "jobs restored" jobs0 (Engine.Config.jobs ());
  check_bool "store restored" active0 (Memo.Store.active ())

let test_garbage_survival () =
  with_fd_server_fd @@ fun cl fd ->
  (* a well-framed payload that is not JSON: answered with an id-0
     error reply, the connection stays usable *)
  write_raw fd (Serve.Protocol.frame_of_payload "]this is not json[");
  let r = Serve.Client.recv cl ~id:0 in
  check_bool "garbage rejected" false r.Serve.Protocol.rp_ok;
  check "garbage class" "bad-request" r.Serve.Protocol.rp_class;
  (* valid JSON with an id but no verb: the error reply echoes the id *)
  write_raw fd (Serve.Protocol.frame_of_payload "{\"id\": 77}");
  let r = Serve.Client.recv cl ~id:77 in
  check_bool "verbless rejected" false r.Serve.Protocol.rp_ok;
  (* loop survived both: a real request still works *)
  let r = Serve.Client.rpc cl ~bench:"atax" "profile" in
  check_bool "post-garbage request ok" true r.Serve.Protocol.rp_ok

let test_oversized_frame_closes () =
  let config =
    { Serve.Server.default_config with Serve.Server.sc_max_frame = 64 }
  in
  with_fd_server ~config @@ fun cl ->
  Serve.Client.send cl
    (Serve.Protocol.request ~bench:(String.make 100 'x') ~id:5 "profile");
  let r = Serve.Client.recv_any cl in
  check_bool "oversized rejected" false r.Serve.Protocol.rp_ok;
  check "oversized class" "oversized-frame" r.Serve.Protocol.rp_class;
  (* the stream is unsyncable: the daemon hangs up *)
  (match Serve.Client.recv_any cl with
   | _ -> Alcotest.fail "expected EOF after oversized frame"
   | exception End_of_file -> ())

let test_truncated_frame_quiet_close () =
  let client_fd, server_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let dom =
    Domain.spawn (fun () ->
        Serve.Server.serve_fds ~input:server_fd ~output:server_fd ())
  in
  (* half a frame, then EOF: the daemon must just close and return *)
  let header = Serve.Protocol.frame_of_payload (String.make 100 'z') in
  let partial = String.sub header 0 10 in
  let b = Bytes.of_string partial in
  ignore (Unix.write client_fd b 0 (Bytes.length b));
  Unix.close client_fd;
  Domain.join dom;
  (try Unix.close server_fd with Unix.Unix_error _ -> ());
  ()

let expected_profile bench =
  match Serve.Handlers.load ~bench () with
  | Ok p -> Serve.Handlers.profile_text p
  | Error m -> Alcotest.fail m

let test_byte_identity_and_warm_cache () =
  with_fd_server @@ fun cl ->
  let ok = function Ok v -> v | Error m -> Alcotest.fail m in
  let p = ok (Serve.Handlers.load ~bench:"atax" ()) in
  List.iter
    (fun (verb, direct) ->
      let r1 = Serve.Client.rpc cl ~bench:"atax" verb in
      check_bool (verb ^ " ok") true r1.Serve.Protocol.rp_ok;
      check (verb ^ " reply = one-shot output (cold)") direct
        r1.Serve.Protocol.rp_output;
      let r2 = Serve.Client.rpc cl ~bench:"atax" verb in
      check (verb ^ " reply = one-shot output (warm)") direct
        r2.Serve.Protocol.rp_output)
    [ ( "run",
        ok (Serve.Handlers.run_text ~budget:0.25 ~mode:"full" ~alpha:1.08 p) );
      ( "cosim",
        fst (ok (Serve.Handlers.cosim_text ~budget:0.25 ~mode:"full" p)) ) ]

let test_fuel_isolation () =
  with_fd_server @@ fun cl ->
  (* one starved request and one healthy one, sent back to back so they
     can land in the same batch: the starved one must degrade to a
     structured error reply without touching its batch-mate *)
  Serve.Client.send cl (Serve.Protocol.request ~bench:"atax" ~fuel:10 ~id:1 "profile");
  Serve.Client.send cl (Serve.Protocol.request ~bench:"atax" ~id:2 "profile");
  let starved = Serve.Client.recv cl ~id:1 in
  let healthy = Serve.Client.recv cl ~id:2 in
  check_bool "starved errored" false starved.Serve.Protocol.rp_ok;
  check "starved class" "out-of-fuel" starved.Serve.Protocol.rp_class;
  check_bool "healthy ok" true healthy.Serve.Protocol.rp_ok;
  check "healthy output intact" (expected_profile "atax")
    healthy.Serve.Protocol.rp_output

let test_concurrent_clients () =
  let path = temp_sock () in
  with_socket_server path @@ fun cl1 ->
  let cl2 = Serve.Client.connect path in
  Fun.protect ~finally:(fun () -> Serve.Client.close cl2) @@ fun () ->
  let benches1 = [ "atax"; "bicg"; "mvt" ] in
  let benches2 = [ "mvt"; "atax"; "trisolv" ] in
  (* interleave sends across the two connections before reading any
     reply, with ids chosen so correlation actually matters *)
  List.iteri
    (fun i b ->
      Serve.Client.send cl1 (Serve.Protocol.request ~bench:b ~id:(10 + i) "profile");
      Serve.Client.send cl2
        (Serve.Protocol.request ~bench:(List.nth benches2 i) ~id:(20 + i)
           "profile"))
    benches1;
  (* read in reverse id order on purpose *)
  List.iteri
    (fun i b ->
      let r = Serve.Client.recv cl1 ~id:(12 - i) in
      check_bool "cl1 ok" true r.Serve.Protocol.rp_ok;
      check
        (Printf.sprintf "cl1 reply %d" (12 - i))
        (expected_profile (List.nth benches1 (2 - i)))
        r.Serve.Protocol.rp_output;
      ignore b)
    benches1;
  List.iteri
    (fun i b ->
      let r = Serve.Client.recv cl2 ~id:(20 + i) in
      check (Printf.sprintf "cl2 reply %d" (20 + i)) (expected_profile b)
        r.Serve.Protocol.rp_output)
    benches2

let test_stats_and_cache_verbs () =
  with_fd_server @@ fun cl ->
  let r = Serve.Client.rpc cl ~bench:"atax" "profile" in
  check_bool "profile ok" true r.Serve.Protocol.rp_ok;
  let s = Serve.Client.rpc cl "stats" in
  check_bool "stats ok" true s.Serve.Protocol.rp_ok;
  check_bool "stats mentions requests" true
    (String.length s.Serve.Protocol.rp_output > 0
     && String.sub s.Serve.Protocol.rp_output 0 9 = "requests:");
  let c = Serve.Client.rpc cl "cache-stats" in
  check_bool "cache-stats ok" true c.Serve.Protocol.rp_ok;
  let rst = Serve.Client.rpc cl "cache-reset" in
  check "cache-reset output" "in-memory caches reset\n"
    rst.Serve.Protocol.rp_output;
  (* still serves correctly after a reset *)
  let r2 = Serve.Client.rpc cl ~bench:"atax" "profile" in
  check "post-reset reply identical" r.Serve.Protocol.rp_output
    r2.Serve.Protocol.rp_output

(* ------------------------------------------------------------------ *)
(* Telemetry verbs                                                     *)
(* ------------------------------------------------------------------ *)

let parse_exposition (r : Serve.Protocol.reply) =
  check_bool "telemetry reply ok" true r.Serve.Protocol.rp_ok;
  match Obs.Expose.parse r.Serve.Protocol.rp_output with
  | Ok fams -> fams
  | Error m -> Alcotest.fail ("telemetry does not parse: " ^ m)

let test_telemetry_verb () =
  with_fd_server @@ fun cl ->
  let r = Serve.Client.rpc cl ~bench:"atax" "profile" in
  check_bool "profile ok" true r.Serve.Protocol.rp_ok;
  let fams = parse_exposition (Serve.Client.telemetry cl) in
  (match Obs.Expose.find fams "cayman_serve_requests_total" with
   | None -> Alcotest.fail "request counter missing from exposition"
   | Some f ->
     (match Obs.Expose.sample_value f "" with
      | Some (Obs.Expose.V_int n) -> check_bool "requests counted" true (n >= 1)
      | _ -> Alcotest.fail "request counter sample missing"));
  check_bool "per-verb window family present" true
    (Obs.Expose.find fams "cayman_window_serve_verb_profile_requests" <> None);
  check_bool "latency window carries quantiles" true
    (match Obs.Expose.find fams "cayman_window_serve_latency_us" with
     | None -> false
     | Some f ->
       Obs.Expose.sample_value f ~labels:[ "quantile", "0.5" ] "" <> None);
  (* the exposition is canonical: it re-renders byte-exactly *)
  let r2 = Serve.Client.telemetry cl in
  (match Obs.Expose.parse r2.Serve.Protocol.rp_output with
   | Ok fams2 ->
     check "telemetry text is canonical" r2.Serve.Protocol.rp_output
       (Obs.Expose.render fams2)
   | Error m -> Alcotest.fail m)

let test_log_tail_verb () =
  Obs.Log.reset ();
  with_fd_server @@ fun cl ->
  let r = Serve.Client.rpc cl ~bench:"atax" "profile" in
  check_bool "profile ok" true r.Serve.Protocol.rp_ok;
  let t = Serve.Client.log_tail cl ~n:10 () in
  check_bool "log-tail ok" true t.Serve.Protocol.rp_ok;
  match Obs.Json.parse t.Serve.Protocol.rp_output with
  | Error m -> Alcotest.fail ("log-tail is not JSON: " ^ m)
  | Ok j ->
    let events =
      match Option.bind (Obs.Json.member "events" j) Obs.Json.to_list with
      | Some l -> l
      | None -> Alcotest.fail "log-tail has no events array"
    in
    check_bool "audit records present" true (events <> []);
    let field e name =
      Option.bind (Obs.Json.member "fields" e) (Obs.Json.member name)
    in
    (* the profile request's audit record: verb, ok outcome, wall time *)
    (match
       List.find_opt
         (fun e ->
           Option.bind (field e "verb") Obs.Json.to_string_opt
           = Some "profile")
         events
     with
     | None -> Alcotest.fail "no audit record for the profile request"
     | Some e ->
       check_bool "outcome recorded" true
         (Option.bind (field e "outcome") Obs.Json.to_string_opt = Some "ok");
       check_bool "wall time recorded" true
         (match Option.bind (field e "wall_us") Obs.Json.to_int with
          | Some us -> us >= 0
          | None -> false);
       check_bool "cache disposition recorded" true
         (match Option.bind (field e "cache") Obs.Json.to_string_opt with
          | Some ("hit" | "miss") -> true
          | _ -> false))

let test_watch_stream () =
  let config =
    { Serve.Server.default_config with Serve.Server.sc_tick_s = 0.02 }
  in
  with_fd_server ~config @@ fun cl ->
  let id, first = Serve.Client.watch cl in
  let (_ : Obs.Expose.t) = parse_exposition first in
  (* the daemon now pushes a frame per window tick under the same id *)
  for _ = 1 to 2 do
    let frame = Serve.Client.watch_next cl ~id in
    check_int "pushed frame keeps the stream id" id frame.Serve.Protocol.rp_id;
    let (_ : Obs.Expose.t) = parse_exposition frame in
    ()
  done;
  (* the connection still serves ordinary requests mid-stream *)
  let r = Serve.Client.rpc cl "health" in
  check "health mid-stream" "ok\n" r.Serve.Protocol.rp_output

(* The unknown-verb reply names every verb the dispatch actually knows,
   and stays in sync with it: the advertised list parses back to exactly
   [Serve.Server.known_verbs], and no advertised verb is itself answered
   with an unknown-verb error. *)
let test_unknown_verb_lists_known () =
  with_fd_server @@ fun cl ->
  let r = Serve.Client.rpc cl "bogus" in
  check_bool "unknown verb fails" false r.Serve.Protocol.rp_ok;
  check "unknown verb class" "bad-request" r.Serve.Protocol.rp_class;
  let msg = r.Serve.Protocol.rp_output in
  check "reply echoes the dispatch table"
    (Printf.sprintf "unknown verb bogus (known verbs: %s)"
       (String.concat ", " Serve.Server.known_verbs))
    msg;
  (* sync check in the other direction: every advertised verb really
     dispatches (shutdown is exercised by the socket-server tests) *)
  List.iter
    (fun verb ->
      if verb <> "shutdown" then begin
        let r = Serve.Client.rpc cl ~bench:"atax" verb in
        check_bool
          (Printf.sprintf "verb %s is dispatched" verb)
          false
          (String.starts_with ~prefix:"unknown verb"
             r.Serve.Protocol.rp_output)
      end)
    Serve.Server.known_verbs

let test_stats_reports_dropped_spans () =
  with_fd_server @@ fun cl ->
  let s = Serve.Client.rpc cl "stats" in
  check_bool "stats ok" true s.Serve.Protocol.rp_ok;
  let has_line line =
    String.split_on_char '\n' s.Serve.Protocol.rp_output
    |> List.exists (fun l -> String.starts_with ~prefix:line l)
  in
  check_bool "stats surfaces the span drop counter" true
    (has_line "spans dropped:")

(* ------------------------------------------------------------------ *)
(* Socket hygiene                                                      *)
(* ------------------------------------------------------------------ *)

let test_stale_socket_recovery () =
  let path = temp_sock () in
  (* fabricate a stale socket: bind and close without unlinking *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  check_bool "stale socket file exists" true (Sys.file_exists path);
  with_socket_server path (fun cl ->
      let r = Serve.Client.rpc cl "health" in
      check "health over recovered socket" "ok\n" r.Serve.Protocol.rp_output);
  check_bool "socket removed on shutdown" false (Sys.file_exists path)

let test_double_serve_diagnostic () =
  let path = temp_sock () in
  with_socket_server path @@ fun _cl ->
  (match Serve.Server.serve_socket path with
   | () -> Alcotest.fail "second daemon on the same socket must refuse"
   | exception Cayman_frontend.Diag.Error d ->
     check "diagnosed phase" "serve" d.Cayman_frontend.Diag.d_phase)

let test_non_socket_refused () =
  let path = Filename.temp_file "cayman-serve-test" ".notasock" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (match Serve.Server.serve_socket path with
   | () -> Alcotest.fail "must refuse to replace a non-socket"
   | exception Cayman_frontend.Diag.Error d ->
     check "diagnosed phase" "serve" d.Cayman_frontend.Diag.d_phase);
  check_bool "file untouched" true (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* Overload hardening                                                  *)
(* ------------------------------------------------------------------ *)

let frame_of_request r =
  Serve.Protocol.frame_of_payload
    (Obs.Json.to_string (Serve.Protocol.request_to_json r))

(* A flood beyond the pending-queue cap, delivered as one blob so the
   daemon parses it in a single wave: the first [sc_max_queue] requests
   are admitted, the rest shed immediately with a structured overloaded
   reply carrying a retry-after hint — and every request gets SOME
   answer, in particular the shed ones before the admitted ones finish. *)
let test_overload_shed () =
  let config =
    { Serve.Server.default_config with Serve.Server.sc_max_queue = 4 }
  in
  with_fd_server_fd ~config @@ fun cl fd ->
  let blob =
    String.concat ""
      (List.init 10 (fun i ->
           frame_of_request
             (Serve.Protocol.request ~bench:"atax" ~id:(i + 1) "profile")))
  in
  write_raw fd blob;
  let expected = expected_profile "atax" in
  for id = 1 to 4 do
    let r = Serve.Client.recv cl ~id in
    check_bool (Printf.sprintf "request %d admitted" id) true
      r.Serve.Protocol.rp_ok;
    check (Printf.sprintf "request %d output" id) expected
      r.Serve.Protocol.rp_output
  done;
  for id = 5 to 10 do
    let r = Serve.Client.recv cl ~id in
    check_bool (Printf.sprintf "request %d shed" id) false
      r.Serve.Protocol.rp_ok;
    check (Printf.sprintf "request %d class" id) "overloaded"
      r.Serve.Protocol.rp_class;
    check_bool
      (Printf.sprintf "request %d carries retry hint" id)
      true
      (Testutil.contains r.Serve.Protocol.rp_output "retry-after-ms=")
  done;
  (* the connection survived the flood *)
  let r = Serve.Client.rpc cl ~bench:"atax" "profile" in
  check "post-flood request ok" expected r.Serve.Protocol.rp_output

(* With a starvation-level fuel-per-ms rate, a 1 ms deadline queued
   behind another compute either expires while queued or gets a fuel
   clamp it cannot finish under — both must surface as a structured
   deadline-expired reply, while the deadline-free batch-mate is
   untouched. *)
let test_deadline_expired () =
  let config =
    { Serve.Server.default_config with
      Serve.Server.sc_fuel_per_ms = 1;
      sc_max_batch = 1
    }
  in
  with_fd_server_fd ~config @@ fun cl fd ->
  write_raw fd
    (frame_of_request (Serve.Protocol.request ~bench:"fft" ~id:1 "profile")
    ^ frame_of_request
        (Serve.Protocol.request ~bench:"atax" ~deadline_ms:1 ~id:2 "profile"));
  let r1 = Serve.Client.recv cl ~id:1 in
  check_bool "deadline-free batch-mate ok" true r1.Serve.Protocol.rp_ok;
  check "deadline-free output" (expected_profile "fft")
    r1.Serve.Protocol.rp_output;
  let r2 = Serve.Client.recv cl ~id:2 in
  check_bool "tight deadline fails" false r2.Serve.Protocol.rp_ok;
  check "tight deadline class" "deadline-expired" r2.Serve.Protocol.rp_class

(* A generous deadline must not perturb the reply at all: the fuel
   clamp it implies exceeds the ambient budget, so the output is
   byte-identical to the deadline-free one. *)
let test_deadline_generous () =
  with_fd_server @@ fun cl ->
  let r = Serve.Client.rpc cl ~bench:"atax" ~deadline_ms:60_000 "profile" in
  check_bool "generous deadline ok" true r.Serve.Protocol.rp_ok;
  check "generous deadline output" (expected_profile "atax")
    r.Serve.Protocol.rp_output

(* Graceful drain: a shutdown arriving in the same wave as two compute
   requests is acknowledged immediately, but the daemon still answers
   the admitted work before closing the connection and returning. *)
let test_graceful_drain_finishes_pending () =
  with_fd_server_fd @@ fun cl fd ->
  write_raw fd
    (frame_of_request (Serve.Protocol.request ~bench:"fft" ~id:1 "profile")
    ^ frame_of_request (Serve.Protocol.request ~bench:"atax" ~id:2 "profile")
    ^ frame_of_request (Serve.Protocol.request ~id:3 "shutdown"));
  let ack = Serve.Client.recv cl ~id:3 in
  check "shutdown acknowledged" "shutting down\n" ack.Serve.Protocol.rp_output;
  let r1 = Serve.Client.recv cl ~id:1 in
  check "drained reply 1" (expected_profile "fft") r1.Serve.Protocol.rp_output;
  let r2 = Serve.Client.recv cl ~id:2 in
  check "drained reply 2" (expected_profile "atax") r2.Serve.Protocol.rp_output;
  (* all pending work answered; now the daemon hangs up and exits *)
  (match Serve.Client.recv_any cl with
   | _ -> Alcotest.fail "expected EOF after drain"
   | exception End_of_file -> ())

(* The ISSUE acceptance criterion: one peer floods itself with big
   replies and never reads them; the slow-client policy must disconnect
   it at the write-buffer cap instead of buffering unboundedly, and —
   the point — other connections keep being served throughout. *)
let test_stalled_reader_isolation () =
  let config =
    { Serve.Server.default_config with
      Serve.Server.sc_max_write_buf = 64 * 1024
    }
  in
  let path = temp_sock () in
  let m_slow = Obs.Metrics.counter "serve.slow_client_disconnects" in
  let m_requests = Obs.Metrics.counter "serve.requests" in
  let m_analyzes = Obs.Metrics.counter "core.analyzes" in
  let m_dropped = Obs.Metrics.counter "serve.dropped_closed" in
  let slow_before = Obs.Metrics.value m_slow in
  let dropped_before = Obs.Metrics.value m_dropped in
  let requests_before = Obs.Metrics.value m_requests in
  with_socket_server ~config path @@ fun cl ->
  (* a raw peer that asks for ~1 MB of dump replies and never reads:
     far beyond the kernel socket buffer plus the 64 KB user-space cap *)
  let stalled = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close stalled with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect stalled (Unix.ADDR_UNIX path);
  let blob =
    String.concat ""
      (List.init 100 (fun i ->
           frame_of_request
             (Serve.Protocol.request ~bench:"fft" ~id:(i + 1) "dump")))
  in
  write_raw stalled blob;
  (* while the stalled peer's replies pile up, a well-behaved client on
     another connection must still be served, byte-correctly *)
  let r = Serve.Client.rpc cl ~bench:"atax" "profile" in
  check_bool "well-behaved client served during stall" true
    r.Serve.Protocol.rp_ok;
  check "well-behaved reply intact" (expected_profile "atax")
    r.Serve.Protocol.rp_output;
  (* the stalled peer must have been disconnected at the cap (the
     daemon domain shares this process's metric registry). How long
     that takes depends on how fast the daemon computes the dumps, so
     the wait follows its progress rather than a fixed time. Replies
     are counted ([serve.requests]) only once their whole batch of up
     to 64 is computed, so a dump the daemon starts ([core.analyzes])
     counts as progress too. The wait fails once all 100 dumps (and
     the profile) were answered without a disconnect, when neither
     counter moved for [stall_s], or after a generous backstop. *)
  let stall_s = 15.0 and backstop_s = 600.0 in
  let disconnected () = Obs.Metrics.value m_slow > slow_before in
  let progress () =
    Obs.Metrics.value m_requests + Obs.Metrics.value m_analyzes
  in
  let t0 = Unix.gettimeofday () in
  let rec wait ~seen ~moved_at =
    let now = Unix.gettimeofday () in
    let p = progress () in
    let moved_at = if p > seen then now else moved_at in
    if disconnected () then ()
    else if Obs.Metrics.value m_requests - requests_before >= 101 then begin
      (* a reply is counted just before it is written, and the write is
         where the cap disconnects the peer *)
      Unix.sleepf 0.1;
      if not (disconnected ()) then
        Alcotest.fail "all stalled dumps answered without a slow-client \
                       disconnect"
    end
    else if now -. moved_at > stall_s then
      Alcotest.failf "no slow-client disconnect and no progress for %.0f s"
        stall_s
    else if now -. t0 > backstop_s then
      Alcotest.failf "no slow-client disconnect after %.0f s" backstop_s
    else begin
      Unix.sleepf 0.01;
      wait ~seen:p ~moved_at
    end
  in
  wait ~seen:(progress ()) ~moved_at:t0;
  (* The batch whose replies overflowed the cap was computed in full
     before any of them was written, so every analysis it needed is
     counted by now. The stalled peer's requests still queued behind it
     must be dropped, not computed: a compute request sent now is
     answered only after every request queued before it, and by then
     the daemon may have run its own analysis alone. *)
  let analyzes_at_disconnect = Obs.Metrics.value m_analyzes in
  let r = Serve.Client.rpc cl ~bench:"atax" "profile" in
  check_bool "probe after the disconnect served" true r.Serve.Protocol.rp_ok;
  let grown = Obs.Metrics.value m_analyzes - analyzes_at_disconnect in
  if grown > 1 then
    Alcotest.failf
      "%d analyses ran after the stalled peer was disconnected (at most the \
       probe's own may)"
      grown;
  check_bool "the stalled peer's queued requests were dropped" true
    (Obs.Metrics.value m_dropped > dropped_before);
  (* and the stats verb reports it *)
  let s = Serve.Client.rpc cl "stats" in
  check_bool "stats reports slow-client disconnects" true
    (Testutil.contains s.Serve.Protocol.rp_output "slow-client disconnects:")

(* With admission switched off entirely (queue cap 0), every compute
   attempt is shed; rpc_retry must back off and retry exactly
   r_attempts times, then surface the final overloaded reply as-is. *)
let test_client_retry_exhausts_on_shed () =
  let config =
    { Serve.Server.default_config with Serve.Server.sc_max_queue = 0 }
  in
  let m_shed = Obs.Metrics.counter "serve.shed" in
  with_fd_server ~config @@ fun cl ->
  let shed_before = Obs.Metrics.value m_shed in
  let retry =
    { Serve.Client.r_attempts = 3;
      r_base_delay_s = 0.005;
      r_max_delay_s = 0.02
    }
  in
  let r = Serve.Client.rpc_retry cl ~retry ~bench:"atax" "profile" in
  check_bool "final reply is the shed" false r.Serve.Protocol.rp_ok;
  check "final class" "overloaded" r.Serve.Protocol.rp_class;
  check_int "one shed per attempt" 3
    (Obs.Metrics.value m_shed - shed_before);
  (* control verbs bypass admission: the connection is still healthy *)
  let h = Serve.Client.rpc cl "health" in
  check "health bypasses admission" "ok\n" h.Serve.Protocol.rp_output

(* A daemon restart: sends on the dead connection fail with a
   structured diagnostic naming the socket path, and reconnect dials
   the fresh daemon so the same client value keeps working. *)
let test_client_reconnect_after_restart () =
  let path = temp_sock () in
  let spawn () = Domain.spawn (fun () -> Serve.Server.serve_socket path) in
  let dom1 = spawn () in
  let cl = Serve.Client.connect_when_up path in
  let r = Serve.Client.rpc cl "health" in
  check "health before restart" "ok\n" r.Serve.Protocol.rp_output;
  Serve.Client.shutdown cl;
  Domain.join dom1;
  (* the daemon is gone: a send must fail with a structured error that
     names the socket path, not a bare Unix_error *)
  (match Serve.Client.send cl (Serve.Protocol.request ~id:99 "health") with
   | () -> Alcotest.fail "send on a dead connection must raise"
   | exception Cayman_frontend.Diag.Error d ->
     check "send error phase" "serve-client" d.Cayman_frontend.Diag.d_phase;
     check_bool "send error names the socket" true
       (Testutil.contains d.Cayman_frontend.Diag.d_message path));
  (* restart on the same path; reconnect until the new daemon answers *)
  let dom2 = spawn () in
  let rec reconnect_until n =
    if n = 0 then Alcotest.fail "reconnect never reached the new daemon";
    match
      Serve.Client.reconnect cl;
      Serve.Client.rpc cl "health"
    with
    | r -> r
    | exception
        ( Unix.Unix_error _ | End_of_file | Cayman_frontend.Diag.Error _ ) ->
      Unix.sleepf 0.01;
      reconnect_until (n - 1)
  in
  let r = reconnect_until 500 in
  check "health after reconnect" "ok\n" r.Serve.Protocol.rp_output;
  Serve.Client.shutdown cl;
  Serve.Client.close cl;
  Domain.join dom2

(* ------------------------------------------------------------------ *)
(* Protocol decoder fuzz                                               *)
(* ------------------------------------------------------------------ *)

(* However the wire is chunked, the decoder recovers exactly the frames
   that were sent, and ends fully drained. *)
let fuzz_decoder_chunking =
  Testutil.qtest ~count:300 "decoder: chunking never changes frames"
    QCheck.(
      pair
        (small_list (string_of_size (Gen.int_range 0 300)))
        (small_list small_nat))
    (fun (payloads, splits) ->
      let wire =
        String.concat ""
          (List.map Serve.Protocol.frame_of_payload payloads)
      in
      let d = Serve.Protocol.decoder () in
      let got = ref [] in
      let rec pop () =
        match Serve.Protocol.next_frame d with
        | Serve.Protocol.Frame p ->
          got := p :: !got;
          pop ()
        | Serve.Protocol.Need_more -> ()
        | Serve.Protocol.Oversized _ -> ()
      in
      let n = String.length wire in
      let n_splits = List.length splits in
      let rec feed off k =
        if off < n then begin
          let step =
            if n_splits = 0 then 7
            else 1 + (List.nth splits (k mod n_splits) mod 97)
          in
          let len = min step (n - off) in
          Serve.Protocol.feed_string d (String.sub wire off len);
          pop ();
          feed (off + len) (k + 1)
        end
      in
      feed 0 0;
      List.rev !got = payloads && Serve.Protocol.buffered d = 0)

(* Adversarial bytes: flip random bytes of a valid stream (headers
   included, so declared lengths lie) and decode with a small frame
   cap. The decoder must never raise — every outcome is a Frame, a
   Need_more, or an Oversized — and whatever frames it does emit must
   go through parse_request without raising either. *)
let fuzz_decoder_mutations =
  Testutil.qtest ~count:300 "decoder: mutated streams never raise"
    QCheck.(
      pair
        (small_list (string_of_size (Gen.int_range 0 300)))
        (small_list (pair small_nat small_nat)))
    (fun (payloads, muts) ->
      let wire =
        Bytes.of_string
          (String.concat ""
             (List.map Serve.Protocol.frame_of_payload payloads))
      in
      let n = Bytes.length wire in
      if n > 0 then
        List.iter
          (fun (pos, byte) ->
            Bytes.set wire (pos mod n) (Char.chr (byte land 0xff)))
          muts;
      match
        let d = Serve.Protocol.decoder ~max_frame:4096 () in
        Serve.Protocol.feed_string d (Bytes.to_string wire);
        let continue = ref true in
        while !continue do
          match Serve.Protocol.next_frame d with
          | Serve.Protocol.Frame p ->
            (* emitted frames must parse or fail structurally, never
               raise *)
            ignore (Serve.Protocol.parse_request p)
          | Serve.Protocol.Need_more -> continue := false
          | Serve.Protocol.Oversized _ ->
            (* the server closes the connection here; stop like it *)
            continue := false
        done
      with
      | () -> true
      | exception _ -> false)

let tests =
  [ Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame oversized" `Quick test_frame_oversized;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "health + bad verb" `Quick test_health_and_bad_verb;
    Alcotest.test_case "garbage survival" `Quick test_garbage_survival;
    Alcotest.test_case "session settings restored" `Quick
      test_session_settings_restored;
    Alcotest.test_case "oversized frame closes" `Quick
      test_oversized_frame_closes;
    Alcotest.test_case "truncated frame quiet close" `Quick
      test_truncated_frame_quiet_close;
    Alcotest.test_case "byte identity + warm cache" `Quick
      test_byte_identity_and_warm_cache;
    Alcotest.test_case "per-request fuel isolation" `Quick
      test_fuel_isolation;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "stats + cache verbs" `Quick
      test_stats_and_cache_verbs;
    Alcotest.test_case "telemetry verb" `Quick test_telemetry_verb;
    Alcotest.test_case "log-tail audit records" `Quick test_log_tail_verb;
    Alcotest.test_case "watch pushes frames" `Quick test_watch_stream;
    Alcotest.test_case "unknown verb lists known verbs" `Quick
      test_unknown_verb_lists_known;
    Alcotest.test_case "stats reports dropped spans" `Quick
      test_stats_reports_dropped_spans;
    Alcotest.test_case "stale socket recovery" `Quick
      test_stale_socket_recovery;
    Alcotest.test_case "double serve diagnostic" `Quick
      test_double_serve_diagnostic;
    Alcotest.test_case "non-socket refused" `Quick test_non_socket_refused;
    Alcotest.test_case "overload shed at queue cap" `Quick
      test_overload_shed;
    Alcotest.test_case "deadline expired" `Quick test_deadline_expired;
    Alcotest.test_case "deadline generous is a no-op" `Quick
      test_deadline_generous;
    Alcotest.test_case "graceful drain finishes pending" `Quick
      test_graceful_drain_finishes_pending;
    Alcotest.test_case "stalled reader isolation" `Quick
      test_stalled_reader_isolation;
    Alcotest.test_case "client retry exhausts on shed" `Quick
      test_client_retry_exhausts_on_shed;
    Alcotest.test_case "client reconnect after restart" `Quick
      test_client_reconnect_after_restart;
    fuzz_decoder_chunking;
    fuzz_decoder_mutations ]
