(* The Cayman compilation daemon (DESIGN.md sections 12 and 14).

   One process serves many clients over a Unix-domain socket (or a
   single client over arbitrary fds — the stdio mode used by tests and
   by `cayman serve --stdio`). The event loop runs in the calling
   domain: select over the listen socket and every live connection,
   read what is ready, pop complete frames, answer control verbs
   inline, and run batches of compute requests through a single
   long-lived Engine.Pool shared by every request the daemon ever
   serves. Batching is what makes concurrency cheap and deterministic
   here: request-level parallelism replaces intra-request parallelism
   (pool tasks detect nesting and run their internal fan-outs
   sequentially), so the domain count stays flat no matter how many
   clients pile on, and replies depend only on request content — never
   on scheduling.

   The pool, the compute-once memo tables (mutex-guarded) and the
   on-disk store stay warm across requests: the first request for a
   benchmark pays the full pipeline, every later one — from any client
   — is a lookup.

   Overload hardening (DESIGN.md section 14):

   - Writes never block the loop. Every reply goes into a bounded
     per-connection byte queue, flushed opportunistically and drained
     from the select loop when the peer's socket becomes writable. A
     peer that stops reading its replies accumulates buffered bytes;
     once the next reply would push the buffer past [sc_max_write_buf]
     the peer is disconnected (the slow-client policy), so one stalled
     reader can neither freeze the loop nor grow memory without bound.
   - Admission control. Compute requests wait in one bounded pending
     queue ([sc_max_queue]); a request arriving at a full queue is shed
     immediately with a structured `overloaded` error reply carrying a
     retry-after-ms hint. At most [sc_max_batch] requests go to the
     pool per loop iteration, so reads, writes and control verbs are
     serviced between batches even under sustained load.
   - Deadlines. A request may declare [deadline_ms]; expiry while
     queued sheds it (class `deadline-expired`) before it reaches the
     pool, and the remaining deadline clamps the request's fuel budget
     so execution cannot run long past the moment the client stops
     caring.
   - Graceful drain. `shutdown` (and SIGTERM when the entry point opts
     in) switches to drain mode: stop accepting and reading, finish the
     queued batches, flush every write buffer, all under a bounded
     [sc_drain_timeout_s]; whatever is still unflushed at the timeout
     is dropped and the loop exits normally.

   Failure containment: each batch slot is isolated
   (Pool.run_map_result), and the executor converts the documented
   pipeline exceptions into structured error replies with the stable
   Fault.Classify class, so a request that exhausts its per-request
   fuel budget or trips a frontend diagnostic degrades to an error
   reply while its batch-mates complete normally. Frame-level garbage
   is likewise answered per frame; only an oversized declared length
   (an unsyncable stream) or EOF closes a connection. *)

module Sim = Cayman_sim

type config = {
  sc_max_frame : int;
  sc_jobs : int;  (* 0 = resolve via Engine.Config *)
  sc_interp : Sim.Interp.engine option;  (* pinned at startup *)
  sc_cache_dir : string option;
  sc_cache : bool;
  sc_tick_s : float;  (* telemetry window tick; <= 0 disables ticking *)
  sc_window_slots : int;  (* rolling-window depth, in ticks *)
  sc_max_queue : int;  (* pending compute requests; beyond -> shed *)
  sc_max_batch : int;  (* pool batch cap per loop iteration *)
  sc_max_write_buf : int;  (* per-connection outgoing byte cap *)
  sc_drain_timeout_s : float;  (* bound on the drain phase *)
  sc_fuel_per_ms : int;  (* deadline -> fuel conversion rate *)
  sc_handle_sigterm : bool;  (* SIGTERM enters drain mode *)
}

let default_config =
  { sc_max_frame = Protocol.default_max_frame;
    sc_jobs = 0;
    sc_interp = None;
    sc_cache_dir = None;
    sc_cache = false;
    sc_tick_s = 1.0;
    sc_window_slots = 60;
    sc_max_queue = 256;
    sc_max_batch = 64;
    (* twice the default frame cap: a single reply can never trip the
       slow-client policy on its own under the default configuration *)
    sc_max_write_buf = 32 * 1024 * 1024;
    sc_drain_timeout_s = 5.0;
    (* ~200k interpreted instructions per granted millisecond: a
       deliberately generous rate, so the clamp only bites requests
       that would grossly overrun their deadline *)
    sc_fuel_per_ms = 200_000;
    sc_handle_sigterm = false }

(* --- verbs ----------------------------------------------------------- *)

(* Batched through the pool vs answered inline by the event loop. The
   unknown-verb error echoes the concatenation, and test_serve asserts
   the echoed list stays in sync with the dispatch tables. *)
let compute_verbs = [ "compile"; "profile"; "dump"; "run"; "select"; "cosim" ]

let control_verbs =
  [ "health"; "stats"; "cache-stats"; "cache-reset"; "telemetry"; "log-tail";
    "watch"; "shutdown" ]

let known_verbs = compute_verbs @ control_verbs
let is_control v = List.mem v control_verbs

let unknown_verb_message v =
  Printf.sprintf "unknown verb %s (known verbs: %s)" v
    (String.concat ", " known_verbs)

(* --- instrumentation ------------------------------------------------- *)

(* Counters are part of the deterministic snapshot (request counts are a
   function of the request stream; so are cache hit/miss totals, because
   the compute-once memo layer runs each distinct key's thunk exactly
   once no matter the pool width); queue/inflight/write-buffer gauges
   and the latency histograms are wall-clock/schedule-dependent and
   exempt. The overload counters (shed, deadline_expired,
   slow_client_disconnects) count load-dependent events: deterministic
   for a fixed request schedule, timing-dependent under a live one. *)
let m_requests = Obs.Metrics.counter "serve.requests"
let m_errors = Obs.Metrics.counter "serve.errors"
let m_cache_hits = Obs.Metrics.counter "serve.cache_hits"
let m_cache_misses = Obs.Metrics.counter "serve.cache_misses"
let m_shed = Obs.Metrics.counter "serve.shed"
let m_deadline_expired = Obs.Metrics.counter "serve.deadline_expired"
let m_slow_disconnects = Obs.Metrics.counter "serve.slow_client_disconnects"
let m_dropped_closed = Obs.Metrics.counter "serve.dropped_closed"
let g_queue = Obs.Metrics.gauge "serve.queue_depth"
let g_inflight = Obs.Metrics.gauge "serve.inflight"
let g_write_buf = Obs.Metrics.gauge "serve.write_buf_bytes"
let g_write_buf_hwm = Obs.Metrics.gauge "serve.write_buf_hwm"
let h_latency = Obs.Metrics.wall_histogram "serve.latency_us"

(* Per-verb request counts and latencies, pre-interned; verbs outside
   the dispatch tables share the "other" bucket so hostile verb strings
   cannot grow the registry without bound. *)
let verb_buckets = "other" :: known_verbs
let verb_bucket v = if List.mem v known_verbs then v else "other"

let verb_counters =
  List.map
    (fun v ->
      v, Obs.Metrics.counter (Printf.sprintf "serve.verb.%s.requests" v))
    verb_buckets

let verb_latencies =
  List.map
    (fun v ->
      v, Obs.Metrics.wall_histogram (Printf.sprintf "serve.verb.%s.latency_us" v))
    verb_buckets

let verb_counter v = List.assoc (verb_bucket v) verb_counters
let verb_latency v = List.assoc (verb_bucket v) verb_latencies

(* --- audit log ------------------------------------------------------- *)

let k_id = Obs.Log.key "id"
let k_verb = Obs.Log.key "verb"
let k_outcome = Obs.Log.key "outcome"
let k_fuel = Obs.Log.key "fuel"
let k_wall_us = Obs.Log.key "wall_us"
let k_cache = Obs.Log.key "cache"

(* One structured record per answered request; the queryable tail
   behind the `log-tail` verb and `cayman logs`. [cache] is "hit",
   "miss", or "-" for verbs that never touch the reply cache. *)
let audit ~id ~verb ~(reply : Protocol.reply) ~fuel ~wall_us ~cache =
  let outcome =
    if reply.Protocol.rp_ok then "ok" else reply.Protocol.rp_class
  in
  let level = if reply.Protocol.rp_ok then Obs.Log.Info else Obs.Log.Error in
  Obs.Log.log level "request"
    [ k_id, Obs.Log.I id;
      k_verb, Obs.Log.S verb;
      k_outcome, Obs.Log.S outcome;
      k_fuel, Obs.Log.I fuel;
      k_wall_us, Obs.Log.I wall_us;
      k_cache, Obs.Log.S cache ]

(* --- connections ----------------------------------------------------- *)

type conn = {
  c_fd : Unix.file_descr;
  c_dec : Protocol.decoder;
  mutable c_alive : bool;
  c_keep_open : bool;  (* fds owned by the caller (stdio mode) *)
  c_out : Unix.file_descr;  (* = c_fd except in stdio mode *)
  (* Per-connection read scratch (shared state would alias the moment
     reads ever leave the single event-loop domain). *)
  c_rbuf : Bytes.t;
  (* Bounded outgoing byte queue: whole reply frames, the front one
     possibly partially written. *)
  c_wq : string Queue.t;
  mutable c_woff : int;  (* bytes of the queue front already written *)
  mutable c_wbytes : int;  (* total unwritten bytes across the queue *)
}

let make_conn ?(keep_open = false) ~max_frame ~fd ~out () =
  { c_fd = fd;
    c_dec = Protocol.decoder ~max_frame ();
    c_alive = true;
    c_keep_open = keep_open;
    c_out = out;
    c_rbuf = Bytes.create 65536;
    c_wq = Queue.create ();
    c_woff = 0;
    c_wbytes = 0 }

(* The buffered-write machinery needs every conn fd non-blocking; for
   caller-owned fds (stdio mode) the flag is restored on close. *)
let conn_set_nonblock c =
  List.iter
    (fun fd -> try Unix.set_nonblock fd with Unix.Unix_error _ -> ())
    (if c.c_fd = c.c_out then [ c.c_fd ] else [ c.c_fd; c.c_out ])

let close_conn c =
  c.c_alive <- false;
  Queue.clear c.c_wq;
  c.c_woff <- 0;
  c.c_wbytes <- 0;
  if c.c_keep_open then begin
    (* caller-owned fds (stdio mode): restore blocking, signal EOF to
       the peer, but leave the descriptors themselves to the caller *)
    List.iter
      (fun fd -> try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
      (if c.c_fd = c.c_out then [ c.c_fd ] else [ c.c_fd; c.c_out ]);
    try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end
  else try Unix.close c.c_fd with Unix.Unix_error _ -> ()

(* Push as much buffered output as the socket will take right now;
   never blocks (the fd is non-blocking). A peer that vanished
   mid-write just kills its own connection (SIGPIPE is ignored). *)
let rec flush_writes c =
  if c.c_alive && not (Queue.is_empty c.c_wq) then begin
    let front = Queue.peek c.c_wq in
    let n = String.length front in
    match
      Unix.write c.c_out
        (Bytes.unsafe_of_string front)
        c.c_woff (n - c.c_woff)
    with
    | 0 -> close_conn c
    | w ->
      c.c_woff <- c.c_woff + w;
      c.c_wbytes <- c.c_wbytes - w;
      if c.c_woff = n then begin
        ignore (Queue.pop c.c_wq : string);
        c.c_woff <- 0
      end;
      flush_writes c
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
      close_conn c
  end

(* Track the largest per-connection backlog this serve session has seen
   (single-writer: only the event loop updates it; serve_conns resets
   it so the gauge describes the current session, not a previous one). *)
let write_hwm = ref 0

let note_write_hwm bytes =
  if bytes > !write_hwm then begin
    write_hwm := bytes;
    Obs.Metrics.gauge_set g_write_buf_hwm bytes
  end

(* Enqueue one reply frame and flush what fits. The slow-client policy:
   if, after flushing, the frame would push the backlog past the cap,
   the peer has stopped draining its replies — disconnect it rather
   than buffer without bound. The cap therefore bounds both memory and
   the recorded high-water mark. *)
let write_reply ~(config : config) c (reply : Protocol.reply) =
  if c.c_alive then begin
    let s = Protocol.encode_reply reply in
    flush_writes c;
    if c.c_alive then begin
      if c.c_wbytes + String.length s > config.sc_max_write_buf then begin
        Obs.Metrics.incr m_slow_disconnects;
        close_conn c
      end
      else begin
        Queue.add s c.c_wq;
        c.c_wbytes <- c.c_wbytes + String.length s;
        flush_writes c;
        note_write_hwm c.c_wbytes
      end
    end
  end

(* Pull whatever is ready; EOF (or a hard error) closes the connection.
   A partial frame left in the decoder at EOF is the truncated-frame
   case: dropped quietly, the loop survives. *)
let read_into c =
  match Unix.read c.c_fd c.c_rbuf 0 (Bytes.length c.c_rbuf) with
  | 0 -> close_conn c
  | n -> Protocol.feed c.c_dec c.c_rbuf 0 n
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
    close_conn c
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

let oversized_reply ~max_frame n =
  Protocol.error_reply ~id:0 ~cls:"oversized-frame"
    (Printf.sprintf
       "declared frame length %d exceeds the %d-byte cap; closing" n
       max_frame)

(* All complete frames currently buffered on [c], in arrival order. An
   oversized header is answered and the stream closed: with a bogus
   length there is no way back to a frame boundary. *)
let rec pop_frames ~(config : config) c acc =
  if not c.c_alive then List.rev acc
  else
    match Protocol.next_frame c.c_dec with
    | Protocol.Frame payload -> pop_frames ~config c (payload :: acc)
    | Protocol.Need_more -> List.rev acc
    | Protocol.Oversized n ->
      Obs.Metrics.incr m_errors;
      write_reply ~config c (oversized_reply ~max_frame:config.sc_max_frame n);
      close_conn c;
      List.rev acc

(* --- request execution ----------------------------------------------- *)

let message_of_exn = function
  | Sim.Interp.Out_of_fuel ->
    "interpreter ran out of fuel (raise the request's fuel budget)"
  | Sim.Interp.Runtime_error m -> "runtime error: " ^ m
  | Cayman_frontend.Diag.Error d -> Cayman_frontend.Diag.to_string d
  | e -> Printexc.to_string e

let dispatch (r : Protocol.request) : (string, string) result =
  let with_program f =
    match Handlers.load ?bench:r.Protocol.rq_bench ?source:r.Protocol.rq_source () with
    | Error m -> Error m
    | Ok p -> f p
  in
  match r.Protocol.rq_verb with
  | "compile" -> with_program (fun p -> Ok (Handlers.compile_text p))
  | "profile" ->
    with_program (fun p ->
        Ok (Handlers.profile_text ?fuel:r.Protocol.rq_fuel p))
  | "dump" ->
    with_program (fun p -> Ok (Handlers.dump_text ?fuel:r.Protocol.rq_fuel p))
  | "run" | "select" ->
    with_program
      (Handlers.run_text ?fuel:r.Protocol.rq_fuel ~budget:r.Protocol.rq_budget
         ~mode:r.Protocol.rq_mode ~alpha:r.Protocol.rq_alpha)
  | "cosim" ->
    with_program (fun p ->
        Result.map fst
          (Handlers.cosim_text ?fuel:r.Protocol.rq_fuel
             ?max_invocations:r.Protocol.rq_max_invocations
             ~budget:r.Protocol.rq_budget ~mode:r.Protocol.rq_mode p))
  | v -> Error (unknown_verb_message v)

(* A reply is a pure function of the request minus its id (the
   determinism contract: results do not depend on jobs, engine, cache
   state or scheduling), so completed dispatches are published in the
   compute-once memo layer shared with the rest of the pipeline. The
   first request for a given work item pays the pipeline; every later
   identical request — from any client, or concurrently from a
   batch-mate, which blocks on the in-flight cell rather than
   recomputing — is a lookup. Raises are never cached, so fuel-starved
   requests keep their per-request failure semantics — and because a
   deadline-clamped run that completes is bit-identical to an
   unclamped one, caching under the unclamped key stays sound. *)
let reply_key (r : Protocol.request) =
  Obs.Json.to_string (Protocol.request_to_json { r with Protocol.rq_id = 0 })

(* --- event loop state ------------------------------------------------ *)

type pending = {
  p_conn : conn;
  p_req : Protocol.request;
  p_enqueued : float;
  p_deadline : float option;  (* absolute, from rq_deadline_ms *)
}

let now () = Unix.gettimeofday ()

(* Total: every outcome of a compute request is a reply, paired with
   the audit facts only the executor can see: whether the reply cache
   answered (the memoize thunk never ran), and the fuel the handlers
   noted on this domain while it did run. *)
let execute ~(config : config) (p : pending) : Protocol.reply * bool * int =
  let r = p.p_req in
  Obs.Trace.span ~cat:"serve" ("serve." ^ r.Protocol.rq_verb) @@ fun () ->
  ignore (Handlers.take_instrs () : int);
  (* Remaining-deadline fuel clamp: the run gets at most
     remaining_ms * sc_fuel_per_ms instructions (never more than its
     explicit or ambient budget), so execution cannot run long past
     the moment the deadline passes. *)
  let deadline_clamped, eff_fuel =
    match p.p_deadline with
    | None -> false, r.Protocol.rq_fuel
    | Some dl ->
      let remaining_ms = 1e3 *. (dl -. now ()) in
      if remaining_ms <= 0.0 then true, Some 1
      else begin
        let clampf =
          remaining_ms *. float_of_int (max 1 config.sc_fuel_per_ms)
        in
        let clamp =
          if clampf >= 4.0e18 then max_int else max 1 (int_of_float clampf)
        in
        let budget =
          match r.Protocol.rq_fuel with
          | Some f -> f
          | None -> Engine.Config.fuel ()
        in
        if budget <= clamp then false, Some budget else true, Some clamp
      end
  in
  let computed = ref false in
  let reply =
    match
      Memo.Store.memoize ~ns:"serve.reply" ~key:(reply_key r) (fun () ->
          computed := true;
          dispatch { r with Protocol.rq_fuel = eff_fuel })
    with
    | Ok output -> Protocol.ok_reply ~id:r.Protocol.rq_id output
    | Error m ->
      Obs.Metrics.incr m_errors;
      Protocol.error_reply ~id:r.Protocol.rq_id ~cls:"bad-request" m
    | exception Sim.Interp.Out_of_fuel when deadline_clamped ->
      (* the deadline, not the caller's budget, is what starved it *)
      Obs.Metrics.incr m_errors;
      Obs.Metrics.incr m_deadline_expired;
      Protocol.error_reply ~id:r.Protocol.rq_id ~cls:"deadline-expired"
        "deadline expired mid-execution (the remaining deadline clamps \
         the fuel budget)"
    | exception e ->
      Obs.Metrics.incr m_errors;
      Protocol.error_reply ~id:r.Protocol.rq_id
        ~cls:(Cayman_fault.Classify.exn_class e)
        (message_of_exn e)
  in
  let hit = not !computed in
  Obs.Metrics.incr (if hit then m_cache_hits else m_cache_misses);
  reply, hit, Handlers.take_instrs ()

(* The full live-telemetry scrape: every registered metric plus the
   rolling-window aggregates, in the canonical exposition text. *)
let telemetry_text window =
  Obs.Expose.render
    (Obs.Expose.of_snapshot
       ~windows:(Obs.Window.aggregate window)
       (Obs.Metrics.snapshot ()))

(* Control verbs answered inline by the event loop — cheap, no pipeline
   work, never queued behind a batch. *)
type control_action =
  | C_continue
  | C_shutdown
  | C_watch  (* keep pushing telemetry frames to this request's id *)

let control_reply ~served ~window (r : Protocol.request) :
    Protocol.reply * control_action =
  let id = r.Protocol.rq_id in
  match r.Protocol.rq_verb with
  | "health" -> Protocol.ok_reply ~id "ok\n", C_continue
  | "shutdown" -> Protocol.ok_reply ~id "shutting down\n", C_shutdown
  | "stats" ->
    let b = Buffer.create 128 in
    Printf.bprintf b "requests: %d\n" served;
    Printf.bprintf b "errors: %d\n" (Obs.Metrics.value m_errors);
    Printf.bprintf b "shed: %d\n" (Obs.Metrics.value m_shed);
    Printf.bprintf b "deadline expired: %d\n"
      (Obs.Metrics.value m_deadline_expired);
    Printf.bprintf b "slow-client disconnects: %d\n"
      (Obs.Metrics.value m_slow_disconnects);
    Printf.bprintf b "memo: %s\n"
      (if Memo.Store.active () then "on" else "off");
    let dropped = Obs.Trace.dropped () in
    Printf.bprintf b "spans dropped: %d\n" dropped;
    if dropped > 0 then
      Printf.bprintf b
        "warning: trace ring buffers overflowed; the %d oldest spans are \
         gone (raise the flush cadence or trace less)\n"
        dropped;
    Protocol.ok_reply ~id (Buffer.contents b), C_continue
  | "cache-stats" ->
    (match Memo.Store.ambient () with
     | None -> Protocol.ok_reply ~id "cache disabled\n", C_continue
     | Some store ->
       let s = Memo.Store.stats_of store in
       let text =
         Printf.sprintf "cache %s: %d entries, %d bytes\n"
           (Memo.Store.dir store) s.Memo.Store.st_entries
           s.Memo.Store.st_bytes
       in
       Protocol.ok_reply ~id text, C_continue)
  | "cache-reset" ->
    Memo.Store.reset_memory ();
    Protocol.ok_reply ~id "in-memory caches reset\n", C_continue
  | "telemetry" -> Protocol.ok_reply ~id (telemetry_text window), C_continue
  | "log-tail" ->
    let n = Option.value r.Protocol.rq_n ~default:20 in
    ( Protocol.ok_reply ~id (Obs.Json.to_string (Obs.Log.to_json ~tail:n ())),
      C_continue )
  | "watch" ->
    (* first frame now, then one per window tick until the connection
       goes away — the server-pushed path behind `cayman top --follow` *)
    Protocol.ok_reply ~id (telemetry_text window), C_watch
  | v ->
    Obs.Metrics.incr m_errors;
    ( Protocol.error_reply ~id ~cls:"bad-request" (unknown_verb_message v),
      C_continue )

let overloaded_reply ~(config : config) ~queued ~id =
  (* the hint scales with backlog so a deep queue spreads retries
     further apart; Serve.Client parses the retry-after-ms=N token *)
  let retry_ms = 50 + (5 * queued) in
  Protocol.error_reply ~id ~cls:"overloaded"
    (Printf.sprintf
       "server overloaded: %d requests pending (cap %d); retry-after-ms=%d"
       queued config.sc_max_queue retry_ms)

(* --- event loop ------------------------------------------------------ *)

let serve_conns ~(config : config) ?listen conns0 =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let sigterm = Atomic.make false in
  if config.sc_handle_sigterm then
    (try
       Sys.set_signal Sys.sigterm
         (Sys.Signal_handle (fun _ -> Atomic.set sigterm true))
     with Invalid_argument _ -> ());
  (* The daemon's jobs, engine and store hold for this session only: the
     settings in force before it come back when it returns, by shutdown,
     drain or exception. *)
  let session f =
    let f =
      if config.sc_cache then fun () ->
        Memo.Store.with_enabled ?dir:config.sc_cache_dir f
      else f
    in
    let f =
      match config.sc_interp with
      | Some e -> fun () -> Sim.Interp.with_engine e f
      | None -> f
    in
    if config.sc_jobs > 0 then Engine.Config.with_jobs config.sc_jobs f
    else f ()
  in
  session @@ fun () ->
  let pool = Engine.Pool.create ?jobs:None () in
  let conns = ref conns0 in
  List.iter conn_set_nonblock conns0;
  let served = ref 0 in
  let stop = ref false in
  (* None while running; Some absolute-deadline once draining. *)
  let drain_until = ref None in
  let start_drain () =
    if !drain_until = None then
      drain_until := Some (now () +. max 0.0 config.sc_drain_timeout_s)
  in
  (* this daemon's high-water marks, not a previous session's *)
  write_hwm := 0;
  Obs.Metrics.gauge_set g_write_buf 0;
  Obs.Metrics.gauge_set g_write_buf_hwm 0;
  (* The telemetry window over this serve session. Ticks come from the
     select loop (timeout-driven), so rates and rolling percentiles
     advance even while the daemon is idle. *)
  let window = Obs.Window.create ~slots:(max 1 config.sc_window_slots) () in
  Obs.Window.track_counter window "serve.requests";
  Obs.Window.track_counter window "serve.errors";
  Obs.Window.track_counter window "serve.cache_hits";
  Obs.Window.track_counter window "serve.cache_misses";
  Obs.Window.track_counter window "serve.shed";
  Obs.Window.track_counter window "serve.deadline_expired";
  Obs.Window.track_counter window "serve.slow_client_disconnects";
  Obs.Window.track_wall window "serve.latency_us";
  List.iter
    (fun v ->
      Obs.Window.track_counter window
        (Printf.sprintf "serve.verb.%s.requests" v);
      Obs.Window.track_wall window
        (Printf.sprintf "serve.verb.%s.latency_us" v))
    verb_buckets;
  (* seal the tracked set and baseline against pre-existing totals *)
  Obs.Window.tick window ~dt_s:0.0;
  let last_tick = ref (now ()) in
  let watchers : (conn * int) list ref = ref [] in
  let pending_q : pending Queue.t = Queue.create () in
  (* Every reply to a request goes out here: count the request ([served],
     serve.requests, its verb's counter, and serve.errors when [error]),
     then build the reply, write it and audit it. With [since], the wall
     time from then to the write is observed for the verb (and in
     serve.latency_us when [overall]) and audited; without, the audit
     records 0. *)
  let answer ?(error = false) ?since ?(overall = false) ?(fuel = 0)
      ?(cache = "-") c ~id ~verb build =
    incr served;
    Obs.Metrics.incr m_requests;
    if error then Obs.Metrics.incr m_errors;
    Obs.Metrics.incr (verb_counter verb);
    let reply = build () in
    write_reply ~config c reply;
    let wall_us =
      match since with
      | None -> 0
      | Some t0 ->
        let wall = int_of_float (1e6 *. (now () -. t0)) in
        if overall then Obs.Metrics.observe h_latency wall;
        Obs.Metrics.observe (verb_latency verb) wall;
        wall
    in
    audit ~id ~verb ~reply ~fuel ~wall_us ~cache
  in
  Fun.protect
    ~finally:(fun () ->
      Engine.Pool.shutdown pool;
      List.iter close_conn !conns)
  @@ fun () ->
  while not !stop do
    if Atomic.get sigterm then start_drain ();
    let live = List.filter (fun c -> c.c_alive) !conns in
    conns := live;
    Obs.Metrics.gauge_set g_write_buf
      (List.fold_left (fun acc c -> acc + c.c_wbytes) 0 live);
    let draining = !drain_until <> None in
    let drain_expired =
      match !drain_until with Some dl -> now () >= dl | None -> false
    in
    if drain_expired then
      (* bounded drain: time is up; drop what is still buffered *)
      stop := true
    else begin
      let read_fds =
        if draining then []
        else
          (match listen with Some fd -> [ fd ] | None -> [])
          @ List.map (fun c -> c.c_fd) live
      in
      let writers = List.filter (fun c -> c.c_wbytes > 0) live in
      let write_fds = List.map (fun c -> c.c_out) writers in
      if read_fds = [] && write_fds = [] && Queue.is_empty pending_q then
        stop := true
      else begin
        let timeout =
          if not (Queue.is_empty pending_q) then 0.0
          else if draining then 0.02
          else if config.sc_tick_s > 0.0 then
            max 0.0 (!last_tick +. config.sc_tick_s -. now ())
          else -1.0
        in
        let readable, writable, _ =
          try Unix.select read_fds write_fds [] timeout
          with Unix.Unix_error (EINTR, _, _) -> [], [], []
        in
        (* drain ready write buffers first: frees memory before the
           slow-client policy sizes up any new replies *)
        List.iter
          (fun c -> if List.mem c.c_out writable then flush_writes c)
          writers;
        (match listen with
         | Some lfd when (not draining) && List.mem lfd readable ->
           (match Unix.accept lfd with
            | fd, _ ->
              Unix.set_nonblock fd;
              conns :=
                !conns
                @ [ make_conn ~max_frame:config.sc_max_frame ~fd ~out:fd () ]
            | exception Unix.Unix_error _ -> ())
         | _ -> ());
        if not draining then begin
          List.iter
            (fun c -> if List.mem c.c_fd readable then read_into c)
            live;
          (* Gather this wave: parse every complete frame, answer
             control verbs and parse failures inline, admit compute
             requests to the bounded pending queue — or shed them. *)
          List.iter
            (fun c ->
              List.iter
                (fun payload ->
                  match Protocol.parse_request payload with
                  | Error (id, msg) ->
                    (* "?" counts in the "other" verb bucket *)
                    answer ~error:true c ~id ~verb:"?" (fun () ->
                        Protocol.error_reply ~id ~cls:"bad-request" msg)
                  | Ok r when is_control r.Protocol.rq_verb ->
                    let action = ref C_continue in
                    answer ~since:(now ()) c ~id:r.Protocol.rq_id
                      ~verb:r.Protocol.rq_verb (fun () ->
                        let reply, a =
                          control_reply ~served:!served ~window r
                        in
                        action := a;
                        reply);
                    (match !action with
                     | C_continue -> ()
                     | C_shutdown -> start_drain ()
                     | C_watch ->
                       watchers := (c, r.Protocol.rq_id) :: !watchers)
                  | Ok r ->
                    let queued = Queue.length pending_q in
                    if queued >= config.sc_max_queue then begin
                      (* admission control: shed, never silently drop *)
                      Obs.Metrics.incr m_shed;
                      answer ~error:true c ~id:r.Protocol.rq_id
                        ~verb:r.Protocol.rq_verb (fun () ->
                          overloaded_reply ~config ~queued
                            ~id:r.Protocol.rq_id)
                    end
                    else
                      Queue.add
                        { p_conn = c;
                          p_req = r;
                          p_enqueued = now ();
                          p_deadline =
                            Option.map
                              (fun ms -> now () +. (float_of_int ms /. 1e3))
                              r.Protocol.rq_deadline_ms }
                        pending_q)
                (pop_frames ~config c []))
            !conns
        end;
        (* One bounded batch through the pool. Draining keeps batching
           (that is what "finish in-flight work" means) — it only stops
           admitting new requests. Requests whose deadline expired while
           queued are shed here, and those whose connection closed are
           dropped, before they cost any pool time. *)
        Obs.Metrics.gauge_set g_queue (Queue.length pending_q);
        let batch = ref [] in
        let n_batch = ref 0 in
        while !n_batch < config.sc_max_batch && not (Queue.is_empty pending_q)
        do
          let p = Queue.pop pending_q in
          match p with
          | { p_conn = { c_alive = false; _ }; _ } ->
            (* Its peer is gone (it hung up, or the slow-client policy
               closed it): nobody would read the reply, so the request
               costs no pool time. *)
            Obs.Metrics.incr m_dropped_closed;
            audit ~id:p.p_req.Protocol.rq_id ~verb:p.p_req.Protocol.rq_verb
              ~reply:
                (Protocol.error_reply ~id:p.p_req.Protocol.rq_id
                   ~cls:"connection-closed"
                   "the connection closed while the request was queued")
              ~fuel:0 ~wall_us:0 ~cache:"-"
          | { p_deadline = Some dl; _ } when now () > dl ->
            Obs.Metrics.incr m_deadline_expired;
            answer ~error:true p.p_conn ~id:p.p_req.Protocol.rq_id
              ~verb:p.p_req.Protocol.rq_verb (fun () ->
                Protocol.error_reply ~id:p.p_req.Protocol.rq_id
                  ~cls:"deadline-expired"
                  (Printf.sprintf
                     "deadline_ms %d expired while the request was queued"
                     (Option.value p.p_req.Protocol.rq_deadline_ms
                        ~default:0)))
          | _ ->
            batch := p :: !batch;
            incr n_batch
        done;
        let batch = List.rev !batch in
        if batch <> [] then begin
          Obs.Metrics.gauge_set g_inflight (List.length batch);
          let results =
            Engine.Pool.run_map_result pool (execute ~config) batch
          in
          List.iter2
            (fun p result ->
              let reply, cache, fuel, error =
                match result with
                | Ok (reply, hit, fuel) ->
                  reply, (if hit then "hit" else "miss"), fuel, false
                | Error (e, _bt) ->
                  (* execute is total, so this is pool-level trouble;
                     still degrade to a structured reply *)
                  ( Protocol.error_reply ~id:p.p_req.Protocol.rq_id
                      ~cls:(Cayman_fault.Classify.exn_class e)
                      (message_of_exn e),
                    "miss", 0, true )
              in
              answer ~error ~since:p.p_enqueued ~overall:true ~fuel ~cache
                p.p_conn ~id:p.p_req.Protocol.rq_id
                ~verb:p.p_req.Protocol.rq_verb (fun () -> reply))
            batch results;
          Obs.Metrics.gauge_set g_inflight 0;
          Obs.Metrics.gauge_set g_queue (Queue.length pending_q)
        end;
        (* Window tick: close the elapsed slot and push a fresh telemetry
           frame to every live watcher. Watching costs one render per
           tick shared across watchers, not per watcher. *)
        if config.sc_tick_s > 0.0 then begin
          let t = now () in
          if t -. !last_tick >= config.sc_tick_s then begin
            Obs.Window.tick window ~dt_s:(t -. !last_tick);
            last_tick := t;
            watchers := List.filter (fun (c, _) -> c.c_alive) !watchers;
            if (not draining) && !watchers <> [] then begin
              let text = telemetry_text window in
              List.iter
                (fun (c, id) ->
                  write_reply ~config c (Protocol.ok_reply ~id text))
                !watchers;
              watchers := List.filter (fun (c, _) -> c.c_alive) !watchers
            end
          end
        end
      end
    end
  done

(* --- entry points ---------------------------------------------------- *)

(* Take ownership of [path]. A live daemon on the other end is a user
   error (located diagnostic); a dead leftover socket is removed; a
   non-socket is never touched. *)
let claim_socket path =
  if Sys.file_exists path then begin
    let st = Unix.lstat path in
    if st.Unix.st_kind <> Unix.S_SOCK then
      Cayman_frontend.Diag.error ~phase:"serve"
        "%s exists and is not a socket; refusing to replace it" path;
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      Cayman_frontend.Diag.error ~phase:"serve"
        "socket %s is already being served; stop that daemon or pick \
         another --socket"
        path;
    (try Unix.unlink path with Unix.Unix_error _ -> ())
  end

let serve_socket ?(config = default_config) path =
  claim_socket path;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind lfd (Unix.ADDR_UNIX path);
     Unix.listen lfd 64
   with e ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     (match e with
      | Unix.Unix_error (err, _, _) ->
        Cayman_frontend.Diag.error ~phase:"serve" "cannot bind %s: %s" path
          (Unix.error_message err)
      | e -> raise e));
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()))
  @@ fun () -> serve_conns ~config ~listen:lfd []

let serve_fds ?(config = default_config) ~input ~output () =
  let c = make_conn ~keep_open:true ~max_frame:config.sc_max_frame
      ~fd:input ~out:output ()
  in
  serve_conns ~config [ c ]
