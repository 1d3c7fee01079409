(** The Cayman compilation daemon: a persistent process multiplexing
    many concurrent compile/profile/select/cosim requests over one
    shared {!Engine.Pool} and one warm memoization layer.

    Request waves are executed as batches through the pool — tasks are
    isolated per slot, so a request that runs out of its per-request
    fuel budget or trips a frontend diagnostic degrades to a structured
    error reply (class from [Fault.Classify]) while its batch-mates
    complete. Frame-level garbage is answered per frame; only an
    oversized declared length or EOF closes a connection.

    Verbs: [compile], [profile], [dump], [run]/[select], [cosim]
    (batched compute) plus the inline control verbs [health], [stats],
    [cache-stats], [cache-reset], [telemetry] (Prometheus-style
    exposition of the metrics snapshot and rolling-window aggregates),
    [log-tail] (last [n] audit records as JSON), [watch] (a telemetry
    frame now and then one per window tick until the connection closes)
    and [shutdown].

    Overload hardening (DESIGN.md section 14): replies go through
    bounded per-connection write buffers drained from the select loop
    (a peer that stops reading is disconnected once its backlog would
    exceed [sc_max_write_buf]); compute requests wait in one bounded
    pending queue and are shed with a structured [overloaded] reply
    (carrying a retry-after-ms hint) when it is full; a request's
    optional [deadline_ms] sheds it (class [deadline-expired]) if it
    expires while queued and clamps its fuel budget while it runs; and
    [shutdown] (or SIGTERM, when [sc_handle_sigterm]) drains — stops
    accepting and reading, finishes queued batches, flushes write
    buffers — under [sc_drain_timeout_s] before returning.

    Instrumentation: [serve.requests]/[serve.errors]/
    [serve.cache_hits]/[serve.cache_misses]/[serve.shed]/
    [serve.deadline_expired]/[serve.slow_client_disconnects] and
    per-verb [serve.verb.<v>.requests] counters, [serve.queue_depth]/
    [serve.inflight]/[serve.write_buf_bytes]/[serve.write_buf_hwm]
    gauges, [serve.latency_us] and per-verb wall histograms, a
    [serve.<verb>] trace span per compute request, and a structured
    {!Obs.Log} audit record (id, verb, outcome, fuel, wall time, cache
    hit/miss) per answered request. *)

type config = {
  sc_max_frame : int;  (** per-connection declared-length cap *)
  sc_jobs : int;  (** [> 0] pins the pool width, else {!Engine.Config} *)
  sc_interp : Cayman_sim.Interp.engine option;
      (** pinned process-wide at startup when present *)
  sc_cache_dir : string option;
  sc_cache : bool;  (** arm the on-disk store at startup *)
  sc_tick_s : float;
      (** telemetry window tick period; [<= 0] disables ticking (and
          [watch] frames) *)
  sc_window_slots : int;  (** rolling-window depth, in ticks *)
  sc_max_queue : int;
      (** pending compute requests admitted before shedding *)
  sc_max_batch : int;
      (** pool batch cap per loop iteration, bounding how long the
          event loop is away from the sockets *)
  sc_max_write_buf : int;
      (** per-connection outgoing byte cap (the slow-client policy
          disconnects a peer whose backlog would exceed it); must
          exceed the largest single reply frame *)
  sc_drain_timeout_s : float;  (** bound on the drain phase *)
  sc_fuel_per_ms : int;
      (** deadline-to-fuel conversion: a request with a deadline runs
          with at most [remaining_ms * sc_fuel_per_ms] instructions *)
  sc_handle_sigterm : bool;
      (** install a SIGTERM handler that enters drain mode
          (process-wide — leave off when the daemon shares the process
          with other work, as tests and benches do) *)
}

(** No overrides: engine/fuel/jobs resolve ambiently, cache off,
    1-second ticks over a 60-slot window, queue cap 256, batch cap 64,
    32 MiB write-buffer cap, 5 s drain timeout, 200k fuel/ms, SIGTERM
    not handled. *)
val default_config : config

(** Every verb the daemon answers, compute then control, in the order
    the unknown-verb error message echoes them. *)
val known_verbs : string list

(** [serve_socket path] claims [path] (removing a stale leftover
    socket; refusing — with a located diagnostic — a path another
    daemon is live on, or one that is not a socket), then serves until
    a [shutdown] request. The socket file is removed on the way out.
    @raise Cayman_frontend.Diag.Error when the path cannot be claimed. *)
val serve_socket : ?config:config -> string -> unit

(** Serve a single already-connected peer over [input]/[output] (the
    stdio mode). Returns on [shutdown] or EOF; the fds stay open —
    they belong to the caller (their non-blocking flag is restored on
    the way out). *)
val serve_fds :
  ?config:config ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit ->
  unit
