(** Persistent content-addressed memoization store.

    Not to be confused with {!Cayman_sim.Cache}, the {e data-cache cycle
    model} used by the simulator's memory timing: that module models a
    hardware cache inside the simulated system; this one memoizes
    results of the toolchain itself ([Memo] deliberately contains no
    module named [Cache], so [open]ing both libraries can never silently
    shadow one with the other).

    Layout on disk: a marker file [cayman.store] at the root (its
    presence is what {!clear} and {!open_store} check before touching
    anything), entries under [objects/<2 hex>/<30 hex>], and a [tmp/]
    staging directory. Every write goes to [tmp/] first and is
    [rename]d into place, so concurrent processes and {!Engine.Pool}
    domains only ever observe complete entries. Every entry carries a
    magic string, its namespace, and an MD5 of its payload; any
    mismatch (truncation, corruption, a foreign file) reads as a miss —
    counted in [memo.corrupt_entries] — never an error.

    The store is {e ambient} and {e disabled by default}: library code
    calls {!memoize}/{!find}/{!save} unconditionally and they are
    no-ops (resp. [None]) until an entry point calls {!enable}. The CLI
    and the bench harness enable it after flag parsing; the test suites
    run with it off except where they enable a private temporary store,
    which keeps the CAYMAN_JOBS determinism harness's metric
    comparisons meaningful.

    Determinism: with a fixed initial store state, the counters this
    module publishes ([memo.disk_hits], [memo.disk_misses],
    [memo.run_shared], [memo.puts], ...) are schedule-independent —
    {!memoize} routes every key through a process-wide compute-once
    table, so each unique key is looked up on disk exactly once per
    process and concurrent requesters of the same key block for the one
    computation (counted as [memo.run_shared]) instead of racing it.
    This is also what gives in-run cross-benchmark sharing: structurally
    identical regions in different benchmarks synthesize once. *)

type t

(** [CAYMAN_CACHE_DIR], else [$XDG_CACHE_HOME/cayman], else
    [$HOME/.cache/cayman], else [./.cayman-cache]. *)
val default_dir : unit -> string

(** Open (creating if needed) a store rooted at the directory. Refuses a
    pre-existing non-empty directory that lacks the marker file rather
    than scattering cache entries into it. *)
val open_store : string -> (t, string) result

val dir : t -> string

(** The directory exists and carries the store marker. *)
val is_store : string -> bool

(** {1 Ambient state} *)

(** Enable the ambient store (default directory unless [dir] is given).
    If the store cannot be opened a warning goes to stderr and caching
    stays off — never an error. Startup also applies the LRU size cap
    (see {!gc}): [CAYMAN_CACHE_MAX_MB], default 2048. *)
val enable : ?dir:string -> unit -> unit

val disable : unit -> unit
val active : unit -> bool
val ambient : unit -> t option

(** Run [f] with the ambient cache off (fault-injection campaigns must
    recompute, not replay: armed faultpoints sit on the compute paths).
    Not reentrancy-safe against concurrent {!enable}; callers toggle
    only from the top-level driver thread. *)
val without_cache : (unit -> 'a) -> 'a

(** Run [f] with the ambient store enabled as by {!enable}; the ambient
    store in force before the call is restored afterwards (not reopened),
    also when [f] raises. The same caveat as {!without_cache} applies. *)
val with_enabled : ?dir:string -> (unit -> 'a) -> 'a

(** Drop the process-wide compute-once table (tests). Counters are
    untouched. *)
val reset_memory : unit -> unit

(** [with_temp_dir f] runs [f dir] on a new empty temporary directory
    and removes it with its contents afterwards, also when [f] raises. *)
val with_temp_dir : (string -> 'a) -> 'a

(** [with_private_store f] runs [f dir] against a fresh, empty store in a
    new temporary directory [dir], enabled as the ambient store, with the compute-once table dropped before and after.
    Afterwards — also when [f] raises — the ambient store in force before
    the call is restored exactly (not reopened, so no second {!gc}) and
    [dir] is removed. Like {!without_cache}, call it from the top-level
    driver thread only. *)
val with_private_store : (string -> 'a) -> 'a

(** {1 Typed access}

    Values are marshaled; type safety is by namespace discipline — one
    [ns], one value type, enforced by the thin wrappers in the client
    modules. Keys should come from {!Hash} so they already embed the
    version salt. *)

(** Ambient lookup; [None] on miss, on corrupt entry, or when caching is
    off. Does not populate the compute-once table (callers that may race
    on one key must use {!memoize}). *)
val find : ns:string -> key:string -> 'a option

(** Ambient write; no-op when caching is off. Unmarshalable values
    (defensive) count as [memo.put_failures] and are skipped. *)
val save : ns:string -> key:string -> 'a -> unit

(** [memoize ~ns ~key f] returns the cached value or computes, stores
    and returns [f ()]. Identity when caching is off. Concurrent calls
    with one key run [f] once; exceptions from [f] propagate to every
    waiter of that attempt and nothing is cached. *)
val memoize : ns:string -> key:string -> (unit -> 'a) -> 'a

(** {1 Maintenance} *)

type stats = {
  st_entries : int;
  st_bytes : int;
}

val stats_of : t -> stats

(** Evict least-recently-used entries (mtime order; reads touch their
    entry) until the store fits [max_bytes]. Returns (entries evicted,
    bytes freed). *)
val gc : t -> max_bytes:int -> int * int

(** [CAYMAN_CACHE_MAX_MB] * 2^20, default 2 GiB. *)
val default_max_bytes : unit -> int

(** Remove every entry under the directory — refusing, with [Error],
    any directory that doesn't carry the store marker. Returns the
    number of entries removed. *)
val clear : string -> (int, string) result

(** Counter/store snapshot for the bench harness's [BASE_cache.json]
    (via the shared {!Obs.Json} emitter). *)
val report_json : wall_s:float -> Obs.Json.t
