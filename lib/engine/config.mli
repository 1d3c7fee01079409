(** Process-wide settings: the worker count, the interpreter fuel and
    (through {!knob}) the interpreter engine.

    Every setting is a {!knob}, resolved in one order: an explicit
    argument, then a process-wide override ({!set}, the CLI's flags),
    then an environment variable, then a built-in default. *)

(** {1 Knobs} *)

type 'a knob

val knob :
  env:string -> parse:(string -> 'a option) -> default:(unit -> 'a) -> 'a knob
(** [knob ~env ~parse ~default] reads environment variable [env]
    through [parse] (unparsable values fall through to [default ()]). *)

val get : ?explicit:'a -> 'a knob -> 'a
(** The effective value: [explicit] if given, else the override, else
    the environment variable (read on every call), else the default. *)

val set : 'a knob -> 'a -> unit
(** Install a process-wide override (thread-safe). *)

val clear : 'a knob -> unit
(** Remove the override. *)

val with_ : 'a knob -> 'a -> (unit -> 'b) -> 'b
(** [with_ k v f] runs [f] with the override set to [v], restoring the
    previous override afterwards (also on exceptions). *)

val positive_int : string -> int option
(** Parser for integer environment variables: [Some n] for a
    (whitespace-trimmed) integer [n >= 1], else [None]. *)

(** {1 Jobs}

    The worker count used by {!Pool} when none is given explicitly:
    override {!set_jobs}, then [CAYMAN_JOBS], then
    [Domain.recommended_domain_count ()]. A resolved count of [1] means
    "run sequentially in the calling domain"; no worker domains are
    ever spawned in that case. *)

val env_var : string
(** Name of the environment variable consulted by {!jobs}
    (["CAYMAN_JOBS"]). *)

val max_jobs : int
(** Upper bound on any resolved worker count (guards against absurd
    [CAYMAN_JOBS] values spawning hundreds of domains). *)

val set_jobs : int -> unit
(** [set_jobs n] installs a process-wide override, clamped to
    [1..max_jobs]. Used by the CLI's [--jobs] flag. *)

val clear_jobs : unit -> unit
(** Remove the override installed by {!set_jobs}. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs n f] runs [f] with the override set to [n] (clamped),
    restoring the previous override afterwards (also on exceptions). *)

val jobs : ?jobs:int -> unit -> int
(** [jobs ()] resolves the effective worker count as documented above.
    [jobs ~jobs:n ()] short-circuits resolution with [n] (still
    clamped); non-positive [n] falls through to normal resolution. *)

(** {1 Fuel}

    Interpreter runs throughout the pipeline (profiling, co-simulation,
    fault campaigns) consume fuel — one unit per executed instruction —
    and raise [Cayman_sim.Interp.Out_of_fuel] when it runs out. The
    default budget: a {!set_fuel} override (the CLI's [--fuel] flag),
    then [CAYMAN_FUEL], then {!default_fuel}. A finite default turns
    would-be hangs into catchable diagnostics. *)

val fuel_env_var : string
(** Name of the environment variable consulted by {!fuel}
    (["CAYMAN_FUEL"]). *)

val default_fuel : int
(** Fallback fuel budget (2e9 executed instructions — far above any
    legitimate benchmark run, small enough to terminate). *)

val set_fuel : int -> unit
(** [set_fuel n] installs a process-wide override. Non-positive [n] is
    ignored. Used by the CLI's [--fuel] flag. *)

val clear_fuel : unit -> unit
(** Remove the override installed by {!set_fuel}. *)

val fuel : ?fuel:int -> unit -> int
(** [fuel ()] resolves the effective fuel budget as documented above.
    [fuel ~fuel:n ()] short-circuits with [n] when positive. *)
