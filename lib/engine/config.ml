(* --- knobs ---
   One resolution rule for every process-wide setting: explicit
   argument > process override > environment variable > default. The
   environment is read on every [get] (tests [putenv] between calls);
   the override is atomic because tests flip it around parallel
   pipeline runs. *)

type 'a knob = {
  env : string;
  parse : string -> 'a option;
  default : unit -> 'a;
  override : 'a option Atomic.t;
}

let knob ~env ~parse ~default =
  { env; parse; default; override = Atomic.make None }

let get ?explicit k =
  match explicit with
  | Some v -> v
  | None ->
    (match Atomic.get k.override with
     | Some v -> v
     | None ->
       (match Option.bind (Sys.getenv_opt k.env) k.parse with
        | Some v -> v
        | None -> k.default ()))

let set k v = Atomic.set k.override (Some v)
let clear k = Atomic.set k.override None

let with_ k v f =
  let saved = Atomic.get k.override in
  Atomic.set k.override (Some v);
  Fun.protect ~finally:(fun () -> Atomic.set k.override saved) f

let positive n = if n >= 1 then Some n else None
let positive_int s = Option.bind (int_of_string_opt (String.trim s)) positive

(* --- jobs --- *)

let env_var = "CAYMAN_JOBS"

(* More domains than this never helps (the container has far fewer
   cores) and each domain carries its own minor heap. *)
let max_jobs = 64

let clamp n = max 1 (min max_jobs n)

let jobs_knob =
  knob ~env:env_var
    ~parse:(fun s -> Option.map clamp (positive_int s))
    ~default:(fun () -> clamp (Domain.recommended_domain_count ()))

let set_jobs n = set jobs_knob (clamp n)
let clear_jobs () = clear jobs_knob
let with_jobs n f = with_ jobs_knob (clamp n) f

let jobs ?jobs () =
  get ?explicit:(Option.map clamp (Option.bind jobs positive)) jobs_knob

(* --- fuel --- *)

let fuel_env_var = "CAYMAN_FUEL"

let default_fuel = 2_000_000_000

let fuel_knob =
  knob ~env:fuel_env_var ~parse:positive_int ~default:(fun () -> default_fuel)

let set_fuel n = if n >= 1 then set fuel_knob n
let clear_fuel () = clear fuel_knob
let fuel ?fuel () = get ?explicit:(Option.bind fuel positive) fuel_knob
