(* Structured, leveled event log with per-domain ring buffers.

   Recording goes through [Ring], like [Trace]: each domain appends to
   its own bounded ring and event ids are globally monotone, so reads
   merge every ring into one canonical id-sorted sequence. Rings
   overwrite the oldest event once full — the log is a bounded
   in-memory tail, never an unbounded queue — and what was lost is
   counted in [dropped].

   Field keys are interned once (typically at module init:
   [let k_verb = Obs.Log.key "verb"]) so a hot-path event append is a
   list of small tuples, not repeated string hashing; names are
   recovered at render time.

   Events carry wall-clock timestamps and whatever each domain happened
   to execute, so the log is schedule-dependent by nature — like gauges
   and wall histograms, it is an observability surface, never an input
   to the determinism contract (DESIGN.md section 13). *)

type level =
  | Debug
  | Info
  | Warn
  | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* --- interned field keys --- *)

type key = int

let key_table : (string, int) Hashtbl.t = Hashtbl.create 32
let key_names : string array ref = ref (Array.make 32 "")
let n_keys = ref 0
let key_mutex = Mutex.create ()

let key name =
  Mutex.lock key_mutex;
  let id =
    match Hashtbl.find_opt key_table name with
    | Some id -> id
    | None ->
      let id = !n_keys in
      if id >= Array.length !key_names then begin
        let bigger = Array.make (2 * Array.length !key_names) "" in
        Array.blit !key_names 0 bigger 0 (Array.length !key_names);
        key_names := bigger
      end;
      !key_names.(id) <- name;
      Hashtbl.add key_table name id;
      incr n_keys;
      id
  in
  Mutex.unlock key_mutex;
  id

let key_name id =
  if id < 0 || id >= !n_keys then
    invalid_arg (Printf.sprintf "Obs.Log.key_name: unknown key %d" id)
  else !key_names.(id)

(* --- events --- *)

type value =
  | I of int
  | F of float
  | S of string
  | B of bool

type event = {
  ev_id : int;  (* unique, monotone in append order across domains *)
  ev_t : float;  (* seconds since the log epoch *)
  ev_level : level;
  ev_msg : string;
  ev_fields : (key * value) list;
  ev_dom : int;  (* appending domain id *)
}

(* Per-domain rings; the bounded in-memory tail. *)
let ring : event Ring.t = Ring.create ~capacity:(1 lsl 12)

(* Events strictly below this rank are skipped on one atomic load. *)
let min_rank = Atomic.make (level_rank Info)

let set_level l = Atomic.set min_rank (level_rank l)
let enabled l = level_rank l >= Atomic.get min_rank

let log l msg fields =
  if enabled l then begin
    let b = Ring.local ring in
    Ring.push ring b
      { ev_id = Ring.next_id ring;
        ev_t = Unix.gettimeofday () -. Ring.epoch ring;
        ev_level = l;
        ev_msg = msg;
        ev_fields = fields;
        ev_dom = Ring.dom b }
  end

let debug msg fields = log Debug msg fields
let info msg fields = log Info msg fields
let warn msg fields = log Warn msg fields
let error msg fields = log Error msg fields

(* Merged snapshot in canonical id order. Like [Trace.spans], the
   caller owns quiescence. *)
let events () = Ring.contents ring ~id:(fun e -> e.ev_id)

let tail n =
  if n <= 0 then []
  else
    let all = events () in
    let drop = List.length all - n in
    if drop <= 0 then all else List.filteri (fun i _ -> i >= drop) all

let dropped () = Ring.dropped ring
let reset () = Ring.reset ring

(* --- JSON export --- *)

let value_to_json = function
  | I n -> Json.Int n
  | F x -> Json.Float x
  | S s -> Json.String s
  | B b -> Json.Bool b

let event_to_json (e : event) : Json.t =
  Json.Obj
    [ "id", Json.Int e.ev_id;
      "t", Json.Float e.ev_t;
      "level", Json.String (level_name e.ev_level);
      "msg", Json.String e.ev_msg;
      ( "fields",
        Json.Obj
          (List.map (fun (k, v) -> key_name k, value_to_json v) e.ev_fields)
      );
      "dom", Json.Int e.ev_dom ]

let to_json ?tail:(n = max_int) () : Json.t =
  Json.Obj
    [ "events", Json.List (List.map event_to_json (tail n));
      "dropped", Json.Int (dropped ()) ]
