(* Nested wall-clock spans with per-domain ring buffers.

   The disabled path is one [Atomic.get] and a branch — no allocation,
   no locking, no clock read — so instrumentation can stay in every hot
   layer of the pipeline permanently. When enabled, each domain records
   completed spans into its own [Ring] (shared with [Log]): lock-free
   past the first span per domain, with globally monotone span ids, so
   flushing merges every ring into one canonical id-sorted sequence.

   Wall-clock timings are inherently schedule-dependent; anything that
   must be bit-identical across CAYMAN_JOBS values belongs in
   [Metrics], not here (see DESIGN.md section 8). *)

type span = {
  sp_id : int;  (* unique, monotone in start order across all domains *)
  sp_parent : int;  (* 0 = top-level *)
  sp_name : string;
  sp_cat : string;
  sp_start : float;  (* seconds since the trace epoch *)
  sp_dur : float;  (* seconds *)
  sp_dom : int;  (* recording domain id *)
}

(* Spans overwrite the oldest once a domain's ring is full, keeping
   memory bounded on pathological span floods while counting what was
   lost. *)
let ring : span Ring.t = Ring.create ~capacity:(1 lsl 14)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled on =
  if on && not (Atomic.get enabled_flag) then Ring.rearm ring;
  Atomic.set enabled_flag on

let span ?(cat = "cayman") name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let l = Ring.local ring in
    let id = Ring.next_id ring in
    let parent = match Ring.open_ids l with [] -> 0 | p :: _ -> p in
    Ring.set_open_ids l (id :: Ring.open_ids l);
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      (match Ring.open_ids l with
       | s :: rest when s = id -> Ring.set_open_ids l rest
       | ids -> Ring.set_open_ids l (List.filter (fun s -> s <> id) ids));
      Ring.push ring l
        { sp_id = id;
          sp_parent = parent;
          sp_name = name;
          sp_cat = cat;
          sp_start = t0 -. Ring.epoch ring;
          sp_dur = t1 -. t0;
          sp_dom = Ring.dom l }
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Snapshot of every ring in the canonical id order. Caller is
   responsible for quiescence (flush after the instrumented work has
   completed). *)
let spans () = Ring.contents ring ~id:(fun s -> s.sp_id)
let dropped () = Ring.dropped ring
let reset () = Ring.reset ring

(* Chrome trace_event export: one complete ("X") event per span, in
   microseconds, one tid lane per recording domain. Perfetto and
   chrome://tracing both accept the {"traceEvents": [...]} envelope. *)
let to_json () : Json.t =
  let ev (s : span) =
    Json.Obj
      [ "name", Json.String s.sp_name;
        "cat", Json.String s.sp_cat;
        "ph", Json.String "X";
        "ts", Json.Float (s.sp_start *. 1e6);
        "dur", Json.Float (s.sp_dur *. 1e6);
        "pid", Json.Int 1;
        "tid", Json.Int s.sp_dom;
        ( "args",
          Json.Obj
            [ "id", Json.Int s.sp_id; "parent", Json.Int s.sp_parent ] ) ]
  in
  Json.Obj
    [ "traceEvents", Json.List (List.map ev (spans ()));
      "displayTimeUnit", Json.String "ms" ]

let write_file path = Json.write_file path (to_json ())

(* Wall-time rollup by span name, heaviest first: the per-phase timing
   table `cayman stats` prints. *)
let rollup () =
  let tbl : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt tbl s.sp_name with
      | Some (n, t) ->
        incr n;
        t := !t +. s.sp_dur
      | None -> Hashtbl.add tbl s.sp_name (ref 1, ref s.sp_dur))
    (spans ());
  let rows =
    Hashtbl.fold (fun name (n, t) acc -> (name, !n, !t) :: acc) tbl []
  in
  List.sort
    (fun (n1, _, t1) (n2, _, t2) ->
      match compare t2 t1 with 0 -> compare n1 n2 | c -> c)
    rows
