(* The benchmark's own spans, recorded around each call into a library's
   public functions.

   Spans live in memory (main domain only — the load generator is
   single-threaded) and are written out once, when the run ends. Each
   span carries the Gc minor-words delta of its call, which at one job
   is an exact, host-independent count. *)

type span = {
  s_id : int;
  s_parent : int;  (* 0 = top level *)
  s_op : int;  (* op index within the run *)
  s_name : string;
  s_start : float;  (* seconds since the run's epoch *)
  s_end : float;
  s_alloc_w : float;  (* minor words allocated during the call *)
}

let enabled = ref false
let epoch = ref 0.0
let op = ref 0
let next_id = ref 1
let stack : int list ref = ref []
let recorded : span list ref = ref []

let start () =
  enabled := true;
  epoch := Unix.gettimeofday ();
  op := 0;
  next_id := 1;
  stack := [];
  recorded := []

let stop () = enabled := false
let set_op i = op := i

(* [span name f] runs [f ()] inside a span named [name]. The span is
   recorded whether [f] returns or raises. Disabled, it is [f ()]. *)
let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let w1 = Gc.minor_words () in
      stack := List.tl !stack;
      recorded :=
        { s_id = id; s_parent = parent; s_op = !op; s_name = name;
          s_start = t0 -. !epoch; s_end = t1 -. !epoch;
          s_alloc_w = w1 -. w0 }
        :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () = List.rev !recorded

(* Self time of every span: its duration minus the part of it its
   children cover (children of one span never overlap: they run on the
   same domain, one after the other). *)
let self_times (l : span list) =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.s_parent <> 0 then begin
        let c = Option.value (Hashtbl.find_opt child s.s_parent) ~default:0.0 in
        Hashtbl.replace child s.s_parent (c +. (s.s_end -. s.s_start))
      end)
    l;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child s.s_id) ~default:0.0 in
      s, s.s_end -. s.s_start -. c)
    l

(* Per-name totals: [name -> (inclusive seconds, minor words)]. *)
let rollup l =
  let t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let inc, w = Option.value (Hashtbl.find_opt t s.s_name) ~default:(0.0, 0.0) in
      Hashtbl.replace t s.s_name (inc +. (s.s_end -. s.s_start), w +. s.s_alloc_w))
    l;
  t

let span_to_json s self =
  Obs.Json.Obj
    [ "id", Obs.Json.Int s.s_id;
      "parent", Obs.Json.Int s.s_parent;
      "op", Obs.Json.Int s.s_op;
      "name", Obs.Json.String s.s_name;
      "start_s", Obs.Json.Float s.s_start;
      "end_s", Obs.Json.Float s.s_end;
      "self_s", Obs.Json.Float self;
      "alloc_words", Obs.Json.Float s.s_alloc_w ]

(* Record a top-level span whose bounds were taken by the caller — for
   work that overlaps other work, like requests in flight together. *)
let record ?(alloc_w = 0.0) name t0 t1 =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    recorded :=
      { s_id = id; s_parent = 0; s_op = !op; s_name = name;
        s_start = t0 -. !epoch; s_end = t1 -. !epoch; s_alloc_w = alloc_w }
      :: !recorded
  end
