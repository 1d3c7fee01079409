(* The observability subsystem: span recording invariants (including
   across pool domains), Chrome trace_event export parsed back with the
   library's own JSON reader, and the metrics determinism contract. *)

let check = Alcotest.(check bool)

(* --- Trace: span nesting and ordering invariants --- *)

(* Run a small instrumented workload — nested spans in the submitting
   domain plus a pool fan-out so several domains record — and return the
   merged span list. *)
let traced_workload () =
  Obs.Metrics.reset ();
  Obs.Trace.reset ();
  Obs.Trace.set_enabled true;
  let sink = ref 0 in
  Obs.Trace.span ~cat:"test" "outer" (fun () ->
      Obs.Trace.span ~cat:"test" "inner-a" (fun () -> sink := !sink + 1);
      Obs.Trace.span ~cat:"test" "inner-b" (fun () ->
          Obs.Trace.span ~cat:"test" "leaf" (fun () -> sink := !sink + 1)));
  let (_ : int list) =
    Engine.Pool.map ~jobs:3
      (fun i -> Obs.Trace.span ~cat:"test" "task" (fun () -> i * i))
      (List.init 16 (fun i -> i))
  in
  Obs.Trace.set_enabled false;
  Obs.Trace.spans ()

let test_span_invariants () =
  let spans = traced_workload () in
  check "spans recorded" true (List.length spans >= 5);
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Obs.Trace.sp_id s) spans;
  (* ids are unique and the merged sequence is sorted by id *)
  check "ids unique" true (Hashtbl.length by_id = List.length spans);
  let ids = List.map (fun s -> s.Obs.Trace.sp_id) spans in
  check "sorted by id" true (List.sort compare ids = ids);
  List.iter
    (fun (s : Obs.Trace.span) ->
      check "positive id" true (s.Obs.Trace.sp_id > 0);
      check "non-negative duration" true (s.Obs.Trace.sp_dur >= 0.0);
      if s.Obs.Trace.sp_parent <> 0 then begin
        match Hashtbl.find_opt by_id s.Obs.Trace.sp_parent with
        | None -> Alcotest.fail "span parent not recorded"
        | Some p ->
          (* children start after their parent (ids are handed out in
             start order), on the same domain, inside its interval *)
          check "parent precedes child" true
            (p.Obs.Trace.sp_id < s.Obs.Trace.sp_id);
          check "parent on same domain" true
            (p.Obs.Trace.sp_dom = s.Obs.Trace.sp_dom);
          check "child starts within parent" true
            (p.Obs.Trace.sp_start <= s.Obs.Trace.sp_start +. 1e-9);
          check "child ends within parent" true
            (s.Obs.Trace.sp_start +. s.Obs.Trace.sp_dur
             <= p.Obs.Trace.sp_start +. p.Obs.Trace.sp_dur +. 1e-9)
      end)
    spans;
  (* the nested block above must reconstruct: leaf under inner-b under
     outer *)
  let find name =
    List.find (fun s -> s.Obs.Trace.sp_name = name) spans
  in
  let outer = find "outer" and inner_b = find "inner-b" and leaf = find "leaf" in
  check "leaf nests in inner-b" true
    (leaf.Obs.Trace.sp_parent = inner_b.Obs.Trace.sp_id);
  check "inner-b nests in outer" true
    (inner_b.Obs.Trace.sp_parent = outer.Obs.Trace.sp_id);
  check "outer is top-level" true (outer.Obs.Trace.sp_parent = 0);
  (* pool tasks recorded from every participating domain are top-level
     or nested under the worker's chunk span *)
  let tasks = List.filter (fun s -> s.Obs.Trace.sp_name = "task") spans in
  check "all pool tasks recorded" true (List.length tasks = 16);
  Obs.Trace.reset ()

let test_disabled_records_nothing () =
  Obs.Trace.reset ();
  let v = Obs.Trace.span "invisible" (fun () -> 41 + 1) in
  Alcotest.(check int) "span is transparent" 42 v;
  check "nothing recorded while disabled" true (Obs.Trace.spans () = [])

(* --- Trace: Chrome export well-formedness, parsed back --- *)

let test_chrome_export () =
  let spans = traced_workload () in
  let txt = Obs.Json.to_string (Obs.Trace.to_json ()) in
  match Obs.Json.parse txt with
  | Error m -> Alcotest.fail ("trace JSON does not parse: " ^ m)
  | Ok j ->
    let events =
      match Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list with
      | Some l -> l
      | None -> Alcotest.fail "traceEvents missing"
    in
    Alcotest.(check int) "one event per span" (List.length spans)
      (List.length events);
    List.iter
      (fun e ->
        let str k = Option.bind (Obs.Json.member k e) Obs.Json.to_string_opt in
        let num k = Option.bind (Obs.Json.member k e) Obs.Json.to_float in
        check "ph is X" true (str "ph" = Some "X");
        check "has name" true (str "name" <> None);
        check "has cat" true (str "cat" <> None);
        check "ts is a number" true (num "ts" <> None);
        check "dur is non-negative" true
          (match num "dur" with Some d -> d >= 0.0 | None -> false);
        check "pid present" true (num "pid" <> None);
        check "tid present" true (num "tid" <> None))
      events;
    Obs.Trace.reset ()

(* --- Json: reader round-trips the emitter --- *)

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [ "s", Obs.Json.String "a\"b\\c\nd\te\x01";
        "i", Obs.Json.Int (-42);
        "f", Obs.Json.Float 1.5;
        "nan", Obs.Json.Float Float.nan;  (* serializes as null *)
        "b", Obs.Json.Bool true;
        "n", Obs.Json.Null;
        "l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.List []; Obs.Json.Obj [] ]
      ]
  in
  match Obs.Json.parse (Obs.Json.to_string v) with
  | Error m -> Alcotest.fail ("round-trip parse failed: " ^ m)
  | Ok r ->
    let expect =
      Obs.Json.Obj
        [ "s", Obs.Json.String "a\"b\\c\nd\te\x01";
          "i", Obs.Json.Int (-42);
          "f", Obs.Json.Float 1.5;
          "nan", Obs.Json.Null;
          "b", Obs.Json.Bool true;
          "n", Obs.Json.Null;
          "l",
          Obs.Json.List [ Obs.Json.Int 1; Obs.Json.List []; Obs.Json.Obj [] ]
        ]
    in
    check "round-trip preserves structure" true (r = expect)

let test_json_rejects_garbage () =
  check "trailing garbage rejected" true
    (Result.is_error (Obs.Json.parse "{} x"));
  check "unterminated string rejected" true
    (Result.is_error (Obs.Json.parse "\"abc"));
  check "bare word rejected" true (Result.is_error (Obs.Json.parse "nulL"))

(* --- Metrics: kinds, snapshots, determinism policy --- *)

let test_metrics_kinds () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "testobs.counter" in
  let g = Obs.Metrics.gauge "testobs.gauge" in
  let h = Obs.Metrics.histogram "testobs.hist" in
  Obs.Metrics.add c 5;
  Obs.Metrics.incr c;
  Obs.Metrics.gauge_set g 7;
  Obs.Metrics.gauge_add g 3;
  List.iter (Obs.Metrics.observe h) [ 1; 2; 4; 100 ];
  Alcotest.(check int) "counter value" 6 (Obs.Metrics.value c);
  (* re-interning by name returns the same cell *)
  Obs.Metrics.incr (Obs.Metrics.counter "testobs.counter");
  Alcotest.(check int) "interned by name" 7 (Obs.Metrics.value c);
  check "kind mismatch raises" true
    (try
       ignore (Obs.Metrics.gauge "testobs.counter");
       false
     with Invalid_argument _ -> true);
  let snap = Obs.Metrics.snapshot () in
  check "counter snapshot" true
    (List.assoc "testobs.counter" snap = Obs.Metrics.S_counter 7);
  check "gauge snapshot" true
    (List.assoc "testobs.gauge" snap = Obs.Metrics.S_gauge 10);
  (match List.assoc "testobs.hist" snap with
   | Obs.Metrics.S_histogram hs ->
     Alcotest.(check int) "hist count" 4 hs.Obs.Metrics.hs_count;
     Alcotest.(check int) "hist sum" 107 hs.Obs.Metrics.hs_sum;
     Alcotest.(check int) "hist min" 1 hs.Obs.Metrics.hs_min;
     Alcotest.(check int) "hist max" 100 hs.Obs.Metrics.hs_max
   | Obs.Metrics.S_counter _ | Obs.Metrics.S_gauge _
   | Obs.Metrics.S_wall_histogram _ ->
     Alcotest.fail "histogram snapshotted with the wrong kind");
  (* wall histograms share the histogram shape but keep a distinct kind *)
  let w = Obs.Metrics.wall_histogram "testobs.wall" in
  List.iter (Obs.Metrics.observe w) [ 10; 20 ];
  check "wall histogram kind mismatch raises" true
    (try
       ignore (Obs.Metrics.histogram "testobs.wall");
       false
     with Invalid_argument _ -> true);
  (match List.assoc "testobs.wall" (Obs.Metrics.snapshot ()) with
   | Obs.Metrics.S_wall_histogram hs ->
     Alcotest.(check int) "wall count" 2 hs.Obs.Metrics.hs_count;
     Alcotest.(check int) "wall sum" 30 hs.Obs.Metrics.hs_sum
   | Obs.Metrics.S_counter _ | Obs.Metrics.S_gauge _
   | Obs.Metrics.S_histogram _ ->
     Alcotest.fail "wall histogram snapshotted with the wrong kind");
  (* gauges and wall histograms are excluded from the deterministic
     subset *)
  let det = Obs.Metrics.deterministic_snapshot () in
  check "gauge excluded from deterministic subset" true
    (not (List.mem_assoc "testobs.gauge" det));
  check "wall histogram excluded from deterministic subset" true
    (not (List.mem_assoc "testobs.wall" det));
  check "counter included in deterministic subset" true
    (List.mem_assoc "testobs.counter" det);
  (* snapshots are sorted by name *)
  let names = List.map fst snap in
  check "snapshot sorted" true (List.sort compare names = names);
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (Obs.Metrics.value c)

let test_metrics_phase_and_json () =
  Alcotest.(check string) "phase_of" "select"
    (Obs.Metrics.phase_of "select.regions_visited");
  Alcotest.(check string) "phase_of without dot" "flat"
    (Obs.Metrics.phase_of "flat");
  Obs.Metrics.reset ();
  Obs.Metrics.add (Obs.Metrics.counter "testobs.jsonc") 9;
  match Obs.Json.parse (Obs.Json.to_string (Obs.Metrics.to_json ())) with
  | Error m -> Alcotest.fail ("metrics JSON does not parse: " ^ m)
  | Ok j ->
    let entries =
      match Option.bind (Obs.Json.member "metrics" j) Obs.Json.to_list with
      | Some l -> l
      | None -> Alcotest.fail "metrics array missing"
    in
    check "exported entry found" true
      (List.exists
         (fun e ->
           Option.bind (Obs.Json.member "name" e) Obs.Json.to_string_opt
           = Some "testobs.jsonc"
           && Option.bind (Obs.Json.member "value" e) Obs.Json.to_int = Some 9)
         entries);
    Obs.Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Metrics: wall_histogram determinism exemption (dedicated)           *)
(* ------------------------------------------------------------------ *)

(* The exemption test_metrics_kinds touches in passing, isolated: a
   wall histogram is a first-class member of [snapshot] but must NEVER
   reach [deterministic_snapshot] — it records wall-clock values, which
   the CAYMAN_JOBS={1,4} bit-identity harness cannot promise. *)
let test_wall_histogram_exemption () =
  Obs.Metrics.reset ();
  let w = Obs.Metrics.wall_histogram "testobs.exempt_wall" in
  let h = Obs.Metrics.histogram "testobs.exempt_hist" in
  List.iter (Obs.Metrics.observe w) [ 3; 1000; 7 ];
  Obs.Metrics.observe h 5;
  let snap = Obs.Metrics.snapshot () in
  (match List.assoc_opt "testobs.exempt_wall" snap with
   | Some (Obs.Metrics.S_wall_histogram hs) ->
     Alcotest.(check int) "wall hist counted in snapshot" 3
       hs.Obs.Metrics.hs_count
   | Some _ -> Alcotest.fail "wall histogram has the wrong snapshot kind"
   | None -> Alcotest.fail "wall histogram missing from snapshot");
  let det = Obs.Metrics.deterministic_snapshot () in
  check "wall histogram never in deterministic_snapshot" true
    (not (List.mem_assoc "testobs.exempt_wall" det));
  check "regular histogram stays in deterministic_snapshot" true
    (List.mem_assoc "testobs.exempt_hist" det);
  (* and the deterministic subset is exactly the snapshot minus gauges
     and wall histograms — no other filtering *)
  let expected =
    List.filter
      (fun (_, s) ->
        match s with
        | Obs.Metrics.S_counter _ | Obs.Metrics.S_histogram _ -> true
        | Obs.Metrics.S_gauge _ | Obs.Metrics.S_wall_histogram _ -> false)
      snap
  in
  check "deterministic subset = counters + histograms" true (det = expected);
  Obs.Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Log: structured events, per-domain rings, bounded tail              *)
(* ------------------------------------------------------------------ *)

let k_test_n = Obs.Log.key "n"
let k_test_who = Obs.Log.key "who"

let test_log_events () =
  Obs.Log.reset ();
  Obs.Log.set_level Obs.Log.Info;
  check "debug disabled at info level" false (Obs.Log.enabled Obs.Log.Debug);
  Obs.Log.debug "invisible" [];
  Obs.Log.info "one" [ k_test_n, Obs.Log.I 1 ];
  Obs.Log.warn "two" [ k_test_n, Obs.Log.I 2; k_test_who, Obs.Log.S "me" ];
  Obs.Log.error "three" [];
  let evs = Obs.Log.events () in
  Alcotest.(check int) "below-level events dropped at the call site" 3
    (List.length evs);
  let ids = List.map (fun e -> e.Obs.Log.ev_id) evs in
  check "ids sorted" true (List.sort compare ids = ids);
  (match evs with
   | [ a; b; c ] ->
     Alcotest.(check string) "msg order" "one" a.Obs.Log.ev_msg;
     check "level recorded" true (b.Obs.Log.ev_level = Obs.Log.Warn);
     check "fields recorded" true
       (List.assoc k_test_who b.Obs.Log.ev_fields = Obs.Log.S "me");
     check "error level" true (c.Obs.Log.ev_level = Obs.Log.Error)
   | _ -> Alcotest.fail "expected exactly three events");
  (* keys intern to the same id; names are recoverable *)
  check "key interned" true (Obs.Log.key "n" = k_test_n);
  Alcotest.(check string) "key name" "who" (Obs.Log.key_name k_test_who);
  (* tail keeps the most recent events *)
  let t = Obs.Log.tail 2 in
  check "tail keeps last two" true
    (List.map (fun e -> e.Obs.Log.ev_msg) t = [ "two"; "three" ]);
  Obs.Log.reset ()

let test_log_multi_domain () =
  Obs.Log.reset ();
  let (_ : int list) =
    Engine.Pool.map ~jobs:3
      (fun i ->
        Obs.Log.info "task" [ k_test_n, Obs.Log.I i ];
        i)
      (List.init 24 (fun i -> i))
  in
  let evs = Obs.Log.events () in
  Alcotest.(check int) "one event per task" 24 (List.length evs);
  let ids = List.map (fun e -> e.Obs.Log.ev_id) evs in
  let uniq = List.sort_uniq compare ids in
  check "ids unique across domains" true (List.length uniq = 24);
  check "merged in id order" true (List.sort compare ids = ids);
  Obs.Log.reset ()

(* The per-domain ring under Trace and Log: a full ring keeps its
   newest entries, counts the overwritten ones, and reset forgets
   entries, losses, open ids and the id sequence. *)
let test_ring_overflow_reset () =
  let r : int Obs.Ring.t = Obs.Ring.create ~capacity:4 in
  let l = Obs.Ring.local r in
  for _ = 1 to 10 do
    Obs.Ring.push r l (Obs.Ring.next_id r)
  done;
  Alcotest.(check (list int)) "newest entries retained in id order"
    [ 7; 8; 9; 10 ] (Obs.Ring.contents r ~id:Fun.id);
  Alcotest.(check int) "overwrites counted" 6 (Obs.Ring.dropped r);
  Obs.Ring.set_open_ids l [ 3 ];
  Obs.Ring.reset r;
  check "reset clears entries" true (Obs.Ring.contents r ~id:Fun.id = []);
  Alcotest.(check int) "reset clears drop count" 0 (Obs.Ring.dropped r);
  check "reset clears open ids" true (Obs.Ring.open_ids l = []);
  Alcotest.(check int) "reset restarts ids" 1 (Obs.Ring.next_id r)

let test_log_json () =
  Obs.Log.reset ();
  Obs.Log.info "req" [ k_test_n, Obs.Log.I 7; k_test_who, Obs.Log.S "cli" ];
  let txt = Obs.Json.to_string (Obs.Log.to_json ()) in
  (match Obs.Json.parse txt with
   | Error m -> Alcotest.fail ("log JSON does not parse: " ^ m)
   | Ok j ->
     (match Option.bind (Obs.Json.member "events" j) Obs.Json.to_list with
      | Some [ e ] ->
        check "msg exported" true
          (Option.bind (Obs.Json.member "msg" e) Obs.Json.to_string_opt
           = Some "req");
        let fields =
          match Obs.Json.member "fields" e with
          | Some f -> f
          | None -> Alcotest.fail "fields missing"
        in
        check "int field exported by key name" true
          (Option.bind (Obs.Json.member "n" fields) Obs.Json.to_int = Some 7);
        check "string field exported" true
          (Option.bind (Obs.Json.member "who" fields) Obs.Json.to_string_opt
           = Some "cli")
      | _ -> Alcotest.fail "expected exactly one exported event"));
  Obs.Log.reset ()

(* ------------------------------------------------------------------ *)
(* Window: explicit ticks, rolling aggregation, bucket percentiles     *)
(* ------------------------------------------------------------------ *)

let agg_of name aggs =
  match List.find_opt (fun a -> a.Obs.Window.a_name = name) aggs with
  | Some a -> a
  | None -> Alcotest.fail ("window aggregate missing: " ^ name)

let test_window_counter_rate () =
  Obs.Metrics.reset ();
  let w = Obs.Window.create ~slots:4 () in
  Obs.Window.track_counter w "testwin.count";
  let c = Obs.Metrics.counter "testwin.count" in
  Obs.Metrics.add c 1000;  (* pre-window history must not leak in *)
  Obs.Window.tick w ~dt_s:0.0;
  check "tracking after the first tick is refused" true
    (try
       Obs.Window.track_counter w "testwin.late";
       false
     with Invalid_argument _ -> true);
  Obs.Metrics.add c 10;
  Obs.Window.tick w ~dt_s:2.0;
  let a = agg_of "testwin.count" (Obs.Window.aggregate w) in
  Alcotest.(check int) "window counts only in-window deltas" 10
    a.Obs.Window.a_count;
  check "rate over the span" true (abs_float (a.Obs.Window.a_rate -. 5.0) < 1e-9);
  check "span accumulated" true (abs_float (a.Obs.Window.a_span_s -. 2.0) < 1e-9);
  (* ring rollover: 4 slots of 1s each at 1/s pushes the first delta out *)
  for _ = 1 to 4 do
    Obs.Metrics.add c 1;
    Obs.Window.tick w ~dt_s:1.0
  done;
  let a = agg_of "testwin.count" (Obs.Window.aggregate w) in
  Alcotest.(check int) "old slots evicted" 4 a.Obs.Window.a_count;
  check "span is the retained slots" true
    (abs_float (a.Obs.Window.a_span_s -. 4.0) < 1e-9);
  (* ?last narrows further *)
  let a = agg_of "testwin.count" (Obs.Window.aggregate ~last:2 w) in
  Alcotest.(check int) "last-2 slots only" 2 a.Obs.Window.a_count

let test_window_wall_percentiles () =
  Obs.Metrics.reset ();
  let w = Obs.Window.create ~slots:8 () in
  Obs.Window.track_wall w "testwin.lat";
  let h = Obs.Metrics.wall_histogram "testwin.lat" in
  Obs.Window.tick w ~dt_s:0.0;
  (* nine 1s and one 100: p50 sits in the [1,1] bucket, p95/p99 in the
     [64,127] bucket — quantiles report bucket upper bounds *)
  for _ = 1 to 9 do Obs.Metrics.observe h 1 done;
  Obs.Metrics.observe h 100;
  Obs.Window.tick w ~dt_s:1.0;
  let a = agg_of "testwin.lat" (Obs.Window.aggregate w) in
  check "wall kind" true (a.Obs.Window.a_kind = Obs.Window.Wall);
  Alcotest.(check int) "count" 10 a.Obs.Window.a_count;
  Alcotest.(check int) "sum" 109 a.Obs.Window.a_sum;
  Alcotest.(check int) "p50 = bucket upper bound" 1 a.Obs.Window.a_p50;
  Alcotest.(check int) "p95 lands in the top bucket" 127 a.Obs.Window.a_p95;
  Alcotest.(check int) "p99 lands in the top bucket" 127 a.Obs.Window.a_p99;
  Alcotest.(check int) "min = lower bound of lowest bucket" 1
    a.Obs.Window.a_min;
  Alcotest.(check int) "max = upper bound of highest bucket" 127
    a.Obs.Window.a_max;
  (* a second, empty tick leaves the aggregates unchanged except span *)
  Obs.Window.tick w ~dt_s:1.0;
  let a = agg_of "testwin.lat" (Obs.Window.aggregate w) in
  Alcotest.(check int) "empty tick adds no events" 10 a.Obs.Window.a_count;
  check "span grows" true (abs_float (a.Obs.Window.a_span_s -. 2.0) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Expose: exposition rendering and byte-exact round-trip              *)
(* ------------------------------------------------------------------ *)

let test_expose_mapping () =
  Obs.Metrics.reset ();
  Obs.Metrics.add (Obs.Metrics.counter "testexp.reqs") 41;
  Obs.Metrics.gauge_set (Obs.Metrics.gauge "testexp.depth") 3;
  List.iter
    (Obs.Metrics.observe (Obs.Metrics.wall_histogram "testexp.lat-us"))
    [ 2; 6 ];
  let fams = Obs.Expose.of_snapshot (Obs.Metrics.snapshot ()) in
  let find name =
    match Obs.Expose.find fams name with
    | Some f -> f
    | None -> Alcotest.fail ("family missing: " ^ name)
  in
  let c = find "cayman_testexp_reqs_total" in
  Alcotest.(check string) "counter type" "counter" c.Obs.Expose.f_type;
  check "counter value" true
    (Obs.Expose.sample_value c "" = Some (Obs.Expose.V_int 41));
  let g = find "cayman_testexp_depth" in
  Alcotest.(check string) "gauge type" "gauge" g.Obs.Expose.f_type;
  (* '-' sanitized to '_' *)
  let s = find "cayman_testexp_lat_us" in
  Alcotest.(check string) "histogram becomes a summary" "summary"
    s.Obs.Expose.f_type;
  check "summary count/sum/min/max" true
    (Obs.Expose.sample_value s "_count" = Some (Obs.Expose.V_int 2)
     && Obs.Expose.sample_value s "_sum" = Some (Obs.Expose.V_int 8)
     && Obs.Expose.sample_value s "_min" = Some (Obs.Expose.V_int 2)
     && Obs.Expose.sample_value s "_max" = Some (Obs.Expose.V_int 6));
  Obs.Metrics.reset ()

(* The acceptance-criteria round trip: the full metrics snapshot plus
   window aggregates renders, parses back, and re-renders byte-exactly. *)
let test_expose_roundtrip () =
  Obs.Metrics.reset ();
  Obs.Metrics.add (Obs.Metrics.counter "testexp.rt_count") 7;
  Obs.Metrics.gauge_set (Obs.Metrics.gauge "testexp.rt_gauge") (-2);
  List.iter
    (Obs.Metrics.observe (Obs.Metrics.histogram "testexp.rt_hist"))
    [ 1; 5; 9 ];
  let w = Obs.Window.create ~slots:4 () in
  Obs.Window.track_counter w "testexp.rt_count";
  Obs.Window.track_wall w "testexp.rt_wall";
  let h = Obs.Metrics.wall_histogram "testexp.rt_wall" in
  Obs.Window.tick w ~dt_s:0.0;
  Obs.Metrics.add (Obs.Metrics.counter "testexp.rt_count") 3;
  List.iter (Obs.Metrics.observe h) [ 10; 20; 30 ];
  (* deliberately awkward dt so _rate and _span_seconds are non-integral *)
  Obs.Window.tick w ~dt_s:0.9;
  let fams =
    Obs.Expose.of_snapshot
      ~windows:(Obs.Window.aggregate w)
      (Obs.Metrics.snapshot ())
  in
  let text = Obs.Expose.render fams in
  (match Obs.Expose.parse text with
   | Error m -> Alcotest.fail ("rendered exposition does not parse: " ^ m)
   | Ok fams2 ->
     check "parse reconstructs the families" true (fams2 = fams);
     Alcotest.(check string) "render . parse . render is byte-exact" text
       (Obs.Expose.render fams2));
  (* window families carry the quantile samples *)
  (match Obs.Expose.find fams "cayman_window_testexp_rt_wall" with
   | None -> Alcotest.fail "window wall family missing"
   | Some f ->
     check "p50 quantile sample" true
       (Obs.Expose.sample_value f ~labels:[ "quantile", "0.5" ] ""
        <> None);
     check "rate sample" true (Obs.Expose.sample_value f "_rate" <> None));
  Obs.Metrics.reset ()

let test_expose_parse_rejects_garbage () =
  check "sample before TYPE rejected" true
    (Result.is_error (Obs.Expose.parse "cayman_x 1\n"));
  check "malformed TYPE rejected" true
    (Result.is_error (Obs.Expose.parse "# TYPE lonely\n"));
  check "bad value rejected" true
    (Result.is_error
       (Obs.Expose.parse "# TYPE cayman_x counter\ncayman_x pots\n"));
  check "unterminated labels rejected" true
    (Result.is_error
       (Obs.Expose.parse
          "# TYPE cayman_x summary\ncayman_x{quantile=\"0.5 1\n"));
  check "blank lines and comments tolerated" true
    (match
       Obs.Expose.parse "\n# a comment\n# TYPE cayman_x counter\ncayman_x 1\n"
     with
     | Ok [ f ] -> f.Obs.Expose.f_name = "cayman_x"
     | _ -> false)

let tests =
  [ Alcotest.test_case "span invariants" `Quick test_span_invariants;
    Alcotest.test_case "disabled tracing records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "chrome export" `Quick test_chrome_export;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "metric kinds and snapshots" `Quick test_metrics_kinds;
    Alcotest.test_case "metric phases and json export" `Quick
      test_metrics_phase_and_json;
    Alcotest.test_case "wall histogram determinism exemption" `Quick
      test_wall_histogram_exemption;
    Alcotest.test_case "log events and tail" `Quick test_log_events;
    Alcotest.test_case "log across pool domains" `Quick test_log_multi_domain;
    Alcotest.test_case "ring overflow and reset" `Quick test_ring_overflow_reset;
    Alcotest.test_case "log json export" `Quick test_log_json;
    Alcotest.test_case "window counter rates" `Quick test_window_counter_rate;
    Alcotest.test_case "window wall percentiles" `Quick
      test_window_wall_percentiles;
    Alcotest.test_case "expose family mapping" `Quick test_expose_mapping;
    Alcotest.test_case "expose byte-exact round-trip" `Quick
      test_expose_roundtrip;
    Alcotest.test_case "expose parse rejects garbage" `Quick
      test_expose_parse_rejects_garbage ]
