(* Runs one workload and turns its samples into metrics.

   Host calibration: a fixed reference loop ({!Perfbench_ref.Refloop})
   runs after every batch, on a settled heap. Each batch's times are
   scaled by nominal / (mean of the reference runs around it), so
   reported times read as if measured on the host the nominal figure
   was frozen on. Raw seconds and the reference timings are reported
   too, so raw time can be recovered. *)

module W = Workloads
module Refloop = Perfbench_ref.Refloop

(* Taken when this module initialises, just after the program's
   libraries: the start of the first set-up. *)
let process_start = Unix.gettimeofday ()

let now = Unix.gettimeofday

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  spans_json : Obs.Json.t option;  (* traced run only *)
}

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* The tail percentile: the highest of these with at least ten samples
   beyond it. *)
let tail_quantiles = [ 0.999; 0.995; 0.99; 0.98; 0.95; 0.9; 0.8; 0.75; 0.5 ]

let tail_quantile n =
  let beyond q = n - int_of_float (Float.ceil (q *. float_of_int n)) in
  Option.value (List.find_opt (fun q -> beyond q >= 10) tail_quantiles) ~default:0.5

(* Host factor of batch [b]: reference run [b] precedes it and [b + 1]
   follows it. The drift moves within a second, so the window is only
   the two on each side: wider windows tracked the ops worse. *)
let factors refs =
  let nb = Array.length refs - 1 in
  Array.init nb (fun b ->
      let lo = max 0 (b - 1) and hi = min nb (b + 2) in
      Refloop.nominal_s /. mean (Array.sub refs lo (hi - lo + 1)))

let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec find () =
            let l = input_line ic in
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.0))
            else find ()
          in
          try find () with End_of_file -> None)
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 131072.0

(* ------------------------------------------------------------------ *)
(* Per-layer numbers from the traced run                               *)
(* ------------------------------------------------------------------ *)

(* Inclusive and self seconds per span name of the program's own
   Obs.Trace spans, summed over the run. *)
let add_obs_spans tbl (spans : Obs.Trace.span list) =
  let child = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      if s.Obs.Trace.sp_parent <> 0 then
        Hashtbl.replace child s.Obs.Trace.sp_parent
          (s.Obs.Trace.sp_dur
          +. Option.value (Hashtbl.find_opt child s.Obs.Trace.sp_parent) ~default:0.0))
    spans;
  List.iter
    (fun (s : Obs.Trace.span) ->
      let self =
        s.Obs.Trace.sp_dur
        -. Option.value (Hashtbl.find_opt child s.Obs.Trace.sp_id) ~default:0.0
      in
      let n, inc, sf =
        Option.value (Hashtbl.find_opt tbl s.Obs.Trace.sp_name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace tbl s.Obs.Trace.sp_name (n + 1, inc +. s.Obs.Trace.sp_dur, sf +. self))
    spans

let snap_int snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.S_counter v) | Some (Obs.Metrics.S_gauge v) -> v
  | _ -> 0

(* The benchmark's own span names whose allocation is reported. *)
let alloc_layers =
  [ "frontend.compile"; "core.analyze"; "core.select"; "core.merge";
    "hls.netlist"; "fleet.run"; "rtl.cosim"; "serve.client" ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

let layer_metrics ~host ~before ~after ~obs ~wall_norm ~wall_raw ~ref_s =
  let spans = Tracer.spans () in
  let ours = Tracer.rollup spans in
  let d name = float_of_int (snap_int after name - snap_int before name) in
  let own name = Option.map fst (Hashtbl.find_opt ours name) in
  let obs_s name =
    match Hashtbl.find_opt obs name with Some (_, inc, _) -> inc | None -> 0.0
  in
  (* a public call the benchmark wraps itself, else the program's own
     span of that layer (inside fleet and the daemon) *)
  let layer_s ours_name obs_name =
    match own ours_name with Some s -> s | None -> obs_s obs_name
  in
  let ms s = 1e3 *. s *. host in
  let median_ms name =
    ms (median (Option.value (Hashtbl.find_opt W.notes name) ~default:[]))
  in
  let interp_ms = ms (obs_s "sim.interp") in
  let instrs = d "sim.profile_instrs" in
  let cosim_ms = ms (layer_s "rtl.cosim" "rtl.cosim") in
  let invocations = d "rtl.cosim_invocations" in
  let lookups = d "memo.run_shared" +. d "memo.disk_hits" +. d "memo.disk_misses" in
  let kernels = d "fleet.kernels" in
  let distinct =
    List.fold_left ( +. ) 0.0
      (Option.value (Hashtbl.find_opt W.notes "fleet.distinct") ~default:[])
  in
  let queue_max =
    List.fold_left max 0.0
      (Option.value (Hashtbl.find_opt W.notes "serve.queue_depth") ~default:[])
  in
  let m n v u = { m_name = n; m_value = v; m_unit = u } in
  [ m "frontend.compile_ms" (ms (layer_s "frontend.compile" "frontend.compile")) "ms";
    m "core.analyze_ms" (ms (layer_s "core.analyze" "core.analyze")) "ms";
    m "sim.interp_ms" interp_ms "ms";
    m "analysis.ifconv_ms" (ms (obs_s "analysis.ifconv")) "ms";
    m "analysis.wpst_ms" (ms (obs_s "analysis.wpst")) "ms";
    m "hls.ctx_ms" (ms (obs_s "hls.ctx")) "ms";
    m "sim.profile_instrs" instrs "count";
    m "sim.ns_per_instr" (ratio (interp_ms *. 1e6) instrs) "ns";
    m "core.select_ms" (ms (layer_s "core.select" "select")) "ms";
    m "select.gen_ms" (ms (obs_s "select.gen")) "ms";
    m "select.dp_ms" (ms (obs_s "select.dp")) "ms";
    m "select.points_evaluated" (d "select.points_evaluated") "count";
    m "select.prune_ratio" (ratio (d "select.regions_pruned") (d "select.regions_visited")) "ratio";
    m "core.merge_ms" (ms (layer_s "core.merge" "merge")) "ms";
    m "hls.netlist_ms" (ms (layer_s "hls.netlist" "hls.netlist")) "ms";
    m "fleet.run_ms" (ms (layer_s "fleet.run" "fleet.run")) "ms";
    m "fleet.collect_ms" (ms (obs_s "fleet.collect")) "ms";
    m "fleet.merge_ms" (ms (obs_s "fleet.merge")) "ms";
    m "fleet.kernels" kernels "count";
    m "fleet.clusters" (d "fleet.clusters") "count";
    m "fleet.distinct_ratio" (ratio distinct kernels) "ratio";
    m "memo.puts" (d "memo.puts") "count";
    m "memo.bytes_written" (d "memo.bytes_written") "bytes";
    m "memo.disk_io_us" (d "memo.disk_io_us") "us";
    m "memo.share_ratio" (ratio (d "memo.run_shared") lookups) "ratio";
    m "rtl.cosim_ms" cosim_ms "ms";
    m "rtl.cosim_invocations" invocations "count";
    m "rtl.ms_per_invocation" (ratio cosim_ms invocations) "ms";
    m "rtl.cosim_sim_cycles" (d "rtl.cosim_sim_cycles") "count";
    m "serve.hit_ms" (median_ms "serve.hit_s") "ms";
    m "serve.miss_ms" (median_ms "serve.miss_s") "ms";
    m "serve.hit_ratio"
      (ratio (d "serve.cache_hits") (d "serve.cache_hits" +. d "serve.cache_misses"))
      "ratio";
    m "serve.queue_depth_max" queue_max "count";
    m "engine.pool_items" (d "engine.pool_items") "count";
    m "engine.pool_idle_us" (d "engine.pool_idle_us") "us" ]
  @ List.map
      (fun layer ->
        let w = match Hashtbl.find_opt ours layer with Some (_, w) -> w | None -> 0.0 in
        m (layer ^ ".alloc_mw") (w /. 1e6) "Mwords")
      alloc_layers
  @ [ m "host.ref_ms" (1e3 *. ref_s) "ms";
      m "host.raw_wall_s" wall_raw "s";
      m "trace.wall_s" wall_norm "s" ]

let spans_json ~obs =
  let ours = Tracer.self_times (Tracer.spans ()) in
  Obs.Json.Obj
    [ "spans", Obs.Json.List (List.map (fun (s, self) -> Tracer.span_to_json s self) ours);
      ( "program_spans",
        Obs.Json.List
          (Hashtbl.fold
             (fun name (n, inc, self) acc ->
               Obs.Json.Obj
                 [ "name", Obs.Json.String name; "calls", Obs.Json.Int n;
                   "inclusive_s", Obs.Json.Float inc; "self_s", Obs.Json.Float self ]
               :: acc)
             obs []
          |> List.sort compare) ) ]

(* ------------------------------------------------------------------ *)
(* One run                                                             *)
(* ------------------------------------------------------------------ *)

let setups = 3

let run (w : W.workload) ~seed ~seconds ~trace ~golden_dir ~tmp =
  (* isolation: one job everywhere, one interpreter engine, no ambient
     store (workloads that need one open a private one) *)
  Engine.Config.set_jobs 1;
  Cayman_sim.Interp.set_engine Cayman_sim.Interp.Staged;
  Memo.Store.disable ();
  let golden = Golden.load ~dir:golden_dir w.W.name in
  (* Set up [setups] times and keep the last instance; set-up time is
     their median. The first is timed from process start. Calibration
     (three reference runs) is part of set-up, and all nine calibrate
     it: they run in the same young process and the same minute. *)
  let setup_once t0 =
    let io0 = W.store_io_s () in
    let inst = w.W.setup ~seed ~seconds ~tmp ~golden in
    let refs = List.init 3 (fun _ -> Refloop.run ()) in
    inst, now () -. t0 -. (W.store_io_s () -. io0), refs
  in
  let rec go k t0 times refs =
    let inst, s, r = setup_once t0 in
    if k = setups then inst, s :: times, r @ refs
    else begin
      inst.W.teardown ();
      go (k + 1) (now ()) (s :: times) (r @ refs)
    end
  in
  let inst, setup_raw, setup_refs = go 1 process_start [] [] in
  let ref0 = List.nth setup_refs 2 (* the last set-up's last *) in
  Hashtbl.reset W.notes;
  let nb = inst.W.batches in
  let refs = Array.make (nb + 1) ref0 in
  let walls = Array.make nb 0.0 in
  let samples = Array.make nb [] in
  let obs = Hashtbl.create 32 in
  let dropped = ref 0 in
  let before = Obs.Metrics.snapshot () in
  if trace then begin
    Tracer.start ();
    Obs.Trace.reset ();
    Obs.Trace.set_enabled true
  end;
  for b = 0 to nb - 1 do
    let wall, ss = inst.W.run_batch b in
    walls.(b) <- wall;
    samples.(b) <- ss;
    if trace then begin
      (* per-op reset keeps the program's span rings from wrapping *)
      dropped := !dropped + Obs.Trace.dropped ();
      add_obs_spans obs (Obs.Trace.spans ());
      Obs.Trace.reset ()
    end;
    refs.(b + 1) <- Refloop.run ()
  done;
  Obs.Trace.set_enabled false;
  Tracer.stop ();
  let after = Obs.Metrics.snapshot () in
  inst.W.teardown ();
  let f = factors refs in
  let all = List.concat (Array.to_list samples) in
  let attempted = List.length all in
  let failed = List.length (List.filter (fun s -> not s.W.ok) all) in
  let lat =
    Array.of_list
      (List.concat
         (List.mapi
            (fun b ss -> List.map (fun s -> s.W.lat_s *. f.(b)) ss)
            (Array.to_list samples)))
  in
  Array.sort compare lat;
  let raw_lat =
    Array.of_list (List.map (fun s -> s.W.lat_s) all)
  in
  Array.sort compare raw_lat;
  let wall_raw = Array.fold_left ( +. ) 0.0 walls in
  let wall_norm = ref 0.0 in
  Array.iteri (fun b wl -> wall_norm := !wall_norm +. (wl *. f.(b))) walls;
  let ref_s = median (Array.to_list refs) in
  let q = tail_quantile attempted in
  (* The same figures before host normalisation, so raw time can be
     recovered and the normalisation's effect measured. *)
  Printf.eprintf
    "perfbench %s seed=%d: %d ops in %d batches, tail = p%g; raw: setup_s %.6f \
     wall_s %.6f p50_ms %.6f tail_ms %.6f; reference median %.3f ms (min %.3f, \
     max %.3f)\n%!"
    w.W.name seed attempted nb (100.0 *. q)
    (median setup_raw)
    wall_raw (1e3 *. percentile raw_lat 0.5) (1e3 *. percentile raw_lat q)
    (1e3 *. ref_s)
    (1e3 *. Array.fold_left min infinity refs)
    (1e3 *. Array.fold_left max 0.0 refs);
  let m n v u = { m_name = n; m_value = v; m_unit = u } in
  let metrics =
    if trace then
      layer_metrics ~host:(Refloop.nominal_s /. ref_s) ~before ~after ~obs
        ~wall_norm:!wall_norm ~wall_raw ~ref_s
    else
      [ m "setup_s"
          (median setup_raw *. Refloop.nominal_s
          /. mean (Array.of_list setup_refs))
          "s";
        m "wall_s" !wall_norm "s";
        m "p50_ms" (1e3 *. percentile lat 0.5) "ms";
        m "tail_ms" (1e3 *. percentile lat q) "ms";
        m "peak_rss_mb" (peak_rss_mb ()) "MB" ]
  in
  if !dropped > 0 then
    Printf.eprintf "perfbench: %d program trace spans dropped\n%!" !dropped;
  { correct = failed = 0 && !dropped = 0;
    attempted;
    failed;
    metrics;
    spans_json = (if trace then Some (spans_json ~obs) else None) }

(* The result line: one compact JSON object, floats with all their
   digits. *)
let result_line r =
  let metric mt =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" mt.m_name
      (if Float.is_finite mt.m_value then mt.m_value else 0.0)
      mt.m_unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
