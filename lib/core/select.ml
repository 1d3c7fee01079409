module Hls = Cayman_hls
module An = Cayman_analysis
module Sim = Cayman_sim

(* Generator of accelerator design points for one region: Cayman's full
   model, its coupled-only ablation, and the baselines all plug in here,
   so every method shares the same dynamic program. *)
type accel_gen = Hls.Ctx.t -> An.Region.t -> Hls.Kernel.point list

type params = {
  alpha : float;
  prune_threshold : float;
}

let default_params = { alpha = 1.08; prune_threshold = 5e-4 }

(* One region whose candidate generation raised: selection proceeds
   with no accelerator for it (CPU fallback), and the failure is
   reported rather than aborting the run. *)
type failure = {
  fb_func : string;
  fb_region : string;
  fb_reason : string;  (* stable exception classification *)
}

type stats = {
  visited : int;
  pruned : int;
  points_evaluated : int;
  failures : failure list;  (* in region visit order *)
}

(* Deterministic rendering of a generation failure's cause. Common
   exceptions are spelled out so reports are byte-stable; the fallback
   [Printexc.to_string] is deterministic for constructor-only payloads. *)
let failure_reason = function
  | Obs.Faultpoint.Injected p -> "injected fault at stage " ^ p
  | Cayman_frontend.Diag.Error d ->
    "diagnostic: " ^ Cayman_frontend.Diag.to_string d
  | Sim.Interp.Out_of_fuel -> "out of fuel"
  | Sim.Interp.Runtime_error m -> "runtime error: " ^ m
  | Failure m -> "failure: " ^ m
  | Invalid_argument m -> "invalid argument: " ^ m
  | e -> Printexc.to_string e

(* All counters: phase-1 walk and phase-3 DP are sequential in the
   submitting domain, and the phase-2 fan-out evaluates the same task
   list for every job count, so totals are schedule-independent. *)
let m_selects = Obs.Metrics.counter "select.runs"
let m_visited = Obs.Metrics.counter "select.regions_visited"
let m_pruned = Obs.Metrics.counter "select.regions_pruned"
let m_memo_hits = Obs.Metrics.counter "select.prune_memo_hits"
let m_memo_misses = Obs.Metrics.counter "select.prune_memo_misses"
let m_gen_tasks = Obs.Metrics.counter "select.gen_tasks"
let m_gen_failures = Obs.Metrics.counter "select.gen_failures"
let m_points = Obs.Metrics.counter "select.points_evaluated"
let m_frontier = Obs.Metrics.histogram "select.dp_frontier_size"

let fp_select = Obs.Faultpoint.register "select"

(* Algorithm 1: bottom-up dynamic programming over the wPST. [F v] is the
   filtered Pareto sequence of solutions accelerating kernels from [v]'s
   subtree; sibling sequences combine with ⊗ and a ctrl-flow region may
   instead be accelerated whole via [gen].

   The expensive part — evaluating [gen] on every non-pruned region — is
   embarrassingly parallel, so selection runs in three phases:

   1. a sequential walk that mirrors the DP's pruning exactly and lists
      the regions needing candidate generation, in visit order;
   2. [Engine.Pool.map] over that list ([gen] only reads the immutable
      analysis context, so tasks are independent; results come back in
      task order, making the phase deterministic for any job count);
   3. the sequential DP itself, now just combining and filtering the
      precomputed candidate lists — identical to the single-threaded
      formulation solution-for-solution. *)
let select ?(params = default_params) ?jobs ~(gen : accel_gen)
    (ctxs : (string, Hls.Ctx.t) Hashtbl.t) (wpst : An.Wpst.t)
    (profile : Sim.Profile.t) : Solution.t list * stats =
  Obs.Trace.span ~cat:"select" "select" @@ fun () ->
  Obs.Faultpoint.hit fp_select;
  let alpha = params.alpha in
  let total_cycles = float_of_int (Sim.Profile.total_cycles profile) in
  let prune_cycles = params.prune_threshold *. total_cycles in
  (* The phase-1 walk and the phase-3 DP visit the same regions; memoize
     the decision (keyed like [own_points]) so each profile lookup runs
     once, as in the original single-pass DP. *)
  let prune_memo : (string * int, bool) Hashtbl.t = Hashtbl.create 64 in
  let pruned_region (ctx : Hls.Ctx.t) (r : An.Region.t) =
    let key = ctx.Hls.Ctx.func.Cayman_ir.Func.name, r.An.Region.id in
    match Hashtbl.find_opt prune_memo key with
    | Some p ->
      Obs.Metrics.incr m_memo_hits;
      p
    | None ->
      Obs.Metrics.incr m_memo_misses;
      let cycles = Hls.Ctx.region_cycles ctx r in
      let p = float_of_int cycles < prune_cycles in
      Hashtbl.add prune_memo key p;
      p
  in
  Obs.Metrics.incr m_selects;
  (* Phase 1: replay the DP's traversal to collect generation tasks. *)
  let visited = ref 0 in
  let pruned = ref 0 in
  let tasks = ref [] in
  let rec walk (ctx : Hls.Ctx.t) (r : An.Region.t) =
    incr visited;
    if pruned_region ctx r then incr pruned
    else begin
      (match r.An.Region.kind with
       | An.Region.Whole_function -> ()
       | An.Region.Basic_block | An.Region.Loop_region | An.Region.Cond_region ->
         tasks := (ctx, r) :: !tasks);
      List.iter (walk ctx) r.An.Region.children
    end
  in
  Obs.Trace.span ~cat:"select" "select.prune-walk" (fun () ->
      List.iter
        (fun (ft : An.Wpst.func_tree) ->
          match Hashtbl.find_opt ctxs ft.An.Wpst.fname with
          | Some ctx -> walk ctx ft.An.Wpst.root
          | None -> ())
        wpst.An.Wpst.funcs);
  let tasks = List.rev !tasks in
  Obs.Metrics.add m_visited !visited;
  Obs.Metrics.add m_pruned !pruned;
  Obs.Metrics.add m_gen_tasks (List.length tasks);
  (* Phase 2: evaluate all candidate generators across the domain pool.
     Keyed by (function, region id) — region ids are unique per PST. A
     generator that raises poisons only its own region: that region gets
     no candidates (the DP leaves it on the CPU) and the failure is
     recorded in visit order, so one broken kernel cannot abort the
     other 27 benchmarks' worth of selection. *)
  let own_points :
      (string * int, Hls.Kernel.point list) Hashtbl.t =
    Hashtbl.create 64
  in
  let points = ref 0 in
  let failures = ref [] in
  let gen_results =
    Obs.Trace.span ~cat:"select" "select.gen" (fun () ->
        Engine.Pool.map_result ?jobs
          (fun (ctx, r) ->
            Obs.Trace.span ~cat:"select" "select.gen-region" (fun () ->
                gen ctx r))
          tasks)
  in
  List.iter2
    (fun ((ctx : Hls.Ctx.t), (r : An.Region.t)) res ->
      let fname = ctx.Hls.Ctx.func.Cayman_ir.Func.name in
      let pts =
        match res with
        | Ok pts -> pts
        | Error (e, _bt) ->
          Obs.Metrics.incr m_gen_failures;
          failures :=
            { fb_func = fname; fb_region = An.Region.name r;
              fb_reason = failure_reason e }
            :: !failures;
          []
      in
      points := !points + List.length pts;
      Hashtbl.replace own_points (fname, r.An.Region.id) pts)
    tasks gen_results;
  let failures = List.rev !failures in
  (* Phase 3: the DP proper, consuming precomputed candidates. *)
  let rec dp (ctx : Hls.Ctx.t) (r : An.Region.t) : Solution.t list =
    if pruned_region ctx r then [ Solution.empty ]
    else begin
      let own =
        match
          Hashtbl.find_opt own_points
            (ctx.Hls.Ctx.func.Cayman_ir.Func.name, r.An.Region.id)
        with
        | None -> []
        | Some pts ->
          List.filter_map
            (fun p ->
              let a =
                Solution.accel_of_point ~func:ctx.Hls.Ctx.func.Cayman_ir.Func.name
                  ~region_id:r.An.Region.id ~region_name:(An.Region.name r) p
              in
              if a.Solution.a_saved > 0.0 then Some (Solution.of_accel a)
              else None)
            pts
      in
      (* [combine [empty] s] is [s] for a filtered Pareto sequence such
         as [dp]'s, so the fold starts from the first child's frontier
         rather than crossing it with the empty solution. *)
      let from_children =
        match r.An.Region.children with
        | [] -> [ Solution.empty ]
        | c :: rest ->
          List.fold_left
            (fun acc c -> Solution.combine ~alpha acc (dp ctx c))
            (dp ctx c) rest
      in
      let filtered =
        Solution.filter ~alpha (Solution.pareto (own @ from_children))
      in
      Obs.Metrics.observe m_frontier (List.length filtered);
      filtered
    end
  in
  let frontier =
    Obs.Trace.span ~cat:"select" "select.dp" (fun () ->
        List.fold_left
          (fun acc (ft : An.Wpst.func_tree) ->
            match Hashtbl.find_opt ctxs ft.An.Wpst.fname with
            | Some ctx -> Solution.combine ~alpha acc (dp ctx ft.An.Wpst.root)
            | None -> acc)
          [ Solution.empty ] wpst.An.Wpst.funcs)
  in
  Obs.Metrics.add m_points !points;
  frontier,
  { visited = !visited; pruned = !pruned; points_evaluated = !points;
    failures }
