module Ir = Cayman_ir
module An = Cayman_analysis
module Sim = Cayman_sim
module Hls = Cayman_hls
module Fe = Cayman_frontend

(* Everything derived from one profiled execution of the application;
   shared by all selection methods so comparisons use identical inputs. *)
type analyzed = {
  program : Ir.Validate.t;
  profile : Sim.Profile.t;
  wpst : An.Wpst.t;
  ctxs : (string, Hls.Ctx.t) Hashtbl.t;
  t_all : float;
}

let m_analyzes = Obs.Metrics.counter "core.analyzes"

let fp_ifconv = Obs.Faultpoint.register "ifconv"

(* The profiling interpreter pass is a pure function of the validated,
   if-converted program and the fuel bound, and it dominates the wall
   time of a cold evaluation — memoize it keyed by the program's exact
   listing ([Memo.Hash.program_code], floats printed exactly). The
   "ir-exact" field keeps these keys apart from those of the earlier
   listing, whose six-digit floats let two programs share a profile.
   The "cfg-id-counts" field names the stored layout (counter arrays by
   [Ir.Cfg] id), so an entry of the earlier label-keyed tables never
   unmarshals as this type. [Profile.publish_metrics] (normally run inside [Interp.run]) is
   replayed on a cache hit so the metric totals are identical whether
   the profile came from disk or from execution. Fault campaigns run
   under [Memo.Store.without_cache], so armed interpreter faultpoints
   always re-execute. *)
let profile_key ~fuel program =
  let b = Memo.Hash.builder ~ns:"profile" in
  Memo.Hash.str b "ir-exact";
  Memo.Hash.str b "cfg-id-counts";
  Memo.Hash.str b (Memo.Hash.program_digest program);
  Memo.Hash.int b fuel;
  Memo.Hash.digest b

let profile_of ~fuel (ix : Ir.Cfg.program) =
  if not (Memo.Store.active ()) then
    (Sim.Interp.run ~fuel ix).Sim.Interp.profile
  else begin
    let key =
      Obs.Trace.span ~cat:"memo" "memo.key" (fun () ->
          profile_key ~fuel ix.Ir.Cfg.program)
    in
    match Memo.Store.find ~ns:"profile" ~key with
    | Some p ->
      Sim.Profile.publish_metrics p;
      p
    | None ->
      let p = (Sim.Interp.run ~fuel ix).Sim.Interp.profile in
      Memo.Store.save ~ns:"profile" ~key p;
      p
  end

let analyze ?fuel ?(if_convert = true) (program : Ir.Validate.t) =
  Obs.Trace.span ~cat:"core" "core.analyze" @@ fun () ->
  Obs.Metrics.incr m_analyzes;
  let program =
    if if_convert then begin
      Obs.Faultpoint.hit fp_ifconv;
      Ir.Validate.check_exn
        (An.Simplify.merge_chains (An.Ifconv.run (program :> Ir.Cfg.program)))
    end
    else program
  in
  let ix = (program :> Ir.Cfg.program) in
  let fuel = Engine.Config.fuel ?fuel () in
  let profile = profile_of ~fuel ix in
  let wpst = An.Wpst.build ix in
  let ctxs = Hls.Ctx.for_program wpst profile in
  { program; profile; wpst; ctxs; t_all = Sim.Profile.total_seconds profile }

let analyze_source ?fuel ?if_convert src =
  analyze ?fuel ?if_convert (Fe.Lower.compile src)

(* Cayman's accelerator model as a DP plug-in. *)
let gen ?(beta = Hls.Kernel.default_beta) mode : Select.accel_gen =
 fun ctx region ->
  Hls.Kernel.estimate_all ctx region ~beta (Hls.Kernel.default_configs mode)

(* Everything [gen] closes over, rendered stably: the fleet merge keys
   its per-program results with it. Beta is hashed by its bits, configs
   by their canonical strings, so any knob change invalidates them. *)
let gen_key ?(beta = Hls.Kernel.default_beta) mode =
  Printf.sprintf "cayman.gen mode=%s beta=%Lx configs=[%s]"
    (Hls.Kernel.mode_to_string mode)
    (Int64.bits_of_float beta)
    (String.concat "; "
       (List.map Hls.Kernel.config_to_string
          (Hls.Kernel.default_configs mode)))

type run_result = {
  frontier : Solution.t list;
  stats : Select.stats;
  runtime_s : float;
}

let run ?(params = Select.default_params) ?beta ?jobs ~mode (a : analyzed) =
  (* Wall clock, not [Sys.time]: CPU time sums over every worker domain
     and would over-report under the parallel engine. *)
  let t0 = Engine.Clock.wall () in
  let frontier, stats =
    Select.select ~params ?jobs ~gen:(gen ?beta mode) a.ctxs a.wpst
      a.profile
  in
  let runtime_s = Engine.Clock.wall () -. t0 in
  { frontier; stats; runtime_s }

(* Best solution within an area budget expressed as a fraction of the
   CVA6 tile (the paper's 25% / 65% budgets). *)
let best_under_ratio (r : run_result) ~budget_ratio =
  let budget = budget_ratio *. Hls.Tech.cva6_tile_area in
  match Solution.best_under ~budget r.frontier with
  | Some s -> s
  | None -> Solution.empty

let speedup (a : analyzed) (s : Solution.t) = Solution.speedup ~t_all:a.t_all s

(* The one way from a selected accelerator to its kernel: both lookups
   happen once, and nothing is built, so a caller pays only for the
   netlist, plan or datapath it goes on to ask for. An accelerator whose
   function or region this analysis does not have was selected from
   another one. *)
let kernel_of (a : analyzed) (acc : Solution.accel) =
  let missing what =
    invalid_arg
      (Printf.sprintf "Cayman.kernel_of: no %s for %s/%s" what
         acc.Solution.a_func acc.Solution.a_region_name)
  in
  let k_ctx =
    match Hashtbl.find_opt a.ctxs acc.Solution.a_func with
    | Some ctx -> ctx
    | None -> missing "analysis context"
  in
  let k_region =
    match
      An.Wpst.region a.wpst
        { An.Wpst.vfunc = acc.Solution.a_func;
          vid = acc.Solution.a_region_id }
    with
    | Some region -> region
    | None -> missing "wPST region"
  in
  { Hls.Kernel.k_ctx; k_region;
    k_config = acc.Solution.a_point.Hls.Kernel.config }

let kernels a (s : Solution.t) = List.map (kernel_of a) s.Solution.accels

(* Accelerator merging with the paper's DFG-level operation matching. *)
let merge a (s : Solution.t) =
  Merge.run
    (List.map
       (fun acc ->
         Merge.accel_of (Hls.Datapath.of_kernel (kernel_of a acc)) acc)
       s.Solution.accels)
