(* Prints the work selection does per interface mode over the programs
   of `design_points.ml` (six Table II programs and the first 20
   generated fleet programs of seed 1), one line per mode:

     select-work <mode> configs=<n> plans=<n> schedules=<n> points=<n>

   summed over one [Core.Cayman.run] per program: the configurations
   swept ([hls.kernel_estimates]), the distinct plans evaluated
   ([hls.kernel_plans]), the block schedules run ([hls.schedules_run])
   and the design points kept ([Select.stats.points_evaluated]). None
   depends on the host, the job count or the engine, so a change that
   evaluates a duplicate plan again shows up as a diff. *)

module Hls = Cayman_hls
module K = Hls.Kernel

let table2 = [ "atax"; "gramschmidt"; "fft"; "nw"; "epic"; "zip-test" ]

let modes =
  [ K.Heuristic; K.Coupled_only; K.Scan_only; K.Scratchpad_preferred;
    K.Decoupled_preferred ]

let m_configs = Obs.Metrics.counter "hls.kernel_estimates"
let m_plans = Obs.Metrics.counter "hls.kernel_plans"
let m_schedules = Obs.Metrics.counter "hls.schedules_run"

let () =
  let programs =
    List.map
      (fun n ->
        Core.Cayman.analyze
          (Cayman_suites.Suite.compile (Cayman_suites.Suite.find_exn n)))
      table2
    @ List.init 20 (fun index ->
        Core.Cayman.analyze_source (Fleet.Genprog.minic_source ~seed:1 ~index))
  in
  List.iter
    (fun mode ->
      let c0 = Obs.Metrics.value m_configs
      and p0 = Obs.Metrics.value m_plans
      and s0 = Obs.Metrics.value m_schedules in
      let points =
        List.fold_left
          (fun n a ->
            let r = Core.Cayman.run ~mode a in
            n + r.Core.Cayman.stats.Core.Select.points_evaluated)
          0 programs
      in
      Printf.printf "select-work %s configs=%d plans=%d schedules=%d points=%d\n"
        (K.mode_to_string mode)
        (Obs.Metrics.value m_configs - c0)
        (Obs.Metrics.value m_plans - p0)
        (Obs.Metrics.value m_schedules - s0)
        points)
    modes
