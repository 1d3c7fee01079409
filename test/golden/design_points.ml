(* Prints every design point the estimator returns for a fixed set of
   programs, one line per point, so any change in what the model
   computes shows up as a reviewed diff:

     point <program> <func>/<id> <mode> <config> cycles=<%h> area=<%h>
       cpu=<n> inv=<n> sb=<n> pr=<n> cds=<c>/<d>/<s> units=<k:n,...>
       regs=<n> sp=<n>

   (one line each). For every wPST region of six Table II programs and
   the first 20 generated fleet programs (seed 1), the region's
   [Kernel.estimate_all] runs under each mode's [default_configs]. Floats
   print with [%h], so a moved bit is a moved line. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Hls = Cayman_hls
module K = Hls.Kernel

let table2 = [ "atax"; "gramschmidt"; "fft"; "nw"; "epic"; "zip-test" ]

let modes =
  [ K.Heuristic; K.Coupled_only; K.Scan_only; K.Scratchpad_preferred;
    K.Decoupled_preferred ]

let units_to_string units =
  String.concat ","
    (List.map
       (fun (k, c) -> Printf.sprintf "%s:%d" (Ir.Op.unit_kind_to_string k) c)
       units)

let print_points name (program : Ir.Validate.t) =
  let a = Core.Cayman.analyze program in
  An.Wpst.iter
    (fun fname (r : An.Region.t) ->
      match Hashtbl.find_opt a.Core.Cayman.ctxs fname with
      | None -> ()
      | Some ctx ->
        List.iter
          (fun mode ->
            List.iter
              (fun (p : K.point) ->
                Printf.printf
                  "point %s %s/%d %s %s cycles=%h area=%h cpu=%d inv=%d sb=%d \
                   pr=%d cds=%d/%d/%d units=%s regs=%d sp=%d\n"
                  name fname r.An.Region.id (K.mode_to_string mode)
                  (K.config_to_string p.K.config) p.K.accel_cycles p.K.area
                  p.K.cpu_cycles p.K.invocations p.K.n_seq_blocks
                  p.K.n_pipelined p.K.ifaces.K.n_coupled
                  p.K.ifaces.K.n_decoupled p.K.ifaces.K.n_scratchpad
                  (units_to_string p.K.units) p.K.n_regs p.K.sp_words)
              (K.estimate_all ctx r (K.default_configs mode)))
          modes)
    a.Core.Cayman.wpst

let () =
  List.iter
    (fun n ->
      print_points n (Cayman_suites.Suite.compile (Cayman_suites.Suite.find_exn n)))
    table2;
  for index = 0 to 19 do
    print_points
      (Fleet.Genprog.program_name index)
      (Cayman_frontend.Lower.compile (Fleet.Genprog.minic_source ~seed:1 ~index))
  done
