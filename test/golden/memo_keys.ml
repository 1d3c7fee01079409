(* Prints the memo-store keys of a fixed set of programs, one line per
   key, so any change to key derivation shows up as a reviewed diff:

     profile <program> <key>
     region <program> <func>/<id> netlist=<key> canon=<digest>

   For every wPST region of six Table II programs and the first 20
   generated fleet programs (seed 1), the region line holds the exact
   netlist key of one fixed configuration and the guarded canon digest.
   The profile line holds the key of the program's profiling pass at the
   default fuel. No store is opened: keys are derived, never looked up. *)

module Ir = Cayman_ir
module An = Cayman_analysis
module Hls = Cayman_hls

let table2 = [ "atax"; "gramschmidt"; "fft"; "nw"; "epic"; "zip-test" ]

let config =
  { Hls.Kernel.unroll = 2; pipeline = true; mode = Hls.Kernel.Heuristic }

let print_keys name (program : Ir.Validate.t) =
  let a = Core.Cayman.analyze program in
  let program = a.Core.Cayman.program in
  Printf.printf "profile %s %s\n" name
    (Core.Cayman.profile_key ~fuel:(Engine.Config.fuel ())
       (Ir.Validate.program program));
  An.Wpst.iter
    (fun fname (r : An.Region.t) ->
      match Hashtbl.find_opt a.Core.Cayman.ctxs fname with
      | None -> ()
      | Some ctx ->
        Printf.printf "region %s %s/%d netlist=%s canon=%s\n" name fname
          r.An.Region.id
          (Hls.Fingerprint.netlist_key ctx r ~beta:Hls.Kernel.default_beta
             ~config)
          (Memo.Hash.canon_digest (Memo.Hash.canon_region ctx.Hls.Ctx.func r)))
    a.Core.Cayman.wpst

let () =
  List.iter
    (fun n -> print_keys n (Cayman_suites.Suite.compile (Cayman_suites.Suite.find_exn n)))
    table2;
  for index = 0 to 19 do
    print_keys
      (Fleet.Genprog.program_name index)
      (Cayman_frontend.Lower.compile (Fleet.Genprog.minic_source ~seed:1 ~index))
  done
