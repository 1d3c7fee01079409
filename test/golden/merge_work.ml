(* Prints every accelerator merging produces, and the pair evaluations
   it took, for the merge-work golden:

     merge-work <bench>@<budget>% <i> regions=<r,...> area=<%h> fsms=<n> units=<kind:n,...>
     merge-work fleet-small/<cluster> <i> regions=... area=... fsms=... units=...
     merge-work pairs_evaluated=<n>

   The first kind of line covers one [Core.Cayman.merge] per Table II
   program at the 25% and 65% budgets, the second every cluster of the
   fleet-small fleet (200 programs of seed 42, as `bench/main.exe
   fleet-small` runs it). The last line is [merge.pairs_evaluated]
   summed over all of them. None depends on the host, the job count
   or the engine, so a change that merges differently, or prices a pair
   it already priced, shows up as a diff. *)

module Hls = Cayman_hls
module Suite = Cayman_suites.Suite

let m_pairs = Obs.Metrics.counter "merge.pairs_evaluated"

let print_accels label accels =
  List.iteri
    (fun i (a : Core.Merge.accel) ->
      Printf.printf "merge-work %s %d regions=%s area=%h fsms=%d units=%s\n"
        label i
        (String.concat "," a.Core.Merge.regions)
        a.Core.Merge.area a.Core.Merge.fsms
        (String.concat ","
           (List.map
              (fun (k, c) ->
                Printf.sprintf "%s:%d" (Cayman_ir.Op.unit_kind_to_string k) c)
              a.Core.Merge.res.Core.Merge.units)))
    accels

let () =
  let p0 = Obs.Metrics.value m_pairs in
  List.iter
    (fun (b : Suite.benchmark) ->
      let a = Core.Cayman.analyze (Suite.compile b) in
      let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
      List.iter
        (fun budget ->
          let s = Core.Cayman.best_under_ratio r ~budget_ratio:budget in
          print_accels
            (Printf.sprintf "%s@%.0f%%" b.Suite.name (100.0 *. budget))
            (Core.Cayman.merge a s).Core.Merge.accels)
        [ 0.25; 0.65 ])
    Suite.all;
  let opts =
    { Fleet.Merge.default_options with
      Fleet.Merge.o_kernels = 200; o_seed = 42 }
  in
  List.iteri
    (fun i cl ->
      print_accels
        (Printf.sprintf "fleet-small/%d" i)
        (Fleet.Merge.merge_cluster cl))
    (Fleet.Cluster.group (Fleet.Merge.kernels opts));
  Printf.printf "merge-work pairs_evaluated=%d\n"
    (Obs.Metrics.value m_pairs - p0)
