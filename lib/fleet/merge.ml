module Ir = Cayman_ir
module An = Cayman_analysis
module Hls = Cayman_hls

type options = {
  o_kernels : int;
  o_seed : int;
  o_budget : float;
  o_per_budget : float;
  o_jobs : int option;
}

let default_options =
  { o_kernels = 1000;
    o_seed = 42;
    o_budget = 4.0;
    o_per_budget = 0.25;
    o_jobs = None }

(* ------------------------------------------------------------------ *)
(* Per-program summaries                                               *)
(* ------------------------------------------------------------------ *)

(* Everything the fleet pipeline needs from one program, in one
   marshalable record: the memo entry granularity of the collect
   phase. *)
type prog_summary = {
  ps_name : string;
  ps_failed : bool;
  ps_kernels : Cluster.kernel list;
  ps_merged : Core.Merge.accel list;  (* per-program merged, qualified *)
  ps_area_solo : float;
  ps_area_merged : float;
}

let qualify name (a : Core.Merge.accel) =
  { a with
    Core.Merge.regions =
      List.map (fun r -> name ^ "/" ^ r) a.Core.Merge.regions }

let kind_string = function
  | An.Region.Whole_function -> "whole"
  | An.Region.Basic_block -> "bb"
  | An.Region.Loop_region -> "loop"
  | An.Region.Cond_region -> "cond"

let loop_depth_of (ctx : Hls.Ctx.t) (region : An.Region.t) =
  An.Region.String_set.fold
    (fun l acc ->
      max acc (List.length (An.Loops.enclosing ctx.Hls.Ctx.loops l)))
    region.An.Region.blocks 0

let summarize opts index =
  let name = Genprog.program_name index in
  try
    let src = Genprog.minic_source ~seed:opts.o_seed ~index in
    let a = Core.Cayman.analyze_source src in
    let r = Core.Cayman.run ~mode:Hls.Kernel.Heuristic a in
    let sel =
      Core.Cayman.best_under_ratio r ~budget_ratio:opts.o_per_budget
    in
    (* Each accelerator is lifted for merging once: its program-qualified
       copy joins the fleet population, the plain one the program's own
       merge. *)
    let kernels, accels =
      List.split
        (List.map
           (fun (acc : Core.Solution.accel) ->
             let k = Core.Cayman.kernel_of a acc in
             let ctx = k.Hls.Kernel.k_ctx and region = k.Hls.Kernel.k_region in
             let canon = Memo.Hash.canon_region ctx.Hls.Ctx.func region in
             let accel = Core.Merge.accel_of (Hls.Datapath.of_kernel k) acc in
             let qualified = qualify name accel in
             let point = acc.Core.Solution.a_point in
             ( { Cluster.k_program = name;
                 k_region = List.hd qualified.Core.Merge.regions;
                 k_digest = Memo.Hash.canon_digest canon;
                 k_signature =
                   Cluster.signature
                     ~kind:(kind_string region.An.Region.kind)
                     ~blocks:
                       (An.Region.String_set.cardinal region.An.Region.blocks)
                     ~loop_depth:(loop_depth_of ctx region)
                     point.Hls.Kernel.units;
                 k_saved = acc.Core.Solution.a_saved;
                 k_accel = qualified },
               accel ))
           sel.Core.Solution.accels)
    in
    let merged = Core.Merge.run accels in
    { ps_name = name;
      ps_failed = false;
      ps_kernels = kernels;
      ps_merged = List.map (qualify name) merged.Core.Merge.accels;
      ps_area_solo = merged.Core.Merge.area_before;
      ps_area_merged = merged.Core.Merge.area_after }
  with
  | (Stack_overflow | Out_of_memory) as e -> raise e
  | _ ->
    (* Generated programs are terminating and in-bounds by
       construction; a failure here is a generator bug. It is recorded
       (deterministically) rather than aborting a multi-thousand-
       program run, and surfaces as [r_failed > 0] in the report. *)
    { ps_name = name;
      ps_failed = true;
      ps_kernels = [];
      ps_merged = [];
      ps_area_solo = 0.0;
      ps_area_merged = 0.0 }

(* Cache key of one program's summary: everything [summarize] reads.
   The program text is pinned by (generator version, seed, index); the
   pipeline by the tech table, the generator knobs, the per-program
   budget, and the fuel budget (a program that ran out of fuel under a
   smaller budget must not resurface as a cached failure). The
   [accel_layout] field names the stored layout of [Core.Merge.accel],
   whose datapath nodes were once optional, so an entry of that layout
   never unmarshals as this one. *)
let accel_layout = "merge-accel-nodes-list"

let summary_key opts index =
  let b = Memo.Hash.builder ~ns:"fleet.prog" in
  Memo.Hash.str b accel_layout;
  Memo.Hash.str b Genprog.generator_version;
  Memo.Hash.str b Hls.Fingerprint.tech;
  Memo.Hash.str b (Core.Cayman.gen_key Hls.Kernel.Heuristic);
  Memo.Hash.int b opts.o_seed;
  Memo.Hash.int b index;
  Memo.Hash.float b opts.o_per_budget;
  Memo.Hash.int b (Engine.Config.fuel ());
  Memo.Hash.digest b

let m_programs = Obs.Metrics.counter "fleet.programs"
let m_kernels = Obs.Metrics.counter "fleet.kernels"
let m_clusters = Obs.Metrics.counter "fleet.clusters"
let m_failures = Obs.Metrics.counter "fleet.gen_failures"

let collect opts =
  Obs.Trace.span ~cat:"fleet" "fleet.collect" @@ fun () ->
  Engine.Pool.map ?jobs:opts.o_jobs
    (fun index ->
      Memo.Store.memoize ~ns:"fleet.prog" ~key:(summary_key opts index)
        (fun () -> summarize opts index))
    (List.init opts.o_kernels Fun.id)

(* ------------------------------------------------------------------ *)
(* Per-cluster merging                                                 *)
(* ------------------------------------------------------------------ *)

(* Linear chain merge for a group of alpha-equivalent accelerators:
   with identical datapaths the greedy pair loop would pick them in
   order anyway, so folding left is equivalent and O(n) instead of
   O(n^3). Members that refuse to merge (sharing unprofitable for tiny
   datapaths) stay separate. *)
let chain_merge accels =
  match accels with
  | [] -> []
  | first :: rest ->
    let merged, separate =
      List.fold_left
        (fun (cur, sep) next ->
          let s = Core.Merge.pair_saving cur next in
          if s > 0.0 then (Core.Merge.merge_pair cur next ~saving:s, sep)
          else (cur, next :: sep))
        (first, []) rest
    in
    merged :: List.rev separate

(* Above this many distinct representatives the quadratic greedy loop
   is replaced by a second linear chain pass — defensive only; real
   clusters keep well under it because the signature already pins the
   unit histogram. *)
let quadratic_cap = 48

let merge_cluster (cl : Cluster.cluster) =
  let reps =
    List.concat_map
      (fun (_digest, ks) ->
        chain_merge (List.map (fun k -> k.Cluster.k_accel) ks))
      (Cluster.by_digest cl)
  in
  if List.length reps <= quadratic_cap then Core.Merge.merge_accels reps
  else chain_merge reps

(* Cache key of one cluster's merge: the full resource identity of every
   member, in fleet order, and the stored layout as in [summary_key]. *)
let cluster_key (cl : Cluster.cluster) =
  let b = Memo.Hash.builder ~ns:"fleet.cluster" in
  Memo.Hash.str b accel_layout;
  Memo.Hash.str b Genprog.generator_version;
  Memo.Hash.str b Hls.Fingerprint.tech;
  Memo.Hash.str b cl.Cluster.cl_key;
  List.iter
    (fun (k : Cluster.kernel) ->
      Memo.Hash.str b k.Cluster.k_digest;
      Memo.Hash.str b k.Cluster.k_region;
      Memo.Hash.float b k.Cluster.k_saved;
      let a = k.Cluster.k_accel in
      Memo.Hash.float b a.Core.Merge.area;
      Memo.Hash.int b a.Core.Merge.fsms;
      let res = a.Core.Merge.res in
      List.iter
        (fun (kind, c) ->
          Memo.Hash.str b (Ir.Op.unit_kind_to_string kind);
          Memo.Hash.int b c)
        res.Core.Merge.units;
      Memo.Hash.int b res.Core.Merge.r_coupled;
      Memo.Hash.int b res.Core.Merge.r_decoupled;
      Memo.Hash.int b res.Core.Merge.r_sp_words;
      Memo.Hash.int b res.Core.Merge.r_regs;
      Memo.Hash.int b (List.length a.Core.Merge.nodes);
      List.iter
        (fun (n : Hls.Datapath.node) ->
          Memo.Hash.str b (Ir.Op.unit_kind_to_string n.Hls.Datapath.n_kind);
          Memo.Hash.int b n.Hls.Datapath.n_level)
        a.Core.Merge.nodes)
    cl.Cluster.cl_kernels;
  Memo.Hash.digest b

(* ------------------------------------------------------------------ *)
(* Global budget packing                                               *)
(* ------------------------------------------------------------------ *)

(* Greedy knapsack by saved-seconds-per-area density: pack shared
   accelerators under the budget, most valuable first. Ties broken by
   first region name, so the packing is deterministic. *)
let budget_coverage ~budget ~saved_of accels =
  let scored =
    List.map
      (fun (a : Core.Merge.accel) ->
        let saved =
          List.fold_left (fun acc r -> acc +. saved_of r) 0.0
            a.Core.Merge.regions
        in
        (a, saved))
      accels
  in
  let density (a, s) = s /. Float.max 1.0 a.Core.Merge.area in
  let name (a, _) =
    match a.Core.Merge.regions with [] -> "" | r :: _ -> r
  in
  let sorted =
    List.sort
      (fun x y ->
        match compare (density y) (density x) with
        | 0 -> String.compare (name x) (name y)
        | c -> c)
      scored
  in
  List.fold_left
    (fun (used, kernels, saved) (a, s) ->
      if used +. a.Core.Merge.area <= budget then
        ( used +. a.Core.Merge.area,
          kernels + List.length a.Core.Merge.regions,
          saved +. s )
      else (used, kernels, saved))
    (0.0, 0, 0.0) sorted
  |> fun (_, kernels, saved) -> (kernels, saved)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type report = {
  r_seed : int;
  r_programs : int;
  r_failed : int;
  r_kernels : int;
  r_clusters : int;
  r_distinct : int;
  r_accels : int;
  r_reusable : int;
  r_regions_per_reusable : float;
  r_area_solo : float;
  r_area_per_program : float;
  r_area_fleet : float;
  r_saving_per_program_pct : float;
  r_saving_fleet_pct : float;
  r_saving_vs_per_program_pct : float;
  r_budget : float;
  r_budget_kernels_fleet : int;
  r_budget_kernels_per_program : int;
  r_budget_saved_fleet : float;
  r_budget_saved_per_program : float;
}

let pct_saving ~before ~after =
  if before > 0.0 then 100.0 *. (before -. after) /. before else 0.0

let run opts =
  Obs.Trace.span ~cat:"fleet" "fleet.run" @@ fun () ->
  let summaries = collect opts in
  let kernels = List.concat_map (fun p -> p.ps_kernels) summaries in
  let clusters = Cluster.group kernels in
  Obs.Metrics.add m_programs (List.length summaries);
  Obs.Metrics.add m_kernels (List.length kernels);
  Obs.Metrics.add m_clusters (List.length clusters);
  let failed =
    List.length (List.filter (fun p -> p.ps_failed) summaries)
  in
  Obs.Metrics.add m_failures failed;
  let fleet_accels =
    Obs.Trace.span ~cat:"fleet" "fleet.merge" @@ fun () ->
    Engine.Pool.map ?jobs:opts.o_jobs
      (fun cl ->
        Memo.Store.memoize ~ns:"fleet.cluster" ~key:(cluster_key cl)
          (fun () -> merge_cluster cl))
      clusters
    |> List.concat
  in
  let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs in
  let area_solo = sum (fun p -> p.ps_area_solo) summaries in
  let area_per_program = sum (fun p -> p.ps_area_merged) summaries in
  let area_fleet =
    sum (fun (a : Core.Merge.accel) -> a.Core.Merge.area) fleet_accels
  in
  let reusable =
    List.filter
      (fun (a : Core.Merge.accel) ->
        List.length a.Core.Merge.regions >= 2)
      fleet_accels
  in
  let n_reusable = List.length reusable in
  let saved_tbl = Hashtbl.create (List.length kernels) in
  List.iter
    (fun (k : Cluster.kernel) ->
      Hashtbl.replace saved_tbl k.Cluster.k_region k.Cluster.k_saved)
    kernels;
  let saved_of r =
    match Hashtbl.find_opt saved_tbl r with Some s -> s | None -> 0.0
  in
  let budget = opts.o_budget *. Hls.Tech.cva6_tile_area in
  let bk_fleet, bs_fleet =
    budget_coverage ~budget ~saved_of fleet_accels
  in
  let bk_pp, bs_pp =
    budget_coverage ~budget ~saved_of
      (List.concat_map (fun p -> p.ps_merged) summaries)
  in
  { r_seed = opts.o_seed;
    r_programs = List.length summaries;
    r_failed = failed;
    r_kernels = List.length kernels;
    r_clusters = List.length clusters;
    r_distinct =
      List.length
        (List.sort_uniq String.compare
           (List.map (fun (k : Cluster.kernel) -> k.Cluster.k_digest)
              kernels));
    r_accels = List.length fleet_accels;
    r_reusable = n_reusable;
    r_regions_per_reusable =
      (if n_reusable = 0 then 0.0
       else
         float_of_int
           (List.fold_left
              (fun acc (a : Core.Merge.accel) ->
                acc + List.length a.Core.Merge.regions)
              0 reusable)
         /. float_of_int n_reusable);
    r_area_solo = area_solo;
    r_area_per_program = area_per_program;
    r_area_fleet = area_fleet;
    r_saving_per_program_pct =
      pct_saving ~before:area_solo ~after:area_per_program;
    r_saving_fleet_pct = pct_saving ~before:area_solo ~after:area_fleet;
    r_saving_vs_per_program_pct =
      pct_saving ~before:area_per_program ~after:area_fleet;
    r_budget = opts.o_budget;
    r_budget_kernels_fleet = bk_fleet;
    r_budget_kernels_per_program = bk_pp;
    r_budget_saved_fleet = bs_fleet;
    r_budget_saved_per_program = bs_pp }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let mm2 x = x /. 1.0e6

let report_to_string r =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "fleet: seed=%d programs=%d failed=%d kernels=%d clusters=%d distinct=%d"
    r.r_seed r.r_programs r.r_failed r.r_kernels r.r_clusters r.r_distinct;
  line "  area solo          %10.4f mm^2" (mm2 r.r_area_solo);
  line "  area per-program   %10.4f mm^2  (saving %5.1f%%)"
    (mm2 r.r_area_per_program) r.r_saving_per_program_pct;
  line "  area fleet         %10.4f mm^2  (saving %5.1f%% vs solo, %5.1f%% vs per-program)"
    (mm2 r.r_area_fleet) r.r_saving_fleet_pct r.r_saving_vs_per_program_pct;
  line "  shared accels      %d (%d reusable, %.2f regions/reusable)"
    r.r_accels r.r_reusable r.r_regions_per_reusable;
  line
    "  budget %.2f tiles: fleet serves %d kernels (%.6f s saved), per-program %d (%.6f s saved)"
    r.r_budget r.r_budget_kernels_fleet r.r_budget_saved_fleet
    r.r_budget_kernels_per_program r.r_budget_saved_per_program;
  Buffer.contents b

let report_to_json r : Obs.Json.t =
  Obs.Json.Obj
    [ "seed", Obs.Json.Int r.r_seed;
      "programs", Obs.Json.Int r.r_programs;
      "failed", Obs.Json.Int r.r_failed;
      "kernels", Obs.Json.Int r.r_kernels;
      "clusters", Obs.Json.Int r.r_clusters;
      "distinct", Obs.Json.Int r.r_distinct;
      "accels", Obs.Json.Int r.r_accels;
      "reusable", Obs.Json.Int r.r_reusable;
      "regions_per_reusable", Obs.Json.Float r.r_regions_per_reusable;
      "area_solo_mm2", Obs.Json.Float (mm2 r.r_area_solo);
      "area_per_program_mm2", Obs.Json.Float (mm2 r.r_area_per_program);
      "area_fleet_mm2", Obs.Json.Float (mm2 r.r_area_fleet);
      "saving_per_program_pct", Obs.Json.Float r.r_saving_per_program_pct;
      "saving_fleet_pct", Obs.Json.Float r.r_saving_fleet_pct;
      ( "saving_vs_per_program_pct",
        Obs.Json.Float r.r_saving_vs_per_program_pct );
      "budget_tiles", Obs.Json.Float r.r_budget;
      "budget_kernels_fleet", Obs.Json.Int r.r_budget_kernels_fleet;
      ( "budget_kernels_per_program",
        Obs.Json.Int r.r_budget_kernels_per_program );
      "budget_saved_fleet_s", Obs.Json.Float r.r_budget_saved_fleet;
      ( "budget_saved_per_program_s",
        Obs.Json.Float r.r_budget_saved_per_program ) ]
