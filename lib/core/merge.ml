module Ir = Cayman_ir
module Hls = Cayman_hls

(* Shareable resource vector of an accelerator: datapath unit counts,
   coupled/decoupled interface units, and scratchpad SRAM capacity (time-
   shared between the kernels of a reusable accelerator). *)
type res = {
  units : (Ir.Op.unit_kind * int) list;
  r_coupled : int;
  r_decoupled : int;
  r_sp_words : int;
  r_regs : int;
}

(* An accelerator during merging: possibly already a reusable accelerator
   covering several program regions, each with its own FSM. Pair savings
   match its datapath operation nodes, held as a level profile (the
   paper's DFG-level matching). *)
type accel = {
  regions : string list;
  res : res;
  area : float;
  fsms : int;
  nodes : Hls.Datapath.t;
}

type result = {
  accels : accel list;
  area_before : float;
  area_after : float;
  saving_pct : float;
  n_reusable : int;  (* merged accelerators covering >= 2 regions *)
  regions_per_reusable : float;
}

let res_of_point (p : Hls.Kernel.point) =
  { units = p.Hls.Kernel.units;
    r_coupled = p.Hls.Kernel.ifaces.Hls.Kernel.n_coupled;
    r_decoupled = p.Hls.Kernel.ifaces.Hls.Kernel.n_decoupled;
    r_sp_words = p.Hls.Kernel.sp_words;
    r_regs = p.Hls.Kernel.n_regs }

let accel_of nodes (a : Solution.accel) =
  { regions = [ a.Solution.a_func ^ "/" ^ a.Solution.a_region_name ];
    res = res_of_point a.Solution.a_point;
    area = a.Solution.a_point.Hls.Kernel.area;
    fsms = 1;
    nodes }

(* Per shared interface unit the merged datapath pays what a matched
   operation unit at the same level does: input multiplexers and
   reconfiguration bits. *)
let share_overhead = Hls.Datapath.share_overhead ~level_gap:0

(* Fixed cost of combining two accelerators under one global Ctrl unit. *)
let ctrl_overhead = 420.0

let m_pairs = Obs.Metrics.counter "merge.pairs_evaluated"

(* Estimated area saving of merging two accelerators: every matched
   operation unit (Section III-E's DFG-level matching) and every shared
   interface unit is kept once instead of twice, minus muxing overhead;
   only profitable sharing contributes. *)
let pair_saving a b =
  Obs.Metrics.incr m_pairs;
  let unit_part = Hls.Datapath.saved_area a.nodes b.nodes in
  let iface_part =
    let shared_c = min a.res.r_coupled b.res.r_coupled in
    let shared_d = min a.res.r_decoupled b.res.r_decoupled in
    let gain_c = Hls.Tech.coupled_unit_area -. share_overhead in
    let gain_d = Hls.Tech.decoupled_unit_area -. share_overhead in
    (float_of_int shared_c *. Float.max 0.0 gain_c)
    +. (float_of_int shared_d *. Float.max 0.0 gain_d)
  in
  (* Scratchpad SRAM is time-shared between kernels of a reusable
     accelerator: only one kernel runs at a time, so the merged buffer is
     the larger of the two. *)
  let sp_part =
    float_of_int (min a.res.r_sp_words b.res.r_sp_words)
    *. Hls.Tech.scratchpad_word_area
  in
  (* Shared datapath registers pay one mux input each; the merged
     accelerator also needs a single offload wrapper instead of two. *)
  let reg_part =
    float_of_int (min a.res.r_regs b.res.r_regs)
    *. Float.max 0.0 (Hls.Tech.register_area -. Hls.Tech.mux_area_per_input)
  in
  (* The wrapper and DMA engine are shared too, but only merges justified
     by actual datapath sharing are considered (the paper merges on
     common operations, not to pool control logic). *)
  let datapath_sharing = unit_part +. iface_part +. sp_part +. reg_part in
  if datapath_sharing <= 0.0 then neg_infinity
  else begin
    let wrapper_part = Hls.Tech.accel_wrapper_area in
    let dma_part =
      if a.res.r_sp_words > 0 && b.res.r_sp_words > 0 then
        Hls.Tech.dma_engine_area
      else 0.0
    in
    datapath_sharing +. wrapper_part +. dma_part -. ctrl_overhead
  end

let merge_pair a b ~saving =
  let nodes = (Hls.Datapath.pair a.nodes b.nodes).Hls.Datapath.merged in
  { regions = a.regions @ b.regions;
    nodes;
    res =
      { units = Hls.Datapath.counts nodes;
        r_coupled = max a.res.r_coupled b.res.r_coupled;
        r_decoupled = max a.res.r_decoupled b.res.r_decoupled;
        r_sp_words = max a.res.r_sp_words b.res.r_sp_words;
        r_regs = max a.res.r_regs b.res.r_regs };
    area = a.area +. b.area -. saving;
    fsms = a.fsms + b.fsms }

(* Heuristic merging loop (Section III-E): repeatedly merge the
   accelerator pair with the maximum estimated area saving until no
   positive saving remains. The population is scanned pair by pair in
   order and a later pair replaces the best only with a strictly larger
   saving; the merged accelerator goes first, the rest keep their order.

   A pair's saving depends only on its two accelerators, so each is
   priced once: savings live in a triangular table over slots, the
   merged accelerator takes its first member's slot, and after a merge
   only its savings against the rest are priced. *)
let merge_accels accels =
  let slots = Array.of_list accels in
  let n = Array.length slots in
  let cell p q =
    let lo = min p q and hi = max p q in
    (hi * (hi - 1) / 2) + lo
  in
  let saving = Float.Array.make (n * (n - 1) / 2) 0.0 in
  let price p q =
    Float.Array.set saving (cell p q) (pair_saving slots.(p) slots.(q))
  in
  for q = 1 to n - 1 do
    for p = 0 to q - 1 do
      price p q
    done
  done;
  (* [order.(0 .. live - 1)]: the population's slots, in scan order *)
  let order = Array.init n Fun.id in
  let live = ref n and continue_ = ref (n > 1) in
  while !continue_ do
    let bi = ref (-1) and bj = ref (-1) and best = ref 0.0 in
    for i = 0 to !live - 2 do
      for j = i + 1 to !live - 1 do
        let s = Float.Array.get saving (cell order.(i) order.(j)) in
        if s > !best then begin
          bi := i;
          bj := j;
          best := s
        end
      done
    done;
    if !bi < 0 then continue_ := false
    else begin
      let p = order.(!bi) and q = order.(!bj) in
      slots.(p) <- merge_pair slots.(p) slots.(q) ~saving:!best;
      (* the merged slot first, the others in order *)
      let others =
        List.filter
          (fun slot -> slot <> p && slot <> q)
          (Array.to_list (Array.sub order 0 !live))
      in
      order.(0) <- p;
      List.iteri (fun m slot -> order.(m + 1) <- slot) others;
      decr live;
      for m = 1 to !live - 1 do
        price p order.(m)
      done;
      continue_ := !live > 1
    end
  done;
  List.init !live (fun m -> slots.(order.(m)))

let m_merges = Obs.Metrics.counter "merge.runs"
let m_inputs = Obs.Metrics.counter "merge.input_accels"
let m_reusable = Obs.Metrics.counter "merge.reusable_accels"

let run initial =
  Obs.Trace.span ~cat:"merge" "merge" @@ fun () ->
  Obs.Metrics.incr m_merges;
  Obs.Metrics.add m_inputs (List.length initial);
  let area_before =
    List.fold_left (fun acc a -> acc +. a.area) 0.0 initial
  in
  let merged = merge_accels initial in
  let area_after = List.fold_left (fun acc a -> acc +. a.area) 0.0 merged in
  let reusable = List.filter (fun a -> List.length a.regions >= 2) merged in
  let n_reusable = List.length reusable in
  Obs.Metrics.add m_reusable n_reusable;
  let regions_per_reusable =
    if n_reusable = 0 then 0.0
    else
      float_of_int
        (List.fold_left (fun acc a -> acc + List.length a.regions) 0 reusable)
      /. float_of_int n_reusable
  in
  { accels = merged;
    area_before;
    area_after;
    saving_pct =
      (if area_before > 0.0 then
         100.0 *. (area_before -. area_after) /. area_before
       else 0.0);
    n_reusable;
    regions_per_reusable }

(* Emit the reusable-accelerator netlist of one merged accelerator. *)
let netlist_of index (a : accel) =
  Hls.Netlist.of_reusable
    ~name:(string_of_int index)
    ~units:a.res.units ~n_coupled:a.res.r_coupled
    ~n_decoupled:a.res.r_decoupled ~sp_words:a.res.r_sp_words ~fsms:a.fsms
    ~regions:a.regions
