module Ir = Cayman_ir

(* Datapath-level merging support (Section III-E of the paper): the
   merging heuristic estimates area savings by *matching operations* of
   two accelerators' data-flow graphs and inserting multiplexers with
   configuration registers in front of every shared unit. This module
   extracts the operation nodes (with their ASAP schedule level) from a
   kernel's synthesis plan and computes the greedy pairing. *)

type node = {
  n_kind : Ir.Op.unit_kind;
  n_level : int;  (* ASAP issue cycle within its block *)
}

(* Compute nodes of every synthesized block of a kernel plan, pipelined
   bodies replicated by their unroll factor. *)
let of_plan (ctx : Ctx.t) (plan : Kernel.plan) =
  let of_block label mult =
    let dfg = Ctx.dfg ctx label in
    let iface i = Kernel.plan_iface plan label i in
    let sched = Schedule.run ~sp_banks:2 dfg ~iface in
    let nodes = ref [] in
    Array.iteri
      (fun i instr ->
        match Ir.Instr.unit_kind instr with
        | Some k ->
          for _ = 1 to mult do
            nodes :=
              { n_kind = k; n_level = sched.Schedule.issue_cycle.(i) }
              :: !nodes
          done
        | None -> ())
      dfg.Dfg.instrs;
    !nodes
  in
  List.concat_map (fun label -> of_block label 1) plan.Kernel.p_seq_blocks
  @ List.concat_map
      (fun (_, body, u) -> of_block body u)
      plan.Kernel.p_pipelined

let of_kernel (k : Kernel.spec) =
  match Kernel.plan k.Kernel.k_ctx k.Kernel.k_region k.Kernel.k_config with
  | Some plan -> of_plan k.Kernel.k_ctx plan
  | None ->
    invalid_arg
      ("Datapath: kernel " ^ Kernel.spec_name k ^ " is not synthesizable")

type pairing = {
  n_shared : int;
  n_only_a : int;
  n_only_b : int;
  saved_area : float;  (* net gain from sharing (>= 0) *)
  merged : node list;  (* datapath of the merged accelerator *)
}

(* Cost of sharing one unit: two operand multiplexers plus configuration
   bits, plus balance registers when the two uses sit at different
   pipeline levels. *)
let share_overhead ~level_gap =
  (2.0 *. Tech.mux_area_per_input)
  +. Tech.config_reg_area
  +. (float_of_int level_gap *. Tech.register_area *. 0.5)

(* Greedy level-aware matching per unit kind: sort both sides by level
   and pair in order, so units serving similar pipeline stages share.
   Matches whose overhead exceeds the unit's area are dropped. *)
let pair a_nodes b_nodes =
  let by_kind nodes k =
    List.filter (fun n -> n.n_kind = k) nodes
    |> List.sort (fun x y -> compare x.n_level y.n_level)
  in
  let shared = ref 0 in
  let saved = ref 0.0 in
  let merged = ref [] in
  let only_a = ref 0 and only_b = ref 0 in
  List.iter
    (fun k ->
      let xs = by_kind a_nodes k and ys = by_kind b_nodes k in
      let rec zip xs ys =
        match xs, ys with
        | x :: xs', y :: ys' ->
          let gap = abs (x.n_level - y.n_level) in
          let gain = Tech.area k -. share_overhead ~level_gap:gap in
          if gain > 0.0 then begin
            incr shared;
            saved := !saved +. gain;
            merged := { n_kind = k; n_level = min x.n_level y.n_level } :: !merged
          end
          else begin
            (* too far apart to be worth muxing: keep both units *)
            merged := x :: y :: !merged
          end;
          zip xs' ys'
        | rest, [] ->
          only_a := !only_a + List.length rest;
          merged := rest @ !merged
        | [], rest ->
          only_b := !only_b + List.length rest;
          merged := rest @ !merged
      in
      zip xs ys)
    Ir.Op.all_unit_kinds;
  { n_shared = !shared;
    n_only_a = !only_a;
    n_only_b = !only_b;
    saved_area = !saved;
    merged = !merged }

let area nodes =
  List.fold_left (fun acc n -> acc +. Tech.area n.n_kind) 0.0 nodes

let counts nodes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let prev = try Hashtbl.find tbl n.n_kind with Not_found -> 0 in
      Hashtbl.replace tbl n.n_kind (prev + 1))
    nodes;
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt tbl k with
      | Some c -> Some (k, c)
      | None -> None)
    Ir.Op.all_unit_kinds
