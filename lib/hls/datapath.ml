module Ir = Cayman_ir

(* Datapath-level merging support (Section III-E of the paper): the
   merging heuristic estimates area savings by *matching operations* of
   two accelerators' data-flow graphs and inserting multiplexers with
   configuration registers in front of every shared unit. This module
   extracts the operation nodes (with their ASAP schedule level) from a
   kernel's synthesis plan and computes the greedy pairing.

   A datapath is held as its level profile: for each unit kind, in
   [Ir.Op.all_unit_kinds] order, the ascending array of its nodes'
   levels. Nodes of one kind and level cannot be told apart, so this is
   the whole datapath, and pairing zips two profiles kind by kind
   without filtering or sorting either. Profiles are never mutated once
   built, so arrays are shared between them freely. *)

type node = {
  n_kind : Ir.Op.unit_kind;
  n_level : int;  (* ASAP issue cycle within its block *)
}

type t = int array array

let kinds = Array.of_list Ir.Op.all_unit_kinds
let n_kinds = Array.length kinds

let kind_index k =
  let rec find i = if kinds.(i) == k then i else find (i + 1) in
  find 0

let empty_levels = [||]

(* A profile from per-kind level lists in any order. *)
let of_buckets (buckets : int list array) : t =
  Array.map
    (function
      | [] -> empty_levels
      | levels ->
        let a = Array.of_list levels in
        Array.sort Int.compare a;
        a)
    buckets

let of_nodes nodes =
  let buckets = Array.make n_kinds [] in
  List.iter
    (fun n ->
      let i = kind_index n.n_kind in
      buckets.(i) <- n.n_level :: buckets.(i))
    nodes;
  of_buckets buckets

let iter f (p : t) = Array.iteri (fun i -> Array.iter (f kinds.(i))) p

let nodes p =
  let acc = ref [] in
  iter (fun n_kind n_level -> acc := { n_kind; n_level } :: !acc) p;
  List.rev !acc

let size (p : t) = Array.fold_left (fun n ls -> n + Array.length ls) 0 p

(* Profile of every synthesized block of a kernel plan, pipelined bodies
   replicated by their unroll factor. *)
let of_plan (ctx : Ctx.t) (plan : Kernel.plan) =
  let buckets = Array.make n_kinds [] in
  let of_block label mult =
    let dfg = Ctx.dfg ctx label in
    let iface i = Kernel.plan_iface plan label i in
    let sched = Schedule.run ~sp_banks:2 dfg ~iface in
    Array.iteri
      (fun i instr ->
        match Ir.Instr.unit_kind instr with
        | Some k ->
          let b = kind_index k and level = sched.Schedule.issue_cycle.(i) in
          for _ = 1 to mult do
            buckets.(b) <- level :: buckets.(b)
          done
        | None -> ())
      dfg.Dfg.instrs
  in
  List.iter (fun label -> of_block label 1) plan.Kernel.p_seq_blocks;
  List.iter (fun (_, body, u) -> of_block body u) plan.Kernel.p_pipelined;
  of_buckets buckets

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
  merged : t;  (* datapath of the merged accelerator *)
}

(* Cost of sharing one unit: two operand multiplexers plus configuration
   bits, plus balance registers when the two uses sit at different
   pipeline levels. *)
let share_overhead ~level_gap =
  (2.0 *. Tech.mux_area_per_input)
  +. Tech.config_reg_area
  +. (float_of_int level_gap *. Tech.register_area *. 0.5)

let unit_area = Float.Array.init n_kinds (fun i -> Tech.area kinds.(i))
let mux_and_config = (2.0 *. Tech.mux_area_per_input) +. Tech.config_reg_area

(* [Tech.area kinds.(i) -. share_overhead ~level_gap:(abs (x - y))]: the
   same float operations over unboxed constants, so the loops below
   allocate nothing. *)
let[@inline] gain i x y =
  Float.Array.get unit_area i
  -. (mux_and_config
      +. (float_of_int (abs (x - y)) *. Tech.register_area *. 0.5))

(* Greedy level-aware matching per unit kind: both sides are already in
   level order, so the i-th node of a kind in one datapath pairs with
   the i-th in the other, and units serving similar pipeline stages
   share. Matches whose overhead exceeds the unit's area are dropped.
   The saving sums kinds in [all_unit_kinds] order, then pairs in level
   order. *)
let pair (a : t) (b : t) =
  let shared = ref 0 and saved = ref 0.0 in
  let only_a = ref 0 and only_b = ref 0 in
  let merged =
    Array.init n_kinds (fun i ->
        let xs = a.(i) and ys = b.(i) in
        let nx = Array.length xs and ny = Array.length ys in
        let n = min nx ny in
        only_a := !only_a + (nx - n);
        only_b := !only_b + (ny - n);
        if nx = 0 then ys
        else if ny = 0 then xs
        else begin
          (* a kept pair contributes one node, a dropped pair both *)
          let out = Array.make (nx + ny) 0 and len = ref 0 in
          let push l =
            out.(!len) <- l;
            incr len
          in
          for j = 0 to n - 1 do
            let x = xs.(j) and y = ys.(j) in
            let g = gain i x y in
            if g > 0.0 then begin
              incr shared;
              saved := !saved +. g;
              push (min x y)
            end
            else begin
              (* too far apart to be worth muxing: keep both units *)
              push x;
              push y
            end
          done;
          for j = n to nx - 1 do push xs.(j) done;
          for j = n to ny - 1 do push ys.(j) done;
          let m = Array.sub out 0 !len in
          Array.sort Int.compare m;
          m
        end)
  in
  { n_shared = !shared;
    n_only_a = !only_a;
    n_only_b = !only_b;
    saved_area = !saved;
    merged }

(* [(pair a b).saved_area], summed in the same order, allocating
   nothing. *)
let saved_area (a : t) (b : t) =
  let saved = ref 0.0 in
  for i = 0 to n_kinds - 1 do
    let xs = a.(i) and ys = b.(i) in
    for j = 0 to min (Array.length xs) (Array.length ys) - 1 do
      let g = gain i xs.(j) ys.(j) in
      if g > 0.0 then saved := !saved +. g
    done
  done;
  !saved

let area (p : t) =
  let acc = ref 0.0 in
  iter (fun k _ -> acc := !acc +. Tech.area k) p;
  !acc

let counts (p : t) =
  let acc = ref [] in
  for i = n_kinds - 1 downto 0 do
    match Array.length p.(i) with
    | 0 -> ()
    | c -> acc := (kinds.(i), c) :: !acc
  done;
  !acc
