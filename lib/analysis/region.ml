module Ir = Cayman_ir
module String_set = Set.Make (String)

type kind =
  | Whole_function
  | Loop_region
  | Cond_region
  | Basic_block

type t = {
  id : int;
  kind : kind;
  entry : string;
  exit : string option;
  blocks : String_set.t;
  children : t list;
}

let kind_to_string = function
  | Whole_function -> "func"
  | Loop_region -> "loop"
  | Cond_region -> "cond"
  | Basic_block -> "bb"

let is_ctrl_flow r =
  match r.kind with
  | Loop_region | Cond_region -> true
  | Whole_function | Basic_block -> false

let name r =
  match r.kind with
  | Basic_block -> r.entry
  | Whole_function -> "func:" ^ r.entry
  | Loop_region | Cond_region ->
    Printf.sprintf "%s:%s" (kind_to_string r.kind) r.entry

(* Control-flow SESE regions of an index, as [(entry, exit, blocks,
   kind)] over block ids. A candidate (entry [a], exit [b]) holds the
   blocks dominated by [a] and postdominated by [b], less [b]; it is SESE
   at block granularity iff outside edges enter only at [a] and inside
   edges leave only to [b]. For each block [a] the exit walks up the
   postdominator chain from [a] while [a] still dominates it. *)
let ctrl_regions (cfg : Ir.Cfg.t) =
  let module B = Ir.Cfg.Bits in
  let n = cfg.Ir.Cfg.size and exit = Ir.Cfg.exit_node cfg in
  let idom = cfg.Ir.Cfg.idom and ipdom = cfg.Ir.Cfg.ipdom in
  (* [dominated.(a)]: blocks [a] dominates; [postdominated.(b)]: blocks
     [b] postdominates (both reflexive, reachable blocks only). *)
  let dominated = Array.init n (fun _ -> B.create n) in
  let postdominated = Array.init n (fun _ -> B.create n) in
  for x = 0 to n - 1 do
    if idom.(x) >= 0 then begin
      let rec up a =
        B.add dominated.(a) x;
        if a <> 0 then up idom.(a)
      in
      up x
    end;
    if ipdom.(x) >= 0 then begin
      let rec up b =
        if b <> exit then begin
          B.add postdominated.(b) x;
          up ipdom.(b)
        end
      in
      up x
    end
  done;
  let succ_bits =
    Array.map
      (fun ids ->
        let s = B.create n in
        Array.iter (B.add s) ids;
        s)
      cfg.Ir.Cfg.succs
  in
  (* Edges leaving the candidate's blocks must reach only its blocks or
     [b]; edges entering them from outside must reach only [a]. *)
  let out = B.create n and into = B.create n in
  let candidate a b =
    let set = B.inter dominated.(a) postdominated.(b) in
    B.remove set b;
    if B.is_empty set then None
    else begin
      B.clear out;
      B.clear into;
      for x = 0 to n - 1 do
        B.union_into ~dst:(if B.mem set x then out else into) succ_bits.(x)
      done;
      B.remove out b;
      B.inter_into ~dst:into set;
      B.remove into a;
      if B.subset out set && B.is_empty into then Some set else None
    end
  in
  let acc = ref [] in
  for a = 0 to n - 1 do
    if idom.(a) >= 0 && ipdom.(a) >= 0 then begin
      let rec walk b =
        if b <> exit && B.mem dominated.(a) b then begin
          (match candidate a b with
           | Some set ->
             let trivial =
               B.cardinal set = 1
               &&
               match cfg.Ir.Cfg.blocks.(a).Ir.Block.term with
               | Ir.Instr.Jump _ -> true
               | Ir.Instr.Branch _ | Ir.Instr.Return _ -> false
             in
             if not trivial then begin
               (* a back edge into [a] makes it a loop *)
               let kind =
                 if
                   Array.exists (fun p -> B.mem set p) cfg.Ir.Cfg.preds.(a)
                 then Loop_region
                 else Cond_region
               in
               acc := (a, b, set, kind) :: !acc
             end
           | None -> ());
          walk ipdom.(b)
        end
      in
      walk ipdom.(a)
    end
  done;
  !acc

(* Tree node under construction. *)
type proto = {
  p_kind : kind;
  p_entry : int;
  p_exit : int option;
  p_blocks : Ir.Cfg.Bits.t;
  p_size : int;
  mutable p_children : proto list;
}

let rec insert parent node =
  let module B = Ir.Cfg.Bits in
  (* Find a child that contains the node; recurse there. *)
  let container =
    List.find_opt (fun c -> B.subset node.p_blocks c.p_blocks) parent.p_children
  in
  match container with
  | Some c -> insert c node
  | None ->
    (* SESE regions found along different postdominator chains may overlap
       without nesting (a "prefix + loop" region vs a "loop + epilogue"
       region). The tree must partition blocks so the selection DP never
       double-counts; drop any region that partially overlaps a sibling. *)
    let partial_overlap =
      List.exists
        (fun c ->
          (not (B.subset c.p_blocks node.p_blocks))
          && not (B.disjoint c.p_blocks node.p_blocks))
        parent.p_children
    in
    if not partial_overlap then begin
      (* Adopt any current children now contained in the node. *)
      let inside, outside =
        List.partition
          (fun c -> B.subset c.p_blocks node.p_blocks)
          parent.p_children
      in
      node.p_children <- node.p_children @ inside;
      parent.p_children <- node :: outside
    end

let pst_of_cfg (cfg : Ir.Cfg.t) : t =
  let module B = Ir.Cfg.Bits in
  let n = cfg.Ir.Cfg.size and labels = cfg.Ir.Cfg.labels in
  let reachable =
    List.filter (fun v -> cfg.Ir.Cfg.idom.(v) >= 0) (List.init n Fun.id)
  in
  let all = B.create n in
  List.iter (B.add all) reachable;
  let root =
    { p_kind = Whole_function; p_entry = 0; p_exit = None; p_blocks = all;
      p_size = List.length reachable; p_children = [] }
  in
  (* Insert larger regions first so containment nesting is direct. *)
  let sorted =
    List.stable_sort
      (fun (_, _, _, _, c1) (_, _, _, _, c2) -> compare c2 c1)
      (List.map
         (fun (a, b, set, kind) -> a, b, set, kind, B.cardinal set)
         (ctrl_regions cfg))
  in
  List.iter
    (fun (a, b, set, kind, size) ->
      if not (B.equal set all) then
        insert root
          { p_kind = kind; p_entry = a; p_exit = Some b; p_blocks = set;
            p_size = size; p_children = [] })
    sorted;
  (* Basic-block leaves under the innermost containing region. *)
  List.iter
    (fun v ->
      let set = B.create n in
      B.add set v;
      insert root
        { p_kind = Basic_block; p_entry = v; p_exit = None; p_blocks = set;
          p_size = 1; p_children = [] })
    reachable;
  (* Freeze, ordering children by RPO position of their entry and numbering
     vertices in preorder. *)
  let pos v = cfg.Ir.Cfg.rpo_index.(v) in
  let next_id = ref 0 in
  let rec freeze p =
    let id = !next_id in
    incr next_id;
    let children =
      p.p_children
      |> List.sort (fun c1 c2 ->
        compare (pos c1.p_entry, c2.p_size) (pos c2.p_entry, c1.p_size))
      |> List.map freeze
    in
    let blocks = ref String_set.empty in
    B.iter (fun v -> blocks := String_set.add labels.(v) !blocks) p.p_blocks;
    { id; kind = p.p_kind; entry = labels.(p.p_entry);
      exit = Option.map (fun v -> labels.(v)) p.p_exit; blocks = !blocks;
      children }
  in
  freeze root

let rec iter g r =
  g r;
  List.iter (iter g) r.children

let rec fold g acc r =
  let acc = g acc r in
  List.fold_left (fold g) acc r.children

let find_by_id root id =
  let found = ref None in
  iter (fun r -> if r.id = id then found := Some r) root;
  !found

let rec pp fmt r =
  Format.fprintf fmt "@[<v 2>[%d] %s (%d blocks)" r.id (name r)
    (String_set.cardinal r.blocks);
  List.iter (fun c -> Format.fprintf fmt "@,%a" pp c) r.children;
  Format.fprintf fmt "@]"
