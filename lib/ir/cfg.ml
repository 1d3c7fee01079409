module Bits = struct
  (* 63 members per word: an OCaml int holds 63 bits. *)
  type t = int array

  let w = 63
  let words n = (n + w - 1) / w
  let create n = Array.make (max 1 (words n)) 0

  (* A full word is [-1]: all 63 bits set. *)
  let full n =
    let b = create n in
    Array.fill b 0 (n / w) (-1);
    if n mod w > 0 then b.(n / w) <- (1 lsl (n mod w)) - 1;
    b

  let copy = Array.copy
  let clear b = Array.fill b 0 (Array.length b) 0
  let mem b i = b.(i / w) land (1 lsl (i mod w)) <> 0
  let add b i = b.(i / w) <- b.(i / w) lor (1 lsl (i mod w))
  let remove b i = b.(i / w) <- b.(i / w) land lnot (1 lsl (i mod w))

  let inter_into ~dst src =
    for k = 0 to Array.length dst - 1 do
      dst.(k) <- dst.(k) land src.(k)
    done

  let union_into ~dst src =
    for k = 0 to Array.length dst - 1 do
      dst.(k) <- dst.(k) lor src.(k)
    done

  let blit ~dst src = Array.blit src 0 dst 0 (Array.length dst)

  let inter a b =
    let c = Array.copy a in
    inter_into ~dst:c b;
    c

  let equal (a : t) (b : t) =
    let rec go k = k < 0 || (a.(k) = b.(k) && go (k - 1)) in
    go (Array.length a - 1)

  let subset a b =
    let rec go k = k < 0 || (a.(k) land lnot b.(k) = 0 && go (k - 1)) in
    go (Array.length a - 1)

  let disjoint a b =
    let rec go k = k < 0 || (a.(k) land b.(k) = 0 && go (k - 1)) in
    go (Array.length a - 1)

  let is_empty a = Array.for_all (fun x -> x = 0) a

  let cardinal a =
    let rec pop x n = if x = 0 then n else pop (x land (x - 1)) (n + 1) in
    Array.fold_left (fun n x -> pop x n) 0 a

  let iter g a =
    Array.iteri
      (fun k x ->
        let rec go x i =
          if x <> 0 then begin
            if x land 1 <> 0 then g i;
            go (x lsr 1) (i + 1)
          end
        in
        go x (k * w))
      a
end

module String_tbl = Hashtbl.Make (String)

type t = {
  func : Func.t;
  size : int;
  blocks : Block.t array;
  labels : string array;
  index : int String_tbl.t;
  succs : int array array;
  preds : int array array;
  returning : int array;
  rpo : int array;
  rpo_index : int array;
  idom : int array;
  depth : int array;
  ipdom : int array;
}

(* Iterative Cooper-Harvey-Kennedy dominators of the graph given by
   [succs]/[preds] from [root]: reverse postorder (successors visited in
   edge order), its inverse, and idom and depth arrays with [-1] for the
   nodes [root] does not reach. *)
let dom_tree ~root ~succs ~preds =
  let n = Array.length succs in
  let visited = Array.make n false in
  let post = Array.make n 0 in
  let count = ref 0 in
  let rec dfs v =
    visited.(v) <- true;
    Array.iter (fun s -> if not visited.(s) then dfs s) succs.(v);
    post.(!count) <- v;
    incr count
  in
  dfs root;
  let k = !count in
  let rpo = Array.init k (fun i -> post.(k - 1 - i)) in
  let index = Array.make n (-1) in
  Array.iteri (fun i v -> index.(v) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(root) <- root;
  let rec intersect a b =
    if a = b then a
    else if index.(a) > index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to k - 1 do
      let v = rpo.(i) in
      let d =
        Array.fold_left
          (fun d p ->
            if idom.(p) < 0 then d else if d < 0 then p else intersect p d)
          (-1) preds.(v)
      in
      if d >= 0 && d <> idom.(v) then begin
        idom.(v) <- d;
        changed := true
      end
    done
  done;
  let depth = Array.make n (-1) in
  Array.iter
    (fun v -> depth.(v) <- (if v = root then 0 else depth.(idom.(v)) + 1))
    rpo;
  rpo, index, idom, depth

let of_func (f : Func.t) =
  if f.Func.blocks = [] then
    invalid_arg ("Cfg.of_func: function " ^ f.Func.name ^ " has no blocks");
  let all = Array.of_list f.Func.blocks in
  let index = String_tbl.create (2 * Array.length all) in
  let firsts = ref [] in
  (* [node.(j)]: id of the [j]th block of the function. *)
  let node =
    Array.map
      (fun (b : Block.t) ->
        match String_tbl.find_opt index b.Block.label with
        | Some v -> v
        | None ->
          let v = String_tbl.length index in
          String_tbl.add index b.Block.label v;
          firsts := b :: !firsts;
          v)
      all
  in
  let blocks = Array.of_list (List.rev !firsts) in
  let size = Array.length blocks in
  let labels = Array.map (fun (b : Block.t) -> b.Block.label) blocks in
  let resolve l = Option.value (String_tbl.find_opt index l) ~default:(-1) in
  let succs = Array.make size [||] in
  let npreds = Array.make size 0 in
  Array.iteri
    (fun j (b : Block.t) ->
      let ts =
        match b.Block.term with
        | Instr.Jump l ->
          let u = resolve l in
          if u < 0 then [||] else [| u |]
        | Instr.Branch (_, l1, l2) ->
          let u1 = resolve l1 and u2 = resolve l2 in
          if u1 < 0 then (if u2 < 0 then [||] else [| u2 |])
          else if u2 < 0 then [| u1 |]
          else [| u1; u2 |]
        | Instr.Return _ -> [||]
      in
      Array.iter (fun u -> npreds.(u) <- npreds.(u) + 1) ts;
      let v = node.(j) in
      succs.(v) <-
        (if Array.length succs.(v) = 0 then ts else Array.append succs.(v) ts))
    all;
  let preds = Array.map (fun k -> Array.make k 0) npreds in
  Array.fill npreds 0 size 0;
  Array.iteri
    (fun v ts ->
      Array.iter
        (fun u ->
          preds.(u).(npreds.(u)) <- v;
          npreds.(u) <- npreds.(u) + 1)
        ts)
    succs;
  let returning =
    List.filter_map
      (fun j ->
        match all.(j).Block.term with
        | Instr.Return _ -> Some node.(j)
        | Instr.Jump _ | Instr.Branch _ -> None)
      (List.init (Array.length all) Fun.id)
    |> Array.of_list
  in
  let rpo, rpo_index, idom, depth = dom_tree ~root:0 ~succs ~preds in
  (* The reversed graph, with a virtual exit [size] fed by every
     returning block. *)
  let rsuccs = Array.append preds [| returning |] in
  let rpreds = Array.append succs [| [||] |] in
  Array.iter
    (fun v -> rpreds.(v) <- Array.append rpreds.(v) [| size |])
    returning;
  let _, _, ipdom, _ = dom_tree ~root:size ~succs:rsuccs ~preds:rpreds in
  { func = f; size; blocks; labels; index; succs; preds; returning; rpo;
    rpo_index; idom; depth; ipdom }

let exit_node t = t.size
let id_opt t label = String_tbl.find_opt t.index label
let id t label = String_tbl.find t.index label

(* Walk [b]'s chain up to [a]'s depth. *)
let dominates t a b =
  let da = t.depth.(a) and db = t.depth.(b) in
  da >= 0 && db >= da
  &&
  let rec up v d = if d = da then v else up t.idom.(v) (d - 1) in
  up b db = a

module Must_defined = struct
  type cfg = t
  type t = { regs : int String_tbl.t; ins : Bits.t array }

  let reg t id = Option.value (String_tbl.find_opt t.regs id) ~default:(-1)
  let size t = String_tbl.length t.regs
  let at_entry t v = t.ins.(v)

  let solve (cfg : cfg) =
    let f = cfg.func in
    let regs = String_tbl.create 64 in
    let intern (r : Instr.reg) =
      match String_tbl.find_opt regs r.Instr.id with
      | Some k -> k
      | None ->
        let k = String_tbl.length regs in
        String_tbl.add regs r.Instr.id k;
        k
    in
    let param_ids = List.map intern f.Func.params in
    (* Registers each node's first block writes; every block's
       definitions are interned, duplicates' too. *)
    let gen_ids = Array.make cfg.size [] in
    let next = ref 0 in
    List.iter
      (fun (b : Block.t) ->
        let ids =
          List.filter_map
            (fun i -> Option.map intern (Instr.def i))
            b.Block.instrs
        in
        if !next < cfg.size && cfg.blocks.(!next) == b then begin
          gen_ids.(!next) <- ids;
          incr next
        end)
      f.Func.blocks;
    let n = String_tbl.length regs in
    let bits ids =
      let s = Bits.create n in
      List.iter (Bits.add s) ids;
      s
    in
    let params = bits param_ids in
    let gen = Array.map bits gen_ids in
    let top = Bits.full n in
    let ins =
      Array.init cfg.size (fun v ->
          Bits.copy (if v = 0 then params else top))
    in
    let order =
      if Array.length cfg.rpo = cfg.size then cfg.rpo
      else
        Array.append cfg.rpo
          (Array.of_list
             (List.filter (fun v -> cfg.rpo_index.(v) < 0)
                (List.init cfg.size Fun.id)))
    in
    let meet = Bits.create n and out = Bits.create n in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun v ->
          if v <> 0 then begin
            let ps = cfg.preds.(v) in
            if Array.length ps = 0 then Bits.blit ~dst:meet params
            else
              Array.iteri
                (fun i p ->
                  Bits.blit ~dst:out ins.(p);
                  Bits.union_into ~dst:out gen.(p);
                  if i = 0 then Bits.blit ~dst:meet out
                  else Bits.inter_into ~dst:meet out)
                ps;
            if not (Bits.equal meet ins.(v)) then begin
              Bits.blit ~dst:ins.(v) meet;
              changed := true
            end
          end)
        order
    done;
    { regs; ins }
end

type program = {
  program : Program.t;
  funcs : (t * Must_defined.t) option list;
}

let of_program (p : Program.t) =
  let index (f : Func.t) =
    if f.Func.blocks = [] then None
    else let cfg = of_func f in Some (cfg, Must_defined.solve cfg)
  in
  { program = p; funcs = List.map index p.Program.funcs }

let find t name =
  List.find_map
    (function
      | Some ((cfg, _) as ix) when String.equal cfg.func.Func.name name ->
        Some ix
      | Some _ | None -> None)
    t.funcs
