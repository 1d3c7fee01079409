module Ir = Cayman_ir
module String_set = Set.Make (String)

(* An affine form: const + sum(coeff * loop-iv) + sum(coeff * symbol).
   Loop induction variables are named by their loop header and count
   iterations 0, 1, 2, ...; symbols are loop-invariant unknowns. *)
type affine = {
  const : int;
  ivs : (string * int) list;
  syms : (string * int) list;
}

type form =
  | Affine of affine
  | Unknown

type pattern =
  | Invariant
  | Stream of int
  | Irregular

type iv_info = { iv_loop : string; step : int; start : form }

type t = {
  func : Ir.Func.t;
  loops : Loops.t;
  ivs : (string, iv_info) Hashtbl.t;
  defs : (string, (string * int) list) Hashtbl.t;
  params : String_set.t;
  block_index : (string, Ir.Block.t) Hashtbl.t;
  enclosing : (string, Loops.loop list) Hashtbl.t;
  accesses : (string, (form * pattern) array) Hashtbl.t;
      (* per block, the address form and pattern of each instruction
         ([Unknown], [Irregular] for one that is not a memory access);
         filled by [create] *)
}

let const n = { const = n; ivs = []; syms = [] }

let norm terms =
  terms
  |> List.filter (fun (_, c) -> c <> 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Sum of two term lists, each sorted by key with no zero coefficient
   (as [norm] leaves them): one merge pass, dropping terms that cancel. *)
let rec merge_terms a b =
  match a, b with
  | [], t | t, [] -> t
  | ((ka, ca) as x) :: a', ((kb, cb) as y) :: b' ->
    let c = String.compare ka kb in
    if c < 0 then x :: merge_terms a' b
    else if c > 0 then y :: merge_terms a b'
    else
      let sum = ca + cb in
      if sum = 0 then merge_terms a' b' else (ka, sum) :: merge_terms a' b'

let add_affine x y =
  { const = x.const + y.const;
    ivs = merge_terms x.ivs y.ivs;
    syms = merge_terms x.syms y.syms }

let neg_affine x =
  { const = -x.const;
    ivs = List.map (fun (k, c) -> k, -c) x.ivs;
    syms = List.map (fun (k, c) -> k, -c) x.syms }

let scale_affine k x =
  if k = 0 then const 0
  else
    { const = k * x.const;
      ivs = norm (List.map (fun (h, c) -> h, k * c) x.ivs);
      syms = norm (List.map (fun (h, c) -> h, k * c) x.syms) }

let affine_equal x y =
  x.const = y.const && x.ivs = y.ivs && x.syms = y.syms

let form_add a b =
  match a, b with
  | Affine x, Affine y -> Affine (add_affine x y)
  | Unknown, _ | _, Unknown -> Unknown

let form_neg = function
  | Affine x -> Affine (neg_affine x)
  | Unknown -> Unknown

let form_scale k = function
  | Affine x -> Affine (scale_affine k x)
  | Unknown -> Unknown

let as_const = function
  | Affine { const; ivs = []; syms = [] } -> Some const
  | Affine _ | Unknown -> None

(* --- construction --- *)

let collect_defs (f : Ir.Func.t) =
  let defs = Hashtbl.create 32 in
  List.iter
    (fun (b : Ir.Block.t) ->
      List.iteri
        (fun idx i ->
          match Ir.Instr.def i with
          | Some r ->
            let prev =
              try Hashtbl.find defs r.Ir.Instr.id with Not_found -> []
            in
            Hashtbl.replace defs r.Ir.Instr.id ((b.Ir.Block.label, idx) :: prev)
          | None -> ())
        b.Ir.Block.instrs)
    f.Ir.Func.blocks;
  defs

(* A register is the canonical IV of a loop when its only definition inside
   the loop is a single [r = r +/- c] in a latch block. Only latch
   instructions of that shape can qualify, so those are the candidates;
   a register gets the first loop, in [loops] order, that qualifies it. *)
let detect_ivs (f : Ir.Func.t) (loops : Loops.t) defs =
  let ivs = Hashtbl.create 8 in
  let step_of (instr : Ir.Instr.t) =
    match instr with
    | Ir.Instr.Binary (r, Ir.Op.Add, Ir.Instr.Reg r', Ir.Instr.Imm_int c)
    | Ir.Instr.Binary (r, Ir.Op.Add, Ir.Instr.Imm_int c, Ir.Instr.Reg r')
      when String.equal r.Ir.Instr.id r'.Ir.Instr.id ->
      Some (r.Ir.Instr.id, c)
    | Ir.Instr.Binary (r, Ir.Op.Sub, Ir.Instr.Reg r', Ir.Instr.Imm_int c)
      when String.equal r.Ir.Instr.id r'.Ir.Instr.id ->
      Some (r.Ir.Instr.id, -c)
    | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
    | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Load _
    | Ir.Instr.Store _ | Ir.Instr.Call _ ->
      None
  in
  List.iter
    (fun (l : Loops.loop) ->
      let in_loop (b, _) = Loops.String_set.mem b l.Loops.blocks in
      List.iter
        (fun latch ->
          if Loops.String_set.mem latch l.Loops.blocks then
            List.iteri
              (fun idx instr ->
                match step_of instr with
                | Some (rid, step) when step <> 0 && not (Hashtbl.mem ivs rid)
                  ->
                  (match List.filter in_loop (Hashtbl.find defs rid) with
                   | [ (block, idx') ] when String.equal block latch && idx' = idx
                     ->
                     Hashtbl.replace ivs rid
                       { iv_loop = l.Loops.header; step; start = Unknown }
                   | [] | _ :: _ -> ())
                | Some _ | None -> ())
              (Ir.Func.block_exn f latch).Ir.Block.instrs)
        l.Loops.latches)
    loops;
  ivs

(* --- resolution --- *)

let max_depth = 64

let enclosing t label =
  Option.value (Hashtbl.find_opt t.enclosing label) ~default:[]

let rec resolve t ~block ~pos ~depth (o : Ir.Instr.operand) : form =
  if depth > max_depth then Unknown
  else
    match o with
    | Ir.Instr.Imm_int n -> Affine (const n)
    | Ir.Instr.Imm_float _ | Ir.Instr.Imm_bool _ -> Unknown
    | Ir.Instr.Reg r -> resolve_reg t ~block ~pos ~depth r.Ir.Instr.id

and resolve_reg t ~block ~pos ~depth rid =
  let sites = try Hashtbl.find t.defs rid with Not_found -> [] in
  let local =
    List.filter (fun (b, i) -> String.equal b block && i < pos) sites
  in
  match local with
  | _ :: _ ->
    let b, i =
      List.fold_left
        (fun ((_, bi) as best) ((_, ci) as cur) ->
          if ci > bi then cur else best)
        (List.hd local) (List.tl local)
    in
    resolve_def t ~block:b ~pos:i ~depth
  | [] ->
    (* Live-in to this block: IV, unique remote def, parameter, or give up. *)
    let around = enclosing t block in
    let as_iv =
      match Hashtbl.find_opt t.ivs rid with
      | Some iv
        when List.exists
               (fun (l : Loops.loop) -> String.equal l.Loops.header iv.iv_loop)
               around ->
        Some iv
      | Some _ | None -> None
    in
    (match as_iv with
     | Some iv ->
       let start = iv_start t ~depth rid iv in
       let term = Affine { const = 0; ivs = [ (iv.iv_loop, iv.step) ]; syms = [] } in
       form_add start term
     | None ->
       (match sites with
        | [ (b, i) ] ->
          (* A unique definition: its value is whatever that site computes,
             provided no enclosing loop redefines it (it cannot: the only
             def is that site, and if that site were inside a loop also
             containing [block], the local case or IV case would differ;
             conservatively require the def site to be outside every loop
             that contains [block] but not the def). *)
          let def_loops =
            List.map (fun (l : Loops.loop) -> l.Loops.header) (enclosing t b)
          in
          let use_loops =
            List.map (fun (l : Loops.loop) -> l.Loops.header) around
          in
          let invariant_ok =
            List.for_all (fun h -> List.mem h def_loops) use_loops
            ||
            (* Def outside some loop containing the use: value is loop-
               invariant there, still fine to resolve at the def site. *)
            List.for_all
              (fun h -> not (List.mem h def_loops) || List.mem h use_loops)
              def_loops
          in
          if invariant_ok then resolve_def t ~block:b ~pos:i ~depth
          else Unknown
        | [] when String_set.mem rid t.params ->
          Affine { const = 0; ivs = []; syms = [ ("param:" ^ rid, 1) ] }
        | [] | _ :: _ ->
          (* Multi-def register: if no definition lies inside the
             innermost loop enclosing the use, the value is invariant
             there and can be a symbol — the address sequence is still
             statically computable with respect to that loop (a stream),
             even though the symbol varies with outer loops. Footprints
             over such symbols are rejected (see [footprint]). *)
          (match around with
           | innermost :: _ ->
             let defined_inside =
               List.exists
                 (fun (b, _) ->
                   Loops.String_set.mem b innermost.Loops.blocks)
                 sites
             in
             if defined_inside then Unknown
             else Affine { const = 0; ivs = []; syms = [ ("inv:" ^ rid, 1) ] }
           | [] -> Unknown)))

and iv_start t ~depth rid iv =
  match iv.start with
  | Affine _ -> iv.start
  | Unknown ->
    (* Resolve the register at the end of the loop preheader; fall back to
       a per-loop symbolic start. *)
    let l = Loops.loop_of t.loops iv.iv_loop in
    let resolved =
      match l with
      | Some { Loops.preheader = Some ph; _ } ->
        (match Hashtbl.find_opt t.block_index ph with
         | Some b ->
           resolve_reg t ~block:ph
             ~pos:(List.length b.Ir.Block.instrs)
             ~depth:(depth + 1) rid
         | None -> Unknown)
      | Some _ | None -> Unknown
    in
    (match resolved with
     | Affine _ -> resolved
     | Unknown ->
       Affine
         { const = 0; ivs = [];
           syms = [ (Printf.sprintf "init:%s:%s" iv.iv_loop rid, 1) ] })

and resolve_def t ~block ~pos ~depth =
  let b = Hashtbl.find t.block_index block in
  let instr = List.nth b.Ir.Block.instrs pos in
  let sub o = resolve t ~block ~pos ~depth:(depth + 1) o in
  match instr with
  | Ir.Instr.Assign (_, o) -> sub o
  | Ir.Instr.Unary (_, Ir.Op.Neg, o) -> form_neg (sub o)
  | Ir.Instr.Binary (_, Ir.Op.Add, a, b') -> form_add (sub a) (sub b')
  | Ir.Instr.Binary (_, Ir.Op.Sub, a, b') ->
    form_add (sub a) (form_neg (sub b'))
  | Ir.Instr.Binary (_, Ir.Op.Mul, a, b') ->
    (match as_const (sub a), as_const (sub b') with
     | Some k, _ -> form_scale k (sub b')
     | _, Some k -> form_scale k (sub a)
     | None, None -> Unknown)
  | Ir.Instr.Binary (_, Ir.Op.Shl, a, b') ->
    (match as_const (sub b') with
     | Some k when k >= 0 && k < 31 -> form_scale (1 lsl k) (sub a)
     | Some _ | None -> Unknown)
  | Ir.Instr.Binary
      (_, ( Ir.Op.Div | Ir.Op.Rem | Ir.Op.And | Ir.Op.Or | Ir.Op.Xor
          | Ir.Op.Shr | Ir.Op.Fadd | Ir.Op.Fsub | Ir.Op.Fmul | Ir.Op.Fdiv ),
       _, _)
  | Ir.Instr.Unary
      (_, (Ir.Op.Fneg | Ir.Op.Not | Ir.Op.Int_of_float | Ir.Op.Float_of_int), _)
  | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Load _
  | Ir.Instr.Store _ | Ir.Instr.Call _ ->
    Unknown

let coeff_of (a : affine) header =
  match List.assoc_opt header a.ivs with
  | Some c -> c
  | None -> 0

(* Access pattern with respect to the innermost enclosing loop. *)
let pattern_of t ~block = function
  | Unknown -> Irregular
  | Affine a ->
    (match enclosing t block with
     | [] -> Invariant
     | innermost :: _ ->
       let c = coeff_of a innermost.Loops.header in
       if c = 0 then Invariant else Stream c)

(* Every memory access is resolved and classified once, here: the key
   derivation, [Kernel.region_facts] and [Memdep] query the same
   accesses many times. The tables are complete before [create] returns
   and never written again, because one [Ctx] is read by several pool
   domains at once. *)
let create (f : Ir.Func.t) (loops : Loops.t) =
  let defs = collect_defs f in
  let block_index = Hashtbl.create 16 in
  let enclosing = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.Block.t) ->
      let l = b.Ir.Block.label in
      Hashtbl.replace block_index l b;
      Hashtbl.replace enclosing l (Loops.enclosing loops l))
    f.Ir.Func.blocks;
  let params =
    String_set.of_list
      (List.map (fun (r : Ir.Instr.reg) -> r.Ir.Instr.id) f.Ir.Func.params)
  in
  let t =
    { func = f; loops; ivs = detect_ivs f loops defs; defs; params;
      block_index; enclosing; accesses = Hashtbl.create 16 }
  in
  Hashtbl.iter
    (fun block (b : Ir.Block.t) ->
      Hashtbl.replace t.accesses block
        (Array.of_list
           (List.mapi
              (fun pos i ->
                match Ir.Instr.mem_ref_of i with
                | Some m ->
                  let form = resolve t ~block ~pos ~depth:0 m.Ir.Instr.index in
                  (form, pattern_of t ~block form)
                | None -> (Unknown, Irregular))
              b.Ir.Block.instrs)))
    block_index;
  t

let access t ~block ~pos =
  match Hashtbl.find_opt t.accesses block with
  | Some a when pos >= 0 && pos < Array.length a -> a.(pos)
  | Some _ | None -> (Unknown, Irregular)

(* Form of the address of the memory instruction at [(block, pos)]. *)
let access_form t ~block ~pos = fst (access t ~block ~pos)

let m_classified = Obs.Metrics.counter "analysis.scev_accesses_classified"

let classify t ~block ~pos =
  Obs.Metrics.incr m_classified;
  snd (access t ~block ~pos)

(* Footprint of the access over one execution of a region: the number of
   distinct elements touched while the loops in [trips] (header, trip
   count) run. [None] if not statically analyzable. *)
let footprint_of_form form ~trips =
  match form with
  | Unknown -> None
  | Affine a when
      List.exists (fun (s, _) -> String.starts_with ~prefix:"inv:" s) a.syms ->
    (* The form hides variation of outer loops inside an invariant
       symbol: the true footprint is not statically analyzable. *)
    None
  | Affine a ->
    let span =
      List.fold_left
        (fun acc (header, trip) ->
          let c = abs (coeff_of a header) in
          acc + (c * max 0 (trip - 1)))
        0 trips
    in
    Some (span + 1)

let footprint t ~block ~pos ~trips =
  footprint_of_form (access_form t ~block ~pos) ~trips

let is_iv t rid = Hashtbl.mem t.ivs rid

let iv_of t rid = Hashtbl.find_opt t.ivs rid

let pp_affine fmt a =
  Format.fprintf fmt "%d" a.const;
  List.iter (fun (h, c) -> Format.fprintf fmt " + %d*iv(%s)" c h) a.ivs;
  List.iter (fun (s, c) -> Format.fprintf fmt " + %d*%s" c s) a.syms

let pp_form fmt = function
  | Affine a -> pp_affine fmt a
  | Unknown -> Format.pp_print_string fmt "<unknown>"

let pattern_to_string = function
  | Invariant -> "invariant"
  | Stream c -> (if c < 0 then "stream(" else "stream(+") ^ string_of_int c ^ ")"
  | Irregular -> "irregular"
