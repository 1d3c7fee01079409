module Ir = Cayman_ir
module String_set = Set.Make (String)

type access = {
  a_block : string;
  a_pos : int;
  a_base : string;
  a_is_store : bool;
}

type carried_dep = {
  src : access;
  dst : access;
  distance : int option;  (** [None] means unknown: assume distance 1 *)
}

let accesses_in (f : Ir.Func.t) (blocks : Loops.String_set.t) =
  List.concat_map
    (fun (b : Ir.Block.t) ->
      if Loops.String_set.mem b.Ir.Block.label blocks then
        List.mapi (fun pos i -> pos, i) b.Ir.Block.instrs
        |> List.filter_map (fun (pos, i) ->
          match Ir.Instr.mem_ref_of i with
          | Some m ->
            Some
              { a_block = b.Ir.Block.label; a_pos = pos;
                a_base = m.Ir.Instr.base;
                a_is_store =
                  (match i with
                   | Ir.Instr.Store _ -> true
                   | Ir.Instr.Assign _ | Ir.Instr.Unary _ | Ir.Instr.Binary _
                   | Ir.Instr.Compare _ | Ir.Instr.Select _ | Ir.Instr.Load _
                   | Ir.Instr.Call _ -> false) }
          | None -> None)
      else [])
    f.Ir.Func.blocks

(* Cross-iteration dependence between two same-base accesses with respect
   to loop [header]. *)
let carried_between scev ~header x y =
  let fx = Scev.access_form scev ~block:x.a_block ~pos:x.a_pos in
  let fy = Scev.access_form scev ~block:y.a_block ~pos:y.a_pos in
  match fx, fy with
  | Scev.Unknown, _ | _, Scev.Unknown -> Some None
  | Scev.Affine a, Scev.Affine b ->
    let ca = Scev.coeff_of a header and cb = Scev.coeff_of b header in
    let strip form =
      List.filter (fun (h, _) -> not (String.equal h header)) form
    in
    let others_equal =
      strip a.Scev.ivs = strip b.Scev.ivs && a.Scev.syms = b.Scev.syms
    in
    if not others_equal then Some None
    else if ca <> cb then Some None
    else begin
      let d = a.Scev.const - b.Scev.const in
      if ca = 0 then
        if d = 0 then Some (Some 1) (* same invariant address each iteration *)
        else None (* distinct constant addresses: never alias *)
      else if d = 0 then None (* same address within one iteration only *)
      else if d mod ca = 0 then Some (Some (abs (d / ca)))
      else None
    end

(* Loop-carried memory dependencies of [loop]: pairs of same-base accesses,
   at least one being a store, that touch the same address in different
   iterations. *)
let loop_carried (f : Ir.Func.t) scev (loop : Loops.loop) =
  let accs = accesses_in f loop.Loops.blocks in
  let deps = ref [] in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y ->
          if j >= i && (x.a_is_store || y.a_is_store)
             && String.equal x.a_base y.a_base
          then
            match carried_between scev ~header:loop.Loops.header x y with
            | Some distance -> deps := { src = x; dst = y; distance } :: !deps
            | None -> ())
        accs)
    accs;
  List.rev !deps

(* Scalar recurrences: registers live around the back edge and redefined in
   the loop (e.g. accumulators). Canonical IVs are excluded; their trivial
   one-cycle increment never limits pipelining in our model. *)
let recurrence_regs (f : Ir.Func.t) (live : Liveness.t) scev (loop : Loops.loop) =
  let defs_in_loop =
    Loops.String_set.fold
      (fun label acc ->
        List.fold_left
          (fun acc (r : Ir.Instr.reg) -> String_set.add r.Ir.Instr.id acc)
          acc
          (Ir.Block.defs (Ir.Func.block_exn f label)))
      loop.Loops.blocks String_set.empty
  in
  String_set.filter (Liveness.live_in live loop.Loops.header) defs_in_loop
  |> String_set.elements
  |> List.filter (fun rid -> not (Scev.is_iv scev rid))

type loop_info = {
  header : string;
  carried : carried_dep list;
  recurrences : string list;
}

let analyze_loop f live scev loop =
  { header = loop.Loops.header;
    carried = loop_carried f scev loop;
    recurrences = recurrence_regs f live scev loop }

(* Unrolling legality per the paper: only loops free of loop-carried
   dependencies (memory or scalar) are unrolled. *)
let has_carried_dep info = info.carried <> [] || info.recurrences <> []
