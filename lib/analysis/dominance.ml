module Ir = Cayman_ir

(* A label-level view of one of the index's two trees. *)
type t = { cfg : Ir.Cfg.t; post : bool }

let dominators f = { cfg = Ir.Cfg.of_func f; post = false }
let postdominators f = { cfg = Ir.Cfg.of_func f; post = true }
let cfg t = t.cfg
let virtual_exit = "<exit>"

let node t label =
  if t.post && String.equal label virtual_exit then Some (Ir.Cfg.exit_node t.cfg)
  else Ir.Cfg.id_opt t.cfg label

let label t v =
  if v = Ir.Cfg.exit_node t.cfg then virtual_exit else t.cfg.Ir.Cfg.labels.(v)

let tree t = if t.post then t.cfg.Ir.Cfg.ipdom else t.cfg.Ir.Cfg.idom

let reachable t label =
  match node t label with
  | Some v -> (tree t).(v) >= 0
  | None -> false

let dominates t a b =
  match node t a, node t b with
  | Some a, Some b ->
    if t.post then Ir.Cfg.postdominates t.cfg a b else Ir.Cfg.dominates t.cfg a b
  | None, _ | _, None -> false

let idom t l =
  match node t l with
  | Some v ->
    let p = (tree t).(v) in
    if p < 0 || p = v then None else Some (label t p)
  | None -> None
