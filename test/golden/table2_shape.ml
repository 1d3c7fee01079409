(* Shape check on the full Table II ([table2_shape.exe TABLE]), the
   paper's claims that hold on this model, read from the printed table:

   - at each budget the average speedup over NOVIA exceeds the one over
     QsCores, which exceeds 1;
   - both averages grow from the smaller budget to the larger one;
   - at each budget, decoupled plus scratchpad interfaces (#D + #S)
     make up at least 80% of all interfaces (#C + #D + #S), summed over
     the benchmark rows.

   Exits 1 with the failed claim on stderr. The 35% merge saving is not
   checked: this model does not reproduce it. *)

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("FAIL: table2 shape: " ^ m); exit 1) fmt

(* The budget cells of a table line, each as its numeric columns
   [x/NOVIA; x/QsCor; #SB; #PR; #C; #D; #S; save%]; [None] for the
   header, rules and failure rows. *)
let cells line =
  match String.split_on_char '|' line with
  | name :: (_ :: _ as budgets) ->
    let nums cell =
      String.split_on_char ' ' cell
      |> List.filter (( <> ) "")
      |> List.map float_of_string_opt
    in
    let budgets = List.map nums budgets in
    if List.for_all (fun c -> List.length c = 8 && List.for_all Option.is_some c)
         budgets
    then
      Some
        ( List.hd (String.split_on_char ' ' (String.trim name)),
          List.map (List.map Option.get) budgets )
    else None
  | _ -> None

let () =
  let path =
    match Sys.argv with
    | [| _; p |] -> p
    | _ -> fail "usage: table2_shape.exe TABLE"
  in
  let rows =
    In_channel.with_open_bin path In_channel.input_lines
    |> List.filter_map cells
  in
  let average, benchmarks = List.partition (fun (n, _) -> n = "average") rows in
  let average =
    match average with
    | [ (_, cells) ] -> cells
    | _ -> fail "expected one average row"
  in
  if benchmarks = [] then fail "no benchmark rows";
  let speedups = List.map (fun c -> List.nth c 0, List.nth c 1) average in
  List.iteri
    (fun i (novia, qscores) ->
      if not (novia > qscores && qscores > 1.0) then
        fail "budget %d: average x/NOVIA %.1f, x/QsCores %.1f" i novia qscores)
    speedups;
  (match speedups with
   | [ (n0, q0); (n1, q1) ] ->
     if not (n1 > n0 && q1 > q0) then
       fail "averages %.1f/%.1f at the smaller budget, %.1f/%.1f at the larger"
         n0 q0 n1 q1
   | _ -> fail "expected two budgets");
  List.iteri
    (fun i _ ->
      let sum col =
        List.fold_left
          (fun acc (_, cells) -> acc +. List.nth (List.nth cells i) col)
          0.0 benchmarks
      in
      let c = sum 4 and d = sum 5 and s = sum 6 in
      if d +. s < 0.8 *. (c +. d +. s) then
        fail "budget %d: #D + #S = %.0f is under 80%% of #C + #D + #S = %.0f" i
          (d +. s) (c +. d +. s))
    average
