(* Verdict on a traced CLI run: [trace_check.exe TRACE TRACED PLAIN]
   exits 1 unless TRACE is a Chrome trace with at least one event, every
   event a complete span ([ph = "X"]) of non-negative duration, and the
   traced run's stdout (file TRACED) equals the untraced run's (PLAIN):
   tracing must not touch what the command prints. *)

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let read path = In_channel.with_open_bin path In_channel.input_all

let () =
  let trace, traced, plain =
    match Sys.argv with
    | [| _; t; a; b |] -> t, a, b
    | _ -> fail "usage: trace_check.exe TRACE TRACED_STDOUT PLAIN_STDOUT"
  in
  let events =
    match Obs.Json.parse (read trace) with
    | Error e -> fail "%s: %s" trace e
    | Ok j ->
      (match Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list with
       | Some (_ :: _ as events) -> events
       | Some [] | None -> fail "%s: empty trace" trace)
  in
  List.iteri
    (fun i e ->
      let ph = Option.bind (Obs.Json.member "ph" e) Obs.Json.to_string_opt in
      let dur = Option.bind (Obs.Json.member "dur" e) Obs.Json.to_float in
      match ph, dur with
      | Some "X", Some d when d >= 0.0 -> ()
      | _ -> fail "%s: event %d is not a complete span of duration >= 0" trace i)
    events;
  if read traced <> read plain then
    fail "traced stdout %s differs from untraced stdout %s" traced plain
