(* One request to a running `cayman_cli serve` daemon, for scripted
   smoke tests:

     daemon_rpc.exe SOCKET profile BENCH   seed one profile request
     daemon_rpc.exe SOCKET cosim BENCH     print a cosim reply's body
     daemon_rpc.exe SOCKET shutdown        stop the daemon

   The profile and cosim forms exit 1 unless the reply's status is ok;
   the cosim form prints the body alone, for a byte comparison with
   `cayman_cli cosim --bench BENCH` stdout. The shutdown form returns
   once the daemon has acknowledged. *)

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ socket; ("profile" | "cosim" as verb); bench ] ->
    let cl = Serve.Client.connect socket in
    let r = Serve.Client.rpc cl ~bench verb in
    Serve.Client.close cl;
    if not r.Serve.Protocol.rp_ok then
      fail "%s %s: %s: %s" verb bench r.Serve.Protocol.rp_class
        r.Serve.Protocol.rp_output;
    if verb = "cosim" then print_string r.Serve.Protocol.rp_output
    else print_endline "seeded one profile request"
  | [ socket; "shutdown" ] ->
    let cl = Serve.Client.connect socket in
    Serve.Client.shutdown cl;
    Serve.Client.close cl;
    print_endline "daemon acknowledged shutdown"
  | _ ->
    fail "usage: daemon_rpc.exe SOCKET (profile BENCH | cosim BENCH | shutdown)"
