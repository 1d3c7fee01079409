(* Frontend error-path coverage: a corpus of malformed MiniC programs,
   each asserting that compilation fails with a located, structured
   [Diag.Error] — never a raw [Failure], [Internal_error] or other
   unstructured exception. This pins the unified diagnostic contract the
   fault campaign's stage-fault handling relies on. *)

module Fe = Cayman_frontend

(* Compile [src] and require a [Diag.Error] whose phase (and, when
   given, line/column) match. Any other exception — including the
   lowering's own [Internal_error] — fails the test, which is the
   point: user input must never surface as an internal error. *)
let expect_diag ?phase ?line ?col name src =
  match Fe.Lower.compile src with
  | (_ : Cayman_ir.Validate.t) ->
    Alcotest.failf "%s: compiled, expected a diagnostic" name
  | exception Fe.Diag.Error d ->
    (match phase with
     | None -> ()
     | Some p -> Alcotest.(check string) (name ^ ": phase") p d.Fe.Diag.d_phase);
    (match line with
     | None -> ()
     | Some l ->
       (match d.Fe.Diag.d_span with
        | None -> Alcotest.failf "%s: diagnostic carries no span" name
        | Some s -> Alcotest.(check int) (name ^ ": line") l s.Fe.Diag.line));
    (match col with
     | None -> ()
     | Some c ->
       (match d.Fe.Diag.d_span with
        | None -> Alcotest.failf "%s: diagnostic carries no span" name
        | Some s -> Alcotest.(check int) (name ^ ": col") c s.Fe.Diag.col));
    Alcotest.(check bool)
      (name ^ ": non-empty message")
      true
      (String.length d.Fe.Diag.d_message > 0);
    (* the rendered form is what the CLI prints; it must embed the
       phase so the user can tell where the pipeline stopped *)
    let rendered = Fe.Diag.to_string d in
    Alcotest.(check bool)
      (name ^ ": rendered mentions phase")
      true
      (String.length rendered >= String.length d.Fe.Diag.d_phase
       && String.sub rendered 0 (String.length d.Fe.Diag.d_phase)
          = d.Fe.Diag.d_phase)
  | exception e ->
    Alcotest.failf "%s: raised %s, expected Diag.Error" name
      (Printexc.to_string e)

(* --- lexical errors --- *)

let test_lex_errors () =
  expect_diag ~phase:"lex" ~line:1 ~col:13 "illegal character"
    "int main() {@ return 0; }";
  expect_diag ~phase:"lex" ~line:2 "illegal character on line 2"
    "int main() {\n  int x = 1 $ 2;\n  return x;\n}"

(* --- parse errors --- *)

let test_parse_errors () =
  expect_diag ~phase:"parse" ~line:1 "missing semicolon"
    "int main() { int x = 1 return x; }";
  expect_diag ~phase:"parse" "missing closing paren"
    "int main( { return 0; }";
  expect_diag ~phase:"parse" ~line:2 "missing brace"
    "int main() {\n  if (1 < 2 { return 1; }\n  return 0;\n}";
  expect_diag ~phase:"parse" "garbage at top level" "int main() { return 0; } 42";
  expect_diag ~phase:"parse" "unexpected eof" "int main() { return 0;"

(* --- lowering errors (line-located, column 0) --- *)

let test_lower_errors () =
  expect_diag ~phase:"lower" ~line:2 ~col:0 "unknown variable"
    "int main() {\n  return y;\n}";
  expect_diag ~phase:"lower" ~line:2 "unknown function"
    "int main() {\n  return f(1);\n}";
  expect_diag ~phase:"lower" ~line:3 "arity mismatch"
    "int f(int a) { return a; }\nint main() {\n  return f(1, 2);\n}";
  expect_diag ~phase:"lower" ~line:3 "void function used as a value"
    "void f() { return; }\nint main() {\n  return f();\n}";
  expect_diag ~phase:"lower" ~line:2 "break outside a loop"
    "int main() {\n  break;\n  return 0;\n}";
  expect_diag ~phase:"lower" ~line:2 "continue outside a loop"
    "int main() {\n  continue;\n  return 0;\n}";
  expect_diag ~phase:"lower" ~line:3 "duplicate variable"
    "int main() {\n  int x = 1;\n  int x = 2;\n  return x;\n}";
  expect_diag ~phase:"lower" "duplicate function"
    "int f() { return 1; }\nint f() { return 2; }\nint main() { return 0; }";
  expect_diag ~phase:"lower" ~line:2 "returning a value from void"
    "void f() {\n  return 1;\n}\nint main() { return 0; }";
  expect_diag ~phase:"lower" ~line:2 "missing return value"
    "int f() {\n  return;\n}\nint main() { return f(); }"

let test_lower_array_errors () =
  expect_diag ~phase:"parse" ~line:1 ~col:6 "scalar global"
    "int g;\nint main() { return 0; }";
  expect_diag ~phase:"lower" ~line:3 "wrong index count"
    "int A[4][4];\nint main() {\n  return A[1];\n}";
  expect_diag ~phase:"lower" ~line:3 "unknown array"
    "int A[4];\nint main() {\n  return B[1];\n}";
  expect_diag ~phase:"lower" "non-positive dimension"
    "int A[0];\nint main() { return A[0]; }"

(* Well-formed source must still compile after all of the above: the
   diagnostics machinery must not leak state between compilations. *)
let test_ok_after_errors () =
  (try
     expect_diag ~phase:"lower" "throwaway" "int main() { return z; }"
   with _ -> ());
  let p =
    Fe.Lower.compile
      "int main() {\n  int s = 0;\n  for (int i = 0; i < 10; i++) { s += \
       i; }\n  return s;\n}"
  in
  Alcotest.(check bool)
    "compiles after failures" true
    (List.length (Cayman_ir.Validate.program p).Cayman_ir.Program.funcs >= 1)

let tests =
  [ Alcotest.test_case "lexical errors are located" `Quick test_lex_errors;
    Alcotest.test_case "parse errors are located" `Quick test_parse_errors;
    Alcotest.test_case "lowering errors are located" `Quick
      test_lower_errors;
    Alcotest.test_case "array shape errors" `Quick test_lower_array_errors;
    Alcotest.test_case "clean compile after failures" `Quick
      test_ok_after_errors ]
