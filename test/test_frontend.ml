(* Frontend tests: lexer, parser, typing errors, and — most importantly —
   end-to-end semantics of compiled MiniC programs checked against
   expected results. *)

module Fe = Cayman_frontend

let returns = Testutil.check_main_returns
let rejects = Testutil.expect_frontend_error

(* --- lexer --- *)

let test_lexer_tokens () =
  let toks = Fe.Lexer.tokenize "int x = 42; // comment\nfloat y = 1.5e2;" in
  let kinds = List.map fst toks in
  Alcotest.(check bool) "has int kw" true (List.mem Fe.Lexer.KW_INT kinds);
  Alcotest.(check bool) "has 42" true (List.mem (Fe.Lexer.INT 42) kinds);
  Alcotest.(check bool) "has 150.0" true (List.mem (Fe.Lexer.FLOAT 150.0) kinds);
  Alcotest.(check bool) "ends with EOF" true
    (match List.rev kinds with
     | Fe.Lexer.EOF :: _ -> true
     | _ -> false)

let test_lexer_operators () =
  let toks = Fe.Lexer.tokenize "a<=b >= c == d != e << f >> g && h || !i" in
  let kinds = List.map fst toks in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Fe.Lexer.token_to_string k) true
        (List.mem k kinds))
    [ Fe.Lexer.LE; Fe.Lexer.GE; Fe.Lexer.EQ; Fe.Lexer.NE; Fe.Lexer.SHL;
      Fe.Lexer.SHR; Fe.Lexer.AND_AND; Fe.Lexer.OR_OR; Fe.Lexer.BANG ]

let test_lexer_block_comment () =
  let toks = Fe.Lexer.tokenize "/* a \n multi \n line */ int" in
  Alcotest.(check int) "two tokens" 2 (List.length toks)

let test_lexer_line_numbers () =
  let toks = Fe.Lexer.tokenize "int\nfloat\nvoid" in
  let lines = List.map (fun (_, s) -> s.Fe.Diag.line) toks in
  Alcotest.(check (list int)) "line numbers" [ 1; 2; 3; 3 ] lines;
  let cols = List.map (fun (_, s) -> s.Fe.Diag.col) toks in
  Alcotest.(check (list int)) "column numbers" [ 1; 1; 1; 5 ] cols

let test_lexer_error () =
  match Fe.Lexer.tokenize "int @ x" with
  | _ -> Alcotest.fail "expected lexer error"
  | exception Fe.Diag.Error
      { Fe.Diag.d_phase = "lex"; d_span = Some { line = 1; col = 5 }; _ } ->
    ()

(* --- expression semantics --- *)

let test_arith () =
  returns "precedence" "int main() { return 2 + 3 * 4; }" 14;
  returns "parens" "int main() { return (2 + 3) * 4; }" 20;
  returns "unary minus" "int main() { return -3 + 10; }" 7;
  returns "division" "int main() { return 17 / 5; }" 3;
  returns "modulo" "int main() { return 17 % 5; }" 2;
  returns "shifts" "int main() { return (1 << 6) + (64 >> 3); }" 72;
  returns "bitops" "int main() { return (12 & 10) | (1 ^ 3); }" 10

let test_compare_logic () =
  returns "lt true" "int main() { if (2 < 3) { return 1; } return 0; }" 1;
  returns "ge false" "int main() { if (2 >= 3) { return 1; } return 0; }" 0;
  returns "and"
    "int main() { if (1 < 2 && 3 < 4) { return 1; } return 0; }" 1;
  returns "or"
    "int main() { if (1 > 2 || 3 < 4) { return 1; } return 0; }" 1;
  returns "not" "int main() { if (!(1 > 2)) { return 1; } return 0; }" 1

let test_float_conversions () =
  returns "cast float to int" "int main() { return (int)(3.75); }" 3;
  returns "int promotes in fmul"
    "int main() { float x = 2 * 1.5; return (int)x; }" 3;
  returns "float division"
    "int main() { float x = 7.0 / 2.0; return (int)(x * 10.0); }" 35;
  returns "cast int to float and back"
    "int main() { float x = (float)7 / 2.0; return (int)(x * 2.0); }" 7

(* --- control flow --- *)

let test_if_else () =
  returns "else branch"
    "int main() { int x = 5; if (x > 10) { return 1; } else { return 2; } }" 2;
  returns "nested if"
    {|int main() {
        int x = 7;
        if (x > 5) { if (x > 6) { return 3; } else { return 2; } }
        return 1;
      }|}
    3;
  returns "dangling else binds inner"
    {|int main() {
        int x = 3;
        if (x > 5) if (x > 8) return 1; else return 2;
        return 0;
      }|}
    0

let test_loops () =
  returns "for sum"
    "int main() { int s = 0; for (int i = 1; i <= 10; i++) { s += i; } return s; }"
    55;
  returns "while countdown"
    "int main() { int n = 10; int s = 0; while (n > 0) { s += n; n--; } return s; }"
    55;
  returns "nested loops"
    {|int main() {
        int s = 0;
        for (int i = 0; i < 5; i++) {
          for (int j = 0; j < 5; j++) { s += i * j; }
        }
        return s;
      }|}
    100;
  returns "zero-trip for"
    "int main() { int s = 9; for (int i = 5; i < 5; i++) { s = 0; } return s; }"
    9;
  returns "negative step"
    "int main() { int s = 0; for (int i = 10; i > 0; i--) { s += i; } return s; }"
    55

let test_break_continue () =
  returns "break"
    {|int main() {
        int s = 0;
        for (int i = 0; i < 100; i++) {
          if (i == 5) { break; }
          s += i;
        }
        return s;
      }|}
    10;
  returns "continue"
    {|int main() {
        int s = 0;
        for (int i = 0; i < 10; i++) {
          if (i % 2 == 0) { continue; }
          s += i;
        }
        return s;
      }|}
    25;
  returns "break in while"
    {|int main() {
        int i = 0;
        while (1 < 2) {
          i++;
          if (i >= 7) { break; }
        }
        return i;
      }|}
    7

(* --- arrays and globals --- *)

let test_arrays () =
  returns "1d array"
    {|const int N = 10;
      int a[N];
      int main() {
        for (int i = 0; i < N; i++) { a[i] = i * i; }
        return a[7];
      }|}
    49;
  returns "2d array row-major"
    {|int m[3][4];
      int main() {
        for (int i = 0; i < 3; i++) {
          for (int j = 0; j < 4; j++) { m[i][j] = 10 * i + j; }
        }
        return m[2][3];
      }|}
    23;
  returns "3d array"
    {|int t[2][3][4];
      int main() {
        t[1][2][3] = 99;
        return t[1][2][3];
      }|}
    99;
  returns "compound array assign"
    {|float a[4];
      int main() {
        a[2] = 1.5;
        a[2] += 2.5;
        a[2] *= 2.0;
        return (int)a[2];
      }|}
    8

let test_const_expressions () =
  returns "const arithmetic"
    {|const int N = 4 * 8;
      const int M = N / 2;
      int a[M];
      int main() { a[M - 1] = M; return a[15]; }|}
    16

(* --- functions --- *)

let test_functions () =
  returns "call with args"
    {|int add(int a, int b) { return a + b; }
      int main() { return add(3, 4); }|}
    7;
  returns "void function with side effect"
    {|int box[1];
      void set(int v) { box[0] = v; }
      int main() { set(42); return box[0]; }|}
    42;
  returns "recursion"
    {|int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
      }
      int main() { return fib(12); }|}
    144;
  returns "float params coerced"
    {|float scale(float x, float k) { return x * k; }
      int main() { return (int)scale(4, 2); }|}
    8

let test_implicit_return () =
  returns "void falls through"
    {|int box[1];
      void noop() { int x = 1; x += 1; }
      int main() { noop(); return 5; }|}
    5;
  returns "int falls through returns zero"
    {|int weird() { int x = 3; x += 1; }
      int main() { return weird(); }|}
    0

let test_loop_labels () =
  let program =
    Fe.Lower.compile
      {|const int N = 4;
        float a[N];
        int main() {
          mylabel: for (int i = 0; i < N; i++) { a[i] = 1.0; }
          return 0;
        }|}
  in
  let main =
    Cayman_ir.Program.func_exn (Cayman_ir.Validate.program program) "main"
  in
  Alcotest.(check bool) "label names blocks" true
    (List.exists
       (fun l -> Testutil.contains l "mylabel")
       (Cayman_ir.Func.labels main))

(* --- errors --- *)

let test_errors () =
  rejects "unknown variable" "int main() { return x; }";
  rejects "unknown function" "int main() { return f(1); }";
  rejects "arity mismatch"
    "int f(int a) { return a; } int main() { return f(1, 2); }";
  rejects "void used as value"
    "void f() { } int main() { return f(); }";
  rejects "break outside loop" "int main() { break; return 0; }";
  rejects "continue outside loop" "int main() { continue; return 0; }";
  rejects "duplicate variable in scope"
    "int main() { int x = 1; int x = 2; return x; }";
  rejects "modulo on float" "int main() { return (int)(1.5 % 2.0); }";
  rejects "wrong dimension count"
    "int a[2][2]; int main() { return a[1]; }";
  rejects "syntax error" "int main() { return 1 +; }";
  rejects "unterminated block" "int main() { return 0;";
  rejects "return value from void" "void f() { return 3; } int main() { f(); return 0; }";
  rejects "missing return value" "int main() { return; }";
  rejects "bad dimension" "const int N = 0; int a[N]; int main() { return 0; }"

let test_shadowing_in_scopes () =
  returns "inner scope shadows"
    {|int main() {
        int x = 1;
        { int x = 2; x += 1; }
        return x;
      }|}
    1;
  returns "loop variable scoped"
    {|int main() {
        int s = 0;
        for (int i = 0; i < 3; i++) { s += i; }
        for (int i = 0; i < 4; i++) { s += i; }
        return s;
      }|}
    9

(* All compiled programs must pass the IR validator (Lower.compile already
   checks, but make the property explicit on a nontrivial program). *)
let test_lowering_validates () =
  let program =
    Fe.Lower.compile
      {|const int N = 8;
        float a[N]; float b[N];
        float dot() {
          float s = 0.0;
          for (int i = 0; i < N; i++) { s += a[i] * b[i]; }
          return s;
        }
        int main() {
          for (int i = 0; i < N; i++) { a[i] = 1.0; b[i] = 2.0; }
          return (int)dot();
        }|}
  in
  match Cayman_ir.Validate.check (Cayman_ir.Validate.program program) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "lowered program must validate"

let tests =
  [ Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer block comment" `Quick test_lexer_block_comment;
    Alcotest.test_case "lexer line numbers" `Quick test_lexer_line_numbers;
    Alcotest.test_case "lexer error position" `Quick test_lexer_error;
    Alcotest.test_case "arithmetic semantics" `Quick test_arith;
    Alcotest.test_case "comparison and logic" `Quick test_compare_logic;
    Alcotest.test_case "float conversions" `Quick test_float_conversions;
    Alcotest.test_case "if/else" `Quick test_if_else;
    Alcotest.test_case "loops" `Quick test_loops;
    Alcotest.test_case "break/continue" `Quick test_break_continue;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "const expressions" `Quick test_const_expressions;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "implicit returns" `Quick test_implicit_return;
    Alcotest.test_case "loop labels name blocks" `Quick test_loop_labels;
    Alcotest.test_case "frontend errors" `Quick test_errors;
    Alcotest.test_case "scoping" `Quick test_shadowing_in_scopes;
    Alcotest.test_case "lowering validates" `Quick test_lowering_validates ]
