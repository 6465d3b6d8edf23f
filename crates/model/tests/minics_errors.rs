//! The mini-C# front end's error texts and positions, pinned source by
//! source: lexical, syntactic and resolution errors, on one line and
//! across lines, after tabs and after multi-byte UTF-8 (columns count
//! bytes). Clients see these as `parse_error` answers to `update`.

use pex_model::minics::{apply_update, compile};
use pex_model::Database;

/// `(source, line, col, message)`.
const CASES: &[(&str, u32, u32, &str)] = &[
    (
        "namespace N { class C : Base",
        1,
        29,
        "expected `{`, found Eof",
    ),
    (
        "namespace N { class C { void M(",
        1,
        32,
        "expected type name, found Eof",
    ),
    ("class C {}", 1, 1, "expected `namespace`"),
    (
        "namespace N { class C { void M() { return } } }",
        1,
        43,
        "expected an expression, found RBrace",
    ),
    (
        "namespace N { interface I { int X; } }",
        1,
        33,
        "interfaces cannot declare fields",
    ),
    (
        "namespace N { class C { void X; } }",
        1,
        30,
        "fields cannot have type `void`",
    ),
    ("\n  @", 2, 3, "unexpected character `@`"),
    (
        "namespace N { class C { string S() { return \"abc",
        1,
        45,
        "unterminated string literal",
    ),
    (
        "namespace N {\n /* never closed",
        2,
        2,
        "unterminated block comment",
    ),
    (
        "namespace N { class C { long M() { return 99999999999999999999; } } }",
        1,
        63,
        "integer literal overflows i64",
    ),
    (
        "namespace N { class C { bool M(int a, int b) { return a == b; } } }",
        1,
        58,
        "`==` is not part of the mini-C# language",
    ),
    (
        "namespace N { class C { string M() { return \"a\\qb\"; } } }",
        1,
        49,
        "unknown escape sequence",
    ),
    (
        "namespace N { [Sortable] class C { } }",
        1,
        16,
        "unknown attribute `Sortable`",
    ),
    (
        "namespace N { class C { int P { get; set } } }",
        1,
        42,
        "expected `;`, found RBrace",
    ),
    (
        "namespace N { class 5 { } }",
        1,
        21,
        "expected type name, found Int(5)",
    ),
    (
        "namespace N { class C { 1.5 } }",
        1,
        25,
        "expected type name, found Double(1.5)",
    ),
    (
        "namespace N { class C { void M() { \"s\" \"t\\n\"; } } }",
        1,
        40,
        "expected `;`, found Str(\"t\\n\")",
    ),
    (
        "namespace N {\n\tclass C {\n\t\tvoid M() { y; }\n\t}\n}",
        3,
        14,
        "unknown name `y`",
    ),
    (
        "namespace N { class C { void M(A.B.Missing t); } }",
        1,
        32,
        "unknown type `A.B.Missing`",
    ),
    (
        "namespace N { class C : Missing { } }",
        1,
        25,
        "unknown type `Missing`",
    ),
    (
        "namespace N { class C { void M() { 1(2); } } }",
        1,
        37,
        "expression is not callable",
    ),
    (
        "namespace N { class C { } class C { } }",
        1,
        27,
        "type `C` is already declared in this namespace",
    ),
    (
        "// \u{e9}t\u{e9}\nnamespace N { class C { void M() { \u{e9}; } } }",
        2,
        36,
        "unexpected character `\u{e9}`",
    ),
    (
        "namespace N { class C { void M() { if (true) { int x = 1; } } } }",
        1,
        48,
        "local declarations are not allowed inside `if`/`while` blocks",
    ),
    (
        "using A.B;\nnamespace N {\n  class C {\n    int F;\n    void M() {\n      this.F = \"s\";\n    }\n  }\n}",
        6,
        12,
        "assignment source does not convert to the target type",
    ),
    (
        "namespace N { class C { void M() { System.Missing.X(); } } }",
        1,
        43,
        "unknown namespace or type `System.Missing`",
    ),
    (
        "namespace N { class C { static void M() { int v = this.G(); } int G(); } }",
        1,
        51,
        "`this` in a static method",
    ),
];

#[test]
fn malformed_sources_report_their_exact_error_and_position() {
    for &(source, line, col, msg) in CASES {
        let err = compile(source).expect_err(source);
        assert_eq!(
            (err.line, err.col, err.msg.as_str()),
            (line, col, msg),
            "{source:?}"
        );
        // An update runs the same front end and reports the same error.
        let err = apply_update(&Database::new(), source).expect_err(source);
        assert_eq!((err.line, err.col, err.msg.as_str()), (line, col, msg));
    }
}

#[test]
fn a_second_field_or_enum_member_of_one_name_is_rejected() {
    let dup = "field `X` is already declared on this type";
    for (source, col) in [
        ("namespace N { class A { int X; int X; } }", 32),
        (
            "namespace N { class A { int X; double X { get; set; } } }",
            32,
        ),
    ] {
        let err = compile(source).expect_err(source);
        assert_eq!((err.line, err.col, err.msg.as_str()), (1, col, dup));
    }
    let err = compile("namespace N { enum E { P, Q, P } }").expect_err("duplicate member");
    assert_eq!(
        (err.line, err.col, err.msg.as_str()),
        (1, 15, "field `P` is already declared on this type")
    );
    // An update that re-declares an existing type checks the same way.
    let db = compile("namespace N { class A { int X; } }").unwrap();
    let err = apply_update(&db, "namespace N { class A { int X; int X; } }").unwrap_err();
    assert_eq!((err.line, err.col, err.msg.as_str()), (1, 32, dup));
}
