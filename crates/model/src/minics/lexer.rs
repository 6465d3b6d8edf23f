//! Hand-written lexer for the mini-C# language.
//!
//! The parser pulls tokens one at a time, so no token array is built. One
//! pass over the bytes: the line number changes only at a newline, and a
//! token's column is its distance from the start of its line, so ordinary
//! bytes cost a class test and nothing else.

use std::fmt;

use super::{MiniCsError, MiniCsResult};

/// Kinds of tokens the parser consumes. Identifiers borrow their text
/// from the source.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum TokenKind<'a> {
    /// Identifier, keywords included.
    Ident(Word<'a>),
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Double(f64),
    /// String literal (already unescaped).
    Str(Box<str>),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:`
    Colon,
    /// `=`
    Assign,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl<'a> TokenKind<'a> {
    /// The identifier text, if this is an identifier.
    pub(super) fn ident(&self) -> Option<&'a str> {
        match *self {
            TokenKind::Ident(w) => Some(w.text),
            _ => None,
        }
    }

    /// The keyword an identifier spells, if any.
    pub(super) fn kw(&self) -> Option<Kw> {
        match *self {
            TokenKind::Ident(w) => w.kw,
            _ => None,
        }
    }
}

/// An identifier's text and the keyword it spells, if any. It prints as
/// its text, so error messages read `Ident("x")`.
#[derive(Clone, Copy, PartialEq)]
pub(super) struct Word<'a> {
    pub(super) text: &'a str,
    pub(super) kw: Option<Kw>,
}

impl fmt::Debug for Word<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.text, f)
    }
}

/// The words the parser gives a meaning, classified once per identifier
/// so the parser compares a tag, not text. They stay identifiers too:
/// the parser treats a word as a keyword only where its grammar expects
/// one (a field may be named `get`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kw {
    Using,
    Namespace,
    Public,
    Private,
    Static,
    Class,
    Struct,
    Interface,
    Enum,
    Void,
    Get,
    Set,
    Var,
    This,
    Return,
    True,
    False,
    Null,
    If,
    While,
    Else,
}

impl Kw {
    /// The keyword `word` spells; `word` is a whole, non-empty identifier.
    fn of(word: &str) -> Option<Kw> {
        // Most identifiers are capitalized type and member names.
        if !word.as_bytes()[0].is_ascii_lowercase() {
            return None;
        }
        Some(match word {
            "using" => Kw::Using,
            "namespace" => Kw::Namespace,
            "public" => Kw::Public,
            "private" => Kw::Private,
            "static" => Kw::Static,
            "class" => Kw::Class,
            "struct" => Kw::Struct,
            "interface" => Kw::Interface,
            "enum" => Kw::Enum,
            "void" => Kw::Void,
            "get" => Kw::Get,
            "set" => Kw::Set,
            "var" => Kw::Var,
            "this" => Kw::This,
            "return" => Kw::Return,
            "true" => Kw::True,
            "false" => Kw::False,
            "null" => Kw::Null,
            "if" => Kw::If,
            "while" => Kw::While,
            "else" => Kw::Else,
            _ => return None,
        })
    }
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Token<'a> {
    /// Kind and payload.
    pub(super) kind: TokenKind<'a>,
    /// 1-based line.
    pub(super) line: u32,
    /// 1-based column, in bytes.
    pub(super) col: u32,
}

// The parser moves tokens through a small lookahead queue.
const _: () = assert!(std::mem::size_of::<Token<'_>>() == 32);

/// The token stream over one source text.
pub(super) struct Lexer<'a> {
    source: &'a str,
    src: &'a [u8],
    pos: usize,
    line: u32,
    /// Byte offset where the current line starts.
    line_start: usize,
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

impl<'a> Lexer<'a> {
    pub(super) fn new(source: &'a str) -> Self {
        Lexer {
            source,
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    /// Records that a line starts at the current position (just past a
    /// consumed `\n`).
    fn newline(&mut self) {
        self.line += 1;
        self.line_start = self.pos;
    }

    /// The line and column of the current position.
    fn here(&self) -> (u32, u32) {
        (self.line, (self.pos - self.line_start + 1) as u32)
    }

    fn err(&self, msg: impl Into<String>) -> MiniCsError {
        let (line, col) = self.here();
        MiniCsError::new(line, col, msg)
    }

    fn skip_while(&mut self, pred: impl Fn(u8) -> bool) {
        let rest = &self.src[self.pos..];
        self.pos += rest.iter().position(|&c| !pred(c)).unwrap_or(rest.len());
    }

    fn skip_trivia(&mut self) -> MiniCsResult<()> {
        loop {
            self.skip_while(|c| c.is_ascii_whitespace() && c != b'\n');
            match self.peek() {
                Some(b'\n') => {
                    self.pos += 1;
                    self.newline();
                }
                Some(b'/') if self.peek2() == Some(b'/') => self.skip_while(|c| c != b'\n'),
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let (line, col) = self.here();
                    let body = self.pos + 2;
                    let Some(len) = self.src[body..].windows(2).position(|w| w == b"*/") else {
                        return Err(MiniCsError::new(line, col, "unterminated block comment"));
                    };
                    for (i, &c) in self.src[body..body + len].iter().enumerate() {
                        if c == b'\n' {
                            self.line += 1;
                            self.line_start = body + i + 1;
                        }
                    }
                    self.pos = body + len + 2;
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produces the next token; at the end of the text, [`TokenKind::Eof`]
    /// every time.
    pub(super) fn next_token(&mut self) -> MiniCsResult<Token<'a>> {
        self.skip_trivia()?;
        let (line, col) = self.here();
        let start = self.pos;
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                line,
                col,
            });
        };
        self.pos += 1;
        let kind = match c {
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b'.' => TokenKind::Dot,
            b':' => TokenKind::Colon,
            b'=' => {
                if self.peek() == Some(b'=') {
                    return Err(self.err("`==` is not part of the mini-C# language"));
                }
                TokenKind::Assign
            }
            b'<' | b'>' => {
                let or_equal = self.peek() == Some(b'=');
                self.pos += usize::from(or_equal);
                match (c, or_equal) {
                    (b'<', false) => TokenKind::Lt,
                    (b'<', true) => TokenKind::Le,
                    (_, false) => TokenKind::Gt,
                    (_, true) => TokenKind::Ge,
                }
            }
            b'"' => TokenKind::Str(self.string_body(line, col)?.into_boxed_str()),
            c if c.is_ascii_digit() => {
                self.skip_while(|c| c.is_ascii_digit());
                let is_double =
                    self.peek() == Some(b'.') && self.peek2().is_some_and(|c| c.is_ascii_digit());
                if is_double {
                    self.pos += 1;
                    self.skip_while(|c| c.is_ascii_digit());
                }
                let text = &self.source[start..self.pos];
                if is_double {
                    TokenKind::Double(
                        text.parse()
                            .map_err(|_| self.err("invalid floating literal"))?,
                    )
                } else {
                    TokenKind::Int(
                        text.parse()
                            .map_err(|_| self.err("integer literal overflows i64"))?,
                    )
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                self.skip_while(is_ident_byte);
                let text = &self.source[start..self.pos];
                TokenKind::Ident(Word {
                    text,
                    kw: Kw::of(text),
                })
            }
            _ => {
                // Name the whole character, not its first byte.
                let ch = self.source[start..].chars().next().unwrap_or('\u{fffd}');
                return Err(MiniCsError::new(
                    line,
                    col,
                    format!("unexpected character `{ch}`"),
                ));
            }
        };
        Ok(Token { kind, line, col })
    }

    /// The unescaped text of a string literal whose opening quote at
    /// `line:col` was just consumed.
    fn string_body(&mut self, line: u32, col: u32) -> MiniCsResult<String> {
        let mut s = String::new();
        loop {
            let c = match self.peek() {
                None | Some(b'\n') => {
                    return Err(MiniCsError::new(line, col, "unterminated string literal"))
                }
                Some(c) => c,
            };
            let run = self.pos;
            self.pos += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let escaped = self.peek();
                    if let Some(e) = escaped {
                        self.pos += 1;
                        if e == b'\n' {
                            self.newline();
                        }
                    }
                    match escaped {
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        _ => return Err(self.err("unknown escape sequence")),
                    }
                }
                _ => {
                    // A run of plain text is copied as UTF-8: the bytes that
                    // end it (`"`, `\\`, a newline) are ASCII, so the run
                    // starts and ends on character boundaries.
                    self.skip_while(|c| !matches!(c, b'"' | b'\\' | b'\n'));
                    s.push_str(&self.source[run..self.pos]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Every token of `source`, the final `Eof` included.
    fn tokenize(source: &str) -> MiniCsResult<Vec<Token<'_>>> {
        let mut lexer = Lexer::new(source);
        let mut out = Vec::new();
        loop {
            let tok = lexer.next_token()?;
            let done = tok.kind == TokenKind::Eof;
            out.push(tok);
            if done {
                return Ok(out);
            }
        }
    }

    fn ident(text: &str) -> TokenKind<'_> {
        TokenKind::Ident(Word {
            text,
            kw: Kw::of(text),
        })
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn punctuation_and_operators() {
        assert_eq!(
            kinds("{ } ( ) ; , . : = < <= > >="),
            vec![
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Semi,
                TokenKind::Comma,
                TokenKind::Dot,
                TokenKind::Colon,
                TokenKind::Assign,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn literals() {
        assert_eq!(
            kinds(r#"42 3.25 "hi\n" true"#),
            vec![
                TokenKind::Int(42),
                TokenKind::Double(3.25),
                TokenKind::Str("hi\n".into()),
                ident("true"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn dotted_int_vs_member_access() {
        // `a.1` is not a floating literal continuation.
        assert_eq!(
            kinds("x.Y 1.Z"),
            vec![
                ident("x"),
                TokenKind::Dot,
                ident("Y"),
                TokenKind::Int(1),
                TokenKind::Dot,
                ident("Z"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_trivia() {
        assert_eq!(
            kinds("a // line\n b /* block\n more */ c"),
            vec![ident("a"), ident("b"), ident("c"), TokenKind::Eof,]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let toks = tokenize("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    /// The line and column of byte `offset`, counted the slow way: lines
    /// end at `\n`, columns count bytes.
    fn naive_pos(source: &str, offset: usize) -> (u32, u32) {
        let before = &source.as_bytes()[..offset];
        let line = 1 + before.iter().filter(|&&c| c == b'\n').count();
        let line_start = before
            .iter()
            .rposition(|&c| c == b'\n')
            .map_or(0, |i| i + 1);
        (line as u32, (offset - line_start + 1) as u32)
    }

    /// The byte offset of a line and column: the inverse of [`naive_pos`].
    fn naive_offset(source: &str, (line, col): (u32, u32)) -> usize {
        let newlines = source.bytes().enumerate().filter(|&(_, c)| c == b'\n');
        let line_start = match line {
            1 => 0,
            _ => newlines.map(|(i, _)| i + 1).nth(line as usize - 2).unwrap(),
        };
        line_start + col as usize - 1
    }

    /// Token spellings and, for the ones that fail, how far past the
    /// token's start the error is reported.
    const SPELLINGS: &[(&str, Option<usize>)] = &[
        ("namespace", None),
        ("x", None),
        ("_y2", None),
        ("Foo", None),
        ("get", None),
        ("{", None),
        ("}", None),
        ("(", None),
        (")", None),
        ("[", None),
        ("]", None),
        (";", None),
        (",", None),
        (".", None),
        (":", None),
        ("=", None),
        ("<", None),
        ("<=", None),
        (">", None),
        (">=", None),
        ("42", None),
        ("3.25", None),
        ("\"s\"", None),
        ("\"a\\t\u{e9}\"", None),
        ("@", Some(0)),
        ("\u{e9}", Some(0)),
        ("==", Some(1)),
        ("99999999999999999999", Some(20)),
    ];

    /// What may separate two tokens: never empty, so tokens never merge.
    const TRIVIA: &[&str] = &[
        " ",
        "\n",
        "\t",
        "\r\n",
        "  \n\t ",
        " // c \u{e9}\n",
        " /* a\n \u{e9} */ ",
        "\n\n",
    ];

    /// A source of `pieces` (trivia index, spelling index), with the byte
    /// offset where each token starts.
    fn assemble(pieces: &[(usize, usize)]) -> (String, Vec<usize>) {
        let mut source = String::new();
        let mut starts = Vec::new();
        for &(trivia, spelling) in pieces {
            source.push_str(TRIVIA[trivia]);
            starts.push(source.len());
            source.push_str(SPELLINGS[spelling].0);
        }
        source.push(' ');
        (source, starts)
    }

    fn pieces() -> impl Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0..TRIVIA.len(), 0..SPELLINGS.len()), 0..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every token's line and column, and the first error's, are the
        /// naive recount of its byte offset, whatever newlines, tabs,
        /// comments and multi-byte text come before it.
        #[test]
        fn positions_are_naive_recounts_of_byte_offsets(pieces in pieces()) {
            let (source, starts) = assemble(&pieces);
            let mut lexer = Lexer::new(&source);
            for (&(_, spelling), &start) in pieces.iter().zip(&starts) {
                match (lexer.next_token(), SPELLINGS[spelling].1) {
                    (Ok(token), None) => {
                        prop_assert_eq!((token.line, token.col), naive_pos(&source, start));
                    }
                    (Err(e), Some(past)) => {
                        prop_assert_eq!((e.line, e.col), naive_pos(&source, start + past));
                        return Ok(());
                    }
                    (got, _) => prop_assert!(false, "{:?} for {:?}", got, SPELLINGS[spelling].0),
                }
            }
            let end = lexer.next_token().unwrap();
            prop_assert_eq!(end.kind, TokenKind::Eof);
            prop_assert_eq!((end.line, end.col), naive_pos(&source, source.len()));
        }

        /// Cut anywhere, a source still lexes to tokens that stand where
        /// their text does, and an error, or the end, is reported at a
        /// real position of the cut text.
        #[test]
        fn truncated_sources_report_real_positions(pieces in pieces(), cut in any::<usize>()) {
            let (source, _) = assemble(&pieces);
            let mut cut = cut % (source.len() + 1);
            while !source.is_char_boundary(cut) {
                cut -= 1;
            }
            let text = &source[..cut];
            let mut lexer = Lexer::new(text);
            loop {
                let (line, col, spelling, failed) = match lexer.next_token() {
                    Ok(Token { kind: TokenKind::Eof, line, col }) => {
                        prop_assert_eq!((line, col), naive_pos(text, text.len()));
                        break;
                    }
                    Ok(token) => {
                        let spelling = match &token.kind {
                            TokenKind::Ident(w) => w.text.to_owned(),
                            TokenKind::Int(v) => v.to_string(),
                            TokenKind::Double(_) | TokenKind::Str(_) => String::new(),
                            punct => SPELLINGS
                                .iter()
                                .map(|&(s, _)| s)
                                .find(|s| kinds(s)[0] == *punct)
                                .expect("a spelling of every punctuation token")
                                .to_owned(),
                        };
                        (token.line, token.col, spelling, false)
                    }
                    Err(e) => (e.line, e.col, String::new(), true),
                };
                let offset = naive_offset(text, (line, col));
                prop_assert!(offset <= text.len());
                prop_assert_eq!(naive_pos(text, offset), (line, col));
                prop_assert!(text[offset..].starts_with(&spelling), "{:?} at {}:{}", spelling, line, col);
                if failed {
                    break;
                }
            }
        }
    }

    #[test]
    fn errors_have_positions() {
        let err = tokenize("\n  @").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3));
        let err = tokenize("\"abc").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(tokenize("a == b").is_err());
    }
}
