//! Hand-written lexer for the mini-C# language.

use super::{MiniCsError, MiniCsResult};

/// Kinds of tokens the parser consumes. Identifiers borrow their text
/// from the source.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// Identifier or keyword (the parser distinguishes keywords by text).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Double(f64),
    /// String literal (already unescaped).
    Str(String),
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
    pub fn ident(&self) -> Option<&'a str> {
        match *self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// Kind and payload.
    pub kind: TokenKind<'a>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Streaming lexer. Most users call [`Lexer::tokenize`].
#[derive(Debug)]
pub struct Lexer<'a> {
    source: &'a str,
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over source text.
    pub fn new(source: &'a str) -> Self {
        Lexer {
            source,
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Lexes the entire input, appending a trailing [`TokenKind::Eof`].
    pub fn tokenize(source: &'a str) -> MiniCsResult<Vec<Token<'a>>> {
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

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, msg: impl Into<String>) -> MiniCsError {
        MiniCsError::new(self.line, self.col, msg)
    }

    fn skip_trivia(&mut self) -> MiniCsResult<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let (line, col) = (self.line, self.col);
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => {
                                return Err(MiniCsError::new(
                                    line,
                                    col,
                                    "unterminated block comment",
                                ))
                            }
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produces the next token.
    pub fn next_token(&mut self) -> MiniCsResult<Token<'a>> {
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col);
        let mk = |kind| Token { kind, line, col };
        let c = match self.peek() {
            None => return Ok(mk(TokenKind::Eof)),
            Some(c) => c,
        };
        let kind = match c {
            b'{' => {
                self.bump();
                TokenKind::LBrace
            }
            b'}' => {
                self.bump();
                TokenKind::RBrace
            }
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b'[' => {
                self.bump();
                TokenKind::LBracket
            }
            b']' => {
                self.bump();
                TokenKind::RBracket
            }
            b';' => {
                self.bump();
                TokenKind::Semi
            }
            b',' => {
                self.bump();
                TokenKind::Comma
            }
            b'.' => {
                self.bump();
                TokenKind::Dot
            }
            b':' => {
                self.bump();
                TokenKind::Colon
            }
            b'=' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    return Err(self.err("`==` is not part of the mini-C# language"));
                }
                TokenKind::Assign
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Le
                } else {
                    TokenKind::Lt
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            b'"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        None | Some(b'\n') => {
                            return Err(MiniCsError::new(line, col, "unterminated string literal"))
                        }
                        Some(b'"') => break,
                        Some(b'\\') => match self.bump() {
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            _ => return Err(self.err("unknown escape sequence")),
                        },
                        Some(other) => s.push(other as char),
                    }
                }
                TokenKind::Str(s)
            }
            c if c.is_ascii_digit() => {
                let start = self.pos;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
                let mut is_double = false;
                if self.peek() == Some(b'.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
                    is_double = true;
                    self.bump();
                    while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        self.bump();
                    }
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
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
                {
                    self.bump();
                }
                TokenKind::Ident(&self.source[start..self.pos])
            }
            other => return Err(self.err(format!("unexpected character `{}`", other as char))),
        };
        Ok(Token { kind, line, col })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        Lexer::tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
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
                TokenKind::Ident("true"),
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
                TokenKind::Ident("x"),
                TokenKind::Dot,
                TokenKind::Ident("Y"),
                TokenKind::Int(1),
                TokenKind::Dot,
                TokenKind::Ident("Z"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_trivia() {
        assert_eq!(
            kinds("a // line\n b /* block\n more */ c"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::Ident("c"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let toks = Lexer::tokenize("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn errors_have_positions() {
        let err = Lexer::tokenize("\n  @").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3));
        let err = Lexer::tokenize("\"abc").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(Lexer::tokenize("a == b").is_err());
    }
}
