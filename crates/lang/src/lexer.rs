//! Hand-rolled lexer for the `.psn` scenario language.
//!
//! The token set is small: identifiers, string literals, numbers (integer
//! and float), *duration literals* (`300ms`, `1.5s`, `20min` — a number
//! with a time-unit suffix), and a handful of punctuation/operator tokens.
//! Comments run `#` or `//` to end of line. Every token carries a
//! [`Span`], so later phases report errors against the source text.

use crate::diag::{Diagnostic, Span, Spanned};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// An identifier or keyword (`scenario`, `doors`, `and`, `true`…).
    Ident(String),
    /// A double-quoted string literal (no escapes needed by the grammar).
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A duration literal, stored in nanoseconds.
    Dur(u64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// End of input (always the last token).
    Eof,
}

impl Tok {
    /// How the token prints in "expected X, found Y" messages.
    pub(crate) fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("`{s}`"),
            Tok::Str(s) => format!("\"{s}\""),
            Tok::Int(v) => format!("`{v}`"),
            Tok::Float(v) => format!("`{v}`"),
            Tok::Dur(ns) => format!("`{}ns`", ns),
            Tok::LBrace => "`{`".into(),
            Tok::RBrace => "`}`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::Dot => "`.`".into(),
            Tok::DotDot => "`..`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Colon => "`:`".into(),
            Tok::Plus => "`+`".into(),
            Tok::Minus => "`-`".into(),
            Tok::Star => "`*`".into(),
            Tok::Gt => "`>`".into(),
            Tok::Ge => "`>=`".into(),
            Tok::Lt => "`<`".into(),
            Tok::Le => "`<=`".into(),
            Tok::EqEq => "`==`".into(),
            Tok::Ne => "`!=`".into(),
            Tok::AndAnd => "`&&`".into(),
            Tok::OrOr => "`||`".into(),
            Tok::Bang => "`!`".into(),
            Tok::Eof => "end of file".into(),
        }
    }
}

/// Nanoseconds per unit for duration suffixes.
fn unit_nanos(unit: &str) -> Option<f64> {
    Some(match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        "min" => 60e9,
        "h" => 3600e9,
        _ => return None,
    })
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn span_from(&self, start: (usize, u32, u32)) -> Span {
        Span { offset: start.0, len: self.pos - start.0, line: start.1, col: start.2 }
    }

    fn mark(&self) -> (usize, u32, u32) {
        (self.pos, self.line, self.col)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'#' => {
                    while self.peek() != b'\n' && self.peek() != 0 {
                        self.bump();
                    }
                }
                b'/' if self.peek2() == b'/' => {
                    while self.peek() != b'\n' && self.peek() != 0 {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn lex_number(&mut self) -> Result<Tok, String> {
        let start = self.pos;
        while self.peek().is_ascii_digit() || self.peek() == b'_' {
            self.bump();
        }
        let mut is_float = false;
        // A `.` starts a fraction only if a digit follows (so `0..4` lexes
        // as `0`, `..`, `4`).
        if self.peek() == b'.' && self.peek2().is_ascii_digit() {
            is_float = true;
            self.bump();
            while self.peek().is_ascii_digit() || self.peek() == b'_' {
                self.bump();
            }
        }
        let text: String = std::str::from_utf8(&self.src[start..self.pos])
            .unwrap()
            .chars()
            .filter(|&c| c != '_')
            .collect();
        // A trailing alphabetic run is a time-unit suffix.
        let unit_start = self.pos;
        while self.peek().is_ascii_alphabetic() {
            self.bump();
        }
        if unit_start != self.pos {
            let unit = std::str::from_utf8(&self.src[unit_start..self.pos]).unwrap();
            let Some(scale) = unit_nanos(unit) else {
                return Err(format!("unknown time unit `{unit}` (known: ns, us, ms, s, min, h)"));
            };
            let v: f64 = text.parse().map_err(|_| format!("bad number `{text}`"))?;
            if v < 0.0 {
                return Err("durations cannot be negative".into());
            }
            return Ok(Tok::Dur((v * scale).round() as u64));
        }
        if is_float {
            Ok(Tok::Float(text.parse().map_err(|_| format!("bad float `{text}`"))?))
        } else {
            Ok(Tok::Int(text.parse().map_err(|_| format!("bad integer `{text}`"))?))
        }
    }
}

/// Tokenize `source`. Returns the token list (ending in [`Tok::Eof`]) or
/// the first lexical error.
pub fn lex(source: &str) -> Result<Vec<Spanned<Tok>>, Diagnostic> {
    let mut lx = Lexer { src: source.as_bytes(), pos: 0, line: 1, col: 1 };
    let mut out = Vec::new();
    loop {
        lx.skip_trivia();
        let start = lx.mark();
        let c = lx.peek();
        let tok = match c {
            0 => {
                out.push(Spanned::new(Tok::Eof, lx.span_from(start)));
                return Ok(out);
            }
            b'{' => {
                lx.bump();
                Tok::LBrace
            }
            b'}' => {
                lx.bump();
                Tok::RBrace
            }
            b'[' => {
                lx.bump();
                Tok::LBracket
            }
            b']' => {
                lx.bump();
                Tok::RBracket
            }
            b'(' => {
                lx.bump();
                Tok::LParen
            }
            b')' => {
                lx.bump();
                Tok::RParen
            }
            b',' => {
                lx.bump();
                Tok::Comma
            }
            b':' => {
                lx.bump();
                Tok::Colon
            }
            b'+' => {
                lx.bump();
                Tok::Plus
            }
            b'-' => {
                lx.bump();
                Tok::Minus
            }
            b'*' => {
                lx.bump();
                Tok::Star
            }
            b'.' => {
                lx.bump();
                if lx.peek() == b'.' {
                    lx.bump();
                    Tok::DotDot
                } else {
                    Tok::Dot
                }
            }
            b'>' => {
                lx.bump();
                if lx.peek() == b'=' {
                    lx.bump();
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            b'<' => {
                lx.bump();
                if lx.peek() == b'=' {
                    lx.bump();
                    Tok::Le
                } else {
                    Tok::Lt
                }
            }
            b'=' => {
                lx.bump();
                if lx.peek() == b'=' {
                    lx.bump();
                    Tok::EqEq
                } else {
                    return Err(Diagnostic::new(
                        lx.span_from(start),
                        "single `=` is not an operator (use `==` to compare; \
                         block fields need no `=`)",
                    ));
                }
            }
            b'!' => {
                lx.bump();
                if lx.peek() == b'=' {
                    lx.bump();
                    Tok::Ne
                } else {
                    Tok::Bang
                }
            }
            b'&' => {
                lx.bump();
                if lx.peek() == b'&' {
                    lx.bump();
                    Tok::AndAnd
                } else {
                    return Err(Diagnostic::new(lx.span_from(start), "expected `&&`"));
                }
            }
            b'|' => {
                lx.bump();
                if lx.peek() == b'|' {
                    lx.bump();
                    Tok::OrOr
                } else {
                    return Err(Diagnostic::new(lx.span_from(start), "expected `||`"));
                }
            }
            b'"' => {
                lx.bump();
                let text_start = lx.pos;
                while lx.peek() != b'"' && lx.peek() != 0 && lx.peek() != b'\n' {
                    lx.bump();
                }
                if lx.peek() != b'"' {
                    return Err(Diagnostic::new(
                        lx.span_from(start),
                        "unterminated string literal",
                    ));
                }
                let text = std::str::from_utf8(&lx.src[text_start..lx.pos]).unwrap().to_string();
                lx.bump();
                Tok::Str(text)
            }
            b'0'..=b'9' => match lx.lex_number() {
                Ok(t) => t,
                Err(msg) => return Err(Diagnostic::new(lx.span_from(start), msg)),
            },
            c if c.is_ascii_alphabetic() || c == b'_' => {
                while lx.peek().is_ascii_alphanumeric() || lx.peek() == b'_' {
                    lx.bump();
                }
                Tok::Ident(std::str::from_utf8(&lx.src[start.0..lx.pos]).unwrap().to_string())
            }
            other => {
                lx.bump();
                return Err(Diagnostic::new(
                    lx.span_from(start),
                    format!("unexpected character `{}`", other as char),
                ));
            }
        };
        out.push(Spanned::new(tok, lx.span_from(start)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.node).collect()
    }

    #[test]
    fn durations_and_ranges() {
        assert_eq!(
            toks("50ms..300ms"),
            vec![Tok::Dur(50_000_000), Tok::DotDot, Tok::Dur(300_000_000), Tok::Eof]
        );
        assert_eq!(toks("1.5s")[0], Tok::Dur(1_500_000_000));
        assert_eq!(toks("2min")[0], Tok::Dur(120_000_000_000));
        assert_eq!(toks("0..4"), vec![Tok::Int(0), Tok::DotDot, Tok::Int(4), Tok::Eof]);
    }

    #[test]
    fn numbers_idents_strings() {
        assert_eq!(
            toks("doors 4 rate 3.5 \"hall\""),
            vec![
                Tok::Ident("doors".into()),
                Tok::Int(4),
                Tok::Ident("rate".into()),
                Tok::Float(3.5),
                Tok::Str("hall".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a >= 3 && !b || c != d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ge,
                Tok::Int(3),
                Tok::AndAnd,
                Tok::Bang,
                Tok::Ident("b".into()),
                Tok::OrOr,
                Tok::Ident("c".into()),
                Tok::Ne,
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a # rest of line\n// whole line\nb"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn spans_track_lines_and_cols() {
        let ts = lex("ab\n  cd").unwrap();
        assert_eq!((ts[0].span.line, ts[0].span.col, ts[0].span.len), (1, 1, 2));
        assert_eq!((ts[1].span.line, ts[1].span.col, ts[1].span.len), (2, 3, 2));
    }

    #[test]
    fn bad_unit_is_an_error() {
        let err = lex("10parsecs").unwrap_err();
        assert!(err.message.contains("unknown time unit"), "{}", err.message);
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("\"oops").unwrap_err().message.contains("unterminated"));
    }
}
