//! Hand-written lexer for Mini-ICC.

use std::fmt;

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier or keyword-candidate.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// A keyword (`struct`, `fn`, `let`, `if`, `else`, `while`, `conc`,
    /// `return`, `null`, `int`, `float`).
    Kw(&'static str),
    /// A punctuation/operator token, e.g. `->`, `==`, `{`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            Tok::Float(v) => write!(f, "float `{v}`"),
            Tok::Kw(k) => write!(f, "keyword `{k}`"),
            Tok::Punct(p) => write!(f, "`{p}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

const KEYWORDS: &[&str] = &[
    "struct", "fn", "let", "if", "else", "while", "conc", "return", "null", "int", "float",
];

/// A token plus its line number (for error messages).
#[derive(Clone, Debug, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A lexing or parsing error.
#[derive(Clone, Debug, PartialEq)]
pub struct SyntaxError {
    /// Human-readable message.
    pub msg: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for SyntaxError {}

/// Tokenize `src`. `//` comments run to end of line.
pub fn lex(src: &str) -> Result<Vec<Spanned>, SyntaxError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let word = &src[start..i];
            let tok = match KEYWORDS.iter().find(|&&k| k == word) {
                Some(&k) => Tok::Kw(k),
                None => Tok::Ident(word.to_string()),
            };
            out.push(Spanned { tok, line });
        } else if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            if i + 1 < bytes.len() && bytes[i] == b'.' && (bytes[i + 1] as char).is_ascii_digit() {
                is_float = true;
                i += 1;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
            }
            let text = &src[start..i];
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| SyntaxError {
                    msg: format!("bad float literal `{text}`"),
                    line,
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| SyntaxError {
                    msg: format!("bad integer literal `{text}`"),
                    line,
                })?)
            };
            out.push(Spanned { tok, line });
        } else {
            // Two-character operators first.
            let two = if i + 1 < bytes.len() {
                &src[i..i + 2]
            } else {
                ""
            };
            let punct2 = ["->", "==", "!=", "<=", ">="]
                .iter()
                .find(|&&p| p == two)
                .copied();
            if let Some(p) = punct2 {
                out.push(Spanned {
                    tok: Tok::Punct(p),
                    line,
                });
                i += 2;
                continue;
            }
            let one = [
                "{", "}", "(", ")", ";", ":", ",", "=", "+", "-", "*", "/", "%", "<", ">",
            ]
            .iter()
            .find(|&&p| p == &src[i..i + 1])
            .copied();
            match one {
                Some(p) => {
                    out.push(Spanned {
                        tok: Tok::Punct(p),
                        line,
                    });
                    i += 1;
                }
                None => {
                    return Err(SyntaxError {
                        msg: format!("unexpected character `{c}`"),
                        line,
                    })
                }
            }
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(
            toks("struct Node fn walk"),
            vec![
                Tok::Kw("struct"),
                Tok::Ident("Node".into()),
                Tok::Kw("fn"),
                Tok::Ident("walk".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 3.5"),
            vec![Tok::Int(42), Tok::Float(3.5), Tok::Eof]
        );
    }

    #[test]
    fn arrow_and_comparisons() {
        assert_eq!(
            toks("a->b <= c == d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("->"),
                Tok::Ident("b".into()),
                Tok::Punct("<="),
                Tok::Ident("c".into()),
                Tok::Punct("=="),
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn minus_vs_arrow() {
        assert_eq!(
            toks("a - b"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("-"),
                Tok::Ident("b".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped_lines_counted() {
        let s = lex("a // comment\nb").unwrap();
        assert_eq!(s[0].line, 1);
        assert_eq!(s[1].line, 2);
    }

    #[test]
    fn bad_char_reports_line() {
        let e = lex("a\n$").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains('$'));
    }
}
