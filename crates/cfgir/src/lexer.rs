//! MiniImp lexer.

use crate::error::{CfgError, Result};

/// A token, borrowing identifiers from the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tok<'a> {
    Ident(&'a str),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Semi,
    Colon,
    Comma,
    Star,
}

/// Whether `b` continues an identifier: ASCII letters, digits and `_`.
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Splits `src` into tokens, each with its 1-based line. Identifiers and
/// whitespace are ASCII; any other character is an error.
pub(crate) fn lex(src: &str) -> Result<Vec<(Tok<'_>, usize)>> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let punct = match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            // `char::is_whitespace` on ASCII: vertical tab and form feed too.
            b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c' => {
                i += 1;
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b';' => Tok::Semi,
            b':' => Tok::Colon,
            b',' => Tok::Comma,
            b'*' => Tok::Star,
            b if is_ident_byte(b) => {
                let start = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                tokens.push((Tok::Ident(&src[start..i]), line));
                continue;
            }
            _ => {
                // Every byte consumed so far is ASCII, so `i` is a char
                // boundary.
                let other = src[i..].chars().next().unwrap_or_default();
                return Err(CfgError::Parse {
                    message: format!("unexpected character {other:?}"),
                    line,
                });
            }
        };
        tokens.push((punct, line));
        i += 1;
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_basic_tokens() {
        let toks = lex("fn main() { s1: event x; } // comment").unwrap();
        assert_eq!(toks[0].0, Tok::Ident("fn"));
        assert!(toks.iter().any(|(t, _)| *t == Tok::Colon));
        assert!(!toks.iter().any(|(t, _)| matches!(t, Tok::Ident("comment"))));
    }

    #[test]
    fn tracks_lines_and_rejects_garbage() {
        let err = lex("fn\n$").unwrap_err();
        assert_eq!(
            err,
            CfgError::Parse {
                message: "unexpected character '$'".to_owned(),
                line: 2
            }
        );
        // A non-ASCII character is reported whole, not cut at a byte.
        let err = lex("fn mäin() {}").unwrap_err();
        assert_eq!(
            err,
            CfgError::Parse {
                message: "unexpected character 'ä'".to_owned(),
                line: 1
            }
        );
    }
}
