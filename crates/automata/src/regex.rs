//! Regular expressions over named annotation symbols.
//!
//! The surface syntax is word-oriented because annotation symbols are
//! program events with multi-character names:
//!
//! ```text
//! regex  ::= alt
//! alt    ::= cat ('|' cat)*
//! cat    ::= rep rep*                 (juxtaposition, whitespace separated)
//! rep    ::= atom ('*' | '+' | '?')*
//! atom   ::= IDENT | 'eps' | '.' | '(' alt ')'
//! ```
//!
//! `IDENT` must name a symbol of the alphabet, `eps` is the empty word, and
//! `.` matches any single symbol.
//!
//! # Example
//!
//! ```
//! use rasc_automata::{Alphabet, Regex};
//!
//! let mut sigma = Alphabet::new();
//! sigma.intern("open");
//! sigma.intern("close");
//! let re = Regex::parse("(open close)* open", &sigma)?;
//! let dfa = re.compile(&sigma);
//! let open = sigma.lookup("open").unwrap();
//! let close = sigma.lookup("close").unwrap();
//! assert!(dfa.accepts(&[open]));
//! assert!(dfa.accepts(&[open, close, open]));
//! assert!(!dfa.accepts(&[open, close]));
//! # Ok::<(), rasc_automata::AutomataError>(())
//! ```

use crate::alphabet::{Alphabet, SymbolId};
use crate::dfa::Dfa;
use crate::error::{AutomataError, Result};
use crate::nfa::{Nfa, NfaStateId};

/// Maximum nesting depth of parenthesised groups accepted by
/// [`Regex::parse`]. Deeper inputs yield [`AutomataError::DepthExceeded`]
/// instead of overflowing the parser's stack.
pub const MAX_DEPTH: usize = 256;

/// An abstract-syntax regular expression over an interned alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Regex {
    /// The empty word `eps`.
    Epsilon,
    /// A single symbol.
    Symbol(SymbolId),
    /// Any single symbol (`.`).
    Any,
    /// Concatenation.
    Concat(Box<Regex>, Box<Regex>),
    /// Alternation (`|`).
    Alt(Box<Regex>, Box<Regex>),
    /// Kleene star (`*`).
    Star(Box<Regex>),
    /// One or more (`+`).
    Plus(Box<Regex>),
    /// Zero or one (`?`).
    Opt(Box<Regex>),
}

impl Regex {
    /// Parses `input` against `alphabet`.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::ParseRegex`] on malformed syntax,
    /// [`AutomataError::UnknownSymbol`] if an identifier is not in the
    /// alphabet, and [`AutomataError::DepthExceeded`] if groups nest
    /// deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str, alphabet: &Alphabet) -> Result<Regex> {
        let tokens = tokenize(input)?;
        let mut parser = Parser {
            tokens,
            pos: 0,
            depth: 0,
            alphabet,
        };
        let re = parser.alt()?;
        if parser.pos != parser.tokens.len() {
            return Err(AutomataError::ParseRegex {
                message: format!(
                    "unexpected trailing token {:?}",
                    parser.tokens[parser.pos].0
                ),
                offset: parser.tokens[parser.pos].1,
            });
        }
        Ok(re)
    }

    /// Thompson-constructs an NFA for this regex.
    pub fn to_nfa(&self, alphabet: &Alphabet) -> Nfa {
        let mut nfa = Nfa::new(alphabet.len());
        let start = nfa.add_state();
        nfa.set_start(start);
        let end = build(self, &mut nfa, start, alphabet);
        nfa.set_accepting(end, true);
        nfa
    }

    /// Compiles this regex to the minimal complete DFA for its language.
    pub fn compile(&self, alphabet: &Alphabet) -> Dfa {
        self.to_nfa(alphabet).determinize().minimize()
    }
}

/// Thompson construction fragment: extends `nfa` with a machine for `re`
/// beginning at `start`, returning the fragment's exit state.
fn build(re: &Regex, nfa: &mut Nfa, start: NfaStateId, alphabet: &Alphabet) -> NfaStateId {
    match re {
        Regex::Epsilon => start,
        Regex::Symbol(sym) => {
            let end = nfa.add_state();
            nfa.add_transition(start, *sym, end);
            end
        }
        Regex::Any => {
            let end = nfa.add_state();
            for sym in alphabet.symbols() {
                nfa.add_transition(start, sym, end);
            }
            end
        }
        Regex::Concat(a, b) => {
            let mid = build(a, nfa, start, alphabet);
            build(b, nfa, mid, alphabet)
        }
        Regex::Alt(a, b) => {
            let a_start = nfa.add_state();
            let b_start = nfa.add_state();
            nfa.add_epsilon(start, a_start);
            nfa.add_epsilon(start, b_start);
            let a_end = build(a, nfa, a_start, alphabet);
            let b_end = build(b, nfa, b_start, alphabet);
            let end = nfa.add_state();
            nfa.add_epsilon(a_end, end);
            nfa.add_epsilon(b_end, end);
            end
        }
        Regex::Star(a) => {
            let inner_start = nfa.add_state();
            let end = nfa.add_state();
            nfa.add_epsilon(start, inner_start);
            nfa.add_epsilon(start, end);
            let inner_end = build(a, nfa, inner_start, alphabet);
            nfa.add_epsilon(inner_end, inner_start);
            nfa.add_epsilon(inner_end, end);
            end
        }
        Regex::Plus(a) => {
            let inner_start = nfa.add_state();
            nfa.add_epsilon(start, inner_start);
            let inner_end = build(a, nfa, inner_start, alphabet);
            let end = nfa.add_state();
            nfa.add_epsilon(inner_end, inner_start);
            nfa.add_epsilon(inner_end, end);
            end
        }
        Regex::Opt(a) => {
            let inner_start = nfa.add_state();
            nfa.add_epsilon(start, inner_start);
            let inner_end = build(a, nfa, inner_start, alphabet);
            let end = nfa.add_state();
            nfa.add_epsilon(start, end);
            nfa.add_epsilon(inner_end, end);
            end
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    LParen,
    RParen,
    Pipe,
    Star,
    Plus,
    Question,
    Dot,
}

fn tokenize(input: &str) -> Result<Vec<(Token, usize)>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            // Whitespace and identifiers are ASCII.
            c if c.is_ascii() && c.is_whitespace() => i += 1,
            '(' => {
                tokens.push((Token::LParen, i));
                i += 1;
            }
            ')' => {
                tokens.push((Token::RParen, i));
                i += 1;
            }
            '|' => {
                tokens.push((Token::Pipe, i));
                i += 1;
            }
            '*' => {
                tokens.push((Token::Star, i));
                i += 1;
            }
            '+' => {
                tokens.push((Token::Plus, i));
                i += 1;
            }
            '?' => {
                tokens.push((Token::Question, i));
                i += 1;
            }
            '.' => {
                tokens.push((Token::Dot, i));
                i += 1;
            }
            c if c.is_ascii_alphanumeric() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push((Token::Ident(input[start..i].to_owned()), start));
            }
            _ => {
                // Every byte consumed so far is ASCII, so `i` is a char
                // boundary.
                let other = input[i..].chars().next().unwrap_or_default();
                return Err(AutomataError::ParseRegex {
                    message: format!("unexpected character {other:?}"),
                    offset: i,
                });
            }
        }
    }
    Ok(tokens)
}

/// Folds `parts` into a balanced tree, so a chain of 100k
/// concatenations or alternations stays `O(log n)` deep. Recursive
/// consumers (Thompson construction, drop glue) would overflow the stack
/// on the left-deep chain a naive fold builds.
fn fold_balanced(mut parts: Vec<Regex>, join: fn(Box<Regex>, Box<Regex>) -> Regex) -> Regex {
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut iter = parts.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(join(Box::new(a), Box::new(b))),
                None => next.push(a),
            }
        }
        parts = next;
    }
    parts.pop().unwrap_or(Regex::Epsilon)
}

/// The net effect of a chain of postfix repetition operators.
#[derive(Clone, Copy)]
enum RepMod {
    None,
    Star,
    Plus,
    Opt,
}

struct Parser<'a> {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    depth: usize,
    alphabet: &'a Alphabet,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn alt(&mut self) -> Result<Regex> {
        let mut arms = vec![self.cat()?];
        while self.peek() == Some(&Token::Pipe) {
            self.pos += 1;
            arms.push(self.cat()?);
        }
        Ok(fold_balanced(arms, Regex::Alt))
    }

    fn cat(&mut self) -> Result<Regex> {
        let mut parts = vec![self.rep()?];
        while matches!(
            self.peek(),
            Some(Token::Ident(_) | Token::LParen | Token::Dot)
        ) {
            parts.push(self.rep()?);
        }
        Ok(fold_balanced(parts, Regex::Concat))
    }

    fn rep(&mut self) -> Result<Regex> {
        let base = self.atom()?;
        let mut m = RepMod::None;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => RepMod::Star,
                Some(Token::Plus) => RepMod::Plus,
                Some(Token::Question) => RepMod::Opt,
                _ => break,
            };
            self.pos += 1;
            // Stacked repetition operators collapse to a single one
            // ((a*)* = a*, (a+)? = (a?)+ = a*, …), so a pathological
            // `a***…` chain never nests the AST.
            m = match (m, op) {
                (RepMod::None, op) => op,
                (m, RepMod::None) => m, // `op` is never None
                (RepMod::Star, _) | (_, RepMod::Star) => RepMod::Star,
                (RepMod::Plus, RepMod::Plus) => RepMod::Plus,
                (RepMod::Opt, RepMod::Opt) => RepMod::Opt,
                (RepMod::Plus, RepMod::Opt) | (RepMod::Opt, RepMod::Plus) => RepMod::Star,
            };
        }
        Ok(match m {
            RepMod::None => base,
            RepMod::Star => Regex::Star(Box::new(base)),
            RepMod::Plus => Regex::Plus(Box::new(base)),
            RepMod::Opt => Regex::Opt(Box::new(base)),
        })
    }

    fn atom(&mut self) -> Result<Regex> {
        let offset = self.tokens.get(self.pos).map_or(0, |(_, o)| *o);
        match self.peek().cloned() {
            Some(Token::Ident(name)) => {
                self.pos += 1;
                if name == "eps" {
                    return Ok(Regex::Epsilon);
                }
                let sym = self
                    .alphabet
                    .lookup(&name)
                    .ok_or(AutomataError::UnknownSymbol(name))?;
                Ok(Regex::Symbol(sym))
            }
            Some(Token::Dot) => {
                self.pos += 1;
                Ok(Regex::Any)
            }
            Some(Token::LParen) => {
                self.pos += 1;
                if self.depth >= MAX_DEPTH {
                    return Err(AutomataError::DepthExceeded { limit: MAX_DEPTH });
                }
                self.depth += 1;
                let inner = self.alt()?;
                self.depth -= 1;
                if self.peek() != Some(&Token::RParen) {
                    return Err(AutomataError::ParseRegex {
                        message: "expected `)`".to_owned(),
                        offset,
                    });
                }
                self.pos += 1;
                Ok(inner)
            }
            other => Err(AutomataError::ParseRegex {
                message: format!("expected atom, found {other:?}"),
                offset,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigma() -> Alphabet {
        Alphabet::from_names(["a", "b", "c"])
    }

    fn sym(alpha: &Alphabet, n: &str) -> SymbolId {
        alpha.lookup(n).unwrap()
    }

    #[test]
    fn parse_and_compile_basic() {
        let alpha = sigma();
        let (a, b) = (sym(&alpha, "a"), sym(&alpha, "b"));
        let dfa = Regex::parse("a b* a", &alpha).unwrap().compile(&alpha);
        assert!(dfa.accepts(&[a, a]));
        assert!(dfa.accepts(&[a, b, b, a]));
        assert!(!dfa.accepts(&[a, b]));
    }

    #[test]
    fn alternation_and_optional() {
        let alpha = sigma();
        let (a, b, c) = (sym(&alpha, "a"), sym(&alpha, "b"), sym(&alpha, "c"));
        let dfa = Regex::parse("(a | b) c?", &alpha).unwrap().compile(&alpha);
        assert!(dfa.accepts(&[a]));
        assert!(dfa.accepts(&[b, c]));
        assert!(!dfa.accepts(&[c]));
        assert!(!dfa.accepts(&[a, b]));
    }

    #[test]
    fn epsilon_and_plus() {
        let alpha = sigma();
        let a = sym(&alpha, "a");
        let dfa = Regex::parse("eps | a+", &alpha).unwrap().compile(&alpha);
        assert!(dfa.accepts(&[]));
        assert!(dfa.accepts(&[a, a, a]));
    }

    #[test]
    fn dot_matches_any_symbol() {
        let alpha = sigma();
        let (a, b, c) = (sym(&alpha, "a"), sym(&alpha, "b"), sym(&alpha, "c"));
        let dfa = Regex::parse(". .", &alpha).unwrap().compile(&alpha);
        assert!(dfa.accepts(&[a, c]));
        assert!(dfa.accepts(&[b, b]));
        assert!(!dfa.accepts(&[a]));
    }

    #[test]
    fn unknown_symbol_is_an_error() {
        let alpha = sigma();
        assert!(matches!(
            Regex::parse("zz", &alpha),
            Err(AutomataError::UnknownSymbol(_))
        ));
    }

    #[test]
    fn malformed_regexes_error() {
        let alpha = sigma();
        assert!(Regex::parse("(a", &alpha).is_err());
        assert!(Regex::parse("a )", &alpha).is_err());
        assert!(Regex::parse("*", &alpha).is_err());
        assert!(Regex::parse("a %", &alpha).is_err());
        assert_eq!(
            Regex::parse("a é", &alpha),
            Err(AutomataError::ParseRegex {
                message: "unexpected character 'é'".to_owned(),
                offset: 2,
            })
        );
    }

    #[test]
    fn deep_paren_nesting_is_a_typed_error_not_an_overflow() {
        let alpha = sigma();
        let src = format!("{}a{}", "(".repeat(100_000), ")".repeat(100_000));
        assert_eq!(
            Regex::parse(&src, &alpha),
            Err(AutomataError::DepthExceeded { limit: MAX_DEPTH })
        );
        let src = format!("{}a{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert!(Regex::parse(&src, &alpha).is_ok());
    }

    #[test]
    fn hundred_k_postfix_chain_collapses() {
        let alpha = sigma();
        let a = sym(&alpha, "a");
        let re = Regex::parse(&format!("a{}", "*".repeat(100_000)), &alpha).unwrap();
        assert_eq!(re, Regex::Star(Box::new(Regex::Symbol(a))));
        // `a+++…?` = zero or more `a`s; the collapsed form must keep that
        // meaning, not just survive parsing.
        let re = Regex::parse(&format!("a{}?", "+".repeat(100_000)), &alpha).unwrap();
        let dfa = re.compile(&alpha);
        assert!(dfa.accepts(&[]));
        assert!(dfa.accepts(&[a, a, a]));
    }

    #[test]
    fn hundred_k_concat_and_alt_chains_stay_shallow() {
        let alpha = sigma();
        // Balanced folding keeps these O(log n) deep; a left-deep chain
        // would overflow the stack in Thompson construction or drop glue.
        let re = Regex::parse(&"a ".repeat(100_000), &alpha).unwrap();
        let _ = re.to_nfa(&alpha);
        let re = Regex::parse(&format!("a{}", " | a".repeat(100_000)), &alpha).unwrap();
        let _ = re.to_nfa(&alpha);
    }

    #[test]
    fn star_allows_empty() {
        let alpha = sigma();
        let a = sym(&alpha, "a");
        let dfa = Regex::parse("a*", &alpha).unwrap().compile(&alpha);
        assert!(dfa.accepts(&[]));
        assert!(dfa.accepts(&[a, a]));
    }
}
