//! MiniPtr abstract syntax and parser.
//!
//! A small flow-insensitive pointer language (statement order within a
//! function is irrelevant, as in Andersen's analysis):
//!
//! ```text
//! program := fundef*
//! fundef  := 'fn' IDENT '(' (IDENT (',' IDENT)*)? ')' '{' stmt* '}'
//! stmt    := IDENT '=' '&' IDENT ';'          address-of
//!          | IDENT '=' IDENT ';'              copy
//!          | IDENT '=' '*' IDENT ';'          load
//!          | '*' IDENT '=' IDENT ';'          store
//!          | IDENT '=' 'alloc' ';'            heap allocation
//!          | IDENT '=' IDENT '.' IDENT ';'    field load
//!          | IDENT '.' IDENT '=' IDENT ';'    field store
//!          | IDENT '=' IDENT '(' args ')' ';' call with result
//!          | IDENT '(' args ')' ';'           call
//!          | 'return' IDENT ';'
//! args    := (arg (',' arg)*)?
//! arg     := IDENT | '&' IDENT
//! ```
//!
//! Variables are function-scoped and implicitly declared on first use.

use std::collections::HashSet;

use crate::error::{PtrError, Result};

/// A call argument: a variable or an address-of expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arg {
    /// Pass the variable's value.
    Var(String),
    /// Pass the variable's address (`&a`).
    AddrOf(String),
}

/// A MiniPtr statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `x = &a;`
    AddrOf {
        /// Destination.
        dst: String,
        /// The variable whose address is taken.
        of: String,
    },
    /// `x = y;`
    Copy {
        /// Destination.
        dst: String,
        /// Source.
        src: String,
    },
    /// `x = *y;`
    Load {
        /// Destination.
        dst: String,
        /// The dereferenced pointer.
        src: String,
    },
    /// `*x = y;`
    Store {
        /// The dereferenced pointer.
        dst: String,
        /// Source value.
        src: String,
    },
    /// `x = alloc;`
    Alloc {
        /// Destination.
        dst: String,
    },
    /// `x = y.f;`
    FieldLoad {
        /// Destination.
        dst: String,
        /// The base object pointer… base variable.
        base: String,
        /// Field name.
        field: String,
    },
    /// `x.f = y;`
    FieldStore {
        /// Base variable.
        base: String,
        /// Field name.
        field: String,
        /// Source value.
        src: String,
    },
    /// `x = f(args);` or `f(args);`
    Call {
        /// Result destination, if any.
        dst: Option<String>,
        /// Callee name.
        callee: String,
        /// Arguments.
        args: Vec<Arg>,
    },
    /// `return x;`
    Return {
        /// Returned variable.
        var: String,
    },
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunDef {
    /// The function's name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// The body (order-insensitive).
    pub stmts: Vec<Stmt>,
}

/// A MiniPtr program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Function definitions.
    pub funs: Vec<FunDef>,
}

impl Program {
    /// Parses MiniPtr source text.
    ///
    /// # Errors
    ///
    /// Returns [`PtrError::Parse`] on malformed syntax.
    pub fn parse(src: &str) -> Result<Program> {
        let tokens = lex(src)?;
        let mut p = Parser { tokens, pos: 0 };
        let mut program = Program::default();
        while p.peek().is_some() {
            program.funs.push(p.fundef()?);
        }
        Ok(program)
    }

    /// Looks up a function by name.
    pub fn find(&self, name: &str) -> Option<&FunDef> {
        self.funs.iter().find(|f| f.name == name)
    }

    /// All field names used anywhere in the program.
    pub fn fields(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        let mut seen = HashSet::new();
        for f in &self.funs {
            for s in &f.stmts {
                let field = match s {
                    Stmt::FieldLoad { field, .. } | Stmt::FieldStore { field, .. } => Some(field),
                    _ => None,
                };
                if let Some(field) = field {
                    if seen.insert(field.as_str()) {
                        out.push(field);
                    }
                }
            }
        }
        out
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Amp,
    Star,
    Eq,
    Semi,
    Comma,
    Dot,
    LParen,
    RParen,
    LBrace,
    RBrace,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            // Whitespace and identifiers are ASCII.
            c if c.is_ascii() && c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '&' => {
                tokens.push((Tok::Amp, line));
                i += 1;
            }
            '*' => {
                tokens.push((Tok::Star, line));
                i += 1;
            }
            '=' => {
                tokens.push((Tok::Eq, line));
                i += 1;
            }
            ';' => {
                tokens.push((Tok::Semi, line));
                i += 1;
            }
            ',' => {
                tokens.push((Tok::Comma, line));
                i += 1;
            }
            '.' => {
                tokens.push((Tok::Dot, line));
                i += 1;
            }
            '(' => {
                tokens.push((Tok::LParen, line));
                i += 1;
            }
            ')' => {
                tokens.push((Tok::RParen, line));
                i += 1;
            }
            '{' => {
                tokens.push((Tok::LBrace, line));
                i += 1;
            }
            '}' => {
                tokens.push((Tok::RBrace, line));
                i += 1;
            }
            c if c.is_ascii_alphanumeric() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push((Tok::Ident(src[start..i].to_owned()), line));
            }
            _ => {
                // Every byte consumed so far is ASCII, so `i` is a char
                // boundary.
                let other = src[i..].chars().next().unwrap_or_default();
                return Err(PtrError::Parse {
                    message: format!("unexpected character {other:?}"),
                    line,
                });
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn line(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(1, |(_, l)| *l)
    }

    fn err(&self, message: impl Into<String>) -> PtrError {
        PtrError::Parse {
            message: message.into(),
            line: self.line(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<()> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn fundef(&mut self) -> Result<FunDef> {
        let kw = self.ident("`fn`")?;
        if kw != "fn" {
            return Err(self.err(format!("expected `fn`, found `{kw}`")));
        }
        let name = self.ident("function name")?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                params.push(self.ident("parameter name")?);
                match self.bump() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::RParen) => break,
                    other => return Err(self.err(format!("expected `,` or `)`, found {other:?}"))),
                }
            }
        } else {
            self.pos += 1;
        }
        self.expect(&Tok::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unexpected end of input in function body"));
            }
            stmts.push(self.stmt()?);
        }
        self.pos += 1;
        Ok(FunDef {
            name,
            params,
            stmts,
        })
    }

    fn args(&mut self) -> Result<Vec<Arg>> {
        self.expect(&Tok::LParen, "`(`")?;
        let mut args = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            self.pos += 1;
            return Ok(args);
        }
        loop {
            if self.peek() == Some(&Tok::Amp) {
                self.pos += 1;
                args.push(Arg::AddrOf(self.ident("variable after `&`")?));
            } else {
                args.push(Arg::Var(self.ident("argument variable")?));
            }
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                other => return Err(self.err(format!("expected `,` or `)`, found {other:?}"))),
            }
        }
        Ok(args)
    }

    fn stmt(&mut self) -> Result<Stmt> {
        if self.peek() == Some(&Tok::Star) {
            // *x = y;
            self.pos += 1;
            let dst = self.ident("pointer variable")?;
            self.expect(&Tok::Eq, "`=`")?;
            let src = self.ident("source variable")?;
            self.expect(&Tok::Semi, "`;`")?;
            return Ok(Stmt::Store { dst, src });
        }
        let first = self.ident("statement")?;
        if first == "return" {
            let var = self.ident("returned variable")?;
            self.expect(&Tok::Semi, "`;`")?;
            return Ok(Stmt::Return { var });
        }
        match self.bump() {
            Some(Tok::LParen) => {
                // f(args);
                self.pos -= 1;
                let args = self.args()?;
                self.expect(&Tok::Semi, "`;`")?;
                Ok(Stmt::Call {
                    dst: None,
                    callee: first,
                    args,
                })
            }
            Some(Tok::Dot) => {
                // x.f = y;
                let field = self.ident("field name")?;
                self.expect(&Tok::Eq, "`=`")?;
                let src = self.ident("source variable")?;
                self.expect(&Tok::Semi, "`;`")?;
                Ok(Stmt::FieldStore {
                    base: first,
                    field,
                    src,
                })
            }
            Some(Tok::Eq) => match self.bump() {
                Some(Tok::Amp) => {
                    let of = self.ident("variable after `&`")?;
                    self.expect(&Tok::Semi, "`;`")?;
                    Ok(Stmt::AddrOf { dst: first, of })
                }
                Some(Tok::Star) => {
                    let src = self.ident("pointer variable")?;
                    self.expect(&Tok::Semi, "`;`")?;
                    Ok(Stmt::Load { dst: first, src })
                }
                Some(Tok::Ident(second)) => {
                    if second == "alloc" {
                        self.expect(&Tok::Semi, "`;`")?;
                        return Ok(Stmt::Alloc { dst: first });
                    }
                    match self.peek() {
                        Some(Tok::LParen) => {
                            let args = self.args()?;
                            self.expect(&Tok::Semi, "`;`")?;
                            Ok(Stmt::Call {
                                dst: Some(first),
                                callee: second,
                                args,
                            })
                        }
                        Some(Tok::Dot) => {
                            self.pos += 1;
                            let field = self.ident("field name")?;
                            self.expect(&Tok::Semi, "`;`")?;
                            Ok(Stmt::FieldLoad {
                                dst: first,
                                base: second,
                                field,
                            })
                        }
                        _ => {
                            self.expect(&Tok::Semi, "`;`")?;
                            Ok(Stmt::Copy {
                                dst: first,
                                src: second,
                            })
                        }
                    }
                }
                other => Err(self.err(format!("unexpected token after `=`: {other:?}"))),
            },
            other => Err(self.err(format!("unexpected token in statement: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_statement_form() {
        let p = Program::parse(
            "fn foo(x, y) { z = x; return z; }
             fn main() {
                 a = alloc;
                 p = &a;
                 q = p;
                 r = *p;
                 *p = q;
                 a.next = p;
                 s = a.next;
                 t = foo(p, &a);
                 foo(q, r);
             }",
        )
        .unwrap();
        assert_eq!(p.funs.len(), 2);
        let main = p.find("main").unwrap();
        assert_eq!(main.stmts.len(), 9);
        assert!(matches!(main.stmts[0], Stmt::Alloc { .. }));
        assert!(matches!(main.stmts[5], Stmt::FieldStore { .. }));
        assert!(matches!(main.stmts[7], Stmt::Call { dst: Some(_), .. }));
        assert_eq!(p.fields(), ["next"]);
    }

    #[test]
    fn parse_errors_have_lines() {
        let err = Program::parse("fn main() {\n  x = ;\n}").unwrap_err();
        // The offending token is on line 2; the parser may report the
        // position after consuming it.
        assert!(
            matches!(err, PtrError::Parse { line: 2..=3, .. }),
            "{err:?}"
        );
        let err = Program::parse("fn main() {\n  x€ = null;\n}").unwrap_err();
        assert_eq!(
            err,
            PtrError::Parse {
                message: "unexpected character '€'".to_owned(),
                line: 2
            }
        );
    }

    #[test]
    fn empty_params_and_args() {
        let p = Program::parse("fn f() { } fn main() { f(); }").unwrap();
        assert!(p.find("f").unwrap().params.is_empty());
    }
}
