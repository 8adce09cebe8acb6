//! MiniImp recursive-descent parser.
//!
//! ```text
//! program ::= fundef*
//! fundef  ::= 'fn' IDENT '(' ')' block
//! block   ::= '{' labeled* '}'
//! labeled ::= (IDENT ':')? stmt
//! stmt    ::= 'skip' ';'
//!           | 'return' ';'
//!           | 'event' IDENT ('(' IDENT (',' IDENT)* ')')? ';'
//!           | 'if' '(' '*' ')' block ('else' block)?
//!           | 'while' '(' '*' ')' block
//!           | IDENT '(' ')' ';'              (function call)
//! ```

use crate::ast::{Block, FunDef, Labeled, Program, Stmt};
use crate::error::{CfgError, Result};
use crate::lexer::{lex, Tok};

/// Maximum nesting depth of blocks. Deeper inputs yield
/// [`CfgError::DepthExceeded`] instead of overflowing the parser's stack.
pub(crate) const MAX_DEPTH: usize = 256;

pub(crate) fn parse(src: &str) -> Result<Program> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut program = Program::new();
    while p.peek().is_some() {
        program.funs.push(p.fundef()?);
    }
    Ok(program)
}

/// Parser state over the token stream. Identifiers stay borrowed from the
/// source until the AST keeps one.
struct Parser<'a> {
    tokens: Vec<(Tok<'a>, usize)>,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn line(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(1, |(_, l)| *l)
    }

    fn err(&self, message: impl Into<String>) -> CfgError {
        CfgError::Parse {
            message: message.into(),
            line: self.line(),
        }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.tokens.get(self.pos).map(|&(t, _)| t)
    }

    fn peek2(&self) -> Option<Tok<'a>> {
        self.tokens.get(self.pos + 1).map(|&(t, _)| t)
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: Tok<'_>, what: &str) -> Result<()> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        match self.bump() {
            Some(Tok::Ident(got)) if got == kw => Ok(()),
            Some(Tok::Ident(got)) => Err(self.err(format!("expected `{kw}`, found `{got}`"))),
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn fundef(&mut self) -> Result<FunDef> {
        self.keyword("fn")?;
        let name = self.ident("function name")?.to_owned();
        self.expect(Tok::LParen, "`(`")?;
        self.expect(Tok::RParen, "`)`")?;
        let body = self.block()?;
        Ok(FunDef { name, body })
    }

    fn block(&mut self) -> Result<Block> {
        self.expect(Tok::LBrace, "`{`")?;
        if self.depth >= MAX_DEPTH {
            return Err(CfgError::DepthExceeded { limit: MAX_DEPTH });
        }
        self.depth += 1;
        let mut block = Block::new();
        while self.peek() != Some(Tok::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unexpected end of input in block"));
            }
            block.stmts.push(self.labeled()?);
        }
        self.pos += 1; // consume `}`
        self.depth -= 1;
        Ok(block)
    }

    fn labeled(&mut self) -> Result<Labeled> {
        let label =
            if matches!(self.peek(), Some(Tok::Ident(_))) && self.peek2() == Some(Tok::Colon) {
                let l = self.ident("label")?.to_owned();
                self.pos += 1; // consume `:`
                Some(l)
            } else {
                None
            };
        let stmt = self.stmt()?;
        Ok(Labeled { label, stmt })
    }

    fn stmt(&mut self) -> Result<Stmt> {
        match self.peek() {
            Some(Tok::Ident(kw)) => match kw {
                "skip" => {
                    self.pos += 1;
                    self.expect(Tok::Semi, "`;`")?;
                    Ok(Stmt::Skip)
                }
                "return" => {
                    self.pos += 1;
                    self.expect(Tok::Semi, "`;`")?;
                    Ok(Stmt::Return)
                }
                "event" => {
                    self.pos += 1;
                    let name = self.ident("event name")?.to_owned();
                    let mut args = Vec::new();
                    if self.peek() == Some(Tok::LParen) {
                        self.pos += 1;
                        loop {
                            args.push(self.ident("event argument")?.to_owned());
                            match self.bump() {
                                Some(Tok::Comma) => continue,
                                Some(Tok::RParen) => break,
                                other => {
                                    return Err(
                                        self.err(format!("expected `,` or `)`, found {other:?}"))
                                    )
                                }
                            }
                        }
                    }
                    self.expect(Tok::Semi, "`;`")?;
                    Ok(Stmt::Event { name, args })
                }
                "if" => {
                    self.pos += 1;
                    self.expect(Tok::LParen, "`(`")?;
                    self.expect(Tok::Star, "`*`")?;
                    self.expect(Tok::RParen, "`)`")?;
                    let then_block = self.block()?;
                    let else_block = if self.peek() == Some(Tok::Ident("else")) {
                        self.pos += 1;
                        self.block()?
                    } else {
                        Block::new()
                    };
                    Ok(Stmt::If(then_block, else_block))
                }
                "while" => {
                    self.pos += 1;
                    self.expect(Tok::LParen, "`(`")?;
                    self.expect(Tok::Star, "`*`")?;
                    self.expect(Tok::RParen, "`)`")?;
                    let body = self.block()?;
                    Ok(Stmt::While(body))
                }
                _ => {
                    // Function call: IDENT '(' ')' ';'
                    self.pos += 1;
                    self.expect(Tok::LParen, "`(`")?;
                    self.expect(Tok::RParen, "`)`")?;
                    self.expect(Tok::Semi, "`;`")?;
                    Ok(Stmt::Call(kw.to_owned()))
                }
            },
            other => Err(self.err(format!("expected statement, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_section_6_3_program() {
        let src = r#"
            fn main() {
                s1: event seteuid_zero;
                if (*) {
                    s3: event seteuid_nonzero;
                } else {
                    s4: skip;
                }
                s5: event execl;
                s6: skip;
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.funs.len(), 1);
        let main = &p.funs[0];
        assert_eq!(main.body.stmts.len(), 4);
        assert_eq!(main.body.stmts[0].label.as_deref(), Some("s1"));
        assert!(matches!(main.body.stmts[1].stmt, Stmt::If(..)));
    }

    #[test]
    fn parses_calls_loops_and_events_with_args() {
        let src = r#"
            fn helper() { event open(fd1); return; }
            fn main() {
                while (*) { helper(); }
                event close(fd1);
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.funs.len(), 2);
        assert!(matches!(
            &p.funs[0].body.stmts[0].stmt,
            Stmt::Event { name, args } if name == "open" && args == &["fd1".to_owned()]
        ));
        assert!(matches!(&p.funs[1].body.stmts[0].stmt, Stmt::While(_)));
    }

    #[test]
    fn if_without_else() {
        let p = parse("fn main() { if (*) { skip; } skip; }").unwrap();
        let Stmt::If(t, e) = &p.funs[0].body.stmts[0].stmt else {
            panic!("expected if");
        };
        assert_eq!(t.stmts.len(), 1);
        assert!(e.stmts.is_empty());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("fn main() {\n  if ( ) {}\n}").unwrap_err();
        assert!(matches!(err, CfgError::Parse { line: 2, .. }));
    }

    #[test]
    fn deep_block_nesting_is_a_typed_error_not_an_overflow() {
        let mut src = String::from("fn main() { ");
        for _ in 0..100_000 {
            src.push_str("while (*) { ");
        }
        // The limit trips long before the missing closers matter.
        assert!(matches!(
            parse(&src),
            Err(CfgError::DepthExceeded { limit: MAX_DEPTH })
        ));
        // Just inside the limit parses fine (function body is depth 1).
        let n = MAX_DEPTH - 1;
        let src = format!(
            "fn main() {{ {}skip;{} }}",
            "if (*) { ".repeat(n),
            " }".repeat(n)
        );
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn rejects_truncated_input() {
        assert!(parse("fn main() {").is_err());
        assert!(parse("fn main(").is_err());
        assert!(parse("main() {}").is_err());
    }
}
