//! MiniLam abstract syntax and parser (paper §7.1).
//!
//! ```text
//! program := fundef*
//! fundef  := 'fn' IDENT '(' (IDENT ':' type)? ')' '->' type '{' expr '}'
//! type    := 'int' | '(' type ',' type ')'
//! expr    := 'let' IDENT '=' expr ';' expr
//!          | 'choice' '(' expr ',' expr ')' label?       (nondeterministic)
//!          | postfix
//! postfix := primary ('.' ('1'|'2') label?)*
//! primary := INT label?
//!          | IDENT '[' IDENT ']' '(' expr? ')' label?   (call at site)
//!          | IDENT label?                                (variable)
//!          | '(' expr ',' expr ')' label?                (pair)
//! label   := '@' IDENT
//! ```
//!
//! `let` and `choice` are the paper's "conditionals … omitted only to
//! simplify the presentation" (§7.1): `choice` models an abstracted
//! conditional whose both arms flow to the result.
//!
//! Labels name program points for flow queries, mirroring the paper's
//! `2^B`, `(1^A, y^Y)^P` notation. Instantiation sites `f[i](…)` carry
//! explicit site names, mirroring `pair^i`.

use crate::error::{FlowError, Result};

/// A MiniLam type: `int` or a pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// The integer base type.
    Int,
    /// A pair type.
    Pair(Box<Type>, Box<Type>),
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Pair(a, b) => write!(f, "({a}, {b})"),
        }
    }
}

/// A MiniLam expression. Every node carries an optional query label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// An integer literal.
    Int {
        /// The literal value.
        value: i64,
        /// Optional query label.
        label: Option<String>,
    },
    /// A variable reference.
    Var {
        /// The variable name.
        name: String,
        /// Optional query label.
        label: Option<String>,
    },
    /// A pair construction.
    Pair {
        /// First component.
        fst: Box<Expr>,
        /// Second component.
        snd: Box<Expr>,
        /// Optional query label.
        label: Option<String>,
    },
    /// A projection `e.1` / `e.2` (stored 0-based).
    Proj {
        /// The pair expression.
        subject: Box<Expr>,
        /// 0-based component index.
        index: usize,
        /// Optional query label.
        label: Option<String>,
    },
    /// A function call at a named instantiation site, `f[i](e)`.
    Call {
        /// Callee name.
        callee: String,
        /// Instantiation-site name (the `i` of `f^i`).
        site: String,
        /// The argument, if the callee takes one.
        arg: Option<Box<Expr>>,
        /// Optional query label.
        label: Option<String>,
    },
    /// A let binding `let x = e₁; e₂`.
    Let {
        /// The bound variable.
        name: String,
        /// The bound expression.
        bound: Box<Expr>,
        /// The body.
        body: Box<Expr>,
    },
    /// An abstracted conditional `choice(e₁, e₂)`: both arms may flow to
    /// the result.
    Choice {
        /// First arm.
        fst: Box<Expr>,
        /// Second arm.
        snd: Box<Expr>,
        /// Optional query label.
        label: Option<String>,
    },
}

impl Expr {
    /// The node's query label, if any.
    pub fn label(&self) -> Option<&str> {
        match self {
            Expr::Int { label, .. }
            | Expr::Var { label, .. }
            | Expr::Pair { label, .. }
            | Expr::Proj { label, .. }
            | Expr::Call { label, .. }
            | Expr::Choice { label, .. } => label.as_deref(),
            Expr::Let { body, .. } => body.label(),
        }
    }
}

/// A function definition `fn f(x: τ) -> τ' { e }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunDef {
    /// The function's name.
    pub name: String,
    /// The parameter, if any.
    pub param: Option<(String, Type)>,
    /// The declared return type.
    pub ret: Type,
    /// The body.
    pub body: Expr,
}

/// A MiniLam program: function definitions, with `main` as the entry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// The function definitions in source order.
    pub funs: Vec<FunDef>,
}

impl Program {
    /// Parses MiniLam source text.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Parse`] on malformed syntax and
    /// [`FlowError::DuplicateFunction`] for name collisions.
    pub fn parse(src: &str) -> Result<Program> {
        let mut p = Parser::new(src)?;
        let mut program = Program::default();
        while p.peek().is_some() {
            let fun = p.fundef()?;
            if program.find(&fun.name).is_some() {
                return Err(FlowError::DuplicateFunction(fun.name));
            }
            program.funs.push(fun);
        }
        Ok(program)
    }

    /// Looks up a function by name.
    pub fn find(&self, name: &str) -> Option<&FunDef> {
        self.funs.iter().find(|f| f.name == name)
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn lbl(label: &Option<String>) -> String {
            label.as_ref().map(|l| format!("@{l}")).unwrap_or_default()
        }
        match self {
            Expr::Int { value, label } => write!(f, "{value}{}", lbl(label)),
            Expr::Var { name, label } => write!(f, "{name}{}", lbl(label)),
            Expr::Pair { fst, snd, label } => write!(f, "({fst}, {snd}){}", lbl(label)),
            Expr::Proj {
                subject,
                index,
                label,
            } => write!(f, "{subject}.{}{}", index + 1, lbl(label)),
            Expr::Call {
                callee,
                site,
                arg,
                label,
            } => match arg {
                Some(a) => write!(f, "{callee}[{site}]({a}){}", lbl(label)),
                None => write!(f, "{callee}[{site}](){}", lbl(label)),
            },
            Expr::Let { name, bound, body } => write!(f, "let {name} = {bound}; {body}"),
            Expr::Choice { fst, snd, label } => {
                write!(f, "choice({fst}, {snd}){}", lbl(label))
            }
        }
    }
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for fun in &self.funs {
            match &fun.param {
                Some((name, ty)) => writeln!(
                    f,
                    "fn {}({name}: {ty}) -> {} {{ {} }}",
                    fun.name, fun.ret, fun.body
                )?,
                None => writeln!(f, "fn {}() -> {} {{ {} }}", fun.name, fun.ret, fun.body)?,
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Eq,
    Semi,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Arrow,
    Dot,
    At,
}

struct Parser {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
        })
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(1, |(_, l)| *l)
    }

    fn err(&self, message: impl Into<String>) -> FlowError {
        FlowError::Parse {
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
        let param = if self.peek() == Some(&Tok::RParen) {
            None
        } else {
            let pname = self.ident("parameter name")?;
            self.expect(&Tok::Colon, "`:`")?;
            let ty = self.ty()?;
            Some((pname, ty))
        };
        self.expect(&Tok::RParen, "`)`")?;
        self.expect(&Tok::Arrow, "`->`")?;
        let ret = self.ty()?;
        self.expect(&Tok::LBrace, "`{`")?;
        let body = self.expr()?;
        self.expect(&Tok::RBrace, "`}`")?;
        Ok(FunDef {
            name,
            param,
            ret,
            body,
        })
    }

    fn ty(&mut self) -> Result<Type> {
        match self.bump() {
            Some(Tok::Ident(s)) if s == "int" => Ok(Type::Int),
            Some(Tok::LParen) => {
                let a = self.ty()?;
                self.expect(&Tok::Comma, "`,`")?;
                let b = self.ty()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(Type::Pair(Box::new(a), Box::new(b)))
            }
            other => Err(self.err(format!("expected a type, found {other:?}"))),
        }
    }

    fn label(&mut self) -> Result<Option<String>> {
        if self.peek() == Some(&Tok::At) {
            self.pos += 1;
            Ok(Some(self.ident("label name")?))
        } else {
            Ok(None)
        }
    }

    fn expr(&mut self) -> Result<Expr> {
        if matches!(self.peek(), Some(Tok::Ident(k)) if k == "let") {
            self.pos += 1;
            let name = self.ident("bound variable name")?;
            self.expect(&Tok::Eq, "`=`")?;
            let bound = self.expr()?;
            self.expect(&Tok::Semi, "`;`")?;
            let body = self.expr()?;
            return Ok(Expr::Let {
                name,
                bound: Box::new(bound),
                body: Box::new(body),
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        while self.peek() == Some(&Tok::Dot) {
            self.pos += 1;
            let index = match self.bump() {
                Some(Tok::Int(1)) => 0,
                Some(Tok::Int(2)) => 1,
                other => return Err(self.err(format!("expected `.1` or `.2`, found {other:?}"))),
            };
            let label = self.label()?;
            e = Expr::Proj {
                subject: Box::new(e),
                index,
                label,
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Some(Tok::Int(value)) => {
                let label = self.label()?;
                Ok(Expr::Int { value, label })
            }
            Some(Tok::Ident(name)) if name == "choice" => {
                self.expect(&Tok::LParen, "`(`")?;
                let fst = self.expr()?;
                self.expect(&Tok::Comma, "`,`")?;
                let snd = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                let label = self.label()?;
                Ok(Expr::Choice {
                    fst: Box::new(fst),
                    snd: Box::new(snd),
                    label,
                })
            }
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LBracket) {
                    self.pos += 1;
                    let site = self.ident("instantiation-site name")?;
                    self.expect(&Tok::RBracket, "`]`")?;
                    self.expect(&Tok::LParen, "`(`")?;
                    let arg = if self.peek() == Some(&Tok::RParen) {
                        None
                    } else {
                        Some(Box::new(self.expr()?))
                    };
                    self.expect(&Tok::RParen, "`)`")?;
                    let label = self.label()?;
                    Ok(Expr::Call {
                        callee: name,
                        site,
                        arg,
                        label,
                    })
                } else {
                    let label = self.label()?;
                    Ok(Expr::Var { name, label })
                }
            }
            Some(Tok::LParen) => {
                let fst = self.expr()?;
                self.expect(&Tok::Comma, "`,`")?;
                let snd = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                let label = self.label()?;
                Ok(Expr::Pair {
                    fst: Box::new(fst),
                    snd: Box::new(snd),
                    label,
                })
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
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
            '[' => {
                tokens.push((Tok::LBracket, line));
                i += 1;
            }
            ']' => {
                tokens.push((Tok::RBracket, line));
                i += 1;
            }
            ',' => {
                tokens.push((Tok::Comma, line));
                i += 1;
            }
            ':' => {
                tokens.push((Tok::Colon, line));
                i += 1;
            }
            '.' => {
                tokens.push((Tok::Dot, line));
                i += 1;
            }
            '@' => {
                tokens.push((Tok::At, line));
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
            '-' if bytes.get(i + 1) == Some(&b'>') => {
                tokens.push((Tok::Arrow, line));
                i += 2;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let value = src[start..i].parse().map_err(|_| FlowError::Parse {
                    message: "integer literal out of range".to_owned(),
                    line,
                })?;
                tokens.push((Tok::Int(value), line));
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
                return Err(FlowError::Parse {
                    message: format!("unexpected character {other:?}"),
                    line,
                });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure_11() {
        let p = Program::parse(
            "fn pair(y: int) -> (int, int) { (1@A, y@Y)@P }\n\
             fn main() -> int { pair[i](2@B)@T.2@V }",
        )
        .unwrap();
        assert_eq!(p.funs.len(), 2);
        let pair_fn = p.find("pair").unwrap();
        assert_eq!(pair_fn.param, Some(("y".to_owned(), Type::Int)));
        assert_eq!(
            pair_fn.ret,
            Type::Pair(Box::new(Type::Int), Box::new(Type::Int))
        );
        let Expr::Pair { label, .. } = &pair_fn.body else {
            panic!("expected pair body");
        };
        assert_eq!(label.as_deref(), Some("P"));
        let main_fn = p.find("main").unwrap();
        let Expr::Proj { index, label, .. } = &main_fn.body else {
            panic!("expected projection body");
        };
        assert_eq!(*index, 1);
        assert_eq!(label.as_deref(), Some("V"));
    }

    #[test]
    fn nested_types_and_projections() {
        let p = Program::parse("fn main() -> int { ((1, 2), 3).1.2@Z }").unwrap();
        let Expr::Proj {
            subject, index: 1, ..
        } = &p.find("main").unwrap().body
        else {
            panic!("outer .2");
        };
        assert!(matches!(**subject, Expr::Proj { index: 0, .. }));
    }

    #[test]
    fn duplicate_function_rejected() {
        let err = Program::parse("fn f() -> int { 1 } fn f() -> int { 2 }").unwrap_err();
        assert_eq!(err, FlowError::DuplicateFunction("f".to_owned()));
    }

    #[test]
    fn parse_errors_have_lines() {
        let err = Program::parse("fn main() -> int {\n  (1,\n}").unwrap_err();
        assert!(matches!(err, FlowError::Parse { line: 3, .. }));
        let err = Program::parse("fn main() -> int {\n  1@Ä }").unwrap_err();
        assert_eq!(
            err,
            FlowError::Parse {
                message: "unexpected character 'Ä'".to_owned(),
                line: 2
            }
        );
    }

    #[test]
    fn pretty_print_round_trips() {
        let src = "fn pair(y: int) -> (int, int) { (1@A, y@Y)@P }\n\
                   fn main() -> int { let t = pair[i](2@B)@T; choice(t.2@V, 0) }";
        let p1 = Program::parse(src).unwrap();
        let printed = p1.to_string();
        let p2 = Program::parse(&printed).unwrap();
        assert_eq!(p1, p2, "printed:\n{printed}");
    }

    #[test]
    fn parses_let_and_choice() {
        let p = Program::parse("fn main() -> int { let x = 1@A; choice(x@U, 2@B)@C }").unwrap();
        let Expr::Let { name, body, .. } = &p.find("main").unwrap().body else {
            panic!("expected let");
        };
        assert_eq!(name, "x");
        assert!(matches!(**body, Expr::Choice { .. }));
    }

    #[test]
    fn zero_arg_calls() {
        let p = Program::parse(
            "fn gen() -> int { 7@G }\n\
             fn main() -> int { gen[a]()@R }",
        )
        .unwrap();
        let Expr::Call { arg, site, .. } = &p.find("main").unwrap().body else {
            panic!("expected call");
        };
        assert!(arg.is_none());
        assert_eq!(site, "a");
    }
}
