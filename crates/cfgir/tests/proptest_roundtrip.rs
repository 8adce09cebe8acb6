//! Property test: pretty-printing a MiniImp AST and re-parsing it yields
//! the same AST, for arbitrary generated programs.

use rasc_cfgir::{Block, Cfg, CfgError, Program, Stmt};
use rasc_devtools::{forall, prop_assert, prop_assert_eq, Config, Rng, Unshrunk};

/// A random identifier matching `[a-z][a-z0-9_]{0,6}`, never a keyword.
fn ident(rng: &mut Rng) -> String {
    const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    loop {
        let mut s = String::new();
        s.push(HEAD[rng.gen_range(0..HEAD.len())] as char);
        for _ in 0..rng.gen_range(0..7) {
            s.push(TAIL[rng.gen_range(0..TAIL.len())] as char);
        }
        if !matches!(
            s.as_str(),
            "fn" | "if" | "else" | "while" | "skip" | "return" | "event"
        ) {
            return s;
        }
    }
}

fn arb_stmt(rng: &mut Rng, depth: usize) -> Stmt {
    let leaf = depth == 0 || rng.gen_bool(0.5);
    if leaf {
        return match rng.gen_range(0..4) {
            0 => Stmt::Skip,
            1 => Stmt::Return,
            2 => {
                let name = ident(rng);
                let args = (0..rng.gen_range(0..3)).map(|_| ident(rng)).collect();
                Stmt::Event { name, args }
            }
            _ => Stmt::Call(format!("f{}", rng.gen_range(0..3))),
        };
    }
    let block = |rng: &mut Rng| {
        let mut b = Block::new();
        for _ in 0..rng.gen_range(0..4) {
            b.push(arb_stmt(rng, depth - 1));
        }
        b
    };
    if rng.gen_bool(0.5) {
        let t = block(rng);
        let e = block(rng);
        Stmt::If(t, e)
    } else {
        Stmt::While(block(rng))
    }
}

fn arb_program(rng: &mut Rng) -> Program {
    let mut p = Program::new();
    // Functions f0..f2 always exist so calls resolve.
    let n_funs = rng.gen_range(1..4);
    for i in 0..n_funs.max(3) {
        let mut b = Block::new();
        if i < n_funs {
            for _ in 0..rng.gen_range(0..6) {
                b.push(arb_stmt(rng, 3));
            }
        }
        p.fun(&format!("f{i}"), b);
    }
    let mut main_body = Block::new();
    main_body.push(Stmt::Call("f0".to_owned()));
    p.fun("main", main_body);
    p
}

#[test]
fn pretty_parse_round_trip() {
    forall(
        "pretty_parse_round_trip",
        Config::cases(128),
        |rng| Unshrunk(arb_program(rng)),
        |Unshrunk(p)| {
            let printed = p.to_string();
            let reparsed = Program::parse(&printed)
                .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
            prop_assert_eq!(p, &reparsed, "printed:\n{printed}");
            Ok(())
        },
    );
}

#[test]
fn generated_programs_build_cfgs() {
    forall(
        "generated_programs_build_cfgs",
        Config::cases(128),
        |rng| Unshrunk(arb_program(rng)),
        |Unshrunk(p)| {
            let cfg = Cfg::build(p).expect("calls resolve by construction");
            prop_assert!(cfg.entry("main").is_ok());
            // Structural sanity: every edge endpoint is a valid node, every
            // call site references declared functions.
            for (from, to, _) in cfg.edges() {
                prop_assert!(from.index() < cfg.num_nodes());
                prop_assert!(to.index() < cfg.num_nodes());
            }
            for site in cfg.call_sites() {
                prop_assert!(site.callee.index() < cfg.functions().len());
            }
            Ok(())
        },
    );
}

/// Strings spliced into printed programs: non-ASCII letters, symbols and
/// spaces of two to four bytes, and ASCII that lexes as tokens.
const SPLICES: &[&str] = &[
    "é", "ß", "€", "𝄞", "ä", "\u{a0}", "\u{85}", "ê", " ", "x", "{", "}", ";", "\n",
];

#[test]
fn non_ascii_input_is_a_typed_error() {
    forall(
        "non_ascii_input_is_a_typed_error",
        Config::cases(256),
        |rng| {
            let printed = arb_program(rng).to_string();
            // Printed programs are ASCII, so every byte offset is a char
            // boundary; splice from the back so earlier offsets stay valid.
            let mut at: Vec<usize> = (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(0..printed.len() + 1))
                .collect();
            at.sort_unstable_by(|a, b| b.cmp(a));
            let mut src = printed;
            for i in at {
                let splice = rng.choose(SPLICES);
                src.insert_str(i, splice);
            }
            Unshrunk(src)
        },
        |Unshrunk(src)| {
            let parsed = Program::parse(src);
            // The lexer runs first and the pool has no comment opener, so
            // the first non-ASCII character is the error.
            match src.char_indices().find(|(_, c)| !c.is_ascii()) {
                Some((at, c)) => prop_assert_eq!(
                    parsed,
                    Err(CfgError::Parse {
                        message: format!("unexpected character {c:?}"),
                        line: 1 + src[..at].matches('\n').count(),
                    }),
                    "source:\n{src}"
                ),
                None => prop_assert!(
                    matches!(parsed, Ok(_) | Err(CfgError::Parse { .. })),
                    "source:\n{src}"
                ),
            }
            Ok(())
        },
    );
}
