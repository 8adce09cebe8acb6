//! The annotation specification language of the paper's §8.
//!
//! Property automata are written in an ML-pattern-matching-like syntax:
//!
//! ```text
//! start state Unpriv :
//!     | seteuid_zero -> Priv;
//!
//! state Priv :
//!     | seteuid_nonzero -> Unpriv
//!     | execl -> Error;
//!
//! accept state Error;
//! ```
//!
//! Symbols not mentioned in a state's arms self-loop (they are irrelevant to
//! the property at that state), matching the MOPS convention. Symbols may be
//! *parametric* (§6.4), e.g. `open(x)`; the base automaton treats `open(x)`
//! as the plain symbol `open` — instantiation is handled by the substitution
//! environments in `rasc-core`.

use std::collections::{HashMap, HashSet};

use crate::alphabet::Alphabet;
use crate::dfa::{Dfa, StateId};
use crate::error::{AutomataError, Result};

/// A (possibly parametric) symbol occurrence in a specification, such as
/// `execl` or `open(x)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParamSymbol {
    /// The symbol name (`open`).
    pub name: String,
    /// Parameter variables (`["x"]`), empty for plain symbols.
    pub params: Vec<String>,
}

/// A single transition arm `| sym -> Target`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecArm {
    /// Source state name.
    pub from: String,
    /// The triggering symbol.
    pub symbol: ParamSymbol,
    /// Target state name.
    pub to: String,
}

/// A parsed property specification: a deterministic automaton over named
/// events, with self-loop defaults.
///
/// # Example
///
/// ```
/// use rasc_automata::PropertySpec;
///
/// let spec = PropertySpec::parse(
///     "start state Unpriv : | seteuid_zero -> Priv;\n\
///      state Priv : | seteuid_nonzero -> Unpriv | execl -> Error;\n\
///      accept state Error;",
/// )?;
/// let (sigma, dfa) = spec.compile();
/// let zero = sigma.lookup("seteuid_zero").unwrap();
/// let execl = sigma.lookup("execl").unwrap();
/// // acquiring privilege then exec-ing is a violation (accepted)
/// assert!(dfa.accepts(&[zero, execl]));
/// let nonzero = sigma.lookup("seteuid_nonzero").unwrap();
/// // dropping privilege first is fine (not accepted)
/// assert!(!dfa.accepts(&[zero, nonzero, execl]));
/// # Ok::<(), rasc_automata::AutomataError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertySpec {
    states: Vec<String>,
    start: usize,
    accepting: Vec<bool>,
    arms: Vec<SpecArm>,
}

impl PropertySpec {
    /// Parses a specification.
    ///
    /// # Errors
    ///
    /// Returns a parse error on malformed syntax, a
    /// [`AutomataError::MissingStartState`] if no state is marked `start`,
    /// [`AutomataError::UnknownState`] if an arm targets an undeclared
    /// state, and [`AutomataError::NondeterministicSpec`] if a state has
    /// two arms on the same symbol with different targets.
    pub fn parse(input: &str) -> Result<PropertySpec> {
        Parser::new(input)?.parse()
    }

    /// All state names, in declaration order.
    pub fn states(&self) -> &[String] {
        &self.states
    }

    /// The start state's name.
    pub fn start_state(&self) -> &str {
        &self.states[self.start]
    }

    /// Whether the named state is accepting.
    pub fn is_accepting(&self, state: &str) -> bool {
        self.states
            .iter()
            .position(|s| s == state)
            .is_some_and(|i| self.accepting[i])
    }

    /// All transition arms.
    pub fn arms(&self) -> &[SpecArm] {
        &self.arms
    }

    /// Whether any symbol is parametric.
    pub fn is_parametric(&self) -> bool {
        self.arms.iter().any(|a| !a.symbol.params.is_empty())
    }

    /// The parameter variables of each distinct symbol, keyed by name.
    ///
    /// A symbol must be used with a consistent arity; this is checked at
    /// parse time.
    pub fn symbol_params(&self) -> HashMap<&str, &[String]> {
        let mut out: HashMap<&str, &[String]> = HashMap::new();
        for arm in &self.arms {
            out.entry(&arm.symbol.name)
                .or_insert(arm.symbol.params.as_slice());
        }
        out
    }

    /// Compiles the spec to its alphabet and deterministic automaton.
    ///
    /// Symbols without an arm at a given state self-loop. The resulting
    /// machine is **not** minimized: the solver needs the spec's state
    /// identities for diagnostics; minimize explicitly if required.
    pub fn compile(&self) -> (Alphabet, Dfa) {
        let mut sigma = Alphabet::new();
        for arm in &self.arms {
            sigma.intern(&arm.symbol.name);
        }
        let dfa = match self.compile_over(&sigma) {
            Ok(dfa) => dfa,
            Err(_) => unreachable!("every spec symbol was interned just above"),
        };
        (sigma, dfa)
    }

    /// Compiles the spec over a *larger* alphabet. Symbols foreign to the
    /// spec self-loop everywhere, so several properties can share an
    /// alphabet and be combined with [`Dfa::product_by`] — the §2.2
    /// product of all regular properties.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::UnknownSymbol`] if one of this spec's
    /// symbols has not been interned into `sigma`.
    pub fn compile_over(&self, sigma: &Alphabet) -> Result<Dfa> {
        let mut dfa = Dfa::new(sigma.len());
        let ids: Vec<StateId> = self
            .accepting
            .iter()
            .map(|&acc| dfa.add_state(acc))
            .collect();
        dfa.set_start(ids[self.start]);
        // Default: self-loops everywhere.
        for (i, &s) in ids.iter().enumerate() {
            let _ = i;
            for sym in sigma.symbols() {
                dfa.set_transition(s, sym, s);
            }
        }
        // Declared arms overwrite the defaults.
        for arm in &self.arms {
            let from =
                crate::invariant(self.state_index(&arm.from), "arm states validated at parse");
            let to = crate::invariant(self.state_index(&arm.to), "arm states validated at parse");
            let sym = sigma
                .lookup(&arm.symbol.name)
                .ok_or_else(|| AutomataError::UnknownSymbol(arm.symbol.name.clone()))?;
            dfa.set_transition(ids[from], sym, ids[to]);
        }
        Ok(dfa)
    }

    fn state_index(&self, name: &str) -> Option<usize> {
        self.states.iter().position(|s| s == name)
    }
}

impl std::fmt::Display for PropertySpec {
    /// Renders the specification back to the §8 surface syntax; parsing
    /// the output reproduces the specification exactly.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, state) in self.states.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            if i == self.start {
                write!(f, "start ")?;
            }
            if self.accepting[i] {
                write!(f, "accept ")?;
            }
            write!(f, "state {state}")?;
            let arms: Vec<&SpecArm> = self.arms.iter().filter(|a| a.from == *state).collect();
            if arms.is_empty() {
                writeln!(f, ";")?;
            } else {
                writeln!(f, " :")?;
                for (k, arm) in arms.iter().enumerate() {
                    let params = if arm.symbol.params.is_empty() {
                        String::new()
                    } else {
                        format!("({})", arm.symbol.params.join(", "))
                    };
                    let terminator = if k + 1 == arms.len() { ";" } else { "" };
                    writeln!(
                        f,
                        "    | {}{} -> {}{}",
                        arm.symbol.name, params, arm.to, terminator
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Colon,
    Semi,
    Pipe,
    Arrow,
    LParen,
    RParen,
    Comma,
}

struct Parser {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: lex(input)?,
            pos: 0,
        })
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(1, |(_, l)| *l)
    }

    fn err(&self, message: impl Into<String>) -> AutomataError {
        AutomataError::ParseSpec {
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
            Some(Tok::Ident(name)) => Ok(name),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn parse(mut self) -> Result<PropertySpec> {
        let mut states: Vec<String> = Vec::new();
        let mut state_names: HashSet<String> = HashSet::new();
        let mut accepting: Vec<bool> = Vec::new();
        let mut start: Option<usize> = None;
        let mut arms: Vec<SpecArm> = Vec::new();
        let mut arities: HashMap<String, usize> = HashMap::new();

        while self.peek().is_some() {
            let mut is_start = false;
            let mut is_accept = false;
            loop {
                match self.peek() {
                    Some(Tok::Ident(kw)) if kw == "start" => {
                        is_start = true;
                        self.pos += 1;
                    }
                    Some(Tok::Ident(kw)) if kw == "accept" => {
                        is_accept = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            let kw = self.ident("`state`")?;
            if kw != "state" {
                return Err(self.err(format!("expected `state`, found `{kw}`")));
            }
            let name = self.ident("state name")?;
            if !state_names.insert(name.clone()) {
                return Err(self.err(format!("state `{name}` declared twice")));
            }
            let idx = states.len();
            states.push(name.clone());
            accepting.push(is_accept);
            if is_start {
                if start.is_some() {
                    return Err(self.err("multiple start states"));
                }
                start = Some(idx);
            }

            match self.peek() {
                Some(Tok::Semi) => {
                    self.pos += 1;
                }
                Some(Tok::Colon) => {
                    self.pos += 1;
                    // arm+ then `;`
                    while self.peek() == Some(&Tok::Pipe) {
                        self.pos += 1;
                        let symbol = self.param_symbol(&mut arities)?;
                        self.expect(&Tok::Arrow, "`->`")?;
                        let to = self.ident("target state name")?;
                        arms.push(SpecArm {
                            from: name.clone(),
                            symbol,
                            to,
                        });
                    }
                    self.expect(&Tok::Semi, "`;`")?;
                }
                other => {
                    return Err(self.err(format!("expected `:` or `;`, found {other:?}")));
                }
            }
        }

        let start = start.ok_or(AutomataError::MissingStartState)?;

        // Validate targets and determinism.
        let mut seen: HashMap<(String, String), String> = HashMap::new();
        for arm in &arms {
            if !state_names.contains(&arm.to) {
                return Err(AutomataError::UnknownState(arm.to.clone()));
            }
            let key = (arm.from.clone(), arm.symbol.name.clone());
            if let Some(prev) = seen.get(&key) {
                if prev != &arm.to {
                    return Err(AutomataError::NondeterministicSpec {
                        state: arm.from.clone(),
                        symbol: arm.symbol.name.clone(),
                    });
                }
            }
            seen.insert(key, arm.to.clone());
        }

        Ok(PropertySpec {
            states,
            start,
            accepting,
            arms,
        })
    }

    fn param_symbol(&mut self, arities: &mut HashMap<String, usize>) -> Result<ParamSymbol> {
        let name = self.ident("symbol name")?;
        let mut params = Vec::new();
        if self.peek() == Some(&Tok::LParen) {
            self.pos += 1;
            loop {
                params.push(self.ident("parameter name")?);
                match self.bump() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::RParen) => break,
                    other => return Err(self.err(format!("expected `,` or `)`, found {other:?}"))),
                }
            }
        }
        match arities.get(&name) {
            Some(&arity) if arity != params.len() => {
                return Err(self.err(format!(
                    "symbol `{name}` used with {} parameter(s) but previously {arity}",
                    params.len()
                )));
            }
            _ => {
                arities.insert(name.clone(), params.len());
            }
        }
        Ok(ParamSymbol { name, params })
    }
}

fn lex(input: &str) -> Result<Vec<(Tok, usize)>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
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
            '#' => {
                // Comment to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            ':' => {
                tokens.push((Tok::Colon, line));
                i += 1;
            }
            ';' => {
                tokens.push((Tok::Semi, line));
                i += 1;
            }
            '|' => {
                tokens.push((Tok::Pipe, line));
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
            ',' => {
                tokens.push((Tok::Comma, line));
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'>') => {
                tokens.push((Tok::Arrow, line));
                i += 2;
            }
            c if c.is_ascii_alphanumeric() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push((Tok::Ident(input[start..i].to_owned()), line));
            }
            _ => {
                // Every byte consumed so far is ASCII, so `i` is a char
                // boundary.
                let other = input[i..].chars().next().unwrap_or_default();
                return Err(AutomataError::ParseSpec {
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

    const PRIVILEGE: &str = "\
start state Unpriv :
    | seteuid_zero -> Priv;

state Priv :
    | seteuid_nonzero -> Unpriv
    | execl -> Error;

accept state Error;";

    #[test]
    fn parses_the_papers_privilege_property() {
        let spec = PropertySpec::parse(PRIVILEGE).unwrap();
        assert_eq!(spec.states(), ["Unpriv", "Priv", "Error"]);
        assert_eq!(spec.start_state(), "Unpriv");
        assert!(spec.is_accepting("Error"));
        assert!(!spec.is_accepting("Priv"));
        assert_eq!(spec.arms().len(), 3);
        assert!(!spec.is_parametric());
    }

    #[test]
    fn compiled_machine_matches_figure_3() {
        let spec = PropertySpec::parse(PRIVILEGE).unwrap();
        let (sigma, dfa) = spec.compile();
        let zero = sigma.lookup("seteuid_zero").unwrap();
        let nonzero = sigma.lookup("seteuid_nonzero").unwrap();
        let execl = sigma.lookup("execl").unwrap();
        assert!(dfa.accepts(&[zero, execl]), "priv + exec = violation");
        assert!(!dfa.accepts(&[zero, nonzero, execl]), "dropped privs: ok");
        assert!(!dfa.accepts(&[execl]), "exec unprivileged: ok");
        assert!(
            dfa.accepts(&[zero, execl, nonzero]),
            "error state is a trap (self-loops)"
        );
    }

    #[test]
    fn parametric_symbols() {
        let spec = PropertySpec::parse(
            "start state Closed : | open(x) -> Opened;\n\
             accept state Opened : | close(x) -> Closed;",
        )
        .unwrap();
        assert!(spec.is_parametric());
        let params = spec.symbol_params();
        assert_eq!(params["open"], ["x".to_owned()]);
    }

    #[test]
    fn missing_start_state_is_an_error() {
        let err = PropertySpec::parse("state A; accept state B;").unwrap_err();
        assert_eq!(err, AutomataError::MissingStartState);
    }

    #[test]
    fn unknown_target_is_an_error() {
        let err = PropertySpec::parse("start state A : | x -> Nowhere;").unwrap_err();
        assert_eq!(err, AutomataError::UnknownState("Nowhere".to_owned()));
    }

    #[test]
    fn duplicate_conflicting_transition_is_an_error() {
        let err = PropertySpec::parse("start state A : | x -> B | x -> C; state B; state C;")
            .unwrap_err();
        assert!(matches!(err, AutomataError::NondeterministicSpec { .. }));
    }

    #[test]
    fn inconsistent_arity_is_an_error() {
        let err = PropertySpec::parse("start state A : | open(x) -> B; state B : | open -> A;")
            .unwrap_err();
        assert!(matches!(err, AutomataError::ParseSpec { .. }));
    }

    #[test]
    fn display_round_trips() {
        for text in [
            PRIVILEGE,
            "start state Closed : | open(x) -> Opened;\naccept state Opened : | close(x) -> Closed;",
            "start accept state Lone;",
        ] {
            let spec = PropertySpec::parse(text).unwrap();
            let printed = spec.to_string();
            let reparsed = PropertySpec::parse(&printed)
                .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
            assert_eq!(spec, reparsed, "printed:\n{printed}");
        }
    }

    #[test]
    fn comments_and_duplicate_states_handled() {
        let spec = PropertySpec::parse("# a comment\nstart accept state A;").unwrap();
        assert!(spec.is_accepting("A"));
        let err = PropertySpec::parse("start state A; state A;").unwrap_err();
        assert!(matches!(err, AutomataError::ParseSpec { .. }));
        // A character outside the ASCII token set is an error, whole.
        for (text, message, line) in [
            ("start accept state $;", "unexpected character '$'", 1),
            (
                "# é\nstart state A : | ö -> A;",
                "unexpected character 'ö'",
                2,
            ),
        ] {
            assert_eq!(
                PropertySpec::parse(text),
                Err(AutomataError::ParseSpec {
                    message: message.to_owned(),
                    line,
                })
            );
        }
    }
}
