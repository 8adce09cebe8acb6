//! The end-to-end direct pushdown model checker (the MOPS stand-in).
//!
//! Following §6 of the paper (and MOPS itself): the program is a pushdown
//! automaton whose stack records unreturned call sites, composed with a
//! property FSM; the checker decides whether a configuration whose control
//! component is an accepting (error) property state is reachable.
//!
//! Controls of the [`Pds`] are property-machine states; stack symbols are
//! CFG nodes (current node on top, return addresses below).

use rasc_automata::{Alphabet, Dfa, StateId, SymbolId};
use rasc_cfgir::{Cfg, CfgError, EdgeLabel, NodeId};

use crate::pautomaton::ConfigAutomaton;
use crate::pds::Pds;
use crate::saturation::post_star;

/// A reachable error configuration: property state `state` at CFG node
/// `node` (top of stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The CFG node where the property automaton is in an error state.
    pub node: NodeId,
    /// The accepting (error) property state reached.
    pub state: StateId,
}

/// A direct pushdown model checker for a MiniImp CFG and a property DFA.
///
/// # Example
///
/// ```
/// use rasc_automata::PropertySpec;
/// use rasc_cfgir::{Cfg, Program};
/// use rasc_pushdown::PdsChecker;
///
/// let program = Program::parse(
///     "fn main() { event seteuid_zero; event execl; }",
/// ).unwrap();
/// let cfg = Cfg::build(&program).unwrap();
/// let spec = PropertySpec::parse(
///     "start state Unpriv : | seteuid_zero -> Priv;\n\
///      state Priv : | seteuid_nonzero -> Unpriv | execl -> Error;\n\
///      accept state Error;",
/// ).unwrap();
/// let (sigma, dfa) = spec.compile();
/// let checker = PdsChecker::new(&cfg, &sigma, &dfa, "main").unwrap();
/// let violations = checker.run();
/// assert!(!violations.is_empty());
/// ```
#[derive(Debug)]
pub struct PdsChecker {
    pds: Pds,
    accepting: Vec<bool>,
    entry_node: u32,
    start_control: u32,
}

impl PdsChecker {
    /// Builds the checker for `property` (over alphabet `sigma`), starting
    /// at function `entry`.
    ///
    /// Events whose name is not in `sigma` are irrelevant to the property
    /// (plain edges). Event arguments are ignored; use
    /// [`PdsChecker::with_event_map`] for parametric instantiation.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::MissingEntry`] if `entry` does not exist.
    pub fn new(
        cfg: &Cfg,
        sigma: &Alphabet,
        property: &Dfa,
        entry: &str,
    ) -> Result<PdsChecker, CfgError> {
        Self::with_event_map(cfg, property, entry, |name, _args| sigma.lookup(name))
    }

    /// Like [`PdsChecker::new`], with a custom mapping from CFG events to
    /// property symbols. Returning `None` makes the event irrelevant.
    ///
    /// Parametric properties (§6.4) are checked by instantiating the map
    /// per parameter value, mirroring MOPS's per-instantiation checking:
    ///
    /// ```ignore
    /// PdsChecker::with_event_map(&cfg, &dfa, "main", |name, args| {
    ///     (args == [label]).then(|| sigma.lookup(name)).flatten()
    /// })
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::MissingEntry`] if `entry` does not exist.
    pub fn with_event_map(
        cfg: &Cfg,
        property: &Dfa,
        entry: &str,
        event_map: impl Fn(&str, &[String]) -> Option<SymbolId>,
    ) -> Result<PdsChecker, CfgError> {
        let mut machine = property.complete();
        // Without a start state the language is empty: start in a fresh
        // rejecting state that no event leaves.
        let start = match machine.start() {
            Some(start) => start,
            None => machine.add_state(false),
        };
        let n_controls = machine.len();
        let n_stack = cfg.num_nodes();
        let mut pds = Pds::new(n_controls, n_stack);

        for (from, to, label) in cfg.edges() {
            let sym = match label {
                EdgeLabel::Plain => None,
                EdgeLabel::Event { name, args } => event_map(name, args),
            };
            for q in 0..n_controls as u32 {
                let q2 = match sym {
                    Some(s) => {
                        // An undefined transition ends the run: no rule.
                        let Some(t) = machine.delta(StateId::from_index(q as usize), s) else {
                            continue;
                        };
                        t.index() as u32
                    }
                    None => q,
                };
                pds.swap_rule(q, from.index() as u32, q2, to.index() as u32);
            }
        }
        for site in cfg.call_sites() {
            let callee = &cfg.functions()[site.callee.index()];
            for q in 0..n_controls as u32 {
                pds.push_rule(
                    q,
                    site.call_node.index() as u32,
                    q,
                    callee.entry.index() as u32,
                    site.return_node.index() as u32,
                );
            }
        }
        for f in cfg.functions() {
            for q in 0..n_controls as u32 {
                pds.pop_rule(q, f.exit.index() as u32, q);
            }
        }

        let entry_node = cfg.entry(entry)?.entry.index() as u32;
        let accepting = (0..n_controls)
            .map(|i| machine.is_accepting(StateId::from_index(i)))
            .collect();
        Ok(PdsChecker {
            pds,
            accepting,
            entry_node,
            start_control: start.index() as u32,
        })
    }

    /// Saturates `post*` from the initial configuration and returns every
    /// reachable error configuration head.
    pub fn run(&self) -> Vec<Violation> {
        let mut init = ConfigAutomaton::new(self.pds.n_controls());
        let f = init.add_state();
        init.add_transition(self.start_control, self.entry_node, f);
        init.set_final(f);
        let reach = post_star(&self.pds, &init);

        // States from which a final state is reachable (so the stack suffix
        // below the head can complete).
        let mut live = vec![false; reach.n_states()];
        // Reverse reachability to finals.
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); reach.n_states()];
        for (from, _gamma, to) in reach.transitions() {
            rev[to as usize].push(from);
        }
        let mut queue: Vec<u32> = (0..reach.n_states() as u32)
            .filter(|&q| reach.is_final(q))
            .collect();
        for &q in &queue {
            live[q as usize] = true;
        }
        while let Some(q) = queue.pop() {
            for &p in &rev[q as usize] {
                if !live[p as usize] {
                    live[p as usize] = true;
                    queue.push(p);
                }
            }
        }

        let mut out = Vec::new();
        for (from, gamma, to) in reach.transitions() {
            if (from as usize) < self.accepting.len()
                && self.accepting[from as usize]
                && live[to as usize]
            {
                out.push(Violation {
                    node: node_id(gamma),
                    state: StateId::from_index(from as usize),
                });
            }
        }
        out.sort_by_key(|v| (v.node, v.state));
        out.dedup();
        out
    }

    /// The number of PDS rules (a workload-size measure for benchmarks).
    pub fn num_rules(&self) -> usize {
        self.pds.rules().len()
    }

    /// Whether any error configuration is reachable, decided *backward*
    /// with [`pre_star`](crate::pre_star): saturate the predecessors of
    /// `⟨q_err, Γ*⟩` for every accepting control and test whether the
    /// initial configuration is among them.
    ///
    /// Semantically equivalent to `!self.run().is_empty()`; exists as an
    /// independently-implemented oracle (and is the cheaper query when one
    /// only needs a yes/no answer for few error states).
    pub fn violated_backward(&self) -> bool {
        // Target: ⟨q, w⟩ for every accepting control q and any stack w.
        let mut target = ConfigAutomaton::new(self.pds.n_controls());
        let sink = target.add_state();
        target.set_final(sink);
        let mut any_error = false;
        for q in 0..self.pds.n_controls() as u32 {
            if self.accepting[q as usize] {
                any_error = true;
                target.set_final(q);
                for gamma in 0..self.pds.n_stack() as u32 {
                    target.add_transition(q, gamma, sink);
                }
            }
        }
        if !any_error {
            return false;
        }
        for gamma in 0..self.pds.n_stack() as u32 {
            target.add_transition(sink, gamma, sink);
        }
        let pre = crate::pre_star(&self.pds, &target);
        pre.accepts(self.start_control, &[self.entry_node])
    }
}

fn node_id(raw: u32) -> NodeId {
    // NodeId's constructor is crate-private in rasc-cfgir; round-trip
    // through the public index-based representation.
    NodeId::from_index(raw as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasc_automata::PropertySpec;
    use rasc_cfgir::Program;

    const PRIVILEGE: &str = "\
start state Unpriv :
    | seteuid_zero -> Priv;
state Priv :
    | seteuid_nonzero -> Unpriv
    | execl -> Error;
accept state Error;";

    fn check(src: &str) -> Vec<Violation> {
        let cfg = Cfg::build(&Program::parse(src).unwrap()).unwrap();
        let (sigma, dfa) = PropertySpec::parse(PRIVILEGE).unwrap().compile();
        PdsChecker::new(&cfg, &sigma, &dfa, "main").unwrap().run()
    }

    #[test]
    fn section_6_3_violation_found() {
        let violations = check(
            "fn main() {
                s1: event seteuid_zero;
                if (*) { s3: event seteuid_nonzero; } else { s4: skip; }
                s5: event execl;
                s6: skip;
            }",
        );
        assert!(!violations.is_empty(), "privileged exec on the else path");
    }

    #[test]
    fn a_property_without_a_start_state_is_never_violated() {
        let cfg = Cfg::build(&Program::parse("fn main() { event execl; }").unwrap()).unwrap();
        let (sigma, dfa) = PropertySpec::parse(PRIVILEGE).unwrap().compile();
        let mut startless = Dfa::new(sigma.len());
        for s in dfa.states() {
            startless.add_state(dfa.is_accepting(s));
        }
        let checker = PdsChecker::new(&cfg, &sigma, &startless, "main").unwrap();
        assert!(checker.run().is_empty());
        assert!(!checker.violated_backward());
    }

    #[test]
    fn dropping_privileges_on_all_paths_is_safe() {
        let violations = check(
            "fn main() {
                event seteuid_zero;
                if (*) { event seteuid_nonzero; } else { event seteuid_nonzero; }
                event execl;
            }",
        );
        assert!(violations.is_empty());
    }

    #[test]
    fn interprocedural_violation_through_call() {
        let violations = check(
            "fn grant() { event seteuid_zero; }
             fn main() { grant(); event execl; }",
        );
        assert!(!violations.is_empty(), "privilege acquired in callee");
    }

    #[test]
    fn context_sensitivity_no_false_positive() {
        // The exec happens only in a context where privileges were
        // dropped; a context-insensitive analysis would flag it.
        let violations = check(
            "fn doexec() { event execl; }
             fn main() {
                 event seteuid_zero;
                 event seteuid_nonzero;
                 doexec();
             }",
        );
        assert!(violations.is_empty());
    }

    #[test]
    fn backward_check_agrees_with_forward() {
        let programs = [
            "fn main() { s1: event seteuid_zero; s5: event execl; }",
            "fn main() { event seteuid_zero; event seteuid_nonzero; event execl; }",
            "fn f() { event execl; } fn main() { event seteuid_zero; f(); }",
            "fn rec() { if (*) { rec(); } else { event execl; } }
             fn main() { event seteuid_zero; rec(); }",
            "fn main() { while (*) { event seteuid_zero; } }",
        ];
        let (sigma, dfa) = PropertySpec::parse(PRIVILEGE).unwrap().compile();
        for src in programs {
            let cfg = Cfg::build(&Program::parse(src).unwrap()).unwrap();
            let checker = PdsChecker::new(&cfg, &sigma, &dfa, "main").unwrap();
            let forward = !checker.run().is_empty();
            let backward = checker.violated_backward();
            assert_eq!(forward, backward, "post* vs pre* disagree on:\n{src}");
        }
    }

    #[test]
    fn recursion_handled() {
        let violations = check(
            "fn rec() { if (*) { rec(); } else { event execl; } }
             fn main() { event seteuid_zero; rec(); }",
        );
        assert!(!violations.is_empty(), "exec reachable through recursion");
    }
}
