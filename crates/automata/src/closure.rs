//! Language-level closures: prefixes, suffixes, and substrings.
//!
//! The paper's solvers operate over annotated domains whose words are not
//! full members of `L(M)`:
//!
//! * a **forward** solver admits *prefixes* of words in `L(M)` (`T^{M^pre}`),
//! * a **backward** solver admits *suffixes*,
//! * a **bidirectional** solver admits arbitrary *substrings*
//!   (`T^{M^sub}`, §2.3).
//!
//! All three closures of a regular language are regular; this module builds
//! their minimal DFAs.

use crate::dfa::{Dfa, StateId};
use crate::nfa::Nfa;

/// The minimal DFA accepting all *prefixes* of words in `L(m)`.
///
/// A word `w` is a prefix of `L(m)` iff some accepting state is reachable
/// from `δ(w, s₀)`, so it suffices to mark every co-reachable state
/// accepting (on the reachable part) and minimize.
pub fn prefix_closure(m: &Dfa) -> Dfa {
    let complete = m.complete();
    let co = complete.coreachable();
    let mut out = complete.clone();
    for s in out.states() {
        if co[s.index()] {
            out.set_accepting(s, true);
        }
    }
    out.minimize()
}

/// The minimal DFA accepting all *suffixes* of words in `L(m)`.
///
/// A word `w` is a suffix iff `δ(w, p)` is accepting for some state `p`
/// reachable from the start; realized with an NFA whose fresh start has
/// ε-edges to every reachable state.
pub fn suffix_closure(m: &Dfa) -> Dfa {
    closure_with(m, true, false)
}

/// The minimal DFA accepting all *substrings* of words in `L(m)`
/// (the machine `M^sub` of the paper's §2.3).
///
/// A word `w` is a substring iff there are states `p, q` with `p` reachable
/// from the start, `δ(w, p) = q`, and an accepting state reachable from `q`.
///
/// # Example
///
/// ```
/// use rasc_automata::{Alphabet, Regex};
/// use rasc_automata::closure::substring_closure;
///
/// let mut sigma = Alphabet::new();
/// sigma.intern("g");
/// sigma.intern("k");
/// let g = sigma.lookup("g").unwrap();
/// let k = sigma.lookup("k").unwrap();
/// // L = words leaving the 1-bit fact set (ends in g with no later k)
/// let m = Regex::parse("(g | k)* g", &sigma)?.compile(&sigma);
/// let sub = substring_closure(&m);
/// // every word over {g,k} is a substring of some member
/// assert!(sub.accepts(&[]));
/// assert!(sub.accepts(&[k, k]));
/// assert!(sub.accepts(&[g, k, g]));
/// # Ok::<(), rasc_automata::AutomataError>(())
/// ```
pub fn substring_closure(m: &Dfa) -> Dfa {
    closure_with(m, true, true)
}

/// Shared construction: optionally allow starting at any reachable state
/// (`any_start`) and optionally accept at any co-reachable state
/// (`any_end`).
fn closure_with(m: &Dfa, any_start: bool, any_end: bool) -> Dfa {
    let complete = m.complete();
    // Trim to useful states: reachable AND co-reachable. Starting or ending
    // in a useless state can never witness a substring.
    let co = complete.coreachable();
    let mut nfa = Nfa::new(complete.alphabet_len());
    let states: Vec<_> = complete.states().map(|_| nfa.add_state()).collect();
    let fresh_start = nfa.add_state();
    nfa.set_start(fresh_start);

    let reach = complete.reachable();
    let useful = |s: StateId| reach[s.index()] && co[s.index()];

    for s in complete.states() {
        if !useful(s) {
            continue;
        }
        if any_start || Some(s) == complete.start() {
            nfa.add_epsilon(fresh_start, states[s.index()]);
        }
        let accepting = if any_end {
            co[s.index()]
        } else {
            complete.is_accepting(s)
        };
        nfa.set_accepting(states[s.index()], accepting);
        for sym_idx in 0..complete.alphabet_len() {
            let sym = crate::alphabet::SymbolId(sym_idx as u32);
            let t = crate::invariant(
                complete.delta(s, sym),
                "complete DFA defines every transition",
            );
            if useful(t) {
                nfa.add_transition(states[s.index()], sym, states[t.index()]);
            }
        }
    }
    nfa.determinize().minimize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::regex::Regex;

    fn setup() -> (Alphabet, Dfa) {
        let sigma = Alphabet::from_names(["a", "b", "c"]);
        // L = a b c
        let m = Regex::parse("a b c", &sigma).unwrap().compile(&sigma);
        (sigma, m)
    }

    #[test]
    fn prefixes_of_abc() {
        let (sigma, m) = setup();
        let (a, b, c) = (
            sigma.lookup("a").unwrap(),
            sigma.lookup("b").unwrap(),
            sigma.lookup("c").unwrap(),
        );
        let pre = prefix_closure(&m);
        for w in [vec![], vec![a], vec![a, b], vec![a, b, c]] {
            assert!(pre.accepts(&w), "{w:?} should be a prefix");
        }
        for w in [vec![b], vec![a, c], vec![a, b, c, c]] {
            assert!(!pre.accepts(&w), "{w:?} should not be a prefix");
        }
    }

    #[test]
    fn suffixes_of_abc() {
        let (sigma, m) = setup();
        let (a, b, c) = (
            sigma.lookup("a").unwrap(),
            sigma.lookup("b").unwrap(),
            sigma.lookup("c").unwrap(),
        );
        let suf = suffix_closure(&m);
        for w in [vec![], vec![c], vec![b, c], vec![a, b, c]] {
            assert!(suf.accepts(&w), "{w:?} should be a suffix");
        }
        for w in [vec![a], vec![b], vec![a, b]] {
            assert!(!suf.accepts(&w), "{w:?} should not be a suffix");
        }
    }

    #[test]
    fn substrings_of_abc() {
        let (sigma, m) = setup();
        let (a, b, c) = (
            sigma.lookup("a").unwrap(),
            sigma.lookup("b").unwrap(),
            sigma.lookup("c").unwrap(),
        );
        let sub = substring_closure(&m);
        for w in [
            vec![],
            vec![a],
            vec![b],
            vec![c],
            vec![a, b],
            vec![b, c],
            vec![a, b, c],
        ] {
            assert!(sub.accepts(&w), "{w:?} should be a substring");
        }
        for w in [vec![a, c], vec![c, a], vec![b, b]] {
            assert!(!sub.accepts(&w), "{w:?} should not be a substring");
        }
    }

    #[test]
    fn closures_of_starred_language_cover_everything() {
        let sigma = Alphabet::from_names(["a", "b"]);
        let m = Regex::parse("(a | b)*", &sigma).unwrap().compile(&sigma);
        let a = sigma.lookup("a").unwrap();
        let b = sigma.lookup("b").unwrap();
        for closure in [
            prefix_closure(&m),
            suffix_closure(&m),
            substring_closure(&m),
        ] {
            assert!(closure.accepts(&[]));
            assert!(closure.accepts(&[a, b, b, a]));
        }
    }

    #[test]
    fn substring_closure_of_empty_language_is_empty() {
        let sigma = Alphabet::from_names(["a"]);
        // DFA with no accepting state.
        let mut m = Dfa::new(sigma.len());
        let s = m.add_state(false);
        m.set_start(s);
        m.set_transition(s, sigma.lookup("a").unwrap(), s);
        let sub = substring_closure(&m);
        assert!(!sub.accepts(&[]));
        assert!(!sub.accepts(&[sigma.lookup("a").unwrap()]));
    }
}
