//! Property-based tests for the automata substrate: regex compilation,
//! minimization, closures, transition monoids, and the gen/kill algebra.

use rasc::automata::closure::{prefix_closure, substring_closure, suffix_closure};
use rasc::automata::{Alphabet, Dfa, Monoid, Regex, StateId, SymbolId};
use rasc::constraints::algebra::{Algebra, GenKillAlgebra};
use rasc_devtools::{forall, prop_assert, prop_assert_eq, Config, Rng, Unshrunk};

fn sigma3() -> Alphabet {
    Alphabet::from_names(["a", "b", "c"])
}

/// A random regex AST over a 3-symbol alphabet, with bounded depth.
fn arb_regex(rng: &mut Rng, depth: usize) -> Regex {
    let leaf = depth == 0 || rng.gen_bool(0.3);
    if leaf {
        if rng.gen_bool(0.25) {
            return Regex::Epsilon;
        }
        return Regex::Symbol(SymbolId::from_index(rng.gen_range(0..3)));
    }
    match rng.gen_range(0..5) {
        0 => Regex::Concat(
            Box::new(arb_regex(rng, depth - 1)),
            Box::new(arb_regex(rng, depth - 1)),
        ),
        1 => Regex::Alt(
            Box::new(arb_regex(rng, depth - 1)),
            Box::new(arb_regex(rng, depth - 1)),
        ),
        2 => Regex::Star(Box::new(arb_regex(rng, depth - 1))),
        3 => Regex::Opt(Box::new(arb_regex(rng, depth - 1))),
        _ => Regex::Plus(Box::new(arb_regex(rng, depth - 1))),
    }
}

fn arb_word(rng: &mut Rng) -> Vec<SymbolId> {
    (0..rng.gen_range(0..8))
        .map(|_| SymbolId::from_index(rng.gen_range(0..3)))
        .collect()
}

fn arb_words(rng: &mut Rng) -> Vec<Vec<SymbolId>> {
    (0..rng.gen_range(1..10)).map(|_| arb_word(rng)).collect()
}

#[test]
fn nfa_and_minimized_dfa_agree() {
    forall(
        "nfa_and_minimized_dfa_agree",
        Config::cases(128),
        |rng| (Unshrunk(arb_regex(rng, 4)), arb_words(rng)),
        |(Unshrunk(re), words)| {
            let sigma = sigma3();
            let nfa = re.to_nfa(&sigma);
            let dfa = re.compile(&sigma);
            for w in words {
                prop_assert_eq!(nfa.accepts(w), dfa.accepts(w), "word {w:?}");
            }
            Ok(())
        },
    );
}

#[test]
fn minimization_is_idempotent_and_canonical() {
    forall(
        "minimization_is_idempotent_and_canonical",
        Config::cases(128),
        |rng| Unshrunk(arb_regex(rng, 4)),
        |Unshrunk(re)| {
            let sigma = sigma3();
            let m1 = re.compile(&sigma);
            let m2 = m1.minimize();
            prop_assert_eq!(
                m1.len(),
                m2.len(),
                "minimize is idempotent on minimal machines"
            );
            prop_assert!(m1.equivalent(&m2));
            Ok(())
        },
    );
}

/// A random partial DFA: 1–40 states, 1–4 symbols, some transitions
/// undefined, targets drawn from a prefix of the states (so some states
/// are unreachable and some are equivalent), and sometimes no start.
fn arb_partial_dfa(rng: &mut Rng) -> Dfa {
    let n = rng.gen_range(1..41);
    let k = rng.gen_range(1..5);
    let accept_p = rng.gen_f64();
    let defined_p = 0.4 + 0.6 * rng.gen_f64();
    let targets = rng.gen_range(1..n + 1);
    let mut dfa = Dfa::new(k);
    for _ in 0..n {
        dfa.add_state(rng.gen_bool(accept_p));
    }
    for s in 0..n {
        for sym in 0..k {
            if rng.gen_bool(defined_p) {
                let t = StateId::from_index(rng.gen_range(0..targets));
                dfa.set_transition(StateId::from_index(s), SymbolId::from_index(sym), t);
            }
        }
    }
    if rng.gen_bool(0.9) {
        dfa.set_start(StateId::from_index(rng.gen_range(0..n)));
    }
    dfa
}

/// The minimal DFA by pairwise table filling (Myhill–Nerode) on the
/// completed, reachable part, with states numbered by their first
/// reachable member: an independent reference for `Dfa::minimize`.
fn table_filling_minimum(dfa: &Dfa) -> Dfa {
    let k = dfa.alphabet_len();
    let m = dfa.complete();
    let delta = |s: usize, sym: usize| {
        m.delta(StateId::from_index(s), SymbolId::from_index(sym))
            .expect("complete")
            .index()
    };
    let accepting = |s: usize| m.is_accepting(StateId::from_index(s));
    let mut reachable = vec![false; m.len()];
    let mut stack: Vec<usize> = m.start().map(StateId::index).into_iter().collect();
    for &s in &stack {
        reachable[s] = true;
    }
    while let Some(s) = stack.pop() {
        for sym in 0..k {
            let t = delta(s, sym);
            if !reachable[t] {
                reachable[t] = true;
                stack.push(t);
            }
        }
    }
    let states: Vec<usize> = (0..m.len()).filter(|&s| reachable[s]).collect();
    let mut out = Dfa::new(k);
    let Some(start) = m.start() else {
        let dead = out.add_state(false);
        out.set_start(dead);
        for sym in 0..k {
            out.set_transition(dead, SymbolId::from_index(sym), dead);
        }
        return out;
    };
    // distinct[p][q]: some word tells p and q apart.
    let mut distinct = vec![vec![false; m.len()]; m.len()];
    for &p in &states {
        for &q in &states {
            distinct[p][q] = accepting(p) != accepting(q);
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &p in &states {
            for &q in &states {
                if !distinct[p][q] && (0..k).any(|sym| distinct[delta(p, sym)][delta(q, sym)]) {
                    distinct[p][q] = true;
                    changed = true;
                }
            }
        }
    }
    let mut class = vec![usize::MAX; m.len()];
    // The first reachable member of each class, in class order.
    let mut members: Vec<usize> = Vec::new();
    for &p in &states {
        class[p] = match members.iter().find(|&&q| !distinct[p][q]) {
            Some(&q) => class[q],
            None => {
                members.push(p);
                out.add_state(accepting(p)).index()
            }
        };
    }
    for &p in &members {
        for sym in 0..k {
            out.set_transition(
                StateId::from_index(class[p]),
                SymbolId::from_index(sym),
                StateId::from_index(class[delta(p, sym)]),
            );
        }
    }
    out.set_start(StateId::from_index(class[start.index()]));
    out
}

#[test]
fn minimize_matches_table_filling_on_random_partial_dfas() {
    forall(
        "minimize_matches_table_filling_on_random_partial_dfas",
        Config::cases(512),
        |rng| Unshrunk(arb_partial_dfa(rng)),
        |Unshrunk(dfa)| {
            let min = dfa.minimize();
            // Whole-machine equality pins the state numbering too, which
            // snapshot images and `describe` output depend on.
            prop_assert_eq!(&min, &table_filling_minimum(dfa));
            prop_assert_eq!(&min.minimize(), &min, "minimize is idempotent");
            prop_assert!(min.equivalent(dfa));
            Ok(())
        },
    );
}

#[test]
fn closures_contain_the_right_fragments() {
    forall(
        "closures_contain_the_right_fragments",
        Config::cases(128),
        |rng| (Unshrunk(arb_regex(rng, 4)), arb_word(rng)),
        |(Unshrunk(re), word)| {
            let sigma = sigma3();
            let dfa = re.compile(&sigma);
            if dfa.accepts(word) {
                let pre = prefix_closure(&dfa);
                let suf = suffix_closure(&dfa);
                let sub = substring_closure(&dfa);
                for i in 0..=word.len() {
                    prop_assert!(pre.accepts(&word[..i]), "prefix {:?}", &word[..i]);
                    prop_assert!(suf.accepts(&word[i..]), "suffix {:?}", &word[i..]);
                    for j in i..=word.len() {
                        prop_assert!(sub.accepts(&word[i..j]), "substring {:?}", &word[i..j]);
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn monoid_of_word_matches_machine_run() {
    forall(
        "monoid_of_word_matches_machine_run",
        Config::cases(128),
        |rng| (Unshrunk(arb_regex(rng, 4)), arb_word(rng)),
        |(Unshrunk(re), word)| {
            let sigma = sigma3();
            let dfa = re.compile(&sigma);
            let mut monoid = Monoid::lazy_of_dfa(&dfa);
            let f = monoid.of_word(word);
            prop_assert_eq!(monoid.is_accepting(f), dfa.accepts(word));
            let direct = dfa.run_from(dfa.start().unwrap(), word).unwrap();
            prop_assert_eq!(monoid.forward_class(f), direct);
            Ok(())
        },
    );
}

#[test]
fn monoid_composition_is_associative() {
    forall(
        "monoid_composition_is_associative",
        Config::cases(128),
        |rng| {
            (
                Unshrunk(arb_regex(rng, 4)),
                arb_word(rng),
                arb_word(rng),
                arb_word(rng),
            )
        },
        |(Unshrunk(re), w1, w2, w3)| {
            let sigma = sigma3();
            let dfa = re.compile(&sigma);
            let mut monoid = Monoid::lazy_of_dfa(&dfa);
            let (f1, f2, f3) = (monoid.of_word(w1), monoid.of_word(w2), monoid.of_word(w3));
            let left = {
                let f21 = monoid.compose(f2, f1);
                monoid.compose(f3, f21)
            };
            let right = {
                let f32 = monoid.compose(f3, f2);
                monoid.compose(f32, f1)
            };
            prop_assert_eq!(left, right);
            // And composition tracks concatenation.
            let mut cat = w1.clone();
            cat.extend(w2);
            cat.extend(w3);
            prop_assert_eq!(monoid.of_word(&cat), left);
            Ok(())
        },
    );
}

#[test]
fn product_is_intersection() {
    forall(
        "product_is_intersection",
        Config::cases(128),
        |rng| {
            (
                Unshrunk(arb_regex(rng, 4)),
                Unshrunk(arb_regex(rng, 4)),
                arb_words(rng),
            )
        },
        |(Unshrunk(re1), Unshrunk(re2), words)| {
            let sigma = sigma3();
            let d1 = re1.compile(&sigma);
            let d2 = re2.compile(&sigma);
            let p = d1.product(&d2);
            for w in words {
                prop_assert_eq!(p.accepts(w), d1.accepts(w) && d2.accepts(w), "word {w:?}");
            }
            Ok(())
        },
    );
}

/// Gen/kill words over n facts, as (fact, is_gen) pairs.
fn arb_genkill_word(rng: &mut Rng, n_facts: usize) -> Vec<(u32, bool)> {
    (0..rng.gen_range(0..12))
        .map(|_| (rng.gen_range(0..n_facts) as u32, rng.gen_bool(0.5)))
        .collect()
}

#[test]
fn genkill_algebra_matches_per_fact_one_bit_machines() {
    forall(
        "genkill_algebra_matches_per_fact_one_bit_machines",
        Config::cases(128),
        |rng| arb_genkill_word(rng, 4),
        |word| {
            // The §3.3 claim: the n-bit language is the product of 1-bit
            // machines. The dedicated algebra must agree with running each
            // fact's machine over the word.
            let mut alg = GenKillAlgebra::new(4);
            let mut composed = alg.identity();
            for &(fact, is_gen) in word {
                let t = if is_gen {
                    alg.transfer(1 << fact, 0)
                } else {
                    alg.transfer(0, 1 << fact)
                };
                composed = alg.compose(t, composed);
            }
            for fact in 0..4u32 {
                let mut sigma = Alphabet::new();
                let g = sigma.intern("g");
                let k = sigma.intern("k");
                let machine = Dfa::one_bit(&sigma, g, k);
                // Project the word onto this fact's machine.
                let projected: Vec<SymbolId> = word
                    .iter()
                    .filter(|&&(f, _)| f == fact)
                    .map(|&(_, is_gen)| if is_gen { g } else { k })
                    .collect();
                let expected = machine.accepts(&projected);
                let got = alg.apply(composed, 0) & (1 << fact) != 0;
                prop_assert_eq!(got, expected, "fact {fact}");
            }
            Ok(())
        },
    );
}

#[test]
fn genkill_composition_matches_application() {
    forall(
        "genkill_composition_matches_application",
        Config::cases(128),
        |rng| {
            let masks: Vec<(u64, u64)> = (0..rng.gen_range(1..6))
                .map(|_| (rng.next_u64() % 256, rng.next_u64() % 256))
                .collect();
            (masks, rng.next_u64() % 256)
        },
        |(masks, input)| {
            let mut alg = GenKillAlgebra::new(8);
            let mut composed = alg.identity();
            let mut expected = *input;
            for &(g, k) in masks {
                let t = alg.transfer(g, k);
                expected = alg.apply(t, expected);
                composed = alg.compose(t, composed);
            }
            prop_assert_eq!(alg.apply(composed, *input), expected);
            Ok(())
        },
    );
}
