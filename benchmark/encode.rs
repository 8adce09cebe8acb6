//! The benchmark's own encodings of a CFG, independent of `rasc-pdmc`:
//! the §6.1 constraints on the forward solver (an oracle), the PDS
//! `post*` run (the MOPS stand-in, another oracle), and the same §6.1
//! constraints as batch-protocol lines for the served path.

use rasc_automata::{Alphabet, Dfa, SymbolId};
use rasc_cfgir::{Cfg, EdgeLabel};
use rasc_core::forward::ForwardSystem;
use rasc_core::Variance;
use rasc_pushdown::PdsChecker;

/// Maps a CFG event (name, arguments) to a property symbol; `None` makes
/// the event irrelevant to the property.
pub type EventMap<'a> = dyn Fn(&str, &[String]) -> Option<SymbolId> + 'a;

/// An extra annotated edge `S_from ⊆^sym S_to` (part of a what-if
/// template); a node numbered past the CFG's is a fresh variable.
pub type Extra = (usize, usize, SymbolId);

fn symbol(label: &EdgeLabel, map: &EventMap<'_>) -> Option<SymbolId> {
    match label {
        EdgeLabel::Plain => None,
        EdgeLabel::Event { name, args } => map(name, args),
    }
}

/// CFG nodes where the property can be in an error state, by the §6.1
/// encoding on the forward solver (§5), with `extra` edges added.
pub fn forward_nodes(cfg: &Cfg, dfa: &Dfa, map: &EventMap<'_>, extra: &[Extra]) -> Vec<usize> {
    let mut sys = ForwardSystem::new(dfa);
    let nodes = extra
        .iter()
        .map(|&(a, b, _)| a.max(b) + 1)
        .fold(cfg.num_nodes(), usize::max);
    let vars: Vec<_> = (0..nodes).map(|i| sys.var(&format!("S{i}"))).collect();
    let pc = sys.constant("pc");
    let entry = cfg
        .entry("main")
        .expect("generated programs have main")
        .entry;
    sys.add_constant(pc, vars[entry.index()]);
    for (from, to, label) in cfg.edges() {
        let ann = match symbol(label, map) {
            Some(s) => sys.word(&[s]),
            None => sys.identity(),
        };
        sys.add_edge(vars[from.index()], vars[to.index()], ann);
    }
    for &(from, to, s) in extra {
        let ann = sys.word(&[s]);
        sys.add_edge(vars[from], vars[to], ann);
    }
    let eps = sys.identity();
    for site in cfg.call_sites() {
        let callee = &cfg.functions()[site.callee.index()];
        let o = sys.declare(&format!("o{}", site.id.index()), &[Variance::Covariant]);
        sys.add_source(
            o,
            &[vars[site.call_node.index()]],
            vars[callee.entry.index()],
            eps,
        )
        .expect("unary constructor");
        sys.add_projection(
            o,
            0,
            vars[callee.exit.index()],
            vars[site.return_node.index()],
            eps,
        )
        .expect("unary constructor");
    }
    sys.solve();
    let occ = sys.constant_occurrence_states(pc);
    (0..vars.len())
        .filter(|&i| occ[vars[i].index()].iter().any(|&s| sys.state_accepting(s)))
        .collect()
}

/// CFG nodes with a reachable error configuration, by pushdown `post*`.
pub fn pds_nodes(cfg: &Cfg, dfa: &Dfa, map: &EventMap<'_>) -> Vec<usize> {
    let checker = PdsChecker::with_event_map(cfg, dfa, "main", map).expect("main exists");
    let mut nodes: Vec<usize> = checker.run().iter().map(|v| v.node.index()).collect();
    nodes.dedup();
    nodes
}

/// Name of node `n`'s set variable in a protocol stream.
pub fn var(prefix: &str, n: usize) -> String {
    format!("{prefix}S{n}")
}

/// The `occurs` query asking whether node `n` is a violation.
pub fn occurs_line(prefix: &str, n: usize) -> String {
    format!(
        r#"{{"cmd":"query","kind":"occurs","var":"{}","cons":"{prefix}pc"}}"#,
        var(prefix, n)
    )
}

/// An `add` line for `S_from ⊆ S_to`, annotated with `sym` when given.
pub fn add_line(prefix: &str, from: usize, to: usize, sym: Option<&str>) -> String {
    let (lhs, rhs) = (var(prefix, from), var(prefix, to));
    match sym {
        Some(s) => format!(r#"{{"cmd":"add","lhs":"{lhs}","rhs":"{rhs}","ann":["{s}"]}}"#),
        None => format!(r#"{{"cmd":"add","lhs":"{lhs}","rhs":"{rhs}"}}"#),
    }
}

/// The §6.1 encoding as batch-protocol lines. Every name carries
/// `prefix`, so several programs can share one session.
pub fn protocol_lines(
    cfg: &Cfg,
    sigma: &Alphabet,
    map: &EventMap<'_>,
    prefix: &str,
) -> Vec<String> {
    let entry = cfg
        .entry("main")
        .expect("generated programs have main")
        .entry;
    let mut lines = vec![format!(r#"{{"cmd":"declare","cons":"{prefix}pc"}}"#)];
    for site in cfg.call_sites() {
        lines.push(format!(
            r#"{{"cmd":"declare","cons":"{prefix}o{}","signature":"+"}}"#,
            site.id.index()
        ));
    }
    lines.push(format!(
        r#"{{"cmd":"add","lhs":"{prefix}pc","rhs":"{}"}}"#,
        var(prefix, entry.index())
    ));
    for (from, to, label) in cfg.edges() {
        let sym = symbol(label, map).map(|s| sigma.name(s));
        lines.push(add_line(prefix, from.index(), to.index(), sym));
    }
    for site in cfg.call_sites() {
        let callee = &cfg.functions()[site.callee.index()];
        let o = format!("{prefix}o{}", site.id.index());
        lines.push(format!(
            r#"{{"cmd":"add","lhs":"{o}({})","rhs":"{}"}}"#,
            var(prefix, site.call_node.index()),
            var(prefix, callee.entry.index())
        ));
        lines.push(format!(
            r#"{{"cmd":"add","lhs":"{o}^-1({})","rhs":"{}"}}"#,
            var(prefix, callee.exit.index()),
            var(prefix, site.return_node.index())
        ));
    }
    lines
}
