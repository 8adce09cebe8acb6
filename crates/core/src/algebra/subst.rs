//! Parametric annotations via substitution environments (§6.4).
//!
//! Properties like the file-state automaton (Figure 5) have *parametric*
//! transitions `open(x)` / `close(x)`: the parameter must match between the
//! open and the close. Instead of instantiating the property automaton per
//! parameter value (impossible — the automaton is compiled away before the
//! program is seen), the solver composes *substitution environments*: maps
//! from instantiated parameters to representative functions, plus a
//! *residual* function recording non-parametric transitions.

use std::collections::HashMap;
use std::collections::{BTreeMap, BTreeSet};

use rasc_automata::{Dfa, FnId, Monoid, SymbolId};

use super::{Algebra, AnnId};

/// An interned parameter name (e.g. the `x` in `open(x)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(u32);

/// An interned parameter *value* label (e.g. the program variable `fd1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(u32);

/// The key of a substitution-environment entry: a consistent set of
/// `(parameter, label)` instantiations, e.g. `(x: fd1)` or
/// `(x: "i", y: "j")`.
pub type EntryKey = BTreeMap<ParamId, LabelId>;

/// A substitution environment `[(x: fd₁) ↦ f; (x: fd₂) ↦ g | r]`:
/// per-instantiation representative functions plus a residual.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubstEnv {
    /// Entries sorted by key for canonical interning.
    entries: Vec<(EntryKey, FnId)>,
    /// The residual function (non-parametric transitions already folded
    /// into every existing entry).
    residual: FnId,
}

impl SubstEnv {
    /// The entries, sorted by key.
    pub fn entries(&self) -> &[(EntryKey, FnId)] {
        &self.entries
    }

    /// The residual function.
    pub fn residual(&self) -> FnId {
        self.residual
    }

    /// `φ(i)`: the function of the *largest* entry `i` is compatible with,
    /// defaulting to the residual (every key is compatible with the
    /// residual by convention).
    ///
    /// Entry `i` is compatible with entry `j` (`i ≼ j`) when all common
    /// parameters agree and `i` has at least as many instantiations as `j`.
    pub fn lookup(&self, key: &EntryKey) -> FnId {
        self.entries
            .iter()
            .filter(|(k, _)| compatible(key, k))
            .max_by_key(|(k, _)| (k.len(), std::cmp::Reverse(k.clone())))
            .map_or(self.residual, |(_, f)| *f)
    }
}

/// `i ≼ j`: common parameters agree and `|i| ≥ |j|`.
fn compatible(i: &EntryKey, j: &EntryKey) -> bool {
    if i.len() < j.len() {
        return false;
    }
    j.iter().all(|(p, l)| i.get(p).is_none_or(|l2| l2 == l))
}

/// Two keys can be merged when shared parameters agree.
fn consistent(a: &EntryKey, b: &EntryKey) -> bool {
    a.iter().all(|(p, l)| b.get(p).is_none_or(|l2| l2 == l))
}

fn merge(a: &EntryKey, b: &EntryKey) -> EntryKey {
    let mut out = a.clone();
    for (&p, &l) in b {
        out.insert(p, l);
    }
    out
}

/// The parametric annotation algebra: substitution environments over the
/// transition monoid of a base property automaton.
///
/// # Example
///
/// The paper's Figure 5–7 file-state property:
///
/// ```
/// use rasc_automata::PropertySpec;
/// use rasc_core::algebra::{Algebra, SubstAlgebra};
///
/// let spec = PropertySpec::parse(
///     "start state Closed : | open(x) -> Opened;\n\
///      accept state Opened : | close(x) -> Closed;",
/// ).unwrap();
/// let (sigma, dfa) = spec.compile();
/// let mut alg = SubstAlgebra::new(&dfa);
/// let x = alg.param("x");
/// let fd1 = alg.label("fd1");
/// let fd2 = alg.label("fd2");
/// let open = sigma.lookup("open").unwrap();
/// let close = sigma.lookup("close").unwrap();
///
/// let phi1 = alg.instantiate(open, &[(x, fd1)]);
/// let phi2 = alg.instantiate(open, &[(x, fd2)]);
/// let phi3 = alg.instantiate(close, &[(x, fd1)]);
/// let path = {
///     let p = alg.compose(phi2, phi1);
///     alg.compose(phi3, p)
/// };
/// // fd2 is still open (an accepting instantiation), fd1 is closed.
/// assert!(alg.is_accepting(path));
/// let open_params = alg.accepting_instances(path);
/// assert_eq!(open_params.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SubstAlgebra {
    monoid: Monoid,
    params: Vec<String>,
    labels: Vec<String>,
    envs: Vec<SubstEnv>,
    by_env: HashMap<SubstEnv, AnnId>,
    memo: HashMap<(AnnId, AnnId), AnnId>,
}

impl SubstAlgebra {
    /// Creates the algebra over the property automaton `machine`.
    ///
    /// Unlike [`super::MonoidAlgebra`], the machine is *not* minimized:
    /// parametric properties report which instantiation is in which state,
    /// so state identities matter. It is completed.
    pub fn new(machine: &Dfa) -> SubstAlgebra {
        let monoid = Monoid::lazy_of_dfa(&machine.complete());
        let mut alg = SubstAlgebra {
            monoid,
            params: Vec::new(),
            labels: Vec::new(),
            envs: Vec::new(),
            by_env: HashMap::new(),
            memo: HashMap::new(),
        };
        let identity = SubstEnv {
            entries: Vec::new(),
            residual: alg.monoid.identity(),
        };
        alg.intern(identity);
        alg
    }

    /// Interns a parameter name.
    pub fn param(&mut self, name: &str) -> ParamId {
        if let Some(i) = self.params.iter().position(|p| p == name) {
            return ParamId(i as u32);
        }
        self.params.push(name.to_owned());
        ParamId((self.params.len() - 1) as u32)
    }

    /// Interns a parameter-value label (e.g. a program variable name).
    pub fn label(&mut self, name: &str) -> LabelId {
        if let Some(i) = self.labels.iter().position(|p| p == name) {
            return LabelId(i as u32);
        }
        self.labels.push(name.to_owned());
        LabelId((self.labels.len() - 1) as u32)
    }

    /// The name of a parameter.
    pub fn param_name(&self, p: ParamId) -> &str {
        &self.params[p.0 as usize]
    }

    /// The name of a label.
    pub fn label_name(&self, l: LabelId) -> &str {
        &self.labels[l.0 as usize]
    }

    /// A *non-parametric* annotation: the empty environment with residual
    /// `f_σ` (the paper's graceful degradation — `[ | r]` is written `r`).
    pub fn plain(&mut self, sym: SymbolId) -> AnnId {
        let f = self.monoid.generator(sym);
        self.intern(SubstEnv {
            entries: Vec::new(),
            residual: f,
        })
    }

    /// A parametric annotation: the symbol `sym` instantiated at the given
    /// `(parameter, label)` pairs, e.g. `open(x := fd1)`.
    ///
    /// Produces `[(x: fd1) ↦ f_σ | f_ε]` (Figure 7).
    pub fn instantiate(&mut self, sym: SymbolId, pairs: &[(ParamId, LabelId)]) -> AnnId {
        let f = self.monoid.generator(sym);
        let key: EntryKey = pairs.iter().copied().collect();
        let identity = self.monoid.identity();
        self.intern(SubstEnv {
            entries: vec![(key, f)],
            residual: identity,
        })
    }

    /// The environment behind an annotation id.
    pub fn env(&self, a: AnnId) -> &SubstEnv {
        &self.envs[a.index()]
    }

    /// The instantiations whose representative function is accepting —
    /// e.g. the file descriptors still open at this program point.
    pub fn accepting_instances(&self, a: AnnId) -> Vec<(EntryKey, FnId)> {
        self.envs[a.index()]
            .entries
            .iter()
            .filter(|(_, f)| self.monoid.is_accepting(*f))
            .cloned()
            .collect()
    }

    /// The underlying transition monoid.
    pub fn monoid(&self) -> &Monoid {
        &self.monoid
    }

    fn intern(&mut self, env: SubstEnv) -> AnnId {
        if let Some(&id) = self.by_env.get(&env) {
            return id;
        }
        let id = AnnId(crate::id_u32(self.envs.len(), "annotations"));
        self.by_env.insert(env.clone(), id);
        self.envs.push(env);
        id
    }
}

impl Algebra for SubstAlgebra {
    /// The environment itself, so a class scan composes whole
    /// environments.
    type Class = AnnId;

    fn identity(&self) -> AnnId {
        AnnId(0)
    }

    fn compose(&mut self, later: AnnId, earlier: AnnId) -> AnnId {
        if later == self.identity() {
            return earlier;
        }
        if earlier == self.identity() {
            return later;
        }
        if let Some(&id) = self.memo.get(&(later, earlier)) {
            return id;
        }
        let phi1 = self.envs[later.index()].clone();
        let phi2 = self.envs[earlier.index()].clone();

        // Candidate result keys: all consistent merges of an entry (or the
        // implicit residual, ∅) from each side.
        let empty = EntryKey::new();
        let keys1: Vec<&EntryKey> = phi1
            .entries
            .iter()
            .map(|(k, _)| k)
            .chain([&empty])
            .collect();
        let keys2: Vec<&EntryKey> = phi2
            .entries
            .iter()
            .map(|(k, _)| k)
            .chain([&empty])
            .collect();
        // A `BTreeSet` both dedups the merges and yields them sorted.
        let mut result_keys: BTreeSet<EntryKey> = BTreeSet::new();
        for k1 in &keys1 {
            for k2 in &keys2 {
                if consistent(k1, k2) {
                    let m = merge(k1, k2);
                    if !m.is_empty() {
                        result_keys.insert(m);
                    }
                }
            }
        }

        // (φ₁ ∘ φ₂)(i) = φ₁(i) ∘ φ₂(i).
        let mut entries = Vec::with_capacity(result_keys.len());
        for key in result_keys {
            let f1 = phi1.lookup(&key);
            let f2 = phi2.lookup(&key);
            let f = self.monoid.compose(f1, f2);
            entries.push((key, f));
        }
        let residual = self.monoid.compose(phi1.residual, phi2.residual);
        let id = self.intern(SubstEnv { entries, residual });
        self.memo.insert((later, earlier), id);
        id
    }

    fn is_accepting(&self, a: AnnId) -> bool {
        let env = &self.envs[a.index()];
        env.entries
            .iter()
            .any(|(_, f)| self.monoid.is_accepting(*f))
            || self.monoid.is_accepting(env.residual)
    }

    fn start_class(&self) -> AnnId {
        self.identity()
    }

    fn apply_class(&mut self, f: AnnId, c: AnnId) -> AnnId {
        self.compose(f, c)
    }

    fn class_accepting(&self, c: AnnId) -> bool {
        self.is_accepting(c)
    }

    fn describe(&self, a: AnnId) -> String {
        let env = &self.envs[a.index()];
        let mut parts = Vec::new();
        for (key, f) in &env.entries {
            let pairs: Vec<String> = key
                .iter()
                .map(|(p, l)| format!("{}: {}", self.param_name(*p), self.label_name(*l)))
                .collect();
            parts.push(format!("({}) ↦ f{}", pairs.join(", "), f.index()));
        }
        format!("[{} | f{}]", parts.join("; "), env.residual.index())
    }

    fn len(&self) -> usize {
        self.envs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasc_automata::PropertySpec;

    fn file_state() -> (SubstAlgebra, SymbolId, SymbolId) {
        let spec = PropertySpec::parse(
            "start state Closed : | open(x) -> Opened;\n\
             accept state Opened : | close(x) -> Closed;",
        )
        .unwrap();
        let (sigma, dfa) = spec.compile();
        let alg = SubstAlgebra::new(&dfa);
        (
            alg,
            sigma.lookup("open").unwrap(),
            sigma.lookup("close").unwrap(),
        )
    }

    #[test]
    fn figure_6_example() {
        // open(fd1); open(fd2); close(fd1): fd2 open, fd1 closed.
        let (mut alg, open, close) = file_state();
        let x = alg.param("x");
        let fd1 = alg.label("fd1");
        let fd2 = alg.label("fd2");
        let phi1 = alg.instantiate(open, &[(x, fd1)]);
        let phi2 = alg.instantiate(open, &[(x, fd2)]);
        let phi3 = alg.instantiate(close, &[(x, fd1)]);
        let p12 = alg.compose(phi2, phi1);
        let p123 = alg.compose(phi3, p12);

        let env = alg.env(p123);
        assert_eq!(env.entries().len(), 2);
        let accepting = alg.accepting_instances(p123);
        assert_eq!(accepting.len(), 1, "only fd2 remains open");
        let (key, _) = &accepting[0];
        let label = *key.values().next().unwrap();
        assert_eq!(alg.label_name(label), "fd2");
    }

    #[test]
    fn double_close_is_fine() {
        let (mut alg, open, close) = file_state();
        let x = alg.param("x");
        let fd = alg.label("fd");
        let o = alg.instantiate(open, &[(x, fd)]);
        let c = alg.instantiate(close, &[(x, fd)]);
        let oc = alg.compose(c, o);
        assert!(!alg.is_accepting(oc));
        let occ = alg.compose(c, oc);
        assert!(!alg.is_accepting(occ));
    }

    #[test]
    fn residual_incorporated_into_new_instantiations() {
        // A non-parametric transition happening before an instantiation
        // must affect that instantiation's function.
        let spec = PropertySpec::parse(
            "start state A : | reset -> A | open(x) -> B;\n\
             accept state B;",
        )
        .unwrap();
        let (sigma, dfa) = spec.compile();
        let mut alg = SubstAlgebra::new(&dfa);
        let x = alg.param("x");
        let fd = alg.label("fd");
        let reset = alg.plain(sigma.lookup("reset").unwrap());
        let open = alg.instantiate(sigma.lookup("open").unwrap(), &[(x, fd)]);
        // reset then open(fd): accepting for fd.
        let path = alg.compose(open, reset);
        assert!(alg.is_accepting(path));
        assert_eq!(alg.accepting_instances(path).len(), 1);
    }

    #[test]
    fn nonparametric_annotations_degrade_to_plain_monoid() {
        let (mut alg, open, close) = file_state();
        let o = alg.plain(open);
        let c = alg.plain(close);
        let oc = alg.compose(c, o);
        assert!(alg.env(oc).entries().is_empty());
        assert!(!alg.is_accepting(oc));
        let oo = alg.compose(o, o);
        assert!(alg.is_accepting(oo));
    }

    #[test]
    fn multiple_parameters_merge_compatible_entries() {
        let spec = PropertySpec::parse(
            "start state S : | pair(x, y) -> T | sole(x) -> T;\n\
             accept state T;",
        )
        .unwrap();
        let (sigma, dfa) = spec.compile();
        let mut alg = SubstAlgebra::new(&dfa);
        let x = alg.param("x");
        let y = alg.param("y");
        let (i, j, k) = (alg.label("i"), alg.label("j"), alg.label("k"));
        let pair_sym = sigma.lookup("pair").unwrap();
        let sole_sym = sigma.lookup("sole").unwrap();
        let a = alg.instantiate(pair_sym, &[(x, i), (y, j)]);
        let b = alg.instantiate(sole_sym, &[(x, k)]);
        let comp = alg.compose(b, a);
        let env = alg.env(comp);
        // Keys: {x:i, y:j} (incompatible with {x:k} — x disagrees) and {x:k}.
        assert_eq!(env.entries().len(), 2);
        // Compatible case: sole(x:i) merges with pair(x:i, y:j).
        let b2 = alg.instantiate(sole_sym, &[(x, i)]);
        let comp2 = alg.compose(b2, a);
        let env2 = alg.env(comp2);
        assert!(env2
            .entries()
            .iter()
            .any(|(key, _)| key.len() == 2 && key.get(&x) == Some(&i) && key.get(&y) == Some(&j)));
    }

    #[test]
    fn identity_is_neutral() {
        let (mut alg, open, _) = file_state();
        let x = alg.param("x");
        let fd = alg.label("fd");
        let o = alg.instantiate(open, &[(x, fd)]);
        let e = alg.identity();
        assert_eq!(alg.compose(o, e), o);
        assert_eq!(alg.compose(e, o), o);
    }
}
