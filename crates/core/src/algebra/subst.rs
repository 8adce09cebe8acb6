//! Parametric annotations via substitution environments (§6.4).
//!
//! Properties like the file-state automaton (Figure 5) have *parametric*
//! transitions `open(x)` / `close(x)`: the parameter must match between the
//! open and the close. Instead of instantiating the property automaton per
//! parameter value (impossible — the automaton is compiled away before the
//! program is seen), the solver composes *substitution environments*: maps
//! from instantiated parameters to representative functions, plus a
//! *residual* function recording non-parametric transitions.

use std::borrow::Cow;
use std::collections::BTreeMap;

use rasc_automata::{Dfa, FnId, Monoid, StateId, SymbolId};

use super::{Algebra, AnnId};
use crate::idhash::IdMap;

/// The step-table cell of an (annotation, class) pair not stepped yet. No
/// class id is this large: `u32::MAX` classes would be interned before it.
const NOT_STEPPED: u32 = u32::MAX;

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
    /// Entries sorted by key for canonical interning. No key is empty
    /// (the residual is the `∅` entry), which `merged_keys` relies on.
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
        lookup(&self.entries, key, self.residual)
    }
}

/// A right-congruence class of [`SubstAlgebra`] (§5): an interned state
/// environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateEnvId(u32);

impl StateEnvId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A *state environment* `ψ = [k ↦ φ(k)(s₀) | r(s₀)]`: the machine state
/// each instantiation of an environment `φ` reaches from the start state,
/// plus the residual's. Acceptance of a path, now and after any
/// extension, depends only on this, so it is the class the violation scan
/// carries.
///
/// Entries are sorted by key. While the algebra has at most one parameter,
/// an entry whose state equals the residual's is dropped: every key is then
/// a single `{x: ℓ}`, whose lookup sees only its own entry or the residual,
/// so the drop changes no lookup now or after any later step. That makes
/// the class canonical: `open(fd1); close(fd1)` is the start class again.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StateEnv {
    entries: Vec<(EntryKey, StateId)>,
    residual: StateId,
}

/// The value at `key` of an environment with these entries and residual:
/// that of the largest compatible entry (the longer key first, then the
/// smaller key), or the residual if no entry is compatible.
fn lookup<T: Copy>(entries: &[(EntryKey, T)], key: &EntryKey, residual: T) -> T {
    entries
        .iter()
        .filter(|(k, _)| compatible(key, k))
        .max_by(|(a, _), (b, _)| a.len().cmp(&b.len()).then_with(|| b.cmp(a)))
        .map_or(residual, |(_, v)| *v)
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

/// The keys of a composition of two environments with entries `a` and
/// `b`: every consistent, non-empty merge of a key of `a` (or ∅, the
/// residual's) with a key of `b` (or ∅), sorted and without duplicates.
/// A merge equal to one of its two keys is that key, borrowed.
fn merged_keys<'k, T, U>(a: &'k [(EntryKey, T)], b: &'k [(EntryKey, U)]) -> Vec<Cow<'k, EntryKey>> {
    let mut keys: Vec<Cow<'k, EntryKey>> = a
        .iter()
        .map(|(k, _)| k)
        .chain(b.iter().map(|(k, _)| k))
        .map(Cow::Borrowed)
        .collect();
    for (k1, _) in a {
        for (k2, _) in b {
            // Parameters of `k2` that `k1` lacks: with none, the merge is
            // `k1`; with only those, it is `k2`.
            let extra = k2.keys().filter(|p| !k1.contains_key(p)).count();
            if extra > 0 && k1.len() + extra > k2.len() && consistent(k1, k2) {
                let mut m = k1.clone();
                m.extend(k2);
                keys.push(Cow::Owned(m));
            }
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys
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
///
/// # Classes
///
/// A path's class ([`Algebra::Class`]) is its state environment
/// `[k ↦ φ(k)(s₀) | r(s₀)]`: one machine state per instantiation, not one
/// function. [`Algebra::apply_class`] builds the keys [`Algebra::compose`]
/// would, so the class of a composition is the class of its environment,
/// and memoizes each step in a dense table. With at most one parameter, an
/// entry in the residual's state is dropped, so a descriptor opened and
/// closed again leaves no trace in the class. Interning a new parameter
/// empties the class tables: classes taken before it are not valid after.
///
/// # More than one parameter
///
/// With two or more parameters, [`Algebra::compose`] is not associative: a
/// key can look up an entry of another parameter (`{y: m}` is compatible
/// with `{x: ℓ}`), and which merged keys exist depends on the grouping.
/// Over `start state S : | pair(x, y) -> T | sole(x) -> T | solo(y) -> S;
/// accept state T : | drop(x) -> S;`, the path `sole(x: b)`, `drop(x: a)`,
/// `solo(y: a)` is accepted under one grouping and not under the other.
/// The class of a composition then need not be the class reached step by
/// step (the second class law of [`Algebra`]), so the class scan and the
/// function BFS, which group compositions differently, may disagree on such
/// a property. The bundled parametric properties have one parameter.
#[derive(Debug, Clone)]
pub struct SubstAlgebra {
    monoid: Monoid,
    params: Vec<String>,
    labels: Vec<String>,
    envs: Vec<SubstEnv>,
    by_env: IdMap<SubstEnv, AnnId>,
    memo: IdMap<(AnnId, AnnId), AnnId>,
    /// The interned classes; class 0 is the start class `[ | s₀]`.
    classes: Vec<StateEnv>,
    by_class: IdMap<StateEnv, StateEnvId>,
    /// The class step table: `steps[f][c]` is the raw id of
    /// `apply_class(f, c)`, or [`NOT_STEPPED`]. Each row is sized to the
    /// interned class count on its first write, and grows if a later write
    /// needs a larger `c`.
    steps: Vec<Vec<u32>>,
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
            by_env: IdMap::default(),
            memo: IdMap::default(),
            classes: Vec::new(),
            by_class: IdMap::default(),
            steps: Vec::new(),
        };
        let identity = SubstEnv {
            entries: Vec::new(),
            residual: alg.monoid.identity(),
        };
        alg.intern(identity);
        alg.reset_classes();
        alg
    }

    /// Interns a parameter name.
    ///
    /// A new parameter empties the class tables, since which entries a
    /// class drops depends on the parameter count.
    pub fn param(&mut self, name: &str) -> ParamId {
        if let Some(i) = self.params.iter().position(|p| p == name) {
            return ParamId(i as u32);
        }
        self.params.push(name.to_owned());
        self.reset_classes();
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
    /// Produces `[(x: fd1) ↦ f_σ | f_ε]` (Figure 7). Without pairs it is
    /// [`SubstAlgebra::plain`].
    pub fn instantiate(&mut self, sym: SymbolId, pairs: &[(ParamId, LabelId)]) -> AnnId {
        if pairs.is_empty() {
            return self.plain(sym);
        }
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

    /// Empties the class tables, leaving the start class `[ | s₀]` as
    /// class 0.
    fn reset_classes(&mut self) {
        self.classes.clear();
        self.by_class.clear();
        self.steps.clear();
        let start = StateEnv {
            entries: Vec::new(),
            residual: self.monoid.start_state(),
        };
        self.intern_class(start);
    }

    fn intern_class(&mut self, class: StateEnv) -> StateEnvId {
        if let Some(&id) = self.by_class.get(&class) {
            return id;
        }
        let id = StateEnvId(crate::id_u32(self.classes.len(), "classes"));
        self.by_class.insert(class.clone(), id);
        self.classes.push(class);
        id
    }
}

impl Algebra for SubstAlgebra {
    /// The state environment `[k ↦ φ(k)(s₀) | r(s₀)]`.
    type Class = StateEnvId;

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
        let phi1 = &self.envs[later.index()];
        let phi2 = &self.envs[earlier.index()];
        // (φ₁ ∘ φ₂)(i) = φ₁(i) ∘ φ₂(i).
        let entries = merged_keys(&phi1.entries, &phi2.entries)
            .into_iter()
            .map(|key| {
                let f = self.monoid.compose(phi1.lookup(&key), phi2.lookup(&key));
                (key.into_owned(), f)
            })
            .collect();
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

    fn start_class(&self) -> StateEnvId {
        StateEnvId(0)
    }

    fn apply_class(&mut self, f: AnnId, c: StateEnvId) -> StateEnvId {
        if f == self.identity() {
            return c;
        }
        let known = self.steps.get(f.index()).and_then(|row| row.get(c.index()));
        if let Some(&id) = known.filter(|&&id| id != NOT_STEPPED) {
            return StateEnvId(id);
        }
        let phi = &self.envs[f.index()];
        let psi = &self.classes[c.index()];
        let residual = self.monoid.apply(phi.residual, psi.residual);
        let drop_residual_states = self.params.len() <= 1;
        // ψ'(k) = φ(k)(ψ(k)), over the keys of φ ∘ φ_c.
        let entries = merged_keys(&phi.entries, &psi.entries)
            .into_iter()
            .filter_map(|key| {
                let g = lookup(&phi.entries, &key, phi.residual);
                let s = self
                    .monoid
                    .apply(g, lookup(&psi.entries, &key, psi.residual));
                (!drop_residual_states || s != residual).then(|| (key.into_owned(), s))
            })
            .collect();
        let id = self.intern_class(StateEnv { entries, residual });
        if self.steps.len() <= f.index() {
            self.steps.resize_with(f.index() + 1, Vec::new);
        }
        let row = &mut self.steps[f.index()];
        if row.len() <= c.index() {
            row.resize(self.classes.len(), NOT_STEPPED);
        }
        row[c.index()] = id.0;
        id
    }

    fn class_accepting(&self, c: StateEnvId) -> bool {
        let psi = &self.classes[c.index()];
        psi.entries
            .iter()
            .any(|(_, s)| self.monoid.state_accepting(*s))
            || self.monoid.state_accepting(psi.residual)
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
    fn a_descriptor_opened_and_closed_leaves_the_start_class() {
        let (mut alg, open, close) = file_state();
        let x = alg.param("x");
        let fd1 = alg.label("fd1");
        let o = alg.instantiate(open, &[(x, fd1)]);
        let c = alg.instantiate(close, &[(x, fd1)]);
        let oc = alg.compose(c, o);
        assert_ne!(oc, alg.identity(), "the environment keeps fd1's entry");
        assert_eq!(alg.env(oc).entries().len(), 1);
        let start = alg.start_class();
        assert_eq!(alg.apply_class(oc, start), start);
    }

    /// The class of `open(fd1); close(fd1)` from the start class.
    fn opened_and_closed_class(
        alg: &mut SubstAlgebra,
        open: SymbolId,
        close: SymbolId,
    ) -> StateEnvId {
        let x = alg.param("x");
        let fd1 = alg.label("fd1");
        let o = alg.instantiate(open, &[(x, fd1)]);
        let c = alg.instantiate(close, &[(x, fd1)]);
        let oc = alg.compose(c, o);
        let start = alg.start_class();
        alg.apply_class(oc, start)
    }

    #[test]
    fn two_parameters_keep_residual_state_entries() {
        let (mut alg, open, close) = file_state();
        alg.param("x");
        alg.param("y");
        let class = opened_and_closed_class(&mut alg, open, close);
        assert_ne!(class, alg.start_class());
        let kept = &alg.classes[class.index()];
        assert_eq!(kept.entries.len(), 1);
        assert_eq!(kept.entries[0].1, kept.residual);
    }

    #[test]
    fn a_new_parameter_resets_the_class_tables() {
        let (mut alg, open, close) = file_state();
        let dropped = opened_and_closed_class(&mut alg, open, close);
        assert_eq!(dropped, alg.start_class());
        alg.param("y");
        let kept = opened_and_closed_class(&mut alg, open, close);
        assert_ne!(kept, alg.start_class());
        assert_eq!(alg.classes[kept.index()].entries.len(), 1);
    }

    #[test]
    fn instantiating_no_parameters_is_plain() {
        let (mut alg, open, _) = file_state();
        assert_eq!(alg.instantiate(open, &[]), alg.plain(open));
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
