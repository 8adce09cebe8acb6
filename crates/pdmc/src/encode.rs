//! The CFG → annotated-constraints encoding and the violation scan.

use std::fmt;

use rasc_automata::{Alphabet, Dfa, PropertySpec, SymbolId};
use rasc_cfgir::{Cfg, CfgError, EdgeLabel, NodeId};
use rasc_core::algebra::{Algebra, AnnId, MonoidAlgebra, SubstAlgebra};
use rasc_core::forward::ForwardSystem;
use rasc_core::{ConsId, OccurrenceWitness, SetExpr, SolverConfig, System, VarId, Variance};

/// Errors from building a constraint checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The CFG lacks the requested entry function.
    Cfg(CfgError),
    /// A constraint was malformed (indicates a bug in the encoder).
    Core(rasc_core::CoreError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Cfg(e) => write!(f, "{e}"),
            CheckError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<CfgError> for CheckError {
    fn from(e: CfgError) -> Self {
        CheckError::Cfg(e)
    }
}

impl From<rasc_core::CoreError> for CheckError {
    fn from(e: rasc_core::CoreError) -> Self {
        CheckError::Core(e)
    }
}

/// A pushdown model checker built on regularly annotated set constraints.
///
/// Construct with [`ConstraintChecker::from_spec`] or
/// [`ConstraintChecker::new`] for a plain property,
/// [`ConstraintChecker::parametric`] for a parametric one, or
/// [`ConstraintChecker::encode`], which all of them call, for any other
/// annotation algebra; then [`solve`](ConstraintChecker::solve) and
/// query.
#[derive(Debug)]
pub struct ConstraintChecker<A: Algebra> {
    sys: System<A>,
    node_vars: Vec<VarId>,
    pc: ConsId,
}

/// A checker over the plain transition-monoid algebra.
pub type PlainChecker = ConstraintChecker<MonoidAlgebra>;
/// A checker over the parametric substitution-environment algebra.
pub type ParametricChecker = ConstraintChecker<SubstAlgebra>;

impl ConstraintChecker<MonoidAlgebra> {
    /// Builds the checker for a non-parametric property DFA over alphabet
    /// `sigma`, starting at function `entry`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Cfg`] if `entry` is missing.
    pub fn new(
        cfg: &Cfg,
        sigma: &Alphabet,
        property: &Dfa,
        entry: &str,
    ) -> Result<Self, CheckError> {
        Self::new_with_config(cfg, sigma, property, entry, SolverConfig::default())
    }

    /// Like [`ConstraintChecker::new`] with explicit solver configuration
    /// (for the cycle-elimination ablation bench).
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Cfg`] if `entry` is missing.
    pub fn new_with_config(
        cfg: &Cfg,
        sigma: &Alphabet,
        property: &Dfa,
        entry: &str,
        config: SolverConfig,
    ) -> Result<Self, CheckError> {
        let algebra = MonoidAlgebra::new(property);
        Self::encode(cfg, entry, algebra, config, |alg, name, _args| {
            sigma.lookup(name).map(|sym| alg.symbol(sym))
        })
    }

    /// Builds a plain checker from a [`PropertySpec`] (which must be
    /// non-parametric; use [`ConstraintChecker::parametric`] otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Cfg`] if `entry` is missing.
    pub fn from_spec(cfg: &Cfg, spec: &PropertySpec, entry: &str) -> Result<Self, CheckError> {
        let (sigma, dfa) = spec.compile();
        Self::new(cfg, &sigma, &dfa, entry)
    }
}

impl ConstraintChecker<SubstAlgebra> {
    /// Builds the checker for a *parametric* property (§6.4): events carry
    /// parameter-value labels (`event open(fd1)`), and annotations are
    /// substitution environments.
    ///
    /// With more than one parameter, composing environments is not
    /// associative (see [`SubstAlgebra`]), so [`ConstraintChecker::violations`]
    /// and [`ConstraintChecker::witness`] may disagree on such a property.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Cfg`] if `entry` is missing.
    pub fn parametric(cfg: &Cfg, spec: &PropertySpec, entry: &str) -> Result<Self, CheckError> {
        let (sigma, dfa) = spec.compile();
        let mut algebra = SubstAlgebra::new(&dfa);
        // Pre-intern the declared parameters of each symbol.
        let symbol_params: Vec<(String, Vec<rasc_core::algebra::ParamId>)> = {
            let params = spec.symbol_params();
            let mut v = Vec::new();
            for (name, ps) in params {
                let ids = ps.iter().map(|p| algebra.param(p)).collect();
                v.push((name.to_owned(), ids));
            }
            v
        };
        let config = SolverConfig::default();
        Self::encode(cfg, entry, algebra, config, move |alg, name, args| {
            let sym = sigma.lookup(name)?;
            let (_, param_ids) = symbol_params.iter().find(|(n, _)| n == name)?;
            if param_ids.is_empty() || args.is_empty() {
                return Some(alg.plain(sym));
            }
            // Pair declared parameters with the event's value labels.
            let pairs: Vec<_> = param_ids
                .iter()
                .zip(args)
                .map(|(&p, label)| (p, alg.label(label)))
                .collect();
            Some(alg.instantiate(sym, &pairs))
        })
    }
}

impl<A: Algebra> ConstraintChecker<A> {
    /// The §6.1 encoding of `cfg` from function `entry`, over any
    /// annotation algebra: one set variable `S_i` per CFG node, `pc ⊆
    /// S_entry`, one inclusion per statement edge, and per call site `i`
    /// a constructor `o_i` with `o_i(S_call) ⊆ F_entry` and
    /// `o_i⁻¹(F_exit) ⊆ S_ret`.
    ///
    /// `event_ann` gives an event edge's annotation from the event's name
    /// and value labels, or `None` for an event the property ignores; an
    /// edge without an annotation is an unannotated inclusion. Every other
    /// constructor — the model checkers here and the gen/kill dataflow of
    /// §3.3 — calls this one.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Cfg`] if `entry` is missing.
    pub fn encode(
        cfg: &Cfg,
        entry: &str,
        algebra: A,
        config: SolverConfig,
        mut event_ann: impl FnMut(&mut A, &str, &[String]) -> Option<AnnId>,
    ) -> Result<Self, CheckError> {
        let entry_node = cfg.entry(entry)?.entry;
        let mut sys = System::with_config(algebra, config);
        let node_vars: Vec<VarId> = (0..cfg.num_nodes())
            .map(|i| sys.var(&format!("S{i}")))
            .collect();
        let pc = sys.constructor("pc", &[]);

        // pc ⊆ S_main.
        sys.add(
            SetExpr::cons(pc, []),
            SetExpr::var(node_vars[entry_node.index()]),
        )?;

        // Statement edges.
        for (from, to, label) in cfg.edges() {
            let ann = match label {
                EdgeLabel::Plain => None,
                EdgeLabel::Event { name, args } => event_ann(sys.algebra_mut(), name, args),
            };
            let lhs = SetExpr::var(node_vars[from.index()]);
            let rhs = SetExpr::var(node_vars[to.index()]);
            match ann {
                Some(a) => sys.add_ann(lhs, rhs, a)?,
                None => sys.add(lhs, rhs)?,
            }
        }

        // Call/return matching via per-site constructors.
        for site in cfg.call_sites() {
            let callee = &cfg.functions()[site.callee.index()];
            let o_i = sys.constructor(&format!("o{}", site.id.index()), &[Variance::Covariant]);
            sys.add(
                SetExpr::cons_vars(o_i, [node_vars[site.call_node.index()]]),
                SetExpr::var(node_vars[callee.entry.index()]),
            )?;
            sys.add(
                SetExpr::proj(o_i, 0, node_vars[callee.exit.index()]),
                SetExpr::var(node_vars[site.return_node.index()]),
            )?;
        }

        Ok(ConstraintChecker { sys, node_vars, pc })
    }
}

/// The §6.1 encoding of a non-parametric property on the forward solver
/// of §5 ([`ForwardSystem`]): the constraints [`ConstraintChecker::new`]
/// builds, solved forward. [`forward_violations`] checks a property with
/// it, and the forward gen/kill dataflow runs one per fact.
#[derive(Debug)]
pub struct ForwardChecker {
    sys: ForwardSystem,
    node_vars: Vec<VarId>,
    pc: ConsId,
}

impl ForwardChecker {
    /// Encodes `cfg` from function `entry` for the property machine
    /// `property`, in the order [`ConstraintChecker::encode`] uses.
    /// `event_symbol` names the symbol an event edge reads, or `None` for
    /// an event the property ignores; such an edge, like a plain one,
    /// carries the identity.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Cfg`] if `entry` is missing.
    pub fn encode(
        cfg: &Cfg,
        entry: &str,
        property: &Dfa,
        mut event_symbol: impl FnMut(&str) -> Option<SymbolId>,
    ) -> Result<ForwardChecker, CheckError> {
        let entry_node = cfg.entry(entry)?.entry;
        let mut sys = ForwardSystem::new(property);
        let node_vars: Vec<VarId> = (0..cfg.num_nodes())
            .map(|i| sys.var(&format!("S{i}")))
            .collect();
        let pc = sys.constant("pc");
        sys.add_constant(pc, node_vars[entry_node.index()]);
        for (from, to, label) in cfg.edges() {
            let ann = match label {
                EdgeLabel::Plain => sys.identity(),
                EdgeLabel::Event { name, .. } => match event_symbol(name) {
                    Some(s) => sys.word(&[s]),
                    None => sys.identity(),
                },
            };
            sys.add_edge(node_vars[from.index()], node_vars[to.index()], ann);
        }
        let eps = sys.identity();
        for site in cfg.call_sites() {
            let callee = &cfg.functions()[site.callee.index()];
            let o_i = sys.declare(&format!("o{}", site.id.index()), &[Variance::Covariant]);
            sys.add_source(
                o_i,
                &[node_vars[site.call_node.index()]],
                node_vars[callee.entry.index()],
                eps,
            )?;
            sys.add_projection(
                o_i,
                0,
                node_vars[callee.exit.index()],
                node_vars[site.return_node.index()],
                eps,
            )?;
        }
        Ok(ForwardChecker { sys, node_vars, pc })
    }

    /// Runs the forward solver to a fixpoint.
    pub fn solve(&mut self) {
        self.sys.solve();
    }

    /// The nodes at which `pc` occurs in an accepting state, in node
    /// order — the nodes [`ConstraintChecker::violations`] reports.
    pub fn violations(&mut self) -> Vec<NodeId> {
        let occ = self.sys.constant_occurrence_states(self.pc);
        (0..self.node_vars.len())
            .filter(|&n| {
                occ[self.node_vars[n].index()]
                    .iter()
                    .any(|&s| self.sys.state_accepting(s))
            })
            .map(NodeId::from_index)
            .collect()
    }
}

/// Checks a non-parametric property with a [`ForwardChecker`]: returns
/// the nodes [`ConstraintChecker::violations`] reports, in node order.
///
/// # Errors
///
/// Returns [`CheckError::Cfg`] if `entry` is missing.
pub fn forward_violations(
    cfg: &Cfg,
    sigma: &Alphabet,
    property: &Dfa,
    entry: &str,
) -> Result<Vec<NodeId>, CheckError> {
    let mut checker = ForwardChecker::encode(cfg, entry, property, |name| sigma.lookup(name))?;
    checker.solve();
    Ok(checker.violations())
}

impl<A: Algebra> ConstraintChecker<A> {
    /// Runs constraint resolution to a fixpoint.
    pub fn solve(&mut self) {
        self.sys.solve();
    }

    /// The set variable of a CFG node.
    pub fn node_var(&self, n: NodeId) -> VarId {
        self.node_vars[n.index()]
    }

    /// All program points where `pc` occurs (at any depth) with an
    /// *accepting* annotation — the reachable error configurations.
    ///
    /// Uses the single-pass bottom-up class scan
    /// ([`System::constant_occurrence_classes`]) rather than one
    /// entailment per node.
    pub fn violations(&mut self) -> Vec<NodeId> {
        let occ = self.sys.constant_occurrence_classes(self.pc);
        let mut out = Vec::new();
        for (node, &var) in self.node_vars.iter().enumerate() {
            if occ[var.index()]
                .iter()
                .any(|&c| self.sys.algebra().class_accepting(c))
            {
                out.push(NodeId::from_index(node));
            }
        }
        out
    }

    /// Whether any violation exists.
    pub fn violated(&mut self) -> bool {
        !self.violations().is_empty()
    }

    /// Per CFG node, in node order, the right-congruence classes
    /// ([`Algebra::Class`]) with which `pc` occurs there: the class scan
    /// behind [`ConstraintChecker::violations`], before acceptance is
    /// asked. Under the gen/kill algebra a class is the fact vector of a
    /// path.
    pub fn pc_classes(&mut self) -> Vec<Vec<A::Class>> {
        let mut occ = self.sys.constant_occurrence_classes(self.pc);
        self.node_vars
            .iter()
            .map(|v| std::mem::take(&mut occ[v.index()]))
            .collect()
    }

    /// The annotations with which `pc` occurs at a node (the property
    /// states the program point can be in).
    pub fn pc_annotations(&mut self, n: NodeId) -> Vec<AnnId> {
        let var = self.node_vars[n.index()];
        self.sys.occurrence_annotations(var, self.pc)
    }

    /// A witness for a violation at `n`: the call-site constructor stack
    /// (a possible runtime stack) plus the accepting annotation.
    pub fn witness(&mut self, n: NodeId) -> Option<OccurrenceWitness> {
        let var = self.node_vars[n.index()];
        self.sys.occurrence_witness(var, self.pc)
    }

    /// Renders a witness's stack of call sites for diagnostics.
    pub fn render_witness(&self, w: &OccurrenceWitness) -> String {
        let frames: Vec<&str> = w
            .stack
            .iter()
            .map(|c| self.sys.constructor_decl(*c).name())
            .collect();
        if frames.is_empty() {
            "<main>".to_owned()
        } else {
            format!("<main> {}", frames.join(" "))
        }
    }

    /// The underlying constraint system.
    pub fn system(&self) -> &System<A> {
        &self.sys
    }

    /// Mutable access to the underlying system (for ad-hoc queries).
    pub fn system_mut(&mut self) -> &mut System<A> {
        &mut self.sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use rasc_cfgir::Program;

    fn plain_check(src: &str) -> (Cfg, PlainChecker) {
        let cfg = Cfg::build(&Program::parse(src).unwrap()).unwrap();
        let spec = PropertySpec::parse(properties::SIMPLE_PRIVILEGE).unwrap();
        let checker = ConstraintChecker::from_spec(&cfg, &spec, "main").unwrap();
        (cfg, checker)
    }

    #[test]
    fn section_6_3_example_exact() {
        // The paper's §6.3 program: the else path keeps privileges.
        let (cfg, mut checker) = plain_check(
            "fn main() {
                s1: event seteuid_zero;
                if (*) { s3: event seteuid_nonzero; } else { s4: skip; }
                s5: event execl;
                s6: skip;
            }",
        );
        checker.solve();
        let violations = checker.violations();
        let s6 = cfg.label_node("s6").unwrap();
        assert!(violations.contains(&s6), "pc^f_error ∈ S6");
        // Before the execl there is no violation yet.
        let s5 = cfg.label_node("s5").unwrap();
        assert!(!violations.contains(&s5));
    }

    #[test]
    fn dropping_on_all_paths_is_safe() {
        let (_, mut checker) = plain_check(
            "fn main() {
                event seteuid_zero;
                if (*) { event seteuid_nonzero; } else { event seteuid_nonzero; }
                event execl;
            }",
        );
        checker.solve();
        assert!(!checker.violated());
    }

    #[test]
    fn interprocedural_with_witness_stack() {
        let (cfg, mut checker) = plain_check(
            "fn doexec() { e: event execl; done: skip; }
             fn main() { event seteuid_zero; doexec(); }",
        );
        checker.solve();
        let after = cfg.label_node("done").unwrap();
        let w = checker.witness(after).expect("violation inside callee");
        assert_eq!(w.stack.len(), 1, "one unreturned frame: the doexec call");
        assert!(checker.render_witness(&w).contains("o0"));
    }

    #[test]
    fn context_sensitive_no_false_positive() {
        // Calling doexec only after dropping privileges; a
        // context-insensitive treatment of the call would merge contexts.
        let (_, mut checker) = plain_check(
            "fn doexec() { event execl; }
             fn main() {
                 event seteuid_zero;
                 event seteuid_nonzero;
                 doexec();
             }",
        );
        checker.solve();
        assert!(!checker.violated());
    }

    #[test]
    fn two_contexts_distinguished() {
        // doexec is called privileged at one site and unprivileged at the
        // other; matching returns must not leak privilege across sites.
        let (cfg, mut checker) = plain_check(
            "fn doexec() { skip; }
             fn main() {
                 event seteuid_zero;
                 doexec();
                 event seteuid_nonzero;
                 doexec();
                 after: event execl;
                 end: skip;
             }",
        );
        checker.solve();
        let end = cfg.label_node("end").unwrap();
        assert!(
            !checker.violations().contains(&end),
            "privilege was dropped before the exec"
        );
    }

    #[test]
    fn recursion_terminates_and_detects() {
        let (_, mut checker) = plain_check(
            "fn rec() { if (*) { rec(); } else { event execl; } }
             fn main() { event seteuid_zero; rec(); }",
        );
        checker.solve();
        assert!(checker.violated());
    }

    #[test]
    fn chroot_property_end_to_end() {
        let cfg = Cfg::build(
            &Program::parse(
                "fn enter_jail() { event chroot; }
                 fn main() {
                     enter_jail();
                     if (*) { event chdir_root; }
                     danger: event fs_op;
                     after: skip;
                 }",
            )
            .unwrap(),
        )
        .unwrap();
        let spec = PropertySpec::parse(properties::CHROOT_JAIL).unwrap();
        let mut checker = ConstraintChecker::from_spec(&cfg, &spec, "main").unwrap();
        checker.solve();
        let after = cfg.label_node("after").unwrap();
        assert!(
            checker.violations().contains(&after),
            "the no-chdir branch escapes the jail"
        );
    }

    #[test]
    fn parametric_file_state() {
        // Figure 6: fd1 closed, fd2 leaked at the end.
        let src = "fn main() {
            s1: event open(fd1);
            s2: event open(fd2);
            s3: event close(fd1);
            s4: skip;
        }";
        let cfg = Cfg::build(&Program::parse(src).unwrap()).unwrap();
        let spec = PropertySpec::parse(properties::FILE_STATE).unwrap();
        let mut checker = ConstraintChecker::parametric(&cfg, &spec, "main").unwrap();
        checker.solve();
        let s4 = cfg.label_after("s4").unwrap();
        let anns = checker.pc_annotations(s4);
        assert_eq!(anns.len(), 1);
        let accepting = checker.system().algebra().accepting_instances(anns[0]);
        assert_eq!(accepting.len(), 1, "exactly one fd still open");
        let alg = checker.system().algebra();
        let (key, _) = &accepting[0];
        let label = *key.values().next().unwrap();
        assert_eq!(alg.label_name(label), "fd2");
    }
}
