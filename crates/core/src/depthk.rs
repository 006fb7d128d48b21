//! Depth-k groundness analysis with a non-enumerative, constraint-style
//! representation — the paper's Section 5 (Table 4).
//!
//! The abstract domain is the set of terms of depth at most `k` built from
//! the program's function symbols, a special constant γ (written `$g`)
//! denoting *all ground terms*, and variables. Abstract unification —
//! γ unifies with any term it can ground, and variable binding performs the
//! occur check — differs from the engine's syntactic unification, so it is
//! implemented at the meta level (the engine's `$absunify/2` builtin),
//! exactly as the paper implements it above XSB's native unification.
//!
//! Termination on the infinite Herbrand base comes from the engine's
//! Section-6.1 hooks: calls and answers are widened by depth-k truncation
//! before entering the tables.

use crate::error::AnalysisError;
use crate::groundness::{expand_disjunctions, require_defined, EntryPoint};
use crate::pipeline::{PhaseTimings, Timer};
use std::collections::BTreeMap;
use std::sync::Arc;
use tablog_engine::{Database, Engine, EngineOptions, LoadMode, TableStats, GAMMA};
use tablog_magic::Rule;
use tablog_syntax::{parse_program, Program};
use tablog_term::{
    atom, intern, structure, sym_name, Bindings, CanonicalTerm, Functor, Term, TermArena, Var,
};
use tablog_trace::MetricsReport;

/// Name prefix of depth-k abstract predicates.
pub const AK_PREFIX: &str = "ak$";

/// The default truncation depth: Table 4's k = 1. The depth-k CLI commands
/// and [`DepthKAnalyzer::default`] all use it; k ≥ 2 is combinatorial on
/// the larger Table 4 programs (`read`).
pub const DEFAULT_K: usize = 1;

/// Depth-k results for one predicate.
#[derive(Clone, Debug)]
pub struct PredDepthK {
    /// Source predicate name.
    pub name: String,
    /// Arity.
    pub arity: usize,
    /// Abstract success set: answers as depth-k terms (γ = `$g`).
    pub answers: Vec<Vec<Term>>,
    /// Per-argument verdict: ground in every answer (γ counts as ground).
    pub definitely_ground: Vec<bool>,
    /// Abstract call patterns from the call table.
    pub call_patterns: Vec<Vec<Term>>,
}

/// The complete result of a depth-k analysis run.
#[derive(Clone, Debug)]
pub struct DepthKReport {
    preds: BTreeMap<(String, usize), PredDepthK>,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Engine statistics, including table space.
    pub stats: TableStats,
    /// Per-predicate engine metrics; present iff the analyzer's
    /// [`profile`](DepthKAnalyzer::profile) flag was set. Includes the
    /// `calls_abstracted` / `answers_widened` counts from the depth-k
    /// truncation hooks.
    pub metrics: Option<MetricsReport>,
}

impl DepthKReport {
    /// Result for one predicate.
    pub fn result(&self, name: &str, arity: usize) -> Option<&PredDepthK> {
        self.preds.get(&(name.to_owned(), arity))
    }

    /// All analyzed predicates, sorted by name.
    pub fn predicates(&self) -> impl Iterator<Item = &PredDepthK> {
        self.preds.values()
    }

    /// Total table space in bytes.
    pub fn table_bytes(&self) -> usize {
        self.stats.table_bytes
    }
}

/// The depth-k analyzer.
#[derive(Clone, Debug)]
pub struct DepthKAnalyzer {
    /// Truncation depth (the paper's `k`).
    pub k: usize,
    /// Clause store mode.
    pub load_mode: LoadMode,
    /// Base engine options; the analyzer installs its own table hooks.
    pub options: EngineOptions,
    /// Collect per-predicate engine metrics and phase timings into
    /// [`DepthKReport::metrics`].
    pub profile: bool,
}

impl Default for DepthKAnalyzer {
    fn default() -> Self {
        DepthKAnalyzer {
            k: DEFAULT_K,
            load_mode: LoadMode::Dynamic,
            options: EngineOptions::default(),
            profile: false,
        }
    }
}

impl DepthKAnalyzer {
    /// An analyzer with the given truncation depth.
    pub fn new(k: usize) -> Self {
        DepthKAnalyzer {
            k,
            ..DepthKAnalyzer::default()
        }
    }

    /// Parses and analyzes `src` with fully open calls.
    ///
    /// # Errors
    ///
    /// Returns parse, transformation, or engine errors.
    pub fn analyze_source(&self, src: &str) -> Result<DepthKReport, AnalysisError> {
        let mut timer = Timer::start();
        let program = parse_program(src)?;
        self.analyze(&program, &[], timer.lap())
    }

    /// Analyzes a parsed program with fully open calls.
    ///
    /// # Errors
    ///
    /// Returns transformation or engine errors.
    pub fn analyze_program(&self, program: &Program) -> Result<DepthKReport, AnalysisError> {
        self.analyze(program, &[], std::time::Duration::ZERO)
    }

    /// Goal-directed analysis: entry arguments marked ground become γ.
    ///
    /// # Errors
    ///
    /// Returns transformation or engine errors.
    pub fn analyze_with_entries(
        &self,
        program: &Program,
        entries: &[EntryPoint],
    ) -> Result<DepthKReport, AnalysisError> {
        self.analyze(program, entries, std::time::Duration::ZERO)
    }

    /// Builds the abstract database: transformed rules, tabling
    /// declarations, and the `$dk` driver clauses. Shared by
    /// [`analyze`](DepthKAnalyzer::analyze_program) and
    /// [`explain`](DepthKAnalyzer::explain).
    fn load_abstract(
        &self,
        program: &Program,
        entries: &[EntryPoint],
    ) -> Result<(Database, crate::groundness::PredSet), AnalysisError> {
        let (rules, preds) = transform_depthk(program)?;
        let mut db = Database::new(self.load_mode);
        for r in &rules {
            db.assert_clause(r.head.clone(), r.body.clone())?;
        }
        for &(name, arity) in preds.keys() {
            db.set_tabled(ak_functor(name, arity), true);
        }
        let mut b = Bindings::new();
        if entries.is_empty() {
            for &(name, arity) in preds.keys() {
                let args: Vec<Term> = (0..arity).map(|_| Term::Var(b.fresh_var())).collect();
                db.assert_clause(atom("$dk"), vec![build(ak_functor(name, arity), args)])?;
            }
        } else {
            for e in entries {
                require_defined(&preds, intern(&e.name), e.ground_args.len())?;
                let args: Vec<Term> = e
                    .ground_args
                    .iter()
                    .map(|&g| {
                        if g {
                            atom(GAMMA)
                        } else {
                            Term::Var(b.fresh_var())
                        }
                    })
                    .collect();
                db.assert_clause(
                    atom("$dk"),
                    vec![build(
                        ak_functor(intern(&e.name), e.ground_args.len()),
                        args,
                    )],
                )?;
            }
        }
        if self.load_mode == LoadMode::Compiled {
            db.build_indexes();
        }
        Ok((db, preds))
    }

    /// The analyzer's engine options with the depth-k truncation hooks
    /// installed as call abstraction and answer widening.
    fn hooked_options(&self) -> EngineOptions {
        let mut opts = self.options.clone();
        let k = self.k;
        let trunc: tablog_engine::TermHook =
            Arc::new(move |a: &mut TermArena, c: &CanonicalTerm| truncate_tuple(a, c, k));
        opts.call_abstraction = Some(trunc.clone());
        opts.answer_widening = Some(trunc);
        opts
    }

    /// Explains one depth-k answer: maps `goal` — a source-level call whose
    /// arguments are depth-k terms (write `g` for γ, the all-ground-terms
    /// constant) or variables — onto the abstract predicate `ak$p` and
    /// returns the justification trees of every matching abstract answer,
    /// evaluated with the truncation hooks in place.
    ///
    /// # Errors
    ///
    /// Returns parse, transformation, or engine errors.
    pub fn explain(
        &self,
        program: &Program,
        goal: &str,
        max_depth: usize,
    ) -> Result<crate::explain::AnalysisExplanation, AnalysisError> {
        let mut b = Bindings::new();
        let (t, _) = tablog_syntax::parse_term(goal, &mut b)
            .map_err(|e| AnalysisError::Parse(e.to_string()))?;
        let f = t
            .functor()
            .ok_or_else(|| AnalysisError::Parse(format!("bad goal {goal}")))?;
        let args: Vec<Term> = t
            .args()
            .iter()
            .map(|a| match a {
                Term::Atom(s) if sym_name(*s) == "g" => atom(GAMMA),
                other => other.clone(),
            })
            .collect();
        let (db, preds) = self.load_abstract(program, &[])?;
        require_defined(&preds, f.name, f.arity)?;
        let engine = Engine::new(db, self.hooked_options());
        let abstract_term = build(ak_functor(f.name, f.arity), args);
        crate::explain::explain_abstract(&engine, goal, &abstract_term, &b, max_depth)
    }

    fn analyze(
        &self,
        program: &Program,
        entries: &[EntryPoint],
        parse_time: std::time::Duration,
    ) -> Result<DepthKReport, AnalysisError> {
        let mut timer = Timer::start();
        // --- Preprocess. ---
        let (db, preds) = self.load_abstract(program, entries)?;
        let mut opts = self.hooked_options();
        let registry = self
            .profile
            .then(|| crate::profile::install_registry(&mut opts));
        let mut spans = crate::profile::PhaseSpans::from_options(&opts);
        let mut engine = Engine::new(db, opts);
        let preprocess = parse_time + timer.lap();

        // --- Analysis. ---
        engine.options_mut().parent_span = spans.enter("analysis");
        let qb = Bindings::new();
        let eval = engine
            .evaluate(&[atom("$dk")], &[], &qb)?
            .require_complete()?;
        spans.exit();
        let analysis = timer.lap();

        // --- Collection. ---
        spans.enter("collection");
        let mut out = BTreeMap::new();
        for &(name, arity) in preds.keys() {
            let f = ak_functor(name, arity);
            let views = eval.subgoals_of(f);
            let mut answers: Vec<Vec<Term>> = Vec::new();
            let mut call_patterns = Vec::new();
            for v in &views {
                call_patterns.push(v.call_args().to_vec());
                for t in v.answer_tuples() {
                    let row = t.to_vec();
                    if !answers.contains(&row) {
                        answers.push(row);
                    }
                }
            }
            let definitely_ground = (0..arity)
                .map(|i| !answers.is_empty() && answers.iter().all(|r| r[i].is_ground()))
                .collect();
            out.insert(
                (sym_name(name), arity),
                PredDepthK {
                    name: sym_name(name),
                    arity,
                    answers,
                    definitely_ground,
                    call_patterns,
                },
            );
        }
        spans.exit();
        let collection = timer.lap();

        let timings = PhaseTimings {
            preprocess,
            analysis,
            collection,
        };
        let metrics = registry.map(|r| {
            crate::profile::finish(
                &r,
                &timings,
                engine.options().describe(),
                Some(crate::profile::engine_snapshot(&eval, self.options.domain)),
            )
        });
        Ok(DepthKReport {
            preds: out,
            timings,
            stats: eval.stats(),
            metrics,
        })
    }
}

fn ak_functor(name: tablog_term::Sym, arity: usize) -> Functor {
    Functor {
        name: intern(&format!("{AK_PREFIX}{}", sym_name(name))),
        arity,
    }
}

fn build(f: Functor, args: Vec<Term>) -> Term {
    if args.is_empty() {
        Term::Atom(f.name)
    } else {
        Term::Struct(f.name, args.into())
    }
}

/// Truncates every term of a canonical tuple at depth `k`: subterms below
/// the cut become γ if ground, a fresh variable otherwise. Works entirely
/// inside the calling engine's session arena. A tuple no taller than `k`
/// has nothing to cut and comes back as it is, read off the arena's cached
/// height without instantiating anything.
fn truncate_tuple(arena: &mut TermArena, c: &CanonicalTerm, k: usize) -> CanonicalTerm {
    if arena.height(c) <= k {
        return *c;
    }
    truncate_tuple_full(arena, c, k)
}

/// [`truncate_tuple`] without the height check: instantiate, cut, and
/// re-canonicalize.
fn truncate_tuple_full(arena: &mut TermArena, c: &CanonicalTerm, k: usize) -> CanonicalTerm {
    let mut b = Bindings::new();
    let terms = arena.instantiate(c, &mut b);
    let gamma = Term::Atom(intern(GAMMA));
    let truncated: Vec<Term> = terms
        .iter()
        .map(|t| truncate(t, k, &gamma, &mut b))
        .collect();
    arena.canonicalize(&b, &truncated)
}

fn truncate(t: &Term, k: usize, gamma: &Term, b: &mut Bindings) -> Term {
    match t {
        Term::Struct(s, args) => {
            if k == 0 {
                if t.is_ground() {
                    gamma.clone()
                } else {
                    Term::Var(b.fresh_var())
                }
            } else {
                let new: Vec<Term> = args.iter().map(|a| truncate(a, k - 1, gamma, b)).collect();
                Term::Struct(*s, new.into())
            }
        }
        other => other.clone(),
    }
}

/// Transforms a program into its depth-k abstract version: heads become
/// all-variable with explicit `$absunify` goals, and builtins are replaced
/// by their groundness effect.
///
/// # Errors
///
/// Returns [`AnalysisError::Unsupported`] on malformed clause heads.
pub fn transform_depthk(
    program: &Program,
) -> Result<(Vec<Rule>, crate::groundness::PredSet), AnalysisError> {
    let mut preds: crate::groundness::PredSet = BTreeMap::new();
    for c in &program.clauses {
        let f = c
            .head
            .functor()
            .ok_or_else(|| AnalysisError::Unsupported(format!("clause head {}", c.head)))?;
        preds.insert((f.name, f.arity), ());
    }
    let defined: std::collections::HashSet<(tablog_term::Sym, usize)> =
        preds.keys().copied().collect();
    let mut rules = Vec::new();
    for c in &program.clauses {
        let f = c.head.functor().expect("checked above");
        for alt in expand_disjunctions(&c.body) {
            let mut next_var = (c.nvars + f.arity) as u32;
            let head_vars: Vec<Term> = (0..f.arity)
                .map(|i| Term::Var(Var((c.nvars + i) as u32)))
                .collect();
            let mut body = Vec::new();
            for (hv, t) in head_vars.iter().zip(c.head.args()) {
                body.push(structure("$absunify", vec![hv.clone(), t.clone()]));
            }
            let mut dead = false;
            for goal in &alt {
                if !abstract_goal(goal, &defined, &mut body, &mut next_var) {
                    dead = true;
                    break;
                }
            }
            if !dead {
                rules.push(Rule::new(
                    build(ak_functor(f.name, f.arity), head_vars),
                    body,
                ));
            }
        }
    }
    Ok((rules, preds))
}

/// Appends the abstract goals for one body literal; `false` means the
/// literal certainly fails.
fn abstract_goal(
    goal: &Term,
    defined: &std::collections::HashSet<(tablog_term::Sym, usize)>,
    out: &mut Vec<Term>,
    _next_var: &mut u32,
) -> bool {
    let Some(f) = goal.functor() else {
        return true; // variable meta-call: no information
    };
    let name = sym_name(f.name);
    let args = goal.args();
    match (name.as_str(), f.arity) {
        ("true", 0) | ("!", 0) => true,
        ("fail", 0) | ("false", 0) => false,
        ("=", 2) => {
            out.push(structure(
                "$absunify",
                vec![args[0].clone(), args[1].clone()],
            ));
            true
        }
        ("is", 2) => {
            out.push(structure("$absground", vec![args[1].clone()]));
            out.push(structure("$absground", vec![args[0].clone()]));
            true
        }
        ("<", 2) | (">", 2) | ("=<", 2) | (">=", 2) | ("=:=", 2) | ("=\\=", 2) => {
            out.push(structure("$absground", vec![args[0].clone()]));
            out.push(structure("$absground", vec![args[1].clone()]));
            true
        }
        ("atom", 1) | ("atomic", 1) | ("number", 1) | ("integer", 1) | ("ground", 1) => {
            out.push(structure("$absground", vec![args[0].clone()]));
            true
        }
        ("\\+", 1)
        | ("not", 1)
        | ("var", 1)
        | ("nonvar", 1)
        | ("compound", 1)
        | ("\\=", 2)
        | ("==", 2)
        | ("\\==", 2)
        | ("@<", 2)
        | ("@>", 2)
        | ("@=<", 2)
        | ("@>=", 2)
        | ("functor", 3)
        | ("arg", 3)
        | ("=..", 2) => true,
        ("call", 1) => {
            if args[0].functor().is_some() && !args[0].is_var() {
                abstract_goal(&args[0], defined, out, _next_var)
            } else {
                true
            }
        }
        _ => {
            if defined.contains(&(f.name, f.arity)) {
                out.push(build(ak_functor(f.name, f.arity), args.to_vec()));
            }
            // Unknown predicates: assume success, no bindings.
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn truncation_caps_term_growth() {
        let src = "
            nat(0).
            nat(s(X)) :- nat(X).
        ";
        let report = DepthKAnalyzer::new(2).analyze_source(src).unwrap();
        let nat = report.result("nat", 1).unwrap();
        // Fixpoint at depth 2: 0, s(0), s(s(0)), s(s(s(γ)))-truncated…
        assert!(nat.answers.len() <= 5, "{:?}", nat.answers);
        assert_eq!(nat.definitely_ground, vec![true]);
    }

    #[test]
    fn append_depthk_groundness() {
        let src = "
            app([], Ys, Ys).
            app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
        ";
        let report = DepthKAnalyzer::new(2).analyze_source(src).unwrap();
        let app = report.result("app", 3).unwrap();
        assert_eq!(app.definitely_ground, vec![false, false, false]);
        assert!(!app.answers.is_empty());
    }

    #[test]
    fn ground_facts_stay_precise_within_depth() {
        let src = "color(red). color(green). shade(X) :- color(X).";
        let report = DepthKAnalyzer::new(2).analyze_source(src).unwrap();
        let c = report.result("color", 1).unwrap();
        // Depth-1 constants survive truncation exactly.
        assert_eq!(c.answers.len(), 2);
        assert_eq!(c.definitely_ground, vec![true]);
        assert_eq!(
            report.result("shade", 1).unwrap().definitely_ground,
            vec![true]
        );
    }

    #[test]
    fn structure_beyond_k_becomes_gamma() {
        let src = "deep(f(g(h(a)))).";
        let report = DepthKAnalyzer::new(1).analyze_source(src).unwrap();
        let d = report.result("deep", 1).unwrap();
        assert_eq!(d.answers.len(), 1);
        let t = &d.answers[0][0];
        // f(γ) — the inner structure was ground, so it widens to γ.
        assert_eq!(tablog_syntax::term_to_string(t), "f('$g')");
        assert_eq!(d.definitely_ground, vec![true]);
    }

    #[test]
    fn arithmetic_grounds_through_gamma() {
        let src = "inc(X, Y) :- Y is X + 1.";
        let report = DepthKAnalyzer::new(2).analyze_source(src).unwrap();
        let g = report.result("inc", 2).unwrap();
        assert_eq!(g.definitely_ground, vec![true, true]);
    }

    #[test]
    fn entries_seed_gamma_arguments() {
        let src = "
            qs([], []).
            qs([X|Xs], S) :- qs(Xs, S0), ins(X, S0, S).
            ins(X, [], [X]).
            ins(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
            ins(X, [Y|Ys], [Y|Zs]) :- X > Y, ins(X, Ys, Zs).
        ";
        let program = parse_program(src).unwrap();
        let entries = [EntryPoint::parse("qs(g, f)").unwrap()];
        let report = DepthKAnalyzer::new(2)
            .analyze_with_entries(&program, &entries)
            .unwrap();
        let qs = report.result("qs", 2).unwrap();
        assert_eq!(qs.definitely_ground, vec![true, true]);
    }

    #[test]
    fn depthk_agrees_with_prop_on_definite_groundness_direction() {
        // Both analyses over-approximate; on this program they agree.
        let src = "p(a). q(X) :- p(X). r(X, Y) :- q(X), Y = f(X).";
        let dk = DepthKAnalyzer::new(2).analyze_source(src).unwrap();
        let prop = crate::groundness::GroundnessAnalyzer::new()
            .analyze_source(src)
            .unwrap();
        for (name, arity) in [("p", 1), ("q", 1), ("r", 2)] {
            assert_eq!(
                dk.result(name, arity).unwrap().definitely_ground,
                prop.output_groundness(name, arity)
                    .unwrap()
                    .definitely_ground,
                "{name}/{arity}"
            );
        }
    }

    fn arb_term() -> impl Strategy<Value = Term> {
        let leaf = prop_oneof![
            (0u32..4).prop_map(|v| Term::Var(Var(v))),
            prop_oneof![Just("a"), Just("[]"), Just(GAMMA)].prop_map(atom),
        ];
        leaf.prop_recursive(5, 40, 3, |inner| {
            (
                prop_oneof![Just("f"), Just(".")],
                prop::collection::vec(inner, 1..3),
            )
                .prop_map(|(name, args)| structure(name, args))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The height fast path is exact: whenever it applies, the full
        /// instantiate → cut → re-canonicalize route returns the same id,
        /// and the two agree at every depth either way.
        #[test]
        fn height_fast_path_matches_full_truncation(
            ts in prop::collection::vec(arb_term(), 0..4),
            k in 0usize..5,
        ) {
            let mut arena = TermArena::new();
            let c = arena.canonicalize(&Bindings::new(), &ts);
            let full = truncate_tuple_full(&mut arena, &c, k);
            prop_assert_eq!(truncate_tuple(&mut arena, &c, k), full);
            if arena.height(&c) <= k {
                prop_assert_eq!(full, c);
            }
        }
    }

    #[test]
    fn default_k_is_table4_depth() {
        assert_eq!(DEFAULT_K, 1);
        assert_eq!(DepthKAnalyzer::default().k, DEFAULT_K);
    }

    #[test]
    fn timings_reported() {
        let report = DepthKAnalyzer::new(2).analyze_source("p(a).").unwrap();
        assert!(report.table_bytes() > 0);
    }
}
