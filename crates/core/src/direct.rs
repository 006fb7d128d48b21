//! A hand-coded, special-purpose Prop groundness analyzer — the
//! reproduction's stand-in for GAIA in the paper's Table 2.
//!
//! Where the declarative route (module [`crate::groundness`]) *generates a
//! logic program* and hands it to the general-purpose tabled engine, this
//! module is written the way one writes a dedicated abstract interpreter:
//! a goal-directed fixpoint over `(predicate, call pattern)` pairs with an
//! explicit worklist, dependency tracking, and Prop-domain operations
//! with live-variable narrowing. Both implement exactly the same
//! analysis, so their results must coincide — one of the reproduction's
//! integration tests — and their running times are Table 2.
//!
//! The solver is generic over [`AbstractDomain`], so the same worklist
//! runs on enumerative truth tables ([`tablog_domain::TableDomain`], the
//! default) or on BDD-backed Pos ([`tablog_domain::BddDomain`]); pick the
//! backend with [`DirectAnalyzer::domain`].

use crate::error::AnalysisError;
use crate::groundness::{require_defined, transform_program, EntryPoint, IffMode, GP_PREFIX};
use crate::pipeline::{PhaseTimings, Timer};
use crate::prop::{PropTable, MAX_VARS};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use tablog_domain::{AbstractDomain, BddDomain, DomainKind, TableDomain};
use tablog_syntax::{parse_program, Program};
use tablog_term::{sym_name, Functor, Term};
use tablog_trace::{MetricsReport, PredStats, SpanEmitter, SpanRecorder};

/// An abstract clause in the analyzer's internal form: head variables plus
/// a list of constraints over dense variable ids.
#[derive(Clone, Debug)]
struct AbsClause {
    head_vars: Vec<usize>,
    goals: Vec<AbsGoal>,
    /// `last_use[v]` = index of the last goal mentioning `v`.
    last_use: Vec<usize>,
}

#[derive(Clone, Debug)]
enum AbsGoal {
    /// `x ⇔ y1 ∧ … ∧ yk`.
    Iff(usize, Vec<usize>),
    /// A call to a user predicate.
    Call(Functor, Vec<usize>),
}

/// Results of the direct analyzer for one predicate.
#[derive(Clone, Debug)]
pub struct DirectGroundness {
    /// Source predicate name.
    pub name: String,
    /// Arity.
    pub arity: usize,
    /// Output groundness formula (union over all analyzed call patterns).
    pub prop: PropTable,
    /// Per-argument meet: definitely ground on success.
    pub definitely_ground: Vec<bool>,
}

/// The complete result of a direct-analyzer run.
#[derive(Clone, Debug)]
pub struct DirectReport {
    preds: BTreeMap<(String, usize), DirectGroundness>,
    /// Phase timings (preprocess / analysis / collection).
    pub timings: PhaseTimings,
    /// Number of `(predicate, call pattern)` pairs analyzed.
    pub pairs: usize,
    /// Worklist iterations performed.
    pub iterations: usize,
    /// Per-predicate metrics; present iff the analyzer's
    /// [`profile`](DirectAnalyzer::profile) flag was set. The direct
    /// analyzer has no engine, so the rows are built from its own worklist
    /// counters: `subgoals` = call patterns, `clause_resolutions` = clause
    /// evaluations, `completed` = pairs solved to fixpoint.
    pub metrics: Option<MetricsReport>,
    /// The Prop-domain backend the analysis ran on.
    pub domain: DomainKind,
    /// Bytes attributed to the domain backend itself (BDD manager arena
    /// and memo tables); `0` under the enumerative table backend.
    pub domain_bytes: usize,
    /// Live BDD nodes in the backend's manager; `0` under the table
    /// backend.
    pub bdd_nodes: usize,
}

impl DirectReport {
    /// Result for one predicate.
    pub fn output_groundness(&self, name: &str, arity: usize) -> Option<&DirectGroundness> {
        self.preds.get(&(name.to_owned(), arity))
    }

    /// All analyzed predicates, sorted by name.
    pub fn predicates(&self) -> impl Iterator<Item = &DirectGroundness> {
        self.preds.values()
    }
}

/// The success-set rows one clause contributes at fixpoint.
#[derive(Clone, Debug)]
pub struct DirectClauseSupport {
    /// Clause position within the predicate, in source order.
    pub clause_index: usize,
    /// Rows of the clause's contribution (each `arity` long, `true` =
    /// ground).
    pub rows: Vec<Vec<bool>>,
}

/// A clause-contribution explanation of one direct-analyzer result; see
/// [`DirectAnalyzer::explain`].
#[derive(Clone, Debug)]
pub struct DirectExplanation {
    /// The goal as given (`app(g, f, f)` notation).
    pub goal: String,
    /// Predicate name.
    pub name: String,
    /// Arity.
    pub arity: usize,
    /// The fixpoint success set under the goal's call pattern.
    pub rows: Vec<Vec<bool>>,
    /// Per-clause contributions; their union is [`rows`](Self::rows).
    pub clauses: Vec<DirectClauseSupport>,
}

fn row_str(row: &[bool]) -> String {
    row.iter().map(|&b| if b { 'g' } else { 'f' }).collect()
}

impl DirectExplanation {
    /// `true` if the pattern has an empty success set.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the fixpoint rows and each clause's contribution as text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let fmt_rows = |rows: &[Vec<bool>]| -> String {
            if rows.is_empty() {
                "(none)".to_owned()
            } else {
                rows.iter()
                    .map(|r| row_str(r))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        let mut out = format!(
            "goal: {}\n{}/{} fixpoint rows: {}\n",
            self.goal,
            self.name,
            self.arity,
            fmt_rows(&self.rows)
        );
        for c in &self.clauses {
            let _ = writeln!(out, "  clause #{}: {}", c.clause_index, fmt_rows(&c.rows));
        }
        out
    }

    /// Renders the explanation as one JSON object; rows are `g`/`f`
    /// strings, one character per argument.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        use tablog_trace::json::escape;
        let push_rows = |s: &mut String, rows: &[Vec<bool>]| {
            s.push('[');
            for (i, r) in rows.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\"", row_str(r));
            }
            s.push(']');
        };
        let mut s = format!(
            "{{\"goal\":\"{}\",\"pred\":\"{}/{}\",\"rows\":",
            escape(&self.goal),
            escape(&self.name),
            self.arity
        );
        push_rows(&mut s, &self.rows);
        s.push_str(",\"clauses\":[");
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"index\":{},\"rows\":", c.clause_index);
            push_rows(&mut s, &c.rows);
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

type Key<D> = (Functor, <D as AbstractDomain>::Value);

/// The worklist fixpoint solver, generic over the Prop-domain backend.
/// `(predicate, call pattern)` pairs key the result table; since every
/// backend's `Value` is canonical (bitsets for tables, hash-consed node
/// handles for BDDs), `Eq`/`Hash` on values is semantic equality and the
/// keys behave identically across backends.
struct Solver<D: AbstractDomain> {
    domain: D,
    clauses: HashMap<Functor, Vec<AbsClause>>,
    results: HashMap<Key<D>, D::Value>,
    deps: HashMap<Key<D>, HashSet<Key<D>>>,
    queue: VecDeque<Key<D>>,
    queued: HashSet<Key<D>>,
    iterations: usize,
    /// Per-functor counters, maintained only when profiling.
    profile: Option<BTreeMap<Functor, PredStats>>,
}

impl<D: AbstractDomain> Solver<D> {
    fn enqueue(&mut self, key: Key<D>) {
        if self.queued.insert(key.clone()) {
            self.queue.push_back(key);
        }
    }

    fn demand(&mut self, f: Functor, pattern: D::Value, caller: Option<&Key<D>>) -> D::Value {
        let key = (f, pattern);
        if let Some(c) = caller {
            self.deps.entry(key.clone()).or_default().insert(c.clone());
        }
        if let Some(r) = self.results.get(&key) {
            return r.clone();
        }
        if let Some(stats) = self.profile.as_mut() {
            stats.entry(f).or_default().subgoals += 1;
        }
        let bottom = self.domain.bottom(f.arity);
        self.results.insert(key.clone(), bottom.clone());
        self.enqueue(key);
        bottom
    }

    fn run(&mut self) -> Result<(), AnalysisError> {
        while let Some(key) = self.queue.pop_front() {
            self.queued.remove(&key);
            self.iterations += 1;
            let computed = self.evaluate(&key)?;
            let old = self.results.get(&key).expect("seeded").clone();
            let merged = self.domain.join(&old, &computed);
            if merged != old {
                self.results.insert(key.clone(), merged);
                if let Some(callers) = self.deps.get(&key).cloned() {
                    for c in callers {
                        self.enqueue(c);
                    }
                }
            }
        }
        Ok(())
    }

    fn evaluate(&mut self, key: &Key<D>) -> Result<D::Value, AnalysisError> {
        let (f, pattern) = key;
        let clauses = self.clauses.get(f).cloned().unwrap_or_default();
        if let Some(stats) = self.profile.as_mut() {
            stats.entry(*f).or_default().clause_resolutions += clauses.len() as u64;
        }
        let mut acc = self.domain.bottom(f.arity);
        for clause in &clauses {
            let t = self.eval_clause(clause, pattern, key)?;
            acc = self.domain.join(&acc, &t);
        }
        Ok(acc)
    }

    fn eval_clause(
        &mut self,
        clause: &AbsClause,
        pattern: &D::Value,
        key: &Key<D>,
    ) -> Result<D::Value, AnalysisError> {
        // Active variable set, initially the head variables; the table is
        // the call pattern, one column per active variable.
        let mut active: Vec<usize> = clause.head_vars.clone();
        let mut table = pattern.clone();
        let head_set: HashSet<usize> = clause.head_vars.iter().copied().collect();
        for (i, goal) in clause.goals.iter().enumerate() {
            let mentioned: Vec<usize> = match goal {
                AbsGoal::Iff(x, ys) => {
                    let mut m = vec![*x];
                    m.extend_from_slice(ys);
                    m
                }
                AbsGoal::Call(_, args) => args.clone(),
            };
            // Introduce unseen variables as unconstrained columns. The
            // width cap is enforced uniformly (even though BDDs could go
            // wider) so both backends accept exactly the same programs.
            for v in &mentioned {
                if !active.contains(v) {
                    if active.len() + 1 > MAX_VARS {
                        return Err(AnalysisError::Unsupported(format!(
                            "clause needs more than {MAX_VARS} live Prop variables"
                        )));
                    }
                    table = self.domain.extend(&table, 1);
                    active.push(*v);
                }
            }
            let pos =
                |v: usize| -> usize { active.iter().position(|&a| a == v).expect("active var") };
            match goal {
                AbsGoal::Iff(x, ys) => {
                    let ix = pos(*x);
                    let iys: Vec<usize> = ys.iter().map(|&y| pos(y)).collect();
                    table = self.domain.constrain_iff(&table, ix, &iys);
                }
                AbsGoal::Call(g, args) => {
                    let positions: Vec<usize> = args.iter().map(|&a| pos(a)).collect();
                    let cp = self.domain.project(&table, &positions);
                    let r = self.demand(*g, cp, Some(key));
                    table = self.domain.constrain_relation(&table, &positions, &r);
                }
            }
            if self.domain.is_empty(&table) {
                return Ok(self.domain.bottom(clause.head_vars.len()));
            }
            // Narrow to live variables: head vars plus those used later.
            let keep: Vec<usize> = active
                .iter()
                .copied()
                .filter(|v| head_set.contains(v) || clause.last_use[*v] > i)
                .collect();
            if keep.len() != active.len() {
                let positions: Vec<usize> = keep
                    .iter()
                    .map(|v| active.iter().position(|a| a == v).expect("active var"))
                    .collect();
                table = self.domain.project(&table, &positions);
                active = keep;
            }
        }
        let head_positions: Vec<usize> = clause
            .head_vars
            .iter()
            .map(|v| active.iter().position(|a| a == v).expect("head var live"))
            .collect();
        Ok(self.domain.project(&table, &head_positions))
    }
}

/// The direct (special-purpose) groundness analyzer.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectAnalyzer {
    /// Collect per-predicate worklist metrics and phase timings into
    /// [`DirectReport::metrics`].
    pub profile: bool,
    /// Additionally record phase spans into the metrics report's span
    /// tree, on the same process-wide timeline the engine's spans use —
    /// so the direct analyzer's phases line up with the declarative
    /// analyzers' in a combined profile. Requires `profile`.
    pub record_spans: bool,
    /// Which Prop-domain backend the worklist solver runs on. The
    /// default enumerative [`DomainKind::Table`] matches the historical
    /// analyzer bit for bit; [`DomainKind::Bdd`] computes the same
    /// results on hash-consed BDDs.
    pub domain: DomainKind,
}

impl DirectAnalyzer {
    /// Creates the analyzer.
    pub fn new() -> Self {
        DirectAnalyzer::default()
    }

    /// Parses and analyzes `src` with fully open call patterns.
    ///
    /// # Errors
    ///
    /// Returns parse errors, or [`AnalysisError::Unsupported`] if a clause
    /// exceeds the truth-table width limit.
    pub fn analyze_source(&self, src: &str) -> Result<DirectReport, AnalysisError> {
        let mut timer = Timer::start();
        let program = parse_program(src)?;
        self.analyze(&program, &[], timer.lap())
    }

    /// Analyzes a parsed program with fully open call patterns.
    ///
    /// # Errors
    ///
    /// As [`DirectAnalyzer::analyze_source`].
    pub fn analyze_program(&self, program: &Program) -> Result<DirectReport, AnalysisError> {
        self.analyze(program, &[], std::time::Duration::ZERO)
    }

    /// Goal-directed analysis from entry points.
    ///
    /// # Errors
    ///
    /// As [`DirectAnalyzer::analyze_source`].
    pub fn analyze_with_entries(
        &self,
        program: &Program,
        entries: &[EntryPoint],
    ) -> Result<DirectReport, AnalysisError> {
        self.analyze(program, entries, std::time::Duration::ZERO)
    }

    /// Lowers the program into the analyzer's internal form and builds a
    /// fresh solver over `domain`. Shared by
    /// [`analyze`](DirectAnalyzer::analyze_program) and
    /// [`explain`](DirectAnalyzer::explain).
    fn build_solver<D: AbstractDomain>(
        &self,
        domain: D,
        program: &Program,
    ) -> Result<(Solver<D>, crate::groundness::PredSet), AnalysisError> {
        let (rules, preds) = transform_program(program, IffMode::Builtin)?;
        let mut clauses: HashMap<Functor, Vec<AbsClause>> = HashMap::new();
        for r in &rules {
            let f = r.head.functor().expect("abstract heads are callable");
            clauses.entry(f).or_default().push(lower_clause(r)?);
        }
        Ok((
            Solver {
                domain,
                clauses,
                results: HashMap::new(),
                deps: HashMap::new(),
                queue: VecDeque::new(),
                queued: HashSet::new(),
                iterations: 0,
                profile: self.profile.then(BTreeMap::new),
            },
            preds,
        ))
    }

    /// Explains one fixpoint result: `goal` is an [`EntryPoint`]-style call
    /// pattern (`app(g, f, f)` — `g`round / `f`ree). The analyzer runs to
    /// fixpoint from that pattern, then re-evaluates each clause of the
    /// predicate once against the fixpoint to report which success-set rows
    /// each clause contributes — the worklist analog of a justification
    /// tree, since the hand-coded analyzer keeps no tables to walk.
    ///
    /// # Errors
    ///
    /// Returns parse errors, unknown predicates, or width-limit errors.
    pub fn explain(
        &self,
        program: &Program,
        goal: &str,
    ) -> Result<DirectExplanation, AnalysisError> {
        match self.domain {
            DomainKind::Table => self.explain_in(TableDomain, program, goal),
            DomainKind::Bdd => self.explain_in(BddDomain::new(), program, goal),
        }
    }

    fn explain_in<D: AbstractDomain>(
        &self,
        domain: D,
        program: &Program,
        goal: &str,
    ) -> Result<DirectExplanation, AnalysisError> {
        let e = EntryPoint::parse(goal)?;
        let arity = e.ground_args.len();
        let f = gp(tablog_term::intern(&e.name), arity);
        let (mut solver, preds) = self.build_solver(domain, program)?;
        require_defined(&preds, tablog_term::intern(&e.name), arity)?;
        let mut cp = solver.domain.top(arity);
        for (i, &g) in e.ground_args.iter().enumerate() {
            if g {
                cp = solver.domain.constrain_value(&cp, i, true);
            }
        }
        solver.demand(f, cp.clone(), None);
        solver.run()?;
        let key = (f, cp);
        let fix = solver.results.get(&key).cloned();
        let rows = match fix {
            Some(v) => solver.domain.to_table(&v).rows(),
            None => Vec::new(),
        };
        let abs_clauses = solver.clauses.get(&f).cloned().unwrap_or_default();
        let mut clauses = Vec::new();
        for (ci, clause) in abs_clauses.iter().enumerate() {
            let t = solver.eval_clause(clause, &key.1, &key)?;
            clauses.push(DirectClauseSupport {
                clause_index: ci,
                rows: solver.domain.to_table(&t).rows(),
            });
        }
        Ok(DirectExplanation {
            goal: goal.to_owned(),
            name: e.name,
            arity,
            rows,
            clauses,
        })
    }

    fn analyze(
        &self,
        program: &Program,
        entries: &[EntryPoint],
        parse_time: std::time::Duration,
    ) -> Result<DirectReport, AnalysisError> {
        match self.domain {
            DomainKind::Table => self.analyze_in(TableDomain, program, entries, parse_time),
            DomainKind::Bdd => self.analyze_in(BddDomain::new(), program, entries, parse_time),
        }
    }

    fn analyze_in<D: AbstractDomain>(
        &self,
        domain: D,
        program: &Program,
        entries: &[EntryPoint],
        parse_time: std::time::Duration,
    ) -> Result<DirectReport, AnalysisError> {
        let mut timer = Timer::start();
        let mut spans =
            (self.profile && self.record_spans).then(|| (SpanRecorder::new(), SpanEmitter::new()));
        // Preprocess: reuse the Figure 1 transform, then lower the abstract
        // rules into the analyzer's dense internal form.
        if let Some((rec, em)) = spans.as_mut() {
            em.enter(rec, "preprocess", None);
        }
        let (mut solver, preds) = self.build_solver(domain, program)?;
        if let Some((rec, em)) = spans.as_mut() {
            em.exit(rec);
            em.enter(rec, "analysis", None);
        }
        let preprocess = parse_time + timer.lap();

        // Analysis: seed and run to fixpoint.
        if entries.is_empty() {
            for &(name, arity) in preds.keys() {
                let f = gp(name, arity);
                let top = solver.domain.top(arity);
                solver.demand(f, top, None);
            }
        } else {
            for e in entries {
                let arity = e.ground_args.len();
                require_defined(&preds, tablog_term::intern(&e.name), arity)?;
                let f = gp(tablog_term::intern(&e.name), arity);
                let mut cp = solver.domain.top(arity);
                for (i, &g) in e.ground_args.iter().enumerate() {
                    if g {
                        cp = solver.domain.constrain_value(&cp, i, true);
                    }
                }
                solver.demand(f, cp, None);
            }
        }
        solver.run()?;
        if let Some((rec, em)) = spans.as_mut() {
            em.exit(rec);
            em.enter(rec, "collection", None);
        }
        let analysis = timer.lap();

        // Collection: merge results per predicate, exporting the joined
        // value as an enumerative truth table so `DirectGroundness` has
        // one canonical output form regardless of backend.
        let mut out = BTreeMap::new();
        for &(name, arity) in preds.keys() {
            let f = gp(name, arity);
            let matching: Vec<D::Value> = solver
                .results
                .iter()
                .filter(|(k, _)| k.0 == f)
                .map(|(_, r)| r.clone())
                .collect();
            if matching.is_empty() {
                continue; // unreachable from the entries
            }
            let mut merged = solver.domain.bottom(arity);
            for r in &matching {
                merged = solver.domain.join(&merged, r);
            }
            let prop = solver.domain.to_table(&merged);
            let definitely_ground = (0..arity).map(|i| prop.definitely(i)).collect();
            out.insert(
                (sym_name(name), arity),
                DirectGroundness {
                    name: sym_name(name),
                    arity,
                    prop,
                    definitely_ground,
                },
            );
        }
        if let Some((rec, em)) = spans.as_mut() {
            em.exit(rec);
        }
        let collection = timer.lap();

        let metrics = solver.profile.take().map(|mut stats| {
            // Every seeded pair reached fixpoint once the worklist drained.
            for (f, _) in solver.results.keys() {
                stats.entry(*f).or_default().completed += 1;
            }
            let mut rows: Vec<(String, PredStats)> =
                stats.iter().map(|(f, s)| (f.to_string(), *s)).collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            MetricsReport {
                preds: rows,
                phases: vec![
                    ("preprocess".to_string(), preprocess),
                    ("analysis".to_string(), analysis),
                    ("collection".to_string(), collection),
                ],
                options: vec![
                    ("analyzer".to_string(), "direct".to_string()),
                    ("domain".to_string(), self.domain.name().to_string()),
                ],
                spans: spans
                    .as_ref()
                    .map(|(rec, _)| rec.snapshot())
                    .unwrap_or_default(),
                engine: None,
            }
        });
        let domain_stats = solver.domain.stats();
        Ok(DirectReport {
            preds: out,
            timings: PhaseTimings {
                preprocess,
                analysis,
                collection,
            },
            pairs: solver.results.len(),
            iterations: solver.iterations,
            metrics,
            domain: self.domain,
            domain_bytes: domain_stats.bytes,
            bdd_nodes: domain_stats.nodes,
        })
    }
}

fn gp(name: tablog_term::Sym, arity: usize) -> Functor {
    Functor {
        name: tablog_term::intern(&format!("{GP_PREFIX}{}", sym_name(name))),
        arity,
    }
}

fn lower_clause(r: &tablog_magic::Rule) -> Result<AbsClause, AnalysisError> {
    let mut ids: HashMap<tablog_term::Var, usize> = HashMap::new();
    let mut id_of = |t: &Term| -> Result<usize, AnalysisError> {
        match t {
            Term::Var(v) => {
                let n = ids.len();
                Ok(*ids.entry(*v).or_insert(n))
            }
            other => Err(AnalysisError::Unsupported(format!(
                "non-variable argument {other} in abstract clause"
            ))),
        }
    };
    let head_vars: Vec<usize> = r
        .head
        .args()
        .iter()
        .map(&mut id_of)
        .collect::<Result<_, _>>()?;
    let mut goals = Vec::new();
    for lit in &r.body {
        let f = lit
            .functor()
            .ok_or_else(|| AnalysisError::Unsupported(format!("bad abstract literal {lit}")))?;
        let name = sym_name(f.name);
        if name == "$iff" {
            let x = id_of(&lit.args()[0])?;
            let ys: Vec<usize> = lit.args()[1..]
                .iter()
                .map(&mut id_of)
                .collect::<Result<_, _>>()?;
            goals.push(AbsGoal::Iff(x, ys));
        } else if name.starts_with(GP_PREFIX) {
            let args: Vec<usize> = lit
                .args()
                .iter()
                .map(&mut id_of)
                .collect::<Result<_, _>>()?;
            goals.push(AbsGoal::Call(f, args));
        } else {
            return Err(AnalysisError::Unsupported(format!(
                "unexpected literal {lit} in abstract clause"
            )));
        }
    }
    let mut last_use = vec![0usize; ids.len()];
    for (i, g) in goals.iter().enumerate() {
        let mentioned: Vec<usize> = match g {
            AbsGoal::Iff(x, ys) => {
                let mut m = vec![*x];
                m.extend_from_slice(ys);
                m
            }
            AbsGoal::Call(_, args) => args.clone(),
        };
        for v in mentioned {
            last_use[v] = i;
        }
    }
    Ok(AbsClause {
        head_vars,
        goals,
        last_use,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundness::GroundnessAnalyzer;

    const APPEND: &str = "
        app([], Ys, Ys).
        app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
    ";

    #[test]
    fn append_formula_matches_tabled_engine() {
        let direct = DirectAnalyzer::new().analyze_source(APPEND).unwrap();
        let tabled = GroundnessAnalyzer::new().analyze_source(APPEND).unwrap();
        let d = direct.output_groundness("app", 3).unwrap();
        let t = tabled.output_groundness("app", 3).unwrap();
        assert_eq!(d.prop, t.prop);
        assert_eq!(d.definitely_ground, t.definitely_ground);
    }

    #[test]
    fn direct_handles_facts_and_chains() {
        let src = "p(a). q(X) :- p(X). r(X, Y) :- q(X), Y = f(X).";
        let direct = DirectAnalyzer::new().analyze_source(src).unwrap();
        assert_eq!(
            direct.output_groundness("r", 2).unwrap().definitely_ground,
            vec![true, true]
        );
    }

    #[test]
    fn goal_directed_restricts_reachability() {
        let src = "
            reached(X) :- helper(X).
            helper(a).
            island(b).
        ";
        let program = parse_program(src).unwrap();
        let entries = [EntryPoint::new("reached", &[false])];
        let report = DirectAnalyzer::new()
            .analyze_with_entries(&program, &entries)
            .unwrap();
        assert!(report.output_groundness("reached", 1).is_some());
        assert!(report.output_groundness("island", 1).is_none());
    }

    #[test]
    fn entry_groundness_matches_tabled() {
        let src = "
            qs([], []).
            qs([X|Xs], S) :- qs(Xs, S0), ins(X, S0, S).
            ins(X, [], [X]).
            ins(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
            ins(X, [Y|Ys], [Y|Zs]) :- X > Y, ins(X, Ys, Zs).
        ";
        let program = parse_program(src).unwrap();
        let entries = [EntryPoint::parse("qs(g, f)").unwrap()];
        let direct = DirectAnalyzer::new()
            .analyze_with_entries(&program, &entries)
            .unwrap();
        let tabled = GroundnessAnalyzer::new()
            .analyze_with_entries(&program, &entries)
            .unwrap();
        for p in ["qs", "ins"] {
            let arity = if p == "qs" { 2 } else { 3 };
            let d = direct.output_groundness(p, arity).unwrap();
            let t = tabled.output_groundness(p, arity).unwrap();
            assert_eq!(d.definitely_ground, t.definitely_ground, "{p}");
        }
    }

    #[test]
    fn recursion_converges() {
        let src = "
            even(0).
            even(s(X)) :- odd(X).
            odd(s(X)) :- even(X).
        ";
        let report = DirectAnalyzer::new().analyze_source(src).unwrap();
        assert_eq!(
            report
                .output_groundness("even", 1)
                .unwrap()
                .definitely_ground,
            vec![true]
        );
        assert!(report.iterations > 1);
    }

    #[test]
    fn explain_reports_clause_contributions() {
        let program = parse_program(APPEND).unwrap();
        let ex = DirectAnalyzer::new()
            .explain(&program, "app(g, g, f)")
            .unwrap();
        assert_eq!(ex.name, "app");
        assert_eq!(ex.arity, 3);
        assert_eq!(ex.clauses.len(), 2);
        assert!(!ex.is_empty());
        // The fixpoint rows are covered by the clause contributions.
        for r in &ex.rows {
            assert!(
                ex.clauses.iter().any(|c| c.rows.contains(r)),
                "row {r:?} supported by no clause"
            );
        }
        let text = ex.render_text();
        assert!(text.contains("app/3 fixpoint rows:"));
        assert!(text.contains("clause #0"));
        assert!(tablog_trace::json::parse(&ex.to_json()).is_ok());
    }

    #[test]
    fn explain_rejects_unknown_predicate() {
        let program = parse_program(APPEND).unwrap();
        assert!(DirectAnalyzer::new().explain(&program, "nope(g)").is_err());
    }

    #[test]
    fn stats_are_reported() {
        let report = DirectAnalyzer::new().analyze_source(APPEND).unwrap();
        assert!(report.pairs >= 1);
        assert!(report.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn bdd_backend_matches_table_backend() {
        let src = "
            qs([], []).
            qs([X|Xs], S) :- qs(Xs, S0), ins(X, S0, S).
            ins(X, [], [X]).
            ins(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
            ins(X, [Y|Ys], [Y|Zs]) :- X > Y, ins(X, Ys, Zs).
        ";
        let table = DirectAnalyzer::new().analyze_source(src).unwrap();
        let bdd = DirectAnalyzer {
            domain: DomainKind::Bdd,
            ..DirectAnalyzer::new()
        }
        .analyze_source(src)
        .unwrap();
        for d in table.predicates() {
            let b = bdd.output_groundness(&d.name, d.arity).unwrap();
            assert_eq!(d.prop, b.prop, "{}/{}", d.name, d.arity);
            assert_eq!(d.definitely_ground, b.definitely_ground);
        }
        assert_eq!(table.domain, DomainKind::Table);
        assert_eq!(bdd.domain, DomainKind::Bdd);
        assert_eq!((table.bdd_nodes, table.domain_bytes), (0, 0));
        assert!(bdd.bdd_nodes > 0);
        assert!(bdd.domain_bytes > 0);
    }

    #[test]
    fn bdd_explain_matches_table_explain() {
        let program = parse_program(APPEND).unwrap();
        let t = DirectAnalyzer::new()
            .explain(&program, "app(g, g, f)")
            .unwrap();
        let b = DirectAnalyzer {
            domain: DomainKind::Bdd,
            ..DirectAnalyzer::new()
        }
        .explain(&program, "app(g, g, f)")
        .unwrap();
        assert_eq!(t.rows, b.rows);
        assert_eq!(t.clauses.len(), b.clauses.len());
        for (tc, bc) in t.clauses.iter().zip(&b.clauses) {
            assert_eq!((tc.clause_index, &tc.rows), (bc.clause_index, &bc.rows));
        }
    }

    #[test]
    fn metrics_record_the_domain_backend() {
        let analyzer = DirectAnalyzer {
            profile: true,
            domain: DomainKind::Bdd,
            ..DirectAnalyzer::new()
        };
        let report = analyzer.analyze_source(APPEND).unwrap();
        let metrics = report.metrics.expect("profiled");
        assert!(metrics
            .options
            .iter()
            .any(|(k, v)| k == "domain" && v == "bdd"));
    }
}
