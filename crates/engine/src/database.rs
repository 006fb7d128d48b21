//! The clause database: predicates, loading modes, first-argument indexing.

use crate::builtins::{control, Control};
use crate::error::EngineError;
use std::collections::HashMap;
use tablog_syntax::{Program, ReadClause};
use tablog_term::{intern, sym_name, FastMap, Functor, Sym, Term};

/// How clauses are prepared for evaluation — the paper's central
/// preprocessing trade-off (Section 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LoadMode {
    /// "Dynamic compilation": clauses are asserted as-is and scanned
    /// linearly, like XSB's `assert` + `call/1`. Cheapest preprocessing;
    /// the paper found this the better overall choice for analysis.
    #[default]
    Dynamic,
    /// "Full compilation": build a first-argument index per predicate.
    /// More preprocessing, faster clause selection during evaluation.
    Compiled,
}

/// A clause stored in the database, with variables numbered `0..nvars`.
#[derive(Clone, Debug)]
pub struct StoredClause {
    /// The head literal.
    pub head: Term,
    /// Body goals, in selection order.
    pub body: Vec<Term>,
    /// Number of distinct variables in the clause.
    pub nvars: usize,
}

impl StoredClause {
    fn renumber(head: Term, body: Vec<Term>) -> StoredClause {
        // Compact variable numbering to 0..n in first-occurrence order.
        let mut map = HashMap::new();
        let mut fix = |t: &Term| {
            t.map_vars(&mut |v| {
                let n = map.len() as u32;
                Term::Var(tablog_term::Var(*map.entry(v).or_insert(n)))
            })
        };
        let head = fix(&head);
        let body: Vec<Term> = body.iter().map(&mut fix).collect();
        StoredClause {
            head,
            body,
            nvars: map.len(),
        }
    }
}

/// First-argument index key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum IndexKey {
    Atom(Sym),
    Int(i64),
    Struct(Sym, usize),
}

fn index_key(t: &Term) -> Option<IndexKey> {
    match t {
        Term::Atom(s) => Some(IndexKey::Atom(*s)),
        Term::Int(i) => Some(IndexKey::Int(*i)),
        Term::Struct(s, args) => Some(IndexKey::Struct(*s, args.len())),
        Term::Var(_) => None,
    }
}

/// `key -> clause indices`, plus the list of clauses with variable
/// first argument (which match any key).
type ClauseIndex = (FastMap<IndexKey, Vec<usize>>, Vec<usize>);

#[derive(Clone, Debug, Default)]
struct Predicate {
    clauses: Vec<StoredClause>,
    tabled: bool,
    index: Option<ClauseIndex>,
}

/// A clause database with per-predicate tabling flags.
///
/// Built from a parsed [`Program`] via [`Database::load`], or incrementally
/// with [`Database::assert_clause`] (the engine's `assert`).
#[derive(Clone, Debug, Default)]
pub struct Database {
    /// Probed on every dispatched goal, so keyed with the multiplicative
    /// hasher rather than SipHash.
    preds: FastMap<Functor, Predicate>,
    mode: LoadMode,
}

impl Database {
    /// Creates an empty database with the given load mode.
    pub fn new(mode: LoadMode) -> Self {
        Database {
            preds: FastMap::default(),
            mode,
        }
    }

    /// The database's load mode.
    pub fn mode(&self) -> LoadMode {
        self.mode
    }

    /// Loads a parsed program: all clauses, plus its `:- table` directives.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadGoal`] if a clause head is not a callable
    /// term.
    pub fn load(&mut self, program: &Program) -> Result<(), EngineError> {
        for (name, arity) in program.tabled() {
            self.set_tabled(
                Functor {
                    name: intern(&name),
                    arity,
                },
                true,
            );
        }
        for c in &program.clauses {
            self.add_read_clause(c)?;
        }
        if self.mode == LoadMode::Compiled {
            self.build_indexes();
        }
        Ok(())
    }

    fn add_read_clause(&mut self, c: &ReadClause) -> Result<(), EngineError> {
        self.assert_clause(c.head.clone(), c.body.clone())
    }

    /// Asserts a clause (at the end of its predicate, like `assertz`).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadGoal`] if `head` is not callable.
    pub fn assert_clause(&mut self, head: Term, body: Vec<Term>) -> Result<(), EngineError> {
        let f = head
            .functor()
            .ok_or_else(|| EngineError::BadGoal(format!("clause head {head}")))?;
        let pred = self.preds.entry(f).or_default();
        let clause = StoredClause::renumber(head, body);
        if let Some((index, var_clauses)) = &mut pred.index {
            let i = pred.clauses.len();
            match index_key(&clause.head.args().first().cloned().unwrap_or(Term::Int(0))) {
                Some(k) if f.arity > 0 => {
                    // A bucket created only now must still contain every
                    // earlier variable-headed clause: buckets are complete,
                    // merged, source-ordered lists.
                    index
                        .entry(k)
                        .or_insert_with(|| var_clauses.clone())
                        .push(i);
                }
                _ => {
                    var_clauses.push(i);
                    // A variable-headed clause matches every key bucket too.
                    for v in index.values_mut() {
                        v.push(i);
                    }
                }
            }
        }
        pred.clauses.push(clause);
        Ok(())
    }

    /// Retracts every clause of `f` (like `abolish/1`).
    pub fn retract_all(&mut self, f: Functor) {
        if let Some(p) = self.preds.get_mut(&f) {
            p.clauses.clear();
            p.index = None;
        }
    }

    /// Marks (or unmarks) a predicate for tabled evaluation.
    pub fn set_tabled(&mut self, f: Functor, tabled: bool) {
        self.preds.entry(f).or_default().tabled = tabled;
    }

    /// Marks every predicate defined in the database as tabled — what the
    /// analyses do to their abstract programs.
    pub fn table_all(&mut self) {
        for p in self.preds.values_mut() {
            p.tabled = true;
        }
    }

    /// `true` if `f` is marked tabled.
    pub fn is_tabled(&self, f: Functor) -> bool {
        self.preds.get(&f).map(|p| p.tabled).unwrap_or(false)
    }

    /// `true` if `f` has at least one clause or a tabling mark.
    pub fn is_defined(&self, f: Functor) -> bool {
        self.preds.contains_key(&f)
    }

    /// All functors defined in the database.
    pub fn functors(&self) -> impl Iterator<Item = Functor> + '_ {
        self.preds.keys().copied()
    }

    /// Total number of stored clauses.
    pub fn num_clauses(&self) -> usize {
        self.preds.values().map(|p| p.clauses.len()).sum()
    }

    /// Builds first-argument indexes for every predicate ("compilation").
    /// Idempotent; called automatically by [`Database::load`] in
    /// [`LoadMode::Compiled`].
    ///
    /// Each bucket is precomputed as the complete, merged, source-ordered
    /// list of matching clause ids (keyed clauses plus every
    /// variable-headed clause), so lookup never sorts or allocates.
    pub fn build_indexes(&mut self) {
        for pred in self.preds.values_mut() {
            let mut index: FastMap<IndexKey, Vec<usize>> = FastMap::default();
            let mut var_clauses = Vec::new();
            for (i, c) in pred.clauses.iter().enumerate() {
                match c.head.args().first().and_then(index_key) {
                    Some(k) => index.entry(k).or_default().push(i),
                    None => var_clauses.push(i),
                }
            }
            // Merge the variable-headed clauses into every bucket, restoring
            // source order. Merging after the scan (rather than pushing into
            // live buckets during it) also covers buckets whose key first
            // appears *after* a var clause.
            for v in index.values_mut() {
                v.extend_from_slice(&var_clauses);
                v.sort_unstable();
                v.dedup();
            }
            pred.index = Some((index, var_clauses));
        }
    }

    /// The clauses of `f` that can match a call whose first argument is
    /// `first_arg` — all of them in [`LoadMode::Dynamic`], an indexed subset
    /// in [`LoadMode::Compiled`].
    pub fn matching_clauses(&self, f: Functor, first_arg: Option<&Term>) -> Vec<&StoredClause> {
        self.matching_clauses_indexed(f, first_arg)
            .into_iter()
            .map(|(_, c)| c)
            .collect()
    }

    /// Like [`Database::matching_clauses`], but pairs each clause with its
    /// stable index within the predicate (its position in source order) —
    /// the clause identity recorded by answer provenance.
    pub fn matching_clauses_indexed(
        &self,
        f: Functor,
        first_arg: Option<&Term>,
    ) -> Vec<(usize, &StoredClause)> {
        self.matching_clauses_iter(f, first_arg).collect()
    }

    /// Iterates the matching clauses without allocating: index buckets are
    /// precomputed merged source-ordered id lists (see
    /// [`Database::build_indexes`]), so lookup is a hash probe plus a slice
    /// walk. This is the clause-resolution hot path.
    pub fn matching_clauses_iter(&self, f: Functor, first_arg: Option<&Term>) -> ClauseMatches<'_> {
        let Some(pred) = self.preds.get(&f) else {
            return ClauseMatches {
                clauses: &[],
                ids: IdSource::All(0..0),
            };
        };
        let ids = match (&pred.index, first_arg.and_then(index_key)) {
            (Some((index, var_clauses)), Some(key)) => {
                // A key with its own bucket sees the full merged list; a key
                // never indexed matches exactly the variable-headed clauses.
                let bucket = index.get(&key).unwrap_or(var_clauses);
                IdSource::Bucket(bucket.iter())
            }
            _ => IdSource::All(0..pred.clauses.len()),
        };
        ClauseMatches {
            clauses: &pred.clauses,
            ids,
        }
    }

    /// The `idx`-th clause of `f` in source order, if it exists — resolves
    /// the clause ids stored in answer provenance.
    pub fn clause(&self, f: Functor, idx: usize) -> Option<&StoredClause> {
        self.preds.get(&f).and_then(|p| p.clauses.get(idx))
    }

    /// All clauses of `f` in source order.
    pub fn clauses(&self, f: Functor) -> &[StoredClause] {
        self.preds
            .get(&f)
            .map(|p| p.clauses.as_slice())
            .unwrap_or(&[])
    }

    /// The strongly connected components of the static predicate call
    /// graph, in a deterministic order (reverse topological: callees before
    /// callers; members and tie-breaks sorted by name/arity). Call edges
    /// are collected from clause bodies by descending through the control
    /// constructs the engine itself interprets (`,`, `;`, `->`, `\+`,
    /// `not`, `call`); only defined predicates appear. This is the grouping
    /// the profiler uses to roll span time up per SCC.
    pub fn predicate_sccs(&self) -> Vec<Vec<Functor>> {
        let mut preds: Vec<Functor> = self.preds.keys().copied().collect();
        preds.sort_by_key(|f| (sym_name(f.name), f.arity));
        let index_of: HashMap<Functor, usize> =
            preds.iter().enumerate().map(|(i, f)| (*f, i)).collect();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); preds.len()];
        for (i, f) in preds.iter().enumerate() {
            let mut callees = Vec::new();
            for c in self.clauses(*f) {
                for g in &c.body {
                    collect_called(g, &mut callees);
                }
            }
            callees.sort_by_key(|f| (sym_name(f.name), f.arity));
            callees.dedup();
            for callee in callees {
                if let Some(&j) = index_of.get(&callee) {
                    edges[i].push(j);
                }
            }
        }
        // Iterative Tarjan (explicit stack: analysis programs are small,
        // but generated abstract programs can chain deeply).
        let n = preds.len();
        let mut order = vec![usize::MAX; n]; // discovery index
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut sccs: Vec<Vec<Functor>> = Vec::new();
        let mut next_order = 0usize;
        for root in 0..n {
            if order[root] != usize::MAX {
                continue;
            }
            // (node, next child edge to visit)
            let mut call: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&mut (v, ref mut ei)) = call.last_mut() {
                if *ei == 0 {
                    order[v] = next_order;
                    low[v] = next_order;
                    next_order += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&w) = edges[v].get(*ei) {
                    *ei += 1;
                    if order[w] == usize::MAX {
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(order[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == order[v] {
                        let mut scc = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            scc.push(preds[w]);
                            if w == v {
                                break;
                            }
                        }
                        scc.sort_by_key(|f| (sym_name(f.name), f.arity));
                        sccs.push(scc);
                    }
                }
            }
        }
        sccs
    }
}

/// Collects the functors a goal can call, descending through the control
/// constructs `solve_goal` interprets structurally.
fn collect_called(g: &Term, out: &mut Vec<Functor>) {
    let Some(f) = g.functor() else { return };
    match control(f) {
        Some(Control::Conj | Control::Disj | Control::IfThen) => {
            for a in g.args() {
                collect_called(a, out);
            }
        }
        Some(Control::Not | Control::Call) => collect_called(&g.args()[0], out),
        Some(Control::True) => {}
        None => out.push(f),
    }
}

enum IdSource<'a> {
    /// A precomputed merged bucket (or the var-clause list).
    Bucket(std::slice::Iter<'a, usize>),
    /// Every clause of the predicate, in source order.
    All(std::ops::Range<usize>),
}

/// Borrowing iterator over `(source index, clause)` pairs returned by
/// [`Database::matching_clauses_iter`]. Never allocates.
pub struct ClauseMatches<'a> {
    clauses: &'a [StoredClause],
    ids: IdSource<'a>,
}

impl<'a> Iterator for ClauseMatches<'a> {
    type Item = (usize, &'a StoredClause);

    fn next(&mut self) -> Option<(usize, &'a StoredClause)> {
        let i = match &mut self.ids {
            IdSource::Bucket(it) => *it.next()?,
            IdSource::All(r) => r.next()?,
        };
        Some((i, &self.clauses[i]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.ids {
            IdSource::Bucket(it) => it.size_hint(),
            IdSource::All(r) => r.size_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tablog_syntax::parse_program;
    use tablog_term::atom;

    fn db(src: &str, mode: LoadMode) -> Database {
        let p = parse_program(src).unwrap();
        let mut d = Database::new(mode);
        d.load(&p).unwrap();
        d
    }

    #[test]
    fn load_counts_clauses_and_tabling() {
        let d = db(
            ":- table p/1.\np(a).\np(b).\nq(X) :- p(X).",
            LoadMode::Dynamic,
        );
        assert_eq!(d.num_clauses(), 3);
        assert!(d.is_tabled(Functor::new("p", 1)));
        assert!(!d.is_tabled(Functor::new("q", 1)));
    }

    #[test]
    fn clause_variables_are_renumbered() {
        let d = db("r(X, Y, X) :- s(Y).", LoadMode::Dynamic);
        let c = &d.clauses(Functor::new("r", 3))[0];
        assert_eq!(c.nvars, 2);
        assert_eq!(c.head.vars().len(), 2);
    }

    #[test]
    fn dynamic_mode_returns_all_clauses() {
        let d = db("p(a). p(b). p(f(c)).", LoadMode::Dynamic);
        assert_eq!(
            d.matching_clauses(Functor::new("p", 1), Some(&atom("a")))
                .len(),
            3
        );
    }

    #[test]
    fn compiled_mode_indexes_first_arg() {
        let d = db("p(a). p(b). p(f(c)). p(X).", LoadMode::Compiled);
        let f = Functor::new("p", 1);
        // Atom key: its own bucket plus the var clause.
        assert_eq!(d.matching_clauses(f, Some(&atom("a"))).len(), 2);
        // Unknown key: only the var clause.
        assert_eq!(d.matching_clauses(f, Some(&atom("zzz"))).len(), 1);
        // Unbound first arg: everything.
        let mut b = tablog_term::Bindings::new();
        let v = b.fresh_var();
        assert_eq!(d.matching_clauses(f, Some(&tablog_term::var(v))).len(), 4);
    }

    #[test]
    fn index_preserves_source_order() {
        let d = db("p(a, 1). p(X, 2). p(a, 3).", LoadMode::Compiled);
        let got: Vec<i64> = d
            .matching_clauses(Functor::new("p", 2), Some(&atom("a")))
            .iter()
            .map(|c| match &c.head.args()[1] {
                Term::Int(i) => *i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn assert_after_compile_keeps_index_fresh() {
        let mut d = db("p(a).", LoadMode::Compiled);
        d.assert_clause(atom("p_extra"), vec![]).unwrap();
        d.assert_clause(tablog_term::structure("p", vec![atom("b")]), vec![])
            .unwrap();
        assert_eq!(
            d.matching_clauses(Functor::new("p", 1), Some(&atom("b")))
                .len(),
            1
        );
    }

    #[test]
    fn bucket_keyed_after_var_clause_still_matches_it() {
        // The var clause precedes the first (and only) appearance of key
        // `a`, so the `a` bucket must be seeded with it.
        let d = db("p(X, 1). p(a, 2).", LoadMode::Compiled);
        let got: Vec<i64> = d
            .matching_clauses(Functor::new("p", 2), Some(&atom("a")))
            .iter()
            .map(|c| match &c.head.args()[1] {
                Term::Int(i) => *i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn assert_created_bucket_includes_preexisting_var_clauses() {
        let mut d = db("p(X, 1).", LoadMode::Compiled);
        d.assert_clause(
            tablog_term::structure("p", vec![atom("b"), Term::Int(2)]),
            vec![],
        )
        .unwrap();
        // The `b` bucket is created by the assert; it must still include the
        // earlier variable-headed clause, in source order.
        let got: Vec<i64> = d
            .matching_clauses(Functor::new("p", 2), Some(&atom("b")))
            .iter()
            .map(|c| match &c.head.args()[1] {
                Term::Int(i) => *i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn matching_iter_agrees_with_indexed_vec() {
        for mode in [LoadMode::Dynamic, LoadMode::Compiled] {
            let d = db("p(a, 1). p(X, 2). p(a, 3). p(b, 4).", mode);
            let f = Functor::new("p", 2);
            for first in [Some(atom("a")), Some(atom("zzz")), None] {
                let via_vec = d.matching_clauses_indexed(f, first.as_ref());
                let via_iter: Vec<_> = d.matching_clauses_iter(f, first.as_ref()).collect();
                let ids_vec: Vec<usize> = via_vec.iter().map(|(i, _)| *i).collect();
                let ids_iter: Vec<usize> = via_iter.iter().map(|(i, _)| *i).collect();
                assert_eq!(ids_vec, ids_iter, "mode {mode:?} first {first:?}");
            }
        }
    }

    #[test]
    fn retract_all_empties_predicate() {
        let mut d = db("p(a). p(b).", LoadMode::Dynamic);
        d.retract_all(Functor::new("p", 1));
        assert_eq!(d.clauses(Functor::new("p", 1)).len(), 0);
    }

    #[test]
    fn zero_arity_predicates() {
        let d = db("go :- p. p.", LoadMode::Compiled);
        assert_eq!(d.matching_clauses(Functor::new("go", 0), None).len(), 1);
    }

    #[test]
    fn bad_head_is_an_error() {
        let mut d = Database::new(LoadMode::Dynamic);
        assert!(d.assert_clause(Term::Int(3), vec![]).is_err());
    }

    #[test]
    fn sccs_group_mutual_recursion_in_callee_first_order() {
        let d = db(
            "even(z). even(s(X)) :- odd(X).\n\
             odd(s(X)) :- even(X).\n\
             top(X) :- even(X), leaf(X).\n\
             leaf(_).",
            LoadMode::Dynamic,
        );
        let sccs = d.predicate_sccs();
        let even_odd = sccs
            .iter()
            .find(|s| s.contains(&Functor::new("even", 1)))
            .expect("even/1 has an SCC");
        assert_eq!(
            even_odd,
            &vec![Functor::new("even", 1), Functor::new("odd", 1)]
        );
        // Reverse topological: even/odd and leaf precede top.
        let pos = |f: Functor| sccs.iter().position(|s| s.contains(&f)).unwrap();
        assert!(pos(Functor::new("even", 1)) < pos(Functor::new("top", 1)));
        assert!(pos(Functor::new("leaf", 1)) < pos(Functor::new("top", 1)));
        // Every defined predicate appears exactly once.
        assert_eq!(sccs.iter().map(Vec::len).sum::<usize>(), 4);
    }

    #[test]
    fn sccs_see_through_control_constructs() {
        let d = db(
            "p(X) :- (q(X) ; r(X)), \\+ s(X), call(t(X)).\n\
             q(a). r(a). s(b). t(a).",
            LoadMode::Dynamic,
        );
        let sccs = d.predicate_sccs();
        let flat: Vec<Functor> = sccs.into_iter().flatten().collect();
        for name in ["p", "q", "r", "s", "t"] {
            assert!(flat.contains(&Functor::new(name, 1)), "{name}/1 missing");
        }
    }
}
