//! Table inspection types: subgoal views, answer iteration, statistics.
//!
//! Since PR 3 the answer store is id-keyed: [`CanonicalTerm`] is a `Copy`
//! handle into a hash-consing arena, the duplicate-check set holds bare
//! [`TermId`]s (not second copies of the answers), and table-space
//! accounting charges shared structure once per subgoal — the substitution
//! factoring XSB's tries provide (see DESIGN.md, "Table representation &
//! substitution factoring"). Since PR 4 the arena is session-scoped
//! ([`TermArena`], owned by the running machine and then by the finished
//! [`crate::Evaluation`]), so every accessor that materializes terms takes
//! the owning arena.

use crate::provenance::AnswerProv;
use tablog_term::{CanonicalTerm, FastSet, Functor, Term, TermArena, TermId};

/// Per-entry overhead added to each stored call or answer term, mirroring
/// what XSB's statistics report counts: the term plus a fixed table-node
/// cost. Shared by the full-table rescan below and the machine's
/// incremental accounting.
pub(crate) const NODE_OVERHEAD: usize = 16;

/// Estimated cost of one registered consumer cursor (a `Consumer` record:
/// node handle, watched table index, answer cursor). Reported in
/// [`TableBytes::cursor_bytes`] for attribution only — cursors are machine
/// scaffolding, not table content, so they stay *out* of
/// [`SubgoalState::table_bytes`] and the paper-facing space totals.
pub(crate) const CURSOR_OVERHEAD: usize = 24;

/// Decomposition of one subgoal's table space. The first three components
/// partition [`SubgoalView::table_bytes`] exactly:
/// `term_bytes + entry_bytes + prov_bytes == table_bytes` — asserted by the
/// engine (debug builds) on every evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableBytes {
    /// Substitution-factored canonical-term structure: arena nodes of the
    /// call and all answers, each shared node charged once per table.
    pub term_bytes: usize,
    /// Fixed per-entry overhead (call + one per answer), mirroring XSB's
    /// table-node cost.
    pub entry_bytes: usize,
    /// Provenance records, when the evaluation recorded them.
    pub prov_bytes: usize,
    /// Estimated consumer-cursor footprint. Informational: *excluded* from
    /// [`TableBytes::attributed`] and from `table_bytes`, which predate
    /// this breakdown and must stay comparable across releases.
    pub cursor_bytes: usize,
}

impl TableBytes {
    /// The attributed total: exactly [`SubgoalView::table_bytes`].
    pub fn attributed(&self) -> usize {
        self.term_bytes + self.entry_bytes + self.prov_bytes
    }
}

/// Internal state of one tabled subgoal.
#[derive(Clone, Debug)]
pub(crate) struct SubgoalState {
    pub functor: Functor,
    /// Canonical argument tuple of the call.
    pub call: CanonicalTerm,
    /// Answers (canonical argument tuples), in insertion order.
    pub answers: Vec<CanonicalTerm>,
    /// Duplicate check: arena ids of the entered answers. Holds 8-byte ids,
    /// not full term copies — the seed's `HashSet<CanonicalTerm>` double
    /// store is gone.
    pub answer_ids: FastSet<TermId>,
    /// Per-answer provenance, parallel to `answers`. Empty (no allocation)
    /// unless the evaluation ran with
    /// [`record_provenance`](crate::EngineOptions::record_provenance).
    pub provenance: Vec<AnswerProv>,
    /// Consumer ids registered on this subgoal.
    pub consumers: Vec<usize>,
    /// Arena nodes already charged to this table's space: within one
    /// subgoal, structure shared between the call and any answers is billed
    /// exactly once (substitution factoring).
    charged: FastSet<TermId>,
    /// Incrementally maintained table space, decomposed by component
    /// (terms / entry overhead / provenance); the attributed sum is kept
    /// equal to [`SubgoalState::rescan_bytes`] by construction.
    bytes: TableBytes,
    pub complete: bool,
}

impl SubgoalState {
    /// Creates the state and charges the call term plus its entry overhead.
    /// `arena` is the session arena that minted `call`.
    pub(crate) fn new(functor: Functor, call: CanonicalTerm, arena: &TermArena) -> Self {
        let mut charged = FastSet::default();
        let bytes = TableBytes {
            term_bytes: arena.charge_shared_bytes(&call, &mut charged),
            entry_bytes: NODE_OVERHEAD,
            prov_bytes: 0,
            cursor_bytes: 0,
        };
        SubgoalState {
            functor,
            call,
            answers: Vec::new(),
            answer_ids: FastSet::default(),
            provenance: Vec::new(),
            consumers: Vec::new(),
            charged,
            bytes,
            complete: false,
        }
    }

    /// Charges the nodes of `c` not yet billed to this table and returns the
    /// newly charged term bytes (0 if everything was already shared).
    pub(crate) fn charge(&mut self, c: &CanonicalTerm, arena: &TermArena) -> usize {
        let fresh = arena.charge_shared_bytes(c, &mut self.charged);
        self.bytes.term_bytes += fresh;
        fresh
    }

    /// Adds one answer entry's fixed overhead.
    pub(crate) fn add_entry_overhead(&mut self) {
        self.bytes.entry_bytes += NODE_OVERHEAD;
    }

    /// Adds one answer's provenance-record bytes.
    pub(crate) fn add_prov_bytes(&mut self, n: usize) {
        self.bytes.prov_bytes += n;
    }

    /// The incrementally maintained table space of this subgoal, O(1).
    pub(crate) fn table_bytes(&self) -> usize {
        self.bytes.attributed()
    }

    /// The per-component decomposition of this subgoal's table space, with
    /// the consumer-cursor estimate filled in from the current consumer
    /// registrations.
    pub(crate) fn byte_breakdown(&self) -> TableBytes {
        TableBytes {
            cursor_bytes: self.consumers.len() * CURSOR_OVERHEAD,
            ..self.bytes
        }
    }

    /// Recomputes this subgoal's table space from scratch: call first, then
    /// answers in insertion order, each with entry overhead, plus provenance
    /// records. Must agree with the incremental [`SubgoalState::table_bytes`].
    pub(crate) fn rescan_bytes(&self, arena: &TermArena) -> usize {
        let mut seen = FastSet::default();
        let mut total = arena.charge_shared_bytes(&self.call, &mut seen) + NODE_OVERHEAD;
        for a in &self.answers {
            total += arena.charge_shared_bytes(a, &mut seen) + NODE_OVERHEAD;
        }
        total
            + self
                .provenance
                .iter()
                .map(AnswerProv::heap_bytes)
                .sum::<usize>()
    }
}

/// A read-only view of one subgoal's table: the call pattern and its
/// answers. Obtained from [`crate::Evaluation::subgoals`]; carries a
/// reference to the evaluation's session arena so materialization needs no
/// global state.
#[derive(Clone, Copy, Debug)]
pub struct SubgoalView<'a> {
    pub(crate) state: &'a SubgoalState,
    pub(crate) arena: &'a TermArena,
}

impl<'a> SubgoalView<'a> {
    /// The subgoal's predicate.
    pub fn functor(&self) -> Functor {
        self.state.functor
    }

    /// The call pattern as a term `p(t1,…,tn)` with canonical variables.
    pub fn call_term(&self) -> Term {
        rebuild(self.state.functor, &self.arena.terms(&self.state.call))
    }

    /// The canonical call-argument tuple, materialized from the arena.
    pub fn call_args(&self) -> Vec<Term> {
        self.arena.terms(&self.state.call)
    }

    /// Number of answers in the table.
    pub fn num_answers(&self) -> usize {
        self.state.answers.len()
    }

    /// `true` once the fixpoint is reached (always true on views obtained
    /// from a finished [`crate::Evaluation`]).
    pub fn is_complete(&self) -> bool {
        self.state.complete
    }

    /// Iterates over answers as full terms `p(s1,…,sn)`.
    pub fn answers(&self) -> AnswerIter<'a> {
        AnswerIter {
            functor: self.state.functor,
            arena: self.arena,
            inner: self.state.answers.iter(),
        }
    }

    /// Iterates over raw canonical answer tuples.
    pub fn answer_tuples(&self) -> impl Iterator<Item = Vec<Term>> + 'a {
        let arena = self.arena;
        self.state.answers.iter().map(move |c| arena.terms(c))
    }

    /// Provenance of answer `idx`, if the evaluation recorded it.
    pub fn provenance(&self, idx: usize) -> Option<&'a AnswerProv> {
        self.state.provenance.get(idx)
    }

    /// Estimated table space consumed by this subgoal, in bytes — the
    /// substitution-factored charge (shared structure counted once).
    pub fn table_bytes(&self) -> usize {
        self.state.table_bytes()
    }

    /// Decomposition of [`SubgoalView::table_bytes`] by component. The
    /// attributed components sum exactly to `table_bytes()`; the cursor
    /// estimate is reported alongside without being counted.
    pub fn byte_breakdown(&self) -> TableBytes {
        self.state.byte_breakdown()
    }
}

/// Iterator over a subgoal's answers as terms; see [`SubgoalView::answers`].
#[derive(Clone, Debug)]
pub struct AnswerIter<'a> {
    functor: Functor,
    arena: &'a TermArena,
    inner: std::slice::Iter<'a, CanonicalTerm>,
}

impl Iterator for AnswerIter<'_> {
    type Item = Term;

    fn next(&mut self) -> Option<Term> {
        self.inner
            .next()
            .map(|c| rebuild(self.functor, &self.arena.terms(c)))
    }
}

pub(crate) fn rebuild(f: Functor, args: &[Term]) -> Term {
    if args.is_empty() {
        Term::Atom(f.name)
    } else {
        Term::Struct(f.name, args.to_vec().into())
    }
}

/// Cumulative counters of one evaluation, in the spirit of XSB's
/// `statistics/0` output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Engine steps (node expansions + answer returns).
    pub steps: usize,
    /// Program-clause resolution attempts.
    pub clause_resolutions: usize,
    /// Tabled subgoals created.
    pub subgoals: usize,
    /// Unique answers entered into tables.
    pub answers: usize,
    /// Answers rejected as duplicates by the variant check.
    pub duplicate_answers: usize,
    /// Estimated total table space in bytes.
    pub table_bytes: usize,
}
