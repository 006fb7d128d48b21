//! The tabled evaluation machine: an explicit SLG derivation forest driven
//! by a worklist.
//!
//! Every derivation node carries, in variant-canonical form, an *answer
//! template* (the instantiated arguments of the tabled subgoal it belongs
//! to) and its remaining *goal list*. Expanding a node resolves its leftmost
//! goal — against program clauses (SLD), a builtin, or a table. Tabled calls
//! register the node as a consumer of the callee's table; every answer that
//! table ever acquires is returned to every consumer exactly once. When the
//! worklist drains, all tables are complete: for definite programs, SLG
//! completion needs no incremental SCC bookkeeping. A step instantiates
//! only the selected goal; its resolvents are canonicalized straight from
//! the node's arena ids ([`Cont`], [`Machine::resume`]).
//!
//! The machine owns two pieces of session state factored out in PR 4:
//!
//! * a session-scoped [`TermArena`] holding every canonical call, answer,
//!   and node key of the run — handed to the finished
//!   [`Evaluation`](crate::Evaluation) and dropped with it, so nothing
//!   accumulates across runs;
//! * the worklist, whose pop order (depth- or breadth-first) is selected
//!   by [`EngineOptions::scheduling`].
//!
//! Goal dispatch for builtins and SLD clauses lives in `dispatch.rs`;
//! answer flow (consumer resumption, table insertion, negation
//! subcomputations) lives in `consumers.rs`.

use crate::budget::{SampleConfig, Truncation, TruncationReason};
use crate::builtins::{control, lookup_builtin, syms, Control};
use crate::database::Database;
use crate::error::EngineError;
use crate::options::{EngineOptions, Unknown};
use crate::provenance::{ClauseRef, NodeProv};
use crate::scheduler::{TaskClass, Worklist};
use crate::session::Evaluation;
use crate::table::{SubgoalState, TableStats};
use tablog_term::{
    unify, unify_occurs, Bindings, CanonicalTerm, FastMap, FastSet, Functor, Term, TermArena,
    TermId, Var,
};
use tablog_trace::{now_ns, Sample, SpanEmitter, StallWatchdog, TraceEvent, TraceSink};

#[derive(Clone, Debug)]
pub(crate) struct Node {
    /// The subgoal whose answers this derivation contributes to.
    pub(crate) subgoal: usize,
    /// `canon`'s first `split` member terms are the answer template; the
    /// rest is the goal list.
    pub(crate) split: usize,
    pub(crate) canon: CanonicalTerm,
    /// Derivation trail (clauses resolved, table answers consumed) on the
    /// path to this node. Always `None` unless
    /// `EngineOptions::record_provenance` is set, so the disabled path
    /// allocates nothing. When a variant-identical node is reached along a
    /// second path, `seen_nodes` drops it and the first trail wins: a
    /// justification needs one support, not all of them.
    pub(crate) prov: Option<Box<NodeProv>>,
}

/// Where a step's resolvents go: the expanded node, named by its subgoal,
/// canonical tuple and template length `split`, with the selected goal (the
/// member at `split`, if any) instantiated so that canonical variable `k`
/// is `Var(base + k)`. A resolvent replaces the selected goal with new goals
/// and is canonicalized straight from `canon`'s arena ids
/// ([`Machine::resume`]), so the rest of the node is never instantiated.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cont {
    pub(crate) subgoal: usize,
    pub(crate) canon: CanonicalTerm,
    pub(crate) split: usize,
    pub(crate) base: Var,
}

#[derive(Clone, Debug)]
pub(crate) struct Consumer {
    pub(crate) node: Node,
    pub(crate) watched: usize,
    /// Cursor into the watched table: the next answer index this consumer
    /// has yet to be scheduled. Advanced when answers are handed out, so
    /// every answer is scheduled to every consumer exactly once — new
    /// consumers start at the current table size after back-filling, and
    /// `add_answer` extends each cursor by exactly the inserted answer.
    pub(crate) next: usize,
}

#[derive(Debug)]
pub(crate) enum Task {
    Expand(Node),
    Return(usize, usize),
}

pub(crate) struct Machine<'e> {
    pub(crate) db: &'e Database,
    pub(crate) opts: &'e EngineOptions,
    /// Session arena: every canonical term of this run is interned here,
    /// and the arena moves into the [`Evaluation`] when the run finishes.
    pub(crate) arena: TermArena,
    pub(crate) subgoals: Vec<SubgoalState>,
    /// Subgoal lookup keyed by the call's arena id: a hash probe on a
    /// 12-byte key with O(1) equality, never a structural term walk.
    lookup: FastMap<(Functor, TermId), usize>,
    pub(crate) consumers: Vec<Consumer>,
    /// The worklist, popped in the order selected by
    /// [`EngineOptions::scheduling`].
    worklist: Worklist<Task>,
    /// Derivation nodes already scheduled, per subgoal: the forest is a
    /// *set* of nodes, so a variant-identical resolvent reached along two
    /// different derivation paths is expanded only once. This collapses
    /// the combinatorial re-derivation that long conjunctions of
    /// enumerative literals otherwise cause. Keys are arena ids — no
    /// canonical-term copies are stored. Membership is checked *before*
    /// the task is queued, so it is strategy-independent.
    seen_nodes: FastSet<(usize, usize, TermId)>,
    /// The binding store of the step in progress, kept between steps so
    /// its buffers are allocated once per run; see [`Machine::bindings`].
    spare_bindings: Bindings,
    pub(crate) stats: TableStats,
    /// Event observer, `None` unless `EngineOptions::trace` is set. Events
    /// are only constructed under `if let Some(..)`, so the disabled path
    /// does no work and no allocation.
    pub(crate) trace: Option<&'e dyn TraceSink>,
    /// Span emitter, `Some` only when `EngineOptions::record_spans` is set
    /// *and* a sink is installed — every span site gates on this, so the
    /// disabled path takes no timestamps and mints no ids.
    pub(crate) spans: Option<SpanEmitter>,
    /// Any resource budget set. The only cost budgets add to an unbudgeted
    /// run is this one branch per worklist task.
    budgets_on: bool,
    /// Absolute wall-clock cutoff on the [`now_ns`] timeline, precomputed
    /// once so the per-task deadline check is a single comparison. Negation
    /// subcomputations inherit the parent's cutoff (the deadline bounds the
    /// whole evaluation, not each sub-machine).
    pub(crate) deadline_ns: Option<u64>,
    /// The budget that tripped, set at a dispatch boundary (directly or
    /// propagated from a negation subcomputation); once set, `drain` stops
    /// scheduling and `run` hands back a truncated evaluation.
    pub(crate) truncated: Option<TruncationReason>,
    /// Sampling state, `Some` only when `EngineOptions::sampling` is set
    /// *and* a sink is installed. The disabled path is one branch per
    /// worklist task.
    pub(crate) sampler: Option<Sampler>,
    /// Timestamp of machine creation, taken only when budgets or sampling
    /// need one (0 otherwise, never read in that case).
    start_ns: u64,
}

/// Sampling book-keeping: the cadence, the watchdog, and the previous
/// sample's coordinates (for the step cadence and the window's answer
/// rate).
pub(crate) struct Sampler {
    cfg: SampleConfig,
    watchdog: StallWatchdog,
    last_ns: u64,
    last_steps: usize,
    last_answers: usize,
}

impl<'e> Machine<'e> {
    pub(crate) fn new(db: &'e Database, opts: &'e EngineOptions) -> Self {
        let budgets_on =
            opts.max_steps.is_some() || opts.deadline.is_some() || opts.max_table_bytes.is_some();
        let sampling = opts.sampling.filter(|_| opts.trace.is_some());
        // One timestamp at machine creation when budgets or sampling need a
        // time origin; the all-off path still takes none.
        let start_ns = if budgets_on || sampling.is_some() {
            now_ns()
        } else {
            0
        };
        Machine {
            db,
            opts,
            arena: TermArena::new(),
            subgoals: Vec::new(),
            lookup: FastMap::default(),
            consumers: Vec::new(),
            worklist: Worklist::new(opts.scheduling),
            seen_nodes: FastSet::default(),
            spare_bindings: Bindings::new(),
            stats: TableStats::default(),
            trace: opts.trace.as_deref(),
            spans: (opts.record_spans && opts.trace.is_some())
                .then(|| SpanEmitter::with_root(opts.parent_span)),
            budgets_on,
            deadline_ns: opts
                .deadline
                .map(|d| start_ns.saturating_add(d.as_nanos() as u64)),
            truncated: None,
            sampler: sampling.map(|cfg| Sampler {
                cfg,
                watchdog: StallWatchdog::new(cfg.stall_window),
                last_ns: start_ns,
                last_steps: 0,
                last_answers: 0,
            }),
            start_ns,
        }
    }

    /// Checks every configured resource budget, in a fixed order (steps,
    /// table bytes, deadline) so a run tripping several reports
    /// deterministically. Only called when `budgets_on`; the deadline is
    /// the only check that reads the clock.
    fn budget_tripped(&self) -> Option<TruncationReason> {
        if let Some(limit) = self.opts.max_steps {
            if self.stats.steps > limit {
                return Some(TruncationReason::Steps(limit));
            }
        }
        if let Some(limit) = self.opts.max_table_bytes {
            if self.stats.table_bytes > limit {
                return Some(TruncationReason::TableBytes(limit));
            }
        }
        if let Some(cutoff) = self.deadline_ns {
            if now_ns() >= cutoff {
                let ms = self.opts.deadline.map_or(0, |d| d.as_millis() as u64);
                return Some(TruncationReason::DeadlineMs(ms));
            }
        }
        None
    }

    /// Takes the sample at `t_ns`. With sampling on, it advances the
    /// sampler's window (rate baseline, watchdog) and goes to the sink;
    /// without (the final sample of a truncated run) its window is the
    /// whole run. O(1): tables are marked complete all at once, after the
    /// drain, so `completed` says whether every table is complete or none.
    fn take_sample(&mut self, t_ns: u64, completed: bool) -> Sample {
        let answers = self.stats.answers;
        let table_bytes = self.stats.table_bytes;
        let (since_ns, since_answers) = self
            .sampler
            .as_ref()
            .map_or((self.start_ns, 0), |s| (s.last_ns, s.last_answers));
        let dt = t_ns.saturating_sub(since_ns);
        let answer_rate = if dt > 0 {
            (answers - since_answers) as f64 * 1e9 / dt as f64
        } else {
            0.0
        };
        let stalled = self.sampler.as_mut().is_some_and(|s| {
            s.last_ns = t_ns;
            s.last_steps = self.stats.steps;
            s.last_answers = answers;
            s.watchdog.observe(answers, table_bytes)
        });
        let sample = Sample {
            t_ns,
            steps: self.stats.steps,
            worklist: self.worklist.len(),
            expands: self.worklist.class_len(TaskClass::Expand),
            returns: self.worklist.class_len(TaskClass::Return),
            tables: self.subgoals.len(),
            completed_tables: if completed { self.subgoals.len() } else { 0 },
            answers,
            duplicate_answers: self.stats.duplicate_answers,
            table_bytes,
            answer_rate,
            peak_heap_bytes: tablog_alloc::is_tracking().then(|| tablog_alloc::stats().peak_bytes),
            stalled,
        };
        if let Some(sink) = self.trace.filter(|_| self.sampler.is_some()) {
            sink.sample(&sample);
        }
        sample
    }

    /// The timestamp of a sample due now, if either cadence has elapsed.
    /// The step cadence reads no clock until it fires; the time cadence
    /// reads it once.
    fn sample_due(&self) -> Option<u64> {
        let s = self.sampler.as_ref()?;
        if s.cfg.every_steps > 0 && self.stats.steps - s.last_steps >= s.cfg.every_steps {
            return Some(now_ns());
        }
        if s.cfg.every_ms > 0 {
            let t = now_ns();
            return (t.saturating_sub(s.last_ns) >= s.cfg.every_ms.saturating_mul(1_000_000))
                .then_some(t);
        }
        None
    }

    /// Opens a span when span recording is on; no-op (and no timestamp)
    /// otherwise.
    pub(crate) fn span_enter(&mut self, name: &str, pred: Option<Functor>) {
        if let (Some(em), Some(sink)) = (self.spans.as_mut(), self.trace) {
            em.enter(sink, name, pred);
        }
    }

    /// Closes the innermost open span when span recording is on.
    pub(crate) fn span_exit(&mut self) {
        if let (Some(em), Some(sink)) = (self.spans.as_mut(), self.trace) {
            em.exit(sink);
        }
    }

    pub(crate) fn unif(&self, b: &mut Bindings, t1: &Term, t2: &Term) -> bool {
        if self.opts.occur_check {
            unify_occurs(b, t1, t2)
        } else {
            unify(b, t1, t2)
        }
    }

    pub(crate) fn push(&mut self, task: Task) {
        let class = match &task {
            Task::Expand(n) => {
                if !self
                    .seen_nodes
                    .insert((n.subgoal, n.split, n.canon.root_id()))
                {
                    return;
                }
                TaskClass::Expand
            }
            Task::Return(..) => TaskClass::Return,
        };
        self.worklist.push(class, task);
    }

    pub(crate) fn run(
        &mut self,
        goals: &[Term],
        template: &[Term],
        b0: &Bindings,
    ) -> Result<Evaluation, EngineError> {
        // A span left open by an `?` early return below is fine: the
        // recorder clamps open spans to the last observed timestamp.
        self.span_enter("evaluate", None);
        let root = self.seed_root(goals, template, b0);
        self.drain()?;
        if self.truncated.is_some() {
            self.settle()?;
        }
        let truncated = self.truncated.take();
        if truncated.is_none() {
            self.span_enter("completion", None);
            for s in &mut self.subgoals {
                s.complete = true;
                if let Some(sink) = self.trace {
                    sink.event(&TraceEvent::SubgoalComplete {
                        pred: s.functor,
                        answers: s.answers.len(),
                        bytes: s.table_bytes(),
                    });
                }
            }
            self.span_exit(); // completion
        }
        // Tables of a truncated run stay unmarked (`complete == false`) —
        // their answers are genuine but not known exhaustive — yet the byte
        // accounting invariants hold either way.
        debug_assert_eq!(
            self.stats.table_bytes,
            self.subgoals
                .iter()
                .map(|s| s.rescan_bytes(&self.arena))
                .sum::<usize>(),
            "incremental table-byte accounting drifted from the tables"
        );
        debug_assert!(
            self.subgoals
                .iter()
                .all(|s| s.byte_breakdown().attributed() == s.table_bytes()),
            "per-table byte attribution does not sum to table_bytes"
        );
        // One final sample closes every sampling run and stamps every
        // truncation; a run with neither takes no timestamp here.
        let truncation = if truncated.is_some() || self.sampler.is_some() {
            let last = self.take_sample(now_ns(), truncated.is_none());
            truncated.map(|reason| Truncation {
                reason,
                snapshot: last,
            })
        } else {
            None
        };
        self.span_exit(); // evaluate
        Ok(Evaluation {
            subgoals: std::mem::take(&mut self.subgoals),
            root,
            stats: self.stats,
            scheduler: self.opts.scheduling.name(),
            arena: std::mem::take(&mut self.arena),
            truncation,
        })
    }

    /// Creates the synthetic `$query` root subgoal and schedules the root
    /// derivation node.
    fn seed_root(&mut self, goals: &[Term], template: &[Term], b0: &Bindings) -> usize {
        let key = self.arena.canonicalize(b0, template);
        let root = self.new_subgoal(Functor::new("$query", template.len()), key);
        let node = Node {
            subgoal: root,
            split: template.len(),
            canon: self.arena.canonicalize2(b0, template, goals),
            prov: self.fresh_prov(),
        };
        self.push(Task::Expand(node));
        root
    }

    /// Executes one worklist task, wrapped in its per-task span. Per-task
    /// spans attribute time to the predicate whose table the task serves:
    /// the node's own subgoal for an expansion, the watched table for an
    /// answer return.
    fn step(&mut self, task: Task) -> Result<(), EngineError> {
        let spans_on = self.spans.is_some();
        match task {
            Task::Expand(n) => {
                if spans_on {
                    let pred = self.subgoals[n.subgoal].functor;
                    self.span_enter("dispatch", Some(pred));
                }
                let r = self.expand(n);
                if spans_on {
                    self.span_exit();
                }
                r
            }
            Task::Return(c, a) => {
                if spans_on {
                    let pred = self.subgoals[self.consumers[c].watched].functor;
                    self.span_enter("answer_return", Some(pred));
                }
                let r = self.return_answer(c, a);
                if spans_on {
                    self.span_exit();
                }
                r
            }
        }
    }

    fn drain(&mut self) -> Result<(), EngineError> {
        // One sample of the initial state, then one after each task that
        // leaves work queued once the cadence is due, then the final one in
        // `run`: under `every_steps(1)` a run of `steps` tasks yields
        // `steps + 1` samples.
        if self.sampler.is_some() {
            self.take_sample(now_ns(), false);
        }
        while let Some(task) = self.worklist.pop() {
            self.stats.steps += 1;
            // Budget trips are graceful: stop scheduling, keep every table
            // row derived so far, and let `run` hand back a truncated
            // evaluation. The popped task is dropped unexecuted (it is
            // counted, preserving the historical step-limit boundary).
            if self.budgets_on {
                if let Some(reason) = self.budget_tripped() {
                    self.truncated = Some(reason);
                    break;
                }
            }
            self.step(task)?;
            if self.sampler.is_some() && self.worklist.len() > 0 {
                if let Some(t_ns) = self.sample_due() {
                    self.take_sample(t_ns, false);
                }
            }
            // A negation subcomputation may have tripped a budget mid-task;
            // stop before expanding anything it scheduled.
            if self.truncated.is_some() {
                break;
            }
        }
        Ok(())
    }

    /// Bounded delivery pass after a budget trip. The drain loop stops the
    /// moment a budget trips, which can leave answers derived *before* the
    /// trip parked in queued [`Task::Return`]s — genuine derivations that
    /// would otherwise never reach their consumers or the root `$query`
    /// table. This pass pops everything queued at trip time, executes only
    /// the answer returns (expansions are dropped: they would grow the
    /// computation the budget just stopped), then discards whatever those
    /// deliveries scheduled. Soundness: a return only propagates an answer
    /// that is already a derivation, so the partial answer set stays a
    /// prefix of the fixpoint. Boundedness: the pass is capped at the
    /// pre-trip queue, so a diverging program cannot keep it alive.
    /// Settle deliveries are not counted as steps — budget accounting is
    /// over once the trip is recorded.
    ///
    /// Two rounds, because a return does not insert by itself: it advances
    /// the consumer and schedules the advanced node as an expansion, and
    /// only expanding a node with no remaining goals performs the insert.
    /// Round one executes the queued returns; round two executes exactly
    /// the spawned continuations that are pure inserts (clause bodies the
    /// delivery completed). Recursive chains need a further return →
    /// expand link, which never runs — that is what bounds the pass.
    fn settle(&mut self) -> Result<(), EngineError> {
        let mut queued = Vec::new();
        while let Some(task) = self.worklist.pop() {
            queued.push(task);
        }
        for task in queued {
            if let Task::Return(c, a) = task {
                self.return_answer(c, a)?;
            }
        }
        let mut continuations = Vec::new();
        while let Some(task) = self.worklist.pop() {
            continuations.push(task);
        }
        for task in continuations {
            if let Task::Expand(n) = task {
                // `canon` packs template ++ goals; length `split` means no
                // goals remain and expansion is exactly the answer insert.
                if self.arena.tuple_len(&n.canon) == n.split {
                    self.expand(n)?;
                }
            }
        }
        // Inserts wake consumers and schedule fresh returns; the run is
        // over, so drop them and report a drained worklist.
        while self.worklist.pop().is_some() {}
        Ok(())
    }

    /// `Some(empty trail)` when provenance recording is on, `None` (no
    /// allocation) otherwise.
    fn fresh_prov(&self) -> Option<Box<NodeProv>> {
        self.opts.record_provenance.then(Box::<NodeProv>::default)
    }

    /// Schedules the resolvent of `k`'s node with its selected goal replaced
    /// by `goals`, under `b`.
    pub(crate) fn resume(
        &mut self,
        k: Cont,
        b: &Bindings,
        goals: &[Term],
        prov: Option<Box<NodeProv>>,
    ) {
        let canon = self
            .arena
            .canonicalize_resolvent(b, &k.canon, k.base, k.split, goals);
        self.push(Task::Expand(Node {
            subgoal: k.subgoal,
            split: k.split,
            canon,
            prov,
        }));
    }

    /// An empty binding store for one step, reusing the previous step's
    /// buffers; hand it back with [`Machine::recycle`].
    pub(crate) fn bindings(&mut self) -> Bindings {
        let mut b = std::mem::take(&mut self.spare_bindings);
        b.clear();
        b
    }

    pub(crate) fn recycle(&mut self, b: Bindings) {
        self.spare_bindings = b;
    }

    pub(crate) fn expand(&mut self, node: Node) -> Result<(), EngineError> {
        if self.arena.tuple_len(&node.canon) == node.split {
            // No goals left: the canonical node is exactly its template,
            // which is the answer.
            self.add_answer(node.subgoal, node.canon, node.prov);
            return Ok(());
        }
        let mut b = self.bindings();
        let (g, base) = self
            .arena
            .instantiate_member(&node.canon, node.split, &mut b);
        let k = Cont {
            subgoal: node.subgoal,
            canon: node.canon,
            split: node.split,
            base,
        };
        let r = self.solve_goal(k, &g, &mut b, node.prov);
        self.recycle(b);
        r
    }

    fn solve_goal(
        &mut self,
        k: Cont,
        g: &Term,
        b: &mut Bindings,
        prov: Option<Box<NodeProv>>,
    ) -> Result<(), EngineError> {
        // `expand` hands over a freshly instantiated goal: `b` holds fresh
        // variables but no bindings yet, so `g` is already resolved.
        debug_assert_eq!(b.mark(), Bindings::new().mark(), "goal under bindings");
        let f = match g.functor() {
            Some(f) => f,
            None => return Err(EngineError::BadGoal(format!("{g}"))),
        };
        let args = g.args();
        let Some(ctl) = control(f) else {
            if let Some(imp) = lookup_builtin(f) {
                return self.solve_builtin(imp, k, g, b, prov);
            }
            if !self.db.is_defined(f) {
                return match self.opts.unknown {
                    Unknown::Fail => Ok(()),
                    Unknown::Error => Err(EngineError::UnknownPredicate(f)),
                };
            }
            return if self.db.is_tabled(f) {
                self.solve_tabled(f, k, g, b, prov)
            } else {
                self.solve_sld(f, k, g, b, prov)
            };
        };
        match ctl {
            Control::Conj | Control::IfThen => self.resume(k, b, &args[..2], prov),
            Control::Disj => {
                // (C -> T ; E) gets soft if-then-else semantics:
                // (C, T) or (\+ C, E).
                let syms = syms();
                match &args[0] {
                    Term::Struct(s, ite) if *s == syms.arrow && ite.len() == 2 => {
                        self.resume(k, b, ite, prov.clone());
                        let naf = Term::Struct(syms.naf, vec![ite[0].clone()].into());
                        self.resume(k, b, &[naf, args[1].clone()], prov);
                    }
                    _ => {
                        self.resume(k, b, &args[..1], prov.clone());
                        self.resume(k, b, &args[1..2], prov);
                    }
                }
            }
            Control::Not => {
                let fails = !self.provable(&args[0], b)?;
                // A truncated subcomputation cannot witness failure: its
                // empty answer set proves nothing, so the continuation must
                // not be scheduled on the strength of it.
                if fails && self.truncated.is_none() {
                    self.resume(k, b, &[], prov);
                }
            }
            // Cut is approximated by `true`: sound (a superset of solutions)
            // for the minimal-model analyses this engine serves; see README.
            Control::True => self.resume(k, b, &[], prov),
            Control::Call => self.resume(k, b, &args[..1], prov),
        }
        Ok(())
    }

    fn solve_tabled(
        &mut self,
        f: Functor,
        k: Cont,
        g: &Term,
        b: &mut Bindings,
        prov: Option<Box<NodeProv>>,
    ) -> Result<(), EngineError> {
        let opts = self.opts;
        let mut key = if opts.forward_subsumption {
            let open = self.open_call_key(f);
            if let Some(sink) = self.trace {
                // Only report calls that subsumption actually generalized.
                let specific = self.arena.canonicalize(b, g.args());
                if specific != open {
                    sink.event(&TraceEvent::SubsumedCall {
                        pred: f,
                        call: self.arena.terms(&specific),
                        subsumer: self.arena.terms(&open),
                    });
                }
            }
            open
        } else {
            self.arena.canonicalize(b, g.args())
        };
        if let Some(hook) = &opts.call_abstraction {
            let abstracted = hook(&mut self.arena, &key);
            if let Some(sink) = self.trace {
                if abstracted != key {
                    sink.event(&TraceEvent::CallAbstracted {
                        pred: f,
                        original: self.arena.terms(&key),
                        abstracted: self.arena.terms(&abstracted),
                    });
                }
            }
            key = abstracted;
        }
        let watched = self.find_or_create_subgoal(f, key)?;
        // The expanded node itself (with the tabled goal still selected)
        // becomes a consumer of the callee's table: `b` holds no bindings,
        // so its resolvent would be the node again. The trail parks on the
        // consumer; each answer return extends a copy of it with the
        // consumed answer.
        let node = Node {
            subgoal: k.subgoal,
            split: k.split,
            canon: k.canon,
            prov,
        };
        let cid = self.consumers.len();
        // Back-fill the answers the table already holds and park the cursor
        // at the high-water mark; `add_answer` advances it from there, so
        // the consumer never rescans `0..answers.len()` on later wake-ups.
        let known = self.subgoals[watched].answers.len();
        self.consumers.push(Consumer {
            node,
            watched,
            next: known,
        });
        self.subgoals[watched].consumers.push(cid);
        for idx in 0..known {
            self.push(Task::Return(cid, idx));
        }
        Ok(())
    }

    fn find_or_create_subgoal(
        &mut self,
        f: Functor,
        key: CanonicalTerm,
    ) -> Result<usize, EngineError> {
        if let Some(&sid) = self.lookup.get(&(f, key.root_id())) {
            return Ok(sid);
        }
        let sid = self.new_subgoal(f, key);
        self.lookup.insert((f, key.root_id()), sid);
        // Spawn generator nodes: one per resolving program clause. Each
        // starts a fresh derivation trail rooted at its clause — the answers
        // it eventually produces are supported by that clause. A generator
        // resolvent is the call key (the template; `split` is past its last
        // member, so none is replaced) followed by the clause body.
        let mut b = Bindings::new();
        let k = Cont {
            subgoal: sid,
            canon: key,
            split: f.arity,
            base: Var(b.len() as u32),
        };
        let call_args = self.arena.instantiate(&key, &mut b);
        let db = self.db;
        let spans_on = self.spans.is_some();
        if spans_on {
            self.span_enter("clause_resolution", Some(f));
        }
        for (cidx, clause) in db.matching_clauses_iter(f, call_args.first()) {
            self.stats.clause_resolutions += 1;
            if let Some(sink) = self.trace {
                sink.event(&TraceEvent::ClauseResolution { pred: f });
            }
            let m = b.mark();
            let base = b.fresh_block(clause.nvars);
            let mut rename = |t: &Term| t.map_vars(&mut |v| Term::Var(Var(base.0 + v.0)));
            let head = rename(&clause.head);
            let ok = call_args
                .iter()
                .zip(head.args().iter())
                .all(|(x, y)| self.unif(&mut b, x, y));
            if ok {
                let goals: Vec<Term> = clause.body.iter().map(&mut rename).collect();
                let prov = self.opts.record_provenance.then(|| {
                    Box::new(NodeProv {
                        clauses: vec![ClauseRef {
                            pred: f,
                            index: cidx,
                        }],
                        premises: Vec::new(),
                    })
                });
                self.resume(k, &b, &goals, prov);
            }
            b.undo_to(m);
        }
        if spans_on {
            self.span_exit();
        }
        Ok(sid)
    }

    /// Adds a fresh subgoal table for the call `key`, charging its bytes
    /// and reporting it; returns its index.
    fn new_subgoal(&mut self, f: Functor, key: CanonicalTerm) -> usize {
        let state = SubgoalState::new(f, key, &self.arena);
        let bytes = state.table_bytes();
        self.stats.subgoals += 1;
        self.stats.table_bytes += bytes;
        if let Some(sink) = self.trace {
            sink.event(&TraceEvent::NewSubgoal {
                pred: f,
                call: self.arena.terms(&key),
                bytes,
            });
        }
        self.subgoals.push(state);
        self.subgoals.len() - 1
    }

    fn open_call_key(&mut self, f: Functor) -> CanonicalTerm {
        let b = Bindings::new();
        let args: Vec<Term> = (0..f.arity).map(|i| Term::Var(Var(i as u32))).collect();
        self.arena.canonicalize(&b, &args)
    }
}

pub(crate) fn flatten_conj(t: &Term, out: &mut Vec<Term>) {
    if t.functor().and_then(control) == Some(Control::Conj) {
        flatten_conj(&t.args()[0], out);
        flatten_conj(&t.args()[1], out);
        return;
    }
    out.push(t.clone());
}
