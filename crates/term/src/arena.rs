//! A hash-consing arena for canonical terms — substitution factoring.
//!
//! XSB's tables owe much of their speed to *substitution factoring*: calls
//! and answers are stored in tries so that common prefixes (and, with
//! hash-consing, common subterms) are represented once, duplicate checks are
//! pointer comparisons, and table space is charged per shared node rather
//! than per copy (Swift & Warren, PAPERS.md). This module is our equivalent:
//! every canonical subterm is interned exactly once and identified by a
//! [`TermId`] — a `Copy` handle with O(1) equality and hashing. Interning is
//! *bottom-up*: a node is only created after its children, so structural
//! equality of subtrees collapses to id equality of children, and the
//! hash-cons lookup for a node costs one hash-map probe plus a shallow
//! comparison.
//!
//! Each node caches, at intern time:
//!
//! * its structural **hash** (deterministic across runs — it feeds golden
//!   traces and benchmark keys, so it must not depend on `RandomState`),
//! * its **tree bytes** — the footprint an unshared copy would occupy,
//!   matching [`Term::heap_bytes`], used by the table-space accounting,
//! * its **height** — the nesting depth of compound structure, so depth-k
//!   truncation can tell in O(1) that a tuple needs no cut, and
//! * for *ground* nodes only, a materialized [`Term`] — which doubles as
//!   the groundness flag — so instantiating a ground subterm is one `Arc`
//!   clone. Non-ground nodes are rebuilt on demand
//!   ([`TermArena::instantiate`], [`TermArena::terms`]); their variables
//!   are renamed on every instantiation anyway, so a cached copy would only
//!   cost an allocation per interned node.
//!
//! The hash-cons index maps a structural hash to the newest node with that
//! hash; older nodes with the same hash are chained through a `next` link
//! stored in the node itself, so a bucket costs no allocation. The index's
//! key is already a splitmix hash, so the map hashes it with the
//! pass-through [`PassThroughHasher`]. Interning *probes before it
//! allocates*: the probe hashes and compares a borrowed shape (symbol plus
//! a slice of child ids), and a boxed node is built only on a miss. Child
//! and tuple ids are collected in reusable scratch buffers, and free
//! variables are numbered by scanning a short vector, so canonicalizing a
//! resolvent whose subterms are all interned already allocates nothing.
//!
//! Leaves — most of the nodes a canonicalization visits — bypass the
//! structural hash through *leaf tables*: canonical variable number → id in
//! a dense vector, atom and integer → id in small maps. The tables fill as
//! the arena first interns each leaf, through the ordinary hash-cons path,
//! so they grow with the arena and leave `TermId` order and hashes as they
//! would be without them.
//!
//! A derivation step does not re-walk what it does not change.
//! [`TermArena::instantiate_member`] materializes one member of a tuple
//! (the selected goal), and [`TermArena::canonicalize_resolvent`]
//! canonicalizes the resolvent — the other members around the new goals —
//! straight from the tuple's ids under the step's bindings: a ground node
//! is its own canonical form (O(1)), a variable is looked up in the
//! bindings, and only the new goals and bound values are walked as
//! [`Term`]s. The id walk visits nodes in the order the term walk would,
//! so both mint the same ids.
//!
//! Arenas are *session-scoped*: each engine run owns a [`TermArena`], so the
//! interned forest is dropped with the session instead of accumulating for
//! the life of the thread (the pre-PR-4 `thread_local!` design leaked every
//! term ever interned across successive analyses in one process). Every
//! [`CanonicalTerm`](crate::CanonicalTerm) handle remembers which arena
//! minted it, and arena accessors `debug_assert` that handles are presented
//! back to their own arena. A process-wide shared arena (id 0) backs the
//! convenience free functions ([`crate::canonicalize`],
//! [`crate::canonical_key`], …) for callers that don't carry a session.

use crate::bindings::Bindings;
use crate::hashing::{FastMap, PassThroughHasher};
use crate::symbol::Sym;
use crate::term::{Term, Var};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Handle to an interned canonical (sub)term. Two ids from the same arena
/// are equal iff the terms they denote are structurally identical, so
/// equality and hashing are O(1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(u32);

impl TermId {
    /// The id's index into the arena (dense, allocation order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape of an interned node. Children are ids, never inline terms.
#[derive(Clone)]
enum NodeKind {
    /// Canonical variable `_n` (first-occurrence numbering).
    Var(u32),
    /// 0-ary symbol.
    Atom(Sym),
    /// Machine integer.
    Int(i64),
    /// Compound term `f(c1, …, cn)`, `n ≥ 1`.
    Struct(Sym, Box<[TermId]>),
    /// Root of a canonical *tuple* (a call or answer). Tuples appear only
    /// as roots, never as children of other nodes.
    Tuple(Box<[TermId]>),
}

/// A borrowed [`NodeKind`]: what interning hashes and compares, so a probe
/// that hits allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape<'a> {
    Var(u32),
    Atom(Sym),
    Int(i64),
    Struct(Sym, &'a [TermId]),
    Tuple(&'a [TermId]),
}

impl NodeKind {
    fn shape(&self) -> Shape<'_> {
        match self {
            NodeKind::Var(n) => Shape::Var(*n),
            NodeKind::Atom(s) => Shape::Atom(*s),
            NodeKind::Int(i) => Shape::Int(*i),
            NodeKind::Struct(s, kids) => Shape::Struct(*s, kids),
            NodeKind::Tuple(kids) => Shape::Tuple(kids),
        }
    }
}

impl Shape<'_> {
    fn to_kind(self) -> NodeKind {
        match self {
            Shape::Var(n) => NodeKind::Var(n),
            Shape::Atom(s) => NodeKind::Atom(s),
            Shape::Int(i) => NodeKind::Int(i),
            Shape::Struct(s, kids) => NodeKind::Struct(s, kids.into()),
            Shape::Tuple(kids) => NodeKind::Tuple(kids.into()),
        }
    }
}

/// End of a hash chain.
const NIL: u32 = u32::MAX;

#[derive(Clone)]
struct Node {
    kind: NodeKind,
    /// Structural hash, cached so `CanonicalTerm` hashing never walks.
    hash: u64,
    /// Bytes an *unshared* copy of this subtree would occupy; matches
    /// [`Term::heap_bytes`] so accounting is comparable across PRs.
    tree_bytes: usize,
    /// Nesting depth of compound structure: 0 for a variable or constant,
    /// 1 + the tallest child for a struct, the tallest member for a tuple.
    height: u32,
    /// The next-older node with the same hash, or [`NIL`].
    next: u32,
    /// Materialized term, cached exactly for the ground non-tuple nodes:
    /// `Some` iff no variable occurs below this (non-tuple) node.
    term: Option<Term>,
}

/// Counters describing one arena, for observability.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ArenaStats {
    /// Number of distinct interned nodes.
    pub nodes: usize,
    /// Total bytes of the interned (fully shared) forest: one node's worth
    /// per distinct subterm.
    pub interned_bytes: usize,
}

/// Number of free variables numbered by a linear scan before
/// [`Scratch::var_index`] takes over.
const VAR_SCAN_LIMIT: usize = 32;

/// Reusable buffers of one canonicalization; emptied, never freed, between
/// calls.
#[derive(Clone, Default)]
struct Scratch {
    /// Free variables in first-occurrence order: a variable's position is
    /// its canonical number.
    vars: Vec<Var>,
    /// Index over `vars`, filled only once it outgrows a linear scan.
    var_index: FastMap<Var, u32>,
    /// Stack of child ids: each struct pushes its children above the
    /// current top and pops them once interned; the tuple's member ids
    /// accumulate at the bottom.
    kids: Vec<TermId>,
}

impl Scratch {
    fn clear(&mut self) {
        self.vars.clear();
        self.var_index.clear();
        self.kids.clear();
    }

    /// The canonical number of free variable `v`, assigning the next one on
    /// its first occurrence.
    fn number(&mut self, v: Var) -> u32 {
        let seen = if self.vars.len() <= VAR_SCAN_LIMIT {
            self.vars.iter().position(|&w| w == v).map(|i| i as u32)
        } else {
            self.var_index.get(&v).copied()
        };
        if let Some(n) = seen {
            return n;
        }
        let n = self.vars.len() as u32;
        self.vars.push(v);
        if self.vars.len() > VAR_SCAN_LIMIT {
            if self.var_index.is_empty() {
                let all = self.vars.iter().enumerate();
                self.var_index.extend(all.map(|(i, &w)| (w, i as u32)));
            } else {
                self.var_index.insert(v, n);
            }
        }
        n
    }
}

#[derive(Clone, Default)]
struct Arena {
    nodes: Vec<Node>,
    /// Hash-cons index: structural hash → newest node with that hash; the
    /// rest of the bucket is chained through [`Node::next`]. Collisions are
    /// resolved by a shallow shape comparison (children by id).
    heads: HashMap<u64, u32, BuildHasherDefault<PassThroughHasher>>,
    /// Leaf tables, filled as leaves are first interned: canonical variable
    /// number → id (dense, [`NIL`] for a number not yet seen), and atom or
    /// integer → id. A hit skips the structural hash and the chain walk.
    var_ids: Vec<u32>,
    atom_ids: FastMap<Sym, TermId>,
    int_ids: FastMap<i64, TermId>,
    scratch: Scratch,
}

/// Arena id of the process-wide shared arena backing the free functions.
pub(crate) const GLOBAL_ARENA_ID: u32 = 0;

/// Session arena ids start at 1; 0 is the shared arena.
static NEXT_ARENA_ID: AtomicU32 = AtomicU32::new(1);

fn global() -> &'static Mutex<Arena> {
    static GLOBAL: OnceLock<Mutex<Arena>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Arena::default()))
}

fn with_global<R>(f: impl FnOnce(&mut Arena) -> R) -> R {
    let mut a = global().lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut a)
}

/// Cost of one term node, shared with [`Term::heap_bytes`].
pub(crate) const fn node_bytes() -> usize {
    std::mem::size_of::<Term>()
}

/// splitmix64 finalizer — a cheap, deterministic bit mixer.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

fn combine(h: u64, w: u64) -> u64 {
    mix(h ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

impl Arena {
    fn node(&self, id: TermId) -> &Node {
        &self.nodes[id.index()]
    }

    fn hash_shape(&self, shape: Shape<'_>) -> u64 {
        match shape {
            Shape::Var(n) => combine(1, u64::from(n)),
            Shape::Atom(s) => combine(2, s.index() as u64),
            Shape::Int(i) => combine(3, i as u64),
            Shape::Struct(s, kids) => {
                let mut h = combine(4, s.index() as u64);
                h = combine(h, kids.len() as u64);
                for k in kids {
                    h = combine(h, self.node(*k).hash);
                }
                h
            }
            Shape::Tuple(kids) => {
                let mut h = combine(5, kids.len() as u64);
                for k in kids {
                    h = combine(h, self.node(*k).hash);
                }
                h
            }
        }
    }

    /// Returns the id of `shape`, creating the node only if the probe
    /// misses.
    fn intern(&mut self, shape: Shape<'_>) -> TermId {
        let hash = self.hash_shape(shape);
        let head = self.heads.get(&hash).copied().unwrap_or(NIL);
        let mut i = head;
        while i != NIL {
            let n = &self.nodes[i as usize];
            if n.kind.shape() == shape {
                return TermId(i);
            }
            i = n.next;
        }
        let (tree_bytes, height, term) = match shape {
            Shape::Var(_) => (node_bytes(), 0, None),
            Shape::Atom(s) => (node_bytes(), 0, Some(Term::Atom(s))),
            Shape::Int(i) => (node_bytes(), 0, Some(Term::Int(i))),
            Shape::Struct(s, kids) => {
                let (bytes, ground, height) = self.summarize(kids);
                let term = ground.then(|| {
                    let args = kids.iter().map(|&k| {
                        self.node(k)
                            .term
                            .clone()
                            .expect("ground non-tuple node has a term")
                    });
                    Term::Struct(s, args.collect())
                });
                (node_bytes() + bytes, height + 1, term)
            }
            // The tuple wrapper itself is free: the seed accounting summed
            // the member terms' heap bytes with no container cost.
            Shape::Tuple(kids) => {
                let (bytes, _, height) = self.summarize(kids);
                (bytes, height, None)
            }
        };
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            kind: shape.to_kind(),
            hash,
            tree_bytes,
            height,
            next: head,
            term,
        });
        self.heads.insert(hash, id);
        TermId(id)
    }

    /// Canonical variable `n`, through the direct table.
    fn var_leaf(&mut self, n: u32) -> TermId {
        let i = n as usize;
        match self.var_ids.get(i) {
            Some(&id) if id != NIL => TermId(id),
            _ => {
                let id = self.intern(Shape::Var(n));
                if self.var_ids.len() <= i {
                    self.var_ids.resize(i + 1, NIL);
                }
                self.var_ids[i] = id.0;
                id
            }
        }
    }

    fn atom_leaf(&mut self, s: Sym) -> TermId {
        if let Some(&id) = self.atom_ids.get(&s) {
            return id;
        }
        let id = self.intern(Shape::Atom(s));
        self.atom_ids.insert(s, id);
        id
    }

    fn int_leaf(&mut self, i: i64) -> TermId {
        if let Some(&id) = self.int_ids.get(&i) {
            return id;
        }
        let id = self.intern(Shape::Int(i));
        self.int_ids.insert(i, id);
        id
    }

    /// Summed tree bytes, conjoined groundness and maximum height of `kids`.
    fn summarize(&self, kids: &[TermId]) -> (usize, bool, u32) {
        kids.iter()
            .fold((0, true, 0), |(bytes, ground, height), &k| {
                let n = self.node(k);
                (
                    bytes + n.tree_bytes,
                    ground && n.term.is_some(),
                    height.max(n.height),
                )
            })
    }

    /// Interns the canonical form of `t` as seen through `b`, numbering free
    /// variables in first-occurrence order. No intermediate `Term` is
    /// allocated: the walk resolves bindings and interns bottom-up, with
    /// children collected on `sc.kids`.
    fn canon(&mut self, b: &Bindings, t: &Term, sc: &mut Scratch) -> TermId {
        match b.walk(t) {
            Term::Var(v) => {
                let n = sc.number(*v);
                self.var_leaf(n)
            }
            Term::Atom(s) => self.atom_leaf(*s),
            Term::Int(i) => self.int_leaf(*i),
            Term::Struct(s, args) => {
                let base = sc.kids.len();
                for a in args.iter() {
                    let id = self.canon(b, a, sc);
                    sc.kids.push(id);
                }
                let id = self.intern(Shape::Struct(*s, &sc.kids[base..]));
                sc.kids.truncate(base);
                id
            }
        }
    }

    /// [`Arena::canon`] for an interned node whose canonical variable `k`
    /// stands for `Var(base + k)` under `b`: a ground node is its own
    /// canonical form, a variable resolves through `b`, and only a bound
    /// value is walked as a [`Term`]. Visits nodes in the order `canon`
    /// would visit the instantiated term, so a miss mints the same id.
    fn canon_id(&mut self, b: &Bindings, id: TermId, base: u32, sc: &mut Scratch) -> TermId {
        let n = self.node(id);
        if n.term.is_some() {
            return id;
        }
        match &n.kind {
            NodeKind::Var(k) => {
                let v = Var(base + *k);
                match b.lookup(v) {
                    Some(t) => self.canon(b, t, sc),
                    None => {
                        let n = sc.number(v);
                        self.var_leaf(n)
                    }
                }
            }
            NodeKind::Struct(s, kids) => {
                let (s, arity) = (*s, kids.len());
                let top = sc.kids.len();
                for i in 0..arity {
                    let kid = self.struct_child(id, i);
                    let kid = self.canon_id(b, kid, base, sc);
                    sc.kids.push(kid);
                }
                let id = self.intern(Shape::Struct(s, &sc.kids[top..]));
                sc.kids.truncate(top);
                id
            }
            // Atom/Int are ground (returned above); tuples never nest.
            _ => unreachable!("uncached leaf in arena"),
        }
    }

    fn struct_child(&self, id: TermId, i: usize) -> TermId {
        match &self.node(id).kind {
            NodeKind::Struct(_, kids) => kids[i],
            _ => unreachable!("not a struct node"),
        }
    }

    /// Materializes `id` with canonical variables shifted by `base`,
    /// reusing cached ground subterms wholesale.
    fn instantiate_node(&self, id: TermId, base: u32) -> Term {
        let n = self.node(id);
        if let Some(t) = &n.term {
            return t.clone();
        }
        match &n.kind {
            NodeKind::Var(k) => Term::Var(Var(base + *k)),
            NodeKind::Struct(s, kids) => {
                let args = kids.iter().map(|&k| self.instantiate_node(k, base));
                Term::Struct(*s, args.collect())
            }
            // Atom/Int are ground (cached above); tuples never nest.
            _ => unreachable!("uncached leaf in arena"),
        }
    }

    fn tuple_children(&self, root: TermId) -> &[TermId] {
        match &self.node(root).kind {
            NodeKind::Tuple(kids) => kids,
            _ => unreachable!("canonical root is always a tuple node"),
        }
    }

    /// The canonical member terms: cached ground members are cloned,
    /// non-ground ones rebuilt with their canonical variable numbers.
    fn tuple_terms(&self, root: TermId) -> Vec<Term> {
        self.tuple_children(root)
            .iter()
            .map(|&k| self.instantiate_node(k, 0))
            .collect()
    }

    fn tuple_instantiate(&self, root: TermId, nvars: u32, b: &mut Bindings) -> Vec<Term> {
        let base = b.fresh_block(nvars as usize).0;
        self.tuple_children(root)
            .iter()
            .map(|&k| self.instantiate_node(k, base))
            .collect()
    }

    fn charge<S: BuildHasher>(&self, id: TermId, seen: &mut HashSet<TermId, S>) -> usize {
        if !seen.insert(id) {
            return 0;
        }
        let n = self.node(id);
        match &n.kind {
            NodeKind::Tuple(kids) => {
                let mut sum = 0;
                for &k in kids.iter() {
                    sum += self.charge(k, seen);
                }
                sum
            }
            NodeKind::Struct(_, kids) => {
                let mut sum = node_bytes();
                for &k in kids.iter() {
                    sum += self.charge(k, seen);
                }
                sum
            }
            _ => node_bytes(),
        }
    }

    fn stats(&self) -> ArenaStats {
        ArenaStats {
            nodes: self.nodes.len(),
            interned_bytes: self
                .nodes
                .iter()
                .map(|n| match n.kind {
                    NodeKind::Tuple(_) => 0,
                    _ => node_bytes(),
                })
                .sum(),
        }
    }

    /// Canonicalizes the tuple `ts` (one shared variable numbering) and
    /// interns its root.
    fn canonicalize<'t>(
        &mut self,
        arena_id: u32,
        b: &Bindings,
        ts: impl IntoIterator<Item = &'t Term>,
    ) -> CanonicalTerm {
        let mut sc = self.take_scratch();
        for t in ts {
            let id = self.canon(b, t, &mut sc);
            sc.kids.push(id);
        }
        self.finish_tuple(arena_id, sc)
    }

    /// Canonicalizes the tuple `root` with its member `split` (if any)
    /// replaced by `goals`; see [`TermArena::canonicalize_resolvent`].
    fn canonicalize_resolvent(
        &mut self,
        arena_id: u32,
        b: &Bindings,
        root: TermId,
        base: u32,
        split: usize,
        goals: &[Term],
    ) -> CanonicalTerm {
        let mut sc = self.take_scratch();
        let len = self.tuple_children(root).len();
        debug_assert!(split <= len, "split {split} past a {len}-member tuple");
        for i in 0..split {
            let m = self.tuple_children(root)[i];
            let id = self.canon_id(b, m, base, &mut sc);
            sc.kids.push(id);
        }
        for g in goals {
            let id = self.canon(b, g, &mut sc);
            sc.kids.push(id);
        }
        for i in (split + 1).min(len)..len {
            let m = self.tuple_children(root)[i];
            let id = self.canon_id(b, m, base, &mut sc);
            sc.kids.push(id);
        }
        self.finish_tuple(arena_id, sc)
    }

    fn take_scratch(&mut self) -> Scratch {
        let mut sc = std::mem::take(&mut self.scratch);
        sc.clear();
        sc
    }

    /// Interns the tuple of the member ids on `sc.kids` and hands the
    /// scratch buffers back.
    fn finish_tuple(&mut self, arena_id: u32, sc: Scratch) -> CanonicalTerm {
        let nvars = sc.vars.len() as u32;
        let root = self.intern(Shape::Tuple(&sc.kids));
        self.scratch = sc;
        let hash = self.node(root).hash;
        CanonicalTerm::from_parts(root, nvars, hash, arena_id)
    }
}

use super::variant::CanonicalTerm;

/// A session-scoped hash-consing term arena.
///
/// Every engine session owns one: canonical calls, answers, and node keys
/// are interned here, and the whole forest is released when the session's
/// [`Evaluation`](../tablog_engine) (or the arena itself) is dropped —
/// unlike the pre-PR-4 `thread_local!` interner, which retained every term
/// ever canonicalized for the life of the thread. The arena is `Send`, so a
/// session can migrate across threads and sessions on different threads
/// never contend.
///
/// Handles ([`CanonicalTerm`], [`TermId`]) are only meaningful with the
/// arena that minted them; accessors `debug_assert` this. Cloning an arena
/// snapshots the forest — handles stay valid against both copies.
#[derive(Clone)]
pub struct TermArena {
    id: u32,
    inner: Arena,
}

impl Default for TermArena {
    fn default() -> Self {
        TermArena::new()
    }
}

impl std::fmt::Debug for TermArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.inner.stats();
        f.debug_struct("TermArena")
            .field("id", &self.id)
            .field("nodes", &s.nodes)
            .field("interned_bytes", &s.interned_bytes)
            .finish()
    }
}

impl TermArena {
    /// A fresh, empty arena with a process-unique id.
    pub fn new() -> Self {
        TermArena {
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed),
            inner: Arena::default(),
        }
    }

    #[inline]
    fn check(&self, c: &CanonicalTerm) {
        debug_assert_eq!(
            c.arena_id(),
            self.id,
            "CanonicalTerm from arena {} used with arena {}",
            c.arena_id(),
            self.id
        );
    }

    /// Canonicalizes a tuple of terms after resolving them through `b`;
    /// see [`crate::canonicalize`].
    pub fn canonicalize(&mut self, b: &Bindings, ts: &[Term]) -> CanonicalTerm {
        self.inner.canonicalize(self.id, b, ts)
    }

    /// Canonicalizes the concatenation of two tuples without allocating the
    /// concatenated slice; see [`crate::canonicalize2`].
    pub fn canonicalize2(&mut self, b: &Bindings, xs: &[Term], ys: &[Term]) -> CanonicalTerm {
        self.inner.canonicalize(self.id, b, xs.iter().chain(ys))
    }

    /// Canonicalizes a single already-resolved term.
    pub fn canonical_key(&mut self, t: &Term) -> CanonicalTerm {
        let empty = Bindings::new();
        self.canonicalize(&empty, std::slice::from_ref(t))
    }

    /// Number of member terms in `c`'s canonical tuple.
    pub fn tuple_len(&self, c: &CanonicalTerm) -> usize {
        self.check(c);
        self.inner.tuple_children(c.root_id()).len()
    }

    /// The canonicalized terms of `c`: ground members come from the cache,
    /// the rest are rebuilt with canonical variable numbers.
    pub fn terms(&self, c: &CanonicalTerm) -> Vec<Term> {
        self.check(c);
        self.inner.tuple_terms(c.root_id())
    }

    /// The single canonicalized term of `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` holds more than one term.
    pub fn term(&self, c: &CanonicalTerm) -> Term {
        let mut ts = self.terms(c);
        assert_eq!(ts.len(), 1, "canonical form holds {} terms", ts.len());
        ts.pop().expect("length checked above")
    }

    /// Instantiates `c` with fresh variables from `b`; ground subterms are
    /// shared with the arena's cache instead of copied.
    pub fn instantiate(&self, c: &CanonicalTerm, b: &mut Bindings) -> Vec<Term> {
        self.check(c);
        self.inner
            .tuple_instantiate(c.root_id(), c.num_vars() as u32, b)
    }

    /// Instantiates only member `i` of `c`. The fresh block for all of
    /// `c`'s variables is allocated in `b` and its first variable returned,
    /// so canonical variable `k` of every member stands for `base + k` —
    /// the layout [`TermArena::canonicalize_resolvent`] reads the other
    /// members through.
    ///
    /// # Panics
    ///
    /// Panics if `c` has no member `i`.
    pub fn instantiate_member(&self, c: &CanonicalTerm, i: usize, b: &mut Bindings) -> (Term, Var) {
        self.check(c);
        let base = b.fresh_block(c.num_vars());
        let member = self.inner.tuple_children(c.root_id())[i];
        (self.inner.instantiate_node(member, base.0), base)
    }

    /// Canonicalizes a resolvent of `c` without instantiating it: the
    /// members before `split`, then `goals`, then the members after
    /// `split`, under `b` — the member at `split` (the selected goal), if
    /// there is one, is replaced by `goals`. `c`'s canonical variable `k`
    /// stands for `Var(base + k)`, as laid out by
    /// [`TermArena::instantiate_member`] or [`TermArena::instantiate`].
    ///
    /// The result, and every id minted on the way, equals
    /// `canonicalize2(b, &inst[..split], goals ++ inst[split + 1..])` with
    /// `inst` that instantiation of `c`, but only `goals` and the values `b`
    /// binds `c`'s variables to are walked as terms: a ground member or
    /// subterm of `c` is returned as its own id in O(1).
    pub fn canonicalize_resolvent(
        &mut self,
        b: &Bindings,
        c: &CanonicalTerm,
        base: Var,
        split: usize,
        goals: &[Term],
    ) -> CanonicalTerm {
        self.check(c);
        self.inner
            .canonicalize_resolvent(self.id, b, c.root_id(), base.0, split, goals)
    }

    /// Estimated heap footprint in bytes of an *unshared* copy of `c`,
    /// matching [`Term::heap_bytes`].
    pub fn heap_bytes(&self, c: &CanonicalTerm) -> usize {
        self.check(c);
        self.inner.node(c.root_id()).tree_bytes
    }

    /// Charges the bytes of every node reachable from `c` that is not
    /// already in `seen`, inserting as it goes — the substitution-factoring
    /// accounting: within one `seen` scope (a subgoal's table), shared
    /// structure is charged exactly once, at [`Term::heap_bytes`]'s
    /// per-node rate.
    pub fn charge_shared_bytes<S: BuildHasher>(
        &self,
        c: &CanonicalTerm,
        seen: &mut HashSet<TermId, S>,
    ) -> usize {
        self.check(c);
        self.inner.charge(c.root_id(), seen)
    }

    /// Struct height of `c`'s tallest member: 0 when every member is a
    /// variable or constant, 1 for `f(a, X)`, 2 for `f(g(a))`. Cached at
    /// intern time, so O(1). Depth-k truncation at `k` leaves a tuple of
    /// height ≤ `k` unchanged.
    pub fn height(&self, c: &CanonicalTerm) -> usize {
        self.check(c);
        self.inner.node(c.root_id()).height as usize
    }

    /// Snapshot of this arena's counters.
    pub fn stats(&self) -> ArenaStats {
        self.inner.stats()
    }
}

// --- Compat shim: the process-wide shared arena (id 0). -------------------
//
// The free functions below (and the convenience methods on `CanonicalTerm`)
// operate on a single shared arena behind a mutex. Engine sessions never
// touch it — they own a `TermArena` — so it only grows with what
// out-of-session callers (tests, CLI glue, analyzers' key construction)
// intern, and repeated analyses no longer accumulate state here.

pub(crate) fn canonicalize_in(b: &Bindings, ts: &[Term]) -> CanonicalTerm {
    with_global(|a| a.canonicalize(GLOBAL_ARENA_ID, b, ts))
}

pub(crate) fn canonicalize2_in(b: &Bindings, xs: &[Term], ys: &[Term]) -> CanonicalTerm {
    with_global(|a| a.canonicalize(GLOBAL_ARENA_ID, b, xs.iter().chain(ys)))
}

#[inline]
fn check_global(c: &CanonicalTerm) {
    debug_assert_eq!(
        c.arena_id(),
        GLOBAL_ARENA_ID,
        "session-arena CanonicalTerm used with the shared-arena free functions; \
         go through the owning TermArena instead"
    );
}

pub(crate) fn tuple_len(c: &CanonicalTerm) -> usize {
    check_global(c);
    with_global(|a| a.tuple_children(c.root_id()).len())
}

pub(crate) fn tuple_terms(c: &CanonicalTerm) -> Vec<Term> {
    check_global(c);
    with_global(|a| a.tuple_terms(c.root_id()))
}

pub(crate) fn tuple_instantiate(c: &CanonicalTerm, b: &mut Bindings) -> Vec<Term> {
    check_global(c);
    with_global(|a| a.tuple_instantiate(c.root_id(), c.num_vars() as u32, b))
}

pub(crate) fn tree_bytes(c: &CanonicalTerm) -> usize {
    check_global(c);
    with_global(|a| a.node(c.root_id()).tree_bytes)
}

/// Charges the bytes of every node reachable from `c` that is not already in
/// `seen`, against the process-wide shared arena. Engine tables use
/// [`TermArena::charge_shared_bytes`] on their session arena instead.
pub fn charge_shared_bytes<S: BuildHasher>(
    c: &CanonicalTerm,
    seen: &mut HashSet<TermId, S>,
) -> usize {
    check_global(c);
    with_global(|a| a.charge(c.root_id(), seen))
}

/// Snapshot of the process-wide shared arena's counters. Session arenas
/// report through [`TermArena::stats`]; this only reflects what the
/// convenience free functions have interned.
pub fn arena_stats() -> ArenaStats {
    with_global(|a| a.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{atom, int, structure, var};
    use crate::variant::{canonical_key, canonicalize};

    #[test]
    fn interning_is_idempotent() {
        let t = structure("f", vec![atom("a"), int(3)]);
        let c1 = canonical_key(&t);
        let c2 = canonical_key(&t);
        assert_eq!(c1.root_id(), c2.root_id());
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let c1 = canonical_key(&structure("f", vec![atom("a")]));
        let c2 = canonical_key(&structure("f", vec![atom("b")]));
        assert_ne!(c1.root_id(), c2.root_id());
    }

    #[test]
    fn variants_share_an_id() {
        let b = Bindings::new();
        let c1 = canonicalize(&b, &[structure("f", vec![var(Var(7)), var(Var(7))])]);
        let c2 = canonicalize(&b, &[structure("f", vec![var(Var(2)), var(Var(2))])]);
        assert_eq!(c1.root_id(), c2.root_id());
        let c3 = canonicalize(&b, &[structure("f", vec![var(Var(1)), var(Var(2))])]);
        assert_ne!(c1.root_id(), c3.root_id());
    }

    #[test]
    fn shared_structure_is_charged_once() {
        let sub = structure("g", vec![atom("a"), atom("b")]);
        let t = structure("f", vec![sub.clone(), sub.clone()]);
        let c = canonical_key(&t);
        // Unshared estimate counts the g-subtree twice…
        assert_eq!(c.heap_bytes(), t.heap_bytes());
        // …but the factored charge counts it once.
        let mut seen = HashSet::new();
        let charged = charge_shared_bytes(&c, &mut seen);
        let per_node = std::mem::size_of::<Term>();
        assert_eq!(charged, 4 * per_node); // f, g, a, b — not 7 nodes
                                           // Re-charging within the same scope is free.
        assert_eq!(charge_shared_bytes(&c, &mut seen), 0);
    }

    #[test]
    fn charge_matches_heap_bytes_without_sharing() {
        let t = structure("f", vec![atom("a"), structure("h", vec![int(1)])]);
        let c = canonical_key(&t);
        let mut seen = HashSet::new();
        assert_eq!(charge_shared_bytes(&c, &mut seen), t.heap_bytes());
    }

    #[test]
    fn arena_stats_grow_monotonically() {
        let before = arena_stats();
        // A fresh, never-before-interned atom must add at least one node.
        let _ = canonical_key(&structure(
            "arena_stats_probe",
            vec![atom("arena_stats_probe_leaf")],
        ));
        let after = arena_stats();
        assert!(after.nodes > before.nodes);
        assert!(after.interned_bytes > before.interned_bytes);
    }

    #[test]
    fn session_arena_round_trips_terms() {
        let mut a = TermArena::new();
        let t = structure("f", vec![atom("a"), structure("g", vec![var(Var(4))])]);
        let b = Bindings::new();
        let c = a.canonicalize(&b, std::slice::from_ref(&t));
        assert_eq!(
            a.terms(&c),
            vec![structure(
                "f",
                vec![atom("a"), structure("g", vec![var(Var(0))])]
            )]
        );
        assert_eq!(a.tuple_len(&c), 1);
        assert_eq!(a.heap_bytes(&c), t.heap_bytes());
        let mut seen = HashSet::new();
        assert_eq!(a.charge_shared_bytes(&c, &mut seen), t.heap_bytes());
    }

    /// `true` if the shared arena holds a node headed by `sym`. Other tests
    /// of this binary intern into the shared arena concurrently, so its
    /// counters cannot be compared before and after; a probe symbol no other
    /// test uses can be checked exactly.
    fn shared_arena_mentions(sym: Sym) -> bool {
        with_global(|a| {
            a.nodes.iter().any(|n| match n.kind {
                NodeKind::Atom(s) | NodeKind::Struct(s, _) => s == sym,
                _ => false,
            })
        })
    }

    #[test]
    fn session_arenas_are_independent_and_do_not_touch_the_shared_arena() {
        let mut a1 = TermArena::new();
        let mut a2 = TermArena::new();
        let t = structure("session_probe", vec![int(1), int(2)]);
        let c1 = a1.canonical_key(&t);
        let c2 = a2.canonical_key(&t);
        // Both arenas start empty and intern the same shape: same dense ids,
        // but different owners.
        assert_eq!(c1.root_id(), c2.root_id());
        assert!(a1.stats().nodes > 0);
        // Session interning leaves the shared arena untouched.
        assert!(!shared_arena_mentions(crate::symbol::intern(
            "session_probe"
        )));
    }

    #[test]
    fn dropping_a_session_arena_releases_its_forest() {
        let probe = structure("leak_probe", vec![atom("leak_probe_leaf"), int(7)]);
        let mut first = None;
        for _ in 0..8 {
            let mut a = TermArena::new();
            let c = a.canonical_key(&probe);
            assert!(a.stats().interned_bytes > 0);
            let mut b = Bindings::new();
            assert_eq!(a.instantiate(&c, &mut b).len(), 1);
            // Every session starts from an empty forest: nothing carried
            // over from the arenas dropped before it.
            let stats = a.stats();
            assert_eq!(*first.get_or_insert(stats), stats);
            // `a` dropped here: its forest goes with it.
        }
        for name in ["leak_probe", "leak_probe_leaf"] {
            assert!(!shared_arena_mentions(crate::symbol::intern(name)));
        }
    }

    #[test]
    fn arena_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TermArena>();
        assert_send::<CanonicalTerm>();
    }
}
