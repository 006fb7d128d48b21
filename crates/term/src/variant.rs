//! Variant canonicalization — the table-lookup discipline of XSB.
//!
//! Two terms are *variants* if they are identical up to a consistent
//! renaming of variables. XSB's tables are keyed on variants: a tabled call
//! is looked up by variant, and an answer is entered only if no variant of
//! it is already present (footnote 1 of the paper). We realize this by
//! mapping every term to a [`CanonicalTerm`] in which variables are numbered
//! `0, 1, 2, …` in first-occurrence order; two terms are variants iff their
//! canonical forms are equal.
//!
//! Since PR 3, canonical forms live in a hash-consing arena
//! ([`crate::arena`]): a `CanonicalTerm` is a `Copy` handle (root [`TermId`],
//! variable count, cached hash, owning-arena id) rather than an owned term
//! vector. Equality is an id comparison and hashing reads the cached hash —
//! both O(1) — so canonical forms are cheap table keys no matter how large
//! the term is. Since PR 4 arenas are session-scoped
//! ([`crate::TermArena`]); the free functions in this module intern into the
//! process-wide shared arena for callers without a session.

use crate::arena::{self, TermId, GLOBAL_ARENA_ID};
use crate::bindings::Bindings;
use crate::term::Term;
use std::fmt;

/// A term (or term tuple) whose variables have been renumbered into
/// first-occurrence order, interned in an arena. Equality on
/// `CanonicalTerm` is variant equality on the originals, decided by a single
/// id comparison.
///
/// `CanonicalTerm` is `Copy` and `Send`: a handle travels freely between
/// threads, but is only meaningful together with the arena that minted it
/// (arena accessors `debug_assert` the pairing via the stored arena id).
#[derive(Clone, Copy)]
pub struct CanonicalTerm {
    root: TermId,
    nvars: u32,
    hash: u64,
    /// Id of the minting arena (0 = the process-wide shared arena).
    arena: u32,
}

impl PartialEq for CanonicalTerm {
    fn eq(&self, other: &Self) -> bool {
        debug_assert_eq!(
            self.arena, other.arena,
            "comparing CanonicalTerms from different arenas"
        );
        self.root == other.root
    }
}

impl Eq for CanonicalTerm {}

impl std::hash::Hash for CanonicalTerm {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for CanonicalTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("CanonicalTerm");
        if self.arena == GLOBAL_ARENA_ID {
            d.field("terms", &self.terms());
        } else {
            d.field("arena", &self.arena).field("root", &self.root);
        }
        d.field("nvars", &self.nvars).finish()
    }
}

impl CanonicalTerm {
    pub(crate) fn from_parts(root: TermId, nvars: u32, hash: u64, arena: u32) -> Self {
        CanonicalTerm {
            root,
            nvars,
            hash,
            arena,
        }
    }

    /// The arena id of the canonical tuple. Equal ids (within one arena) ⇔
    /// variant-equal originals; useful as a compact table key.
    pub fn root_id(&self) -> TermId {
        self.root
    }

    /// Id of the arena that minted this handle (0 = shared arena).
    pub(crate) fn arena_id(&self) -> u32 {
        self.arena
    }

    /// Number of member terms in the canonical tuple, without materializing.
    ///
    /// Shared-arena handles only; session handles go through
    /// [`crate::TermArena::tuple_len`].
    pub fn len(&self) -> usize {
        arena::tuple_len(self)
    }

    /// `true` if the canonical tuple has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonicalized terms: ground members are `Arc` clones of the
    /// arena's cached terms, non-ground ones are rebuilt.
    ///
    /// Shared-arena handles only; session handles go through
    /// [`crate::TermArena::terms`].
    pub fn terms(&self) -> Vec<Term> {
        arena::tuple_terms(self)
    }

    /// The single canonicalized term.
    ///
    /// # Panics
    ///
    /// Panics if this canonical form holds more than one term.
    pub fn term(&self) -> Term {
        let mut ts = self.terms();
        assert_eq!(ts.len(), 1, "canonical form holds {} terms", ts.len());
        ts.pop().expect("length checked above")
    }

    /// Number of distinct variables in the canonical form.
    pub fn num_vars(&self) -> usize {
        self.nvars as usize
    }

    /// Instantiates the canonical form with fresh variables from `b`,
    /// producing terms renamed apart from everything else in `b`. Ground
    /// subterms are shared with the arena's cache instead of copied.
    ///
    /// Shared-arena handles only; session handles go through
    /// [`crate::TermArena::instantiate`].
    pub fn instantiate(&self, b: &mut Bindings) -> Vec<Term> {
        arena::tuple_instantiate(self, b)
    }

    /// Estimated heap footprint in bytes of an *unshared* copy, matching
    /// [`Term::heap_bytes`]. For the substitution-factored charge that
    /// counts shared structure once, see [`crate::charge_shared_bytes`].
    pub fn heap_bytes(&self) -> usize {
        arena::tree_bytes(self)
    }
}

/// Canonicalizes a tuple of terms *after resolving them* through `b`:
/// all bound variables are substituted out, and the remaining free variables
/// are renumbered in first-occurrence order across the whole tuple. The
/// result is interned in the process-wide shared arena — engine sessions use
/// [`crate::TermArena::canonicalize`] on their own arena instead.
pub fn canonicalize(b: &Bindings, ts: &[Term]) -> CanonicalTerm {
    arena::canonicalize_in(b, ts)
}

/// Canonicalizes the concatenation of two tuples without allocating the
/// concatenated slice. Equivalent to `canonicalize(b, [xs ++ ys])`; used on
/// the engine's node-key hot path (via the session arena's
/// [`crate::TermArena::canonicalize2`]).
pub fn canonicalize2(b: &Bindings, xs: &[Term], ys: &[Term]) -> CanonicalTerm {
    arena::canonicalize2_in(b, xs, ys)
}

/// Canonicalizes a single already-resolved term (no binding store needed).
pub fn canonical_key(t: &Term) -> CanonicalTerm {
    let empty = Bindings::new();
    canonicalize(&empty, std::slice::from_ref(t))
}

/// `true` if `t1` and `t2` are variants of each other (identical up to
/// variable renaming).
///
/// ```
/// use tablog_term::{is_variant, structure, var, atom, Var};
/// let a = structure("f", vec![var(Var(3)), var(Var(3)), var(Var(9))]);
/// let b = structure("f", vec![var(Var(0)), var(Var(0)), var(Var(1))]);
/// let c = structure("f", vec![var(Var(0)), var(Var(1)), var(Var(1))]);
/// assert!(is_variant(&a, &b));
/// assert!(!is_variant(&a, &c));
/// ```
pub fn is_variant(t1: &Term, t2: &Term) -> bool {
    canonical_key(t1) == canonical_key(t2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{atom, structure, var, Var};
    use std::sync::Arc;

    #[test]
    fn canonical_renumbers_first_occurrence() {
        let t = structure("f", vec![var(Var(7)), var(Var(2)), var(Var(7))]);
        let c = canonical_key(&t);
        assert_eq!(
            c.term(),
            structure("f", vec![var(Var(0)), var(Var(1)), var(Var(0))])
        );
        assert_eq!(c.num_vars(), 2);
    }

    #[test]
    fn canonicalize_resolves_bindings_first() {
        let mut b = Bindings::new();
        let x = b.fresh_var();
        let y = b.fresh_var();
        b.bind(x, atom("a"));
        let t = structure("f", vec![var(x), var(y)]);
        let c = canonicalize(&b, &[t]);
        assert_eq!(c.term(), structure("f", vec![atom("a"), var(Var(0))]));
    }

    #[test]
    fn variant_is_reflexive_and_respects_sharing() {
        let t = structure("f", vec![var(Var(5)), var(Var(5))]);
        assert!(is_variant(&t, &t));
        let u = structure("f", vec![var(Var(1)), var(Var(2))]);
        assert!(!is_variant(&t, &u));
    }

    #[test]
    fn tuple_canonicalization_shares_numbering() {
        let b = Bindings::new();
        let c = canonicalize(
            &b,
            &[var(Var(9)), structure("g", vec![var(Var(9)), var(Var(4))])],
        );
        assert_eq!(c.terms()[0], var(Var(0)));
        assert_eq!(c.terms()[1], structure("g", vec![var(Var(0)), var(Var(1))]));
    }

    #[test]
    fn canonicalize2_matches_concatenation() {
        let b = Bindings::new();
        let xs = [var(Var(3)), atom("a")];
        let ys = [structure("g", vec![var(Var(3))])];
        let joined: Vec<Term> = xs.iter().chain(ys.iter()).cloned().collect();
        assert_eq!(canonicalize2(&b, &xs, &ys), canonicalize(&b, &joined));
        assert_eq!(canonicalize2(&b, &xs, &[]), canonicalize(&b, &xs));
    }

    #[test]
    fn instantiate_renames_apart() {
        let t = structure("f", vec![var(Var(0)), var(Var(1))]);
        let c = canonical_key(&t);
        let mut b = Bindings::new();
        let _ = b.fresh_var(); // occupy index 0
        let out = c.instantiate(&mut b);
        let vs = out[0].vars();
        assert_eq!(vs.len(), 2);
        assert!(vs.iter().all(|v| v.index() >= 1));
    }

    #[test]
    fn instantiate_shares_ground_subterms() {
        let t = structure("f", vec![structure("g", vec![atom("a")]), var(Var(0))]);
        let c = canonical_key(&t);
        let mut b = Bindings::new();
        let o1 = c.instantiate(&mut b);
        let o2 = c.instantiate(&mut b);
        // Ground args come from the arena cache: same Arc allocation.
        match (&o1[0], &o2[0]) {
            (Term::Struct(_, a1), Term::Struct(_, a2)) => {
                match (&a1[0], &a2[0]) {
                    (Term::Struct(_, g1), Term::Struct(_, g2)) => {
                        assert!(Arc::ptr_eq(g1, g2));
                    }
                    other => panic!("unexpected shape {other:?}"),
                }
                // Non-ground parts are renamed apart per instantiation.
                assert_ne!(a1[1], a2[1]);
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn ground_terms_canonicalize_to_themselves() {
        let t = structure("f", vec![atom("a"), atom("b")]);
        let c = canonical_key(&t);
        assert_eq!(c.term(), t);
        assert_eq!(c.num_vars(), 0);
    }

    #[test]
    fn heap_bytes_match_unshared_term_estimate() {
        let t = structure("f", vec![atom("a"), structure("g", vec![var(Var(1))])]);
        let c = canonical_key(&t);
        assert_eq!(c.heap_bytes(), t.heap_bytes());
    }

    #[test]
    fn canonical_forms_work_as_hash_keys() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(canonical_key(&structure("f", vec![var(Var(3))])));
        assert!(set.contains(&canonical_key(&structure("f", vec![var(Var(8))]))));
        assert!(!set.contains(&canonical_key(&structure("f", vec![atom("a")]))));
    }

    #[test]
    fn copy_handles_compare_in_constant_size() {
        // The handle itself is small regardless of term size.
        assert!(std::mem::size_of::<CanonicalTerm>() <= 24);
        let c = canonical_key(&structure("f", vec![atom("a")]));
        let d = c; // Copy, no clone needed
        assert_eq!(c, d);
    }
}
