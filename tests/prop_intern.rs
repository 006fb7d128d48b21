//! Property tests for the hash-consing arena's intern path.
//!
//! Canonicalizing a tuple *through* a binding store must give exactly what
//! resolving the bindings first and interning the resolved terms gives —
//! the same `TermId`, structural hash, `heap_bytes`, groundness, height and
//! materialized terms — and both must match an independent reference model
//! of the canonical form, whose hash is the arena's documented splitmix
//! formula. Variants must share one id, and interning must be deterministic
//! across fresh arenas.

use proptest::prelude::*;
use std::hash::{BuildHasher, BuildHasherDefault};
use tablog_term::{
    atom, int, structure, var, Bindings, CanonicalTerm, PassThroughHasher, Term, TermArena, Var,
};

/// Variables the generated terms range over.
const NVARS: u32 = 6;

fn arb_term(nvars: u32) -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0..nvars).prop_map(|v| var(Var(v))),
        prop_oneof![Just("a"), Just("b"), Just("[]")].prop_map(atom),
        (-2i64..3).prop_map(int),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        (
            prop_oneof![Just("f"), Just("g"), Just(".")],
            prop::collection::vec(inner, 1..4),
        )
            .prop_map(|(name, args)| structure(name, args))
    })
}

/// A tuple plus a binding for some of its variables. Variable `i` is bound
/// only to a term over variables `> i`, so the bindings are acyclic.
fn arb_bound_tuple() -> impl Strategy<Value = (Vec<Term>, Bindings)> {
    (
        prop::collection::vec(arb_term(NVARS), 0..4),
        prop::collection::vec(arb_term(NVARS), NVARS as usize..NVARS as usize + 1),
        prop::collection::vec(0u32..3, NVARS as usize..NVARS as usize + 1),
    )
        .prop_map(|(ts, values, coins)| {
            let mut b = Bindings::new();
            b.fresh_block(NVARS as usize);
            for (i, (t, coin)) in values.into_iter().zip(coins).enumerate() {
                if coin > 0 && t.vars().iter().all(|v| v.index() > i) {
                    b.bind(Var(i as u32), t);
                }
            }
            (ts, b)
        })
}

/// The hash a `CanonicalTerm` feeds to `Hash`: exactly its cached
/// structural hash, since the pass-through hasher returns the word as is.
fn hash_of(c: &CanonicalTerm) -> u64 {
    BuildHasherDefault::<PassThroughHasher>::default().hash_one(c)
}

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

/// Reference canonical form of an already-resolved tuple: variables
/// renumbered in first-occurrence order, the structural hash, the number
/// of distinct variables, and the struct height.
fn reference(ts: &[Term]) -> (Vec<Term>, u64, usize, usize) {
    fn go(t: &Term, vars: &mut Vec<Var>) -> (Term, u64, usize) {
        match t {
            Term::Var(v) => {
                let n = match vars.iter().position(|w| w == v) {
                    Some(n) => n,
                    None => {
                        vars.push(*v);
                        vars.len() - 1
                    }
                };
                (var(Var(n as u32)), combine(1, n as u64), 0)
            }
            Term::Atom(s) => (t.clone(), combine(2, s.index() as u64), 0),
            Term::Int(i) => (t.clone(), combine(3, *i as u64), 0),
            Term::Struct(s, args) => {
                let mut h = combine(combine(4, s.index() as u64), args.len() as u64);
                let mut height = 0;
                let mut out = Vec::new();
                for a in args.iter() {
                    let (t, ah, aheight) = go(a, vars);
                    h = combine(h, ah);
                    height = height.max(aheight);
                    out.push(t);
                }
                (Term::Struct(*s, out.into()), h, height + 1)
            }
        }
    }
    let mut vars = Vec::new();
    let mut h = combine(5, ts.len() as u64);
    let mut height = 0;
    let mut out = Vec::new();
    for t in ts {
        let (t, th, theight) = go(t, &mut vars);
        h = combine(h, th);
        height = height.max(theight);
        out.push(t);
    }
    (out, h, vars.len(), height)
}

/// Checks one tuple against the reference model in `arena`.
fn check_against_reference(arena: &mut TermArena, b: &Bindings, ts: &[Term]) -> CanonicalTerm {
    let c = arena.canonicalize(b, ts);
    let resolved = b.resolve_all(ts);
    let naive = arena.canonicalize(&Bindings::new(), &resolved);
    prop_assert_eq!(c.root_id(), naive.root_id());
    prop_assert_eq!(hash_of(&c), hash_of(&naive));
    let (terms, hash, nvars, height) = reference(&resolved);
    prop_assert_eq!(arena.terms(&c), terms);
    prop_assert_eq!(hash_of(&c), hash);
    prop_assert_eq!(c.num_vars(), nvars);
    prop_assert_eq!(arena.height(&c), height);
    prop_assert_eq!(
        arena.heap_bytes(&c),
        resolved.iter().map(Term::heap_bytes).sum::<usize>()
    );
    prop_assert_eq!(c.num_vars() == 0, resolved.iter().all(Term::is_ground));
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Interning through bindings equals resolve-then-intern equals the
    /// reference model; instantiate → canonicalize round-trips to the same
    /// id; a split tuple (`canonicalize2`) interns like the whole one.
    #[test]
    fn intern_through_bindings_matches_resolved_round_trip(
        case in arb_bound_tuple(),
        cut in 0usize..5,
    ) {
        let (ts, b) = case;
        let mut arena = TermArena::new();
        let c = check_against_reference(&mut arena, &b, &ts);

        let mut b2 = Bindings::new();
        b2.fresh_block(3);
        let inst = arena.instantiate(&c, &mut b2);
        prop_assert_eq!(arena.canonicalize(&b2, &inst), c);

        let (xs, ys) = ts.split_at(cut.min(ts.len()));
        prop_assert_eq!(arena.canonicalize2(&b, xs, ys), c);
    }

    /// Variants — the same tuple under any injective renaming of its
    /// variables — share one id, and interning is deterministic: two fresh
    /// arenas fed the same tuples hand out the same ids and hashes.
    #[test]
    fn variants_share_one_id_and_ids_are_deterministic(
        t1 in prop::collection::vec(arb_term(NVARS), 1..4),
        t2 in prop::collection::vec(arb_term(NVARS), 1..4),
        shift in 1u32..50,
    ) {
        let empty = Bindings::new();
        let renamed: Vec<Term> = t1
            .iter()
            .map(|t| t.map_vars(&mut |v| var(Var(3 * (NVARS - v.0) + shift))))
            .collect();
        let mut a1 = TermArena::new();
        let mut a2 = TermArena::new();
        let c1 = a1.canonicalize(&empty, &t1);
        let d1 = a1.canonicalize(&empty, &t2);
        prop_assert_eq!(a1.canonicalize(&empty, &renamed), c1);
        let c2 = a2.canonicalize(&empty, &t1);
        let d2 = a2.canonicalize(&empty, &t2);
        prop_assert_eq!(c1.root_id(), c2.root_id());
        prop_assert_eq!(d1.root_id(), d2.root_id());
        prop_assert_eq!(hash_of(&c1), hash_of(&c2));
        prop_assert_eq!(a1.stats(), a2.stats());
    }

    /// Wide tuples with many distinct variables take the indexed variable
    /// numbering instead of the linear scan; the result must not differ.
    #[test]
    fn many_variables_number_in_first_occurrence_order(
        picks in prop::collection::vec(0u32..200, 20..120),
    ) {
        let args: Vec<Term> = picks
            .iter()
            .map(|&p| if p % 7 == 0 { atom("a") } else { var(Var(p)) })
            .collect();
        let ts = [structure("w", args.clone()), structure("g", args)];
        let mut arena = TermArena::new();
        check_against_reference(&mut arena, &Bindings::new(), &ts);
    }
}
