//! Property tests for the hash-consing arena's intern path.
//!
//! Canonicalizing a tuple *through* a binding store must give exactly what
//! resolving the bindings first and interning the resolved terms gives —
//! the same `TermId`, structural hash, `heap_bytes`, groundness, height and
//! materialized terms — and both must match an independent reference model
//! of the canonical form, whose hash is the arena's documented splitmix
//! formula. Variants must share one id, and interning must be deterministic
//! across fresh arenas. Canonicalizing a resolvent straight from a node's
//! arena ids must give exactly what instantiating the node and
//! canonicalizing the instantiated terms gives, id for id.

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

/// A canonical tuple to resolve: one to three small members, or a wide
/// member over more than 32 distinct variables (the indexed numbering).
fn arb_node_tuple() -> impl Strategy<Value = Vec<Term>> {
    let narrow = prop::collection::vec(arb_term(NVARS), 1..4);
    let wide = (
        prop::collection::vec(0u32..60, 0..30),
        prop::collection::vec(arb_term(NVARS), 0..2),
    )
        .prop_map(|(picks, mut rest)| {
            // Every variable 0..35 occurs, interleaved with repeats.
            let args = (0..35).chain(picks).map(|v| var(Var(v))).collect();
            rest.insert(0, structure("w", args));
            rest
        });
    prop_oneof![narrow.clone(), narrow, wide]
}

/// How one variable of the binding store is bound.
#[derive(Clone, Debug)]
enum Bind {
    Free,
    /// To a term over strictly later variables (non-ground, or ground when
    /// the term has no variables).
    Term(Term),
    /// To a ground term.
    Ground(Term),
    /// To a later variable: binding chains.
    Chain(u32),
    /// To `f(V, V)` for a later `V`: repeated variables.
    Repeat(u32),
}

/// Upper bound on the variables of one case's binding store.
const MAX_STORE: usize = 80;

fn arb_binds() -> impl Strategy<Value = Vec<Bind>> {
    let bind = prop_oneof![
        Just(Bind::Free),
        Just(Bind::Free),
        arb_term(NVARS).prop_map(Bind::Term),
        arb_term(NVARS).prop_map(Bind::Ground),
        (0u32..1000).prop_map(Bind::Chain),
        (0u32..1000).prop_map(Bind::Repeat),
    ];
    prop::collection::vec(bind, MAX_STORE..MAX_STORE + 1)
}

/// One resolvent to canonicalize: the node's tuple, variables allocated
/// before the node's block, the selected position, the new goals and the
/// bindings.
type ResolventCase = (Vec<Term>, u32, usize, Vec<Term>, Vec<Bind>);

fn arb_resolvent() -> impl Strategy<Value = ResolventCase> {
    (
        arb_node_tuple(),
        0u32..3,
        0usize..8,
        prop::collection::vec(arb_term(12), 0..3),
        arb_binds(),
    )
}

/// Instantiates `c` after `offset` unrelated variables plus six fresh ones
/// for the goals, and applies `binds`: variable `i` is only ever bound to a
/// term over variables `> i`, so the store is acyclic. Returns the store,
/// the node's first variable, its instantiation and the goals over the
/// store's variables.
fn bind_case(
    arena: &TermArena,
    c: &CanonicalTerm,
    offset: u32,
    goals: &[Term],
    binds: &[Bind],
) -> (Bindings, Var, Vec<Term>, Vec<Term>) {
    let mut b = Bindings::new();
    b.fresh_block(offset as usize);
    let base = Var(b.len() as u32);
    let inst = arena.instantiate(c, &mut b);
    b.fresh_block(6);
    let n = b.len() as u32;
    assert!(n as usize <= MAX_STORE);
    let onto = |t: &Term, lo: u32| t.map_vars(&mut |v| var(Var(lo + v.0 % (n - lo))));
    let goals = goals.iter().map(|g| onto(g, 0)).collect();
    for (i, bind) in binds.iter().take(n as usize).enumerate() {
        let (i, later) = (i as u32, i as u32 + 1);
        if later == n {
            break;
        }
        let value = match bind {
            Bind::Free => continue,
            Bind::Term(t) => onto(t, later),
            Bind::Ground(t) => t.map_vars(&mut |_| atom("g")),
            Bind::Chain(j) => var(Var(later + j % (n - later))),
            Bind::Repeat(j) => {
                let v = var(Var(later + j % (n - later)));
                structure("f", vec![v.clone(), v])
            }
        };
        b.bind(Var(i), value);
    }
    (b, base, inst, goals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The id-level resolvent walk equals instantiating the node and
    /// canonicalizing `inst[..split] ++ goals ++ inst[split + 1..]` — root
    /// id, variable count and hash — and the reference model; instantiating
    /// only the selected member gives that member. Two fresh arenas fed the
    /// same sequence, one each way, mint identical ids.
    #[test]
    fn resolvent_from_ids_matches_instantiate_then_canonicalize(
        cases in prop::collection::vec(arb_resolvent(), 1..4),
    ) {
        let empty = Bindings::new();
        let mut by_ids = TermArena::new();
        let mut by_terms = TermArena::new();
        for (ts, offset, pick, goals, binds) in &cases {
            let c = by_ids.canonicalize(&empty, ts);
            let c2 = by_terms.canonicalize(&empty, ts);
            prop_assert_eq!(c.root_id(), c2.root_id());
            let split = pick % (ts.len() + 1);
            let (b, base, inst, goals) = bind_case(&by_ids, &c, *offset, goals, binds);

            if split < inst.len() {
                let mut b2 = Bindings::new();
                b2.fresh_block(*offset as usize);
                let (member, base2) = by_ids.instantiate_member(&c, split, &mut b2);
                prop_assert_eq!(base2, base);
                prop_assert_eq!(&member, &inst[split]);
                prop_assert_eq!(b2.len(), base.index() + c.num_vars());
            }

            let r = by_ids.canonicalize_resolvent(&b, &c, base, split, &goals);
            let tail: Vec<Term> = goals
                .iter()
                .chain(inst.get(split + 1..).unwrap_or_default())
                .cloned()
                .collect();
            let r2 = by_terms.canonicalize2(&b, &inst[..split], &tail);
            prop_assert_eq!(r.root_id(), r2.root_id());
            prop_assert_eq!(r.num_vars(), r2.num_vars());
            prop_assert_eq!(hash_of(&r), hash_of(&r2));
            prop_assert_eq!(by_ids.stats(), by_terms.stats());

            // Both ways agree within one arena and with the reference.
            prop_assert_eq!(by_ids.canonicalize2(&b, &inst[..split], &tail), r);
            let whole: Vec<Term> = inst[..split].iter().chain(&tail).cloned().collect();
            prop_assert_eq!(check_against_reference(&mut by_ids, &b, &whole), r);
            check_against_reference(&mut by_terms, &b, &whole);
        }
    }

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
