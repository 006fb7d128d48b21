//! First-order terms for the `tablog` system.
//!
//! This crate provides the Herbrand-term infrastructure shared by every other
//! layer of the system: interned [`Sym`]bols, the [`Term`] representation,
//! a [`Bindings`] store with a backtrackable trail, [`unify`]cation (with and
//! without occur check), and *variant* canonicalization — the operation at
//! the heart of XSB-style tabling, where a call or answer is looked up in a
//! table modulo consistent renaming of variables.
//!
//! # Example
//!
//! ```
//! use tablog_term::{atom, var, structure, Bindings, unify};
//!
//! let mut b = Bindings::new();
//! let x = b.fresh_var();
//! let y = b.fresh_var();
//! // f(X, a)  ~  f(b, Y)
//! let t1 = structure("f", vec![var(x), atom("a")]);
//! let t2 = structure("f", vec![atom("b"), var(y)]);
//! assert!(unify(&mut b, &t1, &t2));
//! assert_eq!(b.resolve(&var(x)), atom("b"));
//! assert_eq!(b.resolve(&var(y)), atom("a"));
//! ```

mod arena;
mod bindings;
mod hashing;
mod symbol;
mod term;
mod unify;
mod variant;

pub use arena::{arena_stats, charge_shared_bytes, ArenaStats, TermArena, TermId};
pub use bindings::{Bindings, TrailMark};
pub use hashing::{BuildMulHasher, FastMap, FastSet, MulHasher, PassThroughHasher};
pub use symbol::{intern, sym_name, Sym};
pub use term::{atom, int, structure, var, Functor, Term, Var};
pub use unify::{unify, unify_occurs};
pub use variant::{canonical_key, canonicalize, canonicalize2, is_variant, CanonicalTerm};
