//! Atoms — the molecules floating in a chemical solution.
//!
//! An atom is either *simple* (number, string, boolean, symbol, rule) or
//! *structured*: a tuple `A : B : C` (ordered), a subsolution `⟨A, B, C⟩`
//! (an inner multiset), or — HOCLflow extension — a list `[A, B, C]`.

use crate::multiset::{Census, Multiset};
use crate::rule::Rule;
use crate::symbol::Symbol;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A single element of a chemical solution.
///
/// `Atom` is cheap to clone for the common cases: symbols and rules are
/// reference-counted, and the structured variants clone their children.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub enum Atom {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is not a meaningful chemical value; comparisons
    /// involving `NaN` simply never match.
    Float(f64),
    /// UTF-8 string datum.
    Str(String),
    /// Boolean datum.
    Bool(bool),
    /// Identifier: task names (`T1`), reserved keywords (`SRC`), service
    /// names (`s2`), tokens (`ADAPT`).
    Sym(Symbol),
    /// Ordered tuple `A : B : C` (at least two elements).
    Tuple(Vec<Atom>),
    /// Subsolution `⟨…⟩`: a multiset nested inside the solution.
    Sub(Multiset),
    /// HOCLflow list `[…]` (ordered, variable length).
    List(Vec<Atom>),
    /// A reaction rule — rules are first-class citizens (higher order).
    Rule(Arc<Rule>),
}

impl Atom {
    /// Integer atom.
    pub fn int(v: i64) -> Self {
        Atom::Int(v)
    }

    /// Float atom.
    pub fn float(v: f64) -> Self {
        Atom::Float(v)
    }

    /// String atom.
    pub fn str(v: impl Into<String>) -> Self {
        Atom::Str(v.into())
    }

    /// Boolean atom.
    pub fn bool(v: bool) -> Self {
        Atom::Bool(v)
    }

    /// Symbol atom.
    pub fn sym(v: impl AsRef<str>) -> Self {
        Atom::Sym(Symbol::new(v))
    }

    /// Tuple atom `a : b : …`. Panics if fewer than two elements — a
    /// one-element tuple is just that element in HOCL.
    pub fn tuple(elems: impl IntoIterator<Item = Atom>) -> Self {
        let v: Vec<Atom> = elems.into_iter().collect();
        assert!(v.len() >= 2, "a tuple needs at least two elements");
        Atom::Tuple(v)
    }

    /// Keyed tuple `KEY : a : …` — convenience for the `SRC : ⟨…⟩` shape.
    pub fn keyed(key: impl AsRef<str>, rest: impl IntoIterator<Item = Atom>) -> Self {
        let mut v = vec![Atom::sym(key)];
        v.extend(rest);
        Atom::tuple(v)
    }

    /// Subsolution atom from an iterator of atoms.
    pub fn sub(elems: impl IntoIterator<Item = Atom>) -> Self {
        Atom::Sub(Multiset::from_iter(elems))
    }

    /// Empty subsolution `⟨⟩`.
    pub fn empty_sub() -> Self {
        Atom::Sub(Multiset::new())
    }

    /// List atom.
    pub fn list(elems: impl IntoIterator<Item = Atom>) -> Self {
        Atom::List(elems.into_iter().collect())
    }

    /// Rule atom.
    pub fn rule(rule: Rule) -> Self {
        Atom::Rule(Arc::new(rule))
    }

    /// Rule atom from an already-shared rule.
    pub fn rule_arc(rule: Arc<Rule>) -> Self {
        Atom::Rule(rule)
    }

    /// Is this an integer?
    pub fn is_int(&self) -> bool {
        matches!(self, Atom::Int(_))
    }

    /// Is this a rule?
    pub fn is_rule(&self) -> bool {
        matches!(self, Atom::Rule(_))
    }

    /// Is this a subsolution?
    pub fn is_sub(&self) -> bool {
        matches!(self, Atom::Sub(_))
    }

    /// View as symbol, if it is one.
    pub fn as_sym(&self) -> Option<&Symbol> {
        match self {
            Atom::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// View as integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Atom::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// View as string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Atom::Str(s) => Some(s),
            _ => None,
        }
    }

    /// View as tuple elements, if it is a tuple.
    pub fn as_tuple(&self) -> Option<&[Atom]> {
        match self {
            Atom::Tuple(v) => Some(v),
            _ => None,
        }
    }

    /// View as subsolution, if it is one.
    pub fn as_sub(&self) -> Option<&Multiset> {
        match self {
            Atom::Sub(ms) => Some(ms),
            _ => None,
        }
    }

    /// View as rule, if it is one.
    pub fn as_rule(&self) -> Option<&Arc<Rule>> {
        match self {
            Atom::Rule(r) => Some(r),
            _ => None,
        }
    }

    /// For tuples whose first element is a symbol, that symbol (the "key" of
    /// shapes like `SRC : ⟨…⟩`). Used by the matcher's shape pre-filter.
    pub fn tuple_key(&self) -> Option<&Symbol> {
        match self {
            Atom::Tuple(v) => v.first().and_then(|a| a.as_sym()),
            _ => None,
        }
    }

    /// A coarse shape discriminant used to pre-filter match candidates.
    pub fn shape(&self) -> Shape {
        match self {
            Atom::Int(_) => Shape::Int,
            Atom::Float(_) => Shape::Float,
            Atom::Str(_) => Shape::Str,
            Atom::Bool(_) => Shape::Bool,
            Atom::Sym(_) => Shape::Sym,
            Atom::Tuple(v) => Shape::Tuple(v.len()),
            Atom::Sub(_) => Shape::Sub,
            Atom::List(_) => Shape::List,
            Atom::Rule(_) => Shape::Rule,
        }
    }

    /// Total number of atoms in this molecule, counting nested structure.
    /// Used by the simulator's matching-cost model. Walks tuples and lists
    /// but stops at subsolutions, which carry their own count.
    pub fn weight(&self) -> usize {
        self.census().weight as usize
    }

    /// Does a subsolution somewhere inside this molecule hold a rule? Only
    /// then can reducing the molecule's children change anything.
    pub(crate) fn holds_rule(&self) -> bool {
        match self {
            Atom::Sub(ms) => ms.rule_count() > 0,
            Atom::Tuple(v) | Atom::List(v) => v.iter().any(Atom::holds_rule),
            _ => false,
        }
    }

    /// Weight and rule count of this molecule (see [`Census`]).
    pub(crate) fn census(&self) -> Census {
        match self {
            Atom::Tuple(v) | Atom::List(v) => v.iter().fold(Census::LEAF, |c, a| c + a.census()),
            Atom::Sub(ms) => Census::LEAF + ms.census(),
            Atom::Rule(_) => Census::RULE,
            _ => Census::LEAF,
        }
    }
}

/// Coarse structural discriminant of an atom (see [`Atom::shape`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Integer.
    Int,
    /// Float.
    Float,
    /// String.
    Str,
    /// Boolean.
    Bool,
    /// Symbol.
    Sym,
    /// Tuple of the given arity.
    Tuple(usize),
    /// Subsolution.
    Sub,
    /// List.
    List,
    /// Rule.
    Rule,
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Debug mirrors the chemical notation; it is what test assertions show.
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Int(v) => write!(f, "{v}"),
            Atom::Float(v) => write!(f, "{v}"),
            Atom::Str(s) => write!(f, "{s:?}"),
            Atom::Bool(b) => write!(f, "{b}"),
            Atom::Sym(s) => write!(f, "{s}"),
            Atom::Tuple(v) => {
                for (i, a) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(":")?;
                    }
                    // Parenthesise nested tuples to keep the notation unambiguous.
                    match a {
                        Atom::Tuple(_) => write!(f, "({a})")?,
                        _ => write!(f, "{a}")?,
                    }
                }
                Ok(())
            }
            Atom::Sub(ms) => {
                f.write_str("<")?;
                for (i, a) in ms.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(">")
            }
            Atom::List(v) => {
                f.write_str("[")?;
                for (i, a) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str("]")
            }
            Atom::Rule(r) => write!(f, "{}", r.name()),
        }
    }
}

impl From<i64> for Atom {
    fn from(v: i64) -> Self {
        Atom::Int(v)
    }
}

impl From<f64> for Atom {
    fn from(v: f64) -> Self {
        Atom::Float(v)
    }
}

impl From<&str> for Atom {
    fn from(v: &str) -> Self {
        Atom::Str(v.to_owned())
    }
}

impl From<String> for Atom {
    fn from(v: String) -> Self {
        Atom::Str(v)
    }
}

impl From<bool> for Atom {
    fn from(v: bool) -> Self {
        Atom::Bool(v)
    }
}

impl From<Symbol> for Atom {
    fn from(v: Symbol) -> Self {
        Atom::Sym(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_views() {
        assert_eq!(Atom::int(3).as_int(), Some(3));
        assert_eq!(Atom::sym("SRC").as_sym().unwrap().as_str(), "SRC");
        assert_eq!(Atom::str("hello").as_str(), Some("hello"));
        let t = Atom::keyed("SRC", [Atom::empty_sub()]);
        assert_eq!(t.tuple_key().unwrap().as_str(), "SRC");
        assert!(Atom::empty_sub().as_sub().unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tuple_arity_enforced() {
        let _ = Atom::tuple([Atom::int(1)]);
    }

    #[test]
    fn display_notation() {
        let a = Atom::keyed("SRC", [Atom::sub([Atom::sym("T1"), Atom::sym("T2")])]);
        assert_eq!(format!("{a}"), "SRC:<T1, T2>");
        let l = Atom::list([Atom::int(1), Atom::int(2)]);
        assert_eq!(format!("{l}"), "[1, 2]");
        let nested = Atom::tuple([Atom::sym("A"), Atom::tuple([Atom::int(1), Atom::int(2)])]);
        assert_eq!(format!("{nested}"), "A:(1:2)");
    }

    #[test]
    fn shape_prefilter() {
        assert_eq!(Atom::int(1).shape(), Shape::Int);
        assert_eq!(Atom::keyed("K", [Atom::int(1)]).shape(), Shape::Tuple(2));
        assert_ne!(Atom::int(1).shape(), Atom::float(1.0).shape());
    }

    /// The census rides along for free: a subsolution atom is no bigger
    /// than a tuple atom, so every solution keeps its memory footprint.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn census_does_not_grow_the_atom() {
        assert_eq!(std::mem::size_of::<Multiset>(), 32);
        assert_eq!(std::mem::size_of::<Atom>(), 32);
    }

    #[test]
    fn weight_counts_nested_atoms() {
        assert_eq!(Atom::int(1).weight(), 1);
        let a = Atom::keyed("SRC", [Atom::sub([Atom::sym("T1")])]);
        // tuple + SRC + sub + T1
        assert_eq!(a.weight(), 4);
    }

    #[test]
    fn equality_is_structural() {
        let a = Atom::sub([Atom::int(1), Atom::sym("X")]);
        let b = Atom::sub([Atom::int(1), Atom::sym("X")]);
        assert_eq!(a, b);
        // Multisets are order-insensitive.
        let c = Atom::sub([Atom::sym("X"), Atom::int(1)]);
        assert_eq!(a, c);
        // …but lists are ordered.
        assert_ne!(
            Atom::list([Atom::int(1), Atom::int(2)]),
            Atom::list([Atom::int(2), Atom::int(1)])
        );
    }

    #[test]
    fn serde_roundtrip() {
        let a = Atom::keyed("RES", [Atom::sub([Atom::str("out"), Atom::float(2.5)])]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Atom = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
