//! Patterns: the left-hand side of reaction rules.
//!
//! A rule LHS is a sequence of patterns, each consuming exactly one atom of
//! the solution the rule fires in. Inside subsolution patterns, an ω ("rest")
//! variable may capture *all remaining* atoms — this is the paper's `ω`,
//! `ωSRC`, `ωIN`, … notation.

use crate::atom::{Atom, Shape};
use crate::bindings::Var;
use crate::symbol::Symbol;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A pattern matching exactly one atom.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub enum Pattern {
    /// Matches any single atom without binding it.
    Any,
    /// Binds one atom to a variable. A repeated variable must match equal
    /// atoms (non-linear patterns, used by `gw_pass` to correlate `Ti`
    /// across molecules).
    Var(Var),
    /// Matches an atom structurally equal to the literal.
    Lit(Atom),
    /// Matches a tuple of the same arity, element-wise.
    Tuple(Vec<Pattern>),
    /// Matches a subsolution: each element pattern consumes one distinct
    /// inner atom; the optional rest variable captures what is left.
    Sub(SubPattern),
    /// Matches a list of exactly the given element patterns.
    List(Vec<Pattern>),
    /// Matches a rule atom by rule name (higher order: this is how the
    /// paper's `clean` rule grabs `max`).
    RuleNamed(String),
    /// Matches one atom of the given shape class and binds it.
    Typed(Var, TypeTag),
}

/// Subsolution pattern body.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct SubPattern {
    /// Patterns each consuming one distinct atom of the subsolution.
    pub elems: Vec<Pattern>,
    /// ω variable capturing the remaining atoms (possibly none). `None`
    /// means the subsolution must contain *exactly* the `elems`.
    pub rest: Option<Var>,
}

/// Type constraint for [`Pattern::Typed`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TypeTag {
    /// Integer atoms.
    Int,
    /// Float atoms.
    Float,
    /// String atoms.
    Str,
    /// Boolean atoms.
    Bool,
    /// Symbol atoms.
    Sym,
    /// Subsolution atoms.
    Sub,
    /// List atoms.
    List,
}

impl TypeTag {
    /// Does `atom` belong to this type class?
    pub fn admits(self, atom: &Atom) -> bool {
        matches!(
            (self, atom),
            (TypeTag::Int, Atom::Int(_))
                | (TypeTag::Float, Atom::Float(_))
                | (TypeTag::Str, Atom::Str(_))
                | (TypeTag::Bool, Atom::Bool(_))
                | (TypeTag::Sym, Atom::Sym(_))
                | (TypeTag::Sub, Atom::Sub(_))
                | (TypeTag::List, Atom::List(_))
        )
    }
}

impl Pattern {
    /// Variable pattern.
    pub fn var(name: impl Into<String>) -> Self {
        Pattern::Var(Var::new(name))
    }

    /// Literal pattern.
    pub fn lit(atom: impl Into<Atom>) -> Self {
        Pattern::Lit(atom.into())
    }

    /// Literal symbol pattern.
    pub fn sym(name: impl AsRef<str>) -> Self {
        Pattern::Lit(Atom::sym(name))
    }

    /// Tuple pattern.
    pub fn tuple(elems: impl IntoIterator<Item = Pattern>) -> Self {
        let v: Vec<Pattern> = elems.into_iter().collect();
        assert!(v.len() >= 2, "a tuple pattern needs at least two elements");
        Pattern::Tuple(v)
    }

    /// Keyed tuple pattern `KEY : p…` — the `SRC : ⟨…⟩` shape.
    pub fn keyed(key: impl AsRef<str>, rest: impl IntoIterator<Item = Pattern>) -> Self {
        Pattern::tuple(std::iter::once(Pattern::sym(key)).chain(rest))
    }

    /// Subsolution pattern with element patterns and an ω rest variable.
    pub fn sub_with_rest(
        elems: impl IntoIterator<Item = Pattern>,
        rest: impl Into<String>,
    ) -> Self {
        Pattern::Sub(SubPattern {
            elems: elems.into_iter().collect(),
            rest: Some(Var::new(rest)),
        })
    }

    /// Subsolution pattern that must match the elements exactly (no rest).
    pub fn sub_exact(elems: impl IntoIterator<Item = Pattern>) -> Self {
        Pattern::Sub(SubPattern {
            elems: elems.into_iter().collect(),
            rest: None,
        })
    }

    /// The empty-subsolution pattern `⟨⟩` — e.g. `SRC : ⟨⟩` in `gw_setup`.
    pub fn empty_sub() -> Self {
        Pattern::sub_exact([])
    }

    /// Subsolution pattern capturing the whole contents: `⟨ω⟩`.
    pub fn sub_rest(rest: impl Into<String>) -> Self {
        Pattern::sub_with_rest([], rest)
    }

    /// A shape pre-filter: if `Some(shape)`, only atoms of that shape can
    /// possibly match, letting the matcher skip candidates cheaply.
    pub fn shape_hint(&self) -> Option<Shape> {
        match self {
            Pattern::Lit(a) => Some(a.shape()),
            Pattern::Tuple(v) => Some(Shape::Tuple(v.len())),
            Pattern::Sub(_) => Some(Shape::Sub),
            Pattern::List(_) => Some(Shape::List),
            Pattern::RuleNamed(_) => Some(Shape::Rule),
            Pattern::Typed(_, tag) => Some(match tag {
                TypeTag::Int => Shape::Int,
                TypeTag::Float => Shape::Float,
                TypeTag::Str => Shape::Str,
                TypeTag::Bool => Shape::Bool,
                TypeTag::Sym => Shape::Sym,
                TypeTag::Sub => Shape::Sub,
                TypeTag::List => Shape::List,
            }),
            Pattern::Any | Pattern::Var(_) => None,
        }
    }

    /// For keyed tuple patterns, the key symbol (`SRC` in `SRC : ⟨…⟩`):
    /// the matcher tries only tuples with this key (see [`crate::matcher`]).
    pub fn key_hint(&self) -> Option<&Symbol> {
        match self {
            Pattern::Tuple(v) => match v.first() {
                Some(Pattern::Lit(Atom::Sym(s))) => Some(s),
                _ => None,
            },
            _ => None,
        }
    }

    /// All variable names bound by this pattern (including ω variables),
    /// appended to `out`.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        self.clone()
            .vars_mut(&mut |v| out.push(v.name().to_owned()));
    }

    /// Visit every variable occurrence in pattern pre-order, an ω rest
    /// after its subsolution's elements (how a rule resolves its slots).
    pub(crate) fn vars_mut(&mut self, f: &mut impl FnMut(&mut Var)) {
        match self {
            Pattern::Var(v) | Pattern::Typed(v, _) => f(v),
            Pattern::Tuple(ps) | Pattern::List(ps) => {
                for p in ps {
                    p.vars_mut(f);
                }
            }
            Pattern::Sub(sp) => {
                for p in &mut sp.elems {
                    p.vars_mut(f);
                }
                if let Some(r) = &mut sp.rest {
                    f(r);
                }
            }
            Pattern::Any | Pattern::Lit(_) | Pattern::RuleNamed(_) => {}
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Any => f.write_str("_"),
            Pattern::Var(v) => write!(f, "?{v}"),
            Pattern::Lit(a) => write!(f, "{a}"),
            Pattern::Tuple(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(":")?;
                    }
                    match p {
                        Pattern::Tuple(_) => write!(f, "({p})")?,
                        _ => write!(f, "{p}")?,
                    }
                }
                Ok(())
            }
            Pattern::Sub(sp) => {
                f.write_str("<")?;
                let mut first = true;
                for p in &sp.elems {
                    if !first {
                        f.write_str(", ")?;
                    }
                    write!(f, "{p}")?;
                    first = false;
                }
                if let Some(r) = &sp.rest {
                    if !first {
                        f.write_str(", ")?;
                    }
                    write!(f, "*{r}")?;
                }
                f.write_str(">")
            }
            Pattern::List(ps) => {
                f.write_str("[")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str("]")
            }
            Pattern::RuleNamed(n) => write!(f, "rule({n})"),
            Pattern::Typed(v, t) => write!(f, "?{v}:{t:?}"),
        }
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hints() {
        let p = Pattern::keyed("SRC", [Pattern::empty_sub()]);
        assert_eq!(p.shape_hint(), Some(Shape::Tuple(2)));
        assert_eq!(p.key_hint().map(Symbol::as_str), Some("SRC"));
        assert_eq!(Pattern::var("x").shape_hint(), None);
        assert_eq!(Pattern::lit(3i64).shape_hint(), Some(Shape::Int));
    }

    #[test]
    fn collect_vars_walks_structure() {
        let p = Pattern::keyed("DST", [Pattern::sub_with_rest([Pattern::var("t")], "rest")]);
        let mut vars = vec![];
        p.collect_vars(&mut vars);
        assert_eq!(vars, vec!["t".to_string(), "rest".to_string()]);
    }

    #[test]
    fn type_tags() {
        assert!(TypeTag::Int.admits(&Atom::int(1)));
        assert!(!TypeTag::Int.admits(&Atom::float(1.0)));
        assert!(TypeTag::Sub.admits(&Atom::empty_sub()));
    }

    #[test]
    fn display_notation() {
        let p = Pattern::keyed("SRC", [Pattern::sub_with_rest([Pattern::var("t")], "w")]);
        assert_eq!(format!("{p}"), "SRC:<?t, *w>");
        assert_eq!(format!("{}", Pattern::empty_sub()), "<>");
    }
}
