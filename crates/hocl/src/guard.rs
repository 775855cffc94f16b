//! Rule guards (`… if x ≥ y`) and the small expression language they use.

use crate::atom::Atom;
use crate::bindings::{Bound, Lookup};
use crate::error::HoclError;
use crate::externs::{ExternHost, ExternResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An expression evaluated against the bindings of a match attempt.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A literal atom.
    Lit(Atom),
    /// A bound variable (must be a one-atom binding).
    Var(String),
    /// A *pure* external function call producing exactly one atom.
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Literal expression.
    pub fn lit(atom: impl Into<Atom>) -> Self {
        Expr::Lit(atom.into())
    }

    /// Variable reference.
    pub fn var(name: impl Into<String>) -> Self {
        Expr::Var(name.into())
    }

    /// Pure extern call.
    pub fn call(name: impl Into<String>, args: impl IntoIterator<Item = Expr>) -> Self {
        Expr::Call(name.into(), args.into_iter().collect())
    }

    /// Evaluate to a single atom.
    pub fn eval(
        &self,
        bindings: &dyn Lookup,
        host: &mut dyn ExternHost,
    ) -> Result<Atom, HoclError> {
        match self {
            Expr::Lit(a) => Ok(a.clone()),
            Expr::Var(name) => match bindings.lookup(name) {
                Some(Bound::One(a)) => Ok(a.clone()),
                Some(Bound::Rest(_)) => Err(HoclError::OmegaInExpr(name.clone())),
                None => Err(HoclError::UnboundVar(name.clone())),
            },
            Expr::Call(name, args) => {
                let mut atoms = Vec::with_capacity(args.len());
                for a in args {
                    atoms.push(a.eval(bindings, host)?);
                }
                match host.call(name, &atoms)? {
                    ExternResult::Atoms(mut out) => {
                        if out.len() == 1 {
                            Ok(out.pop().expect("len checked"))
                        } else {
                            Err(HoclError::ExternArity {
                                name: name.clone(),
                                got: out.len(),
                            })
                        }
                    }
                    ExternResult::Deferred => Err(HoclError::DeferredInGuard(name.clone())),
                }
            }
        }
    }
}

/// Comparison operators available in guards.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equality (structural).
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less (numeric or string).
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
}

/// A guard condition on a rule.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub enum Guard {
    /// Always true (rules without an `if`).
    True,
    /// Binary comparison between two expressions.
    Cmp(CmpOp, Expr, Expr),
    /// Conjunction.
    And(Box<Guard>, Box<Guard>),
    /// Disjunction.
    Or(Box<Guard>, Box<Guard>),
    /// Negation.
    Not(Box<Guard>),
    /// Pure extern predicate: must evaluate to a boolean atom.
    Pred(String, Vec<Expr>),
}

impl Guard {
    /// `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Self {
        Guard::Cmp(CmpOp::Eq, a, b)
    }

    /// `a != b`.
    pub fn ne(a: Expr, b: Expr) -> Self {
        Guard::Cmp(CmpOp::Ne, a, b)
    }

    /// `a >= b`.
    pub fn ge(a: Expr, b: Expr) -> Self {
        Guard::Cmp(CmpOp::Ge, a, b)
    }

    /// `a > b`.
    pub fn gt(a: Expr, b: Expr) -> Self {
        Guard::Cmp(CmpOp::Gt, a, b)
    }

    /// `a <= b`.
    pub fn le(a: Expr, b: Expr) -> Self {
        Guard::Cmp(CmpOp::Le, a, b)
    }

    /// `a < b`.
    pub fn lt(a: Expr, b: Expr) -> Self {
        Guard::Cmp(CmpOp::Lt, a, b)
    }

    /// Conjunction of two guards.
    pub fn and(a: Guard, b: Guard) -> Self {
        Guard::And(Box::new(a), Box::new(b))
    }

    /// Evaluate the guard under the given bindings.
    pub fn eval(
        &self,
        bindings: &dyn Lookup,
        host: &mut dyn ExternHost,
    ) -> Result<bool, HoclError> {
        match self {
            Guard::True => Ok(true),
            Guard::Cmp(op, a, b) => {
                let (va, vb) = (a.eval(bindings, host)?, b.eval(bindings, host)?);
                Ok(compare(*op, &va, &vb))
            }
            Guard::And(a, b) => Ok(a.eval(bindings, host)? && b.eval(bindings, host)?),
            Guard::Or(a, b) => Ok(a.eval(bindings, host)? || b.eval(bindings, host)?),
            Guard::Not(g) => Ok(!g.eval(bindings, host)?),
            Guard::Pred(name, args) => {
                let mut atoms = Vec::with_capacity(args.len());
                for a in args {
                    atoms.push(a.eval(bindings, host)?);
                }
                match host.call(name, &atoms)? {
                    ExternResult::Atoms(out) => match out.as_slice() {
                        [Atom::Bool(b)] => Ok(*b),
                        _ => Err(HoclError::PredicateNotBool(name.clone())),
                    },
                    ExternResult::Deferred => Err(HoclError::DeferredInGuard(name.clone())),
                }
            }
        }
    }
}

/// Structural/numeric comparison semantics:
/// * `Eq`/`Ne` compare any two atoms structurally;
/// * ordering operators work on numbers (Int/Float mixed, promoted to f64)
///   and on strings/symbols lexicographically; any other combination simply
///   does not hold (no panic: a chemical match just fails).
fn compare(op: CmpOp, a: &Atom, b: &Atom) -> bool {
    use std::cmp::Ordering;
    let ord: Option<Ordering> = match (a, b) {
        (Atom::Int(x), Atom::Int(y)) => Some(x.cmp(y)),
        (Atom::Float(x), Atom::Float(y)) => x.partial_cmp(y),
        (Atom::Int(x), Atom::Float(y)) => (*x as f64).partial_cmp(y),
        (Atom::Float(x), Atom::Int(y)) => x.partial_cmp(&(*y as f64)),
        (Atom::Str(x), Atom::Str(y)) => Some(x.cmp(y)),
        (Atom::Sym(x), Atom::Sym(y)) => Some(x.cmp(y)),
        _ => None,
    };
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => ord == Some(std::cmp::Ordering::Less),
        CmpOp::Le => matches!(
            ord,
            Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Equal)
        ),
        CmpOp::Gt => ord == Some(std::cmp::Ordering::Greater),
        CmpOp::Ge => matches!(
            ord,
            Some(std::cmp::Ordering::Greater) | Some(std::cmp::Ordering::Equal)
        ),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(a) => write!(f, "{a}"),
            Expr::Var(v) => write!(f, "?{v}"),
            Expr::Call(n, args) => {
                write!(f, "{n}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guard::True => f.write_str("true"),
            Guard::Cmp(op, a, b) => {
                let s = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                write!(f, "{a} {s} {b}")
            }
            Guard::And(a, b) => write!(f, "({a} && {b})"),
            Guard::Or(a, b) => write!(f, "({a} || {b})"),
            Guard::Not(g) => write!(f, "!({g})"),
            Guard::Pred(n, args) => {
                write!(f, "{n}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::Bindings;
    use crate::externs::NoExterns;

    fn bound(pairs: &[(&str, Atom)]) -> Bindings {
        let mut b = Bindings::new();
        for (k, v) in pairs {
            assert!(b.bind_one(k, v.clone()));
        }
        b
    }

    #[test]
    fn numeric_comparisons() {
        let b = bound(&[("x", Atom::int(9)), ("y", Atom::int(8))]);
        let g = Guard::ge(Expr::var("x"), Expr::var("y"));
        assert!(g.eval(&b, &mut NoExterns).unwrap());
        let g = Guard::lt(Expr::var("x"), Expr::var("y"));
        assert!(!g.eval(&b, &mut NoExterns).unwrap());
    }

    #[test]
    fn mixed_int_float() {
        let b = bound(&[("x", Atom::int(2)), ("y", Atom::float(2.5))]);
        assert!(Guard::lt(Expr::var("x"), Expr::var("y"))
            .eval(&b, &mut NoExterns)
            .unwrap());
    }

    #[test]
    fn incomparable_types_never_order() {
        let b = bound(&[("x", Atom::int(1)), ("y", Atom::str("a"))]);
        assert!(!Guard::lt(Expr::var("x"), Expr::var("y"))
            .eval(&b, &mut NoExterns)
            .unwrap());
        assert!(!Guard::ge(Expr::var("x"), Expr::var("y"))
            .eval(&b, &mut NoExterns)
            .unwrap());
        // But (in)equality is total.
        assert!(Guard::ne(Expr::var("x"), Expr::var("y"))
            .eval(&b, &mut NoExterns)
            .unwrap());
    }

    #[test]
    fn boolean_connectives() {
        let b = bound(&[("x", Atom::int(1))]);
        let t = Guard::eq(Expr::var("x"), Expr::lit(1i64));
        let f = Guard::eq(Expr::var("x"), Expr::lit(2i64));
        assert!(Guard::and(t.clone(), Guard::Not(Box::new(f.clone())))
            .eval(&b, &mut NoExterns)
            .unwrap());
        assert!(Guard::Or(Box::new(f.clone()), Box::new(t.clone()))
            .eval(&b, &mut NoExterns)
            .unwrap());
        assert!(!Guard::and(t, f).eval(&b, &mut NoExterns).unwrap());
    }

    #[test]
    fn unbound_and_omega_errors() {
        let b = Bindings::new();
        let g = Guard::eq(Expr::var("missing"), Expr::lit(1i64));
        assert!(matches!(
            g.eval(&b, &mut NoExterns),
            Err(HoclError::UnboundVar(_))
        ));
        let mut b2 = Bindings::new();
        b2.bind_many("w", vec![]);
        let g2 = Guard::eq(Expr::var("w"), Expr::lit(1i64));
        assert!(matches!(
            g2.eval(&b2, &mut NoExterns),
            Err(HoclError::OmegaInExpr(_))
        ));
    }

    #[test]
    fn symbol_equality_in_guard() {
        let b = bound(&[("e", Atom::sym("ERROR"))]);
        assert!(Guard::eq(Expr::var("e"), Expr::lit(Atom::sym("ERROR")))
            .eval(&b, &mut NoExterns)
            .unwrap());
    }
}
