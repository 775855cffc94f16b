//! Rule guards (`… if x ≥ y`) and the small expression language they use.

use crate::atom::Atom;
use crate::bindings::{Bound, Lookup, Var};
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
    Var(Var),
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
        Expr::Var(Var::new(name))
    }

    /// Pure extern call.
    pub fn call(name: impl Into<String>, args: impl IntoIterator<Item = Expr>) -> Self {
        Expr::Call(name.into(), args.into_iter().collect())
    }

    /// Visit every variable reference (how a rule resolves its slots).
    pub(crate) fn vars_mut(&mut self, f: &mut impl FnMut(&mut Var)) {
        match self {
            Expr::Lit(_) => {}
            Expr::Var(v) => f(v),
            Expr::Call(_, args) => args.iter_mut().for_each(|a| a.vars_mut(f)),
        }
    }

    /// Evaluate to a single atom.
    pub fn eval(
        &self,
        bindings: &dyn Lookup,
        host: &mut dyn ExternHost,
    ) -> Result<Atom, HoclError> {
        match self {
            Expr::Lit(a) => Ok(a.clone()),
            Expr::Var(var) => match bindings.lookup(var) {
                Some(Bound::One(a)) => Ok(a.clone()),
                Some(Bound::Rest(_)) => Err(HoclError::OmegaInExpr(var.name().to_owned())),
                None => Err(HoclError::UnboundVar(var.name().to_owned())),
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

    /// Visit every variable reference (how a rule resolves its slots).
    pub(crate) fn vars_mut(&mut self, f: &mut impl FnMut(&mut Var)) {
        match self {
            Guard::True => {}
            Guard::Cmp(_, a, b) => {
                a.vars_mut(f);
                b.vars_mut(f);
            }
            Guard::And(a, b) | Guard::Or(a, b) => {
                a.vars_mut(f);
                b.vars_mut(f);
            }
            Guard::Not(g) => g.vars_mut(f),
            Guard::Pred(_, args) => args.iter_mut().for_each(|a| a.vars_mut(f)),
        }
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
    use crate::bindings::{Binding, Bindings};
    use crate::externs::NoExterns;
    use crate::multiset::Multiset;

    /// Evaluate `g` with the variables of `pairs` bound, their slots
    /// resolved the way a rule resolves them (a name `pairs` lacks gets a
    /// slot of its own and stays unbound).
    fn eval(mut g: Guard, pairs: &[(&str, Binding)]) -> Result<bool, HoclError> {
        let mut names: Vec<String> = pairs.iter().map(|(k, _)| (*k).to_owned()).collect();
        g.vars_mut(&mut |v| v.resolve(&mut names));
        let mut b = Bindings::default();
        b.reset(names.len());
        for (slot, (_, v)) in pairs.iter().enumerate() {
            match v {
                Binding::One(a) => assert!(b.bind_one(slot, a.clone())),
                Binding::Many(ms) => assert!(b.bind_many(slot, ms.clone())),
            }
        }
        g.eval(&b, &mut NoExterns)
    }

    fn one(name: &str, atom: Atom) -> (&str, Binding) {
        (name, Binding::One(atom))
    }

    #[test]
    fn numeric_comparisons() {
        let b = [one("x", Atom::int(9)), one("y", Atom::int(8))];
        assert!(eval(Guard::ge(Expr::var("x"), Expr::var("y")), &b).unwrap());
        assert!(!eval(Guard::lt(Expr::var("x"), Expr::var("y")), &b).unwrap());
        // Slots follow the order names are met in, not the guard's.
        assert!(eval(Guard::le(Expr::var("y"), Expr::var("x")), &b).unwrap());
    }

    #[test]
    fn mixed_int_float() {
        let b = [one("x", Atom::int(2)), one("y", Atom::float(2.5))];
        assert!(eval(Guard::lt(Expr::var("x"), Expr::var("y")), &b).unwrap());
    }

    #[test]
    fn incomparable_types_never_order() {
        let b = [one("x", Atom::int(1)), one("y", Atom::str("a"))];
        assert!(!eval(Guard::lt(Expr::var("x"), Expr::var("y")), &b).unwrap());
        assert!(!eval(Guard::ge(Expr::var("x"), Expr::var("y")), &b).unwrap());
        // But (in)equality is total.
        assert!(eval(Guard::ne(Expr::var("x"), Expr::var("y")), &b).unwrap());
    }

    #[test]
    fn boolean_connectives() {
        let b = [one("x", Atom::int(1))];
        let t = Guard::eq(Expr::var("x"), Expr::lit(1i64));
        let f = Guard::eq(Expr::var("x"), Expr::lit(2i64));
        assert!(eval(Guard::and(t.clone(), Guard::Not(Box::new(f.clone()))), &b).unwrap());
        assert!(eval(Guard::Or(Box::new(f.clone()), Box::new(t.clone())), &b).unwrap());
        assert!(!eval(Guard::and(t, f), &b).unwrap());
    }

    #[test]
    fn unbound_and_omega_errors() {
        let g = Guard::eq(Expr::var("missing"), Expr::lit(1i64));
        assert!(matches!(eval(g, &[]), Err(HoclError::UnboundVar(v)) if v == "missing"));
        let g2 = Guard::eq(Expr::var("w"), Expr::lit(1i64));
        assert!(matches!(
            eval(g2, &[("w", Binding::Many(Multiset::new()))]),
            Err(HoclError::OmegaInExpr(v)) if v == "w"
        ));
    }

    #[test]
    fn symbol_equality_in_guard() {
        let b = [one("e", Atom::sym("ERROR"))];
        let g = Guard::eq(Expr::var("e"), Expr::lit(Atom::sym("ERROR")));
        assert!(eval(g, &b).unwrap());
    }
}
