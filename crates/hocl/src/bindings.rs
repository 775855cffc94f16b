//! Variable bindings produced by pattern matching.
//!
//! There are two holders. While a rule is being matched, and while its
//! extern calls are evaluated, variables are *borrowed* views into the
//! solution (the matcher's environment); once the reactants have been taken
//! out of the solution they become the *owned* [`Bindings`] below, which the
//! right-hand side consumes. Guards and extern arguments read either one
//! through [`Lookup`].

use crate::atom::Atom;
use crate::multiset::Multiset;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// What a variable is bound to.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub enum Binding {
    /// An ordinary variable: exactly one atom.
    One(Atom),
    /// An ω (rest) variable: zero or more atoms from a subsolution — the
    /// matched subsolution's own storage, minus the atoms its element
    /// patterns picked.
    Many(Multiset),
}

impl Binding {
    /// The single atom, if this is a [`Binding::One`].
    pub fn as_one(&self) -> Option<&Atom> {
        match self {
            Binding::One(a) => Some(a),
            Binding::Many(_) => None,
        }
    }

    /// The atoms of the binding, one or many.
    pub fn atoms(&self) -> &[Atom] {
        match self {
            Binding::One(a) => std::slice::from_ref(a),
            Binding::Many(ms) => ms.as_slice(),
        }
    }
}

impl fmt::Debug for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Binding::One(a) => write!(f, "{a}"),
            Binding::Many(ms) => {
                f.write_str("*[")?;
                for (i, a) in ms.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str("]")
            }
        }
    }
}

/// A borrowed view of what a variable is bound to.
#[derive(Clone, Copy)]
pub enum Bound<'a> {
    /// An ordinary variable.
    One(&'a Atom),
    /// An ω variable.
    Rest(Rest<'a>),
}

/// A borrowed ω rest: the atoms of `of`, in order, except those at the
/// `picked` positions.
#[derive(Clone, Copy)]
pub struct Rest<'a> {
    of: &'a [Atom],
    picked: &'a [usize],
}

impl<'a> Rest<'a> {
    /// The atoms of `of` not at a `picked` position.
    pub(crate) fn new(of: &'a [Atom], picked: &'a [usize]) -> Self {
        Rest { of, picked }
    }

    /// Number of atoms in the rest.
    pub fn len(&self) -> usize {
        self.of.len() - self.picked.len()
    }

    /// Is the rest empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The atoms of the rest, in the subsolution's order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Atom> + 'a {
        let picked = self.picked;
        self.of
            .iter()
            .enumerate()
            .filter(move |(i, _)| !picked.contains(i))
            .map(|(_, a)| a)
    }
}

/// Read access to variable bindings, owned or borrowed.
pub trait Lookup {
    /// What `name` is bound to, if anything.
    fn lookup(&self, name: &str) -> Option<Bound<'_>>;
}

/// An environment mapping variable names to owned bindings.
///
/// Backed by a `BTreeMap` — deterministic iteration order matters for
/// reproducible engines, and binding sets are tiny (a handful of entries).
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Bindings {
    map: BTreeMap<String, Binding>,
}

impl Bindings {
    /// Empty environment.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Look up a variable.
    pub fn get(&self, name: &str) -> Option<&Binding> {
        self.map.get(name)
    }

    /// Is the variable bound?
    pub fn is_bound(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Bind a variable to one atom. If already bound, succeeds only when the
    /// existing binding is equal (non-linear pattern consistency).
    pub fn bind_one(&mut self, name: &str, atom: Atom) -> bool {
        match self.map.get(name) {
            Some(Binding::One(existing)) => *existing == atom,
            Some(Binding::Many(_)) => false,
            None => {
                self.map.insert(name.to_owned(), Binding::One(atom));
                true
            }
        }
    }

    /// Bind an ω variable to a sequence of atoms, with the same consistency
    /// requirement for repeated names (compared as ordered sequences).
    pub fn bind_many(&mut self, name: &str, atoms: impl Into<Multiset>) -> bool {
        let atoms = atoms.into();
        match self.map.get(name) {
            Some(Binding::Many(existing)) => existing.as_slice() == atoms.as_slice(),
            Some(Binding::One(_)) => false,
            None => {
                self.map.insert(name.to_owned(), Binding::Many(atoms));
                true
            }
        }
    }

    /// Take a variable's binding out of the environment (the last use of a
    /// variable in a right-hand side moves its atoms instead of copying).
    pub fn take(&mut self, name: &str) -> Option<Binding> {
        self.map.remove(name)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// No bindings at all?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over `(name, binding)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Binding)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl Lookup for Bindings {
    fn lookup(&self, name: &str) -> Option<Bound<'_>> {
        self.map.get(name).map(|b| match b {
            Binding::One(a) => Bound::One(a),
            Binding::Many(ms) => Bound::Rest(Rest::new(ms.as_slice(), &[])),
        })
    }
}

impl fmt::Debug for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{k}={v:?}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_lookup() {
        let mut b = Bindings::new();
        assert!(b.bind_one("x", Atom::int(1)));
        assert!(b.is_bound("x"));
        assert_eq!(b.get("x").unwrap().as_one(), Some(&Atom::int(1)));
        assert!(b.get("y").is_none());
    }

    #[test]
    fn nonlinear_consistency() {
        let mut b = Bindings::new();
        assert!(b.bind_one("t", Atom::sym("T1")));
        // Re-binding to the same value succeeds (pattern `?t … ?t`).
        assert!(b.bind_one("t", Atom::sym("T1")));
        // Re-binding to a different value fails.
        assert!(!b.bind_one("t", Atom::sym("T2")));
    }

    #[test]
    fn omega_bindings() {
        let mut b = Bindings::new();
        assert!(b.bind_many("w", vec![Atom::int(1), Atom::int(2)]));
        assert_eq!(b.get("w").unwrap().atoms().len(), 2);
        // Kind mismatch: an ω name cannot also be a One name.
        assert!(!b.bind_one("w", Atom::int(1)));
        assert!(!b.bind_many("w", vec![Atom::int(1)]));
        assert!(b.bind_many("w", vec![Atom::int(1), Atom::int(2)]));
    }

    #[test]
    fn deterministic_iteration() {
        let mut b = Bindings::new();
        b.bind_one("z", Atom::int(1));
        b.bind_one("a", Atom::int(2));
        let names: Vec<&str> = b.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}
