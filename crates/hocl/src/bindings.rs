//! Variables and what they are bound to.
//!
//! ## Variables are slots
//!
//! A [`Var`] is a variable occurrence in a pattern, a guard or a template:
//! its name — what the text syntax, the serialized form and error messages
//! show — and a *slot*, the index the enclosing [`Rule`](crate::Rule)
//! assigned to that name when it was built. Every occurrence of one name in
//! one rule (LHS variables, ω rests, guard and template references) shares
//! the slot, so a rule's bindings are an array sized by the rule and
//! looking a variable up is an index — no name is compared, hashed or
//! copied while a rule is applied. A template occurrence also records
//! whether it is the variable's last use in the right-hand side, which is
//! when building the RHS moves the binding instead of cloning it.
//!
//! ## Two holders
//!
//! While a rule is being matched, and while its extern calls are evaluated,
//! variables are *borrowed* views into the solution (the matcher's
//! environment); once the reactants have been taken out of the solution
//! they become the *owned* [`Bindings`] below, which the right-hand side
//! consumes. Guards and extern arguments read either one through
//! [`Lookup`].

use crate::atom::Atom;
use crate::multiset::Multiset;
use serde::{DeError, Deserialize, Serialize};
use std::fmt;

/// A variable occurrence: its name and the slot its rule resolved it to.
///
/// Occurrences compare by name: the slot and the last-use mark are derived
/// from the names of the rule holding them, and are recomputed whenever a
/// rule is built. A variable outside any rule has no slot and is never
/// bound. The serialized form is the bare name.
#[derive(Clone, Debug)]
pub struct Var {
    name: String,
    slot: usize,
    /// In a template, outside extern-call arguments: no later occurrence
    /// of the variable is built, so this one takes the binding.
    last: bool,
}

impl Var {
    /// A variable not yet resolved by a rule.
    pub fn new(name: impl Into<String>) -> Self {
        Var {
            name: name.into(),
            slot: usize::MAX,
            last: false,
        }
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The slot of the variable in its rule's bindings.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    /// Is this the last occurrence the RHS builds?
    pub(crate) fn is_last(&self) -> bool {
        self.last
    }

    /// Give the variable the slot of its name in `names`, appending the
    /// name when it is new.
    pub(crate) fn resolve(&mut self, names: &mut Vec<String>) {
        self.slot = match names.iter().position(|n| *n == self.name) {
            Some(slot) => slot,
            None => {
                names.push(self.name.clone());
                names.len() - 1
            }
        };
    }

    /// Mark (or unmark) the occurrence as the variable's last built one.
    pub(crate) fn set_last(&mut self, last: bool) {
        self.last = last;
    }
}

impl PartialEq for Var {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl From<&str> for Var {
    fn from(name: &str) -> Self {
        Var::new(name)
    }
}

impl Serialize for Var {
    fn to_value(&self) -> serde::Value {
        self.name.to_value()
    }
}

impl Deserialize for Var {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        String::from_value(v).map(Var::new)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

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
    /// What `var` is bound to, if anything.
    fn lookup(&self, var: &Var) -> Option<Bound<'_>>;
}

/// The owned bindings of one rule application: one slot per variable of
/// the rule, `None` while unbound.
#[derive(Clone, Default, PartialEq)]
pub struct Bindings {
    slots: Vec<Option<Binding>>,
}

impl Bindings {
    /// `slots` unbound variables, keeping the storage it already has.
    pub(crate) fn reset(&mut self, slots: usize) {
        self.slots.clear();
        self.slots.resize_with(slots, || None);
    }

    /// What the variable in `slot` is bound to.
    pub(crate) fn get(&self, slot: usize) -> Option<&Binding> {
        self.slots.get(slot)?.as_ref()
    }

    /// Bind the variable in `slot` to one atom. If already bound, succeeds
    /// only when the existing binding is equal (non-linear pattern
    /// consistency) and keeps it.
    pub(crate) fn bind_one(&mut self, slot: usize, atom: Atom) -> bool {
        match &mut self.slots[slot] {
            Some(Binding::One(existing)) => *existing == atom,
            Some(Binding::Many(_)) => false,
            free @ None => {
                *free = Some(Binding::One(atom));
                true
            }
        }
    }

    /// Bind the ω variable in `slot` to a sequence of atoms, with the same
    /// consistency requirement for a repeated variable (compared as
    /// ordered sequences).
    pub(crate) fn bind_many(&mut self, slot: usize, atoms: impl Into<Multiset>) -> bool {
        let atoms = atoms.into();
        match &mut self.slots[slot] {
            Some(Binding::Many(existing)) => existing.as_slice() == atoms.as_slice(),
            Some(Binding::One(_)) => false,
            free @ None => {
                *free = Some(Binding::Many(atoms));
                true
            }
        }
    }

    /// Take a variable's binding out (the last use of a variable in a
    /// right-hand side moves its atoms instead of copying).
    pub(crate) fn take(&mut self, slot: usize) -> Option<Binding> {
        self.slots.get_mut(slot)?.take()
    }

    /// The bound variables as `(slot, binding)` pairs, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &Binding)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, b)| Some((slot, b.as_ref()?)))
    }
}

impl Lookup for Bindings {
    fn lookup(&self, var: &Var) -> Option<Bound<'_>> {
        self.get(var.slot()).map(|b| match b {
            Binding::One(a) => Bound::One(a),
            Binding::Many(ms) => Bound::Rest(Rest::new(ms.as_slice(), &[])),
        })
    }
}

impl fmt::Debug for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (slot, b)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "#{slot}={b:?}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots(n: usize) -> Bindings {
        let mut b = Bindings::default();
        b.reset(n);
        b
    }

    #[test]
    fn bind_and_lookup() {
        let mut b = slots(2);
        assert!(b.bind_one(0, Atom::int(1)));
        assert_eq!(b.get(0).unwrap().as_one(), Some(&Atom::int(1)));
        assert!(b.get(1).is_none());
        assert!(b.get(7).is_none(), "a slot the rule does not have");
        let mut x = Var::new("x");
        x.resolve(&mut vec!["x".to_owned()]);
        assert!(matches!(b.lookup(&x), Some(Bound::One(a)) if *a == Atom::int(1)));
        assert!(b.lookup(&Var::new("unresolved")).is_none());
    }

    #[test]
    fn nonlinear_consistency() {
        let mut b = slots(1);
        assert!(b.bind_one(0, Atom::sym("T1")));
        // Re-binding to the same value succeeds (pattern `?t … ?t`).
        assert!(b.bind_one(0, Atom::sym("T1")));
        // Re-binding to a different value fails and keeps the first.
        assert!(!b.bind_one(0, Atom::sym("T2")));
        assert_eq!(b.get(0).unwrap().as_one(), Some(&Atom::sym("T1")));
    }

    #[test]
    fn omega_bindings() {
        let mut b = slots(1);
        assert!(b.bind_many(0, vec![Atom::int(1), Atom::int(2)]));
        assert_eq!(b.get(0).unwrap().atoms().len(), 2);
        // Kind mismatch: an ω variable cannot also be a One variable.
        assert!(!b.bind_one(0, Atom::int(1)));
        assert!(!b.bind_many(0, vec![Atom::int(1)]));
        assert!(b.bind_many(0, vec![Atom::int(1), Atom::int(2)]));
        assert!(matches!(b.take(0), Some(Binding::Many(ms)) if ms.len() == 2));
        assert!(b.get(0).is_none(), "taken");
    }

    #[test]
    fn deterministic_iteration() {
        let mut b = slots(3);
        b.bind_one(2, Atom::int(1));
        b.bind_one(0, Atom::int(2));
        let bound: Vec<usize> = b.iter().map(|(slot, _)| slot).collect();
        assert_eq!(bound, vec![0, 2]);
        // A reset keeps nothing bound, whatever was there.
        b.reset(3);
        assert_eq!(b.iter().count(), 0);
    }
}
