//! The multiset (chemical solution) data structure.
//!
//! A multiset stores atoms with multiplicity and no ordering semantics.
//! Internally atoms live in a `Vec` (stable insertion order gives the engine
//! a deterministic default traversal), but *equality is order-insensitive*,
//! as chemistry demands.
//!
//! ## The census
//!
//! Every multiset carries a census of what is below it: its structural
//! weight and the number of rule atoms at any depth. Every mutator keeps
//! it exact, which is why nothing here hands out a `&mut Atom` — the one
//! way to change a stored atom in place is the crate-private
//! `Multiset::update_at`, which re-counts it. So `weight()` is a field
//! read and the engine can tell a rule-free subsolution from the outside.

use crate::atom::Atom;
use serde::{DeError, Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// Structural weight and number of rule atoms of a molecule or a multiset,
/// counting everything nested inside it.
///
/// Two `u32`s on purpose: with them a [`Multiset`] is 32 bytes and an
/// [`Atom`] stays the 32 bytes it was without a census (two `usize`s make
/// every atom of every solution 40). Four billion nested atoms would need
/// over a hundred gigabytes of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Census {
    /// Number of atoms, counting nested structure.
    pub(crate) weight: u32,
    /// Number of rule atoms at any depth.
    pub(crate) rules: u32,
}

impl Census {
    /// One atom that is not a rule.
    pub(crate) const LEAF: Census = Census {
        weight: 1,
        rules: 0,
    };
    /// One rule atom.
    pub(crate) const RULE: Census = Census {
        weight: 1,
        rules: 1,
    };
}

impl Add for Census {
    type Output = Census;
    fn add(self, other: Census) -> Census {
        Census {
            weight: self.weight + other.weight,
            rules: self.rules + other.rules,
        }
    }
}

impl Sub for Census {
    type Output = Census;
    fn sub(self, other: Census) -> Census {
        Census {
            weight: self.weight - other.weight,
            rules: self.rules - other.rules,
        }
    }
}

/// A multiset of [`Atom`]s.
#[derive(Clone, Default)]
pub struct Multiset {
    atoms: Vec<Atom>,
    /// Σ census of `atoms`, maintained by every mutator.
    census: Census,
}

impl Multiset {
    /// The empty solution `⟨⟩`.
    pub fn new() -> Self {
        Multiset::default()
    }

    /// With pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Multiset {
            atoms: Vec::with_capacity(cap),
            census: Census::default(),
        }
    }

    /// Number of atoms (with multiplicity).
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Is the solution empty?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Add one atom.
    pub fn insert(&mut self, atom: Atom) {
        self.census = self.census + atom.census();
        self.atoms.push(atom);
    }

    /// Add many atoms.
    pub fn extend(&mut self, atoms: impl IntoIterator<Item = Atom>) {
        let atoms = atoms.into_iter();
        self.atoms.reserve(atoms.size_hint().0);
        for atom in atoms {
            self.insert(atom);
        }
    }

    /// Move every atom of `other` in after this multiset's own, keeping
    /// whichever of the two allocations is larger: absorbing a big ω rest
    /// into a nearly empty subsolution reuses the rest's storage (one
    /// `memmove` to make room in front), and nothing is counted again —
    /// the two censuses add.
    pub(crate) fn absorb(&mut self, mut other: Multiset) {
        self.census = self.census + other.census;
        if self.atoms.len() < other.atoms.len() {
            other.atoms.splice(0..0, self.atoms.drain(..));
            self.atoms = other.atoms;
        } else {
            self.atoms.append(&mut other.atoms);
        }
    }

    /// Remove the atom at `index` (swap-remove is *not* used: rule semantics
    /// benefit from stable order for deterministic engines), shifting the
    /// atoms after it down by one.
    pub fn remove_at(&mut self, index: usize) -> Atom {
        let atom = self.atoms.remove(index);
        self.census = self.census - atom.census();
        atom
    }

    /// Remove a set of indices (deduplicated, any order). Returns the removed
    /// atoms in descending index order.
    pub fn remove_indices(&mut self, indices: &mut Vec<usize>) -> Vec<Atom> {
        indices.sort_unstable();
        indices.dedup();
        let mut removed = Vec::with_capacity(indices.len());
        for &i in indices.iter().rev() {
            removed.push(self.remove_at(i));
        }
        removed
    }

    /// Remove the atoms at `picks` (distinct indices, any order) and return
    /// them in the order of `picks`.
    pub(crate) fn take_picked(&mut self, picks: &[usize]) -> Vec<Atom> {
        // Highest index first, so the indices still to go stay valid.
        let mut order: Vec<usize> = (0..picks.len()).collect();
        order.sort_unstable_by_key(|&k| std::cmp::Reverse(picks[k]));
        let mut taken = vec![Atom::Bool(false); picks.len()];
        for k in order {
            taken[k] = self.remove_at(picks[k]);
        }
        taken
    }

    /// Change the atom at `index` in place and count it again. The only way
    /// to reach inside a stored atom; the engine reduces nested
    /// subsolutions through it.
    pub(crate) fn update_at<R>(&mut self, index: usize, f: impl FnOnce(&mut Atom) -> R) -> R {
        let atom = &mut self.atoms[index];
        let before = atom.census();
        let result = f(atom);
        self.census = self.census - before + atom.census();
        result
    }

    /// Remove the first atom equal to `atom`. Returns whether one was found.
    pub fn remove_value(&mut self, atom: &Atom) -> bool {
        if let Some(pos) = self.atoms.iter().position(|a| a == atom) {
            self.remove_at(pos);
            true
        } else {
            false
        }
    }

    /// Multiplicity of `atom`.
    pub fn count(&self, atom: &Atom) -> usize {
        self.atoms.iter().filter(|a| *a == atom).count()
    }

    /// Does the solution contain at least one `atom`?
    pub fn contains(&self, atom: &Atom) -> bool {
        self.atoms.iter().any(|a| a == atom)
    }

    /// Borrowing iterator in internal (insertion) order.
    pub fn iter(&self) -> std::slice::Iter<'_, Atom> {
        self.atoms.iter()
    }

    /// Read access by index (internal order).
    pub fn get(&self, index: usize) -> Option<&Atom> {
        self.atoms.get(index)
    }

    /// Underlying slice, insertion order.
    pub fn as_slice(&self) -> &[Atom] {
        &self.atoms
    }

    /// The atoms as a plain vector, in internal order.
    pub fn into_vec(self) -> Vec<Atom> {
        self.atoms
    }

    /// Index of the first atom satisfying the predicate.
    pub fn position(&self, f: impl FnMut(&Atom) -> bool) -> Option<usize> {
        self.atoms.iter().position(f)
    }

    /// First atom satisfying the predicate.
    pub fn find(&self, mut f: impl FnMut(&Atom) -> bool) -> Option<&Atom> {
        self.atoms.iter().find(|a| f(a))
    }

    /// Multiset union (concatenation).
    pub fn union(mut self, other: Multiset) -> Multiset {
        self.absorb(other);
        self
    }

    /// Total structural weight (number of atoms counting nesting), read
    /// from the census. The simulator charges matching cost proportional
    /// to this.
    pub fn weight(&self) -> usize {
        self.census.weight as usize
    }

    /// Number of rule atoms at any depth below this multiset, read from the
    /// census: zero means nothing in here can ever react on its own.
    pub fn rule_count(&self) -> usize {
        self.census.rules as usize
    }

    /// Weight and rule count together.
    pub(crate) fn census(&self) -> Census {
        self.census
    }

    /// The census counted from scratch, trusting no stored count at any
    /// depth — what the stored one must always equal.
    #[cfg(test)]
    pub(crate) fn recount(&self) -> Census {
        fn of(atom: &Atom) -> Census {
            match atom {
                Atom::Tuple(v) | Atom::List(v) => v.iter().fold(Census::LEAF, |c, a| c + of(a)),
                Atom::Sub(ms) => Census::LEAF + ms.recount(),
                Atom::Rule(_) => Census::RULE,
                _ => Census::LEAF,
            }
        }
        self.atoms.iter().fold(Census::default(), |c, a| c + of(a))
    }

    /// Indices of all rule atoms, in internal order.
    pub fn rule_indices(&self) -> Vec<usize> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_rule())
            .map(|(i, _)| i)
            .collect()
    }

    /// Convenience: the contents of the tuple `KEY : ⟨…⟩` if present.
    ///
    /// Many HOCLflow operations peek at a keyed subsolution (e.g. the `SRC`
    /// set) without running the matcher; this helper is their fast path.
    pub fn keyed_sub(&self, key: &str) -> Option<&Multiset> {
        self.atoms.iter().find_map(|a| match a {
            Atom::Tuple(v) if v.len() == 2 => match (&v[0], &v[1]) {
                (Atom::Sym(s), Atom::Sub(ms)) if s.as_str() == key => Some(ms),
                _ => None,
            },
            _ => None,
        })
    }
}

impl PartialEq for Multiset {
    /// Order-insensitive, multiplicity-sensitive equality.
    fn eq(&self, other: &Self) -> bool {
        if self.atoms.len() != other.atoms.len() {
            return false;
        }
        // O(n²) matching; solutions compared in practice are small. A used
        // flag per right-hand atom guarantees multiplicities line up.
        let mut used = vec![false; other.atoms.len()];
        'outer: for a in &self.atoms {
            for (j, b) in other.atoms.iter().enumerate() {
                if !used[j] && a == b {
                    used[j] = true;
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }
}

impl From<Vec<Atom>> for Multiset {
    /// Takes the vector as the multiset's storage and counts it once.
    fn from(atoms: Vec<Atom>) -> Self {
        let census = atoms.iter().fold(Census::default(), |c, a| c + a.census());
        Multiset { atoms, census }
    }
}

impl FromIterator<Atom> for Multiset {
    fn from_iter<T: IntoIterator<Item = Atom>>(iter: T) -> Self {
        Multiset::from(iter.into_iter().collect::<Vec<Atom>>())
    }
}

// The serialized form is the bare atom sequence, as it was when the
// multiset was a transparent newtype; the census is counted again on the
// way in. Written by hand because the workspace's serde derive has no
// `from`/`into` container attribute.
impl Serialize for Multiset {
    fn to_value(&self) -> serde::Value {
        self.atoms.to_value()
    }
}

impl Deserialize for Multiset {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        Vec::<Atom>::from_value(v).map(Multiset::from)
    }
}

impl IntoIterator for Multiset {
    type Item = Atom;
    type IntoIter = std::vec::IntoIter<Atom>;
    fn into_iter(self) -> Self::IntoIter {
        self.atoms.into_iter()
    }
}

impl<'a> IntoIterator for &'a Multiset {
    type Item = &'a Atom;
    type IntoIter = std::slice::Iter<'a, Atom>;
    fn into_iter(self) -> Self::IntoIter {
        self.atoms.iter()
    }
}

impl fmt::Display for Multiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(">")
    }
}

impl fmt::Debug for Multiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: impl IntoIterator<Item = i64>) -> Multiset {
        v.into_iter().map(Atom::int).collect()
    }

    #[test]
    fn insert_remove_count() {
        let mut m = Multiset::new();
        m.insert(Atom::int(1));
        m.insert(Atom::int(1));
        m.insert(Atom::int(2));
        assert_eq!(m.len(), 3);
        assert_eq!(m.count(&Atom::int(1)), 2);
        assert!(m.remove_value(&Atom::int(1)));
        assert_eq!(m.count(&Atom::int(1)), 1);
        assert!(!m.remove_value(&Atom::int(9)));
    }

    #[test]
    fn equality_ignores_order_but_not_multiplicity() {
        assert_eq!(ms([1, 2, 3]), ms([3, 1, 2]));
        assert_ne!(ms([1, 1, 2]), ms([1, 2, 2]));
        assert_ne!(ms([1]), ms([1, 1]));
    }

    #[test]
    fn remove_indices_descending() {
        let mut m = ms([10, 20, 30, 40]);
        let mut idx = vec![0, 2];
        let removed = m.remove_indices(&mut idx);
        assert_eq!(removed, vec![Atom::int(30), Atom::int(10)]);
        assert_eq!(m, ms([20, 40]));
    }

    #[test]
    fn keyed_sub_lookup() {
        let mut m = Multiset::new();
        m.insert(Atom::keyed("SRC", [Atom::sub([Atom::sym("T1")])]));
        m.insert(Atom::keyed("DST", [Atom::empty_sub()]));
        assert_eq!(m.keyed_sub("SRC").unwrap().len(), 1);
        assert!(m.keyed_sub("DST").unwrap().is_empty());
        assert!(m.keyed_sub("RES").is_none());
        // Reaching into the stored `DST` atom re-counts the parent.
        let before = m.weight();
        m.update_at(1, |dst| match dst {
            Atom::Tuple(v) => match &mut v[1] {
                Atom::Sub(ms) => ms.insert(Atom::sym("T9")),
                other => panic!("DST holds {other}"),
            },
            other => panic!("not a keyed tuple: {other}"),
        });
        assert_eq!(m.keyed_sub("DST").unwrap().len(), 1);
        assert_eq!(m.weight(), before + 1);
    }

    #[test]
    fn union_and_weight() {
        let m = ms([1, 2]).union(ms([3]));
        assert_eq!(m.len(), 3);
        let mut nested = Multiset::new();
        nested.insert(Atom::sub([Atom::int(1), Atom::int(2)]));
        assert_eq!(nested.weight(), 3);
    }

    #[test]
    fn census_follows_every_mutator() {
        use crate::pattern::Pattern;
        use crate::rule::Rule;
        let rule = || Atom::rule(Rule::builder("r").lhs([Pattern::Any]).rhs([]).build());
        let nested = || {
            Atom::keyed(
                "K",
                [Atom::sub([Atom::int(1), rule(), Atom::sub([rule()])])],
            )
        };
        let check = |m: &Multiset, what: &str| {
            assert_eq!(m.census(), m.recount(), "after {what}: {m}");
        };

        let mut m: Multiset = [Atom::int(1), nested(), rule()].into_iter().collect();
        check(&m, "collect");
        assert_eq!((m.weight(), m.rule_count()), (9, 3));
        m.insert(nested());
        check(&m, "insert");
        m.extend([Atom::list([rule(), Atom::int(2)]), Atom::int(3)]);
        check(&m, "extend");
        m.remove_at(1);
        check(&m, "remove_at");
        assert!(m.remove_value(&Atom::int(3)));
        check(&m, "remove_value");
        m.remove_indices(&mut vec![0, 2]);
        check(&m, "remove_indices");
        let taken = m.take_picked(&[1, 0]);
        assert_eq!(taken.len(), 2);
        check(&m, "take_picked");
        assert_eq!((m.weight(), m.rule_count()), (0, 0));

        // Both directions of `absorb`, and `union` on top of it.
        let small = || -> Multiset { [rule()].into_iter().collect() };
        let big = || -> Multiset { [nested(), Atom::int(4), Atom::int(5)].into_iter().collect() };
        for (mut a, b) in [(small(), big()), (big(), small())] {
            let expected: Vec<Atom> = a.iter().chain(b.iter()).cloned().collect();
            a.absorb(b);
            check(&a, "absorb");
            assert_eq!(a.as_slice(), expected.as_slice(), "own atoms first");
        }
        check(&small().union(big()), "union");

        let mut m = big();
        m.update_at(0, |atom| *atom = Atom::sub([rule(), rule()]));
        check(&m, "update_at");
        assert_eq!((m.weight(), m.rule_count()), (5, 2));
        let back: Multiset = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        check(&back, "deserialize");
        assert_eq!(back.census(), m.census());
        assert_eq!(serde_json::to_string(&Multiset::new()).unwrap(), "[]");
    }

    #[test]
    fn display_notation() {
        let m = ms([1, 2]);
        assert_eq!(format!("{m}"), "<1, 2>");
    }
}
