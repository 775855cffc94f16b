//! A [`Solution`] is the root multiset an engine reduces, together with the
//! bookkeeping for suspended (deferred) rule applications.

use crate::atom::Atom;
use crate::bindings::Bindings;
use crate::externs::EffectId;
use crate::multiset::Multiset;
use crate::template::Template;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A suspended rule application awaiting the result of a deferred extern.
///
/// The matched LHS atoms (and the rule atom itself, for one-shot rules) were
/// already consumed when the application suspended; `Engine::resume`
/// instantiates `rhs` under `bindings` with the deferred call at
/// `call_index` replaced by the effect's result atoms.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Pending {
    /// Effect identifier handed to the runtime.
    pub id: EffectId,
    /// Name of the rule that suspended (diagnostics).
    pub rule_name: String,
    /// The rule's RHS templates.
    pub rhs: Vec<Template>,
    /// Bindings of the suspended match.
    pub bindings: Bindings,
    /// Traversal index of the deferred `Call` node within `rhs`.
    pub call_index: usize,
    /// Extern name of the deferred call (diagnostics).
    pub extern_name: String,
}

impl fmt::Debug for Pending {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Pending(#{} rule={} extern={})",
            self.id.0, self.rule_name, self.extern_name
        )
    }
}

/// The root chemical solution an engine operates on.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    atoms: Multiset,
    pending: Vec<Pending>,
}

impl Solution {
    /// Empty solution.
    pub fn new() -> Self {
        Solution::default()
    }

    /// Solution holding the given atoms.
    pub fn from_atoms(atoms: impl IntoIterator<Item = Atom>) -> Self {
        Solution {
            atoms: atoms.into_iter().collect(),
            pending: Vec::new(),
        }
    }

    /// Solution wrapping an existing multiset.
    pub fn from_multiset(atoms: Multiset) -> Self {
        Solution {
            atoms,
            pending: Vec::new(),
        }
    }

    /// The atoms of the solution.
    pub fn atoms(&self) -> &Multiset {
        &self.atoms
    }

    /// Mutable access to the atoms, for the engine. Runtimes injecting
    /// delivered molecules go through [`Solution::insert`].
    pub(crate) fn atoms_mut(&mut self) -> &mut Multiset {
        &mut self.atoms
    }

    /// Insert one atom.
    pub fn insert(&mut self, atom: Atom) {
        self.atoms.insert(atom);
    }

    /// Are any rule applications suspended?
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Ids of all suspended applications.
    pub fn pending_ids(&self) -> Vec<EffectId> {
        self.pending.iter().map(|p| p.id).collect()
    }

    /// Read-only view of the suspended applications.
    pub fn pending(&self) -> &[Pending] {
        &self.pending
    }

    /// Record a suspension (engine-internal).
    pub(crate) fn push_pending(&mut self, pending: Pending) {
        self.pending.push(pending);
    }

    /// Remove and return the suspension with the given id.
    pub(crate) fn take_pending(&mut self, id: EffectId) -> Option<Pending> {
        let idx = self.pending.iter().position(|p| p.id == id)?;
        Some(self.pending.remove(idx))
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.atoms)?;
        if !self.pending.is_empty() {
            write!(f, " +{} pending", self.pending.len())?;
        }
        Ok(())
    }
}

impl fmt::Debug for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_bookkeeping() {
        let mut s = Solution::from_atoms([Atom::int(1)]);
        assert!(!s.has_pending());
        s.push_pending(Pending {
            id: EffectId(7),
            rule_name: "gw_call".into(),
            rhs: vec![],
            bindings: Bindings::new(),
            call_index: 0,
            extern_name: "invoke".into(),
        });
        assert!(s.has_pending());
        assert_eq!(s.pending_ids(), vec![EffectId(7)]);
        assert!(s.take_pending(EffectId(9)).is_none());
        let p = s.take_pending(EffectId(7)).unwrap();
        assert_eq!(p.rule_name, "gw_call");
        assert!(!s.has_pending());
    }

    #[test]
    fn display_mentions_pending() {
        let mut s = Solution::from_atoms([Atom::int(1)]);
        assert_eq!(format!("{s}"), "<1>");
        s.push_pending(Pending {
            id: EffectId(1),
            rule_name: "r".into(),
            rhs: vec![],
            bindings: Bindings::new(),
            call_index: 0,
            extern_name: "invoke".into(),
        });
        assert!(format!("{s}").contains("pending"));
    }
}
