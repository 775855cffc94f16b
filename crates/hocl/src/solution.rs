//! A [`Solution`] is the root multiset an engine reduces, together with the
//! bookkeeping for suspended (deferred) rule applications.

use crate::atom::Atom;
use crate::bindings::{Binding, Bindings};
use crate::externs::EffectId;
use crate::multiset::Multiset;
use crate::rule::Rule;
use crate::template::Template;
use serde::{DeError, Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A suspended rule application awaiting the result of a deferred extern.
///
/// The matched LHS atoms (and the rule atom itself, for one-shot rules) were
/// already consumed when the application suspended; `Engine::resume`
/// builds the rule's RHS under `bindings` with the deferred call at
/// `call_index` replaced by the effect's result atoms. The rule is shared
/// with the solution it fired in, not copied.
#[derive(Clone, PartialEq)]
pub struct Pending {
    /// Effect identifier handed to the runtime.
    pub(crate) id: EffectId,
    /// The rule that suspended.
    pub(crate) rule: Arc<Rule>,
    /// Bindings of the suspended match, by the rule's slots.
    pub(crate) bindings: Bindings,
    /// Traversal index of the deferred `Call` node within the rule's RHS:
    /// always one of its calls.
    pub(crate) call_index: usize,
}

impl Pending {
    /// Extern name of the deferred call.
    pub fn extern_name(&self) -> &str {
        self.rule
            .call_name(self.call_index)
            .expect("a suspension's call index names a call of its rule")
    }
}

/// The serialized form of a [`Pending`]: the rule's name and RHS, and the
/// bindings keyed by variable name — nothing that depends on how a rule
/// numbers its slots.
#[derive(Serialize, Deserialize)]
struct PendingForm {
    id: EffectId,
    rule_name: String,
    rhs: Vec<Template>,
    bindings: BindingsForm,
    call_index: usize,
    extern_name: String,
}

#[derive(Serialize, Deserialize)]
struct BindingsForm {
    map: BTreeMap<String, Binding>,
}

impl Serialize for Pending {
    fn to_value(&self) -> serde::Value {
        let map = self
            .bindings
            .iter()
            .map(|(slot, b)| {
                let name = self.rule.slot_name(slot).expect("a slot of the rule");
                (name.to_owned(), b.clone())
            })
            .collect();
        PendingForm {
            id: self.id,
            rule_name: self.rule.name().to_owned(),
            rhs: self.rule.rhs().to_vec(),
            bindings: BindingsForm { map },
            call_index: self.call_index,
            extern_name: self.extern_name().to_owned(),
        }
        .to_value()
    }
}

impl Deserialize for Pending {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        let form = PendingForm::from_value(v)?;
        let names = form.bindings.map.keys().cloned().collect();
        let rule = Rule::remainder(form.rule_name, form.rhs, names);
        if rule.call_name(form.call_index) != Some(form.extern_name.as_str()) {
            return Err(DeError::custom(format!(
                "call {} of the suspended rule's RHS is not {:?}",
                form.call_index, form.extern_name
            )));
        }
        let mut bindings = Bindings::default();
        bindings.reset(rule.slot_count());
        // `remainder` gave the names their slots in this same order.
        for (slot, b) in form.bindings.map.into_values().enumerate() {
            match b {
                Binding::One(a) => bindings.bind_one(slot, a),
                Binding::Many(ms) => bindings.bind_many(slot, ms),
            };
        }
        Ok(Pending {
            id: form.id,
            rule: Arc::new(rule),
            bindings,
            call_index: form.call_index,
        })
    }
}

impl fmt::Debug for Pending {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Pending(#{} rule={} extern={})",
            self.id.0,
            self.rule.name(),
            self.extern_name()
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
    use crate::pattern::Pattern;

    /// A suspension of `replace-one ?s by r(invoke(?s))`.
    fn pending(id: u64, rule: &str) -> Pending {
        let rule = Rule::builder(rule)
            .one_shot()
            .lhs([Pattern::var("s")])
            .rhs([Template::call("invoke", [Template::var("s")])])
            .build();
        let mut bindings = Bindings::default();
        bindings.reset(rule.slot_count());
        bindings.bind_one(0, Atom::sym("s2"));
        Pending {
            id: EffectId(id),
            rule: Arc::new(rule),
            bindings,
            call_index: 0,
        }
    }

    #[test]
    fn pending_bookkeeping() {
        let mut s = Solution::from_atoms([Atom::int(1)]);
        assert!(!s.has_pending());
        s.push_pending(pending(7, "gw_call"));
        assert!(s.has_pending());
        assert_eq!(s.pending_ids(), vec![EffectId(7)]);
        assert!(s.take_pending(EffectId(9)).is_none());
        let p = s.take_pending(EffectId(7)).unwrap();
        assert_eq!(p.rule.name(), "gw_call");
        assert_eq!(p.extern_name(), "invoke");
        assert!(!s.has_pending());
    }

    #[test]
    fn display_mentions_pending() {
        let mut s = Solution::from_atoms([Atom::int(1)]);
        assert_eq!(format!("{s}"), "<1>");
        s.push_pending(pending(1, "r"));
        assert!(format!("{s}").contains("pending"));
        assert_eq!(
            format!("{:?}", s.pending()[0]),
            "Pending(#1 rule=r extern=invoke)"
        );
    }
}
