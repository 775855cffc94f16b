//! Reaction rules: `replace LHS by RHS if guard` and the one-shot
//! `replace-one` variant.
//!
//! Building a rule resolves its variables: every name the LHS, the guard
//! or the RHS mentions gets a slot, in the order the names are first met
//! (LHS in pattern pre-order, then the guard, then the RHS), and every
//! template occurrence learns whether it is the last one the RHS builds.
//! Applying the rule then reads and moves bindings by slot. The slot table
//! is not part of the serialized form: deserializing rebuilds it.

use crate::bindings::Var;
use crate::guard::Guard;
use crate::pattern::Pattern;
use crate::template::Template;
use serde::{ArcFromValue, DeError, Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A reaction rule.
///
/// Rules are immutable once built and shared via `Arc` when they float in
/// solutions as atoms. The paper's `with X inject M` sugar is available as
/// [`Rule::with_inject`]: it expands to `replace-one X by X, M`.
#[derive(Clone, PartialEq, Serialize)]
pub struct Rule {
    name: String,
    one_shot: bool,
    lhs: Vec<Pattern>,
    guard: Guard,
    rhs: Vec<Template>,
    /// Variable names by slot.
    #[serde(skip)]
    vars: Vec<String>,
}

/// The serialized form of a [`Rule`]: everything but the slot table.
#[derive(Deserialize)]
struct RuleForm {
    name: String,
    one_shot: bool,
    lhs: Vec<Pattern>,
    guard: Guard,
    rhs: Vec<Template>,
}

impl Deserialize for Rule {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        let form = RuleForm::from_value(v)?;
        Ok(Rule::resolved(
            form.name,
            form.one_shot,
            form.lhs,
            form.guard,
            form.rhs,
            Vec::new(),
        ))
    }
}

impl ArcFromValue for Rule {
    fn arc_from_value(v: &serde::Value) -> Result<Arc<Self>, DeError> {
        Rule::from_value(v).map(Arc::new)
    }
}

impl Rule {
    /// Start building a rule with the given name.
    pub fn builder(name: impl Into<String>) -> RuleBuilder {
        RuleBuilder {
            name: name.into(),
            one_shot: false,
            lhs: Vec::new(),
            guard: Guard::True,
            rhs: Vec::new(),
        }
    }

    /// The paper's HOCLflow sugar `with X inject M` ≡ `replace-one X by X, M`.
    ///
    /// `catalysts` are matched *and reproduced*; `injected` are added.
    pub fn with_inject(
        name: impl Into<String>,
        catalysts: impl IntoIterator<Item = (Pattern, Template)>,
        injected: impl IntoIterator<Item = Template>,
    ) -> Rule {
        let mut lhs = Vec::new();
        let mut rhs = Vec::new();
        for (p, t) in catalysts {
            lhs.push(p);
            rhs.push(t);
        }
        rhs.extend(injected);
        Rule::resolved(name.into(), true, lhs, Guard::True, rhs, Vec::new())
    }

    /// The rule with its variables resolved to slots, the names in `vars`
    /// first (see the module docs).
    fn resolved(
        name: String,
        one_shot: bool,
        mut lhs: Vec<Pattern>,
        mut guard: Guard,
        mut rhs: Vec<Template>,
        mut vars: Vec<String>,
    ) -> Rule {
        for p in &mut lhs {
            p.vars_mut(&mut |v| v.resolve(&mut vars));
        }
        guard.vars_mut(&mut |v| v.resolve(&mut vars));
        // Occurrences the build reads, per slot; then count them down to
        // mark each variable's last one.
        let mut built = Vec::new();
        for t in &mut rhs {
            t.vars_mut(&mut |v: &mut Var, is_built| {
                v.resolve(&mut vars);
                if is_built {
                    if built.len() <= v.slot() {
                        built.resize(v.slot() + 1, 0usize);
                    }
                    built[v.slot()] += 1;
                }
            });
        }
        for t in &mut rhs {
            t.vars_mut(&mut |v: &mut Var, is_built| {
                if is_built {
                    built[v.slot()] -= 1;
                }
                v.set_last(is_built && built[v.slot()] == 0);
            });
        }
        Rule {
            name,
            one_shot,
            lhs,
            guard,
            rhs,
            vars,
        }
    }

    /// What is left of a suspended application once its LHS is consumed:
    /// a rule with this name and RHS and no LHS, whose first slots are the
    /// names `bound` (how a deserialized suspension finds its bindings).
    pub(crate) fn remainder(name: String, rhs: Vec<Template>, bound: Vec<String>) -> Rule {
        Rule::resolved(name, true, Vec::new(), Guard::True, rhs, bound)
    }

    /// Rule name (unique within a program by convention).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Is this a `replace-one` rule (consumed on first application)?
    pub fn is_one_shot(&self) -> bool {
        self.one_shot
    }

    /// The patterns consumed by the rule.
    pub fn lhs(&self) -> &[Pattern] {
        &self.lhs
    }

    /// The guard condition.
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// The templates produced by the rule.
    pub fn rhs(&self) -> &[Template] {
        &self.rhs
    }

    /// Total `Call` nodes in the RHS (deferred-call bookkeeping).
    pub fn rhs_call_count(&self) -> usize {
        self.rhs.iter().map(Template::count_calls).sum()
    }

    /// Extern name of the RHS's `Call` node at traversal index `index`
    /// (the numbering of [`Template::count_calls`]).
    pub(crate) fn call_name(&self, index: usize) -> Option<&str> {
        let mut index = index;
        self.rhs.iter().find_map(|t| t.call_at(&mut index))
    }

    /// Number of variable slots: the size of the rule's bindings.
    pub(crate) fn slot_count(&self) -> usize {
        self.vars.len()
    }

    /// The slot of the variable `name`, if the rule mentions it.
    #[cfg(test)]
    pub(crate) fn slot_of(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// The name of the variable in `slot`.
    pub(crate) fn slot_name(&self, slot: usize) -> Option<&str> {
        self.vars.get(slot).map(String::as_str)
    }
}

/// Builder for [`Rule`].
pub struct RuleBuilder {
    name: String,
    one_shot: bool,
    lhs: Vec<Pattern>,
    guard: Guard,
    rhs: Vec<Template>,
}

impl RuleBuilder {
    /// Mark the rule one-shot (`replace-one`).
    pub fn one_shot(mut self) -> Self {
        self.one_shot = true;
        self
    }

    /// Set the LHS patterns.
    pub fn lhs(mut self, patterns: impl IntoIterator<Item = Pattern>) -> Self {
        self.lhs = patterns.into_iter().collect();
        self
    }

    /// Add one LHS pattern.
    pub fn consumes(mut self, pattern: Pattern) -> Self {
        self.lhs.push(pattern);
        self
    }

    /// Set the guard.
    pub fn guard(mut self, guard: Guard) -> Self {
        self.guard = guard;
        self
    }

    /// Set the RHS templates.
    pub fn rhs(mut self, templates: impl IntoIterator<Item = Template>) -> Self {
        self.rhs = templates.into_iter().collect();
        self
    }

    /// Add one RHS template.
    pub fn produces(mut self, template: Template) -> Self {
        self.rhs.push(template);
        self
    }

    /// Finish building.
    pub fn build(self) -> Rule {
        assert!(
            !self.lhs.is_empty(),
            "a rule must consume at least one atom"
        );
        Rule::resolved(
            self.name,
            self.one_shot,
            self.lhs,
            self.guard,
            self.rhs,
            Vec::new(),
        )
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {}",
            self.name,
            if self.one_shot {
                "replace-one"
            } else {
                "replace"
            }
        )?;
        for (i, p) in self.lhs.iter().enumerate() {
            write!(f, "{}{p}", if i == 0 { " " } else { ", " })?;
        }
        f.write_str(" by")?;
        if self.rhs.is_empty() {
            f.write_str(" nothing")?;
        }
        for (i, t) in self.rhs.iter().enumerate() {
            write!(f, "{}{t}", if i == 0 { " " } else { ", " })?;
        }
        if self.guard != Guard::True {
            write!(f, " if {}", self.guard)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{Expr, Guard};

    #[test]
    fn builder_roundtrip() {
        let r = Rule::builder("max")
            .lhs([Pattern::var("x"), Pattern::var("y")])
            .guard(Guard::ge(Expr::var("x"), Expr::var("y")))
            .rhs([Template::var("x")])
            .build();
        assert_eq!(r.name(), "max");
        assert!(!r.is_one_shot());
        assert_eq!(r.lhs().len(), 2);
        assert_eq!(r.rhs().len(), 1);
        assert_eq!(format!("{r}"), "max = replace ?x, ?y by ?x if ?x >= ?y");
    }

    #[test]
    fn with_inject_expands_to_one_shot() {
        let r = Rule::with_inject(
            "adapt",
            [(Pattern::sym("GO"), Template::sym("GO"))],
            [Template::sym("ADAPT")],
        );
        assert!(r.is_one_shot());
        assert_eq!(r.lhs().len(), 1);
        assert_eq!(r.rhs().len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one atom")]
    fn empty_lhs_rejected() {
        let _ = Rule::builder("bad").build();
    }

    #[test]
    fn rhs_call_count() {
        let r = Rule::builder("call")
            .lhs([Pattern::var("s")])
            .rhs([Template::call("invoke", [Template::var("s")])])
            .build();
        assert_eq!(r.rhs_call_count(), 1);
        assert_eq!(r.call_name(0), Some("invoke"));
        assert_eq!(r.call_name(1), None);
    }

    /// Slot, last use and built-ness of every RHS variable occurrence.
    fn rhs_vars(r: &Rule) -> Vec<(String, usize, bool)> {
        let mut out = Vec::new();
        let mut rhs = r.rhs().to_vec();
        for t in &mut rhs {
            t.vars_mut(&mut |v: &mut Var, _| {
                out.push((v.name().to_owned(), v.slot(), v.is_last()))
            });
        }
        out
    }

    #[test]
    fn variables_are_slots_resolved_when_built_and_again_when_deserialized() {
        // LHS pre-order, then the guard, then the RHS: `x`, `w`, `g`, `u`.
        let r = Rule::builder("r")
            .lhs([Pattern::var("x"), Pattern::sub_rest("w")])
            .guard(Guard::eq(Expr::var("g"), Expr::var("x")))
            .rhs([
                Template::var("x"),
                Template::call("f", [Template::var("w"), Template::var("u")]),
                Template::sub([Template::var("w"), Template::var("x")]),
            ])
            .build();
        let slots: Vec<Option<usize>> = ["x", "w", "g", "u", "nope"].map(|n| r.slot_of(n)).into();
        assert_eq!(slots, vec![Some(0), Some(1), Some(2), Some(3), None]);
        assert_eq!(r.slot_count(), 4);
        assert_eq!(r.slot_name(3), Some("u"));
        // Call arguments are read by reference, never the last use: the
        // second `x` and the `w` in the subsolution move their bindings.
        let expected = vec![
            ("x".to_owned(), 0, false),
            ("w".to_owned(), 1, false),
            ("u".to_owned(), 3, false),
            ("w".to_owned(), 1, true),
            ("x".to_owned(), 0, true),
        ];
        assert_eq!(rhs_vars(&r), expected);
        let json = serde_json::to_string(&r).unwrap();
        assert!(!json.contains("vars"), "the slot table is not serialized");
        let back: Rule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(rhs_vars(&back), expected);
    }
}
