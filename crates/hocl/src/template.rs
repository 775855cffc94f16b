//! Templates: the right-hand side of reaction rules.
//!
//! Applying a rule instantiates its templates under the match bindings and
//! inserts the produced atoms into the solution. ω bindings splice (expand
//! to several atoms) wherever a variable number of atoms is legal: the rule
//! RHS itself, subsolution bodies, list bodies and extern argument lists —
//! but not tuple elements.
//!
//! A template variable is a slot of its rule's bindings (see
//! [`crate::bindings`]), and whether an occurrence moves or clones its
//! binding was decided when the rule was built: building the RHS looks
//! nothing up by name and counts nothing. What one application allocates
//! here is the atoms the RHS produces — a tuple's or a list's elements, a
//! subsolution's storage unless it is a moved ω rest — plus the argument
//! list and result of each extern call.

use crate::atom::Atom;
use crate::bindings::{Binding, Bindings, Bound, Lookup, Var};
use crate::error::HoclError;
use crate::externs::{ExternHost, ExternResult};
use crate::multiset::Multiset;
use crate::rule::Rule;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A template producing one or more atoms.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub enum Template {
    /// Produce this literal atom.
    Lit(Atom),
    /// Produce the binding of a variable. A [`Binding::Many`] (ω) binding
    /// splices all its atoms; this is only legal in splicing positions.
    Var(Var),
    /// Produce a tuple from element templates (each must yield one atom).
    Tuple(Vec<Template>),
    /// Produce a subsolution; ω splices are legal inside.
    Sub(Vec<Template>),
    /// Produce a list; ω splices are legal inside.
    List(Vec<Template>),
    /// Call an external function; its result atoms are spliced in place.
    /// If the host defers the call, the whole rule application suspends.
    Call(String, Vec<Template>),
    /// Produce a rule atom (higher-order injection — how `TRIGGER`
    /// activation plants `gw_setup`/`gw_call` into a standby task).
    RuleLit(Arc<Rule>),
}

impl Template {
    /// Literal template.
    pub fn lit(atom: impl Into<Atom>) -> Self {
        Template::Lit(atom.into())
    }

    /// Literal symbol template.
    pub fn sym(name: impl AsRef<str>) -> Self {
        Template::Lit(Atom::sym(name))
    }

    /// Variable template.
    pub fn var(name: impl Into<String>) -> Self {
        Template::Var(Var::new(name))
    }

    /// Tuple template.
    pub fn tuple(elems: impl IntoIterator<Item = Template>) -> Self {
        let v: Vec<Template> = elems.into_iter().collect();
        assert!(v.len() >= 2, "a tuple template needs at least two elements");
        Template::Tuple(v)
    }

    /// Keyed tuple template `KEY : t…`.
    pub fn keyed(key: impl AsRef<str>, rest: impl IntoIterator<Item = Template>) -> Self {
        let mut v = vec![Template::sym(key)];
        v.extend(rest);
        Template::tuple(v)
    }

    /// Subsolution template.
    pub fn sub(elems: impl IntoIterator<Item = Template>) -> Self {
        Template::Sub(elems.into_iter().collect())
    }

    /// Empty subsolution template `⟨⟩`.
    pub fn empty_sub() -> Self {
        Template::Sub(Vec::new())
    }

    /// Extern call template.
    pub fn call(name: impl Into<String>, args: impl IntoIterator<Item = Template>) -> Self {
        Template::Call(name.into(), args.into_iter().collect())
    }

    /// Rule atom template.
    pub fn rule(rule: Rule) -> Self {
        Template::RuleLit(Arc::new(rule))
    }

    /// Rule atom template from a shared rule.
    pub fn rule_arc(rule: Arc<Rule>) -> Self {
        Template::RuleLit(rule)
    }

    /// Number of `Call` nodes in this template (used by the engine to locate
    /// the deferred call when resuming a suspended application).
    pub fn count_calls(&self) -> usize {
        match self {
            Template::Call(_, args) => 1 + args.iter().map(Template::count_calls).sum::<usize>(),
            Template::Tuple(v) | Template::Sub(v) | Template::List(v) => {
                v.iter().map(Template::count_calls).sum()
            }
            _ => 0,
        }
    }

    /// Extern name of the `Call` node `*index` calls further on in the
    /// numbering of [`Template::count_calls`], counting `index` down past
    /// the calls before it.
    pub(crate) fn call_at(&self, index: &mut usize) -> Option<&str> {
        match self {
            Template::Call(name, args) => match index.checked_sub(1) {
                None => Some(name),
                Some(rest) => {
                    *index = rest;
                    args.iter().find_map(|a| a.call_at(index))
                }
            },
            Template::Tuple(v) | Template::Sub(v) | Template::List(v) => {
                v.iter().find_map(|t| t.call_at(index))
            }
            _ => None,
        }
    }

    /// Visit every variable occurrence in build order, with whether the
    /// build reads it — `false` inside extern-call arguments, which the
    /// probe reads by reference (how a rule resolves slots and last uses).
    pub(crate) fn vars_mut(&mut self, f: &mut impl FnMut(&mut Var, bool)) {
        self.walk_vars(f, true);
    }

    fn walk_vars(&mut self, f: &mut impl FnMut(&mut Var, bool), built: bool) {
        match self {
            Template::Var(v) => f(v, built),
            Template::Tuple(v) | Template::Sub(v) | Template::List(v) => {
                for t in v {
                    t.walk_vars(f, built);
                }
            }
            Template::Call(_, args) => {
                for a in args {
                    a.walk_vars(f, false);
                }
            }
            Template::Lit(_) | Template::RuleLit(_) => {}
        }
    }
}

/// Instantiation of a right-hand side, in two passes.
///
/// **Probe** ([`Instantiator::probe`]) runs by reference, before the
/// solution is touched: it performs every extern `Call` of the RHS in
/// traversal order (evaluating call arguments from the borrowed bindings),
/// checks that every variable is bound and that every tuple element yields
/// exactly one atom, and keeps the calls' results. Anything that can fail
/// fails here, so a failing extern or an unbound variable leaves the
/// solution exactly as it was.
///
/// **Build** ([`build`]) runs once the reactants have been taken out of the
/// solution and destructured into owned [`Bindings`]: it assembles the
/// produced atoms *consuming* the bindings — a variable's last occurrence
/// outside call arguments moves its atoms, earlier ones clone — and splices
/// the probed call results in. An ω rest moved into a subsolution template
/// becomes that subsolution's storage (`Multiset::absorb`), so
/// `SRC:<?t,*ws>` → `SRC:<*ws>` and `IN:<*win>` → `IN:<(?t:?v),*win>`
/// reuse the vectors they matched. Build cannot fail.
pub struct Instantiator<'h> {
    /// The extern host used for `Call` templates.
    pub host: &'h mut dyn ExternHost,
    /// Traversal index of the next `Call` node encountered.
    call_index: usize,
    /// If set, the call at this index is *not* executed: `resume_atoms` are
    /// spliced instead (resume path of a suspended application).
    substitute_call: Option<usize>,
    /// Atoms to splice at `substitute_call`.
    resume_atoms: Vec<Atom>,
    /// Count of extern calls already executed (side effects!) — must be
    /// zero when a call defers, for the suspension to be safe.
    effects: usize,
    /// Results of the RHS's outermost calls, in traversal order.
    calls: Vec<Vec<Atom>>,
}

/// Result of probing a full RHS.
pub enum Probed {
    /// Every call completed and the RHS is well-formed under the bindings;
    /// hand the results to [`build`].
    Ready(Calls),
    /// A deferred extern was encountered. Nothing may be inserted; the
    /// engine must suspend.
    Deferred(Deferral),
}

/// The results of a probed RHS's extern calls, for [`build`] to splice in.
pub struct Calls(Vec<Vec<Atom>>);

/// An extern call the host could not complete synchronously.
pub struct Deferral {
    /// Traversal index of the deferred `Call` node.
    pub call_index: usize,
    /// The evaluated arguments of the deferred call.
    pub args: Vec<Atom>,
}

/// Why a probe stopped early.
enum Stop {
    Failed(HoclError),
    Deferred(Deferral),
}

impl From<HoclError> for Stop {
    fn from(e: HoclError) -> Self {
        Stop::Failed(e)
    }
}

impl<'h> Instantiator<'h> {
    /// Fresh instantiator for a first pass.
    pub fn new(host: &'h mut dyn ExternHost) -> Self {
        Instantiator {
            host,
            call_index: 0,
            substitute_call: None,
            resume_atoms: Vec::new(),
            effects: 0,
            calls: Vec::new(),
        }
    }

    /// Instantiator for the resume pass: the call at `call_index` is
    /// replaced by `atoms` instead of being executed.
    pub fn resuming(host: &'h mut dyn ExternHost, call_index: usize, atoms: Vec<Atom>) -> Self {
        Instantiator {
            substitute_call: Some(call_index),
            resume_atoms: atoms,
            ..Instantiator::new(host)
        }
    }

    /// Probe a full RHS (a sequence of templates) under `bindings`, by
    /// reference: run its extern calls and check it can be built.
    pub fn probe(
        mut self,
        templates: &[Template],
        bindings: &dyn Lookup,
    ) -> Result<Probed, HoclError> {
        for t in templates {
            match self.count(t, bindings) {
                Ok(_) => {}
                Err(Stop::Failed(e)) => return Err(e),
                Err(Stop::Deferred(deferral)) => return Ok(Probed::Deferred(deferral)),
            }
        }
        Ok(Probed::Ready(Calls(self.calls)))
    }

    /// Probe one template: how many atoms it yields (ω bindings and extern
    /// results may yield several). Outermost calls leave their result in
    /// `self.calls`.
    fn count(&mut self, t: &Template, bindings: &dyn Lookup) -> Result<usize, Stop> {
        Ok(match t {
            Template::Lit(_) | Template::RuleLit(_) => 1,
            Template::Var(var) => match bindings.lookup(var) {
                Some(Bound::One(_)) => 1,
                Some(Bound::Rest(rest)) => rest.len(),
                None => return Err(HoclError::UnboundVar(var.name().to_owned()).into()),
            },
            Template::Tuple(elems) => {
                for e in elems {
                    if self.count(e, bindings)? != 1 {
                        return Err(omega_in_scalar_position(e).into());
                    }
                }
                1
            }
            Template::Sub(elems) | Template::List(elems) => {
                for e in elems {
                    self.count(e, bindings)?;
                }
                1
            }
            Template::Call(name, args) => {
                let atoms = self.call(name, args, bindings)?;
                self.calls.push(atoms);
                self.calls.last().map_or(0, Vec::len)
            }
        })
    }

    /// Perform one extern call: evaluate its arguments by reference, then
    /// ask the host (or splice the resume atoms at the substituted call).
    fn call(
        &mut self,
        name: &str,
        args: &[Template],
        bindings: &dyn Lookup,
    ) -> Result<Vec<Atom>, Stop> {
        // The parent reserves its index before recursing into its
        // arguments, matching `count_calls` traversal.
        let my_index = self.call_index;
        self.call_index += 1;
        let mut arg_atoms = Vec::with_capacity(args.len());
        for a in args {
            self.eval_arg(a, bindings, &mut arg_atoms)?;
        }
        if self.substitute_call == Some(my_index) {
            return Ok(std::mem::take(&mut self.resume_atoms));
        }
        match self.host.call(name, &arg_atoms)? {
            ExternResult::Atoms(atoms) => {
                self.effects += 1;
                Ok(atoms)
            }
            ExternResult::Deferred if self.effects > 0 => {
                Err(HoclError::MultipleDeferred(name.to_owned()).into())
            }
            ExternResult::Deferred => Err(Stop::Deferred(Deferral {
                call_index: my_index,
                args: arg_atoms,
            })),
        }
    }

    /// Evaluate a template inside a call's argument list into `out`, by
    /// reference: externs take `&[Atom]`, so arguments are copies and the
    /// bindings stay whole for the build pass.
    fn eval_arg(
        &mut self,
        t: &Template,
        bindings: &dyn Lookup,
        out: &mut Vec<Atom>,
    ) -> Result<(), Stop> {
        match t {
            Template::Lit(a) => out.push(a.clone()),
            Template::RuleLit(r) => out.push(Atom::Rule(r.clone())),
            Template::Var(var) => match bindings.lookup(var) {
                Some(Bound::One(a)) => out.push(a.clone()),
                Some(Bound::Rest(rest)) => out.extend(rest.iter().cloned()),
                None => return Err(HoclError::UnboundVar(var.name().to_owned()).into()),
            },
            Template::Tuple(elems) => {
                let mut tup = Vec::with_capacity(elems.len());
                for e in elems {
                    let before = tup.len();
                    self.eval_arg(e, bindings, &mut tup)?;
                    if tup.len() != before + 1 {
                        return Err(omega_in_scalar_position(e).into());
                    }
                }
                out.push(Atom::Tuple(tup));
            }
            Template::Sub(elems) | Template::List(elems) => {
                let mut inner = Vec::new();
                for e in elems {
                    self.eval_arg(e, bindings, &mut inner)?;
                }
                out.push(match t {
                    Template::Sub(_) => Atom::sub(inner),
                    _ => Atom::List(inner),
                });
            }
            Template::Call(name, args) => out.extend(self.call(name, args, bindings)?),
        }
        Ok(())
    }
}

/// The error for a tuple element that does not yield exactly one atom.
fn omega_in_scalar_position(t: &Template) -> HoclError {
    HoclError::OmegaInScalarPosition(match t {
        Template::Var(v) => v.name().to_owned(),
        _ => format!("{t}"),
    })
}

/// Build a probed RHS into `out`, consuming the bindings (see
/// [`Instantiator`]).
///
/// `templates` must be the RHS of the rule whose slots `bindings` holds,
/// `bindings` must bind what the probe's bindings bound and `calls` must
/// come from probing these `templates`; the engine guarantees all three,
/// and a violation is a bug that panics here. Variables the RHS does not
/// build are left in `bindings`.
pub fn build(templates: &[Template], bindings: &mut Bindings, calls: Calls, out: &mut Multiset) {
    let mut builder = Builder {
        bindings,
        calls: calls.0.into_iter(),
    };
    for t in templates {
        builder.emit(t, out);
    }
}

/// State of the build pass.
struct Builder<'b> {
    bindings: &'b mut Bindings,
    calls: std::vec::IntoIter<Vec<Atom>>,
}

impl Builder<'_> {
    /// The binding of `var`: moved out at the variable's last occurrence,
    /// cloned before.
    fn binding(&mut self, var: &Var) -> Binding {
        let binding = if var.is_last() {
            self.bindings.take(var.slot())
        } else {
            self.bindings.get(var.slot()).cloned()
        };
        binding.expect("the probe found every variable of the RHS bound")
    }

    /// Emit one template into `out`, splicing ω bindings and extern
    /// results (several atoms allowed).
    fn emit(&mut self, t: &Template, out: &mut Multiset) {
        match t {
            Template::Var(var) => match self.binding(var) {
                Binding::One(a) => out.insert(a),
                Binding::Many(ms) => out.absorb(ms),
            },
            Template::Call(..) => out.extend(self.call_result()),
            single => out.insert(self.emit_one(single)),
        }
    }

    /// Emit a template that yields exactly one atom: anything but a
    /// variable or a call, or those in a tuple element (the probe checked).
    fn emit_one(&mut self, t: &Template) -> Atom {
        let only = "the probe checked that tuple elements yield one atom";
        match t {
            Template::Lit(a) => a.clone(),
            Template::RuleLit(r) => Atom::Rule(r.clone()),
            Template::Tuple(elems) => Atom::Tuple(elems.iter().map(|e| self.emit_one(e)).collect()),
            Template::Sub(elems) => Atom::Sub(self.emit_all(elems)),
            Template::List(elems) => Atom::List(self.emit_all(elems).into_vec()),
            Template::Var(var) => match self.binding(var) {
                Binding::One(a) => a,
                Binding::Many(ms) => ms.into_vec().pop().expect(only),
            },
            Template::Call(..) => self.call_result().pop().expect(only),
        }
    }

    /// Emit a subsolution or list body.
    fn emit_all(&mut self, elems: &[Template]) -> Multiset {
        let mut inner = Multiset::new();
        for e in elems {
            self.emit(e, &mut inner);
        }
        inner
    }

    /// The probed result of the next outermost call.
    fn call_result(&mut self) -> Vec<Atom> {
        self.calls
            .next()
            .expect("the probe ran every outermost call of the RHS")
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Template::Lit(a) => write!(f, "{a}"),
            Template::Var(v) => write!(f, "?{v}"),
            Template::Tuple(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(":")?;
                    }
                    match t {
                        Template::Tuple(_) => write!(f, "({t})")?,
                        _ => write!(f, "{t}")?,
                    }
                }
                Ok(())
            }
            Template::Sub(ts) => {
                f.write_str("<")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{t}")?;
                }
                f.write_str(">")
            }
            Template::List(ts) => {
                f.write_str("[")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{t}")?;
                }
                f.write_str("]")
            }
            Template::Call(n, args) => {
                write!(f, "{n}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Template::RuleLit(r) => write!(f, "{}", r.name()),
        }
    }
}

impl fmt::Debug for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::externs::{NoExterns, PureExterns};

    /// `ts` as the RHS of a rule whose first slots are the names of
    /// `pairs`, and the bindings of those slots.
    fn bound(ts: &[Template], pairs: &[(&str, Binding)]) -> (Rule, Bindings) {
        let names = pairs.iter().map(|(k, _)| (*k).to_owned()).collect();
        let rule = Rule::remainder("t".into(), ts.to_vec(), names);
        let mut b = Bindings::default();
        b.reset(rule.slot_count());
        for (slot, (_, v)) in pairs.iter().enumerate() {
            match v {
                Binding::One(a) => assert!(b.bind_one(slot, a.clone())),
                Binding::Many(ms) => assert!(b.bind_many(slot, ms.clone())),
            }
        }
        (rule, b)
    }

    /// Probe then build, as the engine does; the inner `Err` is a deferral.
    fn instantiate(
        inst: Instantiator<'_>,
        ts: &[Template],
        pairs: &[(&str, Binding)],
    ) -> Result<Result<Vec<Atom>, Probed>, HoclError> {
        let (rule, mut b) = bound(ts, pairs);
        Ok(match inst.probe(rule.rhs(), &b)? {
            Probed::Ready(calls) => {
                let mut out = Multiset::new();
                build(rule.rhs(), &mut b, calls, &mut out);
                Ok(out.into_vec())
            }
            deferred => Err(deferred),
        })
    }

    fn produce(ts: &[Template], pairs: &[(&str, Binding)]) -> Vec<Atom> {
        let mut host = PureExterns::new();
        match instantiate(Instantiator::new(&mut host), ts, pairs).unwrap() {
            Ok(atoms) => atoms,
            Err(_) => panic!("unexpected deferral"),
        }
    }

    fn many(atoms: impl IntoIterator<Item = Atom>) -> Binding {
        Binding::Many(atoms.into_iter().collect())
    }

    #[test]
    fn literals_and_vars() {
        let b = [("x", Binding::One(Atom::int(7)))];
        let out = produce(&[Template::lit(1i64), Template::var("x")], &b);
        assert_eq!(out, vec![Atom::int(1), Atom::int(7)]);
        // Used twice: the first occurrence clones, the last one moves.
        let twice = [Template::var("x"), Template::lit(1i64), Template::var("x")];
        let (rule, _) = bound(&twice, &b);
        let last: Vec<bool> = rule
            .rhs()
            .iter()
            .filter_map(|t| match t {
                Template::Var(v) => Some(v.is_last()),
                _ => None,
            })
            .collect();
        assert_eq!(last, vec![false, true]);
        assert_eq!(
            produce(&twice, &b),
            vec![Atom::int(7), Atom::int(1), Atom::int(7)]
        );
    }

    #[test]
    fn omega_splices_in_sub() {
        let b = [("w", many([Atom::int(1), Atom::int(2)]))];
        let out = produce(
            &[Template::keyed("IN", [Template::sub([Template::var("w")])])],
            &b,
        );
        assert_eq!(
            out,
            vec![Atom::keyed("IN", [Atom::sub([Atom::int(1), Atom::int(2)])])]
        );
    }

    #[test]
    fn omega_splices_at_top_level() {
        // The `clean` rule's RHS is just `ω` — contents spill into the outer
        // solution.
        let b = [("w", many([Atom::int(9), Atom::sym("K")]))];
        let out = produce(&[Template::var("w")], &b);
        assert_eq!(out, vec![Atom::int(9), Atom::sym("K")]);
    }

    #[test]
    fn omega_in_tuple_position_errors() {
        let b = [("w", many([Atom::int(1), Atom::int(2)]))];
        let mut host = NoExterns;
        let inst = Instantiator::new(&mut host);
        let err = instantiate(inst, &[Template::keyed("K", [Template::var("w")])], &b)
            .err()
            .expect("an ω of two atoms cannot be a tuple element");
        assert!(matches!(err, HoclError::OmegaInScalarPosition(v) if v == "w"));
    }

    #[test]
    fn pure_call_splices_result() {
        let b = [("w", many([Atom::tuple([Atom::sym("T1"), Atom::int(5)])]))];
        let out = produce(
            &[Template::keyed(
                "PAR",
                [Template::call("list", [Template::var("w")])],
            )],
            &b,
        );
        assert_eq!(out, vec![Atom::keyed("PAR", [Atom::list([Atom::int(5)])])]);
    }

    #[test]
    fn deferred_call_reports_index_and_args() {
        struct Deferring;
        impl ExternHost for Deferring {
            fn call(&mut self, name: &str, _args: &[Atom]) -> Result<ExternResult, HoclError> {
                if name == "invoke" {
                    Ok(ExternResult::Deferred)
                } else {
                    Ok(ExternResult::Atoms(vec![]))
                }
            }
        }
        let rhs = [Template::keyed(
            "RES",
            [Template::sub([Template::call(
                "invoke",
                [Template::var("s")],
            )])],
        )];
        let (rule, b) = bound(&rhs, &[("s", Binding::One(Atom::sym("s2")))]);
        let mut host = Deferring;
        match Instantiator::new(&mut host).probe(rule.rhs(), &b).unwrap() {
            Probed::Deferred(deferral) => {
                assert_eq!(deferral.call_index, 0);
                assert_eq!(deferral.args, vec![Atom::sym("s2")]);
                assert_eq!(rule.call_name(deferral.call_index), Some("invoke"));
            }
            Probed::Ready(_) => panic!("expected deferral"),
        }
    }

    #[test]
    fn resume_substitutes_deferred_call() {
        let mut host = NoExterns;
        let inst = Instantiator::resuming(&mut host, 0, vec![Atom::str("result")]);
        let rhs = [Template::keyed(
            "RES",
            [Template::sub([Template::call("invoke", [])])],
        )];
        match instantiate(inst, &rhs, &[]).unwrap() {
            Ok(atoms) => assert_eq!(
                atoms,
                vec![Atom::keyed("RES", [Atom::sub([Atom::str("result")])])]
            ),
            Err(_) => panic!("must not defer on resume"),
        }
    }

    #[test]
    fn count_calls_matches_traversal() {
        let t = Template::sub([
            Template::call("a", [Template::call("b", [])]),
            Template::call("c", []),
        ]);
        assert_eq!(t.count_calls(), 3);
        let names: Vec<Option<&str>> = (0..4).map(|i| t.call_at(&mut { i })).collect();
        assert_eq!(names, vec![Some("a"), Some("b"), Some("c"), None]);
    }
}
