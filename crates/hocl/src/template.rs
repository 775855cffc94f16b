//! Templates: the right-hand side of reaction rules.
//!
//! Applying a rule instantiates its templates under the match bindings and
//! inserts the produced atoms into the solution. ω bindings splice (expand
//! to several atoms) wherever a variable number of atoms is legal: the rule
//! RHS itself, subsolution bodies, list bodies and extern argument lists —
//! but not tuple elements.

use crate::atom::Atom;
use crate::bindings::{Binding, Bindings, Bound, Lookup};
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
    Var(String),
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
        Template::Var(name.into())
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
    /// Name of the deferred extern.
    pub name: String,
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
            Template::Var(name) => match bindings.lookup(name) {
                Some(Bound::One(_)) => 1,
                Some(Bound::Rest(rest)) => rest.len(),
                None => return Err(HoclError::UnboundVar(name.clone()).into()),
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
                name: name.to_owned(),
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
            Template::Var(name) => match bindings.lookup(name) {
                Some(Bound::One(a)) => out.push(a.clone()),
                Some(Bound::Rest(rest)) => out.extend(rest.iter().cloned()),
                None => return Err(HoclError::UnboundVar(name.clone()).into()),
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
        Template::Var(v) => v.clone(),
        _ => format!("{t}"),
    })
}

/// Build a probed RHS, consuming the bindings (see [`Instantiator`]).
///
/// `bindings` must bind what the probe's bindings bound and `calls` must
/// come from probing these `templates`; the engine guarantees both, and a
/// violation is a bug that panics here.
pub fn build(templates: &[Template], bindings: Bindings, calls: Calls) -> Multiset {
    let mut uses = Vec::new();
    for t in templates {
        count_uses(t, &mut uses);
    }
    let mut builder = Builder {
        bindings,
        uses,
        calls: calls.0.into_iter(),
    };
    let mut out = Multiset::new();
    for t in templates {
        builder.emit(t, &mut out);
    }
    out
}

/// Occurrences of each variable outside call arguments (those are read by
/// the probe, by reference).
fn count_uses<'t>(t: &'t Template, uses: &mut Vec<(&'t str, usize)>) {
    match t {
        Template::Var(name) => match uses.iter_mut().find(|(n, _)| n == name) {
            Some((_, count)) => *count += 1,
            None => uses.push((name, 1)),
        },
        Template::Tuple(elems) | Template::Sub(elems) | Template::List(elems) => {
            for e in elems {
                count_uses(e, uses);
            }
        }
        Template::Lit(_) | Template::RuleLit(_) | Template::Call(..) => {}
    }
}

/// State of the build pass.
struct Builder<'t> {
    bindings: Bindings,
    /// Occurrences of each variable still to come.
    uses: Vec<(&'t str, usize)>,
    calls: std::vec::IntoIter<Vec<Atom>>,
}

impl Builder<'_> {
    /// The binding of `name`: moved out at the variable's last occurrence,
    /// cloned before.
    fn binding(&mut self, name: &str) -> Binding {
        let left = self
            .uses
            .iter_mut()
            .find(|(n, _)| *n == name)
            .map(|(_, count)| {
                *count -= 1;
                *count
            });
        let binding = match left {
            Some(0) => self.bindings.take(name),
            _ => self.bindings.get(name).cloned(),
        };
        binding.expect("the probe found every variable of the RHS bound")
    }

    /// Emit one template into `out`, splicing ω bindings and extern
    /// results (several atoms allowed).
    fn emit(&mut self, t: &Template, out: &mut Multiset) {
        match t {
            Template::Var(name) => match self.binding(name) {
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
            Template::Var(name) => match self.binding(name) {
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

    fn bindings(pairs: &[(&str, Binding)]) -> Bindings {
        let mut b = Bindings::new();
        for (k, v) in pairs {
            match v {
                Binding::One(a) => assert!(b.bind_one(k, a.clone())),
                Binding::Many(ms) => assert!(b.bind_many(k, ms.clone())),
            }
        }
        b
    }

    /// Probe then build, as the engine does; the inner `Err` is a deferral.
    fn instantiate(
        inst: Instantiator<'_>,
        ts: &[Template],
        b: &Bindings,
    ) -> Result<Result<Vec<Atom>, Probed>, HoclError> {
        Ok(match inst.probe(ts, b)? {
            Probed::Ready(calls) => Ok(build(ts, b.clone(), calls).into_vec()),
            deferred => Err(deferred),
        })
    }

    fn produce(ts: &[Template], b: &Bindings) -> Vec<Atom> {
        let mut host = PureExterns::new();
        match instantiate(Instantiator::new(&mut host), ts, b).unwrap() {
            Ok(atoms) => atoms,
            Err(_) => panic!("unexpected deferral"),
        }
    }

    #[test]
    fn literals_and_vars() {
        let b = bindings(&[("x", Binding::One(Atom::int(7)))]);
        let out = produce(&[Template::lit(1i64), Template::var("x")], &b);
        assert_eq!(out, vec![Atom::int(1), Atom::int(7)]);
    }

    #[test]
    fn omega_splices_in_sub() {
        let b = bindings(&[("w", Binding::Many(vec![Atom::int(1), Atom::int(2)].into()))]);
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
        let b = bindings(&[(
            "w",
            Binding::Many(vec![Atom::int(9), Atom::sym("K")].into()),
        )]);
        let out = produce(&[Template::var("w")], &b);
        assert_eq!(out, vec![Atom::int(9), Atom::sym("K")]);
    }

    #[test]
    fn omega_in_tuple_position_errors() {
        let b = bindings(&[("w", Binding::Many(vec![Atom::int(1), Atom::int(2)].into()))]);
        let mut host = NoExterns;
        let inst = Instantiator::new(&mut host);
        let err = instantiate(inst, &[Template::keyed("K", [Template::var("w")])], &b)
            .err()
            .expect("an ω of two atoms cannot be a tuple element");
        assert!(matches!(err, HoclError::OmegaInScalarPosition(_)));
    }

    #[test]
    fn pure_call_splices_result() {
        let b = bindings(&[(
            "w",
            Binding::Many(vec![Atom::tuple([Atom::sym("T1"), Atom::int(5)])].into()),
        )]);
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
        let b = bindings(&[("s", Binding::One(Atom::sym("s2")))]);
        let mut host = Deferring;
        let inst = Instantiator::new(&mut host);
        let rhs = [Template::keyed(
            "RES",
            [Template::sub([Template::call(
                "invoke",
                [Template::var("s")],
            )])],
        )];
        match inst.probe(&rhs, &b).unwrap() {
            Probed::Deferred(deferral) => {
                assert_eq!(deferral.call_index, 0);
                assert_eq!(deferral.args, vec![Atom::sym("s2")]);
                assert_eq!(deferral.name, "invoke");
            }
            Probed::Ready(_) => panic!("expected deferral"),
        }
    }

    #[test]
    fn resume_substitutes_deferred_call() {
        let b = Bindings::new();
        let mut host = NoExterns;
        let inst = Instantiator::resuming(&mut host, 0, vec![Atom::str("result")]);
        let rhs = [Template::keyed(
            "RES",
            [Template::sub([Template::call("invoke", [])])],
        )];
        match instantiate(inst, &rhs, &b).unwrap() {
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
    }
}
