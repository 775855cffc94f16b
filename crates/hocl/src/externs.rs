//! External functions — HOCL's escape hatch to the host system.
//!
//! The original HOCL interpreter could call Java methods from rules; GinFlow
//! uses that to invoke services (`invoke(s, params)`) and, in decentralised
//! mode, to send messages between agents. We model three behaviours behind a
//! single trait:
//!
//! * **pure** calls return atoms immediately and have no side effects
//!   (usable in guards);
//! * **command** calls have a side effect on the host (e.g. enqueue an
//!   outgoing message) and return atoms immediately (usually none);
//! * **deferred** calls cannot complete synchronously: the host returns
//!   [`ExternResult::Deferred`], the engine suspends the rule application
//!   and hands back an [`crate::engine::StepOutcome::Suspended`] effect that
//!   the runtime later resolves via `Engine::resume`.

use crate::atom::Atom;
use crate::error::HoclError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a suspended (deferred) rule application.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EffectId(pub u64);

/// Result of one extern call.
pub enum ExternResult {
    /// The call completed; these atoms are spliced at the call site.
    Atoms(Vec<Atom>),
    /// The call cannot complete now; suspend the rule application.
    Deferred,
}

/// The host interface the engine calls external functions through.
///
/// A host is passed to every `reduce`/`resume` call, which keeps the engine
/// itself free of callbacks and threads: the *caller* decides what `invoke`
/// or `send` mean in its world (synchronous call, thread pool, simulated
/// event, …).
pub trait ExternHost {
    /// Execute the named extern on the given argument atoms.
    fn call(&mut self, name: &str, args: &[Atom]) -> Result<ExternResult, HoclError>;
}

/// A host providing no externs at all. Rules that avoid extern calls (such
/// as the paper's `getMax`) reduce fine with it.
pub struct NoExterns;

impl ExternHost for NoExterns {
    fn call(&mut self, name: &str, _args: &[Atom]) -> Result<ExternResult, HoclError> {
        Err(HoclError::UnknownExtern(name.to_owned()))
    }
}

/// Signature of a pure extern function.
pub type PureFn = fn(&[Atom]) -> Result<Vec<Atom>, HoclError>;

/// The *pure* externs: the built-ins every GinFlow deployment needs plus
/// whatever the embedder registers, usable standalone or embedded in a
/// bigger host (delegate to [`PureExterns::call`] as a fallback).
///
/// Built-ins (dispatched by name, so a fresh registry allocates nothing: a
/// service agent makes one per event):
///
/// | name       | behaviour                                                      |
/// |------------|----------------------------------------------------------------|
/// | `list`     | wrap all argument atoms into one list atom (paper's `list(ω)`); provenance-tagged `from : value` pairs are sorted by tag and unwrapped |
/// | `concat`   | string concatenation                                           |
/// | `len`      | length of a list / string / subsolution                        |
/// | `add`/`sub`/`mul` | integer (or float) arithmetic                           |
/// | `first`    | head of a list                                                 |
/// | `is_error` | `true` iff the single argument is the `ERROR` symbol           |
#[derive(Default)]
pub struct PureExterns {
    /// Externs added (or built-ins replaced) with [`PureExterns::register`].
    registered: HashMap<String, PureFn>,
}

/// The built-in of that name, if there is one.
fn builtin(name: &str) -> Option<PureFn> {
    Some(match name {
        "list" => builtin_list,
        "concat" => builtin_concat,
        "len" => builtin_len,
        "add" => builtin_add,
        "sub" => builtin_sub,
        "mul" => builtin_mul,
        "first" => builtin_first,
        "is_error" => builtin_is_error,
        _ => return None,
    })
}

impl PureExterns {
    /// Registry holding the built-ins listed in the type docs.
    pub fn new() -> Self {
        PureExterns::default()
    }

    /// Register (or replace) a pure extern.
    pub fn register(&mut self, name: impl Into<String>, f: PureFn) {
        self.registered.insert(name.into(), f);
    }

    /// The extern of that name: a registered one first, else a built-in.
    fn get(&self, name: &str) -> Option<PureFn> {
        self.registered.get(name).copied().or_else(|| builtin(name))
    }

    /// Does the registry provide `name`?
    pub fn provides(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
}

impl ExternHost for PureExterns {
    fn call(&mut self, name: &str, args: &[Atom]) -> Result<ExternResult, HoclError> {
        match self.get(name) {
            Some(f) => f(args).map(ExternResult::Atoms),
            None => Err(HoclError::UnknownExtern(name.to_owned())),
        }
    }
}

/// `list(ω)` — build the service parameter list.
///
/// GinFlow tags every datum entering `IN` with its provenance (`T1 : value`
/// tuples; workflow-initial inputs use the `INPUT` tag). `list` sorts the
/// tagged pairs by tag for a *deterministic* parameter order — the paper
/// leaves multiset order unspecified — strips the tags, and wraps the values
/// into a single list atom. Untagged atoms are passed through as-is.
fn builtin_list(args: &[Atom]) -> Result<Vec<Atom>, HoclError> {
    let mut tagged: Vec<(&str, Atom)> = Vec::with_capacity(args.len());
    for a in args {
        match a {
            Atom::Tuple(v) if v.len() == 2 && v[0].as_sym().is_some() => {
                tagged.push((v[0].as_sym().expect("checked").as_str(), v[1].clone()));
            }
            other => tagged.push(("", other.clone())),
        }
    }
    tagged.sort_by(|a, b| a.0.cmp(b.0));
    Ok(vec![Atom::List(
        tagged.into_iter().map(|(_, v)| v).collect(),
    )])
}

fn builtin_concat(args: &[Atom]) -> Result<Vec<Atom>, HoclError> {
    let mut out = String::new();
    for a in args {
        match a {
            Atom::Str(s) => out.push_str(s),
            other => out.push_str(&other.to_string()),
        }
    }
    Ok(vec![Atom::Str(out)])
}

fn builtin_len(args: &[Atom]) -> Result<Vec<Atom>, HoclError> {
    match args {
        [Atom::List(v)] => Ok(vec![Atom::Int(v.len() as i64)]),
        [Atom::Str(s)] => Ok(vec![Atom::Int(s.len() as i64)]),
        [Atom::Sub(ms)] => Ok(vec![Atom::Int(ms.len() as i64)]),
        _ => Err(HoclError::ExternFailed {
            name: "len".into(),
            reason: "expected one list, string or subsolution".into(),
        }),
    }
}

fn numeric_fold(
    name: &str,
    args: &[Atom],
    int_op: fn(i64, i64) -> i64,
    float_op: fn(f64, f64) -> f64,
) -> Result<Vec<Atom>, HoclError> {
    let mut iter = args.iter();
    let mut acc = iter
        .next()
        .cloned()
        .ok_or_else(|| HoclError::ExternFailed {
            name: name.to_owned(),
            reason: "needs at least one argument".into(),
        })?;
    for a in iter {
        acc = match (acc, a) {
            (Atom::Int(x), Atom::Int(y)) => Atom::Int(int_op(x, *y)),
            (Atom::Float(x), Atom::Float(y)) => Atom::Float(float_op(x, *y)),
            (Atom::Int(x), Atom::Float(y)) => Atom::Float(float_op(x as f64, *y)),
            (Atom::Float(x), Atom::Int(y)) => Atom::Float(float_op(x, *y as f64)),
            _ => {
                return Err(HoclError::ExternFailed {
                    name: name.to_owned(),
                    reason: "non-numeric argument".into(),
                })
            }
        };
    }
    Ok(vec![acc])
}

fn builtin_add(args: &[Atom]) -> Result<Vec<Atom>, HoclError> {
    numeric_fold("add", args, i64::wrapping_add, |a, b| a + b)
}

fn builtin_sub(args: &[Atom]) -> Result<Vec<Atom>, HoclError> {
    numeric_fold("sub", args, i64::wrapping_sub, |a, b| a - b)
}

fn builtin_mul(args: &[Atom]) -> Result<Vec<Atom>, HoclError> {
    numeric_fold("mul", args, i64::wrapping_mul, |a, b| a * b)
}

fn builtin_first(args: &[Atom]) -> Result<Vec<Atom>, HoclError> {
    match args {
        [Atom::List(v)] if !v.is_empty() => Ok(vec![v[0].clone()]),
        _ => Err(HoclError::ExternFailed {
            name: "first".into(),
            reason: "expected one non-empty list".into(),
        }),
    }
}

fn builtin_is_error(args: &[Atom]) -> Result<Vec<Atom>, HoclError> {
    match args {
        [a] => Ok(vec![Atom::Bool(
            a.as_sym()
                .map(|s| s.as_str() == crate::symbol::keywords::ERROR)
                == Some(true),
        )]),
        _ => Err(HoclError::ExternFailed {
            name: "is_error".into(),
            reason: "expected exactly one argument".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(host: &mut PureExterns, name: &str, args: &[Atom]) -> Vec<Atom> {
        match host.call(name, args).unwrap() {
            ExternResult::Atoms(v) => v,
            ExternResult::Deferred => panic!("pure extern deferred"),
        }
    }

    #[test]
    fn list_sorts_by_provenance_and_strips_tags() {
        let mut h = PureExterns::new();
        let out = call(
            &mut h,
            "list",
            &[
                Atom::tuple([Atom::sym("T3"), Atom::str("c")]),
                Atom::tuple([Atom::sym("T1"), Atom::str("a")]),
                Atom::tuple([Atom::sym("T2"), Atom::str("b")]),
            ],
        );
        assert_eq!(
            out,
            vec![Atom::list([Atom::str("a"), Atom::str("b"), Atom::str("c")])]
        );
    }

    #[test]
    fn list_passes_untagged_atoms_through() {
        let mut h = PureExterns::new();
        let out = call(&mut h, "list", &[Atom::int(7)]);
        assert_eq!(out, vec![Atom::list([Atom::int(7)])]);
    }

    #[test]
    fn arithmetic_and_strings() {
        let mut h = PureExterns::new();
        assert_eq!(
            call(&mut h, "add", &[Atom::int(2), Atom::int(3)]),
            vec![Atom::int(5)]
        );
        assert_eq!(
            call(&mut h, "mul", &[Atom::int(2), Atom::float(1.5)]),
            vec![Atom::float(3.0)]
        );
        assert_eq!(
            call(&mut h, "concat", &[Atom::str("a"), Atom::str("b")]),
            vec![Atom::str("ab")]
        );
        assert_eq!(
            call(&mut h, "len", &[Atom::list([Atom::int(1), Atom::int(2)])]),
            vec![Atom::int(2)]
        );
    }

    #[test]
    fn is_error_detects_the_error_symbol() {
        let mut h = PureExterns::new();
        assert_eq!(
            call(&mut h, "is_error", &[Atom::sym("ERROR")]),
            vec![Atom::bool(true)]
        );
        assert_eq!(
            call(&mut h, "is_error", &[Atom::str("ok")]),
            vec![Atom::bool(false)]
        );
    }

    #[test]
    fn unknown_extern_errors() {
        let mut h = PureExterns::new();
        assert!(matches!(
            h.call("nope", &[]),
            Err(HoclError::UnknownExtern(_))
        ));
        assert!(matches!(
            NoExterns.call("list", &[]),
            Err(HoclError::UnknownExtern(_))
        ));
    }

    #[test]
    fn custom_registration() {
        let mut h = PureExterns::new();
        h.register("answer", |_| Ok(vec![Atom::int(42)]));
        assert!(h.provides("answer"));
        assert_eq!(call(&mut h, "answer", &[]), vec![Atom::int(42)]);
    }
}
