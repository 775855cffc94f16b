//! HOCLflow's external functions.
//!
//! Beyond the `hocl` built-ins (`list`, `is_error`, …) the workflow rules
//! use:
//!
//! * [`names::INVOKE`] — service invocation. *Hosts* decide its behaviour:
//!   synchronous in the centralized executor, deferred in service agents.
//! * [`names::SEND_RESULT`] — command: ship a result to a peer agent.
//! * [`names::ADAPT_NOTIFY`] — command: fan out the `ADAPT`/`TRIGGER`
//!   directives of an adaptation.
//! * `swap_src(removals, additions, *entries)` — pure: the `MVSRC` set
//!   surgery on `SRC`.
//! * `flush_in(tags, *entries)` — pure: drop provenance-tagged `IN` entries
//!   whose tag is in `tags`.

use ginflow_hocl::{Atom, ExternHost, ExternResult, HoclError, PureExterns};

/// Extern names shared between rule generation and hosts.
pub mod names {
    /// Deferred/synchronous service invocation: `invoke(service, params, task)`.
    pub const INVOKE: &str = "invoke";
    /// Command: `send_result(to, from, value)`.
    pub const SEND_RESULT: &str = "send_result";
    /// Command: `adapt_notify(adaptation_id, from)`.
    pub const ADAPT_NOTIFY: &str = "adapt_notify";
    /// Pure: `swap_src(removals_list, additions_list, *entries)`.
    pub const SWAP_SRC: &str = "swap_src";
    /// Pure: `flush_in(tags_list, *entries)`.
    pub const FLUSH_IN: &str = "flush_in";
}

/// The pure extern set used by workflow programs: hocl built-ins plus the
/// HOCLflow additions. Hosts embed this and layer `invoke`/commands on top.
/// Every name is dispatched by `match`, so it holds nothing on the heap.
#[derive(Default)]
pub struct FlowExterns {
    pure: PureExterns,
}

impl FlowExterns {
    /// Registry with `list`, `is_error`, …, `swap_src`, `flush_in`.
    pub fn new() -> Self {
        FlowExterns::default()
    }

    /// Call a pure extern; errors on unknown names (commands and `invoke`
    /// must be handled by the embedding host *before* delegating here).
    pub fn call(&mut self, name: &str, args: &[Atom]) -> Result<ExternResult, HoclError> {
        match name {
            names::SWAP_SRC => swap_src(args).map(ExternResult::Atoms),
            names::FLUSH_IN => flush_in(args).map(ExternResult::Atoms),
            other => self.pure.call(other, args),
        }
    }
}

impl ExternHost for FlowExterns {
    fn call(&mut self, name: &str, args: &[Atom]) -> Result<ExternResult, HoclError> {
        FlowExterns::call(self, name, args)
    }
}

/// `swap_src(removals, additions, *entries)`:
/// returns `entries \ removals ∪ additions` (first two args are lists).
fn swap_src(args: &[Atom]) -> Result<Vec<Atom>, HoclError> {
    let (removals, additions, entries) = match args {
        [Atom::List(r), Atom::List(a), rest @ ..] => (r, a, rest),
        _ => {
            return Err(HoclError::ExternFailed {
                name: names::SWAP_SRC.into(),
                reason: "expected (removals_list, additions_list, *entries)".into(),
            })
        }
    };
    let mut out: Vec<Atom> = entries
        .iter()
        .filter(|e| !removals.contains(e))
        .cloned()
        .collect();
    for a in additions {
        if !out.contains(a) {
            out.push(a.clone());
        }
    }
    Ok(out)
}

/// `flush_in(tags, *entries)`: drops `tag : value` tuples whose tag appears
/// in `tags`; everything else passes through.
fn flush_in(args: &[Atom]) -> Result<Vec<Atom>, HoclError> {
    let (tags, entries) = match args {
        [Atom::List(t), rest @ ..] => (t, rest),
        _ => {
            return Err(HoclError::ExternFailed {
                name: names::FLUSH_IN.into(),
                reason: "expected (tags_list, *entries)".into(),
            })
        }
    };
    Ok(entries
        .iter()
        .filter(|e| match e {
            Atom::Tuple(v) if v.len() == 2 => !tags.contains(&v[0]),
            _ => true,
        })
        .cloned()
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call_pure(name: &str, args: &[Atom]) -> Vec<Atom> {
        match FlowExterns::new().call(name, args).unwrap() {
            ExternResult::Atoms(v) => v,
            ExternResult::Deferred => panic!("pure extern deferred"),
        }
    }

    #[test]
    fn swap_src_removes_and_adds() {
        let out = call_pure(
            names::SWAP_SRC,
            &[
                Atom::list([Atom::sym("T2")]),
                Atom::list([Atom::sym("T2'")]),
                Atom::sym("T2"),
                Atom::sym("T3"),
            ],
        );
        assert_eq!(out, vec![Atom::sym("T3"), Atom::sym("T2'")]);
    }

    #[test]
    fn swap_src_is_idempotent_on_duplicates() {
        // Addition already present: not duplicated.
        let out = call_pure(
            names::SWAP_SRC,
            &[Atom::list([]), Atom::list([Atom::sym("X")]), Atom::sym("X")],
        );
        assert_eq!(out, vec![Atom::sym("X")]);
    }

    #[test]
    fn flush_in_drops_only_matching_tags() {
        let out = call_pure(
            names::FLUSH_IN,
            &[
                Atom::list([Atom::sym("T2")]),
                Atom::tuple([Atom::sym("T2"), Atom::str("stale")]),
                Atom::tuple([Atom::sym("T3"), Atom::str("good")]),
                Atom::tuple([Atom::sym("INPUT"), Atom::str("init")]),
            ],
        );
        assert_eq!(
            out,
            vec![
                Atom::tuple([Atom::sym("T3"), Atom::str("good")]),
                Atom::tuple([Atom::sym("INPUT"), Atom::str("init")]),
            ]
        );
    }

    #[test]
    fn hocl_builtins_still_available() {
        let out = call_pure("is_error", &[Atom::sym("ERROR")]);
        assert_eq!(out, vec![Atom::bool(true)]);
    }

    #[test]
    fn bad_shapes_error() {
        let mut e = FlowExterns::new();
        assert!(e.call(names::SWAP_SRC, &[Atom::int(1)]).is_err());
        assert!(e.call(names::FLUSH_IN, &[Atom::int(1)]).is_err());
        assert!(e.call("no_such_extern", &[]).is_err());
    }
}
