//! Symbols: cheap-to-clone identifiers used for task names, reserved
//! keywords (`SRC`, `DST`, …) and service names. Each keyword is one
//! process-wide symbol that every spelling of it shares.

use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A symbol is an immutable identifier: a reserved keyword, or a name
/// backed by a reference-counted string.
///
/// A keyword ([`keywords`]) is one symbol per process, kept as its place
/// in the table: making one allocates nothing, cloning or dropping one
/// counts no reference, and the matcher finds a keyword's tuples by
/// identity alone. Cloning a name is an atomic increment; names are equal
/// by pointer first, then by spelling, as chemical semantics require.
#[derive(Clone)]
pub struct Symbol(Repr);

#[derive(Clone)]
enum Repr {
    /// `keywords::ALL[i]`.
    Keyword(u8),
    Name(Arc<str>),
}

impl Symbol {
    /// Create a symbol from any string-like value: a keyword, or a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        Symbol(match keyword(name) {
            Some(i) => Repr::Keyword(i),
            None => Repr::Name(Arc::from(name)),
        })
    }

    /// The symbol's identity, never 0: a keyword's place in the table
    /// (from 1, below any address), or a name's allocation.
    pub(crate) fn addr(&self) -> usize {
        match &self.0 {
            Repr::Keyword(i) => *i as usize + 1,
            Repr::Name(name) => Arc::as_ptr(name) as *const u8 as usize,
        }
    }

    /// Is this a reserved keyword — so any symbol spelled like it is it?
    pub(crate) fn is_keyword(&self) -> bool {
        matches!(self.0, Repr::Keyword(_))
    }

    /// The symbol's spelling.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Keyword(i) => KEYWORDS[*i as usize],
            Repr::Name(name) => name,
        }
    }
}

/// The keywords' one spelling each: a `static`, so every symbol of a
/// keyword reads the same bytes.
static KEYWORDS: [&str; keywords::ALL.len()] = keywords::ALL;

/// The position of `name` in [`keywords::ALL`], if it spells a keyword.
fn keyword(name: &str) -> Option<u8> {
    // Every keyword starts with a capital: most names are turned away here.
    if !name.as_bytes().first()?.is_ascii_uppercase() {
        return None;
    }
    keywords::ALL
        .iter()
        .position(|k| *k == name)
        .map(|i| i as u8)
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        // No name is spelled like a keyword.
        self.addr() == other.addr()
            || (!self.is_keyword() && !other.is_keyword() && self.as_str() == other.as_str())
    }
}

impl Eq for Symbol {}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(s)
    }
}

impl Serialize for Symbol {
    fn to_value(&self) -> Value {
        self.as_str().to_value()
    }
}

impl Deserialize for Symbol {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(Symbol::new(s)),
            _ => Err(DeError::expected("string", "Symbol")),
        }
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// Reserved HOCLflow keywords (Section III of the paper). Centralised here so
/// every crate spells them identically.
pub mod keywords {
    /// Incoming dependencies of a task.
    pub const SRC: &str = "SRC";
    /// Outgoing dependencies of a task.
    pub const DST: &str = "DST";
    /// Service implementing the task.
    pub const SRV: &str = "SRV";
    /// Input data (provenance-tagged `from : value` tuples).
    pub const IN: &str = "IN";
    /// Parameter list built by `gw_setup`.
    pub const PAR: &str = "PAR";
    /// Result of the service invocation.
    pub const RES: &str = "RES";
    /// Adaptation token: activates a standby alternative task.
    pub const TRIGGER: &str = "TRIGGER";
    /// Adaptation directive: add a destination to a source task.
    pub const ADDDST: &str = "ADDDST";
    /// Adaptation directive: move a source on a destination task.
    pub const MVSRC: &str = "MVSRC";
    /// Token whose presence enables the adaptation rules of a task.
    pub const ADAPT: &str = "ADAPT";
    /// Distinguished result of a failed service invocation.
    pub const ERROR: &str = "ERROR";
    /// Tag for workflow-initial inputs inside `IN`.
    pub const INPUT: &str = "INPUT";
    /// Tag wrapping a result delivered by a peer agent, awaiting `gw_recv`.
    pub const DELIVER: &str = "DELIVER";
    /// The task's own name, as a decentralised agent holds it.
    pub const TASK: &str = "TASK";

    /// Every keyword: each is one process-wide symbol.
    pub const ALL: [&str; 14] = [
        SRC, DST, SRV, IN, PAR, RES, TASK, DELIVER, ADAPT, TRIGGER, ERROR, INPUT, ADDDST, MVSRC,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_is_structural() {
        let a = Symbol::new("SRC");
        let b = Symbol::new("SRC");
        let c = a.clone();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_ne!(a, Symbol::new("DST"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [Symbol::new("T2"), Symbol::new("T1"), Symbol::new("T10")];
        v.sort();
        let names: Vec<&str> = v.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["T1", "T10", "T2"]);
    }

    #[test]
    fn display_and_debug() {
        let s = Symbol::new("ADAPT");
        assert_eq!(format!("{s}"), "ADAPT");
        assert_eq!(format!("{s:?}"), "Symbol(ADAPT)");
    }

    #[test]
    fn serde_roundtrip() {
        let s = Symbol::new("T42");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"T42\"");
        let back: Symbol = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn hash_matches_equality() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Symbol::new("X"));
        assert!(set.contains(&Symbol::new("X")));
        assert!(set.contains("X"));
    }
}
