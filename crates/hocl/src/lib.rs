//! # ginflow-hocl — the Higher-Order Chemical Language
//!
//! A from-scratch Rust implementation of HOCL, the rule-based chemical
//! programming language GinFlow is built on (Banâtre, Fradet, Radenac,
//! *Generalised multisets for chemical programming*, MSCS 2006), extended
//! with the features the GinFlow paper (IPDPS 2016) relies on:
//!
//! * **Multisets** of unstructured *atoms*: numbers, strings, symbols,
//!   tuples (`A : B : C`), subsolutions (`⟨...⟩`), lists, and — because the
//!   language is *higher order* — reaction **rules themselves**.
//! * **Reaction rules** (`replace ... by ... if ...`), including one-shot
//!   rules (`replace-one`), pattern variables, ω (rest) variables that match
//!   the remainder of a subsolution, and cross-molecule unification (a
//!   variable bound in one matched molecule constrains the others — this is
//!   what makes the paper's `gw_pass` rule work).
//! * **Reduction** to inertness: rules are applied until none is applicable,
//!   recursively reducing subsolutions first (the HOCL execution model only
//!   lets an outer rule consume a subsolution once it is inert).
//! * **External functions** with three flavours: *pure* (compute atoms),
//!   *command* (side effect on the runtime, e.g. "send this result to the
//!   agent of task T4"), and *deferred* (asynchronous service invocation:
//!   the rule application suspends and is resumed when the result arrives).
//!   Deferred externs are the mechanism that lets the same `gw_call` rule
//!   drive both the centralized interpreter and the decentralised service
//!   agents.
//! * A **text syntax** (parser + pretty-printer) close to the paper's
//!   notation, used by the examples, the test-suite and the CLI.
//!
//! The crate is deliberately free of any I/O or threading: engines are pure
//! state machines, which is what allows `ginflow-agent`'s `SaCore` to be
//! driven identically by real threads and by the discrete-event simulator.
//!
//! ## Quick taste: the paper's `getMax` program
//!
//! ```
//! use ginflow_hocl::prelude::*;
//!
//! // let max = replace x, y by x if x >= y in <2, 3, 5, 8, 9, max>
//! let max = Rule::builder("max")
//!     .lhs([Pattern::var("x"), Pattern::var("y")])
//!     .guard(Guard::ge(Expr::var("x"), Expr::var("y")))
//!     .rhs([Template::var("x")])
//!     .build();
//! let mut sol = Solution::from_atoms([
//!     Atom::int(2), Atom::int(3), Atom::int(5),
//!     Atom::int(8), Atom::int(9), Atom::rule(max),
//! ]);
//! let mut engine = Engine::new();
//! engine.reduce(&mut sol, &mut NoExterns).unwrap();
//! assert!(sol.atoms().contains(&Atom::int(9)));
//! assert_eq!(sol.atoms().iter().filter(|a| a.is_int()).count(), 1);
//! ```

pub mod atom;
pub mod bindings;
pub mod engine;
pub mod error;
pub mod externs;
pub mod guard;
pub mod lexer;
pub mod matcher;
pub mod multiset;
pub mod parser;
pub mod pattern;
pub mod printer;
pub mod rule;
pub mod solution;
pub mod symbol;
pub mod template;

pub use atom::Atom;
pub use bindings::{Binding, Bindings, Bound, Lookup, Var};
pub use engine::{Engine, EngineConfig, ReduceOutcome, ReduceStats, StepOutcome};
pub use error::HoclError;
pub use externs::{EffectId, ExternHost, ExternResult, NoExterns, PureExterns};
pub use guard::{CmpOp, Expr, Guard};
pub use matcher::Matcher;
pub use multiset::Multiset;
pub use parser::{parse_program, parse_solution};
pub use pattern::{Pattern, SubPattern};
pub use printer::pretty;
pub use rule::{Rule, RuleBuilder};
pub use solution::{Pending, Solution};
pub use symbol::Symbol;
pub use template::Template;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::atom::Atom;
    pub use crate::bindings::{Binding, Bindings};
    pub use crate::engine::{Engine, EngineConfig, ReduceOutcome, StepOutcome};
    pub use crate::error::HoclError;
    pub use crate::externs::{EffectId, ExternHost, ExternResult, NoExterns, PureExterns};
    pub use crate::guard::{CmpOp, Expr, Guard};
    pub use crate::multiset::Multiset;
    pub use crate::pattern::{Pattern, SubPattern};
    pub use crate::rule::{Rule, RuleBuilder};
    pub use crate::solution::Solution;
    pub use crate::symbol::Symbol;
    pub use crate::template::Template;
}
