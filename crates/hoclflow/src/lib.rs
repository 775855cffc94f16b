//! # ginflow-hoclflow — compiling workflows into chemistry
//!
//! HOCLflow is the workflow-specific layer on top of HOCL (§III of the
//! paper): reserved keywords (`SRC DST SRV IN PAR RES TRIGGER ADDDST MVSRC
//! ADAPT ERROR`), the translation of a DAG into a multiset of task
//! subsolutions (Fig 3), the *generic enactment rules* `gw_setup`,
//! `gw_call` and `gw_pass` (Fig 4), and the *adaptation rules*
//! `trigger_adapt`, `add_dst` and `mv_src` (Fig 7), which are generated
//! from the user's adaptation declarations and injected transparently
//! "prior to execution" (§III-B).
//!
//! Two compilation targets exist, mirroring §IV-A:
//!
//! * [`compile::centralized`] produces one global solution in which
//!   `gw_pass` matches *pairs* of task subsolutions — the pure-HOCL
//!   semantics, executed by [`centralized::run`] with a synchronous
//!   `invoke`.
//! * [`compile::Compiler`] produces one *local* solution per task, in
//!   which `gw_pass` is split into a send half (`gw_send`, whose RHS calls
//!   the `send_result` command extern) and a receive half (`gw_recv`,
//!   reacting to delivered `DELIVER : from : value` atoms) — exactly the
//!   paper's "this was modified to act from within a subsolution: … a SA
//!   triggers a local version of the gw_pass rule which calls a function
//!   that sends a message directly to the destination SA".
//!
//! ## Deviations from the paper's figures
//!
//! This list is where the reproduction's departures from the paper are
//! documented; tests and ablations cite them by number.
//!
//! 1. **Provenance-tagged inputs.** `IN` holds `from : value` tuples rather
//!    than bare values. This makes the parameter order deterministic
//!    (`list` sorts by tag), lets `mv_src` flush *only* data originating
//!    from the replaced region — Fig 7's wholesale `IN : ⟨⟩` flush
//!    deadlocks when the destination also has sources outside the region —
//!    and makes duplicate-result suppression structural.
//! 2. **`gw_pass` requires a result and refuses `ERROR`.** Fig 4's `ωRES`
//!    could match an empty `RES`, firing before any result exists, and
//!    would happily propagate `ERROR` downstream racing `trigger_adapt`.
//! 3. **General `add_dst`.** Fig 7's `add_dst1` matches `DST : ⟨⟩` (true in
//!    the walkthrough, not in general); ours appends to any `DST`.
//! 4. **`swap_src`/`flush_in` externs.** `mv_src` rewrites the `SRC` set
//!    through two pure externs instead of a cascade of per-element rules.
//! 5. **One `gw_send` reaction per result.** The paper's local `gw_pass`
//!    "calls a function that sends a message directly to the destination
//!    SA", one reaction per destination as Fig 4 moves one result per
//!    application. Our `gw_send` drains the whole `DST` in one reaction
//!    and its `send_result(from, value, to…)` names every destination, so
//!    a fan-out of k costs one reaction, one guard evaluation and one
//!    extern call instead of k. The messages, their order (`DST` order)
//!    and an `ADDDST` resend are unchanged. The centralized `gw_pass`
//!    keeps Fig 4's one-destination form.

pub mod centralized;
pub mod compile;
pub mod externs;
pub mod rules;

pub use centralized::{run, CentralizedConfig, CentralizedOutcome, RunError};
pub use compile::{
    agent_programs, centralized as compile_centralized, AdaptPlan, AgentProgram, Compiler,
};
pub use externs::{names, FlowExterns};
