//! The reduction engine: applies rules until the solution is inert.
//!
//! ## Execution model
//!
//! Following HOCL, reduction is hierarchical: before any rule at a level can
//! consume a subsolution, that subsolution must itself be inert, so each
//! pass first reduces nested subsolutions bottom-up and then attempts one
//! top-level application. The engine is deterministic by default (rules and
//! candidate atoms are tried in insertion order); with
//! [`EngineConfig::shuffle_seed`] set it samples random candidate orders,
//! emulating the "applied in some order not known at design time" semantics
//! of the paper — the test-suite uses this to check confluence.
//!
//! ## Applying a rule: match by reference, consume by move
//!
//! One application is three steps, and only the last one writes.
//! *Find*: the [`Matcher`] searches over borrowed atoms — no copies, an undo
//! trail for backtracking — and yields *positions*: which root atoms the
//! LHS consumes and, inside them, which element each subsolution pattern
//! picked. *Probe*: the RHS's extern calls run against the still-borrowed
//! bindings and the RHS is checked (every variable bound, tuple elements
//! single), so a failing extern or an unbound variable surfaces with the
//! solution exactly as it was. *Rewrite*: the consumed atoms are taken out
//! of the multiset by value, destructured along the positions into owned
//! bindings (an ω rest is the matched subsolution's own storage minus the
//! picks) and the RHS is built straight into the multiset consuming them —
//! a variable's last occurrence moves, earlier ones clone.
//!
//! Variables are slots, resolved when the rule was built (see
//! [`crate::bindings`]), so the borrowed environment and the owned
//! bindings are arrays sized by the rule, reused from one application to
//! the next: nothing is keyed by a name, and neither a try nor an
//! application allocates for bookkeeping. What one application allocates
//! is what its RHS produces — each tuple, list and subsolution it builds
//! that is not a moved ω rest — plus each extern call's arguments and
//! result; a suspension parks the owned bindings and shares the rule.
//!
//! What is still O(n) per application: `SRC:<?t,*ws>` → `SRC:<*ws>` costs
//! one `Vec::remove` shift of the picked element, and `IN:<*win>` →
//! `IN:<(?t:?v),*win>` one shift to make room in front, whatever the size
//! of `SRC` and `IN` — two `memmove`s — and finding the sender in `SRC` is a
//! linear scan (an index by head symbol would remove all three — nobody
//! has asked for one).
//!
//! ## The census
//!
//! Every [`Multiset`] knows its structural weight and the number of rule
//! atoms at any depth below it, kept exact by every mutator: `insert`,
//! `extend`, `remove_at`, `remove_indices`, `remove_value`, `union`,
//! collecting and deserializing count what they move, and the crate-private
//! `absorb` (splice one multiset into another, censuses add), `take_picked`
//! and `update_at` (change a stored atom in place, then re-count it — the
//! only way to reach inside one, since no `&mut Atom` is handed out) are
//! what the engine itself uses. Two things follow. `weight()` is a field
//! read. And bottom-up reduction enters only atoms whose subtree holds a
//! rule: an inert rule-free subsolution — an agent's `SRC`, `IN`, `DST`,
//! `RES` — costs nothing per pass, however large.
//!
//! [`ReduceStats::weight_scanned`] is read from the census and keeps its
//! meaning — Σ weight of each multiset a matching pass ran over — so it is
//! smaller than before exactly by the passes over rule-free subsolutions
//! that are no longer made; the simulator's `weight_cost_ns` was re-fitted
//! to that (see `ginflow_sim::costmodel`).
//!
//! ## Deferred effects
//!
//! When the host answers an extern call with [`crate::ExternResult::Deferred`]
//! (GinFlow's `invoke`), the engine consumes the matched atoms, parks the
//! application as a [`Pending`] record on the [`Solution`] and reports a
//! [`StepOutcome::Suspended`]. The runtime performs the actual work (invoke
//! the service, simulate it, …) and later calls [`Engine::resume`] with the
//! result atoms. Suspension is only permitted at the root solution: nested
//! subsolutions must reduce synchronously (the decentralised runtime gives
//! every agent its *own* root solution, so this is not a limitation there).

use crate::atom::Atom;
use crate::bindings::Bindings;
use crate::error::HoclError;
use crate::externs::{EffectId, ExternHost};
use crate::matcher::Matcher;
use crate::multiset::Multiset;
use crate::rule::Rule;
use crate::solution::{Pending, Solution};
use crate::template::{build, Deferral, Instantiator, Probed};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Upper bound on rule applications per `reduce` call — a safety net
    /// against non-terminating programs.
    pub max_steps: u64,
    /// When set, candidate traversal order is shuffled with this seed
    /// (nondeterministic chemical semantics, reproducibly).
    pub shuffle_seed: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_steps: 1_000_000,
            shuffle_seed: None,
        }
    }
}

/// Outcome of a single reduction step.
#[derive(Debug)]
pub enum StepOutcome {
    /// A rule was applied.
    Applied {
        /// The applied rule.
        rule: Arc<Rule>,
    },
    /// A rule application suspended on a deferred extern.
    Suspended(EffectInfo),
    /// No rule is applicable.
    Inert,
}

/// Description of a deferred effect handed to the runtime.
#[derive(Clone, Debug, PartialEq)]
pub struct EffectInfo {
    /// Identifier to pass back to [`Engine::resume`].
    pub id: EffectId,
    /// Evaluated argument atoms.
    pub args: Vec<Atom>,
    /// The suspending rule.
    pub rule: Arc<Rule>,
    /// Traversal index of the deferred `Call` node within the rule's RHS:
    /// always one of its calls.
    pub(crate) call_index: usize,
}

impl EffectInfo {
    /// Extern name of the deferred call (e.g. `invoke`).
    pub fn name(&self) -> &str {
        self.rule
            .call_name(self.call_index)
            .expect("the engine reports a call of the suspending rule")
    }
}

/// Outcome of running reduction to quiescence.
#[derive(Debug, Default)]
pub struct ReduceOutcome {
    /// Rule applications performed during this call.
    pub applications: u64,
    /// Effects newly suspended during this call, in order of suspension.
    pub suspended: Vec<EffectInfo>,
    /// True when no rule is applicable *and* no effect is pending: the
    /// solution reached its final state.
    pub inert: bool,
}

/// Work counters fed to the simulator's cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Rule applications.
    pub applications: u64,
    /// Candidate (pattern, atom) pairings examined while matching.
    pub match_attempts: u64,
    /// Structural weight of the solutions scanned (Σ solution weight per
    /// full matching pass) — the dominant cost driver per the paper ("the
    /// complexity of the pattern matching process depends on the size of
    /// the solution").
    pub weight_scanned: u64,
}

/// A rule found applicable and probed, not yet applied; where it matched
/// is in the matcher.
struct Firing {
    rule: Arc<Rule>,
    rule_idx: usize,
    probed: Probed,
}

/// The reduction engine. One per agent / per centralized interpreter.
pub struct Engine {
    config: EngineConfig,
    matcher: Matcher,
    rng: Option<SmallRng>,
    next_effect: u64,
    stats: ReduceStats,
    /// Shuffled candidate order of the current try (nondeterministic mode),
    /// kept for its allocation.
    order: Vec<usize>,
    /// Owned bindings of the application being built, kept for its
    /// allocation until a suspension parks it.
    bindings: Bindings,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Engine with default (deterministic) configuration.
    pub fn new() -> Self {
        Engine::with_config(EngineConfig::default())
    }

    /// Engine with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        let rng = config.shuffle_seed.map(SmallRng::seed_from_u64);
        Engine {
            config,
            matcher: Matcher::new(),
            rng,
            next_effect: 0,
            stats: ReduceStats::default(),
            order: Vec::new(),
            bindings: Bindings::default(),
        }
    }

    /// Accumulated work counters.
    pub fn stats(&self) -> ReduceStats {
        self.stats
    }

    /// Return and reset the work counters (per-event accounting in the
    /// simulator).
    pub fn take_stats(&mut self) -> ReduceStats {
        let s = self.stats;
        self.stats = ReduceStats::default();
        self.matcher.reset_stats();
        s
    }

    /// Reduce `solution` until no rule is applicable, collecting any
    /// suspensions along the way. Non-suspending reduction continues past a
    /// suspension: other molecules keep reacting (that is how the
    /// centralized interpreter would overlap invocations if its host chose
    /// to defer).
    pub fn reduce(
        &mut self,
        solution: &mut Solution,
        host: &mut dyn ExternHost,
    ) -> Result<ReduceOutcome, HoclError> {
        let mut out = ReduceOutcome::default();
        let applications_before = self.stats.applications;
        let mut steps: u64 = 0;
        loop {
            if steps >= self.config.max_steps {
                return Err(HoclError::StepBudgetExhausted {
                    budget: self.config.max_steps,
                });
            }
            let nested_changed = self.reduce_nested(solution.atoms_mut(), host)?;
            match self.step_root(solution, host)? {
                StepOutcome::Applied { .. } => {
                    steps += 1;
                    out.applications += 1;
                }
                StepOutcome::Suspended(info) => {
                    steps += 1;
                    out.applications += 1;
                    out.suspended.push(info);
                }
                StepOutcome::Inert => {
                    if !nested_changed {
                        break;
                    }
                }
            }
        }
        out.inert = !solution.has_pending();
        // Applications include rules fired inside nested subsolutions.
        out.applications = self.stats.applications - applications_before;
        self.stats.match_attempts = self.matcher.stats().attempts;
        Ok(out)
    }

    /// Resume the suspended application `id` with the result atoms of its
    /// deferred extern, then (the caller typically) `reduce` again.
    pub fn resume(
        &mut self,
        solution: &mut Solution,
        id: EffectId,
        result: Vec<Atom>,
        host: &mut dyn ExternHost,
    ) -> Result<(), HoclError> {
        let mut pending = solution
            .take_pending(id)
            .ok_or(HoclError::UnknownEffect(id.0))?;
        let rhs = pending.rule.rhs();
        let inst = Instantiator::resuming(host, pending.call_index, result);
        match inst.probe(rhs, &pending.bindings)? {
            Probed::Ready(calls) => {
                build(rhs, &mut pending.bindings, calls, solution.atoms_mut());
                Ok(())
            }
            Probed::Deferred(deferral) => Err(HoclError::MultipleDeferred(call_name(
                &pending.rule,
                &deferral,
            ))),
        }
    }

    /// Find the first rule atom of `ms` that matches, and probe its RHS.
    /// Everything here is by reference: `ms` is not touched, and an error
    /// (a failing guard or extern, an unbound variable) leaves it as it was.
    fn find_firing(
        &mut self,
        ms: &Multiset,
        host: &mut dyn ExternHost,
    ) -> Result<Option<Firing>, HoclError> {
        self.stats.weight_scanned += ms.weight() as u64;
        for (rule_idx, atom) in ms.iter().enumerate() {
            let Atom::Rule(rule) = atom else { continue };
            let order = match &mut self.rng {
                Some(rng) => {
                    self.order.clear();
                    self.order.extend(0..ms.len());
                    self.order.shuffle(rng);
                    Some(self.order.as_slice())
                }
                None => None,
            };
            let probed = self.matcher.find_match(
                rule,
                ms,
                Some(rule_idx),
                order,
                host,
                |bindings, host| Instantiator::new(host).probe(rule.rhs(), bindings),
            )?;
            if let Some(probed) = probed {
                return Ok(Some(Firing {
                    rule: rule.clone(),
                    rule_idx,
                    probed,
                }));
            }
        }
        Ok(None)
    }

    /// Take the reactants of the match just found for `rule` — and a
    /// one-shot rule's own atom, at `rule_idx` — out of `ms` by value, into
    /// the engine's owned bindings.
    fn consume(&mut self, ms: &mut Multiset, rule: &Rule, rule_idx: usize) {
        let own = rule.is_one_shot().then_some(rule_idx);
        self.matcher.take_match(rule, ms, own, &mut self.bindings);
        self.stats.applications += 1;
    }

    /// One top-level step: try each rule atom against the root solution.
    fn step_root(
        &mut self,
        solution: &mut Solution,
        host: &mut dyn ExternHost,
    ) -> Result<StepOutcome, HoclError> {
        let Some(Firing {
            rule,
            rule_idx,
            probed,
        }) = self.find_firing(solution.atoms(), host)?
        else {
            return Ok(StepOutcome::Inert);
        };
        self.consume(solution.atoms_mut(), &rule, rule_idx);
        match probed {
            Probed::Ready(calls) => {
                build(rule.rhs(), &mut self.bindings, calls, solution.atoms_mut());
                Ok(StepOutcome::Applied { rule })
            }
            Probed::Deferred(Deferral { call_index, args }) => {
                let id = EffectId(self.next_effect);
                self.next_effect += 1;
                solution.push_pending(Pending {
                    id,
                    rule: rule.clone(),
                    bindings: std::mem::take(&mut self.bindings),
                    call_index,
                });
                Ok(StepOutcome::Suspended(EffectInfo {
                    id,
                    args,
                    rule,
                    call_index,
                }))
            }
        }
    }

    /// Bottom-up reduction of every nested subsolution — including
    /// subsolutions sitting inside tuples or lists, which is where task
    /// bodies live (`T1 : ⟨…⟩` molecules). Returns whether any rule fired
    /// anywhere below the root. Only atoms whose subtree holds a rule are
    /// entered (the census says which, from the outside): an inert,
    /// rule-free subsolution costs nothing per pass, however large.
    fn reduce_nested(
        &mut self,
        ms: &mut Multiset,
        host: &mut dyn ExternHost,
    ) -> Result<bool, HoclError> {
        let mut changed_any = false;
        for i in 0..ms.len() {
            if ms.get(i).is_some_and(Atom::holds_rule) {
                changed_any |= ms.update_at(i, |atom| self.reduce_atom_children(atom, host))?;
            }
        }
        Ok(changed_any)
    }

    /// Recurse through an atom's structure reducing every subsolution that
    /// holds a rule.
    fn reduce_atom_children(
        &mut self,
        atom: &mut Atom,
        host: &mut dyn ExternHost,
    ) -> Result<bool, HoclError> {
        match atom {
            Atom::Sub(ms) if ms.rule_count() > 0 => self.reduce_sub_to_inert(ms, host),
            Atom::Tuple(v) | Atom::List(v) => {
                let mut changed = false;
                for a in v {
                    changed |= self.reduce_atom_children(a, host)?;
                }
                Ok(changed)
            }
            _ => Ok(false),
        }
    }

    /// Reduce one subsolution (and its own nested subs) until inert.
    /// Deferred externs are illegal here.
    fn reduce_sub_to_inert(
        &mut self,
        ms: &mut Multiset,
        host: &mut dyn ExternHost,
    ) -> Result<bool, HoclError> {
        let mut changed_any = false;
        let mut steps: u64 = 0;
        loop {
            if steps >= self.config.max_steps {
                return Err(HoclError::StepBudgetExhausted {
                    budget: self.config.max_steps,
                });
            }
            let nested = self.reduce_nested(ms, host)?;
            changed_any |= nested;
            match self.step_in(ms, host)? {
                true => {
                    steps += 1;
                    changed_any = true;
                }
                false => {
                    if !nested {
                        break;
                    }
                }
            }
        }
        Ok(changed_any)
    }

    /// One application attempt inside a nested multiset (no suspension).
    fn step_in(&mut self, ms: &mut Multiset, host: &mut dyn ExternHost) -> Result<bool, HoclError> {
        let Some(Firing {
            rule,
            rule_idx,
            probed,
        }) = self.find_firing(ms, host)?
        else {
            return Ok(false);
        };
        let calls = match probed {
            Probed::Ready(calls) => calls,
            Probed::Deferred(deferral) => {
                return Err(HoclError::DeferredInNested(call_name(&rule, &deferral)))
            }
        };
        self.consume(ms, &rule, rule_idx);
        build(rule.rhs(), &mut self.bindings, calls, ms);
        Ok(true)
    }
}

/// The extern name of a deferral, for an error.
fn call_name(rule: &Rule, deferral: &Deferral) -> String {
    rule.call_name(deferral.call_index)
        .unwrap_or_default()
        .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::externs::{ExternResult, NoExterns, PureExterns};
    use crate::guard::{Expr, Guard};
    use crate::pattern::Pattern;
    use crate::template::Template;

    fn max_rule() -> Rule {
        Rule::builder("max")
            .lhs([Pattern::var("x"), Pattern::var("y")])
            .guard(Guard::ge(Expr::var("x"), Expr::var("y")))
            .rhs([Template::var("x")])
            .build()
    }

    #[test]
    fn getmax_reduces_to_single_max() {
        // The paper's §III-A example.
        let mut sol = Solution::from_atoms([
            Atom::int(2),
            Atom::int(3),
            Atom::int(5),
            Atom::int(8),
            Atom::int(9),
            Atom::rule(max_rule()),
        ]);
        let mut engine = Engine::new();
        let out = engine.reduce(&mut sol, &mut NoExterns).unwrap();
        assert!(out.inert);
        assert_eq!(out.applications, 4);
        let ints: Vec<i64> = sol.atoms().iter().filter_map(Atom::as_int).collect();
        assert_eq!(ints, vec![9]);
        // The recurring rule survives.
        assert_eq!(sol.atoms().rule_indices().len(), 1);
    }

    #[test]
    fn getmax_confluent_under_random_orders() {
        for seed in 0..20 {
            let mut sol = Solution::from_atoms(
                [4i64, 1, 7, 3, 9, 2, 8]
                    .into_iter()
                    .map(Atom::int)
                    .chain([Atom::rule(max_rule())]),
            );
            let mut engine = Engine::with_config(EngineConfig {
                shuffle_seed: Some(seed),
                ..EngineConfig::default()
            });
            engine.reduce(&mut sol, &mut NoExterns).unwrap();
            let ints: Vec<i64> = sol.atoms().iter().filter_map(Atom::as_int).collect();
            assert_eq!(ints, vec![9], "seed {seed} broke confluence");
        }
    }

    #[test]
    fn higher_order_clean_extracts_result() {
        // let clean = replace-one <max, ω> by ω in <<2,3,5,8,9,max>, clean>
        let clean = Rule::builder("clean")
            .one_shot()
            .lhs([Pattern::sub_with_rest(
                [Pattern::RuleNamed("max".into())],
                "w",
            )])
            .rhs([Template::var("w")])
            .build();
        let inner = Atom::sub([
            Atom::int(2),
            Atom::int(3),
            Atom::int(5),
            Atom::int(8),
            Atom::int(9),
            Atom::rule(max_rule()),
        ]);
        let mut sol = Solution::from_atoms([inner, Atom::rule(clean)]);
        let mut engine = Engine::new();
        let out = engine.reduce(&mut sol, &mut NoExterns).unwrap();
        assert!(out.inert);
        // Inner reduced to <9, max>, then clean extracted 9 and dropped
        // both max and itself.
        assert_eq!(sol.atoms().len(), 1);
        assert_eq!(sol.atoms().get(0), Some(&Atom::int(9)));
    }

    #[test]
    fn census_stays_exact_through_reduction() {
        // Rules firing two levels down, an ω splice to the top level, a
        // rule-free sibling: after every reduction each stored census must
        // equal a count from scratch.
        let clean = Rule::builder("clean")
            .one_shot()
            .lhs([Pattern::keyed(
                "BODY",
                [Pattern::sub_with_rest(
                    [Pattern::RuleNamed("max".into())],
                    "w",
                )],
            )])
            .rhs([Template::var("w")])
            .build();
        let body = Atom::keyed(
            "BODY",
            [Atom::sub([
                Atom::int(2),
                Atom::sub([Atom::int(5), Atom::int(8), Atom::rule(max_rule())]),
                Atom::int(9),
                Atom::rule(max_rule()),
            ])],
        );
        let inert = Atom::keyed("SRC", [Atom::sub((0..50).map(Atom::int))]);
        let mut sol = Solution::from_atoms([inert, body, Atom::rule(clean)]);
        let before = sol.atoms().recount();
        assert_eq!(sol.atoms().census(), before);
        let mut engine = Engine::new();
        engine.reduce(&mut sol, &mut NoExterns).unwrap();
        assert_eq!(sol.atoms().census(), sol.atoms().recount(), "{sol}");
        assert_eq!(sol.atoms().rule_count(), 1, "the inner max survives: {sol}");
        // The 50-wide rule-free `SRC` was never a matching pass of its own:
        // every pass the engine did make ran over less than the whole.
        let passes = engine.stats().weight_scanned / before.weight as u64;
        assert!(passes <= 8, "{} scanned", engine.stats().weight_scanned);
    }

    #[test]
    fn one_shot_rule_fires_once() {
        let once = Rule::builder("once")
            .one_shot()
            .lhs([Pattern::var("x")])
            .guard(Guard::eq(Expr::var("x"), Expr::lit(1i64)))
            .rhs([Template::lit(100i64)])
            .build();
        let mut sol = Solution::from_atoms([Atom::int(1), Atom::int(1), Atom::rule(once)]);
        let mut engine = Engine::new();
        let out = engine.reduce(&mut sol, &mut NoExterns).unwrap();
        assert!(out.inert);
        assert_eq!(out.applications, 1);
        // One `1` became `100`; the other survives; the rule is gone.
        assert_eq!(sol.atoms().count(&Atom::int(100)), 1);
        assert_eq!(sol.atoms().count(&Atom::int(1)), 1);
        assert!(sol.atoms().rule_indices().is_empty());
    }

    #[test]
    fn suspension_and_resume() {
        struct DeferInvoke;
        impl ExternHost for DeferInvoke {
            fn call(&mut self, name: &str, _args: &[Atom]) -> Result<ExternResult, HoclError> {
                match name {
                    "invoke" => Ok(ExternResult::Deferred),
                    other => Err(HoclError::UnknownExtern(other.to_owned())),
                }
            }
        }
        // call = replace-one SRV:?s, PAR:?p by RES:<invoke(?s, ?p)>
        let call = Rule::builder("call")
            .one_shot()
            .lhs([
                Pattern::keyed("SRV", [Pattern::var("s")]),
                Pattern::keyed("PAR", [Pattern::var("p")]),
            ])
            .rhs([Template::keyed(
                "RES",
                [Template::sub([Template::call(
                    "invoke",
                    [Template::var("s"), Template::var("p")],
                )])],
            )])
            .build();
        let mut sol = Solution::from_atoms([
            Atom::keyed("SRV", [Atom::sym("s2")]),
            Atom::keyed("PAR", [Atom::list([Atom::int(1)])]),
            Atom::rule(call),
        ]);
        let mut engine = Engine::new();
        let out = engine.reduce(&mut sol, &mut DeferInvoke).unwrap();
        assert!(!out.inert);
        assert_eq!(out.suspended.len(), 1);
        let eff = &out.suspended[0];
        assert_eq!(eff.name(), "invoke");
        assert_eq!(eff.rule.name(), "call");
        assert_eq!(eff.args, vec![Atom::sym("s2"), Atom::list([Atom::int(1)])]);
        // LHS consumed, rule gone (one-shot), nothing produced yet.
        assert_eq!(sol.atoms().len(), 0);
        assert!(sol.has_pending());

        engine
            .resume(&mut sol, eff.id, vec![Atom::str("out")], &mut DeferInvoke)
            .unwrap();
        let out2 = engine.reduce(&mut sol, &mut DeferInvoke).unwrap();
        assert!(out2.inert);
        assert_eq!(
            sol.atoms().get(0),
            Some(&Atom::keyed("RES", [Atom::sub([Atom::str("out")])]))
        );
    }

    #[test]
    fn resume_unknown_effect_errors() {
        let mut sol = Solution::new();
        let mut engine = Engine::new();
        let err = engine
            .resume(&mut sol, EffectId(42), vec![], &mut NoExterns)
            .unwrap_err();
        assert!(matches!(err, HoclError::UnknownEffect(42)));
    }

    #[test]
    fn nested_deferred_is_rejected() {
        struct DeferInvoke;
        impl ExternHost for DeferInvoke {
            fn call(&mut self, _n: &str, _a: &[Atom]) -> Result<ExternResult, HoclError> {
                Ok(ExternResult::Deferred)
            }
        }
        let inner_rule = Rule::builder("r")
            .one_shot()
            .lhs([Pattern::lit(Atom::int(1))])
            .rhs([Template::call("invoke", [])])
            .build();
        let mut sol = Solution::from_atoms([Atom::sub([Atom::int(1), Atom::rule(inner_rule)])]);
        let mut engine = Engine::new();
        let err = engine.reduce(&mut sol, &mut DeferInvoke).unwrap_err();
        assert!(matches!(err, HoclError::DeferredInNested(_)));
    }

    #[test]
    fn step_budget_stops_runaway_programs() {
        // spin = replace ?x by ?x — fires forever.
        let spin = Rule::builder("spin")
            .lhs([Pattern::var("x")])
            .rhs([Template::var("x")])
            .build();
        let mut sol = Solution::from_atoms([Atom::int(1), Atom::rule(spin)]);
        let mut engine = Engine::with_config(EngineConfig {
            max_steps: 50,
            shuffle_seed: None,
        });
        let err = engine.reduce(&mut sol, &mut NoExterns).unwrap_err();
        assert!(matches!(err, HoclError::StepBudgetExhausted { budget: 50 }));
    }

    #[test]
    fn pure_externs_in_rhs() {
        let sum = Rule::builder("sum")
            .one_shot()
            .lhs([Pattern::var("x"), Pattern::var("y")])
            .rhs([Template::call(
                "add",
                [Template::var("x"), Template::var("y")],
            )])
            .build();
        let mut sol = Solution::from_atoms([Atom::int(20), Atom::int(22), Atom::rule(sum)]);
        let mut engine = Engine::new();
        let mut host = PureExterns::new();
        let out = engine.reduce(&mut sol, &mut host).unwrap();
        assert!(out.inert);
        assert_eq!(sol.atoms().count(&Atom::int(42)), 1);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut sol = Solution::from_atoms([Atom::int(1), Atom::int(2), Atom::rule(max_rule())]);
        let mut engine = Engine::new();
        engine.reduce(&mut sol, &mut NoExterns).unwrap();
        let s = engine.take_stats();
        assert!(s.applications >= 1);
        assert!(s.weight_scanned > 0);
        assert_eq!(engine.stats(), ReduceStats::default());
    }
}
