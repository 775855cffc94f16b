//! The pattern matcher: finds molecules a rule can consume.
//!
//! Matching a rule against a solution is a backtracking search that assigns
//! each LHS pattern to a *distinct* atom of the solution while accumulating
//! variable bindings. Bindings are shared across patterns (cross-molecule
//! unification), which is what lets `gw_pass` correlate the `Ti` appearing
//! in one task's `DST` with the head of another task's molecule.
//!
//! Inside subsolution patterns, element patterns likewise consume distinct
//! inner atoms and an optional ω variable captures the remainder.
//!
//! ## By reference, then by move
//!
//! The search copies nothing. Variables are slots resolved when the rule
//! was built (see [`crate::bindings`]): the environment is an array sized
//! by the rule, each slot bound to a *borrowed* atom or to an ω rest —
//! "this subsolution minus these picks" — and backtracking unbinds the
//! slots an undo trail lists instead of restoring a snapshot. What a
//! successful search leaves behind is positions: the root index each LHS
//! pattern consumed plus, for every subsolution pattern, the inner index
//! each of its element patterns picked. The engine then has the matcher
//! take the consumed atoms out of the solution *by value* and destructure
//! them along the picks into owned [`Bindings`] — an ω rest is then the
//! matched subsolution's own storage with the picks removed, never a copy.
//!
//! ## What a try allocates
//!
//! Nothing of its own. The matcher owns the consumed-index, pick, trail
//! and slot buffers and every search reuses them (the slot array holds
//! borrows of the solution, so between searches it is kept empty and only
//! its allocation survives), and so does taking the reactants out. A
//! failed try — most of them: a rule is tried on every pass — costs its
//! comparisons, plus, when it gets as far as a guard that calls an
//! extern, that call's argument list and result.

use crate::atom::Atom;
use crate::bindings::{Bindings, Bound, Lookup, Rest, Var};
use crate::error::HoclError;
use crate::externs::ExternHost;
use crate::multiset::Multiset;
use crate::pattern::{Pattern, SubPattern};
use crate::rule::Rule;

/// Statistics of a matching attempt, fed to the simulator's cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Number of (pattern, atom) candidate pairings examined.
    pub attempts: u64,
}

/// What a variable is bound to during the search.
#[derive(Clone, Copy)]
enum Slot<'a> {
    One(&'a Atom),
    /// `of` minus the atoms at `picks[at..at + len]` of the environment.
    Rest {
        of: &'a Multiset,
        at: usize,
        len: usize,
    },
}

/// The search's environment: one slot per variable of the rule, the
/// slots bound so far in binding order, and the subsolution picks — the
/// last two append-only, so that backtracking is a truncation.
struct Env<'a> {
    slots: Vec<Option<Slot<'a>>>,
    trail: Vec<usize>,
    /// Inner picks of every subsolution pattern entered so far; each
    /// pattern reserves one entry per element pattern on entry, so the
    /// layout is pattern pre-order.
    picks: Vec<usize>,
}

/// A point the environment can be rolled back to.
#[derive(Clone, Copy)]
struct Mark {
    trail: usize,
    picks: usize,
}

impl<'a> Env<'a> {
    fn mark(&self) -> Mark {
        Mark {
            trail: self.trail.len(),
            picks: self.picks.len(),
        }
    }

    fn undo(&mut self, mark: Mark) {
        for slot in self.trail.drain(mark.trail..) {
            self.slots[slot] = None;
        }
        self.picks.truncate(mark.picks);
    }

    fn rest(&self, of: &'a Multiset, at: usize, len: usize) -> Rest<'_> {
        Rest::new(of.as_slice(), &self.picks[at..at + len])
    }

    fn bind(&mut self, var: &Var, slot: Slot<'a>) {
        self.slots[var.slot()] = Some(slot);
        self.trail.push(var.slot());
    }

    /// Bind a variable to one atom. If already bound, succeeds only when
    /// the existing binding is equal (non-linear pattern consistency).
    fn bind_one(&mut self, var: &Var, atom: &'a Atom) -> bool {
        match self.slots[var.slot()] {
            Some(Slot::One(existing)) => existing == atom,
            Some(Slot::Rest { .. }) => false,
            None => {
                self.bind(var, Slot::One(atom));
                true
            }
        }
    }

    /// Bind an ω variable to `of` minus `picks[at..at + len]`, with the
    /// same consistency requirement for repeated names (compared as
    /// ordered sequences).
    fn bind_rest(&mut self, var: &Var, of: &'a Multiset, at: usize, len: usize) -> bool {
        match self.slots[var.slot()] {
            Some(Slot::Rest {
                of: o,
                at: a,
                len: l,
            }) => self.rest(o, a, l).iter().eq(self.rest(of, at, len).iter()),
            Some(Slot::One(_)) => false,
            None => {
                self.bind(var, Slot::Rest { of, at, len });
                true
            }
        }
    }
}

impl Lookup for Env<'_> {
    fn lookup(&self, var: &Var) -> Option<Bound<'_>> {
        self.slots.get(var.slot())?.map(|slot| match slot {
            Slot::One(atom) => Bound::One(atom),
            Slot::Rest { of, at, len } => Bound::Rest(self.rest(of, at, len)),
        })
    }
}

/// `slots`' allocation, empty, for borrows of another lifetime. Collecting
/// a vector's own iterator into a vector of a same-sized type reuses the
/// allocation in place, so this allocates nothing.
fn recycle<'b>(mut slots: Vec<Option<Slot<'_>>>) -> Vec<Option<Slot<'b>>> {
    slots.clear();
    slots.into_iter().map(|_| None).collect()
}

/// One `find_match` call: what is searched, in which order, and the state
/// the backtracking threads through.
struct Search<'a, 'o> {
    rule: &'a Rule,
    solution: &'a Multiset,
    self_index: Option<usize>,
    order: Option<&'o [usize]>,
    consumed: Vec<usize>,
    env: Env<'a>,
}

/// The matcher: bookkeeping counters, the buffers every search reuses and
/// the positions of the last match found. Create one per engine.
#[derive(Default)]
pub struct Matcher {
    stats: MatchStats,
    /// Root index each LHS pattern of the last match consumed, parallel
    /// to the LHS.
    consumed: Vec<usize>,
    /// Inner picks of the last match's subsolution patterns, in pattern
    /// pre-order.
    picks: Vec<usize>,
    trail: Vec<usize>,
    /// Always empty: kept for its allocation (see [`recycle`]).
    slots: Vec<Option<Slot<'static>>>,
    /// Reactants on their way from the solution into owned bindings.
    taken: Vec<Atom>,
}

impl Matcher {
    /// New matcher with zeroed statistics.
    pub fn new() -> Self {
        Matcher::default()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> MatchStats {
        self.stats
    }

    /// Reset statistics (e.g. per simulation event).
    pub fn reset_stats(&mut self) {
        self.stats = MatchStats::default();
    }

    /// Find the first match of `rule` in `solution`, excluding the atom at
    /// `self_index` (a rule must not consume its own atom), and hand its
    /// borrowed bindings to `then`. `None` when there is no match.
    ///
    /// `order` optionally remaps candidate traversal order (the engine's
    /// nondeterministic mode passes a shuffled index vector); `None` means
    /// insertion order. The matcher keeps where the match was found, for
    /// the engine to take its reactants out of the solution.
    pub fn find_match<R>(
        &mut self,
        rule: &Rule,
        solution: &Multiset,
        self_index: Option<usize>,
        order: Option<&[usize]>,
        host: &mut dyn ExternHost,
        then: impl FnOnce(&dyn Lookup, &mut dyn ExternHost) -> Result<R, HoclError>,
    ) -> Result<Option<R>, HoclError> {
        let mut slots = recycle(std::mem::take(&mut self.slots));
        slots.resize(rule.slot_count(), None);
        let mut search = Search {
            rule,
            solution,
            self_index,
            order,
            consumed: std::mem::take(&mut self.consumed),
            env: Env {
                slots,
                trail: std::mem::take(&mut self.trail),
                picks: std::mem::take(&mut self.picks),
            },
        };
        search.consumed.clear();
        search.env.trail.clear();
        search.env.picks.clear();
        let found = match self.match_patterns(&mut search, 0, host) {
            Ok(true) => then(&search.env, host).map(Some),
            Ok(false) => Ok(None),
            Err(e) => Err(e),
        };
        self.consumed = search.consumed;
        self.trail = search.env.trail;
        self.picks = search.env.picks;
        self.slots = recycle(search.env.slots);
        found
    }

    /// Take the reactants of the last match of `rule` out of `solution` by
    /// value — and the atom at `also`, dropped (a one-shot rule's own) —
    /// and destructure them along the picks into `out`. An ω variable gets
    /// what is left of its subsolution once the picked atoms are removed —
    /// one `Vec::remove` shift per pick, no per-element work. A variable
    /// that occurs twice keeps its first occurrence.
    pub(crate) fn take_match(
        &mut self,
        rule: &Rule,
        solution: &mut Multiset,
        also: Option<usize>,
        out: &mut Bindings,
    ) {
        out.reset(rule.slot_count());
        let lhs = rule.lhs();
        self.consumed.extend(also);
        solution.take_picked(&self.consumed, &mut self.taken);
        self.consumed.truncate(lhs.len());
        self.taken.truncate(lhs.len());
        let mut picks = self.picks.as_slice();
        for (k, pattern) in lhs.iter().enumerate() {
            let atom = std::mem::replace(&mut self.taken[k], Atom::Bool(false));
            bind_owned(pattern, atom, &mut picks, &mut self.taken, out);
        }
        self.taken.clear();
    }

    /// Recursive backtracking over the rule's LHS patterns.
    fn match_patterns<'a>(
        &mut self,
        search: &mut Search<'a, '_>,
        at: usize,
        host: &mut dyn ExternHost,
    ) -> Result<bool, HoclError> {
        let (rule, solution) = (search.rule, search.solution);
        let Some(pattern) = rule.lhs().get(at) else {
            return rule.guard().eval(&search.env, host);
        };
        let hint = pattern.shape_hint();
        let key_hint = pattern.key_hint();
        let candidates = search.order.map_or(solution.len(), <[usize]>::len);
        for k in 0..candidates {
            let idx = search.order.map_or(k, |order| order[k]);
            if Some(idx) == search.self_index || search.consumed.contains(&idx) {
                continue;
            }
            let atom = match solution.get(idx) {
                Some(a) => a,
                None => continue,
            };
            // Cheap pre-filters before the structural walk.
            if let Some(h) = hint {
                if atom.shape() != h {
                    continue;
                }
            }
            if let Some(k) = key_hint {
                match atom.tuple_key() {
                    Some(s) if s.as_str() == k => {}
                    _ => continue,
                }
            }
            self.stats.attempts += 1;
            let mark = search.env.mark();
            if self.match_atom(pattern, atom, &mut search.env) {
                search.consumed.push(idx);
                if self.match_patterns(search, at + 1, host)? {
                    return Ok(true);
                }
                search.consumed.pop();
            }
            search.env.undo(mark);
        }
        Ok(false)
    }

    /// Structural match of one pattern against one atom, extending `env`.
    /// Returns `false` (without poisoning the caller, which rolls back to
    /// its mark) when the atom does not fit.
    fn match_atom<'a>(&mut self, pattern: &Pattern, atom: &'a Atom, env: &mut Env<'a>) -> bool {
        self.stats.attempts += 1;
        match pattern {
            Pattern::Any => true,
            Pattern::Var(var) => env.bind_one(var, atom),
            Pattern::Lit(expected) => expected == atom,
            Pattern::Typed(var, tag) => tag.admits(atom) && env.bind_one(var, atom),
            Pattern::Tuple(elems) => match atom {
                Atom::Tuple(values) if values.len() == elems.len() => elems
                    .iter()
                    .zip(values.iter())
                    .all(|(p, a)| self.match_atom(p, a, env)),
                _ => false,
            },
            Pattern::List(elems) => match atom {
                Atom::List(values) if values.len() == elems.len() => elems
                    .iter()
                    .zip(values.iter())
                    .all(|(p, a)| self.match_atom(p, a, env)),
                _ => false,
            },
            Pattern::RuleNamed(name) => {
                matches!(atom, Atom::Rule(r) if r.name() == name.as_str())
            }
            Pattern::Sub(sp) => match atom {
                Atom::Sub(ms) => self.match_sub(sp, ms, env),
                _ => false,
            },
        }
    }

    /// Match a subsolution pattern: assign each element pattern to a
    /// distinct inner atom (backtracking), bind the ω rest if present.
    fn match_sub<'a>(&mut self, sp: &SubPattern, ms: &'a Multiset, env: &mut Env<'a>) -> bool {
        if sp.rest.is_none() && ms.len() != sp.elems.len() {
            return false;
        }
        if ms.len() < sp.elems.len() {
            return false;
        }
        // Reserve this pattern's picks before descending, so that nested
        // subsolution patterns record theirs after it.
        let base = env.picks.len();
        env.picks.resize(base + sp.elems.len(), usize::MAX);
        if !self.assign_elems(&sp.elems, 0, ms, base, env) {
            return false;
        }
        match &sp.rest {
            Some(rest) => env.bind_rest(rest, ms, base, sp.elems.len()),
            None => true,
        }
    }

    /// Backtracking assignment of subsolution element patterns; the pick of
    /// element `at` is recorded at `env.picks[base + at]`.
    fn assign_elems<'a>(
        &mut self,
        elems: &[Pattern],
        at: usize,
        ms: &'a Multiset,
        base: usize,
        env: &mut Env<'a>,
    ) -> bool {
        if at == elems.len() {
            return true;
        }
        for (i, atom) in ms.iter().enumerate() {
            if env.picks[base..base + at].contains(&i) {
                continue;
            }
            let mark = env.mark();
            env.picks[base + at] = i;
            if self.match_atom(&elems[at], atom, env)
                && self.assign_elems(elems, at + 1, ms, base, env)
            {
                return true;
            }
            env.undo(mark);
        }
        false
    }
}

/// One step of [`Matcher::take_match`]: mirrors `Matcher::match_atom`, so
/// it reads the picks in the order the search reserved them. A
/// subsolution's picked atoms wait in `taken` beyond what is already there.
fn bind_owned(
    pattern: &Pattern,
    atom: Atom,
    picks: &mut &[usize],
    taken: &mut Vec<Atom>,
    out: &mut Bindings,
) {
    match (pattern, atom) {
        (Pattern::Var(var) | Pattern::Typed(var, _), atom) => {
            out.bind_one(var.slot(), atom);
        }
        (Pattern::Tuple(elems), Atom::Tuple(values))
        | (Pattern::List(elems), Atom::List(values)) => {
            for (p, a) in elems.iter().zip(values) {
                bind_owned(p, a, picks, taken, out);
            }
        }
        (Pattern::Sub(sp), Atom::Sub(mut ms)) => {
            let (mine, later) = picks.split_at(sp.elems.len());
            *picks = later;
            let base = taken.len();
            ms.take_picked(mine, taken);
            for (k, p) in sp.elems.iter().enumerate() {
                let a = std::mem::replace(&mut taken[base + k], Atom::Bool(false));
                bind_owned(p, a, picks, taken, out);
            }
            taken.truncate(base);
            if let Some(rest) = &sp.rest {
                out.bind_many(rest.slot(), ms);
            }
        }
        // `Any`, literals and rule names bind nothing.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::Binding;
    use crate::externs::NoExterns;
    use crate::guard::{Expr, Guard};
    use crate::template::Template;

    /// A match as the engine uses it: where it was found, and the owned
    /// bindings obtained by taking the consumed atoms out of (a copy of)
    /// the solution.
    struct Found {
        consumed: Vec<usize>,
        bindings: Bindings,
        rule: Rule,
    }

    impl Found {
        fn get(&self, name: &str) -> &Binding {
            let slot = self.rule.slot_of(name).expect("a variable of the rule");
            self.bindings.get(slot).expect("bound")
        }
    }

    fn search(rule: &Rule, sol: &Multiset, order: Option<&[usize]>) -> Option<Found> {
        let mut matcher = Matcher::new();
        matcher
            .find_match(rule, sol, None, order, &mut NoExterns, |_, _| Ok(()))
            .unwrap()?;
        let consumed = matcher.consumed.clone();
        let mut bindings = Bindings::default();
        matcher.take_match(rule, &mut sol.clone(), None, &mut bindings);
        Some(Found {
            consumed,
            bindings,
            rule: rule.clone(),
        })
    }

    fn find(rule: &Rule, sol: &Multiset) -> Option<Found> {
        search(rule, sol, None)
    }

    #[test]
    fn simple_two_var_match_with_guard() {
        let max = Rule::builder("max")
            .lhs([Pattern::var("x"), Pattern::var("y")])
            .guard(Guard::ge(Expr::var("x"), Expr::var("y")))
            .rhs([Template::var("x")])
            .build();
        let sol: Multiset = [Atom::int(2), Atom::int(9)].into_iter().collect();
        let m = find(&max, &sol).expect("should match");
        // First assignment satisfying the guard: x=9, y=2 requires trying
        // x=2,y=9 (guard fails) then backtracking.
        let x = m.get("x").as_one().unwrap().clone();
        let y = m.get("y").as_one().unwrap().clone();
        assert_eq!((x, y), (Atom::int(9), Atom::int(2)));
    }

    #[test]
    fn no_match_on_singleton() {
        let max = Rule::builder("max")
            .lhs([Pattern::var("x"), Pattern::var("y")])
            .rhs([Template::var("x")])
            .build();
        let sol: Multiset = [Atom::int(2)].into_iter().collect();
        assert!(find(&max, &sol).is_none());
    }

    #[test]
    fn distinct_atoms_consumed() {
        // x and y must be two *different* atoms even if equal in value.
        let r = Rule::builder("pair")
            .lhs([Pattern::var("x"), Pattern::var("y")])
            .guard(Guard::eq(Expr::var("x"), Expr::var("y")))
            .rhs([Template::var("x")])
            .build();
        let one: Multiset = [Atom::int(5)].into_iter().collect();
        assert!(find(&r, &one).is_none());
        let two: Multiset = [Atom::int(5), Atom::int(5)].into_iter().collect();
        let m = find(&r, &two).expect("two equal atoms do match");
        assert_eq!(m.consumed.len(), 2);
        assert_ne!(m.consumed[0], m.consumed[1]);
    }

    #[test]
    fn keyed_tuple_and_empty_sub() {
        // gw_setup's LHS: SRC : <> and IN : <ω>.
        let r = Rule::builder("gw_setup")
            .one_shot()
            .lhs([
                Pattern::keyed("SRC", [Pattern::empty_sub()]),
                Pattern::keyed("IN", [Pattern::sub_rest("w")]),
            ])
            .rhs([Template::keyed("SRC", [Template::empty_sub()])])
            .build();

        let ready: Multiset = [
            Atom::keyed("SRC", [Atom::empty_sub()]),
            Atom::keyed("IN", [Atom::sub([Atom::int(1), Atom::int(2)])]),
        ]
        .into_iter()
        .collect();
        let m = find(&r, &ready).expect("deps satisfied, must match");
        assert_eq!(m.get("w").atoms().len(), 2);

        let waiting: Multiset = [
            Atom::keyed("SRC", [Atom::sub([Atom::sym("T1")])]),
            Atom::keyed("IN", [Atom::empty_sub()]),
        ]
        .into_iter()
        .collect();
        assert!(find(&r, &waiting).is_none(), "non-empty SRC must not match");
    }

    #[test]
    fn cross_molecule_unification() {
        // gw_pass core: ?ti bound in the first molecule's head must appear
        // in the second molecule's SRC subsolution.
        let r = Rule::builder("pass")
            .lhs([
                Pattern::tuple([
                    Pattern::var("ti"),
                    Pattern::sub_with_rest(
                        [Pattern::keyed(
                            "DST",
                            [Pattern::sub_with_rest([Pattern::var("tj")], "wd")],
                        )],
                        "wi",
                    ),
                ]),
                Pattern::tuple([
                    Pattern::var("tj"),
                    Pattern::sub_with_rest(
                        [Pattern::keyed(
                            "SRC",
                            [Pattern::sub_with_rest([Pattern::var("ti")], "ws")],
                        )],
                        "wj",
                    ),
                ]),
            ])
            .rhs([])
            .build();

        let t1 = Atom::tuple([
            Atom::sym("T1"),
            Atom::sub([Atom::keyed("DST", [Atom::sub([Atom::sym("T2")])])]),
        ]);
        let t2 = Atom::tuple([
            Atom::sym("T2"),
            Atom::sub([Atom::keyed("SRC", [Atom::sub([Atom::sym("T1")])])]),
        ]);
        let t3 = Atom::tuple([
            Atom::sym("T3"),
            Atom::sub([Atom::keyed("SRC", [Atom::sub([Atom::sym("T9")])])]),
        ]);
        let sol: Multiset = [t3, t1, t2].into_iter().collect();
        let m = find(&r, &sol).expect("T1→T2 must unify");
        assert_eq!(m.get("ti").as_one(), Some(&Atom::sym("T1")));
        assert_eq!(m.get("tj").as_one(), Some(&Atom::sym("T2")));
        // The non-linear `tj` / `ti` share one slot per name.
        assert_eq!(r.slot_count(), 6);
    }

    #[test]
    fn rule_pattern_matches_by_name() {
        let max = Rule::builder("max")
            .lhs([Pattern::var("x")])
            .rhs([])
            .build();
        let clean = Rule::builder("clean")
            .one_shot()
            .lhs([Pattern::sub_with_rest(
                [Pattern::RuleNamed("max".into())],
                "w",
            )])
            .rhs([Template::var("w")])
            .build();
        let inner = Atom::sub([Atom::int(9), Atom::rule(max)]);
        let sol: Multiset = [inner].into_iter().collect();
        let m = find(&clean, &sol).expect("must grab the sub containing max");
        assert_eq!(m.get("w").atoms(), &[Atom::int(9)]);
    }

    #[test]
    fn exact_sub_pattern_requires_exact_size() {
        let r = Rule::builder("r")
            .lhs([Pattern::sub_exact([Pattern::var("x")])])
            .rhs([])
            .build();
        let one: Multiset = [Atom::sub([Atom::int(1)])].into_iter().collect();
        assert!(find(&r, &one).is_some());
        let two: Multiset = [Atom::sub([Atom::int(1), Atom::int(2)])]
            .into_iter()
            .collect();
        assert!(find(&r, &two).is_none());
    }

    #[test]
    fn self_index_excluded() {
        let r = Rule::builder("selfish")
            .lhs([Pattern::RuleNamed("selfish".into())])
            .rhs([])
            .build();
        let sol: Multiset = [Atom::rule(r.clone())].into_iter().collect();
        // The only candidate is the rule's own atom at index 0 — excluded.
        let m = Matcher::new()
            .find_match(&r, &sol, Some(0), None, &mut NoExterns, |_, _| Ok(()))
            .unwrap();
        assert!(m.is_none());
    }

    #[test]
    fn custom_order_changes_selection() {
        let r = Rule::builder("grab")
            .lhs([Pattern::var("x")])
            .rhs([])
            .build();
        let sol: Multiset = [Atom::int(1), Atom::int(2)].into_iter().collect();
        let order = [1usize, 0];
        let m = search(&r, &sol, Some(&order)).unwrap();
        assert_eq!(m.get("x").as_one(), Some(&Atom::int(2)));
    }

    #[test]
    fn stats_count_attempts() {
        let r = Rule::builder("grab")
            .lhs([Pattern::lit(Atom::int(99))])
            .rhs([])
            .build();
        let sol: Multiset = (0..10).map(Atom::int).collect();
        let mut m = Matcher::new();
        assert!(m
            .find_match(&r, &sol, None, None, &mut NoExterns, |_, _| Ok(()))
            .unwrap()
            .is_none());
        // Shape prefilter admits all ints; each is attempted.
        assert!(m.stats().attempts >= 10);
        m.reset_stats();
        assert_eq!(m.stats().attempts, 0);
    }
}
