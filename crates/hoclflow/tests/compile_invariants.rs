//! Property tests on the workflow → chemistry compiler: structural
//! invariants of the generated programs for arbitrary workloads.

use ginflow_core::workflow::{ReplacementTask, WorkflowBuilder};
use ginflow_core::{patterns, AdaptiveDiamondSpec, Connectivity, Workflow};
use ginflow_hocl::symbol::keywords as kw;
use ginflow_hoclflow::{agent_programs, compile_centralized, Compiler};
use proptest::prelude::*;

fn connectivity(full: bool) -> Connectivity {
    if full {
        Connectivity::Full
    } else {
        Connectivity::Simple
    }
}

/// A chain `T0 → … → T{n-1}` with one adaptation per `(first, last,
/// width)`: the region `T{first}..=T{last}` is replaced by a chain of
/// `width` standby tasks. Regions are kept disjoint and away from both
/// ends, so each has an entry and a single destination.
fn chain_with_adaptations(n: usize, regions: &[(usize, usize, usize)]) -> Workflow {
    let mut b = WorkflowBuilder::new("chain");
    for i in 0..n {
        let task = b.task(format!("T{i}"), "svc");
        if i > 0 {
            task.after([format!("T{}", i - 1)]);
        }
    }
    for (k, &(first, last, width)) in regions.iter().enumerate() {
        let region: Vec<String> = (first..=last).map(|i| format!("T{i}")).collect();
        let replacement = (0..width).map(|j| {
            let before = match j {
                0 => format!("T{}", first - 1),
                _ => format!("R{k}_{}", j - 1),
            };
            ReplacementTask::new(format!("R{k}_{j}"), "alt", [before])
        });
        b.adaptation(format!("a{k}"), region.clone(), [&region[0]], replacement);
    }
    b.build().unwrap()
}

/// Every program [`Compiler::program`] compiles on its own — in reverse
/// task order, then again in order — equals the one [`agent_programs`]
/// compiles for the same task.
fn compiled_one_at_a_time_equals_all_at_once(wf: &Workflow) -> Result<(), TestCaseError> {
    let (all, _) = agent_programs(wf);
    prop_assert_eq!(all.len(), wf.dag().len());
    let compiler = Compiler::new(wf);
    for pass in [all.iter().rev().collect::<Vec<_>>(), all.iter().collect()] {
        for expected in pass {
            prop_assert_eq!(&compiler.program(wf, expected.task), expected);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Standby tasks included: an adaptive diamond's programs compiled
    /// one at a time, twice each, equal those compiled all at once.
    #[test]
    fn an_adaptive_diamond_compiles_the_same_one_task_at_a_time(
        h in 1usize..5,
        v in 1usize..5,
        main in any::<bool>(),
        replacement in any::<bool>(),
    ) {
        let spec = AdaptiveDiamondSpec {
            h,
            v,
            main: connectivity(main),
            replacement: connectivity(replacement),
        };
        compiled_one_at_a_time_equals_all_at_once(&spec.build("svc", "faulty").unwrap())?;
    }

    /// The same over chains carrying one or two adaptations, each
    /// replacing a run of tasks with a chain of standby tasks.
    #[test]
    fn an_adaptive_chain_compiles_the_same_one_task_at_a_time(
        first in 1usize..4,
        len in 1usize..3,
        width in 1usize..4,
        second_len in 0usize..3,
        second_width in 1usize..3,
    ) {
        // A second region of `second_len` tasks, none when 0.
        let mut regions = vec![(first, first + len - 1, width)];
        let mut n = first + len + 1;
        if second_len > 0 {
            regions.push((n, n + second_len - 1, second_width));
            n += second_len + 1;
        }
        compiled_one_at_a_time_equals_all_at_once(&chain_with_adaptations(n, &regions))?;
    }

    /// Every agent program of a plain diamond carries exactly the four
    /// generic rules, a consistent TASK atom, and SRC/DST sets mirroring
    /// the DAG.
    #[test]
    fn agent_programs_mirror_the_dag(h in 1usize..6, v in 1usize..6, full in any::<bool>()) {
        let wf = patterns::diamond(h, v, connectivity(full), "svc").unwrap();
        let (agents, plans) = agent_programs(&wf);
        prop_assert!(plans.is_empty());
        prop_assert_eq!(agents.len(), wf.dag().len());
        for agent in &agents {
            let initial = agent.initial();
            let atoms = initial.atoms();
            // Generic rule set, in compilation order.
            let rules: Vec<&str> = atoms
                .iter()
                .filter_map(|a| a.as_rule().map(|r| r.name()))
                .collect();
            prop_assert_eq!(&rules, &["gw_setup", "gw_call", "gw_send", "gw_recv"]);
            // TASK self-name matches.
            let task = atoms
                .find(|a| a.tuple_key().map(|s| s.as_str()) == Some("TASK"))
                .unwrap();
            prop_assert_eq!(
                task.as_tuple().unwrap()[1].as_sym().unwrap().as_str(),
                agent.name.as_str()
            );
            // SRC/DST contents mirror the DAG wiring.
            let id = wf.dag().by_name(&agent.name).unwrap();
            let src = atoms.keyed_sub(kw::SRC).unwrap();
            prop_assert_eq!(src.len(), wf.dag().predecessors(id).len());
            let dst = atoms.keyed_sub(kw::DST).unwrap();
            prop_assert_eq!(dst.len(), wf.dag().successors(id).len());
            // No RES/PAR exist before execution.
            prop_assert!(atoms.keyed_sub(kw::RES).is_none());
            prop_assert!(atoms
                .find(|a| a.tuple_key().map(|s| s.as_str()) == Some(kw::PAR))
                .is_none());
        }
    }

    /// Adaptive diamonds additionally carry exactly one trigger rule (the
    /// watched task), one `add_dst` per region source, one `mv_src` at the
    /// destination, and one activation rule per standby task.
    #[test]
    fn adaptive_compilation_places_rules_correctly(n in 1usize..5, full in any::<bool>()) {
        let spec = AdaptiveDiamondSpec {
            h: n,
            v: n,
            main: connectivity(full),
            replacement: connectivity(!full),
        };
        let wf = spec.build("svc", "faulty").unwrap();
        let (agents, plans) = agent_programs(&wf);
        prop_assert_eq!(plans.len(), 1);
        prop_assert_eq!(plans[0].trigger_targets.len(), n * n);
        // adapt targets: the single source `in` + destination `out`.
        prop_assert_eq!(plans[0].adapt_targets.len(), 2);

        let rule_names = |name: &str| -> Vec<String> {
            agents
                .iter()
                .find(|a| a.name == name)
                .unwrap()
                .initial()
                .atoms()
                .iter()
                .filter_map(|a| a.as_rule().map(|r| r.name().to_owned()))
                .collect()
        };
        prop_assert!(rule_names("in").contains(&"add_dst_0".to_owned()));
        prop_assert!(rule_names("out").contains(&"mv_src_0".to_owned()));
        prop_assert!(rule_names(&spec.failing_task()).contains(&"trigger_adapt_0".to_owned()));
        // Standby tasks: exactly the activation rule.
        for agent in agents.iter().filter(|a| a.standby) {
            let rules: Vec<String> = agent
                .initial()
                .atoms()
                .iter()
                .filter_map(|a| a.as_rule().map(|r| r.name().to_owned()))
                .collect();
            prop_assert_eq!(rules, vec![format!("activate_0")]);
        }
    }

    /// The centralized program has one molecule per task plus the global
    /// rules, and round-trips through the pretty-printer/parser.
    #[test]
    fn centralized_program_prints_and_reparses(h in 1usize..4, v in 1usize..4) {
        let wf = patterns::diamond(h, v, Connectivity::Simple, "svc").unwrap();
        let sol = compile_centralized(&wf);
        // Task molecules + gw_pass.
        prop_assert_eq!(sol.atoms().len(), wf.dag().len() + 1);
        let printed = ginflow_hocl::printer::pretty_solution(&sol);
        // Rule atoms inside subsolutions print by name; reparse with the
        // full program form instead.
        let program = ginflow_hocl::parser::Program {
            rules: vec![],
            solution: sol.clone(),
        };
        let text = ginflow_hocl::printer::pretty(&program);
        let reparsed = ginflow_hocl::parse_program(&text).unwrap();
        prop_assert_eq!(reparsed.solution.atoms().len(), sol.atoms().len());
        prop_assert!(printed.contains("SRC"));
    }
}
