//! Property tests on the workflow → chemistry compiler: structural
//! invariants of the generated programs for arbitrary workloads.

use ginflow_core::{patterns, AdaptiveDiamondSpec, Connectivity};
use ginflow_hocl::symbol::keywords as kw;
use ginflow_hoclflow::{agent_programs, compile_centralized};
use proptest::prelude::*;

fn connectivity(full: bool) -> Connectivity {
    if full {
        Connectivity::Full
    } else {
        Connectivity::Simple
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
