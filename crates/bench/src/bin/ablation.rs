//! Ablation studies for the reproduction's design decisions — not paper
//! figures, but the evidence behind its choices. The deviations from the
//! paper's rules are listed under "Deviations from the paper's figures"
//! in the `ginflow_hoclflow` crate docs.
//!
//! * **A1 — adaptation vs restart**: §III motivates on-the-fly adaptation
//!   as "a new chance to obtain meaningful results without having to
//!   restart the whole workflow". Compare the adaptive makespan with the
//!   fail-then-rerun alternative.
//! * **A2 — cost-model sensitivity**: how the Fig 12 anchor responds to
//!   the two fitted constants (broker occupancy, shared-multiset update).
//! * **A3 — recovery needs persistence**: the same crash campaign on the
//!   transient profile never completes; on the log profile it always does
//!   (the Fig 14-vs-16 trade-off in one table).

use ginflow_bench::table;
use ginflow_core::{patterns, AdaptiveDiamondSpec, Connectivity};
use ginflow_sim::{simulate, CostModel, FailureSpec, ServiceModel, SimConfig, SECOND};

fn main() {
    ablation_adaptation_vs_restart();
    ablation_cost_sensitivity();
    ablation_persistence();
}

fn sim_secs(wf: &ginflow_core::Workflow, services: ServiceModel) -> f64 {
    let r = simulate(
        wf,
        &SimConfig {
            services,
            seed: 5,
            ..SimConfig::default()
        },
    );
    assert!(r.completed);
    r.makespan_secs()
}

/// A1: adaptive continuation vs stop-and-rerun, on the §V-B scenario.
fn ablation_adaptation_vs_restart() {
    println!("A1 — adaptation vs full re-execution (simple→simple body replacement)");
    let mut rows = Vec::new();
    for n in [6usize, 11, 16, 21] {
        let regular = sim_secs(
            &patterns::diamond(n, n, Connectivity::Simple, "s").unwrap(),
            ServiceModel::constant(300_000),
        );
        let spec = AdaptiveDiamondSpec {
            h: n,
            v: n,
            main: Connectivity::Simple,
            replacement: Connectivity::Simple,
        };
        let adaptive = sim_secs(
            &spec.build("s", "faulty").unwrap(),
            ServiceModel::constant(300_000).fail_first(spec.failing_task()),
        );
        // Restart strategy: the failed run burns one full regular makespan
        // (the failure strikes at the last mesh service), then reruns.
        let restart = 2.0 * regular;
        rows.push(vec![
            format!("{n}x{n}"),
            table::secs(regular),
            table::secs(adaptive),
            table::secs(restart),
            table::ratio(adaptive / regular),
            table::ratio(restart / regular),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "mesh",
                "regular",
                "adaptive",
                "restart",
                "adapt ratio",
                "restart ratio"
            ],
            &rows
        )
    );
    println!("adaptation beats restarting at every size (ratio < 2), as §III argues\n");
}

/// A2: anchor sensitivity to the fitted constants.
fn ablation_cost_sensitivity() {
    println!("A2 — Fig 12 simple 21x21 anchor vs the two fitted constants");
    let wf = patterns::diamond(21, 21, Connectivity::Simple, "s").unwrap();
    let mut rows = Vec::new();
    for scale in [0.5, 1.0, 2.0] {
        let base = CostModel::activemq();
        let cost = CostModel {
            broker_service_us: (base.broker_service_us as f64 * scale) as u64,
            ..base
        };
        let broker_scaled = simulate(
            &wf,
            &SimConfig {
                cost,
                services: ServiceModel::constant(300_000),
                seed: 5,
                ..SimConfig::default()
            },
        );
        let base = CostModel::activemq();
        let cost = CostModel {
            status_update_us: (base.status_update_us as f64 * scale) as u64,
            ..base
        };
        let status_scaled = simulate(
            &wf,
            &SimConfig {
                cost,
                services: ServiceModel::constant(300_000),
                seed: 5,
                ..SimConfig::default()
            },
        );
        rows.push(vec![
            format!("x{scale}"),
            table::secs(broker_scaled.makespan_secs()),
            table::secs(status_scaled.makespan_secs()),
        ]);
    }
    println!(
        "{}",
        table::render(&["scale", "broker scaled (s)", "status scaled (s)"], &rows)
    );
    println!("the shared-multiset constant dominates the simple-connected surface;\nthe broker constant dominates the fully-connected one (message volume)\n");
}

/// A3: recovery requires the persistent broker.
fn ablation_persistence() {
    println!("A3 — crash campaign with and without a persistent log (3x3 diamond, p=0.5, T=1s)");
    let wf = patterns::diamond(3, 3, Connectivity::Simple, "s").unwrap();
    let mut rows = Vec::new();
    for (label, persistent, cost) in [
        ("activemq (transient)", false, CostModel::activemq()),
        ("kafka (log)", true, CostModel::kafka()),
    ] {
        let mut completed = 0;
        let mut failures = 0;
        let runs = 10;
        for seed in 0..runs {
            let r = simulate(
                &wf,
                &SimConfig {
                    cost: cost.clone(),
                    services: ServiceModel::constant(2 * SECOND),
                    failures: Some(FailureSpec {
                        p: 0.5,
                        t_us: SECOND,
                    }),
                    persistent_broker: persistent,
                    seed,
                    ..SimConfig::default()
                },
            );
            completed += r.completed as u32;
            failures += r.failures;
        }
        rows.push(vec![
            label.to_owned(),
            format!("{completed}/{runs}"),
            format!("{failures}"),
        ]);
    }
    println!(
        "{}",
        table::render(&["middleware", "completed", "total crashes"], &rows)
    );
    println!("resilience is a property of the middleware choice (§IV-B): replay needs the log");
}
