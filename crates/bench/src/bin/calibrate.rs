//! Calibration helper: prints the anchor measurements the cost model is
//! fitted against (not part of the figure set).
//!
//! With `--check` it also gates them: the simulator charges virtual time
//! per unit of the HOCL engine's *real* work counters, so an engine change
//! moves Figs 12–16 silently unless something fails. Exit status 1 when
//! Fig 12's 31×31 corners are more than 10 % off the paper's 54 s / 178 s,
//! the Fig 14 Kafka÷ActiveMQ ratio is outside 3.2–4.8, or the fault-free
//! Montage makespan is outside the 470–500 s `fig16.rs` asserts.

use ginflow_bench::fig12;
use ginflow_core::{patterns, Connectivity};
use ginflow_mq::BrokerKind;
use ginflow_sim::{simulate, CostModel, ServiceModel, SimConfig};

/// One gated anchor: its reading and the range it must stay in.
struct Anchor {
    name: &'static str,
    value: f64,
    range: std::ops::RangeInclusive<f64>,
}

/// Within 10 % of the paper's value.
fn near(paper: f64) -> std::ops::RangeInclusive<f64> {
    0.9 * paper..=1.1 * paper
}

fn main() {
    let check = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--check") => true,
        Some(other) => {
            eprintln!("calibrate: unknown argument {other:?} (usage: calibrate [--check])");
            std::process::exit(2);
        }
    };
    let mut anchors = Vec::new();

    // Fig 12 anchors.
    for (h, v) in [(11usize, 11usize), (21, 21), (31, 31)] {
        let simple = fig12::run_cell(h, v, Connectivity::Simple);
        let full = fig12::run_cell(h, v, Connectivity::Full);
        println!("diamond {h}x{v}: simple {simple:.1}s (anchor 54 @31) | full {full:.1}s (anchor 178 @31)");
        if (h, v) == (31, 31) {
            anchors.push(Anchor {
                name: "Fig 12 simple 31x31 (s)",
                value: simple,
                range: near(54.0),
            });
            anchors.push(Anchor {
                name: "Fig 12 full 31x31 (s)",
                value: full,
                range: near(178.0),
            });
        }
    }
    // Fig 14 anchor: kafka/activemq execution ratio on 10x10 simple.
    let wf = patterns::diamond(10, 10, Connectivity::Simple, "s").unwrap();
    let exec = |kind: BrokerKind| {
        simulate(
            &wf,
            &SimConfig {
                cost: CostModel::for_broker(kind),
                services: ServiceModel::constant(300_000),
                persistent_broker: kind == BrokerKind::Log,
                seed: 1,
                ..SimConfig::default()
            },
        )
        .makespan_secs()
    };
    let amq = exec(BrokerKind::Transient);
    let kafka = exec(BrokerKind::Log);
    println!(
        "10x10: activemq {amq:.1}s kafka {kafka:.1}s ratio {:.2} (anchor ~4)",
        kafka / amq
    );
    anchors.push(Anchor {
        name: "Fig 14 kafka/activemq ratio",
        value: kafka / amq,
        range: 3.2..=4.8,
    });
    // Fig 16 anchor: fault-free Montage makespan.
    let montage = ginflow_montage::workflow();
    let mut services = ServiceModel::constant(1_000_000);
    for (task, secs) in ginflow_montage::durations_secs() {
        services.set_duration_secs(task, secs);
    }
    let r = simulate(
        &montage,
        &SimConfig {
            cost: CostModel::kafka(),
            services,
            persistent_broker: true,
            seed: 2,
            ..SimConfig::default()
        },
    );
    println!(
        "montage fault-free: {:.1}s (anchor 484), completed={} msgs={}",
        r.makespan_secs(),
        r.completed,
        r.messages
    );
    anchors.push(Anchor {
        name: "Fig 16 Montage makespan (s)",
        value: r.makespan_secs(),
        range: 470.0..=500.0,
    });

    if check {
        let mut failed = !r.completed;
        for a in &anchors {
            let ok = a.range.contains(&a.value);
            failed |= !ok;
            println!(
                "check {}: {:.2} in {:.1}..={:.1} {}",
                a.name,
                a.value,
                a.range.start(),
                a.range.end(),
                if ok { "ok" } else { "OUT OF RANGE" }
            );
        }
        if failed {
            eprintln!("calibrate: an anchor left its range — re-fit crates/sim/src/costmodel.rs");
            std::process::exit(1);
        }
    }
}
