//! The point of being event-driven: a parked workflow consumes (close
//! to) zero CPU, where hundreds of polling agents would burn it forever.
//!
//! This lives in its own test binary on purpose: the assertion measures
//! *process-wide* CPU, so sharing a process with the other scheduler
//! tests (which legitimately burn CPU on parallel test threads) would
//! make it flaky.

use ginflow_agent::{RunOptions, Scheduler};
use ginflow_core::{patterns, ServiceRegistry};
use ginflow_mq::BrokerKind;
use std::sync::Arc;
use std::time::Duration;

/// CPU time (user + system) this process has consumed (`/proc/self/stat`,
/// fields 14/15 counted after the parenthesised comm field, USER_HZ=100).
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    let rest = &stat[stat.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    Duration::from_millis(ticks * 10)
}

#[test]
fn idle_pool_burns_no_cpu() {
    let registry = Arc::new(ServiceRegistry::tracing_for(["s"]));
    let scheduler =
        Scheduler::new(BrokerKind::Transient.build(), registry).with_options(RunOptions {
            workers: 2,
            ..RunOptions::default()
        });
    let run = scheduler.launch(&patterns::parallel(200, "s").unwrap());
    run.wait(Duration::from_secs(30)).expect("fan completes");

    let before = process_cpu();
    std::thread::sleep(Duration::from_millis(1000));
    let after = process_cpu();
    run.shutdown();
    let burned = after.saturating_sub(before);
    // One idle second must cost well under 20 ms of CPU — a single
    // agent polling its inbox every 5 ms would alone cost more.
    assert!(
        burned < Duration::from_millis(20),
        "idle pool burned {burned:?} of CPU in 1s"
    );
}
