//! The GinFlow workflow-run benchmark. See README.md beside this crate
//! for what it measures and why; `BENCHMARK.json` at the repo root for
//! the contract it reports to.
//!
//! ```text
//! ginflow-benchmark [--workload <name>|all] [--seed N] [--seconds S]
//!                   [--trace [0|1]] [--smoke] [--check]
//! ```
//!
//! Each workload runs in a child process of its own (a re-exec of this
//! binary), so peak memory, the metrics registry and the client reactor
//! start clean; the child pins itself to one CPU before it spawns a
//! thread. The last line a child prints is its result as one JSON
//! object.

mod digest;
mod harness;
mod replay;
mod report;
mod stats;
mod sys;
mod trace;
mod traced;
mod workloads;

use report::{Outcome, Values, END_TO_END, EXACT_COUNTS, PER_LAYER};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Sizes, Workload, WORKLOADS};

const USAGE: &str = "usage: ginflow-benchmark [--workload <name>|all] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--check]";

/// An untraced pass keeps setting up, past the fewest it must, while
/// all its set-ups together took less than this: a set-up of
/// milliseconds needs more samples than one of a second to give a
/// steady median.
const SETUP_BUDGET_S: f64 = 3.0;

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check: bool,
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        check: false,
        child: false,
    };
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    let known = || WORKLOADS.map(|w| w.name).join(", ");
                    let w = workloads::by_name(name).ok_or_else(|| {
                        format!("unknown workload {name:?}; there are: {}", known())
                    })?;
                    o.workloads = vec![w];
                }
            }
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds >= 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".to_owned());
                }
            }
            "--trace" => {
                o.trace = match args.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--smoke" => o.smoke = true,
            "--check" => o.check = true,
            "--child" => o.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(why) => {
            eprintln!("ginflow-benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if options.child {
        child(&options)
    } else if options.check {
        check(&options)
    } else {
        // Every workload runs, whatever the ones before it did.
        let failed = options
            .workloads
            .iter()
            .filter(|w| {
                run_child(w, &options, options.trace)
                    .map_err(|why| eprintln!("ginflow-benchmark: {why}"))
                    .is_err()
            })
            .count();
        failed == 0
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one pass over one workload in a fresh process, passing its
/// output through; returns its parsed result line when it succeeded.
fn run_child(w: &Workload, o: &Options, trace: bool) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--child", "--workload", w.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if o.smoke {
        command.arg("--smoke");
    }
    let mut process = command
        .spawn()
        .map_err(|e| format!("spawning the child: {e}"))?;
    let mut last = String::new();
    for line in std::io::BufReader::new(process.stdout.take().expect("piped")).lines() {
        last = line.map_err(|e| format!("reading the child: {e}"))?;
        println!("{last}");
    }
    let status = process
        .wait()
        .map_err(|e| format!("waiting for the child: {e}"))?;
    if !status.success() {
        return Err(format!("{}: child ended with {status}", w.name));
    }
    report::parse_result_line(&last).ok_or_else(|| format!("{}: no result line", w.name))
}

/// One pass over one workload, in this process.
fn child(o: &Options) -> bool {
    let w = o.workloads[0];
    sys::single_malloc_arena();
    let pinned = match sys::pin_to_first_cpu() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ginflow-benchmark: cannot pin to a CPU: {e}");
            return false;
        }
    };
    let sizes = w.sizes(o.smoke);
    println!(
        "== {} ({:?}, {:?}) seed {} | {} pass{} | pinned to cpu {} of {} allowed | writes under {}\n   {}",
        w.name,
        sizes.shape,
        w.transport,
        o.seed,
        if o.trace { "traced" } else { "untraced" },
        if o.smoke { ", smoke" } else { "" },
        pinned.cpu,
        pinned.allowed,
        sys::out_dir().display(),
        w.why,
    );
    let (specs, outcome) = if o.trace {
        (&PER_LAYER[..], traced::traced_pass(w, &sizes, o.seed))
    } else {
        let seconds = if o.smoke { 0.0 } else { o.seconds };
        (&END_TO_END[..], untraced_pass(w, &sizes, o.seed, seconds))
    };
    if let Some(why) = &outcome.wrong {
        eprintln!("ginflow-benchmark: {}: {why}", w.name);
    }
    // A pass that failed before it measured has nothing to report; the
    // driver takes the exit code.
    if outcome.values.len() == specs.len() {
        print!("{}", report::table(specs, &outcome.values));
        println!("{}", report::result_line(specs, &outcome));
    }
    outcome.wrong.is_none() && outcome.failed == 0
}

fn untraced_pass(w: &Workload, sizes: &Sizes, seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    // Set up several times: one sample of a set-up is one sample.
    let mut setups = Vec::new();
    let mut setup = None;
    let (fewest, most) = sizes.setup_cycles;
    while setups.len() < fewest
        || (setups.len() < most && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(setup.take());
        match harness::set_up(sizes.shape, w.transport, seed, sizes.warmup_runs) {
            Ok(s) => {
                setups.push(s.seconds);
                setup = Some(s);
            }
            Err(why) => {
                outcome.wrong = Some(why);
                return outcome;
            }
        }
    }
    let setup = setup.expect("at least one set-up cycle");
    let timed = harness::timed_phase(&setup, seconds, sizes.min_runs);
    outcome.attempted = timed.attempted;
    if let Some(why) = timed.failure {
        outcome.failed = 1;
        outcome.wrong = Some(why);
        return outcome;
    }
    let (q1, q3) = stats::quartiles(&timed.walls);
    println!(
        "{} runs; run wall quartiles {:.6} / {:.6} / {:.6} s, p99 {:.6} s, max {:.6} s; set-ups {:?}",
        timed.walls.len(),
        q1,
        stats::median(&timed.walls),
        q3,
        stats::percentile(&timed.walls, 99.0),
        stats::percentile(&timed.walls, 100.0),
        setups,
    );
    // Every timing is a median over the runs: the machine's
    // disturbances are bursts, which a mean over the phase soaks up.
    let tasks_per_run = timed.tasks_completed as f64 / timed.walls.len() as f64;
    outcome.values = Values::from([
        ("setup_s", stats::median(&setups)),
        ("run_wall_s", stats::median(&timed.walls)),
        ("tasks_per_s", tasks_per_run / stats::median(&timed.cycles)),
        ("cpu_per_run_s", stats::median(&timed.cpus)),
        ("peak_rss_mib", timed.peak_rss_mib),
    ]);
    outcome
}

/// Two full sets of both passes; the sets must agree on every
/// end-to-end metric within its bound, and on every exact count.
fn check(o: &Options) -> bool {
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for w in &o.workloads {
            match (run_child(w, o, false), run_child(w, o, true)) {
                (Ok(plain), Ok(traced)) => set.push((plain, traced)),
                (Err(why), _) | (_, Err(why)) => {
                    eprintln!("ginflow-benchmark: {why}");
                    return false;
                }
            }
        }
        sets.push(set);
    }
    let mut agree = true;
    println!(
        "\n{:<14} {:<32} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "set 1", "set 2", "apart", "bound"
    );
    for (i, w) in o.workloads.iter().enumerate() {
        let ((plain1, traced1), (plain2, traced2)) = (&sets[0][i], &sets[1][i]);
        for s in &END_TO_END {
            let (a, b) = (plain1[s.name], plain2[s.name]);
            let apart = (a - b).abs() / a.min(b);
            let ok = apart <= s.bound;
            agree &= ok;
            println!(
                "{:<14} {:<32} {a:>14.6} {b:>14.6} {:>7.1}% {:>5.0}%{}",
                w.name,
                s.name,
                apart * 100.0,
                s.bound * 100.0,
                if ok {
                    ""
                } else {
                    "  <-- apart by more than the bound"
                }
            );
        }
        for name in EXACT_COUNTS {
            let (a, b) = (traced1[name], traced2[name]);
            if a != b {
                agree = false;
                println!(
                    "{:<14} {name:<32} {a:>14} {b:>14}  <-- an exact count differs",
                    w.name
                );
            }
        }
    }
    println!(
        "{}",
        if agree {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    agree
}
