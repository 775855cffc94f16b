//! `ginflow` — the command-line client of §IV-D.
//!
//! ```text
//! ginflow validate <workflow.json>
//! ginflow translate <workflow.json>
//! ginflow run <workflow.json> [--broker kafka|tcp://HOST:PORT]
//!                             [--executor centralized|scheduler|sim]
//!                             [--run-id ID] [--shard I/N] [--workers N] [--shell]
//!                             [--service-sleep MS] [--timeout SECS] [--follow]
//! ginflow broker serve [--addr HOST:PORT] [--profile kafka]
//!                      [--retention SECS] [--data-dir DIR]
//!                      [--fsync always|never]
//!                      [--metrics-addr HOST:PORT]
//! ginflow broker runs  [--addr HOST:PORT]
//! ginflow broker top   [--addr HOST:PORT] [--interval SECS] [--count N]
//! ginflow broker close <run> [--addr HOST:PORT]
//! ginflow broker gc    [--addr HOST:PORT]
//! ginflow simulate <workflow.json> [--broker activemq|kafka] [--seed N]
//!                                  [--service-secs X] [--fail-p P --fail-t T]
//! ginflow montage [--simulate]
//! ```
//!
//! Workflows are given in the JSON format (see `ginflow-core::json`). For
//! `run`, services resolve to lineage-tracing stubs by default; with
//! `--shell` each service name is executed as a program whose stdout is
//! the task result. Every non-centralized executor launches through the
//! unified `Engine`; `--follow` streams the typed run events as JSON
//! lines while the workflow executes, and `--timeout` is enforced as the
//! run's deadline (expiry cancels the run and tears its agents down).
//!
//! Live runs and the daemon use one broker, the log (the paper's Kafka
//! profile): `run` runs on a private in-process log unless given a
//! daemon's `tcp://` address, and deletes the run's topics from that
//! private log when the run is torn down. The ActiveMQ profile exists
//! only as the simulator's cost model: `simulate --broker activemq`
//! (its default) and `run --executor sim --broker activemq` select it,
//! and `run --broker activemq` on a live executor or `broker serve
//! --profile activemq` are refused with a pointer there.
//!
//! ## Distributed mode
//!
//! `ginflow broker serve` starts the standalone broker daemon
//! (`ginflow-net`), fronting a log over TCP. Pointing
//! `ginflow run --broker tcp://HOST:PORT` at it executes the workflow
//! against that daemon; adding `--shard I/N` runs only the agents whose
//! name-hash lands in shard `I` of `N`, so launching the same command
//! once per shard — on any mix of hosts — executes one workflow across
//! `N` OS processes that share nothing but the broker:
//!
//! ```text
//! ginflow broker serve --addr 0.0.0.0:7433 &
//! ginflow run wf.json --broker tcp://HOST:7433 --shard 0/2 &
//! ginflow run wf.json --broker tcp://HOST:7433 --shard 1/2
//! ```
//!
//! Every shard waits on the *whole* workflow (the shared status topic is
//! the cross-shard membrane) and exits 0 once all sinks complete. A
//! killed shard process can simply be relaunched with the same
//! `--run-id`: it replays the run's inbox from the daemon's log and
//! catches back up (§IV-B, applied to a whole process).
//!
//! Topics are **run-scoped** (`run/<id>/…`): every run gets a fresh id
//! (printed in the summary line) unless pinned with `--run-id`, so one
//! standing daemon serves any number of concurrent or back-to-back runs
//! with no cross-run replay. Sharded runs must pin `--run-id` — the N
//! shard processes of one run coordinate by sharing the namespace.
//! `ginflow broker runs` lists the daemon's runs with per-run topic
//! accounting; a completed run's topics are reclaimed by
//! `ginflow broker gc` or automatically after `--retention SECS`. The
//! With `--data-dir DIR` the daemon's log is **durable**: every publish
//! is appended to segment files under `DIR` before fan-out (`--fsync
//! always` also syncs each append to disk before it is acknowledged, so
//! it survives a machine crash; the default `never` survives a process
//! crash only), and a daemon killed mid-run and relaunched
//! on the same dir recovers its topics, offsets, and run registry —
//! clients reconnect and replay as if only the connection had dropped,
//! so in-flight runs complete exactly-once. Without `--data-dir` the
//! log lives in memory and a daemon restart loses retained history.

use ginflow_core::{json, ServiceRegistry, ShellService, TraceService, Workflow};
use ginflow_engine::{Backend, Engine, RunId};
use ginflow_hoclflow::{compile_centralized, run as run_centralized, CentralizedConfig};
use ginflow_mq::BrokerKind;
use ginflow_sim::{simulate, CostModel, FailureSpec, ServiceModel, SimConfig, SECOND};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ginflow: {message}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(());
    };
    match command.as_str() {
        "validate" => cmd_validate(&args[1..]),
        "translate" => cmd_translate(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "broker" => cmd_broker(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "montage" => cmd_montage(&args[1..]),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `ginflow help`")),
    }
}

fn print_usage() {
    println!(
        "GinFlow — decentralised adaptive workflow execution manager\n\
         \n\
         usage:\n\
         \x20 ginflow validate  <workflow.json>\n\
         \x20 ginflow translate <workflow.json>\n\
         \x20 ginflow run       <workflow.json> [--broker kafka|tcp://HOST:PORT]\n\
         \x20                   [--executor centralized|scheduler|sim]\n\
         \x20                   [--run-id ID] [--shard I/N] [--workers N] [--shell]\n\
         \x20                   [--service-sleep MS] [--timeout SECS] [--follow]\n\
         \x20 ginflow broker    serve [--addr HOST:PORT] [--profile kafka]\n\
         \x20                   [--retention SECS] [--data-dir DIR]\n\
         \x20                   [--fsync always|never]\n\
         \x20                   [--metrics-addr HOST:PORT]\n\
         \x20 ginflow broker    runs [--addr HOST:PORT]\n\
         \x20 ginflow broker    top [--addr HOST:PORT] [--interval SECS] [--count N]\n\
         \x20 ginflow broker    close <run> [--addr HOST:PORT]\n\
         \x20 ginflow broker    gc [--addr HOST:PORT]\n\
         \x20 ginflow simulate  <workflow.json> [--broker activemq|kafka] [--seed N]\n\
         \x20                   [--service-secs X] [--fail-p P --fail-t T]\n\
         \x20 ginflow montage   [--simulate]\n\
         \n\
         brokers: live runs and the daemon use the log (kafka); the\n\
         activemq profile is a simulator cost model only, selected by\n\
         `simulate --broker activemq` (the default there) or\n\
         `run --executor sim --broker activemq`.\n\
         \n\
         distributed mode: start the broker daemon once, then launch one\n\
         `run` per shard against it — the same workflow executes across N\n\
         OS processes sharing nothing but the broker. Topics are scoped\n\
         per run (run/<id>/...), so the daemon serves many runs: shards\n\
         of one run share a --run-id, different runs use different ids:\n\
         \x20 ginflow broker serve --addr 0.0.0.0:7433 &\n\
         \x20 ginflow run wf.json --broker tcp://HOST:7433 --run-id a --shard 0/2 &\n\
         \x20 ginflow run wf.json --broker tcp://HOST:7433 --run-id a --shard 1/2\n\
         every shard exits 0 once all sinks complete; a killed shard can\n\
         be relaunched (same --run-id) and replays its state from the\n\
         daemon's log. `broker runs` lists the daemon's runs; completed\n\
         runs' topics are reclaimed by `broker gc` or --retention SECS.\n\
         with `broker serve --data-dir DIR` the daemon's log is durable:\n\
         a daemon killed mid-run and relaunched on the same DIR resumes\n\
         the same offsets and in-flight runs complete via client replay.\n\
         client I/O: every tcp:// connection in a process multiplexes\n\
         onto one shared reactor thread.\n\
         slow services: the scheduler runs services inline on its\n\
         workers, so for long-blocking services (e.g. --shell with slow\n\
         programs) raise --workers."
    );
}

/// Minimal flag parser: positionals + `--key value` + boolean `--key`.
struct Flags<'a> {
    positional: Vec<&'a str>,
    pairs: Vec<(&'a str, Option<&'a str>)>,
}

const VALUE_FLAGS: &[&str] = &[
    "--broker",
    "--executor",
    "--workers",
    "--timeout",
    "--seed",
    "--service-secs",
    "--fail-p",
    "--fail-t",
    "--shard",
    "--service-sleep",
    "--addr",
    "--profile",
    "--run-id",
    "--retention",
    "--data-dir",
    "--fsync",
    "--metrics-addr",
    "--interval",
    "--count",
];

fn parse_flags(args: &[String]) -> Result<Flags<'_>, String> {
    let mut flags = Flags {
        positional: Vec::new(),
        pairs: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(flag) = a.strip_prefix("--").map(|_| a) {
            if VALUE_FLAGS.contains(&flag) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag {flag} needs a value"))?;
                flags.pairs.push((flag, Some(value.as_str())));
                i += 2;
            } else {
                flags.pairs.push((flag, None));
                i += 1;
            }
        } else {
            flags.positional.push(a);
            i += 1;
        }
    }
    Ok(flags)
}

impl Flags<'_> {
    fn value(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| *v)
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| *k == key)
    }

    /// `--broker` as a middleware profile: what `simulate` and `run
    /// --executor sim` price, and the log for a live `run`.
    fn broker(&self, default: &str) -> Result<BrokerKind, String> {
        let name = self.value("--broker").unwrap_or(default);
        if name.starts_with("tcp://") {
            return Err(format!(
                "broker {name:?} is a network address; remote brokers only work with \
                 `ginflow run` on a live executor"
            ));
        }
        parse_profile(name)
            .map_err(|_| format!("unknown broker {name:?} (activemq|kafka|tcp://HOST:PORT)"))
    }

    /// `run`'s broker argument: a profile (the log by default) or a
    /// remote daemon address.
    fn broker_arg(&self) -> Result<BrokerArg, String> {
        match self.value("--broker") {
            Some(addr) if addr.starts_with("tcp://") => Ok(BrokerArg::Remote(addr.to_owned())),
            _ => self.broker("kafka").map(BrokerArg::Kind),
        }
    }

    /// `--shard I/N` (multi-process execution).
    fn shard(&self) -> Result<Option<(u32, u32)>, String> {
        let Some(spec) = self.value("--shard") else {
            return Ok(None);
        };
        let err = || format!("--shard {spec:?}: expected I/N with I < N (e.g. 0/2)");
        let (index, count) = spec.split_once('/').ok_or_else(err)?;
        let index: u32 = index.parse().map_err(|_| err())?;
        let count: u32 = count.parse().map_err(|_| err())?;
        if count == 0 || index >= count {
            return Err(err());
        }
        Ok(Some((index, count)))
    }
}

/// What the simulator prices for a broker profile: its cost model, and
/// whether a respawned agent can replay.
fn sim_profile(broker: BrokerKind) -> SimConfig {
    SimConfig {
        cost: CostModel::for_broker(broker),
        persistent_broker: broker == BrokerKind::Log,
        ..SimConfig::default()
    }
}

/// The one place broker-profile names map to kinds, shared by
/// `--broker` and `broker serve --profile`.
fn parse_profile(name: &str) -> Result<BrokerKind, String> {
    match name {
        "activemq" | "transient" => Ok(BrokerKind::Transient),
        "kafka" | "log" => Ok(BrokerKind::Log),
        other => Err(format!("unknown profile {other:?} (kafka|activemq)")),
    }
}

/// Why `flag` cannot select the ActiveMQ profile for a live broker, and
/// where it still can.
fn activemq_is_simulated(flag: &str) -> String {
    format!(
        "{flag}: live runs and the broker daemon use the log (kafka); the activemq \
         profile is a simulator cost model only — use `ginflow simulate --broker activemq` \
         or `ginflow run --executor sim --broker activemq`"
    )
}

/// Where `run` gets its middleware from.
enum BrokerArg {
    /// An in-process profile: the log for a live executor, the priced
    /// profile for the simulator.
    Kind(BrokerKind),
    /// A `tcp://HOST:PORT` daemon (`ginflow broker serve`).
    Remote(String),
}

fn load_workflow(flags: &Flags<'_>) -> Result<Workflow, String> {
    let path = flags
        .positional
        .first()
        .ok_or("expected a workflow JSON file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let wf = load_workflow(&flags)?;
    println!(
        "{}: OK — {} tasks ({} active, {} standby), {} edges, {} adaptation(s), depth {}",
        wf.name(),
        wf.dag().len(),
        wf.active_task_count(),
        wf.dag().len() - wf.active_task_count(),
        wf.dag().edge_count(),
        wf.adaptations().len(),
        wf.dag().critical_path_len().map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_translate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let wf = load_workflow(&flags)?;
    let solution = compile_centralized(&wf);
    println!("{}", ginflow_hocl::printer::pretty_solution(&solution));
    Ok(())
}

fn service_registry(wf: &Workflow, shell: bool, sleep: Duration) -> ServiceRegistry {
    let mut registry = ServiceRegistry::new();
    for (_, spec) in wf.dag().iter() {
        if registry.get(&spec.service).is_none() {
            let service: Arc<dyn ginflow_core::Service> = if shell {
                Arc::new(ShellService::new(
                    spec.service.clone(),
                    Vec::<String>::new(),
                ))
            } else if sleep > Duration::ZERO {
                // --service-sleep: pace the lineage-tracing stubs, so a
                // run takes real wall-time (load/fault experiments).
                Arc::new(ginflow_core::SleepService::new(
                    sleep,
                    TraceService::new(spec.service.clone()),
                ))
            } else {
                Arc::new(TraceService::new(spec.service.clone()))
            };
            registry.register(spec.service.clone(), service);
        }
    }
    registry
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let wf = load_workflow(&flags)?;
    let service_sleep = Duration::from_millis(
        flags
            .value("--service-sleep")
            .unwrap_or("0")
            .parse()
            .map_err(|e| format!("--service-sleep: {e}"))?,
    );
    let registry = service_registry(&wf, flags.has("--shell"), service_sleep);
    let timeout: u64 = flags
        .value("--timeout")
        .unwrap_or("600")
        .parse()
        .map_err(|e| format!("--timeout: {e}"))?;
    let workers: usize = flags
        .value("--workers")
        .unwrap_or("0")
        .parse()
        .map_err(|e| format!("--workers: {e}"))?;
    let shard = flags.shard()?;
    // Validated at the topic boundary: an id with '/' or whitespace
    // would silently collide or split namespaces on a shared daemon.
    let run_id = flags
        .value("--run-id")
        .map(|id| RunId::new(id).map_err(|e| format!("--run-id: {e}")))
        .transpose()?;
    if shard.is_some() && run_id.is_none() {
        return Err(
            "--shard requires --run-id: topics are run-scoped (run/<id>/...), so every \
             shard process of one run must be launched with the same id to share a \
             namespace"
                .to_owned(),
        );
    }
    match flags.value("--executor").unwrap_or("scheduler") {
        "centralized" => {
            if shard.is_some() {
                return Err("--shard needs the (default) scheduler executor".to_owned());
            }
            // Centralized execution never touches a broker; silently
            // ignoring a daemon address would misreport where the run
            // happened.
            if matches!(flags.broker_arg()?, BrokerArg::Remote(_)) {
                return Err("--executor centralized cannot use a tcp:// broker".to_owned());
            }
            let outcome = run_centralized(&wf, &registry, CentralizedConfig::default())
                .map_err(|e| e.to_string())?;
            let mut names: Vec<&String> = outcome.states.keys().collect();
            names.sort();
            for name in names {
                let state = outcome.states[name];
                match outcome.results.get(name) {
                    Some(v) => println!("{name:<24} {state:<10} {v}"),
                    None => println!("{name:<24} {state:<10}"),
                }
            }
            Ok(())
        }
        // "sim" runs the same workflow in virtual time. The scheduler
        // runs services inline on its workers — for workloads of
        // long-blocking services (e.g. --shell with slow programs),
        // raise --workers.
        executor @ ("scheduler" | "sim") => {
            // Task names become the keys of the run's inbox
            // (run/<id>/sa.inbox) and must be valid path segments;
            // reject invalid ones here with a clean error instead of
            // panicking deep inside the launch.
            for (_, spec) in wf.dag().iter() {
                ginflow_mq::namespace::validate_segment("task name", &spec.name)
                    .map_err(|e| e.to_string())?;
            }
            let backend = match (executor, shard) {
                ("sim", _) => Backend::Sim,
                (_, Some((index, count))) => Backend::Sharded {
                    shard: index,
                    of: count,
                },
                (_, None) => Backend::Scheduler,
            };
            if shard.is_some() && executor == "sim" {
                return Err(format!(
                    "--shard needs the (default) scheduler executor, not {executor:?}"
                ));
            }
            // The simulator runs scripted service models in virtual
            // time; real shell programs cannot execute there.
            if backend == Backend::Sim && flags.has("--shell") {
                return Err(
                    "--shell is not supported with --executor sim (services are simulated; \
                     use `ginflow simulate` options instead)"
                        .to_owned(),
                );
            }
            let mut builder = Engine::builder()
                .registry(Arc::new(registry))
                .workers(workers)
                .backend(backend.clone())
                .deadline(Duration::from_secs(timeout));
            if let Some(id) = run_id {
                builder = builder.run_id(id);
            }
            // Kept aside for the post-run registry calls: a completed
            // run is marked closed on the daemon so its topics become
            // reclaimable.
            let mut remote_handle: Option<Arc<ginflow_net::RemoteBroker>> = None;
            builder = match flags.broker_arg()? {
                BrokerArg::Kind(kind) => {
                    // A private in-process broker cannot host the other
                    // shards' agents; a sharded run against one would
                    // just hang out its deadline.
                    if shard.is_some() {
                        return Err("--shard requires a shared broker daemon: pass \
                             --broker tcp://HOST:PORT (see `ginflow broker serve`)"
                            .to_owned());
                    }
                    if kind == BrokerKind::Transient && backend != Backend::Sim {
                        return Err(activemq_is_simulated("--broker activemq"));
                    }
                    // The live executors run on the engine's default
                    // broker, the log; the kind prices the simulator.
                    if backend == Backend::Sim {
                        builder.sim_config(sim_profile(kind))
                    } else {
                        builder
                    }
                }
                BrokerArg::Remote(addr) => {
                    if backend == Backend::Sim {
                        return Err("--executor sim cannot use a tcp:// broker".to_owned());
                    }
                    let remote = Arc::new(
                        ginflow_net::RemoteBroker::connect(&addr)
                            .map_err(|e| format!("connecting to {addr}: {e}"))?,
                    );
                    remote_handle = Some(remote.clone());
                    builder.broker(remote)
                }
            };
            let engine = builder.build();
            let run = engine.launch(&wf);

            // --follow: stream the typed run events as JSON lines while
            // the workflow executes. The printer thread drains until the
            // stream's terminal event (or teardown) closes it.
            let printer = flags.has("--follow").then(|| {
                let events = run.events();
                std::thread::spawn(move || {
                    for event in events {
                        match serde_json::to_string(&event) {
                            Ok(line) => println!("{line}"),
                            Err(e) => eprintln!("ginflow: event encoding failed: {e}"),
                        }
                    }
                })
            });

            let report = run.join();
            if let Some(printer) = printer {
                let _ = printer.join();
            }

            for (task, t) in &report.tasks {
                let state = t.state;
                match &t.result {
                    Some(v) => println!("{task:<24} {state:<10} {v}"),
                    None => println!("{task:<24} {state:<10}"),
                }
            }
            println!(
                "backend={} run={} completed={} wall={:.3}s adaptations={} respawns={} \
                 resident_peak={} rehydrations={}",
                report.backend,
                report.run_id,
                report.completed,
                report.wall.as_secs_f64(),
                report.adaptations_fired,
                report.respawns,
                report.resident_peak,
                report.rehydrations
            );
            // join() only returns on a terminal outcome (completed,
            // cancelled, deadline expired): mark the run closed on the
            // daemon so `broker gc` (or the retention sweeper) may
            // reclaim its topics — failed runs must not pin the
            // daemon's memory forever. Exception: a *failed shard* must
            // NOT close the run — its log is exactly what a relaunched
            // sibling (same --run-id) replays to recover, and a local
            // deadline expiry says nothing about the peers; abandoned
            // sharded runs are reclaimed by the operator
            // (`ginflow broker close RUN` + `gc`). Best-effort: a
            // racing shard may already have closed it, and a dead
            // daemon no longer holds anything to reclaim.
            if report.completed || shard.is_none() {
                if let Some(remote) = remote_handle {
                    let _ = remote.close_run(&report.run_id);
                }
            }
            if report.completed {
                Ok(())
            } else if report.deadline_expired {
                Err(format!("run cancelled after --timeout {timeout}s deadline"))
            } else {
                Err("run ended without completing".to_owned())
            }
        }
        other => Err(format!(
            "unknown executor {other:?} (centralized|scheduler|sim)"
        )),
    }
}

/// `ginflow broker` — the daemon and its run-registry tools.
///
/// * `serve`: the standalone broker daemon of distributed mode. Blocks
///   until killed; prints the bound address (port 0 resolves to an
///   ephemeral port) so wrappers can parse it. `--retention SECS` makes
///   the daemon reclaim a completed run's topics automatically that
///   long after the run is closed. `--profile` accepts only `kafka`:
///   the daemon fronts a log, and the activemq profile is a simulator
///   cost model. `--data-dir DIR` backs the log with segment files
///   under `DIR`, recovering topics, offsets, and the run registry on
///   relaunch — `--fsync`
///   picks the sync policy (`always`: a blocking sync per append;
///   `never`, the default: the OS writes back when it will), and the
///   retention GC reclaims a
///   collected run's segment directories along with its memory.
///   `--metrics-addr HOST:PORT` additionally serves the daemon's
///   metrics registry as Prometheus text at `GET /metrics`.
/// * `runs`: list the daemon's runs (per-run topic accounting).
/// * `top`: live metrics dashboard — polls the daemon's `STATS` verb
///   every `--interval` seconds and renders per-run publish rates next
///   to the topic/retained gauges and the store totals. `--count N`
///   stops after N frames (for scripts); default runs until killed.
/// * `close`: mark a run completed by hand — how an operator retires an
///   abandoned run (e.g. a sharded run whose processes died) so `gc`
///   can reclaim it.
/// * `gc`: reclaim every completed run's topics now.
fn cmd_broker(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    match flags.positional.first() {
        Some(&"serve") => cmd_broker_serve(&flags),
        Some(&"top") => cmd_broker_top(&flags),
        Some(&"close") => {
            let run = flags
                .positional
                .get(1)
                .ok_or("broker close: expected a run id")?;
            let client = broker_client(&flags)?;
            if client.close_run(run).map_err(|e| e.to_string())? {
                println!("run {run} marked completed (reclaimable by gc)");
                Ok(())
            } else {
                Err(format!("daemon knows no run {run:?}"))
            }
        }
        Some(&"runs") => {
            let client = broker_client(&flags)?;
            let runs = client.list_runs().map_err(|e| e.to_string())?;
            if runs.is_empty() {
                println!("no runs");
            }
            for r in runs {
                println!(
                    "{:<24} topics={:<4} retained={:<8} {}",
                    r.run,
                    r.topics,
                    r.retained,
                    if r.completed { "completed" } else { "active" }
                );
            }
            Ok(())
        }
        Some(&"gc") => {
            let client = broker_client(&flags)?;
            let (runs, topics) = client.gc_runs().map_err(|e| e.to_string())?;
            println!("reclaimed {runs} run(s), {topics} topic(s)");
            Ok(())
        }
        other => Err(format!(
            "broker subcommand {:?}: expected serve|runs|top|close|gc",
            other.unwrap_or(&"<none>")
        )),
    }
}

/// Connect to a daemon for the registry subcommands (`runs`, `gc`).
/// Like every client connection, it rides the process-wide shared
/// reactor.
fn broker_client(flags: &Flags<'_>) -> Result<ginflow_net::RemoteBroker, String> {
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:7433");
    ginflow_net::RemoteBroker::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))
}

/// A snapshot's rows keyed by `(family name, label)` for lookups and
/// frame-to-frame rate differencing.
type StatTable = std::collections::HashMap<(String, String), u64>;

/// `ginflow broker top` — poll `STATS` and render the daemon's metrics
/// as a terminal dashboard: one global line (connections, publish and
/// fan-out totals with rates, store disk/fsync accounting), then one
/// row per live run.
fn cmd_broker_top(flags: &Flags<'_>) -> Result<(), String> {
    let interval: f64 = flags
        .value("--interval")
        .unwrap_or("2")
        .parse()
        .map_err(|e| format!("--interval: {e}"))?;
    if !interval.is_finite() || interval <= 0.0 {
        return Err("--interval must be a positive number of seconds".to_owned());
    }
    let count: u64 = flags
        .value("--count")
        .unwrap_or("0")
        .parse()
        .map_err(|e| format!("--count: {e}"))?;
    let client = broker_client(flags)?;
    let mut prev: Option<(std::time::Instant, StatTable)> = None;
    let mut frames = 0u64;
    loop {
        let rows = client.stats().map_err(|e| e.to_string())?;
        let now = std::time::Instant::now();
        let table: StatTable = rows
            .iter()
            .map(|r| ((r.name.clone(), r.label.clone()), r.value))
            .collect();
        let since = prev
            .as_ref()
            .map(|(at, p)| (now.duration_since(*at).as_secs_f64(), p));
        render_top(&rows, &table, since);
        frames += 1;
        if count != 0 && frames >= count {
            return Ok(());
        }
        prev = Some((now, table));
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}

/// One `broker top` frame. `since` is `(elapsed seconds, previous
/// snapshot)` — absent on the first frame, where rates print as `-`.
fn render_top(
    rows: &[ginflow_mq::wire::StatRow],
    table: &StatTable,
    since: Option<(f64, &StatTable)>,
) {
    let get = |name: &str, label: &str| {
        table
            .get(&(name.to_owned(), label.to_owned()))
            .copied()
            .unwrap_or(0)
    };
    let sum = |name: &str| {
        rows.iter()
            .filter(|r| r.name == name)
            .map(|r| r.value)
            .sum::<u64>()
    };
    // Per-second rate of a (name, label) series between the frames;
    // `-` until there are two frames to difference.
    let rate = |name: &str, label: &str| -> String {
        match since {
            Some((dt, prev)) if dt > 0.0 => {
                let before = prev
                    .get(&(name.to_owned(), label.to_owned()))
                    .copied()
                    .unwrap_or(0);
                format!("{:.0}", get(name, label).saturating_sub(before) as f64 / dt)
            }
            _ => "-".to_owned(),
        }
    };
    let sum_rate = |name: &str| -> String {
        match since {
            Some((dt, prev)) if dt > 0.0 => {
                let before = prev
                    .iter()
                    .filter(|((n, _), _)| n == name)
                    .map(|(_, v)| *v)
                    .sum::<u64>();
                format!("{:.0}", sum(name).saturating_sub(before) as f64 / dt)
            }
            _ => "-".to_owned(),
        }
    };
    println!(
        "conns={} publishes={} ({}/s) fanout={} ({}/s) store={} fsyncs={}",
        get("gf_loop_connections", ""),
        sum("gf_broker_publish_total"),
        sum_rate("gf_broker_publish_total"),
        get("gf_loop_fanout_messages_total", ""),
        sum_rate("gf_loop_fanout_messages_total"),
        human_bytes(get("gf_store_disk_bytes", "")),
        get("gf_store_fsyncs_total", ""),
    );
    // Every run any `gf_run_*` family knows about, sorted for a stable
    // frame-to-frame layout.
    let runs: std::collections::BTreeSet<&str> = rows
        .iter()
        .filter(|r| r.name.starts_with("gf_run_"))
        .map(|r| r.label.as_str())
        .collect();
    if runs.is_empty() {
        println!("  (no runs)");
        return;
    }
    println!(
        "  {:<24} {:>10} {:>10} {:>7} {:>9}",
        "RUN", "PUB/s", "BYTES/s", "TOPICS", "RETAINED"
    );
    for run in runs {
        println!(
            "  {:<24} {:>10} {:>10} {:>7} {:>9}",
            run,
            rate("gf_run_publish_total", run),
            rate("gf_run_publish_bytes_total", run),
            get("gf_run_topics", run),
            get("gf_run_retained", run),
        );
    }
}

/// `1234567` → `"1.2MB"` — rough and line-width-stable.
fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = n as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n}B")
    } else {
        format!("{value:.1}{}", UNITS[unit])
    }
}

fn cmd_broker_serve(flags: &Flags<'_>) -> Result<(), String> {
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:7433");
    if parse_profile(flags.value("--profile").unwrap_or("kafka"))? == BrokerKind::Transient {
        return Err(activemq_is_simulated("--profile activemq"));
    }
    let retention = flags
        .value("--retention")
        .map(|s| s.parse::<u64>().map_err(|e| format!("--retention: {e}")))
        .transpose()?
        .map(Duration::from_secs);
    let fsync = flags
        .value("--fsync")
        .map(|policy| {
            ginflow_mq::FsyncPolicy::parse(policy)
                .ok_or_else(|| format!("--fsync {policy:?}: expected always|never"))
        })
        .transpose()?;
    let (broker, recovery): (Arc<dyn ginflow_mq::Broker>, _) = match flags.value("--data-dir") {
        Some(dir) => {
            let config = ginflow_mq::DurabilityConfig {
                fsync: fsync.unwrap_or_default(),
                ..ginflow_mq::DurabilityConfig::default()
            };
            let (broker, report) =
                ginflow_mq::LogBroker::open(dir, config).map_err(|e| e.to_string())?;
            (Arc::new(broker), Some((dir.to_owned(), report)))
        }
        None => {
            if fsync.is_some() {
                return Err("--fsync needs --data-dir (the in-memory log never syncs)".to_owned());
            }
            (Arc::new(ginflow_mq::LogBroker::new()), None)
        }
    };
    let server = ginflow_net::BrokerServer::bind_with_retention(addr, broker, retention)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    let metrics_bound = flags
        .value("--metrics-addr")
        .map(|a| {
            server
                .serve_metrics(a)
                .map_err(|e| format!("binding metrics endpoint {a}: {e}"))
        })
        .transpose()?;
    // Wrappers (tests, CI) parse the bound address off this first line —
    // keep its format stable. Writes are allowed to fail: a wrapper
    // that closes our stdout after parsing the banner must not take
    // the daemon down with an EPIPE panic.
    use std::io::Write;
    let mut stdout = std::io::stdout();
    let _ = writeln!(
        stdout,
        "ginflow broker ({}) listening on {}",
        BrokerKind::Log.label(),
        server.local_addr()
    );
    if let Some(bound) = metrics_bound {
        let _ = writeln!(stdout, "metrics on http://{bound}/metrics");
    }
    if let Some((dir, report)) = recovery {
        let _ = writeln!(
            stdout,
            "data dir {dir}: recovered {} topic(s), {} message(s), truncated {} torn byte(s)",
            report.topics, report.messages, report.truncated_bytes
        );
    }
    let _ = stdout.flush();
    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let wf = load_workflow(&flags)?;
    let broker = flags.broker("activemq")?;
    let seed: u64 = flags
        .value("--seed")
        .unwrap_or("0")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let service_secs: f64 = flags
        .value("--service-secs")
        .unwrap_or("0.3")
        .parse()
        .map_err(|e| format!("--service-secs: {e}"))?;
    let failures = match (flags.value("--fail-p"), flags.value("--fail-t")) {
        (None, None) => None,
        (p, t) => Some(FailureSpec {
            p: p.unwrap_or("0.5")
                .parse()
                .map_err(|e| format!("--fail-p: {e}"))?,
            t_us: (t
                .unwrap_or("0")
                .parse::<f64>()
                .map_err(|e| format!("--fail-t: {e}"))?
                * SECOND as f64) as u64,
        }),
    };
    let report = simulate(
        &wf,
        &SimConfig {
            services: ServiceModel::constant((service_secs * SECOND as f64) as u64),
            failures,
            seed,
            ..sim_profile(broker)
        },
    );
    println!(
        "completed={} makespan={:.2}s messages={} status_updates={} invocations={} failures={} respawns={}",
        report.completed,
        report.makespan_secs(),
        report.messages,
        report.status_updates,
        report.invocations,
        report.failures,
        report.respawns
    );
    Ok(())
}

fn cmd_montage(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let wf = ginflow_montage::workflow();
    let buckets = ginflow_montage::bucket_counts(&ginflow_montage::durations_secs());
    println!(
        "Montage M45 mosaic: {} tasks, {} edges, band width {}, buckets T<20:{} 20-60:{} >=60:{}",
        wf.dag().len(),
        wf.dag().edge_count(),
        ginflow_montage::BAND_WIDTH,
        buckets.under_20,
        buckets.between_20_and_60,
        buckets.over_60
    );
    if flags.has("--simulate") {
        let mut services = ServiceModel::constant(SECOND);
        for (task, secs) in ginflow_montage::durations_secs() {
            services.set_duration_secs(task, secs);
        }
        let report = simulate(
            &wf,
            &SimConfig {
                cost: CostModel::kafka(),
                services,
                persistent_broker: true,
                seed: 1,
                ..SimConfig::default()
            },
        );
        println!(
            "simulated (mesos/kafka): completed={} makespan={:.1}s (paper ≈ 484 s)",
            report.completed,
            report.makespan_secs()
        );
    }
    Ok(())
}
