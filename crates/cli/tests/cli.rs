//! End-to-end tests of the `ginflow` binary (spawned as a process).

use std::io::Write;
use std::process::Command;

fn ginflow() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ginflow"))
}

fn write_workflow(dir: &std::path::Path, name: &str, json: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(json.as_bytes()).unwrap();
    path
}

const FIG5: &str = r#"{
    "name": "fig5",
    "tasks": [
        {"name": "T1", "service": "s1", "inputs": ["input"]},
        {"name": "T2", "service": "s2", "depends_on": ["T1"]},
        {"name": "T3", "service": "s3", "depends_on": ["T1"]},
        {"name": "T4", "service": "s4", "depends_on": ["T2", "T3"]}
    ],
    "adaptations": [
        {"name": "replace-T2", "region": ["T2"], "on_error_of": ["T2"],
         "replacement": [{"name": "T2p", "service": "s2p", "depends_on": ["T1"]}]}
    ]
}"#;

const FIG2: &str = r#"{
    "name": "fig2",
    "tasks": [
        {"name": "T1", "service": "s1", "inputs": ["input"]},
        {"name": "T2", "service": "s2", "depends_on": ["T1"]},
        {"name": "T3", "service": "s3", "depends_on": ["T1"]},
        {"name": "T4", "service": "s4", "depends_on": ["T2", "T3"]}
    ]
}"#;

fn tmpdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ginflow-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn validate_reports_structure() {
    let path = write_workflow(&tmpdir(), "v.json", FIG5);
    let out = ginflow().arg("validate").arg(&path).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("5 tasks"));
    assert!(stdout.contains("1 standby"));
    assert!(stdout.contains("1 adaptation"));
}

#[test]
fn validate_rejects_garbage() {
    let path = write_workflow(&tmpdir(), "bad.json", "{ not json");
    let out = ginflow().arg("validate").arg(&path).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("JSON"));
}

#[test]
fn translate_emits_chemistry() {
    let path = write_workflow(&tmpdir(), "t.json", FIG5);
    let out = ginflow().arg("translate").arg(&path).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "SRC:<",
        "DST:<",
        "gw_pass",
        "trigger_adapt_0_T2",
        "activate_0_T2p",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in: {stdout}");
    }
}

#[test]
fn run_centralized_prints_results() {
    let path = write_workflow(&tmpdir(), "r.json", FIG5);
    let out = ginflow()
        .args(["run", "--executor", "centralized"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("s4(s2(s1(input)),s3(s1(input)))"));
}

/// The executors that selected a removed runtime are gone from the
/// CLI, not silently aliased to the scheduler.
#[test]
fn removed_executor_names_are_rejected() {
    let path = write_workflow(&tmpdir(), "gone.json", FIG2);
    for name in ["legacy-threads", "threaded"] {
        let out = ginflow()
            .args(["run", "--executor", name])
            .arg(&path)
            .output()
            .unwrap();
        assert!(!out.status.success(), "--executor {name} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown executor {name:?}")),
            "--executor {name}: {stderr}"
        );
    }
}

#[test]
fn run_threaded_with_kafka_completes() {
    let path = write_workflow(&tmpdir(), "k.json", FIG5);
    let out = ginflow()
        .args(["run", "--broker", "kafka", "--timeout", "30"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed"));
}

#[test]
fn run_follow_streams_json_events_then_summary() {
    let path = write_workflow(&tmpdir(), "follow.json", FIG5);
    let out = ginflow()
        .args(["run", "--follow", "--timeout", "30"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Typed events as JSON lines…
    assert!(stdout.contains("TaskStateChanged"), "{stdout}");
    assert!(stdout.contains("TaskResult"), "{stdout}");
    assert!(stdout.contains("RunCompleted"), "{stdout}");
    let json_lines = stdout.lines().filter(|l| l.starts_with('{')).count();
    assert!(json_lines >= 8, "fig5 emits >= 2 events per task: {stdout}");
    // …followed by the structured report summary. The run is on the
    // log, where a completed agent is evicted, so how many agents are
    // built at once depends on how the two workers interleave — but never
    // more than the four active tasks: the standby T2p is never built.
    assert!(stdout.contains("backend=scheduler"), "{stdout}");
    assert!(stdout.contains("completed=true"), "{stdout}");
    let peak: u64 = stdout
        .split(" resident_peak=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no resident_peak in {stdout}"));
    assert!((1..=4).contains(&peak), "{stdout}");
    assert!(stdout.contains(" rehydrations=0"), "{stdout}");
}

#[test]
fn run_sim_executor_shares_the_engine_surface() {
    let path = write_workflow(&tmpdir(), "sim-run.json", FIG5);
    let out = ginflow()
        .args(["run", "--executor", "sim", "--follow"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("RunCompleted"), "{stdout}");
    assert!(stdout.contains("backend=sim"), "{stdout}");
    assert!(stdout.contains("completed=true"), "{stdout}");
}

#[test]
fn simulate_reports_virtual_makespan() {
    let path = write_workflow(&tmpdir(), "s.json", FIG5);
    let out = ginflow()
        .args(["simulate", "--seed", "7"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed=true"));
    assert!(stdout.contains("makespan="));
}

#[test]
fn simulate_with_failures_recovers_on_kafka() {
    let path = write_workflow(&tmpdir(), "f.json", FIG5);
    let out = ginflow()
        .args([
            "simulate", "--broker", "kafka", "--fail-p", "0.5", "--fail-t", "0",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed=true"), "{stdout}");
    // Some crash happened and was recovered.
    assert!(!stdout.contains("failures=0 "), "{stdout}");
}

#[test]
fn montage_info() {
    let out = ginflow().arg("montage").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("118 tasks"));
    assert!(stdout.contains("band width 108"));
}

#[test]
fn unknown_command_fails_with_hint() {
    let out = ginflow().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("ginflow help"));
}

#[test]
fn help_lists_commands() {
    let out = ginflow().arg("help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for cmd in ["validate", "translate", "run", "simulate", "montage"] {
        assert!(stdout.contains(cmd));
    }
}

/// A live run has one broker, the log: asking it for the ActiveMQ
/// profile is refused with a pointer to the simulator, where the profile
/// still prices a run.
#[test]
fn run_rejects_the_activemq_profile_on_a_live_executor() {
    let path = write_workflow(&tmpdir(), "amq.json", FIG2);
    let out = ginflow()
        .args(["run", "--broker", "activemq", "--timeout", "30"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(!out.status.success(), "--broker activemq was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--broker activemq"), "{stderr}");
    assert!(stderr.contains("ginflow simulate"), "{stderr}");
    assert!(stderr.contains("--executor sim"), "{stderr}");
    // The simulator still takes it.
    let out = ginflow()
        .args(["run", "--executor", "sim", "--broker", "activemq"])
        .arg(&path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("completed=true"), "{stdout}");
}

/// The daemon fronts a log: `broker serve --profile activemq` is refused
/// before it binds anything, with the same pointer.
#[test]
fn broker_serve_rejects_the_activemq_profile() {
    let child = ginflow()
        .args([
            "broker",
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--profile",
            "activemq",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut child = Reaper(child);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "--profile activemq started a daemon"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(!status.success());
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.0.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(stderr.contains("--profile activemq"), "{stderr}");
    assert!(stderr.contains("ginflow simulate"), "{stderr}");
}

// ---------------------------------------------------------------------
// Distributed mode: real OS processes sharing only a TCP broker.
// ---------------------------------------------------------------------

/// Kills a child process on drop so failed tests never leak daemons.
struct Reaper(std::process::Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `ginflow broker serve` on an ephemeral port; return the child
/// and the parsed `host:port`.
fn spawn_broker() -> (Reaper, String) {
    spawn_broker_with("127.0.0.1:0", &[])
}

/// `spawn_broker` with a pinned address and extra serve flags (e.g.
/// `--data-dir` for the durable daemon tests).
fn spawn_broker_with(addr: &str, extra: &[&str]) -> (Reaper, String) {
    use std::io::{BufRead, BufReader};
    let mut child = ginflow()
        .args(["broker", "serve", "--addr", addr])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("broker must print its address")
        .to_owned();
    assert!(addr.contains(':'), "unexpected banner: {line:?}");
    (Reaper(child), addr)
}

/// Launch one `ginflow run` against a daemon; `shard` of `Some("0/2")`
/// adds `--shard` (which requires the pinned run id).
fn spawn_run(
    workflow: &std::path::Path,
    addr: &str,
    run_id: &str,
    shard: Option<&str>,
    extra: &[&str],
) -> std::process::Child {
    let mut cmd = ginflow();
    cmd.arg("run")
        .arg(workflow)
        .args(["--broker", &format!("tcp://{addr}"), "--run-id", run_id]);
    if let Some(shard) = shard {
        cmd.args(["--shard", shard]);
    }
    cmd.args(["--timeout", "60"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap()
}

fn spawn_shard(
    workflow: &std::path::Path,
    addr: &str,
    run_id: &str,
    shard: &str,
    extra: &[&str],
) -> std::process::Child {
    spawn_run(workflow, addr, run_id, Some(shard), extra)
}

fn assert_shard_completed(label: &str, out: std::process::Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{label} failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("completed=true"), "{label}: {stdout}");
    stdout
}

#[test]
fn distributed_two_shard_smoke() {
    let path = write_workflow(&tmpdir(), "dist.json", FIG2);
    let (_broker, addr) = spawn_broker();
    let shard0 = spawn_shard(&path, &addr, "smoke", "0/2", &[]);
    let shard1 = spawn_shard(&path, &addr, "smoke", "1/2", &[]);
    let out0 = assert_shard_completed("shard 0", shard0.wait_with_output().unwrap());
    let out1 = assert_shard_completed("shard 1", shard1.wait_with_output().unwrap());
    // Both processes observed the same cross-process sink result.
    let sink = "s4(s2(s1(input)),s3(s1(input)))";
    assert!(out0.contains(sink), "shard 0 sink: {out0}");
    assert!(out1.contains(sink), "shard 1 sink: {out1}");
    assert!(out0.contains("backend=sharded"), "{out0}");
    assert!(out0.contains("run=smoke"), "{out0}");
}

#[test]
fn task_name_with_separator_is_rejected_cleanly() {
    // "a/b" would split the run's topic namespace; the CLI refuses it
    // with an error (not a panic). A name with a space stays legal.
    let bad = r#"{"name": "w", "tasks": [{"name": "a/b", "service": "s", "inputs": ["x"]}]}"#;
    let path = write_workflow(&tmpdir(), "badname.json", bad);
    let out = ginflow().arg("run").arg(&path).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("task name"), "{stderr}");
    assert!(stderr.contains("a/b"), "{stderr}");

    let spaced =
        r#"{"name": "w", "tasks": [{"name": "load data", "service": "s", "inputs": ["x"]}]}"#;
    let path = write_workflow(&tmpdir(), "spacedname.json", spaced);
    let out = ginflow()
        .args(["run", "--timeout", "30"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("completed=true"));
}

#[test]
fn sharded_run_without_run_id_is_rejected() {
    let path = write_workflow(&tmpdir(), "noid.json", FIG2);
    let out = ginflow()
        .arg("run")
        .arg(&path)
        .args(["--broker", "tcp://127.0.0.1:1", "--shard", "0/2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--run-id"), "{stderr}");
}

/// One standing daemon, many runs: a 2-way sharded run and a plain run
/// of the *same* workflow execute concurrently under different run ids
/// (so their topics would collide task-for-task without run scoping),
/// then a third run reuses the warm daemon back-to-back. The registry
/// lists every run, and GC reclaims the completed runs' topics.
#[test]
fn one_daemon_serves_concurrent_and_back_to_back_runs() {
    let path = write_workflow(&tmpdir(), "multi.json", FIG2);
    let (_broker, addr) = spawn_broker();

    // Concurrent: run "a" sharded 2-way + run "b" plain, same workflow.
    let a0 = spawn_shard(&path, &addr, "a", "0/2", &[]);
    let a1 = spawn_shard(&path, &addr, "a", "1/2", &[]);
    let b = spawn_run(&path, &addr, "b", None, &[]);
    let out_a0 = assert_shard_completed("run a shard 0", a0.wait_with_output().unwrap());
    let out_a1 = assert_shard_completed("run a shard 1", a1.wait_with_output().unwrap());
    let out_b = assert_shard_completed("run b", b.wait_with_output().unwrap());
    let sink = "s4(s2(s1(input)),s3(s1(input)))";
    for (label, out) in [("a0", &out_a0), ("a1", &out_a1), ("b", &out_b)] {
        assert!(out.contains(sink), "{label}: {out}");
    }
    assert!(out_a0.contains("run=a"), "{out_a0}");
    assert!(out_b.contains("run=b"), "{out_b}");
    assert!(out_b.contains("backend=scheduler"), "{out_b}");

    // The registry accounted both runs (the run's inbox + status each,
    // however many tasks) and both were auto-closed on completion.
    let runs = ginflow()
        .args(["broker", "runs", "--addr", &addr])
        .output()
        .unwrap();
    assert!(runs.status.success());
    let listing = String::from_utf8_lossy(&runs.stdout).into_owned();
    for line in ["a ", "b "] {
        assert!(listing.contains(line), "{listing}");
    }
    assert!(listing.contains("topics=2"), "{listing}");
    assert!(listing.contains("completed"), "{listing}");

    // GC reclaims both completed runs' topics.
    let gc = ginflow()
        .args(["broker", "gc", "--addr", &addr])
        .output()
        .unwrap();
    assert!(gc.status.success());
    let gc_out = String::from_utf8_lossy(&gc.stdout).into_owned();
    assert!(
        gc_out.contains("reclaimed 2 run(s), 4 topic(s)"),
        "{gc_out}"
    );

    // Back-to-back: the warm (now reclaimed) daemon serves a fresh run.
    let c = spawn_run(&path, &addr, "c", None, &[]);
    let out_c = assert_shard_completed("run c", c.wait_with_output().unwrap());
    assert!(out_c.contains(sink), "{out_c}");
    let runs2 = ginflow()
        .args(["broker", "runs", "--addr", &addr])
        .output()
        .unwrap();
    let listing2 = String::from_utf8_lossy(&runs2.stdout).into_owned();
    assert!(listing2.contains("c "), "{listing2}");
    assert!(!listing2.contains("a "), "run a was reclaimed: {listing2}");
}

#[test]
fn killed_shard_process_recovers_via_replay() {
    // A slow pipeline (6 × 120 ms) so there is a mid-run to kill into.
    let pipeline = r#"{
        "name": "pipeline",
        "tasks": [
            {"name": "p0", "service": "s", "inputs": ["x"]},
            {"name": "p1", "service": "s", "depends_on": ["p0"]},
            {"name": "p2", "service": "s", "depends_on": ["p1"]},
            {"name": "p3", "service": "s", "depends_on": ["p2"]},
            {"name": "p4", "service": "s", "depends_on": ["p3"]},
            {"name": "p5", "service": "s", "depends_on": ["p4"]}
        ]
    }"#;
    let path = write_workflow(&tmpdir(), "pipeline.json", pipeline);
    let (_broker, addr) = spawn_broker();
    let slow = ["--service-sleep", "120"];
    let shard0 = spawn_shard(&path, &addr, "kill", "0/2", &slow);
    let mut shard1 = spawn_shard(&path, &addr, "kill", "1/2", &slow);

    // SIGKILL shard 1 mid-run: no teardown, no goodbye — the paper's
    // killed JVM as a killed OS process.
    std::thread::sleep(std::time::Duration::from_millis(300));
    shard1.kill().unwrap();
    let _ = shard1.wait();

    // Relaunch it with the same run id: the fresh process replays
    // the inbox + status from *this run's* topics in the persistent log
    // and the workflow still completes everywhere.
    let shard1b = spawn_shard(&path, &addr, "kill", "1/2", &slow);
    let out0 = assert_shard_completed("shard 0", shard0.wait_with_output().unwrap());
    let out1 = assert_shard_completed("respawned shard 1", shard1b.wait_with_output().unwrap());
    let sink = "\"s(s(s(s(s(s(x))))))\"";
    assert!(out0.contains(sink), "shard 0 sink: {out0}");
    assert!(out1.contains(sink), "respawned shard 1 sink: {out1}");
}

/// The durable-broker tentpole end-to-end: SIGKILL the *daemon* mid-run
/// (real OS processes on both sides), relaunch it over the same
/// `--data-dir` and address, and the in-flight sharded run completes
/// exactly-once — the shard processes just ride their ordinary
/// reconnect + replay machinery against the recovered log.
#[test]
fn killed_daemon_recovers_from_data_dir() {
    let pipeline = r#"{
        "name": "pipeline",
        "tasks": [
            {"name": "p0", "service": "s", "inputs": ["x"]},
            {"name": "p1", "service": "s", "depends_on": ["p0"]},
            {"name": "p2", "service": "s", "depends_on": ["p1"]},
            {"name": "p3", "service": "s", "depends_on": ["p2"]},
            {"name": "p4", "service": "s", "depends_on": ["p3"]},
            {"name": "p5", "service": "s", "depends_on": ["p4"]}
        ]
    }"#;
    let path = write_workflow(&tmpdir(), "durable-pipeline.json", pipeline);
    let data_dir = tmpdir().join("daemon-data");
    let _ = std::fs::remove_dir_all(&data_dir);
    let data = data_dir.to_str().unwrap().to_owned();

    let (broker, addr) = spawn_broker_with("127.0.0.1:0", &["--data-dir", &data]);
    let slow = ["--service-sleep", "120"];
    let shard0 = spawn_shard(&path, &addr, "dkill", "0/2", &slow);
    let shard1 = spawn_shard(&path, &addr, "dkill", "1/2", &slow);

    // SIGKILL the daemon mid-run: no flush, no shutdown hook. The
    // shards' publishes so far are in the segment files (page cache
    // survives the process; only a machine crash needs fsync).
    std::thread::sleep(std::time::Duration::from_millis(300));
    drop(broker);

    // Relaunch over the same data dir, pinned to the same port
    // (SO_REUSEADDR makes the rebind immediate). The recovered daemon
    // serves the same offsets, so the shards' replay-from-watermark
    // reconnect finds exactly the log it left.
    let (_broker2, addr2) = spawn_broker_with(&addr, &["--data-dir", &data]);
    assert_eq!(addr2, addr, "relaunch must reclaim the same port");

    let out0 = assert_shard_completed("shard 0", shard0.wait_with_output().unwrap());
    let out1 = assert_shard_completed("shard 1", shard1.wait_with_output().unwrap());
    let sink = "\"s(s(s(s(s(s(x))))))\"";
    assert!(out0.contains(sink), "shard 0 sink: {out0}");
    assert!(out1.contains(sink), "shard 1 sink: {out1}");
    let _ = std::fs::remove_dir_all(&data_dir);
}
