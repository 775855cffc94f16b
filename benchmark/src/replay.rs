//! Each layer on its own: the workload's agents driven without a broker
//! or a thread, and the message sequence a live run produced published
//! again into the in-memory log, the segment store and the TCP pair.
//!
//! The live run says how long the whole took; these say what each layer
//! costs when nothing else is in the way.

use crate::digest::{digest, FAIL_SERVICE};
use crate::harness::Plan;
use crate::stats;
use crate::sys::ScratchDir;
use crate::trace::{Recorded, SpanId, Tracer};
use ginflow_agent::{Command, Event, SaCore, SaMessage, StatusUpdate};
use ginflow_hoclflow::agent_programs;
use ginflow_mq::{Broker, DurabilityConfig, LogBroker, SubscribeMode};
use ginflow_net::{BrokerServer, RemoteBroker};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the sans-I/O replay of one run measured.
#[derive(Debug, Default, PartialEq)]
pub struct CoreReplay {
    pub compile_s: f64,
    pub programs: u64,
    /// Time inside `SaCore::new` and `SaCore::handle`, every agent.
    pub core_s: f64,
    /// The same for the single agent that used the most.
    pub busiest_agent_s: f64,
    pub handles: u64,
    pub applications: u64,
    pub match_attempts: u64,
    pub weight_scanned: u64,
    /// Agent-to-agent messages (`Command::Send`).
    pub messages: u64,
    pub status_updates: u64,
    /// Encoded size of both kinds.
    pub bytes: u64,
    pub encode_s: f64,
    pub decode_s: f64,
}

impl CoreReplay {
    /// The counts that must repeat exactly from replay to replay.
    pub fn exact_counts(&self) -> [u64; 8] {
        [
            self.programs,
            self.handles,
            self.applications,
            self.match_attempts,
            self.weight_scanned,
            self.messages,
            self.status_updates,
            self.bytes,
        ]
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Run `op`, adding its duration to `total_ns`.
fn timed<R>(total_ns: &mut u64, op: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = op();
    *total_ns += start.elapsed().as_nanos() as u64;
    r
}

/// Events one agent handles per turn before it goes to the back of the
/// ready queue; the scheduler's own batch size.
const TURN_EVENTS: usize = 64;

/// Drive every agent of the plan's workflow to quiescence with no
/// broker and no thread, in the order the scheduler's single worker
/// would: a ready queue of agents, first in, first out. An agent's
/// turn handles `Start` if it has not yet, then up to [`TURN_EVENTS`]
/// messages from its inbox; an `Invoke` is answered inline before the
/// next event, a `Send` is encoded, decoded, put in the destination's
/// inbox, and the destination queued if it is not already. The order
/// matters: the matching work of a fan-in depends on the order its
/// inputs arrive in. The sinks must end on the oracle's values.
pub fn core_replay(
    plan: &Plan,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<CoreReplay, String> {
    let ((programs, plans), compile_s) = tracer.span("hoclflow.compile", parent, || {
        agent_programs(&plan.workflow)
    });
    let span = tracer.open("agent.core.replay", parent);
    let plans = Arc::new(plans);
    let index: HashMap<String, usize> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.clone(), i))
        .collect();
    let mut agent_ns = vec![0u64; programs.len()];
    let mut cores: Vec<SaCore> = programs
        .into_iter()
        .zip(&mut agent_ns)
        .map(|(program, ns)| timed(ns, || SaCore::new(program, plans.clone())))
        .collect();

    let mut r = CoreReplay {
        compile_s,
        programs: cores.len() as u64,
        ..CoreReplay::default()
    };
    let (mut encode_ns, mut decode_ns) = (0u64, 0u64);
    let mut inboxes: Vec<VecDeque<SaMessage>> = vec![VecDeque::new(); cores.len()];
    let mut queued = vec![true; cores.len()];
    let mut started = vec![false; cores.len()];
    let mut ready: VecDeque<usize> = (0..cores.len()).collect();
    while let Some(agent) = ready.pop_front() {
        for _ in 0..TURN_EVENTS {
            let first = if std::mem::replace(&mut started[agent], true) {
                match inboxes[agent].pop_front() {
                    Some(message) => Event::Deliver(message),
                    None => break,
                }
            } else {
                Event::Start
            };
            let mut turn = VecDeque::from([first]);
            while let Some(event) = turn.pop_front() {
                let commands = timed(&mut agent_ns[agent], || cores[agent].handle(event))
                    .map_err(|e| format!("agent {}: {e}", cores[agent].name()))?;
                r.handles += 1;
                for command in commands {
                    match command {
                        Command::Invoke {
                            effect,
                            service,
                            params,
                        } => {
                            let result = if service == FAIL_SERVICE {
                                Err("rigged to fail".to_owned())
                            } else {
                                Ok(digest(&params))
                            };
                            turn.push_back(Event::ServiceCompleted { effect, result });
                        }
                        Command::Send { to, message } => {
                            let payload = timed(&mut encode_ns, || message.encode());
                            let message = timed(&mut decode_ns, || SaMessage::decode(&payload))
                                .ok_or("an encoded SaMessage did not decode")?;
                            r.messages += 1;
                            r.bytes += payload.len() as u64;
                            let to = *index
                                .get(&to)
                                .ok_or_else(|| format!("message to unknown agent {to}"))?;
                            inboxes[to].push_back(message);
                            if !std::mem::replace(&mut queued[to], true) {
                                ready.push_back(to);
                            }
                        }
                        Command::Publish { state, result } => {
                            let update = StatusUpdate {
                                task: cores[agent].name().to_owned(),
                                state,
                                result,
                                incarnation: 0,
                            };
                            let payload = timed(&mut encode_ns, || update.encode());
                            timed(&mut decode_ns, || StatusUpdate::decode(&payload))
                                .ok_or("an encoded StatusUpdate did not decode")?;
                            r.status_updates += 1;
                            r.bytes += payload.len() as u64;
                        }
                    }
                }
            }
        }
        queued[agent] = false;
        if !inboxes[agent].is_empty() {
            queued[agent] = true;
            ready.push_back(agent);
        }
    }
    tracer.close(span);

    for core in &mut cores {
        let stats = core.take_stats();
        r.applications += stats.applications;
        r.match_attempts += stats.match_attempts;
        r.weight_scanned += stats.weight_scanned;
    }
    r.core_s = secs(agent_ns.iter().sum());
    r.busiest_agent_s = secs(agent_ns.iter().copied().max().unwrap_or(0));
    r.encode_s = secs(encode_ns);
    r.decode_s = secs(decode_ns);
    for (sink, value) in &plan.expected {
        let got = cores[index[sink]].result();
        if got.as_ref() != Some(value) {
            return Err(format!(
                "replayed sink {sink} holds {got:?}, expected {value}"
            ));
        }
    }
    Ok(r)
}

/// The recorded sequence published into an in-memory log with one
/// subscriber per topic: microseconds per publish, and per delivery
/// taken off a subscription.
pub struct LogReplay {
    pub publish_us: f64,
    pub deliver_us: f64,
}

/// Messages per topic, topics in sorted order.
fn per_topic(messages: &[Recorded]) -> BTreeMap<&str, usize> {
    let mut counts = BTreeMap::new();
    for m in messages {
        *counts.entry(m.topic.as_str()).or_insert(0) += 1;
    }
    counts
}

pub fn log_replay(messages: &[Recorded]) -> Result<LogReplay, String> {
    let broker = LogBroker::new();
    let counts = per_topic(messages);
    let subs = counts
        .keys()
        .map(|t| broker.subscribe(t, SubscribeMode::Latest))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("log subscribe: {e}"))?;
    let start = Instant::now();
    for m in messages {
        broker
            .publish_nowait(&m.topic, m.key.clone(), m.payload.clone())
            .map_err(|e| format!("log publish: {e}"))?;
    }
    let publish = start.elapsed();
    let start = Instant::now();
    for (sub, (topic, &count)) in subs.iter().zip(&counts) {
        for _ in 0..count {
            sub.try_recv()
                .ok()
                .flatten()
                .ok_or_else(|| format!("log delivered fewer than {count} messages on {topic}"))?;
        }
    }
    let deliver = start.elapsed();
    let per_message = |d: Duration| d.as_secs_f64() * 1e6 / messages.len().max(1) as f64;
    Ok(LogReplay {
        publish_us: per_message(publish),
        deliver_us: per_message(deliver),
    })
}

/// The recorded sequence appended to a durable log in the checkout's
/// own filesystem. That is a real disk, not the program: the numbers
/// say what the store costs *here*, and no end-to-end workload is
/// durable for the same reason.
pub struct StoreReplay {
    pub open_s: f64,
    /// First publish to a topic: directories, segment file, mapping.
    pub topic_create_us: f64,
    /// Every later publish.
    pub append_us: f64,
    pub topic_delete_us: f64,
}

/// Topic creation costs milliseconds on a journalled filesystem, so the
/// replay keeps to the first topics of the sequence.
const STORE_TOPICS: usize = 64;

pub fn store_replay(messages: &[Recorded]) -> Result<StoreReplay, String> {
    let dir = ScratchDir::create("store").map_err(|e| format!("store dir: {e}"))?;
    let start = Instant::now();
    let (broker, _) = LogBroker::open(dir.path(), DurabilityConfig::default())
        .map_err(|e| format!("store open: {e}"))?;
    let open_s = start.elapsed().as_secs_f64();

    let mut topics: Vec<&str> = Vec::new();
    let (mut create_ns, mut append_ns, mut appends) = (0u64, 0u64, 0u64);
    for m in messages {
        let known = topics.contains(&m.topic.as_str());
        if !known && topics.len() == STORE_TOPICS {
            continue;
        }
        let bucket = if known {
            &mut append_ns
        } else {
            &mut create_ns
        };
        timed(bucket, || {
            broker.publish_nowait(&m.topic, m.key.clone(), m.payload.clone())
        })
        .map_err(|e| format!("store publish: {e}"))?;
        if known {
            appends += 1;
        } else {
            topics.push(&m.topic);
        }
    }
    let mut delete_ns = 0u64;
    for topic in &topics {
        if !timed(&mut delete_ns, || broker.delete_topic(topic)) {
            return Err(format!("store had no topic {topic} to delete"));
        }
    }
    let per = |ns: u64, n: u64| ns as f64 / 1e3 / n.max(1) as f64;
    Ok(StoreReplay {
        open_s,
        topic_create_us: per(create_ns, topics.len() as u64),
        append_us: per(append_ns, appends),
        topic_delete_us: per(delete_ns, topics.len() as u64),
    })
}

/// The recorded sequence through a daemon and one client on loopback.
pub struct NetReplay {
    pub connect_s: f64,
    pub subscribe_us_per_topic: f64,
    /// `publish_nowait` the whole sequence, then `flush`; median round.
    pub pipelined_msgs_per_s: f64,
    /// Blocking `publish`: frame out, receipt back.
    pub publish_rtt_us: f64,
    /// `publish_nowait` → the message arrives on a subscription.
    pub push_p50_us: f64,
    /// `close_run` + `gc_runs` of everything the replay published.
    pub close_gc_s: f64,
}

/// Round trips timed one at a time.
const NET_ROUND_TRIPS: usize = 500;
/// The pipelined rate is a median over at least this many replays of
/// the sequence, and this many messages.
const PIPELINED_ROUNDS: usize = 3;
const PIPELINED_MESSAGES: usize = 50_000;

pub fn net_replay(messages: &[Recorded]) -> Result<NetReplay, String> {
    let first = messages.first().ok_or("no message was recorded")?;
    let server = BrokerServer::bind("127.0.0.1:0", Arc::new(LogBroker::new()))
        .map_err(|e| format!("net bind: {e}"))?;
    let start = Instant::now();
    let client = RemoteBroker::connect(&server.local_addr().to_string())
        .map_err(|e| format!("net connect: {e}"))?;
    let connect_s = start.elapsed().as_secs_f64();

    let counts = per_topic(messages);
    let requests: Vec<_> = counts
        .keys()
        .map(|t| (t.to_string(), SubscribeMode::Latest))
        .collect();
    let start = Instant::now();
    let subs = client
        .subscribe_many(&requests)
        .map_err(|e| format!("net subscribe: {e}"))?;
    let subscribe_us_per_topic = start.elapsed().as_secs_f64() * 1e6 / requests.len() as f64;

    // Whole sequences, pipelined, until enough messages went through
    // for a rate: one 18-task run is 57 messages and 0.1 ms.
    let mut rates = Vec::new();
    let mut sent = 0;
    while rates.len() < PIPELINED_ROUNDS || sent < PIPELINED_MESSAGES {
        let start = Instant::now();
        for m in messages {
            client
                .publish_nowait(&m.topic, m.key.clone(), m.payload.clone())
                .map_err(|e| format!("net publish: {e}"))?;
        }
        client.flush().map_err(|e| format!("net flush: {e}"))?;
        rates.push(messages.len() as f64 / start.elapsed().as_secs_f64());
        sent += messages.len();
        // Every push must be off the subscriptions before the next
        // round, and before single messages are timed against them.
        for (sub, (topic, &count)) in subs.iter().zip(&counts) {
            for _ in 0..count {
                sub.recv_timeout(Duration::from_secs(5))
                    .map_err(|e| format!("net push on {topic}: {e}"))?;
            }
        }
    }

    let sub = &subs[counts
        .keys()
        .position(|t| *t == first.topic)
        .expect("the first message's topic is subscribed")];
    let mut rtt_ns = 0u64;
    let mut push_us = Vec::with_capacity(NET_ROUND_TRIPS);
    for _ in 0..NET_ROUND_TRIPS {
        timed(&mut rtt_ns, || {
            client.publish(&first.topic, first.key.clone(), first.payload.clone())
        })
        .map_err(|e| format!("net publish: {e}"))?;
        sub.recv_timeout(Duration::from_secs(5))
            .map_err(|e| format!("net push: {e}"))?;
        let start = Instant::now();
        client
            .publish_nowait(&first.topic, first.key.clone(), first.payload.clone())
            .map_err(|e| format!("net publish: {e}"))?;
        sub.recv_timeout(Duration::from_secs(5))
            .map_err(|e| format!("net push: {e}"))?;
        push_us.push(start.elapsed().as_secs_f64() * 1e6);
    }

    let run = first
        .topic
        .split('/')
        .nth(1)
        .ok_or("recorded topic is not run-scoped")?;
    let start = Instant::now();
    client
        .close_run(run)
        .map_err(|e| format!("net close_run: {e}"))?;
    client.gc_runs().map_err(|e| format!("net gc_runs: {e}"))?;
    let close_gc_s = start.elapsed().as_secs_f64();
    client.shutdown();
    server.stop();
    Ok(NetReplay {
        connect_s,
        subscribe_us_per_topic,
        pipelined_msgs_per_s: stats::median(&rates),
        publish_rtt_us: rtt_ns as f64 / 1e3 / NET_ROUND_TRIPS as f64,
        push_p50_us: stats::median(&push_us),
        close_gc_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Shape;

    /// 9 216 129 at the seed: the ROADMAP quadratic, as a count. The
    /// count must repeat exactly; it may shrink (that is ROADMAP item 2)
    /// but a change that grows it by 1 % has made the fan-in worse.
    #[test]
    fn fanin_replay_repeats_and_is_no_heavier_than_the_seed() {
        let plan = Plan::new(Shape::FanIn { width: 1000 }, 1);
        let tracer = Tracer::new();
        let first = core_replay(&plan, &tracer, None).unwrap();
        let again = core_replay(&plan, &tracer, None).unwrap();
        assert_eq!(first.exact_counts(), again.exact_counts());
        assert_eq!(first.programs, 1002);
        assert_eq!(first.messages, 2000);
        assert!(
            first.weight_scanned as f64 <= 9_216_129.0 * 1.01,
            "{}",
            first.weight_scanned
        );
    }
}
