//! Tracing from outside the program: spans kept in memory, the
//! `Broker` and `Service` interposers that record them during a live
//! run, and the Chrome trace-event file written when the pass ends.
//!
//! Spans inside the program are a later change (ROADMAP item 5); these
//! sit around the benchmark's own calls into each layer.

use bytes::Bytes;
use ginflow_core::{Service, ServiceError, Value};
use ginflow_mq::{Broker, Message, MqError, Receipt, SubscribeMode, Subscription};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub type SpanId = u32;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Ordinal of the traced run the span belongs to; 0 outside runs.
    pub run: u32,
    thread: u32,
}

/// One publish as the engine issued it, kept so the same sequence can
/// be replayed into each broker layer on its own.
#[derive(Clone)]
pub struct Recorded {
    pub topic: String,
    pub key: Option<Bytes>,
    pub payload: Bytes,
}

/// What the interposers saw during one traced run.
#[derive(Default)]
pub struct RunTrace {
    /// When the run's root span opened and closed.
    pub start_ns: u64,
    pub end_ns: u64,
    pub publish_calls: u64,
    /// Publishes to agent inboxes (`run/<id>/sa.<task>`).
    pub inbox_publishes: u64,
    /// Publishes to the run's status topic.
    pub status_publishes: u64,
    /// Time inside each kind of broker call, in nanoseconds.
    pub publish_ns: u64,
    pub flush_ns: u64,
    pub subscribe_ns: u64,
    pub fetch_ns: u64,
    /// (start, end) of every service invocation, in start order.
    pub invokes: Vec<(u64, u64)>,
    /// The publish sequence, when the run was asked to record it.
    pub messages: Vec<Recorded>,
    record_messages: bool,
}

impl RunTrace {
    pub fn broker_ns(&self) -> u64 {
        self.publish_ns + self.flush_ns + self.subscribe_ns + self.fetch_ns
    }

    pub fn service_ns(&self) -> u64 {
        self.invokes.iter().map(|&(start, end)| end - start).sum()
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    run: u32,
    run_span: Option<SpanId>,
    current: RunTrace,
}

pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

fn thread_ordinal() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static ORDINAL: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    ORDINAL.with(|o| *o)
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no tracer user panics while holding the lock")
    }

    /// Open a span; it ends at [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut st = self.state();
        let run = st.run;
        st.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run,
            thread: thread_ordinal(),
        });
        (st.spans.len() - 1) as SpanId
    }

    /// End a span; returns its duration in seconds.
    pub fn close(&self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let mut st = self.state();
        let span = &mut st.spans[id as usize];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Time `f` as a span under `parent`; returns its result and duration.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let r = f();
        (r, self.close(id))
    }

    /// Start a traced run: opens its root span, under which every
    /// interposed call lands until [`Tracer::end_run`].
    pub fn begin_run(&self, record_messages: bool) {
        {
            let mut st = self.state();
            st.run += 1;
            st.current = RunTrace {
                record_messages,
                ..RunTrace::default()
            };
        }
        let root = self.open("run", None);
        self.state().run_span = Some(root);
    }

    /// End the traced run; returns what was seen.
    pub fn end_run(&self) -> RunTrace {
        let root = self
            .state()
            .run_span
            .take()
            .expect("end_run follows begin_run");
        self.close(root);
        let mut st = self.state();
        let mut trace = std::mem::take(&mut st.current);
        (trace.start_ns, trace.end_ns) = (
            st.spans[root as usize].start_ns,
            st.spans[root as usize].end_ns,
        );
        trace.invokes.sort_unstable();
        trace
    }

    /// Record a finished interposed call that started at `start_ns`.
    fn call(&self, name: &'static str, start_ns: u64, account: impl FnOnce(&mut RunTrace, u64)) {
        let end_ns = self.now_ns();
        let mut st = self.state();
        let (run, parent) = (st.run, st.run_span);
        st.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            run,
            thread: thread_ordinal(),
        });
        account(&mut st.current, end_ns - start_ns);
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its direct children cover (overlapping children counted once).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let st = self.state();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); st.spans.len()];
        for s in &st.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in st.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64 / 1e9;
        }
        out
    }

    /// Write every span as a Chrome trace-event file (`chrome://tracing`,
    /// Perfetto). Returns how many spans were written.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let st = self.state();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in st.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or(-1, i64::from);
            write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()?;
        Ok(st.spans.len())
    }
}

/// A [`Broker`] that times every call into the broker it wraps and
/// forwards it unchanged. Handed to the engine in place of the real
/// one during traced runs.
pub struct TimedBroker {
    inner: Arc<dyn Broker>,
    tracer: Arc<Tracer>,
}

impl TimedBroker {
    pub fn wrap(inner: Arc<dyn Broker>, tracer: Arc<Tracer>) -> Arc<dyn Broker> {
        Arc::new(TimedBroker { inner, tracer })
    }

    fn published(&self, start_ns: u64, topic: &str, key: &Option<Bytes>, payload: &Bytes) {
        self.tracer.call("mq.broker.publish", start_ns, |t, ns| {
            t.publish_calls += 1;
            t.publish_ns += ns;
            // `run/<id>/sa.<task>` or `run/<id>/status`.
            match topic.rsplit('/').next() {
                Some("status") => t.status_publishes += 1,
                Some(leaf) if leaf.starts_with("sa.") => t.inbox_publishes += 1,
                _ => {}
            }
            if t.record_messages {
                t.messages.push(Recorded {
                    topic: topic.to_owned(),
                    key: key.clone(),
                    payload: payload.clone(),
                });
            }
        });
    }
}

impl Broker for TimedBroker {
    fn publish(&self, topic: &str, key: Option<Bytes>, payload: Bytes) -> Result<Receipt, MqError> {
        let start = self.tracer.now_ns();
        let r = self.inner.publish(topic, key.clone(), payload.clone());
        self.published(start, topic, &key, &payload);
        r
    }

    fn publish_nowait(
        &self,
        topic: &str,
        key: Option<Bytes>,
        payload: Bytes,
    ) -> Result<(), MqError> {
        let start = self.tracer.now_ns();
        let r = self
            .inner
            .publish_nowait(topic, key.clone(), payload.clone());
        self.published(start, topic, &key, &payload);
        r
    }

    fn flush(&self) -> Result<(), MqError> {
        let start = self.tracer.now_ns();
        let r = self.inner.flush();
        self.tracer
            .call("mq.broker.flush", start, |t, ns| t.flush_ns += ns);
        r
    }

    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError> {
        let start = self.tracer.now_ns();
        let r = self.inner.subscribe(topic, mode);
        self.tracer
            .call("mq.broker.subscribe", start, |t, ns| t.subscribe_ns += ns);
        r
    }

    fn subscribe_many(
        &self,
        requests: &[(String, SubscribeMode)],
    ) -> Result<Vec<Subscription>, MqError> {
        let start = self.tracer.now_ns();
        let r = self.inner.subscribe_many(requests);
        self.tracer
            .call("mq.broker.subscribe", start, |t, ns| t.subscribe_ns += ns);
        r
    }

    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from_offset: u64,
        max: usize,
    ) -> Result<Vec<Message>, MqError> {
        let start = self.tracer.now_ns();
        let r = self.inner.fetch(topic, partition, from_offset, max);
        self.tracer
            .call("mq.broker.fetch", start, |t, ns| t.fetch_ns += ns);
        r
    }

    fn persistent(&self) -> bool {
        self.inner.persistent()
    }

    fn partitions(&self, topic: &str) -> u32 {
        self.inner.partitions(topic)
    }

    fn retained(&self, topic: &str) -> u64 {
        self.inner.retained(topic)
    }

    fn delete_topic(&self, topic: &str) -> bool {
        self.inner.delete_topic(topic)
    }

    fn topic_names(&self) -> Vec<String> {
        self.inner.topic_names()
    }
}

/// A [`Service`] that stamps the start and end of every invocation.
pub struct TimedService {
    inner: Arc<dyn Service>,
    tracer: Arc<Tracer>,
}

impl TimedService {
    pub fn wrap(inner: Arc<dyn Service>, tracer: Arc<Tracer>) -> Arc<dyn Service> {
        Arc::new(TimedService { inner, tracer })
    }
}

impl Service for TimedService {
    fn invoke(&self, params: &[Value]) -> Result<Value, ServiceError> {
        let start = self.tracer.now_ns();
        let r = self.inner.invoke(params);
        self.tracer.call("run.service", start, |t, ns| {
            t.invokes.push((start, start + ns))
        });
        r
    }
}
