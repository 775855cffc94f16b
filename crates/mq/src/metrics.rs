//! Zero-dependency, lock-free metrics registry — the observability
//! substrate every layer of the stack feeds (broker hot path, segment
//! store, network daemon, client pipeline, scheduler).
//!
//! Design constraints, in order:
//!
//! 1. **The hot path pays one relaxed atomic op.** Callers acquire
//!    [`Counter`]/[`Gauge`]/[`Histogram`] handles *once* at setup and
//!    increment through the `Arc` thereafter — no lock, no hash, no
//!    allocation per event. Acquisition itself (registration, family
//!    label lookup) takes a shard lock, but it happens per topic/run,
//!    not per message.
//! 2. **Labelled families shard like the PR-5 topic maps.** A
//!    [`Family`] spreads its label → instrument map over
//!    [`FAMILY_SHARDS`] FNV-picked mutexes so concurrent first-touch
//!    registrations (one per run, one per topic shard) don't convoy.
//!
//! Reading happens two ways, both off the same registry: a flat
//! [`Metrics::snapshot`] of `(name, label, value)` rows (what the STATS
//! wire verb ships and `RunReport` embeds), and
//! [`Metrics::render_prometheus`], the text exposition format served by
//! the daemon's `--metrics-addr` endpoint.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Shard count of a [`Family`]'s label map (same spread as the broker's
/// sharded topic maps).
pub const FAMILY_SHARDS: usize = 16;

/// A monotonically increasing event count. Relaxed atomics throughout:
/// per-counter totals are exact, cross-counter ordering is not promised
/// (a snapshot is a statistical picture, not a consistent cut).
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that moves both ways (queue depth, window occupancy, open
/// connections). Stored as a `u64`; [`Gauge::sub`] saturates at zero so
/// a racing decrement can never wrap to 2⁶⁴.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge to an absolute value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Move the gauge up by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Move the gauge down by `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds of the histogram buckets: powers of two up to 2¹⁶, plus
/// the implicit +Inf bucket. One fixed geometric grid for everything —
/// batch sizes, byte counts, microsecond latencies — keeps
/// [`Histogram::observe`] branch-free (a leading-zeros computation, no
/// per-histogram bound table).
pub const BUCKET_BOUNDS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// A fixed-bucket distribution (power-of-two bounds, see
/// [`BUCKET_BOUNDS`]). `observe` is two relaxed adds plus one bucket
/// increment.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        // Bucket i holds values in (BOUNDS[i-1], BOUNDS[i]]; the last
        // slot is +Inf. v=0 and v=1 both land in bucket 0 (bound 1).
        let idx = if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(BUCKET_BOUNDS.len())
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Non-cumulative per-bucket counts (last entry is the +Inf
    /// bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// FNV-1a, the workspace's standard cheap string hash.
fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A labelled set of instruments sharing one metric name — e.g.
/// `gf_run_publish_total{run="…"}`. Label → instrument lives in
/// [`FAMILY_SHARDS`] FNV-picked shards; [`Family::with`] is the cold
/// acquisition path (callers cache the returned `Arc`).
pub struct Family<M> {
    label_key: &'static str,
    shards: Vec<Mutex<HashMap<Arc<str>, Arc<M>>>>,
}

impl<M: Default> Family<M> {
    fn new(label_key: &'static str) -> Self {
        Family {
            label_key,
            shards: (0..FAMILY_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// The label key this family scopes by (`run`, `shard`, …).
    pub fn label_key(&self) -> &'static str {
        self.label_key
    }

    /// The instrument for `label`, created on first touch. Cache the
    /// result — this takes a shard lock.
    pub fn with(&self, label: &str) -> Arc<M> {
        let shard = &self.shards[fnv1a(label) as usize % FAMILY_SHARDS];
        let mut map = shard.lock();
        if let Some(m) = map.get(label) {
            return m.clone();
        }
        let m = Arc::new(M::default());
        map.insert(Arc::from(label), m.clone());
        m
    }

    /// Visit every `(label, instrument)` pair. Lock scope is one shard
    /// at a time; concurrent registration may or may not be seen.
    pub fn for_each(&self, mut f: impl FnMut(&str, &M)) {
        for shard in &self.shards {
            for (label, m) in shard.lock().iter() {
                f(label, m);
            }
        }
    }

    /// Drop every instrument labelled `label` (run GC reclaims its
    /// per-run series so a standing daemon's registry doesn't grow
    /// unbounded).
    pub fn remove(&self, label: &str) {
        self.shards[fnv1a(label) as usize % FAMILY_SHARDS]
            .lock()
            .remove(label);
    }
}

/// What a registry slot holds.
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    CounterFamily(Arc<Family<Counter>>),
    GaugeFamily(Arc<Family<Gauge>>),
}

impl Instrument {
    fn type_name(&self) -> &'static str {
        match self {
            Instrument::Counter(_) | Instrument::CounterFamily(_) => "counter",
            Instrument::Gauge(_) | Instrument::GaugeFamily(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Slot {
    name: &'static str,
    help: &'static str,
    instrument: Instrument,
}

/// One flat row of a [`Metrics::snapshot`]: `label` is empty for
/// unlabelled metrics; histograms flatten into `…_count`, `…_sum` and
/// cumulative `…_le_<bound>` rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatRow {
    /// Metric (or flattened histogram component) name.
    pub name: String,
    /// Family label value, empty when unlabelled.
    pub label: String,
    /// Current value.
    pub value: u64,
}

/// The metric registry: named slots, each a scalar instrument or a
/// labelled family. Registration is idempotent by name and
/// type-checked — asking for an existing name as a different instrument
/// type panics (a programming error, caught in tests).
#[derive(Default)]
pub struct Metrics {
    slots: Mutex<Vec<Slot>>,
}

/// The process-global registry every subsystem feeds. A daemon process
/// exposes exactly this through STATS and `/metrics`; an embedded
/// engine reads its per-run slice into `RunReport`.
pub fn global() -> &'static Metrics {
    static GLOBAL: OnceLock<Metrics> = OnceLock::new();
    GLOBAL.get_or_init(Metrics::default)
}

macro_rules! register {
    ($self:ident, $name:ident, $help:ident, $variant:ident, $make:expr) => {{
        let mut slots = $self.slots.lock();
        for slot in slots.iter() {
            if slot.name == $name {
                match &slot.instrument {
                    Instrument::$variant(m) => return m.clone(),
                    other => panic!(
                        "metric {:?} already registered as a {}",
                        $name,
                        other.type_name()
                    ),
                }
            }
        }
        let m = $make;
        slots.push(Slot {
            name: $name,
            help: $help,
            instrument: Instrument::$variant(m.clone()),
        });
        m
    }};
}

impl Metrics {
    /// A fresh, empty registry (tests; production uses [`global`]).
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Register (or fetch) the counter named `name`.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        register!(self, name, help, Counter, Arc::new(Counter::default()))
    }

    /// Register (or fetch) the gauge named `name`.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        register!(self, name, help, Gauge, Arc::new(Gauge::default()))
    }

    /// Register (or fetch) the histogram named `name`.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        register!(self, name, help, Histogram, Arc::new(Histogram::default()))
    }

    /// Register (or fetch) a counter family labelled by `label_key`.
    pub fn counter_family(
        &self,
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
    ) -> Arc<Family<Counter>> {
        register!(
            self,
            name,
            help,
            CounterFamily,
            Arc::new(Family::new(label_key))
        )
    }

    /// Register (or fetch) a gauge family labelled by `label_key`.
    pub fn gauge_family(
        &self,
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
    ) -> Arc<Family<Gauge>> {
        register!(
            self,
            name,
            help,
            GaugeFamily,
            Arc::new(Family::new(label_key))
        )
    }

    /// Drop every family series labelled `label` across the registry
    /// (called when a run's topics are GC'd).
    pub fn remove_label(&self, label: &str) {
        for slot in self.slots.lock().iter() {
            match &slot.instrument {
                Instrument::CounterFamily(f) => f.remove(label),
                Instrument::GaugeFamily(f) => f.remove(label),
                _ => {}
            }
        }
    }

    /// Flatten the registry into `(name, label, value)` rows, sorted by
    /// `(name, label)` for stable output. This is what the STATS wire
    /// verb ships.
    pub fn snapshot(&self) -> Vec<StatRow> {
        let mut rows = Vec::new();
        for slot in self.slots.lock().iter() {
            match &slot.instrument {
                Instrument::Counter(c) => rows.push(StatRow {
                    name: slot.name.to_owned(),
                    label: String::new(),
                    value: c.get(),
                }),
                Instrument::Gauge(g) => rows.push(StatRow {
                    name: slot.name.to_owned(),
                    label: String::new(),
                    value: g.get(),
                }),
                Instrument::Histogram(h) => {
                    rows.push(StatRow {
                        name: format!("{}_count", slot.name),
                        label: String::new(),
                        value: h.count(),
                    });
                    rows.push(StatRow {
                        name: format!("{}_sum", slot.name),
                        label: String::new(),
                        value: h.sum(),
                    });
                    let mut cumulative = 0;
                    for (i, n) in h.bucket_counts().into_iter().enumerate() {
                        cumulative += n;
                        let bound = BUCKET_BOUNDS
                            .get(i)
                            .map(|b| b.to_string())
                            .unwrap_or_else(|| "inf".to_owned());
                        rows.push(StatRow {
                            name: format!("{}_le_{bound}", slot.name),
                            label: String::new(),
                            value: cumulative,
                        });
                    }
                }
                Instrument::CounterFamily(f) => f.for_each(|label, c| {
                    rows.push(StatRow {
                        name: slot.name.to_owned(),
                        label: label.to_owned(),
                        value: c.get(),
                    })
                }),
                Instrument::GaugeFamily(f) => f.for_each(|label, g| {
                    rows.push(StatRow {
                        name: slot.name.to_owned(),
                        label: label.to_owned(),
                        value: g.get(),
                    })
                }),
            }
        }
        rows.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        rows
    }

    /// The per-run slice of the registry: `(name, value)` of every
    /// family series labelled `run`. What `RunReport` carries as the
    /// run's final metrics snapshot.
    pub fn snapshot_run(&self, run: &str) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = Vec::new();
        for slot in self.slots.lock().iter() {
            let value = match &slot.instrument {
                Instrument::CounterFamily(f) if f.label_key() == "run" => f.with(run).get(),
                Instrument::GaugeFamily(f) if f.label_key() == "run" => f.with(run).get(),
                _ => continue,
            };
            rows.push((slot.name.to_owned(), value));
        }
        rows.sort();
        rows
    }

    /// Render the registry in the Prometheus text exposition format
    /// (v0.0.4): `# HELP` / `# TYPE` headers, `name{key="label"} value`
    /// series, histogram `_bucket`/`_sum`/`_count` conventions.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for slot in self.slots.lock().iter() {
            let _ = writeln!(out, "# HELP {} {}", slot.name, slot.help);
            let _ = writeln!(out, "# TYPE {} {}", slot.name, slot.instrument.type_name());
            match &slot.instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "{} {}", slot.name, c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", slot.name, g.get());
                }
                Instrument::Histogram(h) => {
                    let mut cumulative = 0;
                    for (i, n) in h.bucket_counts().into_iter().enumerate() {
                        cumulative += n;
                        let bound = BUCKET_BOUNDS
                            .get(i)
                            .map(|b| b.to_string())
                            .unwrap_or_else(|| "+Inf".to_owned());
                        let _ =
                            writeln!(out, "{}_bucket{{le=\"{bound}\"}} {cumulative}", slot.name);
                    }
                    let _ = writeln!(out, "{}_sum {}", slot.name, h.sum());
                    let _ = writeln!(out, "{}_count {}", slot.name, h.count());
                }
                Instrument::CounterFamily(f) => {
                    let key = f.label_key();
                    let mut series: Vec<(String, u64)> = Vec::new();
                    f.for_each(|label, c| series.push((label.to_owned(), c.get())));
                    series.sort();
                    for (label, value) in series {
                        let _ = writeln!(
                            out,
                            "{}{{{key}=\"{}\"}} {value}",
                            slot.name,
                            escape_label(&label)
                        );
                    }
                }
                Instrument::GaugeFamily(f) => {
                    let key = f.label_key();
                    let mut series: Vec<(String, u64)> = Vec::new();
                    f.for_each(|label, g| series.push((label.to_owned(), g.get())));
                    series.sort();
                    for (label, value) in series {
                        let _ = writeln!(
                            out,
                            "{}{{{key}=\"{}\"}} {value}",
                            slot.name,
                            escape_label(&label)
                        );
                    }
                }
            }
        }
        out
    }
}

/// Escape a label value per the Prometheus text format (backslash,
/// double quote, newline).
fn escape_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_idempotently() {
        let m = Metrics::new();
        let a = m.counter("test_total", "help");
        let b = m.counter("test_total", "help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same slot behind both handles");
        let g = m.gauge("test_depth", "help");
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauge decrement saturates");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn re_registering_as_a_different_type_panics() {
        let m = Metrics::new();
        m.counter("test_total", "help");
        m.gauge("test_total", "help");
    }

    #[test]
    fn families_shard_and_snapshot_by_label() {
        let m = Metrics::new();
        let fam = m.counter_family("runs_total", "help", "run");
        fam.with("a").add(5);
        fam.with("b").inc();
        fam.with("a").inc(); // same slot on re-acquisition
        let rows = m.snapshot();
        assert_eq!(
            rows,
            vec![
                StatRow {
                    name: "runs_total".into(),
                    label: "a".into(),
                    value: 6
                },
                StatRow {
                    name: "runs_total".into(),
                    label: "b".into(),
                    value: 1
                },
            ]
        );
        assert_eq!(m.snapshot_run("a"), vec![("runs_total".to_owned(), 6)]);
        fam.remove("a");
        assert_eq!(m.snapshot().len(), 1, "removed label leaves the registry");
    }

    #[test]
    fn histogram_buckets_are_power_of_two_cumulative() {
        let m = Metrics::new();
        let h = m.histogram("batch", "help");
        for v in [0, 1, 2, 3, 64, 65, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1_000_135);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 2, "0 and 1 land in le_1");
        assert_eq!(buckets[1], 1, "2 lands in le_2");
        assert_eq!(buckets[2], 1, "3 lands in le_4");
        assert_eq!(buckets[6], 1, "64 lands in le_64");
        assert_eq!(buckets[7], 1, "65 lands in le_128");
        assert_eq!(*buckets.last().unwrap(), 1, "1e6 lands in +Inf");
        let rows = m.snapshot();
        let le_inf = rows.iter().find(|r| r.name == "batch_le_inf").unwrap();
        assert_eq!(le_inf.value, 7, "cumulative +Inf bucket counts all");
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let m = Metrics::new();
        m.counter("c_total", "a counter").inc();
        m.gauge("g_now", "a gauge").set(9);
        m.counter_family("f_total", "a family", "run")
            .with("r\"1\"")
            .inc();
        m.histogram("h_us", "a histogram").observe(3);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE c_total counter"));
        assert!(text.contains("c_total 1"));
        assert!(text.contains("# TYPE g_now gauge"));
        assert!(text.contains("g_now 9"));
        assert!(text.contains("f_total{run=\"r\\\"1\\\"\"} 1"));
        assert!(text.contains("# TYPE h_us histogram"));
        assert!(text.contains("h_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("h_us_count 1"));
    }
}
