//! Deterministic fault injection for the **real** wire protocol: a
//! seeded chaos relay spliced into the in-process transport seam, so
//! an unmodified [`BrokerServer`] and unmodified
//! [`RemoteBroker`](crate::RemoteBroker)s run their full production
//! code paths while every byte between them crosses a hostile,
//! PRNG-scheduled network.
//!
//! ## Architecture
//!
//! ```text
//!   RemoteBroker ── FaultTransport ══ socketpair ══ chaos pumps ══ socketpair ══ epoll loop
//!   (production)     (client end)                  (per-direction    (connect_in_process,
//!                                                    relay threads)     production server)
//! ```
//!
//! [`ChaosNet::connector`] produces an ordinary
//! [`Connector`]: each dial opens a fresh
//! *link* — a [`FaultTransport`] (a plain socketpair half, so epoll,
//! `try_clone`, `shutdown` all behave exactly like production) whose
//! peer is a pair of relay pumps forwarding whole wire frames to and
//! from a [`BrokerServer::connect_in_process`] connection. The pumps
//! inject the faults of a [`FaultPlan`]:
//!
//! * **latency** — per-frame one-way delay drawn from a virtual-time
//!   range and divided by [`FaultPlan::time_scale`] (an accelerated
//!   clock: a plan expressed in tens of milliseconds of virtual
//!   latency runs in real microseconds, so 10k-event chaos runs finish
//!   in seconds);
//! * **frame drops** — whole frames silently discarded (framing stays
//!   intact: the receiver simply never sees the message — the
//!   lost-PUBLISH / lost-EVENTS case);
//! * **corruption** — a random byte of a frame (length prefix
//!   included) flipped, exercising every parser error path;
//! * **severs** — the link dies after a drawn frame budget or virtual
//!   deadline, either *clean* (cut at a frame boundary — FIN
//!   mid-conversation) or *mid-frame* (a truncated frame prefix is
//!   delivered first — the torn-write case);
//! * **partitions** — a dial attempt instead opens a refusal window
//!   for that client, so reconnect storms grind against a dead
//!   network; [`ChaosNet::partition_client`] and
//!   [`ChaosNet::sever_all`] stage N-way partitions deliberately.
//!
//! ## Determinism contract
//!
//! Every fault decision is drawn from a PRNG derived as
//! `mix(master seed, client name, that client's dial ordinal)` — no
//! global RNG lock, no dependence on cross-client thread interleaving.
//! Given the same seed, the n-th connection of client `"shard0"`
//! always draws the same sever budget, the same latency sequence, the
//! same drop pattern. Real threads still race *around* the schedule
//! (this is the point: production code under true concurrency), so a
//! failing seed reproduces the same hostile schedule, not a cycle-
//! exact replay — in practice seeds reproduce findings immediately.
//! Export `GINFLOW_FAULT_SEED=<n>` to pin the suite to one seed
//! ([`seed_from_env`]).

use crate::server::BrokerServer;
use crate::transport::{Connector, Transport};
use ginflow_mq::wire::{Frame, FrameSplitter};
use ginflow_mq::LogBroker;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// What the chaos pumps may do to a link, all probabilities and ranges
/// interpreted in **virtual time** (see [`FaultPlan::time_scale`]).
/// Plain data: clone it, tweak fields, hand it to [`ChaosNet::new`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Per-frame one-way latency range in virtual microseconds,
    /// applied independently in each direction.
    pub latency_us: (u64, u64),
    /// Accelerated-clock divisor: real sleep = virtual latency /
    /// `time_scale`. 1 = real time; 100 = a 10 ms virtual delay costs
    /// 100 µs of wall clock.
    pub time_scale: u64,
    /// Probability a frame is silently dropped (per frame, per
    /// direction). Framing stays valid — the peer just never sees it.
    pub drop_frame: f64,
    /// Probability one byte of a frame (length prefix included) is
    /// flipped before forwarding.
    pub corrupt_frame: f64,
    /// Frames a direction forwards before severing the link, drawn
    /// uniformly per link per direction. `None` = no frame-budget
    /// sever.
    pub sever_after_frames: Option<(u64, u64)>,
    /// Virtual wall-clock sever deadline range, drawn per link — kills
    /// quiet links a frame budget would never reach. `None` = no timer
    /// sever.
    pub sever_after: Option<(Duration, Duration)>,
    /// Probability a sever cuts **mid-frame** (a truncated prefix of
    /// the in-progress frame is delivered before the FIN) instead of
    /// cleanly at a frame boundary.
    pub midframe_sever: f64,
    /// Probability a dial attempt opens a partition window for that
    /// client instead of a link.
    pub partition: f64,
    /// Virtual duration range of a partition window.
    pub partition_for: (Duration, Duration),
    /// Frames per direction that always pass un-faulted at link start,
    /// so the connect handshake (INFO round trip) is viable. Faults
    /// begin after the grace window; severs count their budget from
    /// frame one.
    pub grace_frames: u64,
}

impl FaultPlan {
    /// No faults at all: the relay forwards verbatim. The healed
    /// baseline, and what [`ChaosNet::pause`] temporarily turns any
    /// plan into.
    pub fn calm() -> FaultPlan {
        FaultPlan {
            latency_us: (0, 0),
            time_scale: 1,
            drop_frame: 0.0,
            corrupt_frame: 0.0,
            sever_after_frames: None,
            sever_after: None,
            midframe_sever: 0.0,
            partition: 0.0,
            partition_for: (Duration::ZERO, Duration::ZERO),
            grace_frames: 0,
        }
    }

    /// Mild chaos: virtual latency up to 2 ms (accelerated 100×),
    /// occasional severs every few hundred frames, rare partitions.
    pub fn mild() -> FaultPlan {
        FaultPlan {
            latency_us: (0, 2_000),
            time_scale: 100,
            drop_frame: 0.0,
            corrupt_frame: 0.0,
            sever_after_frames: Some((200, 2_000)),
            sever_after: Some((Duration::from_secs(2), Duration::from_secs(20))),
            midframe_sever: 0.25,
            partition: 0.05,
            partition_for: (Duration::from_millis(500), Duration::from_secs(5)),
            grace_frames: 8,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::mild()
    }
}

/// The master seed for a chaos run: `GINFLOW_FAULT_SEED` if set (the
/// one-line repro knob every chaos failure prints), else `default`.
pub fn seed_from_env(default: u64) -> u64 {
    std::env::var("GINFLOW_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// FNV-1a over a name — the same cheap stable hash the scheduler uses
/// for shard placement, reused here to fold client names into seeds.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Mix the master seed, a client identity and a dial ordinal into one
/// link seed (SplitMix64 finalizer — avalanche on every input bit).
fn link_seed(master: u64, client: &str, dial: u64) -> u64 {
    let mut z = master ^ fnv1a(client).rotate_left(17) ^ dial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Running totals of everything the chaos layer did — read them
/// through [`ChaosNet::stats`] to assert a scenario actually exercised
/// what it claims (severs happened, frames were dropped, dials were
/// refused).
#[derive(Default)]
struct StatCells {
    dials: AtomicU64,
    dials_refused: AtomicU64,
    links: AtomicU64,
    frames: AtomicU64,
    dropped: AtomicU64,
    corrupted: AtomicU64,
    severs: AtomicU64,
    midframe_severs: AtomicU64,
}

/// One snapshot of [`ChaosNet`] activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Dial attempts seen by the connector.
    pub dials: u64,
    /// Dials refused by a partition window.
    pub dials_refused: u64,
    /// Links actually opened.
    pub links: u64,
    /// Frames forwarded (both directions).
    pub frames: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames forwarded with a flipped byte.
    pub corrupted: u64,
    /// Links severed by schedule (budget or deadline).
    pub severs: u64,
    /// Of those, severs that cut mid-frame.
    pub midframe_severs: u64,
}

/// Shared kill switch of one link: clones of both relay-side stream
/// ends, so any party (a pump hitting its sever budget, the deadline
/// sleeper, [`ChaosNet::sever_all`], the client's own `shutdown`) can
/// collapse the whole link; every blocked `read`/`write` on either
/// side unblocks with EOF.
struct LinkCtl {
    client: String,
    relay_end: UnixStream,
    server_end: Box<dyn Transport>,
    dead: AtomicBool,
}

impl LinkCtl {
    /// Tear the link down (idempotent). `scheduled` marks a sever the
    /// fault schedule ordered, as opposed to a natural close.
    fn kill(&self, scheduled: bool, midframe: bool, stats: &StatCells) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        if scheduled {
            stats.severs.fetch_add(1, Ordering::Relaxed);
            if midframe {
                stats.midframe_severs.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _ = self.relay_end.shutdown(std::net::Shutdown::Both);
        let _ = self.server_end.shutdown();
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }
}

/// The transport handed to production client code: a plain socketpair
/// half (real fd — the shared client reactor epolls it unmodified)
/// plus the link kill switch, so `shutdown` collapses the relay too.
pub struct FaultTransport {
    inner: UnixStream,
    ctl: Arc<LinkCtl>,
    stats: Arc<StatCells>,
}

impl Read for FaultTransport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for FaultTransport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Transport for FaultTransport {
    fn try_clone(&self) -> std::io::Result<Box<dyn Transport>> {
        Ok(Box::new(FaultTransport {
            inner: self.inner.try_clone()?,
            ctl: self.ctl.clone(),
            stats: self.stats.clone(),
        }))
    }

    fn shutdown(&self) -> std::io::Result<()> {
        self.ctl.kill(false, false, &self.stats);
        self.inner.shutdown(std::net::Shutdown::Both)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }

    fn raw_fd(&self) -> i32 {
        use std::os::unix::io::AsRawFd;
        self.inner.as_raw_fd()
    }
}

/// Per-client connector state: the dial ordinal feeding seed
/// derivation and the currently open partition window, if any.
#[derive(Default)]
struct ClientState {
    dials: u64,
    partition_until: Option<Instant>,
}

/// The chaos control plane: owns the seed, the [`FaultPlan`], the
/// per-client dial ordinals and the live-link registry. One
/// `ChaosNet` fronts one [`BrokerServer`] for any number of clients.
pub struct ChaosNet {
    seed: u64,
    plan: FaultPlan,
    /// While true, dials succeed and new links forward verbatim — the
    /// "heal the network and drain" phase of a scenario.
    paused: AtomicBool,
    stats: Arc<StatCells>,
    clients: Mutex<HashMap<String, ClientState>>,
    links: Mutex<Vec<(String, Weak<LinkCtl>)>>,
}

impl ChaosNet {
    /// A chaos layer drawing every fault decision from `seed`.
    pub fn new(seed: u64, plan: FaultPlan) -> Arc<ChaosNet> {
        Arc::new(ChaosNet {
            seed,
            plan,
            paused: AtomicBool::new(false),
            stats: Arc::new(StatCells::default()),
            clients: Mutex::new(HashMap::new()),
            links: Mutex::new(Vec::new()),
        })
    }

    /// The master seed (for failure messages: `GINFLOW_FAULT_SEED=<n>`
    /// reproduces the schedule).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Pause (heal) or resume chaos: while paused, dials always
    /// succeed and fresh links forward verbatim. Existing links keep
    /// their schedules — sever them with [`ChaosNet::sever_all`] if
    /// the scenario needs a known-clean network.
    pub fn pause(&self, paused: bool) {
        self.paused.store(paused, Ordering::SeqCst);
    }

    /// Heal the network for a drain phase: pause chaos *and* sever
    /// every live link, so every client immediately redials onto a
    /// fault-free relay.
    pub fn heal(&self) {
        self.pause(true);
        self.sever_all();
    }

    /// Sever every live link now (scheduled-sever accounting).
    pub fn sever_all(&self) {
        let links: Vec<Arc<LinkCtl>> = {
            let mut reg = self.links.lock();
            reg.retain(|(_, w)| w.strong_count() > 0);
            reg.iter().filter_map(|(_, w)| w.upgrade()).collect()
        };
        for ctl in links {
            ctl.kill(true, false, &self.stats);
        }
    }

    /// Open (or extend) a partition for `client`: its live links are
    /// severed and its dials refused for `window` of **virtual** time
    /// (divided by the plan's `time_scale`). With several clients this
    /// stages N-way partitions deliberately, on top of whatever the
    /// seeded schedule does.
    pub fn partition_client(&self, client: &str, window: Duration) {
        let scale = self.plan.time_scale.max(1);
        let until = Instant::now() + window / scale as u32;
        self.clients
            .lock()
            .entry(client.to_owned())
            .or_default()
            .partition_until = Some(until);
        let links: Vec<Arc<LinkCtl>> = self
            .links
            .lock()
            .iter()
            .filter(|(c, _)| c == client)
            .filter_map(|(_, w)| w.upgrade())
            .collect();
        for ctl in links {
            ctl.kill(true, false, &self.stats);
        }
    }

    /// Snapshot of everything the chaos layer has done so far.
    pub fn stats(&self) -> ChaosStats {
        let s = &self.stats;
        ChaosStats {
            dials: s.dials.load(Ordering::Relaxed),
            dials_refused: s.dials_refused.load(Ordering::Relaxed),
            links: s.links.load(Ordering::Relaxed),
            frames: s.frames.load(Ordering::Relaxed),
            dropped: s.dropped.load(Ordering::Relaxed),
            corrupted: s.corrupted.load(Ordering::Relaxed),
            severs: s.severs.load(Ordering::Relaxed),
            midframe_severs: s.midframe_severs.load(Ordering::Relaxed),
        }
    }

    /// A [`Connector`] dialing `server` through this chaos layer as
    /// `client` — hand it to
    /// [`RemoteBroker::connect_with`](crate::RemoteBroker::connect_with).
    /// Every dial, initial or reconnect, goes through the seeded
    /// schedule; distinct client names draw independent schedules.
    pub fn connector(self: &Arc<ChaosNet>, server: Arc<BrokerServer>, client: &str) -> Connector {
        let net = self.clone();
        let client = client.to_owned();
        Box::new(move || net.dial(&server, &client))
    }

    /// One dial attempt: consult the partition state, derive the link
    /// schedule, splice the relay.
    fn dial(
        self: &Arc<ChaosNet>,
        server: &Arc<BrokerServer>,
        client: &str,
    ) -> std::io::Result<Box<dyn Transport>> {
        self.stats.dials.fetch_add(1, Ordering::Relaxed);
        let plan = &self.plan;
        let paused = self.paused.load(Ordering::SeqCst);
        let dial_no = {
            let mut clients = self.clients.lock();
            let state = clients.entry(client.to_owned()).or_default();
            state.dials += 1;
            if !paused {
                if let Some(until) = state.partition_until {
                    if Instant::now() < until {
                        self.stats.dials_refused.fetch_add(1, Ordering::Relaxed);
                        return Err(std::io::Error::other(format!(
                            "chaos: {client} partitioned from the broker"
                        )));
                    }
                    state.partition_until = None;
                }
            }
            state.dials
        };
        let seed = link_seed(self.seed, client, dial_no);
        let mut rng = SmallRng::seed_from_u64(seed);
        if !paused && rng.random_bool(plan.partition) {
            let window =
                duration_range(&mut rng, plan.partition_for) / plan.time_scale.max(1) as u32;
            self.clients
                .lock()
                .entry(client.to_owned())
                .or_default()
                .partition_until = Some(Instant::now() + window);
            self.stats.dials_refused.fetch_add(1, Ordering::Relaxed);
            return Err(std::io::Error::other(format!(
                "chaos: {client} partitioned from the broker (seed {})",
                self.seed
            )));
        }
        let effective = if paused {
            FaultPlan::calm()
        } else {
            plan.clone()
        };
        self.splice(server, client, seed, effective)
    }

    /// Build the relay: client socketpair, server in-process
    /// connection, two pump threads, optional deadline sleeper.
    fn splice(
        self: &Arc<ChaosNet>,
        server: &Arc<BrokerServer>,
        client: &str,
        seed: u64,
        plan: FaultPlan,
    ) -> std::io::Result<Box<dyn Transport>> {
        let server_end = server.connect_in_process()?;
        let (app_end, relay_end) = UnixStream::pair()?;
        // Bounded writes everywhere: a peer that stops reading stalls
        // a pump for at most this long before the link collapses.
        let _ = app_end.set_write_timeout(Some(Duration::from_secs(10)));
        let _ = relay_end.set_write_timeout(Some(Duration::from_secs(10)));
        let ctl = Arc::new(LinkCtl {
            client: client.to_owned(),
            relay_end: relay_end.try_clone()?,
            server_end: server_end.try_clone()?,
            dead: AtomicBool::new(false),
        });
        {
            let mut reg = self.links.lock();
            reg.retain(|(_, w)| w.strong_count() > 0);
            reg.push((ctl.client.clone(), Arc::downgrade(&ctl)));
        }
        self.stats.links.fetch_add(1, Ordering::Relaxed);
        let scale = plan.time_scale.max(1);

        // Independent per-direction schedules derived from the link
        // seed, so the two pump threads never contend on an RNG and
        // the schedule does not depend on their interleaving.
        let c2s = Pump {
            src: Box::new(relay_end.try_clone()?),
            dst: server_end.try_clone()?,
            rng: SmallRng::seed_from_u64(seed ^ 0xC25C_25C2_5C25_C25C),
            plan: plan.clone(),
            ctl: ctl.clone(),
            stats: self.stats.clone(),
            split_events: false,
        };
        let s2c = Pump {
            src: server_end,
            dst: Box::new(relay_end),
            rng: SmallRng::seed_from_u64(seed ^ 0x52C5_2C52_C52C_52C5),
            plan: plan.clone(),
            ctl: ctl.clone(),
            stats: self.stats.clone(),
            split_events: true,
        };
        std::thread::Builder::new()
            .name("gf-chaos-c2s".into())
            .spawn(move || c2s.run())
            .map_err(std::io::Error::other)?;
        std::thread::Builder::new()
            .name("gf-chaos-s2c".into())
            .spawn(move || s2c.run())
            .map_err(std::io::Error::other)?;

        // Deadline sever for quiet links: sleeps in short real-time
        // slices so it notices a naturally closed link and exits early.
        if let Some(range) = plan.sever_after {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xDEAD_1111_DEAD_1111);
            let deadline = Instant::now() + duration_range(&mut rng, range) / scale as u32;
            let ctl = ctl.clone();
            let stats = self.stats.clone();
            std::thread::Builder::new()
                .name("gf-chaos-timer".into())
                .spawn(move || {
                    while Instant::now() < deadline {
                        if ctl.is_dead() {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    ctl.kill(true, false, &stats);
                })
                .map_err(std::io::Error::other)?;
        }

        Ok(Box::new(FaultTransport {
            inner: app_end,
            ctl,
            stats: self.stats.clone(),
        }))
    }
}

impl Drop for ChaosNet {
    fn drop(&mut self) {
        // Collapse every surviving link so pump threads exit.
        for (_, weak) in self.links.lock().drain(..) {
            if let Some(ctl) = weak.upgrade() {
                ctl.kill(false, false, &self.stats);
            }
        }
    }
}

fn duration_range(rng: &mut SmallRng, (lo, hi): (Duration, Duration)) -> Duration {
    if hi <= lo {
        return lo;
    }
    let span = (hi - lo).as_micros() as u64;
    lo + Duration::from_micros(rng.random_range(0..=span))
}

/// One direction of a link's relay: reads whole wire frames from
/// `src`, applies the schedule, forwards to `dst`.
struct Pump {
    src: Box<dyn Transport>,
    dst: Box<dyn Transport>,
    rng: SmallRng,
    plan: FaultPlan,
    ctl: Arc<LinkCtl>,
    stats: Arc<StatCells>,
    /// Relay an EVENTS frame of n messages as n frames of one (the
    /// server → client direction).
    split_events: bool,
}

impl Pump {
    fn run(mut self) {
        let sever_at: Option<u64> = self
            .plan
            .sever_after_frames
            .map(|(lo, hi)| self.rng.random_range(lo..=hi.max(lo)));
        let mut frames: u64 = 0;
        let mut splitter = FrameSplitter::default();
        let mut chunk = [0u8; 16 * 1024];
        'link: loop {
            // Take one complete frame, undecoded, reading until there
            // is one.
            let raw: Vec<u8> = loop {
                match splitter.next_raw() {
                    Ok(Some(raw)) => break raw.to_vec(),
                    Ok(None) => {}
                    Err(_) => break 'link, // the sender broke the framing rule
                }
                match self.src.read(&mut chunk) {
                    Ok(0) | Err(_) => break 'link, // EOF, sever, or error
                    Ok(n) => splitter.push(&chunk[..n]),
                }
            };
            for frame in self.split(raw) {
                frames += 1;
                if !self.relay(frame, frames, sever_at) {
                    break 'link;
                }
            }
        }
        // Whatever ended this pump ends the link: the peer direction
        // unblocks with EOF and the client sees a dead connection.
        self.ctl.kill(false, false, &self.stats);
    }

    /// The frames one frame off the wire is relayed as.
    fn split(&self, raw: Vec<u8>) -> Vec<Vec<u8>> {
        if self.split_events {
            if let Ok(Frame::Events { sub, messages }) = Frame::decode(&raw[4..]) {
                if messages.len() > 1 {
                    return messages
                        .into_iter()
                        .filter_map(|m| {
                            (Frame::Events {
                                sub,
                                messages: vec![m],
                            })
                            .encode()
                            .ok()
                        })
                        .collect();
                }
            }
        }
        vec![raw]
    }

    /// Apply the schedule to the link's `nth` frame and forward what is
    /// left of it; `false` ends the link.
    fn relay(&mut self, mut frame: Vec<u8>, nth: u64, sever_at: Option<u64>) -> bool {
        let frame_len = frame.len();
        self.stats.frames.fetch_add(1, Ordering::Relaxed);
        if nth <= self.plan.grace_frames {
            return self.dst.write_all(&frame).is_ok();
        }
        if sever_at.is_some_and(|at| nth >= at) {
            // The scheduled sever: deliver a truncated prefix
            // (mid-frame) or nothing more (clean boundary cut), then
            // collapse the link.
            let midframe = self.rng.random_bool(self.plan.midframe_sever);
            if midframe && frame_len > 5 {
                let cut = self.rng.random_range(1..frame_len);
                let _ = self.dst.write_all(&frame[..cut]);
            }
            self.ctl.kill(true, midframe, &self.stats);
            return false;
        }
        if self.rng.random_bool(self.plan.drop_frame) {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        if self.rng.random_bool(self.plan.corrupt_frame) {
            let at = self.rng.random_range(0..frame.len());
            frame[at] ^= 1 << self.rng.random_range(0..8u32);
            self.stats.corrupted.fetch_add(1, Ordering::Relaxed);
        }
        let (lo, hi) = self.plan.latency_us;
        if hi > 0 {
            let virt = if hi > lo {
                self.rng.random_range(lo..=hi)
            } else {
                hi
            };
            let scale = self.plan.time_scale.max(1);
            std::thread::sleep(Duration::from_micros(virt / scale));
        }
        self.dst.write_all(&frame).is_ok()
    }
}

/// Everything a chaos scenario needs in one value: an unmodified
/// in-memory log broker behind an unmodified [`BrokerServer`],
/// a [`ChaosNet`] spliced in front of it, and a watchdog so "never a
/// hang" is checkable as a property.
///
/// The harness intentionally exposes the raw pieces — the [`LogBroker`]
/// is the *oracle* (what the daemon really retained, bypassing the
/// network), the server is production, the net is the fault layer.
pub struct ChaosHarness {
    seed: u64,
    broker: Arc<LogBroker>,
    server: Arc<BrokerServer>,
    net: Arc<ChaosNet>,
}

impl ChaosHarness {
    /// Stand up broker + server + chaos layer under one seed.
    pub fn new(seed: u64, plan: FaultPlan) -> std::io::Result<ChaosHarness> {
        let broker = Arc::new(LogBroker::new());
        let server = Arc::new(BrokerServer::bind(
            "127.0.0.1:0",
            broker.clone() as Arc<dyn ginflow_mq::Broker>,
        )?);
        Ok(ChaosHarness {
            seed,
            broker,
            server,
            net: ChaosNet::new(seed, plan),
        })
    }

    /// The master seed — put it in every assertion message:
    /// `GINFLOW_FAULT_SEED=<seed>` is the repro line.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The chaos control plane.
    pub fn net(&self) -> &Arc<ChaosNet> {
        &self.net
    }

    /// Direct (un-faulted) handle to the broker — the oracle for
    /// loss-ledger and retained-count checks, and an in-process
    /// publisher that bypasses chaos.
    pub fn broker(&self) -> &Arc<LogBroker> {
        &self.broker
    }

    /// The production server fronting the broker.
    pub fn server(&self) -> &Arc<BrokerServer> {
        &self.server
    }

    /// A connector for `client` through the chaos layer.
    pub fn connector(&self, client: &str) -> Connector {
        self.net.connector(self.server.clone(), client)
    }

    /// Connect a production [`RemoteBroker`](crate::RemoteBroker)
    /// through the chaos layer.
    pub fn client(&self, name: &str) -> std::io::Result<crate::RemoteBroker> {
        crate::RemoteBroker::connect_with(self.connector(name))
    }

    /// Run `f` under a real-time watchdog: `Ok(T)` if it finishes in
    /// `deadline`, `Err` (a structured failure naming the seed) if it
    /// does not — the "run completion or clean failure, never a hang"
    /// invariant made checkable. On timeout the worker thread is
    /// abandoned (detached), which is fine in a test process about to
    /// fail.
    pub fn with_deadline<T: Send + 'static>(
        &self,
        label: &str,
        deadline: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, String> {
        let (tx, rx) = std::sync::mpsc::channel();
        let name = format!("gf-chaos-{label}");
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let _ = tx.send(f());
            })
            .map_err(|e| format!("spawn {label}: {e}"))?;
        rx.recv_timeout(deadline).map_err(|_| {
            format!(
                "chaos hang: {label} did not finish within {deadline:?} \
                 (repro: GINFLOW_FAULT_SEED={})",
                self.seed
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use ginflow_mq::{Broker, SubscribeMode};

    #[test]
    fn link_schedules_are_deterministic_per_seed() {
        // The schedule derivation is a pure function of
        // (seed, client, dial ordinal) — same inputs, same draws.
        for (client, dial) in [("a", 1), ("a", 2), ("b", 1)] {
            let s1 = link_seed(42, client, dial);
            let s2 = link_seed(42, client, dial);
            assert_eq!(s1, s2);
            let mut r1 = SmallRng::seed_from_u64(s1);
            let mut r2 = SmallRng::seed_from_u64(s2);
            for _ in 0..16 {
                assert_eq!(
                    r1.random_range(0..1_000_000u64),
                    r2.random_range(0..1_000_000u64)
                );
            }
        }
        // Distinct inputs diverge.
        assert_ne!(link_seed(42, "a", 1), link_seed(42, "a", 2));
        assert_ne!(link_seed(42, "a", 1), link_seed(42, "b", 1));
        assert_ne!(link_seed(42, "a", 1), link_seed(43, "a", 1));
    }

    #[test]
    fn calm_relay_is_transparent() {
        let h = ChaosHarness::new(7, FaultPlan::calm()).unwrap();
        let client = h.client("c").unwrap();
        let sub = client.subscribe("t", SubscribeMode::Beginning).unwrap();
        client.publish("t", None, Bytes::from_static(b"x")).unwrap();
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload_str(),
            "x"
        );
        let stats = h.net().stats();
        assert!(stats.links >= 1 && stats.frames > 0);
        assert_eq!(stats.severs + stats.dropped + stats.corrupted, 0);
    }

    #[test]
    fn partition_client_refuses_dials_then_heals() {
        let h = ChaosHarness::new(9, FaultPlan::calm()).unwrap();
        let client = h.client("p").unwrap();
        client
            .publish("t", None, Bytes::from_static(b"pre"))
            .unwrap();
        // Virtual 30 s at the calm plan's scale 1 would be a real 30 s;
        // use a short real window instead.
        h.net().partition_client("p", Duration::from_millis(300));
        let refused_before = h.net().stats().dials_refused;
        // The severed link forces redials, which the window refuses…
        let err = client.publish("t", None, Bytes::from_static(b"during"));
        assert!(err.is_err() || h.net().stats().dials_refused > refused_before);
        // …until it expires and the client recovers on its own.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if client
                .publish("t", None, Bytes::from_static(b"post"))
                .is_ok()
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "client never recovered from partition"
            );
        }
        assert!(h.net().stats().dials_refused > 0);
    }
}
