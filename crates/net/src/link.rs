//! The framed-link core both event loops are built on: everything
//! below the protocol that the daemon's `event_loop` and the client's
//! `client_reactor` would otherwise each carry a copy of.
//!
//! * **[`Link`] — one connection's byte state.** Bytes read off the
//!   socket go into a [`FrameSplitter`] and come out as frames;
//!   encoded frames owed to the peer are appended to an [`Outbox`] and
//!   flushed opportunistically. When the socket would block, the link
//!   asks its loop for `WRITABLE` interest and resumes on readiness —
//!   no thread ever parks on a socket. A link touches no [`Poll`] and
//!   reads no clock: the loop passes `Instant`s in, gets back what
//!   changed, and does its own `reregister` — so the tests below drive
//!   it over an in-memory transport with no fd, thread or sleep.
//! * **[`Deadlines`] — the loop's timers.** `epoll_wait` sleeps exactly
//!   until the next deadline (or forever when there is none), so an
//!   idle loop makes zero syscalls between deadlines.
//! * **[`Doorbell`] — how other threads reach the loop.**

use crate::transport::Transport;
use ginflow_mq::wire::{Frame, FrameSplitter};
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Bytes read per link per readiness turn before yielding to the other
/// ready links (level-triggered epoll re-reports the rest), so one
/// firehose peer cannot starve the others.
pub(crate) const READ_TURN_BYTES: usize = 1 << 20;

/// Size of the scratch buffer a loop lends to [`Link::read_turn`].
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// A link owing bytes that makes no write progress for this long is
/// dead (full receive buffer, frozen or blackholed peer) — the
/// non-blocking form of a socket write timeout, so one dead peer cannot
/// hold a loop's memory.
pub(crate) const WRITE_STALL: Duration = Duration::from_secs(10);

/// How often stalled links are looked for while any link owes bytes.
/// No link owing bytes ⇒ no scan timer at all.
pub(crate) const STALL_SCAN: Duration = Duration::from_secs(2);

/// The link is finished: EOF, a socket error, or bytes that break the
/// framing rule or do not decode.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Dead;

/// Encoded frames owed to the peer, in the order they will leave.
#[derive(Default)]
pub(crate) struct Outbox {
    buf: Vec<u8>,
    /// `buf[..sent]` is already on the wire.
    sent: usize,
}

impl Outbox {
    /// Append whole encoded frames.
    pub(crate) fn push(&mut self, frames: &[u8]) {
        self.buf.extend_from_slice(frames);
    }

    /// Bytes not yet written.
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.sent
    }

    /// Take the bytes not yet written, as a socket that accepts them all
    /// would.
    #[cfg(test)]
    pub(crate) fn take(&mut self) -> Vec<u8> {
        let unsent = self.buf.split_off(self.sent);
        self.buf.clear();
        self.sent = 0;
        unsent
    }
}

/// What one [`Link::read_turn`] did.
pub(crate) struct ReadTurn {
    /// Frames handed to the handler.
    pub frames: u64,
    /// `false`: the link is finished (see [`Dead`]), or the handler
    /// refused a frame.
    pub alive: bool,
}

/// One connection's byte state.
pub(crate) struct Link {
    transport: Box<dyn Transport>,
    inbound: FrameSplitter,
    pub(crate) out: Outbox,
    /// Whether the loop's registration includes `WRITABLE`.
    want_write: bool,
    /// Last instant a flush moved bytes — the stall clock.
    last_progress: Instant,
}

impl Link {
    /// Wrap a non-blocking `transport` the loop has registered as
    /// `READABLE`.
    pub(crate) fn new(transport: Box<dyn Transport>, now: Instant) -> Link {
        Link {
            transport,
            inbound: FrameSplitter::default(),
            out: Outbox::default(),
            want_write: false,
            last_progress: now,
        }
    }

    /// The fd the loop registers.
    pub(crate) fn raw_fd(&self) -> i32 {
        self.transport.raw_fd()
    }

    /// Shut the socket down; the peer sees EOF.
    pub(crate) fn shutdown(&self) {
        let _ = self.transport.shutdown();
    }

    /// The socket is readable: pull up to [`READ_TURN_BYTES`], then
    /// hand every complete frame to `on_frame` (which may append
    /// replies to the outbox; `false` refuses the frame and ends the
    /// link). Frames complete at a dying socket are still handed out:
    /// what the peer sent before it hung up — pipelined publishes, the
    /// acks of ours — counts.
    pub(crate) fn read_turn(
        &mut self,
        scratch: &mut [u8],
        mut on_frame: impl FnMut(&mut Outbox, Frame) -> bool,
    ) -> ReadTurn {
        let mut alive = true;
        let mut read = 0usize;
        while read < READ_TURN_BYTES {
            match self.transport.read(scratch) {
                Ok(0) => {
                    alive = false; // EOF
                    break;
                }
                Ok(n) => {
                    self.inbound.push(&scratch[..n]);
                    read += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    alive = false;
                    break;
                }
            }
        }
        let mut frames = 0;
        loop {
            match self.inbound.next_frame() {
                Ok(Some(frame)) => {
                    frames += 1;
                    if !on_frame(&mut self.out, frame) {
                        alive = false;
                        break;
                    }
                }
                Ok(None) => break, // the rest completes on a later turn
                Err(_) => {
                    alive = false; // corrupt or hostile: hang up
                    break;
                }
            }
        }
        ReadTurn { frames, alive }
    }

    /// Write as much of the outbox as the socket accepts. `Ok(Some(i))`:
    /// the loop must `reregister` the fd with interest `i` (`WRITABLE`
    /// joins while bytes are owed and leaves once they are not, so an
    /// idle socket goes silent again).
    pub(crate) fn flush(&mut self, now: Instant) -> Result<Option<Interest>, Dead> {
        let out = &mut self.out;
        let mut progressed = false;
        while out.sent < out.buf.len() {
            match self.transport.write(&out.buf[out.sent..]) {
                Ok(0) => return Err(Dead),
                Ok(n) => {
                    out.sent += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(Dead),
            }
        }
        if progressed {
            self.last_progress = now;
        }
        if out.sent == out.buf.len() {
            out.buf.clear();
            out.sent = 0;
        } else if out.sent > READ_CHUNK {
            // Reclaim the sent prefix so the buffer doesn't creep.
            out.buf.drain(..out.sent);
            out.sent = 0;
        }
        let want_write = out.pending() > 0;
        if want_write == self.want_write {
            return Ok(None);
        }
        self.want_write = want_write;
        Ok(Some(if want_write {
            Interest::READABLE | Interest::WRITABLE
        } else {
            Interest::READABLE
        }))
    }

    /// Owing bytes and no write progress for [`WRITE_STALL`].
    pub(crate) fn stalled(&self, now: Instant) -> bool {
        self.out.pending() > 0 && now.saturating_duration_since(self.last_progress) >= WRITE_STALL
    }
}

/// A loop's deadlines: its own, keyed `K`, on a heap, and the stall scan
/// every loop has.
pub(crate) struct Deadlines<K> {
    heap: BinaryHeap<Reverse<(Instant, K)>>,
    /// When links are next checked for stalls; `None` while none owes
    /// bytes.
    stall_scan: Option<Instant>,
}

impl<K: Ord> Deadlines<K> {
    pub(crate) fn new() -> Deadlines<K> {
        Deadlines {
            heap: BinaryHeap::new(),
            stall_scan: None,
        }
    }

    /// Fire `key` at `at`.
    pub(crate) fn arm(&mut self, at: Instant, key: K) {
        self.heap.push(Reverse((at, key)));
    }

    /// A link owes bytes: make sure a stall scan is coming.
    pub(crate) fn arm_stall_scan(&mut self, now: Instant) {
        self.stall_scan.get_or_insert(now + STALL_SCAN);
    }

    /// The next deadline as an `epoll_wait` timeout; `None` sleeps
    /// until I/O or a doorbell ring.
    pub(crate) fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let next = self.heap.peek().map(|Reverse((at, _))| *at);
        let first = [next, self.stall_scan].into_iter().flatten().min()?;
        Some(first.saturating_duration_since(now))
    }

    /// Pop one of the loop's own deadlines that is due at `now`.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<K> {
        if self.heap.peek()?.0 .0 > now {
            return None;
        }
        self.heap.pop().map(|Reverse((_, key))| key)
    }

    /// The stall scan, if it is due at `now`: which of `links` the loop
    /// must give up on. Re-arms itself while any other link still owes
    /// bytes.
    pub(crate) fn stall_scan<'a, I>(
        &mut self,
        now: Instant,
        links: impl Iterator<Item = (I, &'a Link)>,
    ) -> Vec<I> {
        if self.stall_scan.is_none_or(|at| at > now) {
            return Vec::new();
        }
        self.stall_scan = None;
        let mut stalled = Vec::new();
        for (id, link) in links {
            if link.stalled(now) {
                stalled.push(id);
            } else if link.out.pending() > 0 {
                self.arm_stall_scan(now);
            }
        }
        stalled
    }
}

/// A loop's cross-thread doorbell: a message queue plus the
/// sleeping-flag handshake that makes wakeups lost-free *and* free when
/// the loop is already awake. [`Doorbell::ring`] enqueues, then writes
/// the eventfd only if the loop has declared itself asleep;
/// [`Doorbell::park`] declares `sleeping` *before* its final queue
/// check. So a ring serialized after that check observes the flag and
/// wakes the eventfd, and one serialized before it is caught by the
/// check — the loop polls at zero (an `epoll_wait` that does not block)
/// instead of sleeping on a full queue.
pub(crate) struct Doorbell<M> {
    queue: Mutex<Vec<M>>,
    sleeping: AtomicBool,
    waker: Waker,
}

impl<M> Doorbell<M> {
    /// A doorbell whose eventfd reports as `token` on `poll`.
    pub(crate) fn new(poll: &Poll, token: Token) -> std::io::Result<Doorbell<M>> {
        Ok(Doorbell {
            queue: Mutex::new(Vec::new()),
            sleeping: AtomicBool::new(false),
            waker: Waker::new(poll, token)?,
        })
    }

    /// Hand `msg` to the loop, from any thread (the loop's own
    /// included: awake, it is not woken, and sees `msg` before it parks).
    pub(crate) fn ring(&self, msg: M) {
        self.queue.lock().push(msg);
        if self.sleeping.load(Ordering::SeqCst) {
            self.wake();
        }
    }

    /// Interrupt the park for something that is not a message (a flag
    /// the loop reads at the top of its cycle).
    pub(crate) fn wake(&self) {
        let _ = self.waker.wake();
    }

    /// Everything rung since the last call, in order.
    pub(crate) fn take(&self) -> Vec<M> {
        std::mem::take(&mut *self.queue.lock())
    }

    /// Sleep in `epoll_wait` until readiness, a ring or `timeout`.
    pub(crate) fn park(
        &self,
        poll: &Poll,
        events: &mut Events,
        timeout: Option<Duration>,
    ) -> std::io::Result<()> {
        self.sleeping.store(true, Ordering::SeqCst);
        let timeout = if self.queue.lock().is_empty() {
            timeout
        } else {
            Some(Duration::ZERO)
        };
        let result = poll.poll(events, timeout);
        self.sleeping.store(false, Ordering::SeqCst);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::{Read, Write};
    use std::sync::Arc;

    /// What the scripted peer's next `read` call does; a script that
    /// has run out blocks.
    enum Step {
        Bytes(Vec<u8>),
        Block,
        Eof,
    }

    /// An in-memory peer: reads follow a script; a write takes at most
    /// `accepts` bytes, and the write after one that took any blocks.
    #[derive(Default)]
    struct Peer {
        reads: VecDeque<Step>,
        accepts: usize,
        just_accepted: bool,
        written: Vec<u8>,
    }

    struct Wire(Arc<Mutex<Peer>>);

    impl Read for Wire {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.lock().reads.pop_front() {
                Some(Step::Bytes(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Step::Eof) => Ok(0),
                Some(Step::Block) | None => Err(ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut peer = self.0.lock();
            let n = if peer.just_accepted {
                0
            } else {
                buf.len().min(peer.accepts)
            };
            peer.just_accepted = n > 0;
            if n == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            peer.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Transport for Wire {
        fn try_clone(&self) -> std::io::Result<Box<dyn Transport>> {
            Ok(Box::new(Wire(self.0.clone())))
        }

        fn shutdown(&self) -> std::io::Result<()> {
            Ok(())
        }

        fn set_nonblocking(&self, _: bool) -> std::io::Result<()> {
            Ok(())
        }

        fn raw_fd(&self) -> i32 {
            -1
        }
    }

    fn link_to(peer: Peer, now: Instant) -> (Link, Arc<Mutex<Peer>>) {
        let peer = Arc::new(Mutex::new(peer));
        (Link::new(Box::new(Wire(peer.clone())), now), peer)
    }

    fn receipt(seq: u64) -> Frame {
        Frame::ReceiptList {
            seq_first: seq,
            receipts: vec![ginflow_mq::Receipt {
                partition: 0,
                offset: seq,
            }],
        }
    }

    fn encoded(frames: &[Frame]) -> Vec<u8> {
        frames.iter().flat_map(|f| f.encode().unwrap()).collect()
    }

    /// Run one read turn, collecting what the handler was given.
    fn turn(link: &mut Link) -> (Vec<Frame>, ReadTurn) {
        let mut got = Vec::new();
        let mut scratch = vec![0u8; READ_CHUNK];
        let turn = link.read_turn(&mut scratch, |_, frame| {
            got.push(frame);
            true
        });
        (got, turn)
    }

    #[test]
    fn a_slow_writer_gets_the_same_bytes_and_one_rise_and_fall_of_want_write() {
        let frames: Vec<Frame> = (0..5).map(receipt).collect();
        let stream = encoded(&frames);
        for accepts in [1, 3, 7, 64, stream.len()] {
            let now = Instant::now();
            let (mut link, peer) = link_to(
                Peer {
                    accepts,
                    ..Peer::default()
                },
                now,
            );
            link.out.push(&stream);
            let (mut rises, mut falls) = (0, 0);
            while link.out.pending() > 0 {
                match link.flush(now).expect("the peer is alive") {
                    Some(i) if i.is_writable() => rises += 1,
                    Some(_) => falls += 1,
                    None => {}
                }
            }
            assert_eq!(peer.lock().written, stream, "{accepts} bytes per write");
            // A writer that takes everything at once never blocks, so
            // WRITABLE is never asked for.
            let expected = usize::from(accepts < stream.len());
            assert_eq!((rises, falls), (expected, expected), "{accepts} per write");
        }
    }

    #[test]
    fn an_oversized_prefix_kills_the_link_before_any_body_byte_is_buffered() {
        let mut first = encoded(&[receipt(1)]);
        first.extend_from_slice(&u32::MAX.to_be_bytes());
        let reads = [Step::Bytes(first), Step::Block, Step::Bytes(vec![0; 512])];
        let (mut link, peer) = link_to(
            Peer {
                reads: reads.into(),
                ..Peer::default()
            },
            Instant::now(),
        );
        let (got, turn) = turn(&mut link);
        assert_eq!(
            got,
            [receipt(1)],
            "the frame ahead of the bad prefix counts"
        );
        assert!(!turn.alive);
        assert_eq!(peer.lock().reads.len(), 1, "the body was never read");
    }

    #[test]
    fn frames_complete_at_a_dying_socket_are_still_handed_out() {
        let frames: Vec<Frame> = (0..3).map(receipt).collect();
        let mut stream = encoded(&frames);
        stream.extend_from_slice(&encoded(&[receipt(3)])[..9]); // torn fourth
        let (head, tail) = stream.split_at(30); // mid-frame
        let reads = [
            Step::Bytes(head.to_vec()),
            Step::Block,
            Step::Bytes(tail.to_vec()),
            Step::Eof,
        ];
        let (mut link, _peer) = link_to(
            Peer {
                reads: reads.into(),
                ..Peer::default()
            },
            Instant::now(),
        );
        let (got, first) = turn(&mut link);
        assert_eq!(got, frames[..1]);
        assert!(first.alive, "a partial frame waits for the next turn");
        let (got, last) = turn(&mut link);
        assert_eq!(got, frames[1..]);
        assert_eq!(last.frames, 2);
        assert!(!last.alive, "EOF ends the link");
    }

    #[test]
    fn no_write_progress_for_write_stall_is_a_stall_by_the_callers_clock() {
        let t0 = Instant::now();
        let (mut link, peer) = link_to(Peer::default(), t0); // accepts nothing
        let mut timers: Deadlines<()> = Deadlines::new();
        link.out.push(&encoded(&[receipt(1)]));
        assert!(link.flush(t0).unwrap().is_some_and(|i| i.is_writable()));
        timers.arm_stall_scan(t0);
        timers.arm_stall_scan(t0); // armed once, however often it is asked for
        assert_eq!(timers.next_timeout(t0), Some(STALL_SCAN));

        // The first scan finds it owing but not yet stalled, and re-arms.
        let scan = t0 + STALL_SCAN;
        let early = scan - Duration::from_millis(1);
        assert!(timers
            .stall_scan(early, [(7, &link)].into_iter())
            .is_empty());
        assert_eq!(timers.next_timeout(early), Some(Duration::from_millis(1)));
        assert!(timers.stall_scan(scan, [(7, &link)].into_iter()).is_empty());
        assert_eq!(timers.next_timeout(scan), Some(STALL_SCAN));

        // One byte of progress restarts the stall clock.
        let t9 = t0 + Duration::from_secs(9);
        peer.lock().accepts = 1;
        assert_eq!(link.flush(t9), Ok(None));
        peer.lock().accepts = 0;
        assert!(!link.stalled(t0 + WRITE_STALL));
        assert!(!link.stalled(t9 + WRITE_STALL - Duration::from_millis(1)));
        assert!(link.stalled(t9 + WRITE_STALL));

        // The scan that finds it stalled names it and, with nobody else
        // owing, arms nothing further.
        let late = t9 + WRITE_STALL;
        assert_eq!(timers.stall_scan(late, [(7, &link)].into_iter()), [7]);
        assert_eq!(timers.next_timeout(late), None);
    }
}
