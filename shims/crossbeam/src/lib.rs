//! Offline shim of `crossbeam`: the `channel` module only — unbounded
//! MPMC channels with the crossbeam API (cloneable `Receiver`, `len()`,
//! `recv_timeout`), built on a mutex + condvar queue.
//!
//! No product code uses it any more: subscriptions are one locked queue
//! of their own and the scheduler's queues are `std::sync::mpsc`. It is
//! still listed by the `agent`, `mq` and `net` manifests, and goes with
//! those lines once the benchmark's lock file is regenerated.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloneable (MPMC — each message goes to one receiver).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error of [`Sender::send`]: all receivers are gone; the unsent
    /// message is returned.
    pub struct SendError<T>(pub T);

    /// Error of [`Receiver::recv`]: channel empty and all senders gone.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Errors of [`Receiver::try_recv`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Empty and all senders dropped.
        Disconnected,
    }

    /// Errors of [`Receiver::recv_timeout`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with nothing queued.
        Timeout,
        /// Empty and all senders dropped.
        Disconnected,
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue a message; fails only when every receiver is dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.lock();
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            inner.queue.push_back(value);
            drop(inner);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Queued message count.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Is the queue empty?
        pub fn is_empty(&self) -> bool {
            self.shared.lock().queue.is_empty()
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or all senders are dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self
                    .shared
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Non-blocking dequeue.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.lock();
            match inner.queue.pop_front() {
                Some(v) => Ok(v),
                None if inner.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Block up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, result) = self
                    .shared
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                inner = guard;
                if result.timed_out() && inner.queue.is_empty() {
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Queued message count.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Is the queue empty?
        pub fn is_empty(&self) -> bool {
            self.shared.lock().queue.is_empty()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.senders -= 1;
            let wake = inner.senders == 0;
            drop(inner);
            if wake {
                // Blocked receivers must observe the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.lock().receivers -= 1;
        }
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn send_recv_order() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            assert_eq!(rx.len(), 10);
            for i in 0..10 {
                assert_eq!(rx.recv().unwrap(), i);
            }
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnects() {
            let (tx, rx) = unbounded::<u32>();
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(rx.recv(), Err(RecvError));

            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn timeout_then_delivery() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            let t = std::thread::spawn(move || tx.send(42).unwrap());
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
            t.join().unwrap();
        }

        #[test]
        fn mpmc_each_message_delivered_once() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let h = std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx2.recv() {
                    got.push(v);
                }
                got
            });
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            let mut all = got;
            all.extend(h.join().unwrap());
            all.sort();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }
    }
}
