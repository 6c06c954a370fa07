//! Offline stand-in for `crossbeam`, covering only the `channel`
//! module surface this workspace uses.
//!
//! Like the real crate (and unlike raw `std::sync::mpsc`), the
//! [`channel::Receiver`] here is `Clone + Sync`: multiple threads may
//! share one consumer endpoint. The queue is a `Mutex<VecDeque>` +
//! `Condvar`, so a blocked `recv` parks on the condvar and never holds
//! the lock across the wait — a concurrent `try_recv` on a clone
//! returns immediately, matching crossbeam semantics.
//!
//! `send` wakes a receiver only when one is parked. The count of
//! parked receivers lives inside the mutex the condvar waits on: a
//! receiver bumps it in the same critical section that found the queue
//! empty and releases the lock only by entering the wait, so a sender
//! that reads zero knows every receiver will look at the queue again
//! before it parks — no wake-up can be lost, and a send to a busy
//! (polling) consumer costs no futex call.

#![forbid(unsafe_code)]

/// Multi-producer multi-consumer FIFO channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers currently waiting on `ready`.
        parked: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// Sending side of an unbounded channel.
    pub struct Sender<T>(Arc<Shared<T>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueue a message; fails if all receivers are gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            let wake = st.parked > 0;
            drop(st);
            if wake {
                self.0.ready.notify_one();
            }
            Ok(())
        }
    }

    /// Receiving side of an unbounded channel.
    pub struct Receiver<T>(Arc<Shared<T>>);

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.lock().receivers -= 1;
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.parked += 1;
                st = self.0.ready.wait(st).unwrap_or_else(|e| e.into_inner());
                st.parked -= 1;
            }
        }

        /// Block up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.parked += 1;
                let (guard, _) = self
                    .0
                    .ready
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                st.parked -= 1;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            if let Some(v) = st.queue.pop_front() {
                Ok(v)
            } else if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }
    }

    /// Create an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                parked: 0,
            }),
            ready: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.try_recv().unwrap(), 2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn timeout_and_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert!(rx.recv().is_err());
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_when_all_receivers_gone() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn clone_endpoints_across_threads() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        let h = std::thread::spawn(move || {
            tx2.send(7u8).unwrap();
        });
        h.join().unwrap();
        assert_eq!(rx2.recv().unwrap(), 7);
        drop(rx);
    }

    #[test]
    fn blocked_recv_does_not_starve_try_recv() {
        let (tx, rx) = unbounded::<u8>();
        let rx_block = rx.clone();
        let blocker = std::thread::spawn(move || rx_block.recv());
        // give the blocker time to park inside recv()
        std::thread::sleep(Duration::from_millis(20));
        // a clone must still answer immediately while recv() waits
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(9).unwrap();
        assert_eq!(blocker.join().unwrap(), Ok(9));
    }

    #[test]
    fn multiple_consumers_drain_disjoint_messages() {
        let (tx, rx) = unbounded();
        for i in 0..100u32 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let rx2 = rx.clone();
        let h = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx2.recv() {
                got.push(v);
            }
            got
        });
        let mut mine = Vec::new();
        while let Ok(v) = rx.recv() {
            mine.push(v);
        }
        let mut all = h.join().unwrap();
        all.extend(mine);
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_send_nobody_was_parked_for_is_still_received() {
        // No receiver is waiting, so `send` skips the wake-up; the
        // value must be there for whoever looks next.
        let (tx, rx) = unbounded();
        tx.send(5u8).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(5));
        tx.send(6).unwrap();
        assert_eq!(rx.recv(), Ok(6));
    }

    #[test]
    fn no_wake_up_is_lost_between_parking_and_polling_receivers() {
        // Each round is released by a barrier, so the sends race the
        // receiver's transition from draining (not parked, no wake-up
        // due) to waiting (parked, wake-up due). A lost wake-up shows
        // as a timeout: nothing else would ever rouse the receiver.
        const ROUNDS: u32 = 2000;
        const SENDERS: u32 = 3;
        let (tx, rx) = unbounded();
        let gate = &std::sync::Barrier::new(SENDERS as usize + 1);
        std::thread::scope(|s| {
            for _ in 0..SENDERS {
                let tx = tx.clone();
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        gate.wait();
                        tx.send(round).unwrap();
                    }
                });
            }
            for round in 0..ROUNDS {
                gate.wait();
                for _ in 0..SENDERS {
                    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(round));
                }
            }
        });
    }
}
