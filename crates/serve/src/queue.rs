//! A bounded multi-producer/multi-consumer job queue with explicit
//! admission control.
//!
//! The serve path must never drop a request silently: when the queue is
//! full the *producer* is told so immediately ([`PushError::Full`]) and
//! turns that into a `shed` error response. Consumers block on a condvar;
//! closing the queue wakes them all, and a closed queue still drains —
//! [`Bounded::pop`] keeps returning queued items until empty, which is what
//! makes graceful shutdown ("finish what was admitted, admit nothing new")
//! a one-line policy in the server.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

use crate::lock;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back so the caller can
    /// shed it explicitly.
    Full(T),
    /// The queue was closed (shutdown in progress); no new admissions.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Times a consumer blocked in [`Bounded::pop`]. Test hook: a test that
    /// reads it under the lock knows the consumer is parked in the wait.
    #[cfg(test)]
    waits: usize,
}

/// A bounded FIFO shared between transports (producers) and the worker
/// pool (consumers).
pub struct Bounded<T> {
    /// Locked with [`lock`], which recovers it after a panic: every change
    /// is one `push_back`, one `pop_front` or one flag store, each of which
    /// leaves the state whole.
    state: Mutex<State<T>>,
    not_empty: Condvar,
    cap: usize,
}

impl<T> Bounded<T> {
    /// A queue admitting at most `cap` items (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        Bounded {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                #[cfg(test)]
                waits: 0,
            }),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admits an item, or refuses with [`PushError::Full`] /
    /// [`PushError::Closed`]. On success returns the queue depth *after*
    /// the push, for the caller's depth gauge.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut s = lock(&self.state);
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        let depth = s.items.len();
        drop(s);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Takes the next item, blocking while the queue is open and empty.
    /// Returns `None` only when the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = lock(&self.state);
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            #[cfg(test)]
            {
                s.waits += 1;
            }
            s = self
                .not_empty
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes admission. Already-queued items remain poppable; blocked
    /// consumers wake up. Idempotent.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.not_empty.notify_all();
    }

    /// Current number of queued items.
    pub fn depth(&self) -> usize {
        lock(&self.state).items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queues_refuse_and_hand_the_item_back() {
        let q = Bounded::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), Ok(2));
    }

    #[test]
    fn closed_queues_drain_but_admit_nothing() {
        let q = Bounded::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err(PushError::Closed("c")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        // close is idempotent.
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(Bounded::<u32>::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the consumer time to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn items_cross_threads_in_fifo_order() {
        let q = Arc::new(Bounded::new(64));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for i in 0..50 {
            loop {
                match q.try_push(i) {
                    Ok(_) => break,
                    Err(PushError::Full(_)) => std::thread::yield_now(),
                    Err(PushError::Closed(_)) => unreachable!(),
                }
            }
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_under_the_queue_lock_poisons_nothing() {
        let q = Arc::new(Bounded::new(2));
        q.try_push(1).unwrap();
        let held = Arc::clone(&q);
        let panicked = std::thread::spawn(move || {
            let _state = held.state.lock();
            panic!("a panic while holding the queue lock");
        })
        .join();
        assert!(panicked.is_err() && q.state.is_poisoned());
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        // Every wait on a poisoned mutex wakes with an error, so a blocked
        // consumer must recover the guard there too. The consumer counts
        // its wait under the lock and releases the lock only inside the
        // wait, so once the count shows, it is parked.
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (q.pop(), q.pop()))
        };
        while lock(&q.state).waits == 0 {
            std::thread::yield_now();
        }
        q.try_push(4).unwrap();
        q.close();
        assert_eq!(consumer.join().unwrap(), (Some(4), None));
        assert_eq!(q.try_push(5), Err(PushError::Closed(5)));
        assert_eq!(q.depth(), 0);
    }
}
