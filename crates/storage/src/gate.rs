//! The engine's one concurrency scheme: one writer or many readers.
//!
//! A transaction holds the exclusive side of the gate from `begin` to
//! `commit`/`abort`/drop; a [`crate::engine::ReadSnapshot`] holds the
//! shared side for its lifetime; checkpoint and vacuum take the side
//! they need. A reader therefore never sees an uncommitted
//! row, and two transactions can never wait for each other, by
//! construction.
//!
//! Arrivals are admitted in ticket order, so a stream of readers cannot
//! starve a writer nor the reverse. A thread that already holds a side
//! never queues behind itself: asking for the shared side again is
//! granted at once, and asking for anything the thread's own holding
//! would block forever is refused ([`Held`], surfacing as
//! [`StorageError::GateHeld`]) instead.
//! (The holder is the thread that *opened* the transaction or snapshot;
//! handles moved to another thread keep their side but lose this check.)

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

use crate::error::StorageError;
use crate::wal::TxnId;

/// The calling thread already holds a side of the gate that the request
/// would wait on forever: the open transaction's id, or `None` for a read
/// snapshot or maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Held(pub(crate) Option<TxnId>);

impl From<Held> for StorageError {
    fn from(h: Held) -> Self {
        StorageError::GateHeld { txn: h.0 }
    }
}

#[derive(Default)]
struct State {
    next_ticket: u64,
    serving: u64,
    /// One entry per shared holding, by opening thread.
    readers: Vec<ThreadId>,
    /// The exclusive holder and its transaction (`None` for a
    /// checkpoint).
    writer: Option<(ThreadId, Option<TxnId>)>,
}

#[derive(Default)]
pub(crate) struct Gate {
    state: Mutex<State>,
    turn: Condvar,
}

impl Gate {
    /// Every update below leaves `State` valid at each step, so a
    /// poisoned mutex (a holder panicked) is recovered, not propagated:
    /// the gate is released from `Drop` impls, which must not panic.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues until `ready`, then applies `enter` and lets the next
    /// ticket try.
    fn admit(&self, ready: impl Fn(&State) -> bool, enter: impl FnOnce(&mut State)) {
        let mut st = self.state();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        while st.serving != ticket || !ready(&st) {
            st = self.turn.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        enter(&mut st);
        st.serving += 1;
        drop(st);
        self.turn.notify_all();
    }

    fn writes_on(st: &State, me: ThreadId) -> Result<(), Held> {
        match st.writer {
            Some((holder, txn)) if holder == me => Err(Held(txn)),
            _ => Ok(()),
        }
    }

    /// Takes the shared side. Returns the opening thread, which
    /// [`Gate::unlock_shared`] wants back.
    pub(crate) fn lock_shared(&self) -> Result<ThreadId, Held> {
        let me = thread::current().id();
        {
            let mut st = self.state();
            Self::writes_on(&st, me)?;
            if st.readers.contains(&me) {
                st.readers.push(me);
                return Ok(me);
            }
        }
        self.admit(|st| st.writer.is_none(), |st| st.readers.push(me));
        Ok(me)
    }

    pub(crate) fn unlock_shared(&self, opener: ThreadId) {
        let mut st = self.state();
        let at = st.readers.iter().position(|&t| t == opener);
        debug_assert!(at.is_some(), "shared side not held by this opener");
        if let Some(at) = at {
            st.readers.swap_remove(at);
        }
        drop(st);
        self.turn.notify_all();
    }

    /// Takes the exclusive side on behalf of `txn` (`None` = maintenance).
    pub(crate) fn lock_exclusive(&self, txn: Option<TxnId>) -> Result<(), Held> {
        let me = thread::current().id();
        {
            let st = self.state();
            Self::writes_on(&st, me)?;
            if st.readers.contains(&me) {
                return Err(Held(None));
            }
        }
        self.admit(
            |st| st.writer.is_none() && st.readers.is_empty(),
            |st| st.writer = Some((me, txn)),
        );
        Ok(())
    }

    /// The exclusive side for the length of a checkpoint: released on
    /// every way out, a panic included.
    pub(crate) fn maintenance(&self) -> Result<Maintenance<'_>, Held> {
        self.lock_exclusive(None)?;
        Ok(Maintenance(self))
    }

    pub(crate) fn unlock_exclusive(&self) {
        let mut st = self.state();
        debug_assert!(st.writer.is_some(), "exclusive side not held");
        st.writer = None;
        drop(st);
        self.turn.notify_all();
    }
}

pub(crate) struct Maintenance<'a>(&'a Gate);

impl Drop for Maintenance<'_> {
    fn drop(&mut self) {
        self.0.unlock_exclusive();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    /// Spawns a thread that takes the exclusive side, reports, and keeps
    /// it until told to let go.
    fn queued_writer(gate: &Arc<Gate>) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let gate = Arc::clone(gate);
        thread::spawn(move || {
            gate.lock_exclusive(Some(7)).unwrap();
            entered_tx.send(()).unwrap();
            release_rx.recv().ok();
            gate.unlock_exclusive();
        });
        (entered, release)
    }

    fn wait_until_queued(gate: &Gate, tickets: u64) {
        while gate.state().next_ticket < tickets {
            thread::yield_now();
        }
    }

    #[test]
    fn a_reader_reenters_past_a_queued_writer() {
        let gate = Arc::new(Gate::default());
        let me = gate.lock_shared().unwrap();
        let (entered, release) = queued_writer(&gate);
        wait_until_queued(&gate, 2);
        // Queuing behind the writer would wait on this thread's own
        // first holding forever.
        assert_eq!(gate.lock_shared(), Ok(me));
        assert_eq!(gate.maintenance().err(), Some(Held(None)));
        assert!(entered.recv_timeout(Duration::from_millis(50)).is_err());
        gate.unlock_shared(me);
        gate.unlock_shared(me);
        entered.recv_timeout(Duration::from_secs(10)).unwrap();
        release.send(()).unwrap();
    }

    #[test]
    fn arrivals_are_admitted_in_order() {
        let gate = Arc::new(Gate::default());
        let me = gate.lock_shared().unwrap();
        let (entered, release) = queued_writer(&gate);
        wait_until_queued(&gate, 2);
        // A reader that arrives after the queued writer waits its turn,
        // although the shared side is open right now.
        let (read_tx, read) = mpsc::channel();
        let g = Arc::clone(&gate);
        thread::spawn(move || {
            let opener = g.lock_shared().unwrap();
            read_tx.send(()).unwrap();
            g.unlock_shared(opener);
        });
        wait_until_queued(&gate, 3);
        assert!(read.recv_timeout(Duration::from_millis(50)).is_err());
        gate.unlock_shared(me);
        entered.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(read.recv_timeout(Duration::from_millis(50)).is_err());
        release.send(()).unwrap();
        read.recv_timeout(Duration::from_secs(10)).unwrap();
    }
}
