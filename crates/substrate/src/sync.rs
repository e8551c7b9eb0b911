//! Synchronization primitives over `std::sync`, with the ergonomics the
//! workspace previously imported `parking_lot` and `crossbeam` for:
//! `lock()` returns its guard directly (a poisoned lock — a panic on another
//! thread — propagates the panic instead of returning a `Result` nobody
//! handles), the channel is crossbeam-style [`bounded`], and a [`mailbox`]
//! is a bounded channel that allocates only what waits in it.

pub use std::sync::mpsc::{
    Receiver, RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A mutual-exclusion lock whose `lock` never returns a poison `Result`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking. A poisoning panic elsewhere propagates
    /// here (fail fast: shared state after a panicked critical section is
    /// not worth trusting).
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().expect("mutex poisoned")
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().expect("mutex poisoned")
    }
}

/// A bounded (rendezvous at capacity 0) MPSC channel.
pub fn bounded<T>(cap: usize) -> (std::sync::mpsc::SyncSender<T>, Receiver<T>) {
    std::sync::mpsc::sync_channel(cap)
}

/// A bounded MPSC channel that allocates only what waits in it: at most
/// `cap` messages queue, and a `try_send` past that fails `Full` like a
/// [`bounded`] channel's (which allocates all `cap` slots up front).
pub fn mailbox<T>(cap: usize) -> (MailboxSender<T>, MailboxReceiver<T>) {
    let ((tx, rx), depth) = (std::sync::mpsc::channel(), Arc::new(AtomicUsize::new(0)));
    (MailboxSender { tx, depth: Arc::clone(&depth), cap }, MailboxReceiver { rx, depth })
}

/// The sending end of a [`mailbox`].
pub struct MailboxSender<T> {
    tx: std::sync::mpsc::Sender<T>,
    depth: Arc<AtomicUsize>,
    cap: usize,
}

impl<T> MailboxSender<T> {
    /// Queues `msg` unless `cap` messages wait already or the receiver is
    /// gone.
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        if self.depth.fetch_add(1, Ordering::AcqRel) >= self.cap {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(TrySendError::Full(msg));
        }
        self.tx.send(msg).map_err(|SendError(msg)| TrySendError::Disconnected(msg))
    }

    /// Queues `msg` even past the bound, for the few words that must not be
    /// lost (kill, restart, shutdown); fails only if the receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        self.depth.fetch_add(1, Ordering::AcqRel);
        self.tx.send(msg)
    }
}

/// The receiving end of a [`mailbox`].
pub struct MailboxReceiver<T> {
    rx: Receiver<T>,
    depth: Arc<AtomicUsize>,
}

impl<T> MailboxReceiver<T> {
    /// [`Receiver::recv_timeout`] (`Duration::MAX` waits for good,
    /// `Duration::ZERO` not at all); a message taken frees its place.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let msg = self.rx.recv_timeout(timeout)?;
        self.depth.fetch_sub(1, Ordering::AcqRel);
        Ok(msg)
    }
}

/// Spawns a named OS thread. The workspace's thread-creation point: real
/// threads (like real clocks) live behind this module so the deterministic
/// crates stay free of them.
///
/// # Panics
///
/// Panics if the OS refuses to spawn a thread.
#[expect(clippy::disallowed_methods, reason = "the workspace's one thread-creation point")]
pub fn spawn<F, T>(name: &str, f: F) -> std::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .expect("spawn thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guards_shared_counts() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let m = Arc::clone(&m);
                spawn(&format!("counter-{i}"), move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn a_mailbox_refuses_past_its_bound_and_frees_a_place_per_message_taken() {
        let (tx, rx) = mailbox(2);
        let take = || rx.recv_timeout(Duration::ZERO).unwrap();
        assert!(tx.try_send(1).is_ok() && tx.try_send(2).is_ok());
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(take(), 1);
        assert!(tx.try_send(3).is_ok());
        tx.send(4).unwrap();
        assert!(matches!(tx.try_send(5), Err(TrySendError::Full(5))));
        assert_eq!([take(), take(), take()], [2, 3, 4]);
        drop(rx);
        assert!(matches!(tx.try_send(5), Err(TrySendError::Disconnected(5))));
    }

    #[test]
    fn bounded_channel_blocks_at_capacity() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        assert!(tx.try_send(2).is_err());
        assert_eq!(rx.recv().unwrap(), 1);
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
    }
}
