//! Synchronization primitives over `std::sync`, with the ergonomics the
//! workspace previously imported `parking_lot` and `crossbeam` for:
//! `lock()` returns its guard directly (a poisoned lock — a panic on another
//! thread — propagates the panic instead of returning a `Result` nobody
//! handles), and the channel is crossbeam-style [`bounded`].

pub use std::sync::mpsc::{Receiver, RecvError, RecvTimeoutError, SendError, TryRecvError};

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
    fn bounded_channel_blocks_at_capacity() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        assert!(tx.try_send(2).is_err());
        assert_eq!(rx.recv().unwrap(), 1);
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
    }
}
