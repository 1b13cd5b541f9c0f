//! Minimal synchronization primitives over `std::sync`.
//!
//! The repository builds with no external crates, so this module provides
//! the small slice of the `parking_lot` API the codebase uses: `lock()` /
//! `read()` / `write()` return guards directly instead of a `Result`.
//! Poisoning is deliberately ignored — a panicked task already re-panics on
//! the caller thread via the worker pool, and metrics/cache state stays
//! consistent because every critical section is a handful of field updates.

use std::sync::PoisonError;

use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutex whose `lock` never returns a `Result` (poison-transparent).
#[derive(Default, Debug)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose guards are poison-transparent.
#[derive(Default, Debug)]
pub(crate) struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap a value.
    pub(crate) fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquire a shared read guard.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write guard.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Condition variable paired with [`Mutex`]; `wait` consumes and returns the
/// guard (std style).
#[derive(Default, Debug)]
pub(crate) struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A fresh condition variable.
    pub(crate) fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Block until notified, releasing the lock while waiting.
    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake every waiting thread.
    pub(crate) fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn lock_survives_poisoning() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        // A poisoned std mutex would refuse to lock; the shim recovers.
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut done = lock.lock();
            while !*done {
                done = cv.wait(done);
            }
        });
        *pair.0.lock() = true;
        pair.1.notify_all();
        h.join().expect("waiter exits");
    }
}
