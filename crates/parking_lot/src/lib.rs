//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! member wraps `std::sync` primitives behind the `parking_lot` API shape
//! used by CarlOS-rs: `lock()` returns a guard directly (no poisoning —
//! a poisoned std lock is transparently recovered, matching `parking_lot`
//! semantics where panicking while holding a lock does not poison it).

use std::sync::PoisonError;

/// A mutual-exclusion lock with `parking_lot`'s non-poisoning API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a lock owning `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            lock: &self.inner,
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Tries to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            lock: &self.inner,
            inner: Some(inner),
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard for [`Mutex`].
///
/// The inner `Option` exists so [`MutexGuard::unlocked`] can temporarily
/// give the std guard up; it is always `Some` outside that window.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    /// The lock this guard came from, for re-locking in `unlocked`.
    lock: &'a std::sync::Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> MutexGuard<'_, T> {
    /// Temporarily unlocks the mutex to execute `f`, and locks it again
    /// before returning — also when `f` unwinds.
    ///
    /// An associated function, as in `parking_lot`: call it as
    /// `MutexGuard::unlocked(&mut guard, f)`. The `&mut` borrow guarantees
    /// nothing borrowed from the protected data is alive across the call.
    pub fn unlocked<F, U>(s: &mut Self, f: F) -> U
    where
        F: FnOnce() -> U,
    {
        struct Relock<'g, 'a, T: ?Sized>(&'g mut MutexGuard<'a, T>);
        impl<T: ?Sized> Drop for Relock<'_, '_, T> {
            fn drop(&mut self) {
                self.0.inner = Some(self.0.lock.lock().unwrap_or_else(PoisonError::into_inner));
            }
        }
        drop(s.inner.take());
        let _relock = Relock(s);
        f()
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn unlocked_frees_the_lock_inside_and_holds_it_after() {
        let m = Mutex::new(1);
        let mut g = m.lock();
        let inside = MutexGuard::unlocked(&mut g, || {
            // Free inside the closure: another lock() succeeds and may write.
            let mut other = m.try_lock().expect("lock is free inside unlocked()");
            *other += 1;
            *other
        });
        assert_eq!(inside, 2);
        // Held again afterwards, and the guard sees the write.
        assert!(m.try_lock().is_none());
        assert_eq!(*g, 2);
        *g += 1;
        drop(g);
        assert_eq!(*m.lock(), 3);
    }

    #[test]
    fn unlocked_relocks_when_the_closure_unwinds() {
        let m = Mutex::new(0);
        let mut g = m.lock();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MutexGuard::unlocked(&mut g, || {
                assert!(m.try_lock().is_some());
                std::panic::resume_unwind(Box::new("boom"));
            })
        }));
        assert!(r.is_err());
        assert!(m.try_lock().is_none(), "guard must hold the lock again");
        *g = 7;
        drop(g);
        assert_eq!(*m.lock(), 7);
    }
}
