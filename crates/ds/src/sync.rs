//! Poison-tolerant lock accessors: the workspace's uniform lock-poisoning
//! policy, stated once.
//!
//! Every `Mutex` in the workspace guards state inside a
//! `hep-par` scope (or a test-only override), and `hep-par` already
//! propagates worker panics to the caller at scope join. A poisoned lock
//! can therefore only be observed *after* a panic that is already on its
//! way up — recovering the inner guard neither hides the failure nor
//! changes any non-panicking run. These helpers encode that policy
//! without `unwrap`/`expect`, so the panic-policy lints
//! (`clippy::{unwrap_used, expect_used}`) hold structurally: the only
//! panics left in library code are `#[expect]`ed, documented invariants.

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the guard if a panicking thread poisoned it.
#[inline]
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `Mutex::get_mut`, recovering from poison.
#[inline]
pub fn get_mut<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(|e| e.into_inner())
}

/// `Mutex::into_inner`, recovering from poison.
#[inline]
pub fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_helpers_work_on_healthy_locks() {
        let m = Mutex::new(3);
        *lock(&m) += 1;
        assert_eq!(into_inner(m), 4);
        let mut m = Mutex::new(1);
        *get_mut(&mut m) = 2;
        assert_eq!(into_inner(m), 2);
    }

    #[test]
    fn poisoned_locks_recover() {
        let m = std::sync::Arc::new(Mutex::new(10));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 10, "the inner value is still reachable");
    }
}
