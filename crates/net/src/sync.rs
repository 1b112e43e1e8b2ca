//! The one poison rule for the locks of a process that serves queries.
//!
//! A lock is poisoned when a thread panicked while holding it. The mesh
//! keeps no invariant that such a panic could leave half-made across a
//! guard — a table, a route map, a queue of pending answers — so every
//! lock under `rdfmesh-net`, `rdfmesh-core` and the endpoint recovers the
//! guard and carries on, as the other threads of the node must.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, recovering the guard of a poisoned lock.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Read-locks `m`, recovering the guard of a poisoned lock.
pub fn rlock<T: ?Sized>(m: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    m.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-locks `m`, recovering the guard of a poisoned lock.
pub fn wlock<T: ?Sized>(m: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    m.write().unwrap_or_else(|e| e.into_inner())
}
