//! The traced pass's instruments: timing wrappers around the public
//! trait seams the program already accepts, plus a counting global
//! allocator. Nothing here is installed in the untraced pass except the
//! allocator, whose counting is off there (one relaxed load per
//! allocation).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dpack_net::{NetError, Replicator, Transport};
use dpack_service::wal::WalStorage;
use dpack_service::{ReplShipError, ReplStream, ReplicationSink};

use crate::measure::ns_since;

/// Counts heap allocations while [`count_allocations`] is on. The
/// counters are statistics that publish no other data, so `Relaxed`.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off (process-wide: every thread's
/// allocations count while it is on, the cycle's scoped workers
/// included).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Time and work through one [`WalStorage`] tree.
#[derive(Debug, Default)]
pub struct StorageTally {
    pub nanos: AtomicU64,
    pub appends: AtomicU64,
    pub bytes: AtomicU64,
}

impl StorageTally {
    /// `(nanos, appends, bytes)` so far.
    pub fn read(&self) -> (u64, u64, u64) {
        (
            self.nanos.load(Ordering::Relaxed),
            self.appends.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// A [`WalStorage`] that times every call into the storage it wraps.
/// Sub-namespaces share the tally, so one tally covers a service's
/// shard and coordinator logs.
pub struct TimedStorage {
    inner: Box<dyn WalStorage>,
    tally: Arc<StorageTally>,
}

impl TimedStorage {
    pub fn new(inner: Box<dyn WalStorage>, tally: Arc<StorageTally>) -> Self {
        Self { inner, tally }
    }

    fn timed<R>(&self, f: impl FnOnce(&dyn WalStorage) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_ref());
        self.tally.nanos.fetch_add(ns_since(t0), Ordering::Relaxed);
        r
    }

    fn timed_append(
        &self,
        data: &[u8],
        f: impl FnOnce(&dyn WalStorage) -> io::Result<()>,
    ) -> io::Result<()> {
        self.tally.appends.fetch_add(1, Ordering::Relaxed);
        self.tally
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.timed(f)
    }
}

impl WalStorage for TimedStorage {
    fn sub(&self, name: &str) -> io::Result<Box<dyn WalStorage>> {
        let inner = self.timed(|s| s.sub(name))?;
        Ok(Box::new(Self::new(inner, Arc::clone(&self.tally))))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.timed(|s| s.list())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.timed(|s| s.read(name))
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.timed(|s| s.read_range(name, offset, len))
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.timed_append(data, |s| s.append(name, data))
    }

    fn append_nosync(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.timed_append(data, |s| s.append_nosync(name, data))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.timed(|s| s.truncate(name, len))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.timed(|s| s.remove(name))
    }

    fn clone_handle(&self) -> Box<dyn WalStorage> {
        Box::new(Self::new(
            self.inner.clone_handle(),
            Arc::clone(&self.tally),
        ))
    }
}

/// Payload bytes through one client [`Transport`], both directions.
#[derive(Debug, Default)]
pub struct NetTally {
    pub bytes: AtomicU64,
}

/// A [`Transport`] that counts the payload bytes it carries.
pub struct CountedTransport<T> {
    inner: T,
    tally: Arc<NetTally>,
}

impl<T> CountedTransport<T> {
    pub fn new(inner: T, tally: Arc<NetTally>) -> Self {
        Self { inner, tally }
    }
}

impl<T: Transport> Transport for CountedTransport<T> {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.tally
            .bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.inner.send_frame(payload)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        let payload = self.inner.recv_frame()?;
        self.tally
            .bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        Ok(payload)
    }

    fn set_read_timeout(&mut self, timeout: Option<std::time::Duration>) -> Result<(), NetError> {
        self.inner.set_read_timeout(timeout)
    }
}

/// Every ship through a [`TimedSink`]: per-call nanos and record bytes.
#[derive(Debug, Default)]
pub struct ShipTally {
    pub calls: Mutex<Vec<u64>>,
    pub nanos: AtomicU64,
    pub bytes: AtomicU64,
}

/// A [`ReplicationSink`] that times each ship through the replicator.
#[derive(Debug)]
pub struct TimedSink {
    inner: Arc<Replicator>,
    tally: Arc<ShipTally>,
}

impl TimedSink {
    pub fn new(inner: Arc<Replicator>, tally: Arc<ShipTally>) -> Self {
        Self { inner, tally }
    }
}

impl ReplicationSink for TimedSink {
    fn ship(&self, stream: ReplStream, records: &[&[u8]]) -> Result<(), ReplShipError> {
        let t0 = Instant::now();
        let r = self.inner.ship(stream, records);
        let ns = ns_since(t0);
        let bytes: usize = records.iter().map(|r| r.len()).sum();
        self.tally.nanos.fetch_add(ns, Ordering::Relaxed);
        self.tally.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.tally
            .calls
            .lock()
            .expect("ship tally lock poisoned")
            .push(ns);
        r
    }
}
