//! Simulated persistent storage: per-namespace durable key→bytes stores
//! with a modeled write/fsync/read latency.
//!
//! The fabric's registered memory (`rdma_sim`) is *volatile*: a power
//! loss wipes it. This module is the durable counterpart — a [`Storage`]
//! device survives any crash the simulation can inject, because it lives
//! outside every node's registered memory and is never wiped. Protocol
//! layers use it for checkpoints and write-ahead logs; the latency model
//! makes recovery time a measurable figure instead of a free action.
//!
//! # Latency model
//!
//! Writes charge a per-KiB transfer cost plus one fsync per durable
//! operation ([`DiskConfig::fsync_ns`]); reads charge a per-KiB cost only.
//! Costs are charged to the *calling process* via [`crate::sleep_ns`], so
//! durability slows the caller exactly as a real synchronous disk would.
//! Outside process context (setup and verification code on the host
//! thread) operations are free — they model offline inspection, not I/O
//! on the virtual timeline.
//!
//! Determinism: a `Storage` is a plain deterministic map. Iteration orders
//! are sorted, latencies are pure functions of byte counts, and disabled
//! deployments never construct one — so a configuration without durable
//! storage executes a bit-identical schedule.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Latency model of one simulated storage device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskConfig {
    /// Transfer cost per KiB written.
    pub write_ns_per_kib: u64,
    /// Flush cost charged once per durable operation (`put`/`append`/
    /// `delete`).
    pub fsync_ns: u64,
    /// Transfer cost per KiB read.
    pub read_ns_per_kib: u64,
}

impl DiskConfig {
    /// A datacenter NVMe-class device: ~4 GiB/s writes, ~8 GiB/s reads,
    /// 10 µs flushes.
    pub fn nvme() -> Self {
        DiskConfig {
            write_ns_per_kib: 250,
            fsync_ns: 10_000,
            read_ns_per_kib: 120,
        }
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig::nvme()
    }
}

/// I/O counters of one namespace, for tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Total bytes written (`put` full values, `append` appended suffixes).
    pub bytes_written: u64,
    /// Total bytes read by `get`.
    pub bytes_read: u64,
    /// Number of durable operations (each paid one fsync).
    pub syncs: u64,
}

#[derive(Default)]
struct Namespace {
    files: BTreeMap<String, Vec<u8>>,
    stats: DiskStats,
}

#[derive(Default)]
struct StorageInner {
    namespaces: RefCell<BTreeMap<String, Namespace>>,
    /// In-flight charged operations, for the profiler's `disk.busy` gauge.
    busy: Cell<u64>,
    /// The `disk.busy` gauge, registered once per device on the first
    /// profiled charge (charges are per-append, too hot for a per-call
    /// name lookup). A `Storage` carried across simulations keeps the
    /// first simulation's gauge; only that run's profile sees the device.
    gauge: OnceCell<crate::prof::Gauge>,
}

/// A simulated durable storage device, shared by every node of a
/// deployment. Cloning shares the device; [`Storage::disk`] carves out a
/// per-node namespace. Like the simulation that charges its I/O, it lives
/// on one thread.
#[derive(Clone, Default)]
pub struct Storage {
    cfg: DiskConfig,
    inner: Rc<StorageInner>,
}

impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.inner.namespaces.borrow();
        f.debug_struct("Storage")
            .field("cfg", &self.cfg)
            .field("namespaces", &ns.len())
            .finish()
    }
}

impl Storage {
    /// A storage device with the given latency model.
    pub fn new(cfg: DiskConfig) -> Self {
        Storage {
            cfg,
            inner: Rc::default(),
        }
    }

    /// The device's latency model.
    pub fn config(&self) -> DiskConfig {
        self.cfg
    }

    /// A handle to the namespace `name` (created on first use).
    pub fn disk(&self, name: impl Into<String>) -> Disk {
        Disk {
            storage: self.clone(),
            ns: name.into(),
        }
    }

    /// All namespaces that have been written to, sorted.
    pub fn namespaces(&self) -> Vec<String> {
        self.inner.namespaces.borrow().keys().cloned().collect()
    }

    fn charge(&self, nanos: u64) {
        if nanos == 0 {
            return;
        }
        if let Some(t0) = crate::try_now() {
            // Attribute the wait to the disk, not to a generic sleep, and
            // drive the device-occupancy gauge across the charged interval.
            let _scope = crate::prof::blocked_scope("disk");
            let gauge = if crate::prof::enabled() {
                self.inner
                    .gauge
                    .get_or_init(|| crate::prof::gauge("disk.busy"))
                    .clone()
            } else {
                crate::prof::Gauge::disabled()
            };
            let busy = &self.inner.busy;
            if gauge.is_enabled() {
                busy.set(busy.get() + 1);
                gauge.set_at(t0.as_nanos(), busy.get());
            }
            crate::sleep_ns(nanos);
            if gauge.is_enabled() {
                busy.set(busy.get() - 1);
                gauge.set_at(t0.as_nanos() + nanos, busy.get());
            }
        }
    }

    fn write_cost(&self, bytes: usize) -> u64 {
        self.cfg.fsync_ns + (bytes as u64 * self.cfg.write_ns_per_kib) / 1024
    }

    fn read_cost(&self, bytes: usize) -> u64 {
        (bytes as u64 * self.cfg.read_ns_per_kib) / 1024
    }
}

/// One namespace of a [`Storage`] device — a node's private durable
/// directory.
#[derive(Clone)]
pub struct Disk {
    storage: Storage,
    ns: String,
}

impl fmt::Debug for Disk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Disk").field("ns", &self.ns).finish()
    }
}

impl Disk {
    /// The namespace this handle addresses.
    pub fn namespace(&self) -> &str {
        &self.ns
    }

    /// Durably replaces `name` with `bytes`: charges one fsync plus the
    /// transfer cost of the whole value.
    pub fn put(&self, name: &str, bytes: &[u8]) {
        let cost = {
            let mut all = self.storage.inner.namespaces.borrow_mut();
            let ns = all.entry(self.ns.clone()).or_default();
            ns.files.insert(name.to_string(), bytes.to_vec());
            ns.stats.bytes_written += bytes.len() as u64;
            ns.stats.syncs += 1;
            self.storage.write_cost(bytes.len())
        };
        self.storage.charge(cost);
    }

    /// Durably appends `bytes` to `name` (created empty if absent):
    /// charges one fsync plus the transfer cost of the suffix only.
    pub fn append(&self, name: &str, bytes: &[u8]) {
        let cost = {
            let mut all = self.storage.inner.namespaces.borrow_mut();
            let ns = all.entry(self.ns.clone()).or_default();
            ns.files
                .entry(name.to_string())
                .or_default()
                .extend_from_slice(bytes);
            ns.stats.bytes_written += bytes.len() as u64;
            ns.stats.syncs += 1;
            self.storage.write_cost(bytes.len())
        };
        self.storage.charge(cost);
    }

    /// Durably replaces the first `prefix_len` bytes of `name` with
    /// `bytes`, preserving any suffix — the log-compaction primitive.
    ///
    /// A compactor that reads a log, filters it, and `put`s the result
    /// back would lose records appended while its charged read slept:
    /// `put` installs the *stale* snapshot wholesale. `replace_prefix`
    /// splices at call time instead — the suffix appended since the
    /// snapshot survives — and then charges one fsync plus the transfer
    /// cost of the replacement prefix.
    ///
    /// # Panics
    ///
    /// Panics if `name` is shorter than `prefix_len`: the caller claims to
    /// have seen bytes that were never written, which is a logic bug, not
    /// a simulated fault (files never shrink behind a reader — the only
    /// other writers are appends and this method, which both preserve the
    /// suffix).
    pub fn replace_prefix(&self, name: &str, prefix_len: usize, bytes: &[u8]) {
        let cost = {
            let mut all = self.storage.inner.namespaces.borrow_mut();
            let ns = all.entry(self.ns.clone()).or_default();
            let file = ns.files.entry(name.to_string()).or_default();
            assert!(
                file.len() >= prefix_len,
                "replace_prefix past the end of {name}: {} < {prefix_len}",
                file.len()
            );
            let mut new = Vec::with_capacity(bytes.len() + file.len() - prefix_len);
            new.extend_from_slice(bytes);
            new.extend_from_slice(&file[prefix_len..]);
            *file = new;
            ns.stats.bytes_written += bytes.len() as u64;
            ns.stats.syncs += 1;
            self.storage.write_cost(bytes.len())
        };
        self.storage.charge(cost);
    }

    /// Reads `name`, charging the transfer cost of the value.
    pub fn get(&self, name: &str) -> Option<Vec<u8>> {
        let (value, cost) = {
            let mut all = self.storage.inner.namespaces.borrow_mut();
            let ns = all.entry(self.ns.clone()).or_default();
            match ns.files.get(name) {
                Some(v) => {
                    ns.stats.bytes_read += v.len() as u64;
                    let cost = self.storage.read_cost(v.len());
                    (Some(v.clone()), cost)
                }
                None => (None, 0),
            }
        };
        self.storage.charge(cost);
        value
    }

    /// The stored length of `name`, without charging a read.
    pub fn len(&self, name: &str) -> Option<usize> {
        let all = self.storage.inner.namespaces.borrow();
        all.get(&self.ns)
            .and_then(|ns| ns.files.get(name))
            .map(Vec::len)
    }

    /// Whether the namespace holds no files.
    pub fn is_empty(&self) -> bool {
        let all = self.storage.inner.namespaces.borrow();
        all.get(&self.ns)
            .map(|ns| ns.files.is_empty())
            .unwrap_or(true)
    }

    /// All file names in this namespace, sorted.
    pub fn names(&self) -> Vec<String> {
        let all = self.storage.inner.namespaces.borrow();
        all.get(&self.ns)
            .map(|ns| ns.files.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// This namespace's I/O counters.
    pub fn stats(&self) -> DiskStats {
        let all = self.storage.inner.namespaces.borrow();
        all.get(&self.ns).map(|ns| ns.stats).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn values_survive_and_round_trip() {
        let storage = Storage::new(DiskConfig::nvme());
        let disk = storage.disk("n0");
        disk.put("ckpt", b"hello");
        disk.append("wal", b"ab");
        disk.append("wal", b"cd");
        assert_eq!(disk.get("ckpt").unwrap(), b"hello");
        assert_eq!(disk.get("wal").unwrap(), b"abcd");
        assert_eq!(disk.names(), vec!["ckpt".to_string(), "wal".to_string()]);
        assert_eq!(disk.len("wal"), Some(4));
    }

    #[test]
    fn namespaces_are_disjoint() {
        let storage = Storage::default();
        storage.disk("a").put("f", b"1");
        storage.disk("b").put("f", b"2");
        assert_eq!(storage.disk("a").get("f").unwrap(), b"1");
        assert_eq!(storage.disk("b").get("f").unwrap(), b"2");
        assert_eq!(storage.namespaces(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn latency_is_charged_inside_a_process() {
        let cfg = DiskConfig {
            write_ns_per_kib: 1024, // 1 ns per byte
            fsync_ns: 100,
            read_ns_per_kib: 2048, // 2 ns per byte
        };
        let storage = Storage::new(cfg);
        let disk = storage.disk("n0");
        let elapsed = Arc::new(AtomicU64::new(0));
        let e = Arc::clone(&elapsed);
        let sim = Simulation::new(1);
        sim.spawn("writer", move || {
            let t0 = crate::now().as_nanos();
            disk.put("f", &[0u8; 512]); // 100 fsync + 512 write
            let t1 = crate::now().as_nanos();
            assert_eq!(t1 - t0, 612);
            let _ = disk.get("f").unwrap(); // 1024 read
            let t2 = crate::now().as_nanos();
            assert_eq!(t2 - t1, 1024);
            disk.append("f", &[0u8; 100]); // 100 fsync + 100 write
            let t3 = crate::now().as_nanos();
            assert_eq!(t3 - t2, 200);
            e.store(t3, Ordering::SeqCst);
        });
        sim.run().unwrap();
        assert_eq!(elapsed.load(Ordering::SeqCst), 1836);
    }

    #[test]
    fn replace_prefix_preserves_concurrent_suffix() {
        let storage = Storage::default();
        let disk = storage.disk("n0");
        disk.append("wal", b"aaaabbbb");
        // A compactor snapshotted the 8-byte file; an append races in
        // before it writes back.
        disk.append("wal", b"cccc");
        disk.replace_prefix("wal", 8, b"BB");
        assert_eq!(disk.get("wal").unwrap(), b"BBcccc");
        // Degenerate cases: empty replacement (pure truncation of the
        // snapshot) and whole-file replacement with no racing suffix.
        disk.replace_prefix("wal", 6, b"");
        assert_eq!(disk.get("wal").unwrap(), b"");
        disk.replace_prefix("wal", 0, b"xy");
        assert_eq!(disk.get("wal").unwrap(), b"xy");
    }

    #[test]
    #[should_panic(expected = "replace_prefix past the end")]
    fn replace_prefix_past_end_is_a_logic_bug() {
        let storage = Storage::default();
        storage.disk("n0").replace_prefix("wal", 1, b"");
    }

    #[test]
    fn host_thread_operations_are_free_and_counted() {
        let storage = Storage::default();
        let disk = storage.disk("n0");
        disk.put("f", &[0u8; 64]);
        let _ = disk.get("f");
        let stats = disk.stats();
        assert_eq!(stats.bytes_written, 64);
        assert_eq!(stats.bytes_read, 64);
        assert_eq!(stats.syncs, 1);
    }
}
