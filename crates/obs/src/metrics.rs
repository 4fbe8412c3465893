//! A registry of named counters and gauges.
//!
//! Instruments are cheap cloneable handles over shared atomics, so hot
//! paths grab a handle once and update it lock-free; the registry only
//! takes a lock on handle creation and on snapshot. Names are dotted
//! paths (`exec.cache.hits`) listed in docs/observability.md.
//!
//! The registry that matters is the process-global one inside
//! [`crate::Telemetry`]: the drivers snapshot it into their
//! `"telemetry"` JSON block and flush it to the journal. A [`Counter`]
//! or [`Gauge`] can also stand alone, outside any registry (the
//! evaluation cache counts its hits and misses that way, per cache).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, zeroed counter (not attached to any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (e.g. queue depth).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh, zeroed gauge (not attached to any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Records `v` only if it exceeds the current value.
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Named instruments; see the module docs.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created zeroed on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().expect("registry lock").get(name) {
            return c.clone();
        }
        let mut w = self.counters.write().expect("registry lock");
        w.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created zeroed on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().expect("registry lock").get(name) {
            return g.clone();
        }
        let mut w = self.gauges.write().expect("registry lock");
        w.entry(name.to_string()).or_default().clone()
    }

    /// All instruments at one instant, each list sorted by name (BTreeMap
    /// order — the stable ordering reports and journal flushes rely on).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
        }
    }
}

/// Point-in-time view of a [`Registry`], sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, i64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_by_name() {
        let r = Registry::new();
        let a = r.counter("exec.cells");
        let b = r.counter("exec.cells");
        a.inc();
        b.add(4);
        assert_eq!(r.counter("exec.cells").get(), 5);
        assert_eq!(r.counter("other").get(), 0);
    }

    #[test]
    fn gauges_overwrite_and_track_max() {
        let r = Registry::new();
        let g = r.gauge("exec.queue.depth");
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        g.set_max(10);
        g.set_max(2);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b.count").inc();
        r.counter("a.count").add(2);
        r.gauge("depth").set(-3);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a.count".to_string(), 2), ("b.count".to_string(), 1)]);
        assert_eq!(snap.gauges, vec![("depth".to_string(), -3)]);
    }

    #[test]
    fn counters_are_thread_safe() {
        let r = Arc::new(Registry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    let c = r.counter("hot");
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(r.counter("hot").get(), 4000);
    }
}
