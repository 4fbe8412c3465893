//! The assembled telemetry instance: metrics registry + journal + the
//! diagnostics gate, plus the process-global singleton every crate in
//! the stack shares.
//!
//! The global instance is initialized lazily; if the `DBTUNE_TRACE`
//! environment variable names a path at first use, the journal starts
//! there immediately (drivers can also call
//! [`Telemetry::enable_journal`] for the `trace=` flag).

use crate::journal::{Journal, TraceEvent};
use crate::metrics::Registry;
use crate::span::SpanGuard;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Environment variable that enables the global journal at startup.
pub const TRACE_ENV: &str = "DBTUNE_TRACE";

/// One telemetry instance. Tests construct private ones; production code
/// goes through [`global`].
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Named counters and gauges.
    pub metrics: Registry,
    /// Optional JSONL event sink.
    pub journal: Journal,
    /// Optimizer-quality diagnostics gate (`diag` journal events). Off by
    /// default; separate from the journal switch so perf traces stay
    /// byte-identical whether or not diagnostics are requested.
    diag: AtomicBool,
}

impl Telemetry {
    /// A fresh instance with a disabled journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span; its guard closes it (see [`crate::span::SpanGuard`]).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard::open(name, &self.journal)
    }

    /// Starts the JSONL journal at `path` (see [`Journal::enable`]).
    pub fn enable_journal(&self, path: &Path, source: &str) -> std::io::Result<()> {
        self.journal.enable(path, source)
    }

    /// Whether optimizer-quality diagnostics (`diag` journal events and
    /// the extra surrogate predictions that feed them) are requested.
    /// The check is one relaxed atomic load, mirroring the journal gate.
    pub fn diag_enabled(&self) -> bool {
        self.diag.load(Ordering::Relaxed)
    }

    /// Turns optimizer-quality diagnostics on (drivers' `diag=on` flag).
    /// Diagnostics only *observe* — the determinism contract above holds
    /// with the gate in either position.
    pub fn enable_diag(&self) {
        self.diag.store(true, Ordering::Relaxed);
    }

    /// Latches memory-allocation accounting on (drivers' `mem=on` flag).
    /// Unlike `diag`, the latch is necessarily process-global — the
    /// counting allocator cannot reach a `Telemetry` instance — so this
    /// is a thin alias for [`crate::memprof::enable`], kept here so
    /// drivers flip every observability gate through one type.
    pub fn enable_memprof(&self) {
        crate::memprof::enable();
    }

    /// Whether the memory-accounting latch has been flipped.
    pub fn memprof_enabled(&self) -> bool {
        crate::memprof::enabled()
    }

    /// Writes one `counter`/`gauge` event per registry instrument to the
    /// journal (no-op when disabled), then flushes. Drivers call this
    /// right before saving their JSON artifact.
    pub fn flush_metrics(&self) {
        if !self.journal.is_enabled() {
            return;
        }
        let snap = self.metrics.snapshot();
        for (name, value) in snap.counters {
            self.journal.emit(TraceEvent::Counter { name, value, seq: 0 });
        }
        for (name, value) in snap.gauges {
            self.journal.emit(TraceEvent::Gauge { name, value, seq: 0 });
        }
        self.journal.flush();
    }
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-global telemetry instance. On first use, starts the
/// journal if `DBTUNE_TRACE` names a writable path (a warning goes to
/// stderr when it does not — telemetry must never take a run down).
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(|| {
        let t = Telemetry::new();
        if let Ok(path) = std::env::var(TRACE_ENV) {
            if !path.is_empty() {
                if let Err(e) = t.enable_journal(Path::new(&path), "env") {
                    eprintln!("[telemetry] cannot open {TRACE_ENV}={path}: {e}");
                }
            }
        }
        t
    })
}

/// Opens a span on the global instance — the one-liner hot paths use:
/// `let _s = dbtune_obs::span("surrogate_fit");`.
pub fn span(name: &'static str) -> SpanGuard<'static> {
    global().span(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_metrics_land_in_the_report() {
        // The journal is an instance's one report: its span closes and
        // its metric flush land there, and nothing else keeps them.
        let dir = std::env::temp_dir().join("dbtune_obs_report_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("report.jsonl");
        let t = Telemetry::new();
        t.enable_journal(&path, "test").expect("enable");
        {
            let _a = t.span("unit_a");
            let _b = t.span("unit_b");
        }
        t.metrics.counter("unit.count").add(3);
        t.metrics.gauge("unit.depth").set(2);
        t.flush_metrics();
        t.journal.disable();
        let text = std::fs::read_to_string(&path).expect("read journal");
        let rows: Vec<String> = text
            .lines()
            .skip(1)
            .map(|l| match TraceEvent::parse_line(l).expect("valid line") {
                TraceEvent::Span { name, .. } => format!("span {name}"),
                TraceEvent::Counter { name, value, .. } => format!("counter {name}={value}"),
                TraceEvent::Gauge { name, value, .. } => format!("gauge {name}={value}"),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            rows,
            ["span unit_b", "span unit_a", "counter unit.count=3", "gauge unit.depth=2"]
        );
    }

    #[test]
    fn flush_metrics_writes_one_event_per_instrument() {
        let dir = std::env::temp_dir().join("dbtune_obs_flush_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("flush.jsonl");
        let t = Telemetry::new();
        t.metrics.counter("c1").inc();
        t.metrics.gauge("g1").set(4);
        t.flush_metrics(); // disabled: no-op
        t.enable_journal(&path, "test").expect("enable");
        t.flush_metrics();
        t.journal.disable();
        let text = std::fs::read_to_string(&path).expect("read journal");
        let kinds: Vec<String> = text
            .lines()
            .map(|l| TraceEvent::parse_line(l).expect("valid line").kind().to_string())
            .collect();
        assert_eq!(kinds, vec!["meta", "counter", "gauge"]);
    }

    #[test]
    fn diag_gate_defaults_off_and_latches_on() {
        let t = Telemetry::new();
        assert!(!t.diag_enabled(), "diagnostics must be opt-in");
        t.enable_diag();
        assert!(t.diag_enabled());
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global() as *const Telemetry;
        let b = global() as *const Telemetry;
        assert_eq!(a, b);
    }
}
