//! Fixture: emitters for the S family. Names present in the docs tables
//! are clean; `app.rogue` and the `loose` span are schema drift.

// expect: no findings — every name is documented.
pub fn serve(t: &Telemetry) {
    let _s = span("boot");
    t.metrics.counter("app.requests").inc();
    t.metrics.gauge("app.queue_depth").set(3);
}

// expect: S1 — an undocumented counter.
pub fn rogue(t: &Telemetry) {
    t.metrics.counter("app.rogue").inc();
}

// expect: S1 — an undocumented span.
pub fn stray() {
    let _s = span("loose");
}
