//! M1 corpus: telemetry name hygiene. Names become journal keys,
//! baseline-diff whitelist entries, and diag session labels, so the
//! literal passed at the registration site must be lowercase dotted
//! snake (`[a-z0-9_.]+`).

fn emit(tele: &Telemetry) {
    tele.metrics.counter("exec.cells").inc();
    tele.metrics.counter("Exec.Cells").inc(); // expect: M1 — uppercase segments
    let _s = span("suggest phase"); // expect: M1 — embedded space
    let _g = tele.metrics.gauge("legacy-latency"); // lint: allow(M1) legacy dashboard key kept until the v2 rename
    drop(_g);
}
