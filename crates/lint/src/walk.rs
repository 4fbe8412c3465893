//! Workspace traversal and orchestration: collects the `.rs` files under
//! `crates/*/src` and `src/`, scans them **in parallel** (the per-file
//! phase is read → clean → line rules → symbol extraction, all
//! independent), then runs the serial workspace passes (call graph,
//! R/C/S families) and resolves pragma suppressions per file.
//!
//! Parallelism never touches the output: files are chunked by index,
//! each chunk's results land back in their original slots, and every
//! later stage iterates in path-sorted order — the report is
//! byte-identical at any worker count, the same contract the tuner
//! itself is held to.

use crate::graph::CallGraph;
use crate::passes;
use crate::pragma::Pragma;
use crate::report::{Finding, Report};
use crate::rules;
use crate::symbols::{self, FileSymbols};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Collects every `.rs` file the analyzer covers, as workspace-relative
/// paths with forward slashes, sorted.
pub fn collect_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files: Vec<String> = Vec::new();

    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(root, &src, &mut files)?;
            }
        }
    }
    let top_src = root.join("src");
    if top_src.is_dir() {
        collect_rs(root, &top_src, &mut files)?;
    }

    files.sort();
    Ok(files)
}

/// Recursively gathers `.rs` files under `dir` into `out`.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Result of the per-file (parallel) phase for one file.
struct FileScan {
    rel: String,
    findings: Vec<Finding>,
    pragmas: Vec<Pragma>,
    syms: FileSymbols,
}

/// Runs the per-file phase over `files`, fanned out across threads.
/// Results come back in input order regardless of scheduling.
fn scan_files(root: &Path, files: &[String]) -> io::Result<Vec<FileScan>> {
    let scan_one = |rel: &String| -> io::Result<FileScan> {
        let source = fs::read_to_string(root.join(rel))?;
        let (findings, pragmas) = rules::scan_file_raw(rel, rules::classify(rel), &source);
        let syms = symbols::extract(&source);
        Ok(FileScan { rel: rel.clone(), findings, pragmas, syms })
    };

    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8);
    if workers <= 1 || files.len() < 2 {
        return files.iter().map(scan_one).collect();
    }

    // Contiguous chunks, one thread each; chunk results are concatenated
    // back in chunk order, so the output order equals the input order.
    let chunk = files.len().div_ceil(workers);
    let results: Vec<io::Result<Vec<FileScan>>> = std::thread::scope(|s| {
        let handles: Vec<_> = files
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(scan_one).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(io::Error::other("lint scan worker panicked")),
            })
            .collect()
    });

    let mut out = Vec::with_capacity(files.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// Scans the whole workspace rooted at `root`: parallel line rules and
/// symbol extraction per file, then the graph-level R/C/S passes, then
/// per-file pragma resolution over the merged findings.
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    // Wall time is telemetry about the lint run itself (reported as
    // `wall_ms`); it never influences findings or gating.
    let started = Instant::now(); // lint: allow(D2) scan wall time is report telemetry, not results

    let files = collect_files(root)?;
    let scans = scan_files(root, &files)?;

    let file_syms: Vec<(String, FileSymbols)> =
        scans.iter().map(|s| (s.rel.clone(), s.syms.clone())).collect();
    let graph = CallGraph::build(&file_syms);
    let extra = passes::run(root, &graph, &file_syms);

    // Merge graph-level findings into their files, then resolve pragmas
    // per file. Findings attributed to unscanned paths (docs rows, a
    // policy table outside the scan set) pass through unsuppressed.
    let mut by_path: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in extra {
        by_path.entry(f.path.clone()).or_default().push(f);
    }

    let mut report = Report {
        root: root.display().to_string(),
        files_scanned: files.len(),
        ..Default::default()
    };
    for scan in scans {
        let mut raw = scan.findings;
        if let Some(more) = by_path.remove(&scan.rel) {
            raw.extend(more);
        }
        let (findings, pragmas) = rules::resolve_suppressions(&scan.rel, raw, scan.pragmas);
        report.findings.extend(findings);
        report.pragmas.extend(pragmas);
    }
    for (_, rest) in by_path {
        report.findings.extend(rest);
    }

    report.findings.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report.pragmas.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    report.wall_ms = started.elapsed().as_millis() as u64;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_own_crate_sources_sorted() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = collect_files(&root).expect("workspace must be readable");
        assert!(files.iter().any(|f| f == "crates/lint/src/walk.rs"), "{files:?}");
        assert!(files.iter().any(|f| f == "src/lib.rs"));
        // vendor/, target/, lint_fixtures/ and tests/ are out of scope.
        assert!(files.iter().all(|f| !f.starts_with("vendor/")));
        assert!(files.iter().all(|f| !f.contains("lint_fixtures")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "file order must be deterministic");
    }

    #[test]
    fn parallel_scan_output_is_order_independent() {
        // The same workspace scanned through the chunked path and the
        // serial path must produce identical reports (minus wall time).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = collect_files(&root).expect("workspace must be readable");
        let par = scan_files(&root, &files).expect("parallel scan");
        let ser: Vec<FileScan> = files
            .iter()
            .map(|rel| {
                let source = fs::read_to_string(root.join(rel)).expect("read");
                let (findings, pragmas) = rules::scan_file_raw(rel, rules::classify(rel), &source);
                FileScan { rel: rel.clone(), findings, pragmas, syms: symbols::extract(&source) }
            })
            .collect();
        assert_eq!(par.len(), ser.len());
        for (a, b) in par.iter().zip(&ser) {
            assert_eq!(a.rel, b.rel);
            assert_eq!(a.findings, b.findings);
            assert_eq!(a.pragmas.len(), b.pragmas.len());
            assert_eq!(a.syms.fns.len(), b.syms.fns.len());
        }
    }
}
