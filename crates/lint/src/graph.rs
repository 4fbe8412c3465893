//! Name-resolved intra-workspace call graph over the symbols extracted
//! by [`crate::symbols`], plus the BFS reachability used by the
//! determinism taint pass (rule family R).
//!
//! Resolution is by bare function name: a call site `beta(…)` (or
//! `obj.beta(…)`, `path::beta(…)`) links to *every* workspace function
//! named `beta`. That over-approximates method dispatch, which is the
//! right bias for a taint pass (a missed edge hides a violation; an
//! extra edge at worst asks for a pragma). Passes that need precision —
//! the C2 lock-order propagation — filter to uniquely-resolved names
//! themselves.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::symbols::{FileSymbols, FnItem};

/// A function node in the workspace call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Workspace-relative path of the defining file (forward slashes).
    pub path: String,
    /// The extracted function item.
    pub item: FnItem,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All function nodes, in (path, definition line) order.
    pub nodes: Vec<FnNode>,
    /// name → indices of nodes with that name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Adjacency: caller node → sorted, deduped callee node indices.
    edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from per-file symbols. `files` must be sorted by
    /// path (the walker's order) so node indices are deterministic.
    pub fn build(files: &[(String, FileSymbols)]) -> Self {
        let mut g = CallGraph::default();
        for (path, syms) in files {
            for item in &syms.fns {
                g.by_name.entry(item.name.clone()).or_default().push(g.nodes.len());
                g.nodes.push(FnNode { path: path.clone(), item: item.clone() });
            }
        }
        g.edges = g
            .nodes
            .iter()
            .map(|node| {
                let mut callees: Vec<usize> = node
                    .item
                    .calls
                    .iter()
                    .filter_map(|c| g.by_name.get(&c.callee))
                    .flatten()
                    .copied()
                    .collect();
                callees.sort_unstable();
                callees.dedup();
                callees
            })
            .collect();
        g
    }

    /// Node indices whose function has the given bare name.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The unique node with this name, when exactly one exists. Passes
    /// that must not hallucinate edges (C2 cross-function lock order)
    /// resolve through this.
    pub fn uniquely_named(&self, name: &str) -> Option<usize> {
        match self.named(name) {
            [one] => Some(*one),
            _ => None,
        }
    }

    /// Callee node indices of `node`.
    pub fn callees(&self, node: usize) -> &[usize] {
        &self.edges[node]
    }

    /// BFS from `roots` (deduped, in order) following call edges.
    /// Returns, for every reached node, the predecessor it was first
    /// reached through (`None` for roots). Iteration order is
    /// deterministic because roots and adjacency lists are sorted.
    pub fn reach(&self, roots: &[usize]) -> BTreeMap<usize, Option<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if let Entry::Vacant(slot) = parent.entry(r) {
                slot.insert(None);
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &c in self.callees(n) {
                if let Entry::Vacant(slot) = parent.entry(c) {
                    slot.insert(Some(n));
                    queue.push_back(c);
                }
            }
        }
        parent
    }

    /// The call chain `root → … → node` implied by a `reach` parent map,
    /// rendered as `alpha -> beta -> gamma` for finding messages.
    pub fn chain(&self, parents: &BTreeMap<usize, Option<usize>>, node: usize) -> String {
        let mut rev = vec![node];
        let mut cur = node;
        while let Some(Some(p)) = parents.get(&cur) {
            cur = *p;
            rev.push(cur);
            if rev.len() > 64 {
                break; // defensive: parent maps from `reach` are acyclic
            }
        }
        rev.iter().rev().map(|&i| self.nodes[i].item.name.as_str()).collect::<Vec<_>>().join(" -> ")
    }

    /// Transitive closure of lock names acquired by `node` or anything
    /// it calls through *uniquely-resolved* edges. Used by the C2 pass
    /// to see locks taken behind a call while another lock is held.
    pub fn transitive_locks(&self, node: usize) -> BTreeSet<String> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue = VecDeque::from([node]);
        let mut locks = BTreeSet::new();
        while let Some(n) = queue.pop_front() {
            if !seen.insert(n) {
                continue;
            }
            locks.extend(self.nodes[n].item.locks.iter().cloned());
            for call in &self.nodes[n].item.calls {
                if let Some(c) = self.uniquely_named(&call.callee) {
                    if !seen.contains(&c) {
                        queue.push_back(c);
                    }
                }
            }
        }
        locks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::extract;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let files: Vec<(String, FileSymbols)> =
            files.iter().map(|(p, src)| (p.to_string(), extract(src))).collect();
        CallGraph::build(&files)
    }

    #[test]
    fn resolves_calls_across_files() {
        let g = graph_of(&[
            ("a.rs", "pub fn alpha() { beta(); }\n"),
            ("b.rs", "pub fn beta() { gamma(); }\npub fn gamma() {}\n"),
        ]);
        assert_eq!(g.nodes.len(), 3);
        let alpha = g.named("alpha")[0];
        let beta = g.named("beta")[0];
        let gamma = g.named("gamma")[0];
        assert_eq!(g.callees(alpha), &[beta]);
        assert_eq!(g.callees(beta), &[gamma]);
    }

    #[test]
    fn reach_records_first_parents_and_chains() {
        let g = graph_of(&[
            ("a.rs", "pub fn alpha() { beta(); }\npub fn beta() { gamma(); }\npub fn gamma() {}\npub fn island() {}\n"),
        ]);
        let alpha = g.named("alpha")[0];
        let gamma = g.named("gamma")[0];
        let island = g.named("island")[0];
        let parents = g.reach(&[alpha]);
        assert!(parents.contains_key(&gamma));
        assert!(!parents.contains_key(&island));
        assert_eq!(g.chain(&parents, gamma), "alpha -> beta -> gamma");
    }

    #[test]
    fn ambiguous_names_fan_out_but_are_not_unique() {
        let g = graph_of(&[
            ("a.rs", "pub fn run() { helper(); }\npub fn helper() {}\n"),
            ("b.rs", "pub fn helper() {}\n"),
        ]);
        let run = g.named("run")[0];
        assert_eq!(g.callees(run).len(), 2, "calls link to every helper");
        assert!(g.uniquely_named("helper").is_none());
        assert!(g.uniquely_named("run").is_some());
    }

    #[test]
    fn transitive_locks_follow_unique_edges_only() {
        let g = graph_of(&[(
            "a.rs",
            "pub fn outer(s: &S) { inner(s); }\npub fn inner(s: &S) { let g = s.idx.lock().expect(\"i\"); drop(g); }\n",
        )]);
        let outer = g.named("outer")[0];
        let locks = g.transitive_locks(outer);
        assert!(locks.contains("s.idx"), "{locks:?}");
    }
}
