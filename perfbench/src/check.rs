//! The correctness gate: every timed answer and every served response
//! is checked, and each check is one attempted operation.
//!
//! * The reference answer comes from the basic verifier (Alg. 4,
//!   `fast_verify: false`) on the `Scratch` flow tier — the slowest,
//!   simplest path — computed once per run, untimed. Every timed answer
//!   must equal it exactly: vertex sets, `Ratio` densities, clique
//!   counts and order.
//! * The reference itself must satisfy invariants recomputed here, from
//!   outside the pipeline: answers are disjoint and connected, each
//!   density equals its clique count over |S| counted from the
//!   `CliqueSet`, and densities are non-increasing.

use std::collections::VecDeque;

use lhcds::clique::CliqueSet;
use lhcds::core::pipeline::{top_k_lhcds, IppvConfig};
use lhcds::core::{FlowReuse, Lhcds, Ratio};
use lhcds::graph::CsrGraph;

/// Attempted and failed operation counts, with the first few failures
/// kept for the report.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Gate {
    /// Records one checked operation.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Checks one timed answer against the reference.
    pub fn answer(&mut self, label: &str, got: &[Lhcds], reference: &[Lhcds]) {
        self.record(got == reference, || {
            format!("{label}: answer differs from the basic-verifier reference")
        });
    }

    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// The reference configuration: basic verifier, scratch flow networks.
pub fn reference_config() -> IppvConfig {
    IppvConfig {
        fast_verify: false,
        flow_reuse: FlowReuse::Scratch,
        ..IppvConfig::default()
    }
}

/// Computes the reference answer and checks its invariants into `gate`.
pub fn reference(g: &CsrGraph, h: usize, k: usize, gate: &mut Gate) -> Vec<Lhcds> {
    let answer = top_k_lhcds(g, h, k, &reference_config()).subgraphs;
    let cliques = CliqueSet::enumerate(g, h);
    let broken = invariant_violation(g, &cliques, &answer);
    gate.record(broken.is_none(), || {
        format!("reference: {}", broken.clone().unwrap_or_default())
    });
    answer
}

/// The first invariant `answer` breaks, if any.
pub fn invariant_violation(g: &CsrGraph, cliques: &CliqueSet, answer: &[Lhcds]) -> Option<String> {
    let mut owner = vec![usize::MAX; g.n()];
    for (i, s) in answer.iter().enumerate() {
        if s.vertices.is_empty() {
            return Some(format!("subgraph {i} is empty"));
        }
        for &v in &s.vertices {
            let Some(slot) = owner.get_mut(v as usize) else {
                return Some(format!("vertex {v} is not a vertex of the graph"));
            };
            if *slot != usize::MAX {
                return Some(format!("vertex {v} is in subgraphs {} and {i}", *slot));
            }
            *slot = i;
        }
        if !connected(g, &s.vertices, &owner, i) {
            return Some(format!("subgraph {i} is not connected"));
        }
        let inside: Vec<bool> = owner.iter().map(|&o| o == i).collect();
        let count = cliques.cliques_inside(&inside);
        if count != s.clique_count {
            return Some(format!(
                "subgraph {i} holds {count} cliques, reported {}",
                s.clique_count
            ));
        }
        if Ratio::new(count as i128, s.vertices.len() as i128) != s.density {
            return Some(format!(
                "subgraph {i} density {} is not {count}/{}",
                s.density,
                s.vertices.len()
            ));
        }
        if i > 0 && answer[i - 1].density < s.density {
            return Some(format!("densities increase at subgraph {i}"));
        }
    }
    None
}

/// Whether `verts` (all owned by `id`) induce a connected subgraph.
fn connected(g: &CsrGraph, verts: &[u32], owner: &[usize], id: usize) -> bool {
    let mut seen = vec![false; g.n()];
    let mut queue = VecDeque::from([verts[0]]);
    seen[verts[0] as usize] = true;
    let mut reached = 1;
    while let Some(u) = queue.pop_front() {
        for &w in g.neighbors(u) {
            if owner[w as usize] == id && !seen[w as usize] {
                seen[w as usize] = true;
                reached += 1;
                queue.push_back(w);
            }
        }
    }
    reached == verts.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhcds::data::figure2_graph;

    fn checked_reference() -> (CsrGraph, Vec<Lhcds>) {
        let g = figure2_graph();
        let mut gate = Gate::default();
        let reference = reference(&g, 3, 3, &mut gate);
        assert_eq!((gate.attempted, gate.failed), (1, 0), "{:?}", gate.notes);
        (g, reference)
    }

    #[test]
    fn exact_answer_passes() {
        let (g, reference) = checked_reference();
        let mut gate = Gate::default();
        let fast = top_k_lhcds(&g, 3, 3, &IppvConfig::default()).subgraphs;
        gate.answer("fast", &fast, &reference);
        assert_eq!((gate.attempted, gate.failed), (1, 0));
    }

    #[test]
    fn corrupted_answers_count_as_failed() {
        let (g, reference) = checked_reference();
        let cliques = CliqueSet::enumerate(&g, 3);
        let corruptions: [fn(&mut Vec<Lhcds>); 4] = [
            |a| {
                a[0].vertices.pop();
            },
            |a| a[0].density = Ratio::new(a[0].density.num() + 1, a[0].density.den()),
            |a| a.swap(0, 1),
            |a| {
                let v = a[1].vertices[0];
                a[0].vertices.push(v);
                a[0].vertices.sort_unstable();
            },
        ];
        for (i, corrupt) in corruptions.iter().enumerate() {
            let mut bad = reference.clone();
            corrupt(&mut bad);
            let mut gate = Gate::default();
            gate.answer("corrupt", &bad, &reference);
            assert_eq!((gate.attempted, gate.failed), (1, 1), "corruption {i}");
            assert!(
                invariant_violation(&g, &cliques, &bad).is_some(),
                "corruption {i} breaks an invariant"
            );
        }
    }
}
