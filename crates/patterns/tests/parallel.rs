//! Differential pattern-equivalence harness for the parallel LhxPDS
//! enumerators.
//!
//! The bespoke non-clique enumerators (3-star, 4-path, c3-star, 4-loop,
//! 2-triangle) and `CustomPattern::enumerate_with` shard their outer
//! loops through `par_collect_blocks`; clique-shaped patterns ride the
//! node-parallel kClist collect. Parallel enumeration is only safe to
//! ship if it is **byte-identical** to serial, so this suite pins, for
//! every built-in pattern at 1, 2, 4, and 8 threads:
//!
//! * the parallel `CliqueSet` store reproduces the serial store exactly
//!   — same flat member array, instance ids, and incidence index;
//! * the instance *set* matches a brute-force oracle: the same motif
//!   re-enumerated through the independent `CustomPattern` backtracking
//!   path (ordered search + automorphism-orbit dedup);
//! * `top_k_lhxpds` / `top_k_custom` answers are identical at every
//!   thread count.
//!
//! Graphs: the paper's Figure 2 worked example, complete graphs, sparse
//! degenerate shapes, and proptest-random graphs.

use lhcds_clique::{CliqueSet, Parallelism};
use lhcds_core::pipeline::IppvConfig;
use lhcds_graph::{CsrGraph, GraphBuilder, VertexId};
use lhcds_patterns::{
    enumerate_pattern, enumerate_pattern_with, top_k_custom, top_k_lhxpds, CustomPattern, Pattern,
};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The brute-force oracle: the same motif as an explicit edge list on
/// `0..k`, enumerated through the independent `CustomPattern`
/// backtracking path rather than the bespoke per-pattern enumerator.
fn oracle_for(p: Pattern) -> CustomPattern {
    let (k, edges): (usize, &[(usize, usize)]) = match p {
        Pattern::Edge => (2, &[(0, 1)]),
        Pattern::Triangle => (3, &[(0, 1), (1, 2), (0, 2)]),
        Pattern::Star3 => (4, &[(0, 1), (0, 2), (0, 3)]),
        Pattern::Path4 => (4, &[(0, 1), (1, 2), (2, 3)]),
        Pattern::TailedTriangle => (4, &[(0, 1), (1, 2), (0, 2), (0, 3)]),
        Pattern::Cycle4 => (4, &[(0, 1), (1, 2), (2, 3), (3, 0)]),
        Pattern::Diamond => (4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        Pattern::Clique4 => (4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        Pattern::Clique(h) => {
            let mut es = Vec::new();
            for a in 0..h {
                for b in a + 1..h {
                    es.push((a, b));
                }
            }
            return CustomPattern::new("oracle", h, &es).expect("valid clique oracle");
        }
    };
    CustomPattern::new("oracle", k, edges).expect("valid oracle pattern")
}

/// Instances of a store as a sorted multiset of sorted vertex sets —
/// the representation-independent view both enumeration paths must
/// agree on. A *multiset*, not a set: distinct instances can share one
/// vertex set under different role assignments (a K4 hosts four 3-stars
/// on the same four vertices, one per center choice).
fn instance_multiset(store: &CliqueSet) -> Vec<Vec<VertexId>> {
    let mut all: Vec<Vec<VertexId>> = (0..store.len())
        .map(|i| {
            let mut m = store.members(i).to_vec();
            m.sort_unstable();
            m
        })
        .collect();
    all.sort();
    all
}

/// Byte-identity of two stores: flat members in the same order and the
/// same incidence index.
fn assert_stores_identical(a: &CliqueSet, b: &CliqueSet, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: store length");
    for i in 0..a.len() {
        assert_eq!(a.members(i), b.members(i), "{ctx}: instance {i}");
    }
    assert_eq!(a.n(), b.n(), "{ctx}: vertex count");
    for v in 0..a.n() as VertexId {
        assert_eq!(a.cliques_of(v), b.cliques_of(v), "{ctx}: incidence of {v}");
    }
}

/// The full differential contract for one pattern on one graph.
fn assert_pattern_equivalent(g: &CsrGraph, p: Pattern) {
    let serial = enumerate_pattern(g, p);
    // independent oracle: same motif, different algorithm
    let oracle = instance_multiset(&oracle_for(p).enumerate(g));
    assert_eq!(
        instance_multiset(&serial),
        oracle,
        "{}: serial disagrees with the CustomPattern oracle",
        p.key()
    );
    for t in THREAD_COUNTS {
        let par = Parallelism::threads(t);
        let threaded = enumerate_pattern_with(g, p, &par);
        assert_stores_identical(&serial, &threaded, &format!("{} threads={t}", p.key()));
    }
}

fn complete(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new();
    for u in 0..n as VertexId {
        for v in u + 1..n as VertexId {
            b.add_edge(u, v);
        }
    }
    b.ensure_vertex((n - 1) as VertexId);
    b.build()
}

#[test]
fn figure2_graph_all_builtin_patterns() {
    let g = lhcds_data::figure2_graph();
    for p in Pattern::all_builtin() {
        assert_pattern_equivalent(&g, p);
    }
    // plus the clique-shaped generic spelling at a few arities
    for h in [2usize, 3, 5] {
        assert_pattern_equivalent(&g, Pattern::Clique(h));
    }
}

#[test]
fn complete_graphs_all_builtin_patterns() {
    for n in [4usize, 6, 8] {
        let g = complete(n);
        for p in Pattern::all_builtin() {
            assert_pattern_equivalent(&g, p);
        }
    }
}

#[test]
fn sparse_and_degenerate_graphs() {
    let graphs = [
        // triangle-free cycle: only paths/stars/loops survive
        CsrGraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
        // star: 3-stars but no 4-vertex cycles or triangles
        CsrGraph::from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
        // edgeless and empty graphs
        CsrGraph::from_edges(4, []),
        CsrGraph::from_edges(0, []),
    ];
    for g in &graphs {
        for p in Pattern::all_builtin() {
            assert_pattern_equivalent(g, p);
        }
    }
}

/// A custom motif outside the built-in vocabulary (the 5-cycle) runs
/// the same sharded collect: parallel enumeration must reproduce the
/// serial store bit-for-bit.
#[test]
fn custom_pattern_parallel_matches_serial() {
    let c5 = CustomPattern::new("c5", 5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
    let g = lhcds_data::figure2_graph();
    let serial = c5.enumerate(&g);
    assert!(!serial.is_empty(), "fixture should contain 5-cycles");
    for t in THREAD_COUNTS {
        let par = Parallelism::threads(t);
        let threaded = c5.enumerate_with(&g, &par);
        assert_stores_identical(&serial, &threaded, &format!("c5 threads={t}"));
    }
}

/// End-to-end: the full LhxPDS pipeline gives identical answers at
/// every thread count, for built-in and custom patterns alike.
#[test]
fn pipeline_answers_are_thread_count_invariant() {
    let g = lhcds_data::figure2_graph();
    for p in [Pattern::Cycle4, Pattern::Diamond, Pattern::Star3] {
        let serial = top_k_lhxpds(&g, p, 3, &IppvConfig::default());
        for t in THREAD_COUNTS {
            let cfg = IppvConfig {
                parallelism: Parallelism::threads(t),
                ..IppvConfig::default()
            };
            let threaded = top_k_lhxpds(&g, p, 3, &cfg);
            assert_eq!(
                serial.subgraphs.len(),
                threaded.subgraphs.len(),
                "{} threads={t}",
                p.key()
            );
            for (a, b) in serial.subgraphs.iter().zip(&threaded.subgraphs) {
                assert_eq!(a.vertices, b.vertices, "{} threads={t}", p.key());
                assert_eq!(a.density, b.density, "{} threads={t}", p.key());
                assert_eq!(a.clique_count, b.clique_count, "{} threads={t}", p.key());
            }
        }
    }
    let c5 = CustomPattern::new("c5", 5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
    let serial = top_k_custom(&g, &c5, 2, &IppvConfig::default());
    for t in THREAD_COUNTS {
        let cfg = IppvConfig {
            parallelism: Parallelism::threads(t),
            ..IppvConfig::default()
        };
        let threaded = top_k_custom(&g, &c5, 2, &cfg);
        assert_eq!(serial.subgraphs.len(), threaded.subgraphs.len());
        for (a, b) in serial.subgraphs.iter().zip(&threaded.subgraphs) {
            assert_eq!(a.vertices, b.vertices, "c5 threads={t}");
            assert_eq!(a.density, b.density, "c5 threads={t}");
        }
    }
}

fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (4..=max_n).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        prop::collection::vec(prop::bool::weighted(0.5), pairs).prop_map(move |bits| {
            let mut b = GraphBuilder::new();
            b.ensure_vertex((n - 1) as VertexId);
            let mut idx = 0;
            for u in 0..n as VertexId {
                for v in u + 1..n as VertexId {
                    if bits[idx] {
                        b.add_edge(u, v);
                    }
                    idx += 1;
                }
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs: every built-in pattern, full differential
    /// contract (serial == oracle, parallel == serial) at every thread
    /// count.
    #[test]
    fn random_graphs_are_pattern_equivalent(g in arb_graph(12)) {
        for p in Pattern::all_builtin() {
            assert_pattern_equivalent(&g, p);
        }
    }

    /// Parallel pattern runs are reproducible run-to-run.
    #[test]
    fn parallel_pattern_runs_are_reproducible(g in arb_graph(11)) {
        let par = Parallelism::threads(4);
        for p in [Pattern::Star3, Pattern::Cycle4, Pattern::Diamond] {
            let a = enumerate_pattern_with(&g, p, &par);
            let b = enumerate_pattern_with(&g, p, &par);
            assert_stores_identical(&a, &b, p.name());
        }
    }
}
