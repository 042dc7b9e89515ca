//! The GGT principal-partition recursion against the brute-force
//! ladder: `InstanceSolver::ggt_ladder` (one never-reset flow, D&C on
//! min-cut sides) must reproduce exactly the `(density, level)` ladder
//! that rebuild-per-probe walking produces — on degenerate ladders
//! (single level, tied densities, clique-free instances), on
//! boundary-clique instances, and on random graphs at h ∈ {2, 3, 4}.
//!
//! The walk side runs at `FlowReuse::Scratch`, so every probe is a
//! fresh network and a cold max-flow: the two implementations share no
//! flow state whatsoever, only the instance.

use lhcds_core::compact::{local_instance, InstanceSolver, LocalInstance};
use lhcds_core::{FlowReuse, Ratio};
use lhcds_graph::{CsrGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

fn graph_from_bits(n: usize, bits: &[bool]) -> CsrGraph {
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
}

fn complete(n: u32) -> CsrGraph {
    let mut b = GraphBuilder::new();
    for u in 0..n {
        for v in u + 1..n {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Walks the marginal-density ladder probe-by-probe with a
/// rebuild-per-probe (scratch) solver — the brute-force reference.
fn walk_ladder(inst: &LocalInstance) -> Vec<(Ratio, Vec<bool>)> {
    let mut solver = InstanceSolver::with_reuse(inst.clone(), FlowReuse::Scratch);
    let mut forced = vec![false; inst.n];
    let mut out = Vec::new();
    while let Some((rho, level)) = solver.next_density_level(&forced) {
        for (f, &l) in forced.iter_mut().zip(&level) {
            *f = *f || l;
        }
        out.push((rho, level));
    }
    out
}

/// The positive-density prefix of a ladder (the walk stops before the
/// density-0 fringe; the raw GGT partition includes it as breakpoint-0
/// classes, which `dense_decomposition_opts` drops the same way).
fn positive(ladder: Vec<(Ratio, Vec<bool>)>) -> Vec<(Ratio, Vec<bool>)> {
    ladder
        .into_iter()
        .filter(|(rho, _)| *rho > Ratio::zero())
        .collect()
}

fn check_instance(inst: &LocalInstance) {
    let ggt = positive(InstanceSolver::new(inst.clone()).ggt_ladder());
    let walk = positive(walk_ladder(inst));
    assert_eq!(ggt, walk, "principal partition diverged from the walk");
}

fn check_graph(g: &CsrGraph, h: usize) {
    let cliques = lhcds_clique::CliqueSet::enumerate(g, h);
    let all: Vec<VertexId> = g.vertices().collect();
    let (inst, _) = local_instance(&cliques, &all);
    check_instance(&inst);
    // a strict-subset universe makes straddling cliques boundary
    // cliques, exercising the h·base/|inside| parametric slopes
    if g.n() >= 4 {
        let half: Vec<VertexId> = (0..g.n() as VertexId / 2).collect();
        let (inst, _) = local_instance(&cliques, &half);
        check_instance(&inst);
    }
}

#[test]
fn degenerate_single_level_ladders() {
    // complete graphs: the whole instance is one partition class, so
    // the recursion terminates after the first λ* probe pair
    for n in [3u32, 4, 5, 6] {
        for h in [2usize, 3] {
            check_graph(&complete(n), h);
        }
    }
}

#[test]
fn tied_densities_merge_into_one_level() {
    // two disjoint K4s: two components with *equal* marginal density —
    // one breakpoint, one two-component class; the ε-probe between the
    // tied candidates must not split them
    let mut b = GraphBuilder::new();
    for base in [0u32, 4] {
        for i in 0..4 {
            for j in i + 1..4 {
                b.add_edge(base + i, base + j);
            }
        }
    }
    let g = b.build();
    for h in [2usize, 3, 4] {
        check_graph(&g, h);
    }
}

#[test]
fn clique_free_instances_have_empty_ladders() {
    // a path has no triangle: every class sits at density ≤ 0 and the
    // positive ladder is empty on both sides
    let mut b = GraphBuilder::new();
    for i in 0..5u32 {
        b.add_edge(i, i + 1);
    }
    let g = b.build();
    check_graph(&g, 3);
    check_graph(&g, 4);
}

#[test]
fn close_densities_straddle_the_epsilon_probe() {
    // K5 ⊔ (K5 − e): triangle densities 2 and 7/5 — with K5+pendant
    // tails the ladder gains near-coincident breakpoints whose
    // separating λ-interval is narrow, stressing the ε-probe bound
    let mut b = GraphBuilder::new();
    for base in [0u32, 5] {
        for i in 0..5 {
            for j in i + 1..5 {
                if (base, i, j) != (5, 0, 1) {
                    b.add_edge(base + i, base + j);
                }
            }
        }
    }
    b.add_edge(4, 10).add_edge(9, 11);
    let g = b.build();
    for h in [2usize, 3] {
        check_graph(&g, h);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random graphs, h = 3.
    #[test]
    fn ggt_matches_walk_h3(bits in prop::collection::vec(prop::bool::weighted(0.45), 45)) {
        check_graph(&graph_from_bits(10, &bits), 3);
    }

    /// Random graphs, h = 2 (the classic LDS ladder — many levels).
    #[test]
    fn ggt_matches_walk_h2(bits in prop::collection::vec(prop::bool::weighted(0.35), 45)) {
        check_graph(&graph_from_bits(10, &bits), 2);
    }

    /// Random dense graphs, h = 4.
    #[test]
    fn ggt_matches_walk_h4(bits in prop::collection::vec(prop::bool::weighted(0.55), 45)) {
        check_graph(&graph_from_bits(10, &bits), 4);
    }
}
