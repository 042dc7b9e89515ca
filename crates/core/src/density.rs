//! Exact h-clique dense decomposition and compact numbers.
//!
//! The paper's §5.1 connects LhCDS discovery to the *diminishingly
//! dense decomposition* of supermodular functions: the vertex set
//! splits into nested levels of strictly decreasing density, and by
//! Theorem 2 the level value of a vertex is exactly its h-clique
//! compact number `φh` (the optimum `r*` of `CP(G, h)`).
//!
//! This module computes the decomposition **exactly** with max-flow:
//! the first level is the union of all maximal `ρ*`-compact subgraphs
//! at the maximum subgraph density `ρ*`; each subsequent level
//! maximizes the *marginal* density over supersets of the union of the
//! higher levels (the classic principal-partition construction, solved
//! by [`crate::compact::InstanceSolver::next_density_level`] with the
//! higher levels pinned to the source side of the cut).
//!
//! Exact compact numbers are a strictly stronger deliverable than the
//! bounds the IPPV pipeline maintains — they answer "how locally dense
//! is *this* vertex" for every vertex at once — and they provide
//! independent golden values for the pipeline's tests (every LhCDS
//! member's compact number equals the subgraph density, Theorem 1).

use crate::compact::{local_instance, InstanceSolver};
use lhcds_clique::CliqueSet;
use lhcds_flow::{FlowReuse, Ratio};
use lhcds_graph::{CsrGraph, VertexId};

/// One level of the dense decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DensityLevel {
    /// The level value: the common h-clique compact number of the
    /// level's vertices.
    pub density: Ratio,
    /// Level members (ascending vertex ids).
    pub vertices: Vec<VertexId>,
}

/// The full dense decomposition of a graph.
#[derive(Debug, Clone)]
pub struct DenseDecomposition {
    /// Levels in strictly decreasing density order. Vertices in no
    /// h-clique are omitted (their compact number is 0).
    pub levels: Vec<DensityLevel>,
    /// Exact compact number `φh(v)` per vertex (0 for vertices in no
    /// h-clique).
    pub phi: Vec<Ratio>,
}

/// Computes the exact dense decomposition (and thereby all h-clique
/// compact numbers) of `g`.
pub fn dense_decomposition(g: &CsrGraph, h: usize) -> DenseDecomposition {
    assert!(h >= 2, "h-clique decomposition requires h >= 2");
    let cliques = CliqueSet::enumerate(g, h);
    dense_decomposition_opts(g, &cliques, FlowReuse::default())
}

/// [`dense_decomposition`] over a pre-built clique store, with the
/// flow-network reuse tier explicit. Under [`FlowReuse::Ggt`] (the
/// default) the whole ladder is one GGT principal-partition
/// divide-and-conquer on a single never-reset network
/// ([`InstanceSolver::ggt_ladder`]); under
/// [`FlowReuse::Scratch`] the marginal-density probe schedule is walked
/// with a network rebuilt per probe (the reference cost model; the
/// `flowreuse` bench A/Bs both). Output is bit-identical across tiers.
pub fn dense_decomposition_opts(
    g: &CsrGraph,
    cliques: &CliqueSet,
    flow_reuse: FlowReuse,
) -> DenseDecomposition {
    dense_decomposition_threaded(g, cliques, flow_reuse, 1)
}

/// [`dense_decomposition_opts`] with an explicit worker-thread count
/// for the GGT divide-and-conquer (ignored by the scratch probe walk,
/// which is inherently sequential — each probe's threshold depends on
/// the previous cut). Output is byte-identical at every thread count.
pub fn dense_decomposition_threaded(
    g: &CsrGraph,
    cliques: &CliqueSet,
    flow_reuse: FlowReuse,
    threads: usize,
) -> DenseDecomposition {
    let n = g.n();
    let mut phi = vec![Ratio::zero(); n];
    let mut levels = Vec::new();
    if cliques.is_empty() {
        return DenseDecomposition { levels, phi };
    }
    let all: Vec<VertexId> = g.vertices().collect();
    let (inst, map) = local_instance(cliques, &all);
    let mut solver = InstanceSolver::with_reuse(inst, flow_reuse);
    solver.set_threads(threads);

    if flow_reuse == FlowReuse::Ggt {
        // One divide-and-conquer recovers every level; the classes come
        // back in strictly descending breakpoint order, exactly like
        // the probe walk emits them.
        for (density, level_mask) in solver.ggt_ladder() {
            if density <= Ratio::zero() {
                continue; // vertices in no clique: φ stays 0
            }
            let mut vertices = Vec::new();
            for (local, &m) in level_mask.iter().enumerate() {
                if m {
                    let v = map[local];
                    phi[v as usize] = density;
                    vertices.push(v);
                }
            }
            vertices.sort_unstable();
            levels.push(DensityLevel { density, vertices });
        }
        return DenseDecomposition { levels, phi };
    }

    let mut forced = vec![false; solver.instance().n];
    let mut last: Option<Ratio> = None;
    while let Some((density, level_mask)) = solver.next_density_level(&forced) {
        if let Some(prev) = last {
            debug_assert!(density < prev, "levels must strictly decrease");
        }
        last = Some(density);
        if density <= Ratio::zero() {
            break;
        }
        let mut vertices = Vec::new();
        for (local, &m) in level_mask.iter().enumerate() {
            if m {
                forced[local] = true;
                let v = map[local];
                phi[v as usize] = density;
                vertices.push(v);
            }
        }
        vertices.sort_unstable();
        levels.push(DensityLevel { density, vertices });
    }
    DenseDecomposition { levels, phi }
}

/// Exact h-clique compact numbers for every vertex (`φh`, Definition 4).
pub fn compact_numbers(g: &CsrGraph, h: usize) -> Vec<Ratio> {
    dense_decomposition(g, h).phi
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhcds_graph::GraphBuilder;

    fn complete_on(b: &mut GraphBuilder, vs: &[u32]) {
        for i in 0..vs.len() {
            for j in i + 1..vs.len() {
                b.add_edge(vs[i], vs[j]);
            }
        }
    }

    #[test]
    fn k5_compact_numbers_match_figure4() {
        // Figure 4: every K5 vertex has φ3 = 2.
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        let g = b.build();
        let phi = compact_numbers(&g, 3);
        assert!(phi.iter().all(|&p| p == Ratio::from_int(2)));
    }

    #[test]
    fn separated_regions_form_levels() {
        // K5 (φ = 2), disjoint K4 (φ = 1), pendant path (φ = 0)
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        b.add_edge(8, 9).add_edge(9, 10);
        let g = b.build();
        let d = dense_decomposition(&g, 3);
        assert_eq!(d.levels.len(), 2);
        assert_eq!(d.levels[0].density, Ratio::from_int(2));
        assert_eq!(d.levels[0].vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(d.levels[1].density, Ratio::from_int(1));
        assert_eq!(d.levels[1].vertices, vec![5, 6, 7, 8]);
        assert_eq!(d.phi[9], Ratio::zero());
        assert_eq!(d.phi[10], Ratio::zero());
    }

    #[test]
    fn tied_regions_share_one_level() {
        // two disjoint K4s at φ = 1: one level with both
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3]);
        complete_on(&mut b, &[4, 5, 6, 7]);
        let g = b.build();
        let d = dense_decomposition(&g, 3);
        assert_eq!(d.levels.len(), 1);
        assert_eq!(d.levels[0].vertices.len(), 8);
        assert_eq!(d.levels[0].density, Ratio::from_int(1));
    }

    #[test]
    fn levels_strictly_decrease_and_cover_clique_vertices() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4, 5]);
        complete_on(&mut b, &[6, 7, 8, 9]);
        b.add_edge(5, 6);
        b.add_edge(9, 10).add_edge(10, 11).add_edge(11, 9);
        let g = b.build();
        let d = dense_decomposition(&g, 3);
        for w in d.levels.windows(2) {
            assert!(w[0].density > w[1].density);
        }
        let covered: usize = d.levels.iter().map(|l| l.vertices.len()).sum();
        let with_cliques = lhcds_clique::count_per_vertex(&g, 3)
            .iter()
            .filter(|&&c| c > 0)
            .count();
        assert_eq!(covered, with_cliques);
    }

    #[test]
    fn lhcds_members_have_phi_equal_density() {
        // Theorem 1 cross-check against the pipeline.
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        b.add_edge(9, 10);
        let g = b.build();
        let phi = compact_numbers(&g, 3);
        let res = crate::pipeline::top_k_lhcds(
            &g,
            3,
            usize::MAX,
            &crate::pipeline::IppvConfig::default(),
        );
        for s in &res.subgraphs {
            for &v in &s.vertices {
                assert_eq!(phi[v as usize], s.density, "vertex {v}");
            }
        }
    }

    #[test]
    fn h2_decomposition_on_star() {
        // star K1,4 at h = 2: the whole star has edge density 4/5 and
        // every subgraph is sparser; φ2 = 4/5 for all 5 vertices.
        let g = CsrGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let d = dense_decomposition(&g, 2);
        assert_eq!(d.levels.len(), 1);
        assert_eq!(d.levels[0].density, Ratio::new(4, 5));
        assert_eq!(d.levels[0].vertices.len(), 5);
    }

    #[test]
    fn ladder_shares_one_network_and_matches_scratch() {
        // K5, K4, triangle at distinct levels: a multi-level ladder.
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        b.add_edge(9, 10).add_edge(10, 11).add_edge(11, 9);
        let g = b.build();
        let cliques = CliqueSet::enumerate(&g, 3);
        let scratch = dense_decomposition_opts(&g, &cliques, FlowReuse::Scratch);
        assert_eq!(scratch.levels.len(), 3);
        let d = dense_decomposition_opts(&g, &cliques, FlowReuse::Ggt);
        assert_eq!(d.levels, scratch.levels, "ggt tier diverged");
        assert_eq!(d.phi, scratch.phi, "ggt tier diverged");
        // (the one-network-per-ladder counter contract lives in
        // tests/flow_reuse.rs, whose process owns the global counters)
    }

    #[test]
    fn threaded_ggt_ladder_is_byte_identical() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        b.add_edge(9, 10).add_edge(10, 11).add_edge(11, 9);
        let g = b.build();
        let cliques = CliqueSet::enumerate(&g, 3);
        let serial = dense_decomposition_opts(&g, &cliques, FlowReuse::Ggt);
        for threads in [2usize, 4, 8] {
            let d = dense_decomposition_threaded(&g, &cliques, FlowReuse::Ggt, threads);
            assert_eq!(d.levels, serial.levels, "{threads} threads diverged");
            assert_eq!(d.phi, serial.phi, "{threads} threads diverged");
        }
    }

    #[test]
    fn clique_free_graph_has_empty_decomposition() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let d = dense_decomposition(&g, 3);
        assert!(d.levels.is_empty());
        assert!(d.phi.iter().all(|&p| p == Ratio::zero()));
    }
}
