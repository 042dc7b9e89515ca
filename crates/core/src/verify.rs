//! LhCDS verification (§4.4): basic (Algorithm 4) and fast (Algorithm 5).
//!
//! **Precondition** shared by both verifiers: the candidate `S` is
//! connected and h-clique `ρ`-compact for `ρ = d_ψh(G[S])` (equivalently
//! self-densest — callers establish this with the local densest
//! decomposition). What remains to check is *maximality*: no h-clique
//! `ρ`-compact supergraph of `S` exists in `G` (Definition 2, condition
//! 2).
//!
//! * [`BasicVerifier`] builds the Figure 6 flow network over the whole
//!   graph: `DeriveCompact(G, ρ − 1/|V|², ∅)` returns the union of all
//!   maximal `ρ`-compact subgraphs (Theorem 5); `S` is an LhCDS iff it
//!   is one of its connected components.
//! * [`verify_fast`] (Algorithm 5) restricts the network to the
//!   neighborhood `T` that could possibly host a `ρ`-compact supergraph:
//!   every vertex of a `ρ`-compact subgraph has compact number `≥ ρ`, so
//!   a BFS from `S` across vertices with upper bound `φ̄(w) ≥ ρ`
//!   provably covers the maximal `ρ`-compact supergraph of `S`. Three
//!   outcomes avoid the flow entirely:
//!   - **early reject**: a vertex adjacent to `S` has lower bound
//!     `φ̲(w) > ρ` — its own compact region merges with `S` into a
//!     larger `ρ`-compact subgraph (the union of two `ρ`-compact
//!     subgraphs joined by an edge is `ρ`-compact), so `S` is not
//!     maximal;
//!   - **early reject**: a vertex adjacent to `S` belongs to an
//!     already-verified LhCDS (its pinned compact number is `≥ ρ` for
//!     the same reason — outputs are emitted densest-first);
//!   - **shortcut accept**: the BFS never leaves `S` — no adjacent
//!     vertex can reach compact number `ρ`, so no supergraph exists.
//!
//!   Otherwise `DeriveCompact(G[T], ρ − 1/|T|², P)` decides exactly, on
//!   a flow network built over `G[T]` alone. An early reject still runs
//!   this flow, so the caller gets the blocking superset.
//!   With this `T` the paper's boundary-clique set `P` is provably
//!   empty under its own validity rule (a straddling clique would have
//!   a member with `φ̄ < ρ`, which can belong to no `ρ`-compact
//!   subgraph), so the network is the plain Figure 6 gadget over the
//!   cliques inside `T`.

use crate::bounds::Bounds;
use crate::compact::{local_instance, InstanceSolver};
use lhcds_clique::CliqueSet;
use lhcds_flow::{FlowReuse, Ratio};
use lhcds_graph::traversal::components_within;
use lhcds_graph::{CsrGraph, VertexId};

/// Outcome of a verification call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// `S` is a locally h-clique densest subgraph.
    Lhcds,
    /// `S` is not maximal: the given strictly-larger vertex set is the
    /// connected component of the union of maximal `ρ`-compact
    /// subgraphs that contains `S` (parent vertex ids, sorted).
    Superset(Vec<VertexId>),
}

/// Counters describing how a fast verification was decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastVerifyInfo {
    /// BFS closure size `|T|`.
    pub t_size: usize,
    /// Whether the flow network was built and solved.
    pub used_flow: bool,
    /// Whether the shortcut accept fired (`T == S`).
    pub shortcut_accept: bool,
    /// Whether an early bound-based reject fired.
    pub early_reject: bool,
}

/// The basic verifier (Algorithm 4) with its whole-graph flow network
/// retained across calls.
///
/// Every verification solves the full Figure 6 network over *all* of
/// `G` — identical arcs every time, only the threshold ρ differs
/// between candidates. `BasicVerifier` builds the [`InstanceSolver`]
/// once and re-tunes it per call; the IPPV driver holds one instance
/// for its whole run when configured with the basic verifier (the
/// dominant cost of the flow-only baselines).
#[derive(Debug)]
pub struct BasicVerifier {
    solver: InstanceSolver,
    /// local → parent mapping of the whole-graph instance.
    map: Vec<VertexId>,
}

impl BasicVerifier {
    /// Builds the whole-graph instance once at the given [`FlowReuse`]
    /// tier ([`FlowReuse::Scratch`] restores the rebuild-per-call cost
    /// model for the bench A/B; results identical across tiers).
    pub fn new(g: &CsrGraph, cliques: &CliqueSet, reuse: FlowReuse) -> BasicVerifier {
        let all: Vec<VertexId> = g.vertices().collect();
        let (inst, map) = local_instance(cliques, &all);
        BasicVerifier {
            solver: InstanceSolver::with_reuse(inst, reuse),
            map,
        }
    }

    /// Basic verification (Algorithm 4): full-graph `DeriveCompact`.
    /// `s_sorted` must be sorted ascending. Returns `Lhcds` or
    /// `Superset(X)`.
    pub fn verify(&mut self, g: &CsrGraph, s_sorted: &[VertexId], rho: Ratio) -> Verdict {
        debug_assert!(s_sorted.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(
            self.map.len(),
            g.n(),
            "verify() must receive the graph this verifier was built from"
        );
        let membership = self.solver.derive_compact(rho);
        let kept: Vec<VertexId> = self
            .map
            .iter()
            .zip(&membership)
            .filter(|&(_, &m)| m)
            .map(|(&v, _)| v)
            .collect();
        component_verdict(g, s_sorted, &kept)
    }
}

/// Fast verification (Algorithm 5). `output_mask[v]` marks vertices of
/// already-verified LhCDSes (used for the early reject — their compact
/// numbers are pinned at densities `≥ ρ`). A flow-deciding call builds
/// one reduced network over its closure `T`.
pub fn verify_fast(
    g: &CsrGraph,
    cliques: &CliqueSet,
    s_sorted: &[VertexId],
    rho: Ratio,
    bounds: &Bounds,
    output_mask: &[bool],
) -> (Verdict, FastVerifyInfo) {
    debug_assert!(s_sorted.windows(2).all(|w| w[0] < w[1]));
    let mut info = FastVerifyInfo::default();
    let rho_hi = rho.to_f64() + 1e-9; // reject needs certainty above ρ
    let rho_lo = rho.to_f64() - 1e-9; // expansion includes ties at ρ

    // BFS closure of S across vertices that may reach compact number ρ.
    let mut in_t = vec![false; g.n()];
    let mut in_s = vec![false; g.n()];
    for &v in s_sorted {
        in_t[v as usize] = true;
        in_s[v as usize] = true;
    }
    let mut queue: std::collections::VecDeque<VertexId> = s_sorted.iter().copied().collect();
    let mut t: Vec<VertexId> = s_sorted.to_vec();
    while let Some(v) = queue.pop_front() {
        let v_in_s = in_s[v as usize];
        for &w in g.neighbors(v) {
            if in_t[w as usize] {
                continue;
            }
            let wi = w as usize;
            if v_in_s && (bounds.lower[wi] > rho_hi || output_mask[wi]) {
                // a neighbor of S certainly has compact number ≥ ρ: its
                // compact region merges with S — S is not maximal. The
                // BFS goes on: the flow below finds the superset.
                info.early_reject = true;
            }
            if bounds.upper[wi] >= rho_lo {
                in_t[wi] = true;
                t.push(w);
                queue.push_back(w);
            }
        }
    }
    info.t_size = t.len();

    if !info.early_reject && t.len() == s_sorted.len() {
        info.shortcut_accept = true;
        return (Verdict::Lhcds, info);
    }

    t.sort_unstable();
    info.used_flow = true;
    let (inst, map) = local_instance(cliques, &t);
    let membership = InstanceSolver::new(inst).derive_compact(rho);
    let kept: Vec<VertexId> = map
        .iter()
        .zip(&membership)
        .filter(|&(_, &m)| m)
        .map(|(&v, _)| v)
        .collect();
    (component_verdict(g, s_sorted, &kept), info)
}

/// Shared tail: `S` is an LhCDS iff it equals its connected component
/// within the `kept` set.
fn component_verdict(g: &CsrGraph, s_sorted: &[VertexId], kept: &[VertexId]) -> Verdict {
    // S is ρ-compact, so it must be inside the union of maximal
    // ρ-compact subgraphs.
    debug_assert!(
        {
            let mut in_kept = vec![false; g.n()];
            for &v in kept {
                in_kept[v as usize] = true;
            }
            s_sorted.iter().all(|&v| in_kept[v as usize])
        },
        "ρ-compact candidate missing from DeriveCompact output"
    );
    let comps = components_within(g, kept);
    let first = s_sorted[0];
    for comp in comps {
        if comp.binary_search(&first).is_ok() {
            return if comp == s_sorted {
                Verdict::Lhcds
            } else {
                Verdict::Superset(comp)
            };
        }
    }
    // Unreachable given the debug assertion; treat conservatively.
    Verdict::Superset(kept.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{initialize_bounds, DEFAULT_SLACK};
    use lhcds_graph::GraphBuilder;

    /// Two K5s connected by a single edge. NOTE: neither K5 alone is an
    /// L3CDS — both are 2-compact and the bridge makes their union a
    /// connected 2-compact supergraph, so the unique L3CDS is the union
    /// of all ten vertices.
    fn two_k5_bridge() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        b.add_edge(4, 5);
        b.build()
    }

    /// Two disjoint K5s: each is an L3CDS with density 2.
    fn two_k5_disjoint() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        b.build()
    }

    fn setup(g: &CsrGraph, h: usize) -> (CliqueSet, Bounds) {
        let cs = CliqueSet::enumerate(g, h);
        let bounds = initialize_bounds(&cs, DEFAULT_SLACK);
        (cs, bounds)
    }

    /// One basic verification on a throwaway whole-graph network.
    fn verify_basic(g: &CsrGraph, cs: &CliqueSet, s: &[VertexId], rho: Ratio) -> Verdict {
        BasicVerifier::new(g, cs, FlowReuse::default()).verify(g, s, rho)
    }

    #[test]
    fn basic_accepts_true_lhcds() {
        let g = two_k5_disjoint();
        let (cs, _) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        assert_eq!(
            verify_basic(&g, &cs, &s, Ratio::from_int(2)),
            Verdict::Lhcds
        );
    }

    #[test]
    fn basic_rejects_bridged_fragment_with_union_superset() {
        // With a bridge, each K5 is 2-compact but not maximal: the
        // verifier must return the full union as the blocking superset.
        let g = two_k5_bridge();
        let (cs, _) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        match verify_basic(&g, &cs, &s, Ratio::from_int(2)) {
            Verdict::Superset(x) => assert_eq!(x, (0..10).collect::<Vec<_>>()),
            other => panic!("expected union superset, got {other:?}"),
        }
    }

    #[test]
    fn basic_rejects_fragment_of_larger_region() {
        // K6: any 5-subset has density 2 but the maximal 2-compact
        // subgraph is all of K6.
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let (cs, _) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        // ρ = density of the 5-subset (K5 inside K6) = 10/5 = 2
        match verify_basic(&g, &cs, &s, Ratio::from_int(2)) {
            Verdict::Superset(x) => assert_eq!(x, (0..6).collect::<Vec<_>>()),
            other => panic!("expected superset, got {other:?}"),
        }
    }

    #[test]
    fn fast_matches_basic_on_accept() {
        let g = two_k5_disjoint();
        let (cs, bounds) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        let outputs = vec![false; g.n()];
        let (verdict, info) = verify_fast(&g, &cs, &s, Ratio::from_int(2), &bounds, &outputs);
        assert_eq!(verdict, Verdict::Lhcds);
        assert!(info.t_size >= 5);
    }

    #[test]
    fn fast_rejects_bridged_fragment_with_union_superset() {
        let g = two_k5_bridge();
        let (cs, bounds) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        let outputs = vec![false; g.n()];
        let (verdict, _) = verify_fast(&g, &cs, &s, Ratio::from_int(2), &bounds, &outputs);
        match verdict {
            Verdict::Superset(x) => assert_eq!(x, (0..10).collect::<Vec<_>>()),
            other => panic!("expected union superset, got {other:?}"),
        }
    }

    #[test]
    fn fast_shortcut_fires_with_tight_bounds() {
        let g = two_k5_bridge();
        let (cs, mut bounds) = setup(&g, 3);
        // pin exact compact numbers: K5 members 2, so the *other* K5
        // (upper = 2 ≥ ρ = 2)… use the bridge structure: give the far
        // side a lower upper bound to force the shortcut.
        for v in 0..5 {
            bounds.pin_exact(v, Ratio::from_int(2));
        }
        for v in 5..10 {
            bounds.pin_exact(v, Ratio::new(3, 2)); // pretend: below ρ
        }
        let s: Vec<VertexId> = (0..5).collect();
        let outputs = vec![false; g.n()];
        let (verdict, info) = verify_fast(&g, &cs, &s, Ratio::from_int(2), &bounds, &outputs);
        assert_eq!(verdict, Verdict::Lhcds);
        assert!(info.shortcut_accept);
        assert!(!info.used_flow);
    }

    #[test]
    fn fast_early_rejects_on_adjacent_output() {
        let g = two_k5_bridge();
        let (cs, bounds) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        let mut outputs = vec![false; g.n()];
        outputs[5..10].fill(true); // the far K5 was already output
        let (verdict, info) = verify_fast(&g, &cs, &s, Ratio::from_int(2), &bounds, &outputs);
        assert!(info.early_reject);
        // the reject still runs the flow, so the caller gets the superset
        assert!(info.used_flow);
        match verdict {
            Verdict::Superset(x) => assert_eq!(x, (0..10).collect::<Vec<_>>()),
            other => panic!("expected union superset, got {other:?}"),
        }
    }

    #[test]
    fn fast_rejects_fragment_with_superset() {
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let (cs, bounds) = setup(&g, 3);
        let s: Vec<VertexId> = (0..5).collect();
        let outputs = vec![false; g.n()];
        let (verdict, info) = verify_fast(&g, &cs, &s, Ratio::from_int(2), &bounds, &outputs);
        match verdict {
            Verdict::Superset(x) => assert_eq!(x, (0..6).collect::<Vec<_>>()),
            other => panic!("expected superset, got {other:?}"),
        }
        assert!(info.used_flow);
    }

    /// One `BasicVerifier` across many candidates at different ρ must
    /// answer exactly like one-shot calls, while building one network.
    #[test]
    fn basic_verifier_reuses_one_network_across_candidates() {
        let mut b = GraphBuilder::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        b.add_edge(9, 10); // pendant, no triangles
        let g = b.build();
        let (cs, _) = setup(&g, 3);
        let candidates: [(&[VertexId], Ratio); 3] = [
            (&[0, 1, 2, 3, 4], Ratio::from_int(2)),
            (&[5, 6, 7, 8, 9], Ratio::from_int(2)),
            (&[0, 1, 2], Ratio::from_int(1)),
        ];
        let mut shared = BasicVerifier::new(&g, &cs, FlowReuse::default());
        let verdicts: Vec<Verdict> = candidates
            .iter()
            .map(|&(s, rho)| shared.verify(&g, s, rho))
            .collect();
        // (the one-network-for-all-candidates counter contract lives in
        // tests/flow_reuse.rs, whose process owns the global counters)
        for (&(s, rho), verdict) in candidates.iter().zip(&verdicts) {
            assert_eq!(*verdict, verify_basic(&g, &cs, s, rho), "{s:?} at {rho}");
        }
        assert_eq!(verdicts[0], Verdict::Lhcds);
        assert_eq!(verdicts[1], Verdict::Lhcds);
        assert!(matches!(verdicts[2], Verdict::Superset(_)));
    }

    /// Randomized equivalence: fast ≡ basic on small random graphs.
    #[test]
    fn fast_equals_basic_randomized() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..30 {
            let n = 8 + (rng() % 5) as usize;
            let mut b = GraphBuilder::new();
            b.ensure_vertex((n - 1) as u32);
            for u in 0..n as u32 {
                for v in u + 1..n as u32 {
                    if rng() % 100 < 45 {
                        b.add_edge(u, v);
                    }
                }
            }
            let g = b.build();
            let (cs, bounds) = setup(&g, 3);
            if cs.is_empty() {
                continue;
            }
            // candidate: the densest decomposition of the whole graph
            let all: Vec<VertexId> = g.vertices().collect();
            let (inst, map) = local_instance(&cs, &all);
            let Some((rho, members)) = InstanceSolver::new(inst).densest_decomposition() else {
                continue;
            };
            let kept: Vec<VertexId> = map
                .iter()
                .zip(&members)
                .filter(|&(_, &m)| m)
                .map(|(&v, _)| v)
                .collect();
            let comps = components_within(&g, &kept);
            let outputs = vec![false; g.n()];
            for comp in comps {
                let basic = verify_basic(&g, &cs, &comp, rho);
                let (fast, _) = verify_fast(&g, &cs, &comp, rho, &bounds, &outputs);
                assert_eq!(basic, fast, "trial {trial}: candidate {comp:?}");
            }
        }
    }
}
