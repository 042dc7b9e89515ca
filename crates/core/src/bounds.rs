//! Compact-number bounds (Algorithm 1, `InitializeBd`).
//!
//! For every vertex `u`, `φh(u)` — the h-clique *compact number*
//! (Definition 4) — is the largest `ρ` such that `u` lies in an h-clique
//! `ρ`-compact subgraph. The pipeline never computes `φh` exactly;
//! instead it maintains **valid** lower/upper bounds and tightens them:
//!
//! * Proposition 3: `core_G(u, ψh) / h ≤ φh(u) ≤ core_G(u, ψh)` — the
//!   initial bounds from the `(k, ψh)`-core decomposition.
//! * Theorem 4: stable h-clique groups tighten both sides (module
//!   [`crate::stable`]).
//! * Verified outputs pin the bound exactly (`φh(u) = d(G[S])`,
//!   Theorem 1).
//!
//! Bounds are stored as `f64` *with a safety slack already applied*, so
//! every consumer may treat them as certain: the invariant is
//! `lower[u] ≤ φh(u) ≤ upper[u]` for the true real-valued compact
//! number. Float-derived updates (from the approximate convex program)
//! widen by [`Bounds::slack`] before being applied; exact updates
//! (cores, verified densities) are applied as-is.

use lhcds_clique::{clique_core, CliqueSet};
use lhcds_flow::Ratio;

/// Valid lower/upper bounds on every vertex's h-clique compact number.
#[derive(Debug, Clone)]
pub struct Bounds {
    /// Valid lower bounds: `lower[u] ≤ φh(u)`.
    pub lower: Vec<f64>,
    /// Valid upper bounds: `φh(u) ≤ upper[u]`.
    pub upper: Vec<f64>,
    /// Slack added around float-derived (approximate) updates.
    pub slack: f64,
}

impl Bounds {
    /// Tightens `upper[u]` with a float-derived value, widened by slack.
    pub fn tighten_upper_approx(&mut self, u: usize, value: f64) {
        let v = value + self.slack;
        if v < self.upper[u] {
            self.upper[u] = v;
        }
    }

    /// Tightens `lower[u]` with a float-derived value, widened by slack.
    pub fn tighten_lower_approx(&mut self, u: usize, value: f64) {
        let v = value - self.slack;
        if v > self.lower[u] {
            self.lower[u] = v;
        }
    }

    /// Pins both bounds to an exact value (e.g. a verified LhCDS density,
    /// Theorem 1).
    pub fn pin_exact(&mut self, u: usize, value: Ratio) {
        let v = value.to_f64();
        self.lower[u] = v;
        self.upper[u] = v;
    }
}

/// Default slack around approximate (f64 convex-program) bounds. The CP
/// iterates accumulate at most a few ulps of drift per clique; `1e-6`
/// dwarfs that while remaining far below the minimum density gap of any
/// graph small enough to process (`1/n²`-scale gaps would need `n > 10³`
/// interacting with ties to matter, and verification is exact anyway —
/// slack only affects candidate ordering and pruning eagerness, not
/// correctness of output).
pub const DEFAULT_SLACK: f64 = 1e-6;

/// Algorithm 1: initial bounds from the `(k, ψh)`-core decomposition.
///
/// `upper[u] = core_G(u, ψh)` and `lower[u] = core_G(u, ψh) / h`
/// (Proposition 3). These are exact rationals; no slack is applied.
pub fn initialize_bounds(cliques: &CliqueSet, slack: f64) -> Bounds {
    let cc = clique_core(cliques);
    let h = cliques.h() as f64;
    let n = cliques.n();
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    for v in 0..n {
        let core = cc.core[v] as f64;
        upper.push(core);
        lower.push(core / h);
    }
    Bounds {
        lower,
        upper,
        slack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhcds_graph::{CsrGraph, GraphBuilder};

    fn k5() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn k5_bounds_bracket_true_compact_number() {
        // K5, h = 3: every vertex has compact number 10/5 = 2 (Figure 4
        // of the paper). Core number = 6 (triangle degree in K5).
        let g = k5();
        let cs = CliqueSet::enumerate(&g, 3);
        let b = initialize_bounds(&cs, DEFAULT_SLACK);
        for v in 0..5 {
            assert_eq!(b.upper[v], 6.0);
            assert!((b.lower[v] - 2.0).abs() < 1e-12);
            // true φ = 2 must lie inside
            assert!(b.lower[v] <= 2.0 && 2.0 <= b.upper[v]);
        }
    }

    #[test]
    fn isolated_vertices_have_zero_bounds() {
        let g = CsrGraph::from_edges(4, [(0, 1)]);
        let cs = CliqueSet::enumerate(&g, 3);
        let b = initialize_bounds(&cs, DEFAULT_SLACK);
        assert!(b.upper.iter().all(|&u| u == 0.0));
        assert!(b.lower.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn tighten_is_monotone_and_slack_guarded() {
        let g = k5();
        let cs = CliqueSet::enumerate(&g, 3);
        let mut b = initialize_bounds(&cs, 1e-6);
        b.tighten_upper_approx(0, 3.0);
        assert!((b.upper[0] - (3.0 + 1e-6)).abs() < 1e-12);
        // loosening attempts are ignored
        b.tighten_upper_approx(0, 10.0);
        assert!((b.upper[0] - (3.0 + 1e-6)).abs() < 1e-12);
        // initial lower bound is core/h = 2.0; only larger values stick
        b.tighten_lower_approx(0, 2.5);
        assert!((b.lower[0] - (2.5 - 1e-6)).abs() < 1e-12);
        b.tighten_lower_approx(0, 0.5);
        assert!((b.lower[0] - (2.5 - 1e-6)).abs() < 1e-12);
    }

    #[test]
    fn pin_exact_collapses_interval() {
        let g = k5();
        let cs = CliqueSet::enumerate(&g, 3);
        let mut b = initialize_bounds(&cs, 1e-6);
        b.pin_exact(2, Ratio::from_int(2));
        assert_eq!(b.lower[2], 2.0);
        assert_eq!(b.upper[2], 2.0);
    }
}
