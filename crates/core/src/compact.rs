//! `DeriveCompact` flow networks (Figure 6), the excess-set test behind
//! `IsDensest`, and the exact local densest decomposition.
//!
//! All routines operate on a [`LocalInstance`]: a relabelled vertex
//! universe `0..n` with the h-cliques fully inside it.
//!
//! ## Exactness
//! Every gadget and degree capacity is an integer; only the sink arcs
//! `ρ·h` are rational. For threshold `ρ = a/b` all capacities are scaled
//! by a multiple `D` of `b`, making every capacity an integer `i128`:
//! the min-cut, and therefore every verification decision, is exact.
//!
//! ## The gadget (one clique node per h-clique `ψ`)
//! `v → ψ` with capacity 1 and `ψ → v` with capacity `h − 1` for every
//! member `v`; `s → v` with the h-clique degree; `v → t` with `ρ·h`.
//! A cut that keeps vertex set `A` on the source side pays
//! `Σ_v deg(v) − h·(|Ψ(A)| − ρ|A|)`, so the *minimum* cut maximizes
//! `|Ψ(A)| − ρ|A|`, and:
//!
//! * the minimal source side is the smallest maximizer — empty iff no
//!   subgraph is denser than `ρ` (`IsDensest`, equivalently: `G` is
//!   h-clique `ρ`-compact);
//! * the maximal source side at threshold `ρ − 1/n²` is the union of
//!   all maximal `ρ`-compact subgraphs (Theorem 5).
//!
//! ## Network reuse
//! Every routine above probes the *same* network at several thresholds:
//! the Goldberg ladder of [`InstanceSolver::densest_decomposition`],
//! the marginal-density iteration of
//! [`InstanceSolver::next_density_level`], and the final ε-perturbed
//! `DeriveCompact` all share the gadget arcs and differ only in the
//! ρ-dependent terminal capacities. [`InstanceSolver`] therefore builds
//! **one** [`ParametricNetwork`] per instance (lazily, on the first
//! probe) and re-tunes it between solves, warm-starting from the
//! retained residual flow and retracting it when a capacity shrinks.
//! Because minimal/maximal min-cut source sides are canonical
//! (flow-independent) and uniform capacity scaling preserves them, the
//! reuse path is bit-identical to rebuilding from scratch — pinned by
//! the `flow_reuse` equivalence suites.

use lhcds_clique::CliqueSet;
use lhcds_flow::{FlowReuse, GgtSolver, ParametricNetwork, Ratio};
use lhcds_graph::VertexId;

/// A relabelled sub-universe with its interior h-cliques.
#[derive(Debug, Clone)]
pub struct LocalInstance {
    /// Number of local vertices.
    pub n: usize,
    /// Clique size.
    pub h: usize,
    /// Interior cliques, `h` local ids each.
    pub full: Vec<u32>,
}

impl LocalInstance {
    /// Number of interior cliques.
    pub fn clique_count(&self) -> usize {
        self.full.len().checked_div(self.h).unwrap_or(0)
    }

    /// h-clique density of the whole local universe (interior cliques
    /// only). `None` for an empty universe.
    pub fn density(&self) -> Option<Ratio> {
        if self.n == 0 {
            None
        } else {
            Some(Ratio::new(self.clique_count() as i128, self.n as i128))
        }
    }
}

/// Extracts the [`LocalInstance`] induced by `set` (parent vertex ids)
/// from a parent clique store. Returns the instance and the local→parent
/// mapping (ascending). Cliques straddling `set` are dropped.
pub fn local_instance(cliques: &CliqueSet, set: &[VertexId]) -> (LocalInstance, Vec<VertexId>) {
    let mut to_parent: Vec<VertexId> = set.to_vec();
    to_parent.sort_unstable();
    to_parent.dedup();
    let h = cliques.h();
    let mut full = Vec::new();

    // Adaptive id translation: dense arrays are O(n + |Ψ|) per call,
    // which dominates when the pipeline processes many small candidate
    // regions; hash maps keep the cost proportional to the region.
    let dense = to_parent.len().saturating_mul(16) >= cliques.n();
    if dense {
        let mut local = vec![u32::MAX; cliques.n()];
        for (i, &v) in to_parent.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut stamp = vec![false; cliques.len()];
        for &v in &to_parent {
            for &ci in cliques.cliques_of(v) {
                let ci = ci as usize;
                if stamp[ci] {
                    continue;
                }
                stamp[ci] = true;
                let members = cliques.members(ci);
                if members.iter().all(|&w| local[w as usize] != u32::MAX) {
                    for &w in members {
                        full.push(local[w as usize]);
                    }
                }
            }
        }
    } else {
        let local: std::collections::HashMap<VertexId, u32> = to_parent
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for &v in &to_parent {
            for &ci in cliques.cliques_of(v) {
                if !seen.insert(ci) {
                    continue;
                }
                let members = cliques.members(ci as usize);
                if let Some(ids) = members
                    .iter()
                    .map(|w| local.get(w).copied())
                    .collect::<Option<Vec<u32>>>()
                {
                    full.extend(ids);
                }
            }
        }
    }
    (
        LocalInstance {
            n: to_parent.len(),
            h,
            full,
        },
        to_parent,
    )
}

/// A [`LocalInstance`] bundled with its lazily built, reusable flow
/// network.
///
/// Node layout: `0 = s`, `1..=n` local vertices, then clique nodes, `t`
/// last. Gadget arcs (`v → ψ`, `ψ → v`) are *static* integer
/// capacities; the ρ-dependent terminal arcs (`s → v`, `v → t`) are
/// *parametric* and re-tuned per probe. Every probe of every method
/// reuses the same [`ParametricNetwork`], whose flow is never reset.
///
/// The [`FlowReuse`] tier ([`InstanceSolver::with_reuse`]) picks the
/// cost model: [`FlowReuse::Scratch`] rebuilds the network before every
/// solve (the pre-parametric model), and the default [`FlowReuse::Ggt`]
/// keeps it — increases warm-start, decreases retract the flow along
/// its own paths — while the full-ladder entry point
/// [`InstanceSolver::ggt_ladder`] replaces the probe schedule by GGT
/// divide-and-conquer. Results are bit-identical across both tiers.
#[derive(Debug, Clone)]
pub struct InstanceSolver {
    inst: LocalInstance,
    reuse: FlowReuse,
    /// Worker threads for [`InstanceSolver::ggt_ladder`]'s GGT
    /// recursion (1 = serial; the result never depends on it).
    threads: usize,
    net: Option<ParametricNetwork>,
    /// Per-vertex h-clique degree.
    deg: Vec<i128>,
}

impl InstanceSolver {
    /// Wraps `inst` at the default reuse tier ([`FlowReuse::Ggt`]).
    pub fn new(inst: LocalInstance) -> InstanceSolver {
        InstanceSolver::with_reuse(inst, FlowReuse::default())
    }

    /// Wraps `inst` at an explicit [`FlowReuse`] tier.
    pub fn with_reuse(inst: LocalInstance, reuse: FlowReuse) -> InstanceSolver {
        let mut deg = vec![0i128; inst.n];
        for &v in &inst.full {
            deg[v as usize] += 1;
        }
        InstanceSolver {
            inst,
            reuse,
            threads: 1,
            net: None,
            deg,
        }
    }

    /// Sets the worker-thread count for [`InstanceSolver::ggt_ladder`]'s
    /// divide-and-conquer (clamped to at least 1). Ladder output is
    /// byte-identical at every thread count; only wall time changes.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The wrapped instance.
    pub fn instance(&self) -> &LocalInstance {
        &self.inst
    }

    /// Builds the arc structure once; capacities are installed per
    /// solve.
    fn build_network(inst: &LocalInstance) -> ParametricNetwork {
        let n = inst.n;
        let h = inst.h as i128;
        let t = (1 + n + inst.clique_count()) as u32;
        let mut pn = ParametricNetwork::new(t as usize + 1, 0, t);
        // parametric arc layout: [0, n) = s→v; [n, 2n) = v→t
        for v in 0..n as u32 {
            pn.add_parametric(0, v + 1);
        }
        for v in 0..n as u32 {
            pn.add_parametric(v + 1, t);
        }
        for (i, members) in inst.full.chunks_exact(inst.h).enumerate() {
            let cnode = (1 + n + i) as u32;
            for &v in members {
                pn.add_static(v + 1, cnode, 1);
                pn.add_static(cnode, v + 1, h - 1);
            }
        }
        pn
    }

    /// Re-tunes the network to threshold `rho` (optionally pinning
    /// `forced` vertices to the source side with an effectively
    /// infinite `s → v` capacity) and solves it.
    fn solve(&mut self, rho: Ratio, forced: Option<&[bool]>) {
        if self.reuse == FlowReuse::Scratch {
            self.net = None;
        }
        if self.net.is_none() {
            self.net = Some(Self::build_network(&self.inst));
        }
        let n = self.inst.n;
        let h = self.inst.h as i128;
        let gadget_nodes = (self.inst.clique_count() + 1) as i128;
        let pn = self.net.as_mut().expect("just built");
        let scale = pn.scale_for(rho.den());
        let vt_cap = (rho * Ratio::from_int(h)).scale_to_int(scale);
        assert!(vt_cap >= 0, "threshold must be non-negative");
        // "infinite" = more than any finite cut can carry
        let inf = (h * scale)
            .saturating_mul(gadget_nodes)
            .saturating_add(vt_cap.saturating_mul(n as i128 + 1))
            .saturating_add(1);
        let mut caps = Vec::with_capacity(pn.param_count());
        for v in 0..n {
            caps.push(if forced.is_some_and(|f| f[v]) {
                inf
            } else {
                self.deg[v] * scale
            });
        }
        caps.resize(2 * n, vt_cap);
        pn.solve(scale, &caps);
    }

    fn vertex_side(&self, side: &[bool]) -> Vec<bool> {
        (0..self.instance().n).map(|v| side[v + 1]).collect()
    }

    /// Minimal maximizer of `|Ψ(A)| − ρ|A|` over vertex subsets: the
    /// minimal min-cut source side. All-false iff the maximum is 0, i.e.
    /// no subgraph has h-clique density exceeding `rho` (`IsDensest`).
    pub fn max_excess_set(&mut self, rho: Ratio) -> Vec<bool> {
        if self.instance().n == 0 {
            return Vec::new();
        }
        self.solve(rho, None);
        let side = self.net.as_ref().expect("solved").min_cut_source_side();
        self.vertex_side(&side)
    }

    /// `DeriveCompact(G, ρ − 1/n², P)`: membership of the union of all
    /// maximal h-clique `ρ`-compact subgraphs (Theorem 5) — the maximal
    /// min-cut source side at the perturbed threshold.
    pub fn derive_compact(&mut self, rho: Ratio) -> Vec<bool> {
        let n = self.instance().n;
        if n == 0 {
            return Vec::new();
        }
        let eps = Ratio::new(1, (n as i128) * (n as i128));
        let thr = (rho - eps).max(Ratio::zero());
        self.solve(thr, None);
        let side = self.net.as_ref().expect("solved").max_cut_source_side();
        self.vertex_side(&side)
    }

    /// Exact densest-subgraph decomposition of the local universe by
    /// Goldberg-style iteration: returns `(ρ*, U)` where `ρ*` is the
    /// maximum h-clique density over all subsets and `U` the union of
    /// all maximal `ρ*`-compact subgraphs. `None` when the universe
    /// holds no clique.
    ///
    /// The minimal maximizers are nested as `ρ` increases, so the
    /// iteration performs at most `n` max-flows (2–5 in practice) — all
    /// on the one retained network, warm-started while ρ climbs.
    pub fn densest_decomposition(&mut self) -> Option<(Ratio, Vec<bool>)> {
        if self.instance().n == 0 || self.instance().clique_count() == 0 {
            return None;
        }
        let mut rho = self.instance().density().expect("non-empty");
        let mut guard = 0usize;
        loop {
            let set = self.max_excess_set(rho);
            let size = set.iter().filter(|&&b| b).count();
            if size == 0 {
                break;
            }
            let inside = count_inside(self.instance(), &set);
            let denser = Ratio::new(inside as i128, size as i128);
            debug_assert!(denser > rho, "density must strictly increase");
            rho = denser;
            guard += 1;
            assert!(
                guard <= self.instance().n + 2,
                "densest-subgraph iteration failed to converge"
            );
        }
        Some((rho, self.derive_compact(rho)))
    }

    /// Marginal-density step of the dense decomposition: given the
    /// union `forced` of all higher levels, finds the next level — the
    /// maximal set `A ⊇ forced` maximizing the marginal density
    /// `(|Ψ(A)| − |Ψ(forced)|) / (|A| − |forced|)` — by Goldberg
    /// iteration with the forced vertices pinned to the source side.
    /// Returns the marginal density and the *new* vertices (level
    /// members), or `None` when no vertex outside `forced` participates
    /// in any clique gain. One retained network serves the whole ladder
    /// across calls with growing `forced` sets.
    pub fn next_density_level(&mut self, forced: &[bool]) -> Option<(Ratio, Vec<bool>)> {
        let n = self.instance().n;
        let forced_count = forced.iter().filter(|&&f| f).count();
        if n == 0 || forced_count == n {
            return None;
        }
        let base_inside = count_inside(self.instance(), forced) as i128;

        // Marginal gain of the full universe; if zero, no further level.
        let full = vec![true; n];
        let total = count_inside(self.instance(), &full) as i128;
        if total == base_inside {
            return None;
        }
        let mut rho = Ratio::new(total - base_inside, (n - forced_count) as i128);

        // Goldberg iteration on the marginal density: the minimal
        // maximizer of |Ψ(A)| − ρ|A| over A ⊇ forced shrinks as ρ grows.
        let mut guard = 0usize;
        let mut best = rho;
        loop {
            self.solve(rho, Some(forced));
            let side = self.net.as_ref().expect("solved").min_cut_source_side();
            let set = self.vertex_side(&side);
            let new_count = set
                .iter()
                .zip(forced)
                .filter(|&(&inside, &f)| inside && !f)
                .count();
            if new_count == 0 {
                break;
            }
            let inside = count_inside(self.instance(), &set) as i128;
            let marginal = Ratio::new(inside - base_inside, new_count as i128);
            debug_assert!(marginal >= rho);
            if marginal == best && marginal == rho {
                best = marginal;
                break;
            }
            best = marginal;
            rho = marginal;
            guard += 1;
            assert!(guard <= n + 2, "marginal-density iteration diverged");
        }

        // Largest maximizer at the final level (ε-perturbed threshold).
        let eps = Ratio::new(1, (n as i128) * (n as i128));
        let thr = (best - eps).max(Ratio::zero());
        self.solve(thr, Some(forced));
        let side = self.net.as_ref().expect("solved").max_cut_source_side();
        let level: Vec<bool> = (0..n).map(|v| side[v + 1] && !forced[v]).collect();
        debug_assert!(level.iter().any(|&b| b), "level must be non-empty");
        Some((best, level))
    }

    /// The *entire* dense-decomposition ladder in one GGT
    /// divide-and-conquer: marginal densities with their level
    /// memberships, strictly descending, computed on a single shared
    /// network whose flow is never reset (see [`GgtSolver`]).
    ///
    /// The instance network is exactly a GGT parametric family — the
    /// `s → v` clique-degree arcs are constant and the `v → t` arcs grow
    /// as `ρ·h` — and its principal-partition breakpoints are the
    /// marginal densities, with the partition classes the levels. Levels
    /// at density ≤ 0 (vertices in no clique) are part of the raw
    /// partition; callers building a [`crate::density::DenseDecomposition`]
    /// drop them, exactly like the probe-walk path does.
    pub fn ggt_ladder(&mut self) -> Vec<(Ratio, Vec<bool>)> {
        let inst = &self.inst;
        let n = inst.n;
        if n == 0 {
            return Vec::new();
        }
        let h = inst.h as i128;
        let t = (1 + n + inst.clique_count()) as u32;
        // Same node layout and capacities as `build_network`, with the
        // terminal arcs as the λ-ladder: src = clique degree, slope = h.
        let mut g = GgtSolver::new(t as usize + 1, 0, t);
        for v in 0..n {
            g.ladder_node((v + 1) as u32, self.deg[v], h);
        }
        for (i, members) in inst.full.chunks_exact(inst.h).enumerate() {
            let cnode = (1 + n + i) as u32;
            for &v in members {
                g.add_static(v + 1, cnode, 1);
                g.add_static(cnode, v + 1, h - 1);
            }
        }
        g.principal_partition_par(self.threads)
    }
}

/// Number of interior cliques fully inside `set`.
pub fn count_inside(inst: &LocalInstance, set: &[bool]) -> u64 {
    inst.full
        .chunks_exact(inst.h)
        .filter(|members| members.iter().all(|&v| set[v as usize]))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhcds_graph::{CsrGraph, GraphBuilder};

    fn instance_of(g: &CsrGraph, h: usize) -> LocalInstance {
        let cs = CliqueSet::enumerate(g, h);
        let all: Vec<VertexId> = g.vertices().collect();
        local_instance(&cs, &all).0
    }

    /// A fresh solver on a copy of `inst` (one network per call).
    fn solver(inst: &LocalInstance) -> InstanceSolver {
        InstanceSolver::new(inst.clone())
    }

    /// `IsDensest`: no subgraph is denser than `rho`.
    fn no_excess(inst: &LocalInstance, rho: Ratio) -> bool {
        solver(inst).max_excess_set(rho).iter().all(|&b| !b)
    }

    fn complete(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn local_instance_filters_interior_cliques() {
        // triangle 0-1-2 and triangle 2-3-4; restrict to {0,1,2,3}:
        // only the first triangle is interior.
        let g = CsrGraph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let cs = CliqueSet::enumerate(&g, 3);
        let (inst, map) = local_instance(&cs, &[0, 1, 2, 3]);
        assert_eq!(inst.n, 4);
        assert_eq!(inst.clique_count(), 1);
        assert_eq!(map, vec![0, 1, 2, 3]);
    }

    #[test]
    fn complete_graph_is_self_densest() {
        let inst = instance_of(&complete(6), 3);
        let rho = inst.density().unwrap();
        assert_eq!(rho, Ratio::new(20, 6));
        assert!(no_excess(&inst, rho));
        // but not densest at any smaller threshold
        assert!(!no_excess(&inst, rho - Ratio::new(1, 100)));
    }

    #[test]
    fn pendant_makes_graph_not_self_densest() {
        // K5 + pendant vertex: overall density 10/6 < inner K5's 10/5.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 5);
        let inst = instance_of(&b.build(), 3);
        let rho = inst.density().unwrap();
        assert_eq!(rho, Ratio::new(10, 6));
        assert!(!no_excess(&inst, rho));
        // the excess set is exactly the K5
        let set = solver(&inst).max_excess_set(rho);
        assert_eq!(set, vec![true, true, true, true, true, false]);
    }

    #[test]
    fn densest_decomposition_finds_inner_k5() {
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 5).add_edge(5, 6);
        let inst = instance_of(&b.build(), 3);
        let (rho, members) = solver(&inst).densest_decomposition().unwrap();
        assert_eq!(rho, Ratio::from_int(2)); // 10 triangles / 5 vertices
        assert_eq!(members, vec![true, true, true, true, true, false, false]);
    }

    #[test]
    fn decomposition_returns_all_tied_regions() {
        // two disjoint K4s: both maximal 1-compact (4 triangles / 4
        // vertices = 1); the union must contain both.
        let mut b = GraphBuilder::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in i + 1..4 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        let inst = instance_of(&b.build(), 3);
        let (rho, members) = solver(&inst).densest_decomposition().unwrap();
        assert_eq!(rho, Ratio::from_int(1));
        assert!(members.iter().all(|&m| m));
    }

    #[test]
    fn clique_free_universe_has_no_decomposition() {
        let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let inst = instance_of(&g, 3);
        assert!(solver(&inst).densest_decomposition().is_none());
    }

    #[test]
    fn figure2_s1_density_13_over_6() {
        // K6 minus two adjacent edges (the paper's S1): 13 triangles on
        // 6 vertices, self-densest at 13/6.
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                if (u, v) == (0, 1) || (u, v) == (0, 2) {
                    continue; // remove two edges sharing vertex 0
                }
                b.add_edge(u, v);
            }
        }
        let inst = instance_of(&b.build(), 3);
        let (rho, members) = solver(&inst).densest_decomposition().unwrap();
        assert_eq!(rho, Ratio::new(13, 6));
        assert!(members.iter().all(|&m| m));
        assert!(no_excess(&inst, rho));
    }

    #[test]
    fn derive_compact_drops_subthreshold_fringe() {
        // K5 with pendant: maximal 2-compact subgraph = the K5 alone.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 5);
        let inst = instance_of(&b.build(), 3);
        let kept = solver(&inst).derive_compact(Ratio::from_int(2));
        assert_eq!(kept, vec![true, true, true, true, true, false]);
    }

    #[test]
    fn solver_reuse_matches_scratch_on_a_ladder() {
        // K5 + pendant + tail: the decomposition ladder runs several
        // probes; a single reused network must answer each identically
        // to the rebuild-per-probe mode and to a fresh solver.
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 5).add_edge(5, 6);
        let g = b.build();
        let cs = CliqueSet::enumerate(&g, 3);
        let all: Vec<VertexId> = g.vertices().collect();
        let (inst, _) = local_instance(&cs, &all);

        let mut reused = InstanceSolver::new(inst.clone());
        let a = reused.densest_decomposition().unwrap();
        let mut scratch = InstanceSolver::with_reuse(inst.clone(), FlowReuse::Scratch);
        assert_eq!(a, scratch.densest_decomposition().unwrap());
        assert_eq!(a, solver(&inst).densest_decomposition().unwrap());
        // (the work-counter contracts — one network per ladder, warm
        // and retract hits along it — live in tests/flow_reuse.rs, which owns its
        // process so the global counters are quiet)

        // per-threshold probes agree too, on yet another shared network
        let mut probe = InstanceSolver::new(inst.clone());
        for rho in [
            Ratio::zero(),
            Ratio::new(1, 3),
            Ratio::new(10, 6),
            Ratio::from_int(2),
            Ratio::new(5, 2),
        ] {
            assert_eq!(probe.max_excess_set(rho), solver(&inst).max_excess_set(rho));
            assert_eq!(probe.derive_compact(rho), solver(&inst).derive_compact(rho));
        }
    }

    /// Walks the marginal-density ladder probe-by-probe (the Goldberg
    /// path) and returns `(density, level-mask)` pairs, for comparing
    /// against [`InstanceSolver::ggt_ladder`].
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

    #[test]
    fn ggt_ladder_matches_the_probe_walk() {
        // K5 + pendant + tail (three levels incl. density-0 fringe) and
        // the Figure 2 S1 block (a single level: degenerate ladder)
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 5).add_edge(5, 6);
        for inst in [instance_of(&b.build(), 3), instance_of(&complete(6), 3)] {
            let ggt = InstanceSolver::new(inst.clone()).ggt_ladder();
            let walk = walk_ladder(&inst);
            // the walk stops before density-0 fringes; the raw GGT
            // partition includes them as breakpoint-0 classes
            let positive: Vec<_> = ggt
                .iter()
                .filter(|(rho, _)| *rho > Ratio::zero())
                .cloned()
                .collect();
            let walk_pos: Vec<_> = walk
                .into_iter()
                .filter(|(rho, _)| *rho > Ratio::zero())
                .collect();
            assert_eq!(positive, walk_pos);
        }
    }

    #[test]
    fn empty_universe_edge_cases() {
        let inst = LocalInstance {
            n: 0,
            h: 3,
            full: Vec::new(),
        };
        assert!(solver(&inst).max_excess_set(Ratio::from_int(1)).is_empty());
        assert!(solver(&inst).derive_compact(Ratio::from_int(1)).is_empty());
        assert!(inst.density().is_none());
    }
}
