//! The IPPV top-k driver (Algorithm 6) — exact top-k LhCDS discovery.
//!
//! ## Structure
//!
//! **Propose** — enumerate h-cliques, initialize compact-number bounds
//! from `(k, ψh)`-cores (Alg. 1), run SEQ-kClist++ (Alg. 2), decompose
//! tentatively (`TentativeGD`), derive stable groups (`DeriveSG`) and
//! tighten bounds (Thm. 4). **Prune** — drop vertices provably in no
//! LhCDS (Prop. 5). **Verify** — process candidate regions from the
//! densest down; inside each region an exact local densest
//! decomposition (Goldberg-style, [`crate::compact`]) extracts the
//! maximal locally-dense components, which the fast verifier
//! ([`crate::verify`]) accepts or rejects against the *full* graph.
//!
//! ## Exactness invariants (Theorem 7 analog)
//!
//! * every emitted subgraph is verified `ρ`-compact, connected and
//!   maximal by exact integer min-cuts — no float ever decides an
//!   output;
//! * emission order is exact: a verified subgraph is emitted only once
//!   its density dominates the (valid) upper bound of every vertex
//!   still in play, or when no candidates remain (then the buffer is
//!   flushed in exact density order);
//! * no LhCDS is lost: non-pruned vertices always belong to some
//!   candidate; failed candidates are refined (split along the local
//!   decomposition), grown (replaced by the maximal `ρ`-compact
//!   superset the verifier returns), or — only with a proof — killed.
//!   The kill proof: when a candidate region covers a whole connected
//!   component of the remaining universe (the *escalated* state) and
//!   the verifier's superset adds only already-output vertices, any
//!   LhCDS through the candidate would need density above the
//!   component's maximum subgraph density — impossible.
//!
//! Zero-density regions (no h-clique) are never reported: a
//! "locally densest" subgraph without a single h-clique is the trivial
//! whole-component answer and carries no signal.
//!
//! ## Threads
//!
//! [`IppvConfig::parallelism`] drives the h-clique enumeration and the
//! SEQ-kClist++ rounds. The candidate loop itself is serial: each
//! verification reads the bounds and output mask its predecessors
//! committed, and every flow it needs is a private network over one
//! component or one closure `T`. Outputs are byte-identical at every
//! thread count.

use crate::bounds::{initialize_bounds, Bounds, DEFAULT_SLACK};
use crate::compact::{local_instance, InstanceSolver};
use crate::cp::seq_kclist_pp_threaded;
use crate::decompose::tentative_gd;
use crate::prune::prune;
use crate::stable::derive_stable_groups;
use crate::verify::{verify_fast, BasicVerifier, Verdict};
use lhcds_clique::{CliqueSet, Parallelism};
use lhcds_flow::{FlowReuse, Ratio};
use lhcds_graph::traversal::components_within;
use lhcds_graph::{CsrGraph, VertexId};

/// Tuning knobs of the IPPV pipeline. Defaults match the paper's
/// experimental configuration (`T = 20` CP iterations, fast
/// verification).
#[derive(Debug, Clone)]
pub struct IppvConfig {
    /// Number of SEQ-kClist++ rounds (`T`; Figure 16 sweeps this).
    pub cp_iterations: usize,
    /// Use the reduced-network fast verifier (Algorithm 5) instead of
    /// the full-graph basic verifier (Algorithm 4).
    pub fast_verify: bool,
    /// Safety slack around float-derived bounds (see [`crate::bounds`]).
    pub bound_slack: f64,
    /// Run the convex-program proposal stage (SEQ-kClist++ +
    /// TentativeGD + DeriveSG). Disabling it starts from one whole-graph
    /// candidate with only core-based bounds — the configuration of the
    /// flow-only baselines (LDSflow / LTDS) in `lhcds-baselines`.
    pub use_cp: bool,
    /// Apply Proposition 5 pruning.
    pub use_prune: bool,
    /// Thread policy of the h-clique enumeration and SEQ-kClist++
    /// stages (see the module docs). Every stage is byte-identical for
    /// every policy, so this setting affects wall time only, never
    /// results.
    pub parallelism: Parallelism,
    /// Flow-network reuse tier. [`FlowReuse::Scratch`] rebuilds a
    /// network per ρ-probe (the reference cost model), and the default
    /// [`FlowReuse::Ggt`] retains one [`InstanceSolver`] network per
    /// candidate region / basic-verifier run and never resets its flow:
    /// increases warm-start, decreases retract. Affects wall time and
    /// the flow work counters only — every output is bit-identical
    /// (pinned by the `flow_reuse` equivalence suites).
    pub flow_reuse: FlowReuse,
}

impl Default for IppvConfig {
    fn default() -> Self {
        IppvConfig {
            cp_iterations: 20,
            fast_verify: true,
            bound_slack: DEFAULT_SLACK,
            use_cp: true,
            use_prune: true,
            parallelism: Parallelism::serial(),
            flow_reuse: FlowReuse::default(),
        }
    }
}

/// One verified locally h-clique densest subgraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lhcds {
    /// Member vertices, ascending.
    pub vertices: Vec<VertexId>,
    /// Exact h-clique density `|Ψh(G[S])| / |S|`.
    pub density: Ratio,
    /// Number of h-cliques inside the subgraph.
    pub clique_count: u64,
}

/// Stage timings and work counters (Figure 10 / Figure 15 material).
#[derive(Debug, Clone, Default)]
pub struct IppvStats {
    /// Clique size h.
    pub h: usize,
    /// Number of h-cliques enumerated.
    pub clique_count: usize,
    /// Milliseconds enumerating cliques.
    pub clique_ms: f64,
    /// Milliseconds in SEQ-kClist++.
    pub cp_ms: f64,
    /// Milliseconds in TentativeGD + DeriveSG.
    pub decompose_ms: f64,
    /// Milliseconds in pruning.
    pub prune_ms: f64,
    /// Milliseconds in verification (local decompositions + verifier).
    pub verify_ms: f64,
    /// Vertices removed by pruning.
    pub pruned_vertices: usize,
    /// Stable groups proposed by the first decomposition.
    pub initial_candidates: usize,
    /// Local densest decompositions run.
    pub local_decompositions: usize,
    /// Verification calls.
    pub verifications: usize,
    /// Verifications decided by the reduced/basic flow network.
    pub flow_verifications: usize,
    /// Fast-verifier shortcut accepts (no flow).
    pub shortcut_accepts: usize,
    /// Fast-verifier early rejects (no flow needed for the verdict).
    pub early_rejects: usize,
    /// Candidates replaced by a strictly larger compact superset.
    pub absorptions: usize,
    /// Escalations (global reprocessing rounds).
    pub escalations: usize,
    /// Vertices proven to belong to no LhCDS during verification.
    pub killed_vertices: usize,
}

/// Result of a top-k run.
#[derive(Debug, Clone)]
pub struct IppvResult {
    /// The top-k LhCDSes, ordered by density descending (ties broken by
    /// smallest member id for determinism).
    pub subgraphs: Vec<Lhcds>,
    /// Stage statistics.
    pub stats: IppvStats,
}

/// Discovers the top-k locally h-clique densest subgraphs of `g`.
///
/// `h ≥ 2` (h-cliques degenerate to vertices at `h = 1`). Use
/// `k = usize::MAX` to list every LhCDS.
pub fn top_k_lhcds(g: &CsrGraph, h: usize, k: usize, cfg: &IppvConfig) -> IppvResult {
    assert!(h >= 2, "LhCDS requires h >= 2 (h = 2 is the classic LDS)");
    let sp = lhcds_obs::span("enumerate");
    let cliques = CliqueSet::enumerate_with(g, h, &cfg.parallelism);
    let clique_ms = sp.elapsed_ms();
    sp.counter("cliques", cliques.len() as u64);
    drop(sp);
    let mut res = top_k_with_instances(g, &cliques, k, cfg);
    res.stats.clique_ms = clique_ms;
    res
}

/// Same as [`top_k_lhcds`] but with a pre-built instance store. This is
/// the entry point `lhcds-patterns` uses to run the pipeline on general
/// pattern instances (Algorithm 7): any [`CliqueSet`]-shaped store of
/// h-vertex instances works, because every stage only consumes
/// membership and incidence.
pub fn top_k_with_instances(
    g: &CsrGraph,
    cliques: &CliqueSet,
    k: usize,
    cfg: &IppvConfig,
) -> IppvResult {
    assert_eq!(cliques.n(), g.n(), "instance store does not match graph");
    let mut stats = IppvStats {
        h: cliques.h(),
        clique_count: cliques.len(),
        ..IppvStats::default()
    };
    if cliques.is_empty() || k == 0 {
        return IppvResult {
            subgraphs: Vec::new(),
            stats,
        };
    }

    // ---- Propose -------------------------------------------------
    let mut bounds = initialize_bounds(cliques, cfg.bound_slack);

    let groups: Vec<Vec<VertexId>> = if cfg.use_cp {
        let sp = lhcds_obs::span("cp");
        let mut state = seq_kclist_pp_threaded(
            cliques,
            cfg.cp_iterations,
            cfg.parallelism.effective_threads(g.n()),
        );
        stats.cp_ms = sp.elapsed_ms();
        sp.counter("iterations", cfg.cp_iterations as u64);
        drop(sp);

        let sp = lhcds_obs::span("decompose");
        let decomp = tentative_gd(cliques, &mut state);
        let stable = derive_stable_groups(cliques, &state, &decomp, &mut bounds);
        stats.decompose_ms = sp.elapsed_ms();
        sp.counter("groups", stable.groups.len() as u64);
        drop(sp);
        stable.groups
    } else {
        // flow-only baseline: one whole-graph candidate
        vec![g.vertices().collect()]
    };
    stats.initial_candidates = groups.len();

    // ---- Prune ---------------------------------------------------
    let sp = lhcds_obs::span("prune");
    let mut eligible = vec![true; g.n()];
    // Vertices in no h-clique at all can never join an LhCDS (every
    // member of a positive-density compact subgraph loses at least one
    // clique when removed, so it must be in one). This cheap exact rule
    // clears the sparse background regardless of `use_prune`.
    for (v, e) in eligible.iter_mut().enumerate() {
        if cliques.degree(v as VertexId) == 0 {
            *e = false;
            stats.pruned_vertices += 1;
        }
    }
    if cfg.use_prune {
        stats.pruned_vertices += prune(g, cliques, &bounds, &mut eligible);
    }
    let pruned: Vec<bool> = eligible.iter().map(|&e| !e).collect();
    stats.prune_ms = sp.elapsed_ms();
    sp.counter("pruned_vertices", stats.pruned_vertices as u64);
    drop(sp);

    // ---- Verify (candidate loop) ----------------------------------
    let sp = lhcds_obs::span("verify");
    let mut driver = Driver {
        g,
        cliques,
        cfg,
        bounds,
        pruned,
        output: vec![false; g.n()],
        killed: vec![false; g.n()],
        owner: vec![NO_OWNER; g.n()],
        next_id: 0,
        stack: Vec::new(),
        stuck: Vec::new(),
        failed_memo: std::collections::HashSet::new(),
        buffer: Vec::new(),
        results: Vec::new(),
        basic: None,
        stats: &mut stats,
    };
    // highest-r group on top of the stack
    for group in groups.iter().rev() {
        let verts: Vec<VertexId> = group
            .iter()
            .copied()
            .filter(|&v| !driver.pruned[v as usize])
            .collect();
        if !verts.is_empty() {
            driver.push_candidate(verts, false);
        }
    }
    driver.run(k);
    let results = std::mem::take(&mut driver.results);
    stats.verify_ms = sp.elapsed_ms();
    sp.counter("verifications", stats.verifications as u64);
    sp.counter("flow_verifications", stats.flow_verifications as u64);
    sp.counter("local_decompositions", stats.local_decompositions as u64);
    drop(sp);

    IppvResult {
        subgraphs: results,
        stats,
    }
}

const NO_OWNER: u32 = u32::MAX;

struct Candidate {
    id: u32,
    verts: Vec<VertexId>,
    /// Whether this candidate covers entire connected components of the
    /// remaining universe — the state in which failed verifications may
    /// exactly *kill* vertices instead of deferring them.
    escalated: bool,
}

struct Driver<'a> {
    g: &'a CsrGraph,
    cliques: &'a CliqueSet,
    cfg: &'a IppvConfig,
    bounds: Bounds,
    pruned: Vec<bool>,
    output: Vec<bool>,
    killed: Vec<bool>,
    owner: Vec<u32>,
    next_id: u32,
    stack: Vec<Candidate>,
    stuck: Vec<Candidate>,
    buffer: Vec<Lhcds>,
    results: Vec<Lhcds>,
    /// Failed verifications seen so far. A candidate that fails twice
    /// with the same `(vertices, ρ)` is cycling through absorption (its
    /// blocking superset weaves through already-output regions); it is
    /// deferred and later resolved exactly in escalated mode.
    failed_memo: std::collections::HashSet<(Vec<VertexId>, Ratio)>,
    /// Whole-graph basic verifier, built lazily on first use so its
    /// Figure 6 network (the same arcs for every candidate — only ρ
    /// differs) is constructed once per run, not once per verification.
    basic: Option<BasicVerifier>,
    stats: &'a mut IppvStats,
}

impl<'a> Driver<'a> {
    fn push_candidate(&mut self, verts: Vec<VertexId>, escalated: bool) {
        debug_assert!(!verts.is_empty());
        let id = self.next_id;
        self.next_id += 1;
        for &v in &verts {
            self.owner[v as usize] = id;
        }
        self.stack.push(Candidate {
            id,
            verts,
            escalated,
        });
    }

    /// Vertices of `cand` still owned by it and not yet output.
    fn live_verts(&self, cand: &Candidate) -> Vec<VertexId> {
        cand.verts
            .iter()
            .copied()
            .filter(|&v| self.owner[v as usize] == cand.id && !self.output[v as usize])
            .collect()
    }

    /// Upper bound on the density of any *future* LhCDS: max valid
    /// upper bound over vertices that may still appear in one.
    fn remaining_upper_bound(&self) -> f64 {
        let mut ub = f64::NEG_INFINITY;
        for v in 0..self.g.n() {
            if !self.output[v] && !self.killed[v] && !self.pruned[v] {
                ub = ub.max(self.bounds.upper[v]);
            }
        }
        ub
    }

    fn flush_buffer(&mut self, k: usize, force: bool) {
        if self.buffer.is_empty() {
            return;
        }
        self.buffer.sort_by(|a, b| {
            b.density
                .cmp(&a.density)
                .then_with(|| a.vertices[0].cmp(&b.vertices[0]))
        });
        let ub = if force {
            f64::NEG_INFINITY
        } else {
            self.remaining_upper_bound()
        };
        while self.results.len() < k {
            match self.buffer.first() {
                Some(top) if force || top.density.to_f64() >= ub - 1e-12 => {
                    self.results.push(self.buffer.remove(0));
                }
                _ => break,
            }
        }
    }

    fn run(&mut self, k: usize) {
        // Safety valve: the refinement loop provably terminates, but a
        // generous cap turns a logic regression into a loud failure
        // instead of a hang.
        let mut fuel = 64 * self.g.n() + 4096;
        while self.results.len() < k {
            assert!(
                {
                    fuel -= 1;
                    fuel > 0
                },
                "IPPV refinement loop exceeded its fuel budget — this is a bug"
            );
            self.flush_buffer(k, false);
            if self.results.len() >= k {
                break;
            }
            let cand = match self.stack.pop() {
                Some(c) => c,
                None => {
                    if self.stuck.is_empty() {
                        self.flush_buffer(k, true);
                        break;
                    }
                    // Escalate: merge all deferred candidates; their
                    // union covers whole remaining components, enabling
                    // the exact kill rule.
                    self.stats.escalations += 1;
                    let stuck = std::mem::take(&mut self.stuck);
                    let mut verts: Vec<VertexId> = Vec::new();
                    for c in &stuck {
                        verts.extend(self.live_verts(c));
                    }
                    verts.sort_unstable();
                    verts.dedup();
                    if verts.is_empty() {
                        self.flush_buffer(k, true);
                        break;
                    }
                    self.push_candidate(verts, true);
                    continue;
                }
            };
            let verts = self.live_verts(&cand);
            if verts.is_empty() {
                continue;
            }
            let comps = components_within(self.g, &verts);
            if comps.len() > 1 {
                // split; each piece inherits the escalated flag (each is
                // a whole component of the remaining universe iff the
                // parent covered whole components)
                for comp in comps.into_iter().rev() {
                    self.push_candidate(comp, cand.escalated);
                }
                continue;
            }
            let comp = comps.into_iter().next().expect("nonempty candidate");
            self.process_component(comp, cand.escalated);
        }
        self.flush_buffer(k, self.stack.is_empty() && self.stuck.is_empty());
    }

    fn process_component(&mut self, comp: Vec<VertexId>, escalated: bool) {
        self.stats.local_decompositions += 1;
        // One reusable network serves the component's whole Goldberg
        // ladder (every ρ-probe of the local densest decomposition).
        let decomp = {
            let sp = lhcds_obs::span("local-decompose");
            sp.counter("vertices", comp.len() as u64);
            let (inst, map) = local_instance(self.cliques, &comp);
            debug_assert_eq!(map, comp, "components are sorted and unique");
            InstanceSolver::with_reuse(inst, self.cfg.flow_reuse).densest_decomposition()
        };
        let Some((rho_star, members)) = decomp else {
            // No h-clique inside this component.
            if escalated {
                self.kill(&comp);
            } else {
                self.defer(comp);
            }
            return;
        };
        let u: Vec<VertexId> = comp
            .iter()
            .zip(&members)
            .filter(|&(_, &m)| m)
            .map(|(&v, _)| v)
            .collect();
        let rest: Vec<VertexId> = {
            let mut in_u = vec![false; self.g.n()];
            for &v in &u {
                in_u[v as usize] = true;
            }
            comp.iter()
                .copied()
                .filter(|&v| !in_u[v as usize])
                .collect()
        };
        if !rest.is_empty() {
            // Extracting U breaks the whole-component property of rest.
            self.push_candidate(rest, false);
        }
        let mut in_comp = vec![false; self.g.n()];
        for &v in &comp {
            in_comp[v as usize] = true;
        }
        for m in components_within(self.g, &u) {
            self.verify_candidate(m, rho_star, &in_comp, escalated);
        }
    }

    /// Verifies one maximal locally-dense component `m` (density exactly
    /// `rho`, `ρ`-compact, connected — guaranteed by the local densest
    /// decomposition over the component marked in `in_comp`).
    ///
    /// On rejection the verifier hands back `X`, the maximal `ρ`-compact
    /// subgraph of `G` containing `m`. Every not-yet-found LhCDS `L`
    /// touching `m` satisfies `L ⊆ X` (its density is `≥ ρ`, so it is
    /// `ρ`-compact and merges with `X` unless contained), avoids output
    /// and killed vertices, and is connected — so `L` lives inside the
    /// connected component `C` of `X ∖ outputs` that contains `m`.
    /// Therefore:
    ///
    /// * if `C` offers no *eligible* vertex outside the decomposed
    ///   component, then `L ⊆ comp`, hence `d(L) ≤ ρ`; combined with
    ///   `m` being the maximal `ρ`-compact component of `comp` this
    ///   forces `L ⊆ m`, and `m` itself is not maximal — no such `L`
    ///   exists and `m`'s vertices are killed (exact);
    /// * otherwise `C` is pushed as a replacement candidate — strict
    ///   progress, since it co-locates `m` with new territory.
    fn verify_candidate(
        &mut self,
        m: Vec<VertexId>,
        rho: Ratio,
        in_comp: &[bool],
        escalated: bool,
    ) {
        self.stats.verifications += 1;
        let verdict = if self.cfg.fast_verify {
            let (verdict, info) =
                verify_fast(self.g, self.cliques, &m, rho, &self.bounds, &self.output);
            if info.shortcut_accept {
                self.stats.shortcut_accepts += 1;
            }
            if info.early_reject {
                self.stats.early_rejects += 1;
            }
            if info.used_flow {
                self.stats.flow_verifications += 1;
            }
            verdict
        } else {
            self.stats.flow_verifications += 1;
            let (g, cliques, reuse) = (self.g, self.cliques, self.cfg.flow_reuse);
            self.basic
                .get_or_insert_with(|| BasicVerifier::new(g, cliques, reuse))
                .verify(g, &m, rho)
        };
        match verdict {
            Verdict::Lhcds => {
                let count = (rho * Ratio::from_int(m.len() as i128)).num();
                debug_assert!(rho.den() == 1 || (m.len() as i128) % rho.den() == 0);
                for &v in &m {
                    self.output[v as usize] = true;
                    self.bounds.pin_exact(v as usize, rho);
                }
                self.buffer.push(Lhcds {
                    vertices: m,
                    density: rho,
                    clique_count: count as u64,
                });
            }
            Verdict::Superset(x) => {
                let x_live: Vec<VertexId> = x
                    .iter()
                    .copied()
                    .filter(|&v| !self.output[v as usize])
                    .collect();
                // connected component of X ∖ outputs containing m
                let c = components_within(self.g, &x_live)
                    .into_iter()
                    .find(|c| c.binary_search(&m[0]).is_ok())
                    .expect("m survives output removal");
                let grows = c.iter().any(|&v| {
                    let vi = v as usize;
                    !in_comp[vi] && !self.pruned[vi] && !self.killed[vi]
                });
                if !grows || escalated {
                    // No eligible growth beyond the decomposed component
                    // (or the component already covered everything the
                    // remaining universe connects to m): any LhCDS
                    // through m would be confined to the component and
                    // capped at its maximum density, forcing it to be m
                    // itself — which just failed. Exact kill.
                    self.kill(&m);
                } else if !self.failed_memo.insert((m.clone(), rho)) {
                    // Second failure with the same (m, ρ): absorption is
                    // cycling through output-adjacent territory. Defer m
                    // for exact whole-component (escalated) treatment.
                    self.defer(m);
                } else {
                    self.stats.absorptions += 1;
                    self.push_candidate(c, false);
                }
            }
        }
    }

    fn defer(&mut self, verts: Vec<VertexId>) {
        let id = self.next_id;
        self.next_id += 1;
        for &v in &verts {
            self.owner[v as usize] = id;
        }
        self.stuck.push(Candidate {
            id,
            verts,
            escalated: false,
        });
    }

    fn kill(&mut self, verts: &[VertexId]) {
        for &v in verts {
            self.killed[v as usize] = true;
            self.owner[v as usize] = NO_OWNER;
        }
        self.stats.killed_vertices += verts.len();
    }
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
    fn two_disjoint_triangles() {
        let g = CsrGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 5),
            ],
        );
        let res = top_k_lhcds(&g, 3, 5, &IppvConfig::default());
        assert_eq!(res.subgraphs.len(), 2);
        for s in &res.subgraphs {
            assert_eq!(s.density, Ratio::new(1, 3));
            assert_eq!(s.clique_count, 1);
            assert_eq!(s.vertices.len(), 3);
        }
        let mut all: Vec<u32> = res
            .subgraphs
            .iter()
            .flat_map(|s| s.vertices.clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 5, 6, 7]);
    }

    #[test]
    fn k5_beats_k4_disjoint() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        let g = b.build();
        let res = top_k_lhcds(&g, 3, 2, &IppvConfig::default());
        assert_eq!(res.subgraphs.len(), 2);
        assert_eq!(res.subgraphs[0].vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(res.subgraphs[0].density, Ratio::from_int(2));
        assert_eq!(res.subgraphs[1].vertices, vec![5, 6, 7, 8]);
        assert_eq!(res.subgraphs[1].density, Ratio::from_int(1));
    }

    #[test]
    fn bridged_k4_is_absorbed_not_reported() {
        // A K4 bridged to a K5 is not maximal at its own density (the
        // union is 1-compact), so only the K5 is an LhCDS. This
        // exercises the stuck→escalate→kill path of the driver.
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        b.add_edge(4, 5); // bridge, no new triangles
        let g = b.build();
        let res = top_k_lhcds(&g, 3, 5, &IppvConfig::default());
        assert_eq!(res.subgraphs.len(), 1);
        assert_eq!(res.subgraphs[0].vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(res.subgraphs[0].density, Ratio::from_int(2));
    }

    #[test]
    fn top_1_only() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[5, 6, 7, 8]);
        let g = b.build();
        let res = top_k_lhcds(&g, 3, 1, &IppvConfig::default());
        assert_eq!(res.subgraphs.len(), 1);
        assert_eq!(res.subgraphs[0].vertices, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn k6_is_single_lhcds_not_fragments() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4, 5]);
        let g = b.build();
        let res = top_k_lhcds(&g, 3, 5, &IppvConfig::default());
        assert_eq!(res.subgraphs.len(), 1);
        assert_eq!(res.subgraphs[0].vertices, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(res.subgraphs[0].density, Ratio::new(20, 6));
    }

    #[test]
    fn no_cliques_no_output() {
        // star graph: no triangle
        let g = CsrGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let res = top_k_lhcds(&g, 3, 3, &IppvConfig::default());
        assert!(res.subgraphs.is_empty());
    }

    #[test]
    fn h2_degenerates_to_lds() {
        // For h = 2 the density is m/n: K4 (6/4) vs triangle (3/3 = 1).
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3]);
        b.add_edge(4, 5).add_edge(5, 6).add_edge(6, 4);
        let g = b.build();
        let res = top_k_lhcds(&g, 2, 2, &IppvConfig::default());
        assert_eq!(res.subgraphs.len(), 2);
        assert_eq!(res.subgraphs[0].vertices, vec![0, 1, 2, 3]);
        assert_eq!(res.subgraphs[0].density, Ratio::new(6, 4));
        assert_eq!(res.subgraphs[1].vertices, vec![4, 5, 6]);
        assert_eq!(res.subgraphs[1].density, Ratio::from_int(1));
    }

    #[test]
    fn basic_and_fast_configs_agree() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[4, 5, 6, 7]);
        complete_on(&mut b, &[8, 9, 10]);
        b.add_edge(7, 8);
        let g = b.build();
        let fast = top_k_lhcds(&g, 3, 10, &IppvConfig::default());
        let basic = top_k_lhcds(
            &g,
            3,
            10,
            &IppvConfig {
                fast_verify: false,
                ..IppvConfig::default()
            },
        );
        assert_eq!(fast.subgraphs, basic.subgraphs);
    }

    #[test]
    fn overlapping_k5s_merge_into_one_region() {
        // Two K5s sharing vertex 4: the union is one connected dense
        // region; LhCDSes must be disjoint, so at most one of them can
        // survive as a fragment — the true answer is the maximal
        // 2-compact subgraph containing both (density = 20/9 < 2… check
        // against brute force in integration tests; here: disjointness
        // and verification sanity only).
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[4, 5, 6, 7, 8]);
        let g = b.build();
        let res = top_k_lhcds(&g, 3, 5, &IppvConfig::default());
        // outputs are pairwise disjoint
        let mut seen = vec![false; g.n()];
        for s in &res.subgraphs {
            for &v in &s.vertices {
                assert!(!seen[v as usize], "overlap at {v}");
                seen[v as usize] = true;
            }
        }
        // densities are non-increasing
        for w in res.subgraphs.windows(2) {
            assert!(w[0].density >= w[1].density);
        }
    }

    #[test]
    fn parallel_enumeration_matches_serial_pipeline() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[4, 5, 6, 7]);
        complete_on(&mut b, &[8, 9, 10]);
        b.add_edge(7, 8);
        let g = b.build();
        let serial = top_k_lhcds(&g, 3, 10, &IppvConfig::default());
        for t in [2usize, 4, 8] {
            let cfg = IppvConfig {
                parallelism: Parallelism::threads(t),
                ..IppvConfig::default()
            };
            let par = top_k_lhcds(&g, 3, 10, &cfg);
            assert_eq!(par.subgraphs, serial.subgraphs, "threads={t}");
            assert_eq!(par.stats.clique_count, serial.stats.clique_count);
        }
    }

    /// The reuse tier is invisible in the outputs, for both verifier
    /// families. (The work-counter side of the contract — fewer
    /// networks than ρ-probes — lives in tests/flow_reuse.rs, whose
    /// process owns the global flow counters.)
    #[test]
    fn flow_reuse_is_invisible_in_outputs() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        complete_on(&mut b, &[4, 5, 6, 7]);
        complete_on(&mut b, &[8, 9, 10]);
        b.add_edge(7, 8).add_edge(10, 11);
        let g = b.build();
        for fast in [true, false] {
            let mk = |flow_reuse: FlowReuse| IppvConfig {
                fast_verify: fast,
                flow_reuse,
                ..IppvConfig::default()
            };
            let scratch = top_k_lhcds(&g, 3, 10, &mk(FlowReuse::Scratch));
            let ggt = top_k_lhcds(&g, 3, 10, &mk(FlowReuse::Ggt));
            assert_eq!(ggt.subgraphs, scratch.subgraphs, "fast={fast}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let mut b = GraphBuilder::new();
        complete_on(&mut b, &[0, 1, 2, 3, 4]);
        b.add_edge(4, 5).add_edge(5, 6);
        let g = b.build();
        let res = top_k_lhcds(&g, 3, 1, &IppvConfig::default());
        let st = &res.stats;
        assert_eq!(st.h, 3);
        assert_eq!(st.clique_count, 10);
        assert!(st.verifications >= 1);
        assert!(st.initial_candidates >= 1);
    }

    #[test]
    #[should_panic(expected = "h >= 2")]
    fn h1_rejected() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 2)]);
        top_k_lhcds(&g, 1, 1, &IppvConfig::default());
    }

    #[test]
    fn k_zero_returns_empty() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let res = top_k_lhcds(&g, 3, 0, &IppvConfig::default());
        assert!(res.subgraphs.is_empty());
    }
}
