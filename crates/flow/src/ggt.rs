//! Gallo–Grigoriadis–Tarjan divide-and-conquer over the principal
//! partition of a parametric network.
//!
//! ## The parametric family
//!
//! A [`GgtSolver`] owns one [`ParametricNetwork`] whose *ladder nodes*
//! each carry two terminal arcs: a constant-capacity source arc
//! `s → v` (capacity `src_cap`, expressed at the base scale) and a
//! sink arc `v → t` whose capacity grows linearly with the parameter,
//! `λ · slope`. Arbitrary static arcs connect ladder nodes and any
//! auxiliary gadget nodes. This is exactly the shape of the LhCDS
//! instance networks (Figure 6 of the paper): `src_cap` is the
//! clique-degree, `slope = h`, and the gadget nodes are the h-cliques.
//!
//! As λ grows, source capacities are constant and sink capacities
//! non-decreasing, so the canonical *maximal* min-cut source side
//! `S_max(λ)` can only shrink — the GGT monotone regime. Each node `v`
//! therefore has a single breakpoint `λ_v = max { λ : v ∈ S_max(λ) }`,
//! and the nested family of distinct `S_max` values is the network's
//! *principal partition*. For the LhCDS instance network the
//! breakpoints are precisely the marginal densities of the dense
//! decomposition and the partition classes are its levels.
//!
//! ## One flow, never reset
//!
//! [`GgtSolver::principal_partition`] recovers every breakpoint with a
//! divide-and-conquer over λ-intervals `[lo, hi]`:
//!
//! ```text
//! recurse(lo, S_max(lo), hi, S_max(hi)):
//!   stop if the interval's cut lines meet at a single breakpoint
//!   λ* ← crossing of the two cut lines          (exact rational)
//!   pin S_max(hi) → source, V ∖ S_max(lo) → sink   ("contraction")
//!   solve at λ* on the shared network            (retract, not reset)
//!   recurse(λ*, hi) first — λ only grows: warm starts
//!   recurse(lo, λ*) after — λ drops back: flow retraction
//! ```
//!
//! Every solve runs on the *same* [`ParametricNetwork`], whose
//! [`ParametricNetwork::solve`] never throws the flow away: λ
//! increases rescale and keep it, λ decreases cancel only the
//! infeasible excess along its own flow paths. Pinning substitutes for
//! GGT's graph contraction: an already-decided side keeps an infinite
//! terminal arc, so the solver never cuts through it again and the
//! remaining work concentrates on the undecided `S_max(lo) ∖ S_max(hi)`
//! strip — which shrinks strictly on every split. A run therefore
//! builds exactly **one** network and performs at most `2·(levels)`
//! cheap incremental solves, versus one full network + solve per probe
//! for the rebuild-per-probe ladder. [`crate::flow_stats`] reports the
//! recursion telemetry (`ggt_*` counters).
//!
//! Correctness is structural, not numeric: pinned solves return the
//! same canonical maximal side the unpinned network would (pinning a
//! subset of `S_max` to the source, or of its complement to the sink,
//! changes no pin-respecting cut value and `S_max` respects the pins),
//! and the interval endpoints' cut lines are exact rationals, so the
//! emitted ladder is bit-identical to the rebuild-per-probe one.
//!
//! ## Parallel recursion
//!
//! After a strict split at λ* the `[λ*, hi]` and `[lo, λ*]` halves are
//! independent subproblems: each solves only inside its own undecided
//! strip (everything else is pinned) and neither reads the other's
//! results. [`GgtSolver::principal_partition_par`] therefore forks the
//! lower half onto a [`std::thread::scope`] worker with a *clone* of
//! the solver — clone-on-fork of the shared never-reset flow, so the
//! spawned branch starts from the exact residual state the serial
//! recursion would have mutated in place — while the current thread
//! continues into the upper half. A shared fork budget caps live
//! workers at the requested thread count and splits whose strips fall
//! below [`GgtSolver::set_fork_threshold`] stay serial. Because every
//! solve returns the canonical maximal side regardless of the retained
//! flow it starts from, and the lower half's breakpoints are appended
//! after the upper half's exactly as in the serial walk, the emitted
//! ladder is byte-identical at every thread count.

use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::parametric::ParametricNetwork;
use crate::rational::Ratio;
use crate::stats;

/// How the verification stack treats flow networks across density
/// probes — the `IppvConfig::flow_reuse` A/B tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowReuse {
    /// Rebuild a fresh network for every probe: the reference cost
    /// model the work counters and equivalence suites compare against.
    Scratch,
    /// Full GGT: never reset a flow — retract on decreases — and drive
    /// the decomposition ladder by principal-partition recursion on one
    /// shared network (the default).
    #[default]
    Ggt,
}

impl FromStr for FlowReuse {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scratch" => Ok(FlowReuse::Scratch),
            "ggt" => Ok(FlowReuse::Ggt),
            other => Err(format!(
                "unknown flow-reuse tier {other:?} (expected scratch or ggt)"
            )),
        }
    }
}

impl std::fmt::Display for FlowReuse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FlowReuse::Scratch => "scratch",
            FlowReuse::Ggt => "ggt",
        })
    }
}

/// A ladder node's bookkeeping inside the shared network.
#[derive(Debug, Clone)]
struct LadderNode {
    /// Network node id.
    node: u32,
    /// `add_parametric` index of the `s → node` arc.
    src_idx: usize,
    /// `add_parametric` index of the `node → t` arc.
    sink_idx: usize,
    /// Source capacity at the base scale (constant in λ).
    src_cap: i128,
    /// Sink capacity per unit of λ.
    slope: i128,
}

/// Smallest undecided strip (on both sides of a split) worth forking a
/// worker for: below this, cloning the network costs more than the
/// remaining solves.
const DEFAULT_FORK_MIN_STRIP: usize = 32;

/// GGT principal-partition solver. Build the network with
/// [`GgtSolver::ladder_node`] / [`GgtSolver::add_static`], then call
/// [`GgtSolver::principal_partition`]. See the module docs.
#[derive(Debug, Clone)]
pub struct GgtSolver {
    pn: ParametricNetwork,
    nodes: Vec<LadderNode>,
    /// Σ static base capacities, for the per-solve infinity bound.
    static_base_total: i128,
    /// Arcs in the shared network (ladder + static), for telemetry.
    arcs_total: u64,
    solves: u64,
    /// Minimum strip size for a parallel fork (see module docs).
    fork_min_strip: usize,
}

impl GgtSolver {
    /// Creates a solver over a network with `nodes` nodes, terminals
    /// `s != t`, and the given positive base scale for static and
    /// source capacities.
    pub fn new(nodes: usize, s: u32, t: u32, base_scale: i128) -> Self {
        GgtSolver {
            pn: ParametricNetwork::new(nodes, s, t, base_scale),
            nodes: Vec::new(),
            static_base_total: 0,
            arcs_total: 0,
            solves: 0,
            fork_min_strip: DEFAULT_FORK_MIN_STRIP,
        }
    }

    /// Overrides the minimum undecided-strip size below which
    /// [`GgtSolver::principal_partition_par`] keeps a split serial
    /// instead of forking a worker. Mostly for tests and tuning; the
    /// result never depends on it.
    pub fn set_fork_threshold(&mut self, min_strip: usize) {
        self.fork_min_strip = min_strip.max(1);
    }

    /// Registers network node `node` as a ladder node with the given
    /// source capacity (at the base scale) and sink slope, adding both
    /// terminal arcs. Returns the ladder index used in
    /// [`GgtSolver::principal_partition`] masks.
    ///
    /// # Panics
    /// Panics on a non-positive slope or negative source capacity.
    pub fn ladder_node(&mut self, node: u32, src_cap: i128, slope: i128) -> usize {
        assert!(slope > 0, "ladder slope must be positive");
        assert!(src_cap >= 0, "negative source capacity");
        let (s, t) = self.pn.terminals();
        let src_idx = self.pn.add_parametric(s, node);
        let sink_idx = self.pn.add_parametric(node, t);
        self.arcs_total += 2;
        self.nodes.push(LadderNode {
            node,
            src_idx,
            sink_idx,
            src_cap,
            slope,
        });
        self.nodes.len() - 1
    }

    /// Adds a λ-independent arc with the given capacity at the base
    /// scale (gadget arcs, boundary credits, …).
    pub fn add_static(&mut self, from: u32, to: u32, base_cap: i128) {
        self.pn.add_static(from, to, base_cap);
        self.static_base_total = self.static_base_total.saturating_add(base_cap);
        self.arcs_total += 1;
    }

    /// Number of registered ladder nodes.
    pub fn ladder_len(&self) -> usize {
        self.nodes.len()
    }

    /// Σ slopes over the masked ladder nodes — the λ-coefficient of the
    /// masked side's cut line.
    fn weight(&self, mask: &[bool]) -> i128 {
        self.nodes
            .iter()
            .zip(mask)
            .filter(|&(_, &m)| m)
            .map(|(ln, _)| ln.slope)
            .sum()
    }

    /// Solves the shared network at λ = `lam` with the given ladder
    /// pins and returns the (unscaled, exact) min-cut value plus the
    /// maximal source side restricted to ladder indices.
    fn solve_at(&mut self, lam: Ratio, src_pin: &[bool], sink_pin: &[bool]) -> (Ratio, Vec<bool>) {
        let scale = self.pn.scale_for(lam.den());
        let factor = scale / self.pn.base_scale();
        // A per-solve "infinity": strictly more than every finite cut.
        let mut finite = self.static_base_total.saturating_mul(factor);
        for ln in &self.nodes {
            let tc = (lam * Ratio::from_int(ln.slope)).scale_to_int(scale);
            finite = finite
                .saturating_add(ln.src_cap.saturating_mul(factor))
                .saturating_add(tc);
        }
        let inf = finite.saturating_add(1);
        let mut caps = vec![0i128; self.pn.param_count()];
        let mut pinned = 0u64;
        for (i, ln) in self.nodes.iter().enumerate() {
            debug_assert!(!(src_pin[i] && sink_pin[i]), "node pinned to both sides");
            pinned += (src_pin[i] || sink_pin[i]) as u64;
            caps[ln.src_idx] = if src_pin[i] { inf } else { ln.src_cap * factor };
            caps[ln.sink_idx] = if sink_pin[i] {
                inf
            } else {
                (lam * Ratio::from_int(ln.slope)).scale_to_int(scale)
            };
        }
        self.pn.solve(scale, &caps);
        self.solves += 1;
        if self.solves > 1 {
            // what a rebuild-per-probe ladder would have constructed
            stats::GGT_ARCS_SAVED.fetch_add(self.arcs_total, Ordering::Relaxed);
        }
        stats::GGT_CONTRACTED_NODES.fetch_add(pinned, Ordering::Relaxed);
        let full = self.pn.max_cut_source_side();
        let mask = self.nodes.iter().map(|ln| full[ln.node as usize]).collect();
        (Ratio::new(self.pn.flow_value(), scale), mask)
    }

    /// Computes the principal partition: `(λ_v, class)` pairs in
    /// strictly descending breakpoint order, where each class is the
    /// ladder-index mask of the nodes with that exact breakpoint. The
    /// classes are disjoint and their union is `S_max(0)`'s ladder part
    /// (a node outside it — reachable to `t` at λ = 0 — never appears).
    pub fn principal_partition(&mut self) -> Vec<(Ratio, Vec<bool>)> {
        self.principal_partition_par(1)
    }

    /// [`GgtSolver::principal_partition`] with up to `threads` workers
    /// for the divide-and-conquer: after each strict split the lower
    /// λ-interval runs on a scoped worker holding a clone of the solver
    /// (retained flow included) while the current thread descends into
    /// the upper interval. Output is byte-identical at every thread
    /// count; see the module docs for why.
    pub fn principal_partition_par(&mut self, threads: usize) -> Vec<(Ratio, Vec<bool>)> {
        let n = self.nodes.len();
        if n == 0 {
            return Vec::new();
        }
        let sp = lhcds_obs::span("flow-ladder");
        let no_pins = vec![false; n];
        // Base of the ladder: the λ = 0 maximal side.
        let (val0, mask0) = self.solve_at(Ratio::zero(), &no_pins, &no_pins);
        // Its complement can be sink-pinned for every λ ≥ 0.
        let sink0: Vec<bool> = mask0.iter().map(|&b| !b).collect();
        // Find the top of the ladder by doubling λ — monotone increases,
        // so each step warm-starts — until the maximal side empties.
        let mut hi = Ratio::from_int(1);
        let (mut val_hi, mut mask_hi) = self.solve_at(hi, &no_pins, &sink0);
        while mask_hi.iter().any(|&b| b) {
            hi = hi * Ratio::from_int(2);
            (val_hi, mask_hi) = self.solve_at(hi, &no_pins, &sink0);
        }
        let (w0, w_hi) = (self.weight(&mask0), self.weight(&mask_hi));
        let c0 = val0; // line value at λ = 0
        let c_hi = val_hi - hi * Ratio::from_int(w_hi);
        let mut out = Vec::new();
        // Fork budget: how many *additional* workers may be live at
        // once. Claimed before each spawn, released after its join, so
        // nested forks across both halves share the same cap.
        let budget = AtomicUsize::new(threads.max(1) - 1);
        self.recurse(
            (Ratio::zero(), mask0, c0, w0),
            (hi, mask_hi, c_hi, w_hi),
            1,
            &mut out,
            &budget,
        );
        sp.counter("breakpoints", out.len() as u64);
        out
    }

    /// Divide and conquer on `[lo, hi]`; each endpoint carries its
    /// maximal side's exact cut line `(λ, mask, c, w)` with cut value
    /// `c + λ'·w`. Appends breakpoints in descending order.
    #[allow(clippy::type_complexity)]
    fn recurse(
        &mut self,
        lo: (Ratio, Vec<bool>, Ratio, i128),
        hi: (Ratio, Vec<bool>, Ratio, i128),
        depth: u64,
        out: &mut Vec<(Ratio, Vec<bool>)>,
        budget: &AtomicUsize,
    ) {
        let (lo_l, mask_lo, c_lo, w_lo) = lo;
        let (hi_l, mask_hi, c_hi, w_hi) = hi;
        if mask_lo == mask_hi {
            return;
        }
        stats::GGT_RECURSIONS.fetch_add(1, Ordering::Relaxed);
        stats::GGT_MAX_DEPTH.fetch_max(depth, Ordering::Relaxed);
        let diff: Vec<bool> = mask_lo
            .iter()
            .zip(&mask_hi)
            .map(|(&a, &b)| a && !b)
            .collect();
        // Where the endpoint cut lines cross. By maximality of the
        // endpoint sides it lies strictly below `hi`; at or below `lo`
        // concavity pins every strip node's breakpoint to exactly `lo`.
        let lam = (c_hi - c_lo) / Ratio::from_int(w_lo - w_hi);
        if lam <= lo_l {
            out.push((lo_l, diff));
            return;
        }
        debug_assert!(lam < hi_l);
        // Contract the decided sides and solve the strip at λ*.
        let sink_pin: Vec<bool> = mask_lo.iter().map(|&b| !b).collect();
        let (val, mask) = self.solve_at(lam, &mask_hi, &sink_pin);
        if val == c_lo + lam * Ratio::from_int(w_lo) {
            // Both endpoint lines are optimal at λ*: the envelope has a
            // single breakpoint here and the whole strip shares it.
            out.push((lam, diff));
            return;
        }
        // Otherwise the λ* side splits the strip strictly (were it
        // equal to either endpoint side, its cheaper line would have
        // beaten that endpoint's min cut at the endpoint's own λ).
        assert!(
            mask != mask_lo && mask != mask_hi,
            "GGT split side must be strictly between its endpoints"
        );
        let w = self.weight(&mask);
        let c = val - lam * Ratio::from_int(w);
        // Fork only when both halves' undecided strips are worth a
        // network clone and a worker slot is free.
        let upper_strip = mask.iter().zip(&mask_hi).filter(|&(&a, &b)| a && !b);
        let lower_strip = mask_lo.iter().zip(&mask).filter(|&(&a, &b)| a && !b);
        let fork = upper_strip.count() >= self.fork_min_strip
            && lower_strip.count() >= self.fork_min_strip
            && claim_fork_slot(budget);
        if fork {
            // Lower half on a worker with a clone of the solver — the
            // clone carries the post-λ* retained flow, exactly the
            // state the serial walk would hand to its lower recursion.
            let mut lower_solver = self.clone();
            let lower_lo = (lo_l, mask_lo, c_lo, w_lo);
            let lower_hi = (lam, mask.clone(), c, w);
            let lower_out = std::thread::scope(|scope| {
                let handle = scope.spawn(move || {
                    let mut acc = Vec::new();
                    lower_solver.recurse(lower_lo, lower_hi, depth + 1, &mut acc, budget);
                    acc
                });
                // Upper half on the current thread: λ keeps growing, so
                // those solves warm-start.
                self.recurse(
                    (lam, mask, c, w),
                    (hi_l, mask_hi, c_hi, w_hi),
                    depth + 1,
                    out,
                    budget,
                );
                handle.join().expect("GGT lower-branch worker panicked")
            });
            budget.fetch_add(1, Ordering::Relaxed);
            // Serial emission order: all upper breakpoints (larger λ)
            // first, then the lower half's.
            out.extend(lower_out);
            return;
        }
        // Upper half first: λ keeps growing, so those solves warm-start;
        // the later drop back below λ* retracts instead of resetting.
        self.recurse(
            (lam, mask.clone(), c, w),
            (hi_l, mask_hi, c_hi, w_hi),
            depth + 1,
            out,
            budget,
        );
        self.recurse(
            (lo_l, mask_lo, c_lo, w_lo),
            (lam, mask, c, w),
            depth + 1,
            out,
            budget,
        );
    }
}

/// Decrements the fork budget if a slot is free; the caller must
/// `fetch_add(1)` it back after joining the spawned worker.
fn claim_fork_slot(budget: &AtomicUsize) -> bool {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::Dinic;
    use crate::rational::lcm;

    #[test]
    fn flow_reuse_parses_and_displays() {
        for (s, v) in [("scratch", FlowReuse::Scratch), ("ggt", FlowReuse::Ggt)] {
            assert_eq!(s.parse::<FlowReuse>().unwrap(), v);
            assert_eq!(v.to_string(), s);
        }
        assert!("hot".parse::<FlowReuse>().is_err());
        assert!("warm".parse::<FlowReuse>().is_err());
        assert_eq!(FlowReuse::default(), FlowReuse::Ggt);
    }

    /// A hand-buildable spec: ladder nodes are 1.., s = 0, t = last.
    struct Spec {
        src: Vec<i128>,
        slope: Vec<i128>,
        statics: Vec<(usize, usize, i128)>, // ladder-index endpoints
    }

    impl Spec {
        fn solver(&self) -> GgtSolver {
            let n = self.src.len();
            let (s, t) = (0u32, (n + 1) as u32);
            let mut g = GgtSolver::new(n + 2, s, t, 1);
            for i in 0..n {
                let idx = g.ladder_node((i + 1) as u32, self.src[i], self.slope[i]);
                assert_eq!(idx, i);
            }
            for &(a, b, c) in &self.statics {
                g.add_static((a + 1) as u32, (b + 1) as u32, c);
            }
            g
        }

        /// Rebuild-per-probe reference: `S_max(lam)` from a fresh Dinic.
        fn smax_fresh(&self, lam: Ratio) -> Vec<bool> {
            let n = self.src.len();
            let (s, t) = (0u32, (n + 1) as u32);
            let scale = lcm(lam.den(), 1).max(1);
            let mut d = Dinic::new(n + 2);
            for i in 0..n {
                d.add_edge(s, (i + 1) as u32, self.src[i] * scale);
                let tc = (lam * Ratio::from_int(self.slope[i])).scale_to_int(scale);
                d.add_edge((i + 1) as u32, t, tc);
            }
            for &(a, b, c) in &self.statics {
                d.add_edge((a + 1) as u32, (b + 1) as u32, c * scale);
            }
            d.max_flow(s, t);
            let full = d.max_cut_source_side(t);
            (0..n).map(|i| full[i + 1]).collect()
        }

        /// Checks a computed partition against the fresh reference at
        /// every breakpoint (closed side) and between breakpoints.
        fn check(&self, part: &[(Ratio, Vec<bool>)]) {
            let n = self.src.len();
            // strictly descending, disjoint
            for w in part.windows(2) {
                assert!(w[0].0 > w[1].0);
            }
            let mut union = vec![false; n];
            for (_, m) in part {
                for (u, &b) in union.iter_mut().zip(m) {
                    assert!(!(*u && b), "classes overlap");
                    *u = *u || b;
                }
            }
            assert_eq!(union, self.smax_fresh(Ratio::zero()), "union is S_max(0)");
            // at λ_i the maximal side still contains class i and all
            // higher classes (the ε-probe boundary is closed)…
            let mut acc = vec![false; n];
            for (lam, m) in part {
                for (a, &b) in acc.iter_mut().zip(m) {
                    *a = *a || b;
                }
                assert_eq!(&self.smax_fresh(*lam), &acc, "at breakpoint {lam}");
                // …and just above it the class has dropped out
                let above = *lam + Ratio::new(1, 1_000_000);
                let sm = self.smax_fresh(above);
                for (i, &b) in m.iter().enumerate() {
                    assert!(!b || !sm[i], "node {i} survived past {lam}");
                }
            }
        }
    }

    #[test]
    fn single_node_breakpoint_is_exact() {
        let spec = Spec {
            src: vec![5],
            slope: vec![2],
            statics: vec![],
        };
        let part = spec.solver().principal_partition();
        assert_eq!(part, vec![(Ratio::new(5, 2), vec![true])]);
        spec.check(&part);
    }

    #[test]
    fn independent_nodes_get_their_own_levels() {
        let spec = Spec {
            src: vec![6, 2],
            slope: vec![2, 2],
            statics: vec![],
        };
        let part = spec.solver().principal_partition();
        assert_eq!(
            part,
            vec![
                (Ratio::from_int(3), vec![true, false]),
                (Ratio::from_int(1), vec![false, true]),
            ]
        );
        spec.check(&part);
    }

    #[test]
    fn degenerate_ladder_all_equal_is_one_level() {
        let spec = Spec {
            src: vec![4, 4, 4],
            slope: vec![2, 2, 2],
            statics: vec![],
        };
        let part = spec.solver().principal_partition();
        assert_eq!(part, vec![(Ratio::from_int(2), vec![true; 3])]);
        spec.check(&part);
    }

    #[test]
    fn a_heavy_static_arc_merges_levels() {
        // alone, node 0 drops at λ=3 and node 1 at λ=1; the arc between
        // them makes splitting expensive, so they drop together at the
        // average λ=2 — the densest-subgraph peeling effect.
        let spec = Spec {
            src: vec![3, 1],
            slope: vec![1, 1],
            statics: vec![(0, 1, 100)],
        };
        let part = spec.solver().principal_partition();
        assert_eq!(part, vec![(Ratio::from_int(2), vec![true, true])]);
        spec.check(&part);
    }

    #[test]
    fn zero_source_nodes_sit_at_breakpoint_zero() {
        let spec = Spec {
            src: vec![0, 7],
            slope: vec![3, 3],
            statics: vec![],
        };
        let part = spec.solver().principal_partition();
        assert_eq!(
            part,
            vec![
                (Ratio::new(7, 3), vec![false, true]),
                (Ratio::zero(), vec![true, false]),
            ]
        );
        spec.check(&part);
    }

    #[test]
    fn empty_ladder_yields_empty_partition() {
        let mut g = GgtSolver::new(2, 0, 1, 1);
        assert!(g.principal_partition().is_empty());
    }

    #[test]
    fn random_ladders_match_rebuild_per_probe() {
        let mut state = 0xC0FFEE123456789u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..25 {
            let n = 2 + (rng() % 4) as usize;
            let src: Vec<i128> = (0..n).map(|_| (rng() % 12) as i128).collect();
            let slope: Vec<i128> = (0..n).map(|_| 1 + (rng() % 3) as i128).collect();
            let mut statics = Vec::new();
            for a in 0..n {
                for b in 0..n {
                    if a != b && rng() % 3 == 0 {
                        statics.push((a, b, (rng() % 9) as i128));
                    }
                }
            }
            let spec = Spec {
                src,
                slope,
                statics,
            };
            let part = spec.solver().principal_partition();
            spec.check(&part);
        }
    }

    #[test]
    fn parallel_partition_is_byte_identical_to_serial() {
        // Force forking even on tiny strips so the scoped-worker path
        // actually runs: threshold 1 means every strict split with a
        // free slot forks.
        let mut state = 0x5EEDBEEF0DDC0DEu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..10 {
            let n = 4 + (rng() % 6) as usize;
            let src: Vec<i128> = (0..n).map(|_| (rng() % 20) as i128).collect();
            let slope: Vec<i128> = (0..n).map(|_| 1 + (rng() % 3) as i128).collect();
            let mut statics = Vec::new();
            for a in 0..n {
                for b in 0..n {
                    if a != b && rng() % 4 == 0 {
                        statics.push((a, b, (rng() % 7) as i128));
                    }
                }
            }
            let spec = Spec {
                src,
                slope,
                statics,
            };
            let serial = spec.solver().principal_partition();
            spec.check(&serial);
            for threads in [2usize, 4, 8] {
                let mut solver = spec.solver();
                solver.set_fork_threshold(1);
                let par = solver.principal_partition_par(threads);
                assert_eq!(
                    par, serial,
                    "round {round}: {threads}-thread partition diverged"
                );
            }
        }
    }

    #[test]
    fn fork_threshold_keeps_small_strips_serial() {
        // With the default threshold, a tiny ladder never forks, and a
        // 1-thread "parallel" call is the serial walk by construction.
        let spec = Spec {
            src: vec![6, 2, 9, 1],
            slope: vec![2, 2, 3, 1],
            statics: vec![(0, 1, 3), (2, 3, 1)],
        };
        let serial = spec.solver().principal_partition();
        assert_eq!(spec.solver().principal_partition_par(1), serial);
        assert_eq!(spec.solver().principal_partition_par(8), serial);
    }
}
