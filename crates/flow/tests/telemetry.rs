//! Exact work-counter contracts of the flow layer.
//!
//! The counters in [`lhcds_flow::stats`] are process-wide, so tests
//! asserting exact deltas must own their process: this file is a
//! dedicated integration-test binary, and its tests additionally
//! serialize through one mutex so the counters are quiet during every
//! measured region.

use std::sync::Mutex;

use lhcds_flow::{flow_stats, Dinic, GgtSolver, ParametricNetwork, SolveMode};

static COUNTERS: Mutex<()> = Mutex::new(());

#[test]
fn dinic_counts_networks_arcs_and_invocations() {
    let _quiet = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let before = flow_stats();
    let mut d = Dinic::new(3);
    d.add_edge(0, 1, 4);
    d.add_edge(1, 2, 4);
    d.max_flow(0, 2);
    d.reset_flow();
    d.max_flow(0, 2);
    let delta = flow_stats().since(&before);
    assert_eq!(delta.networks_built, 1);
    assert_eq!(delta.arcs_built, 2);
    assert_eq!(delta.max_flow_invocations, 2);
    assert_eq!(delta.warm_solves, 0, "plain Dinic is not parametric");
    assert_eq!(delta.retract_solves, 0);
    assert_eq!(delta.cold_solves(), 0);
}

#[test]
fn parametric_counts_builds_and_solve_modes() {
    let _quiet = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let before = flow_stats();
    // s=0, vertices {1, 2}, gadget node 3, t=4 — the Figure 6 shape in
    // miniature
    let mut pn = ParametricNetwork::new(5, 0, 4, 2);
    pn.add_static(1, 3, 2);
    pn.add_static(3, 2, 4);
    for (from, to) in [(0u32, 1u32), (0, 2), (1, 4), (2, 4)] {
        pn.add_parametric(from, to);
    }
    let scale = pn.scale_for(1);
    assert_eq!(pn.solve(scale, &[6, 6, 1, 1]), SolveMode::Cold);
    assert_eq!(pn.solve(scale, &[6, 6, 2, 2]), SolveMode::Warm);
    assert_eq!(pn.solve(scale, &[6, 6, 0, 0]), SolveMode::Retract); // decrease
    let d = flow_stats().since(&before);
    assert_eq!(d.networks_built, 1, "one Dinic for three solves");
    assert_eq!(d.arcs_built, 6);
    assert_eq!(d.max_flow_invocations, 3);
    assert_eq!(d.warm_solves, 1);
    assert_eq!(d.retract_solves, 1);
    // the only discard is the unavoidable first build: a decrease
    // retracts instead of resetting
    assert_eq!(d.cold_solves(), 1);
    assert_eq!(d.first_build, 1);
    assert_eq!(d.infeasible_reset, 0, "retract replaces every reset");
    assert!((d.warm_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
}

/// `ggt_max_depth` is a high-water gauge, not a monotone counter:
/// `since()` must carry the current mark through instead of subtracting
/// the snapshot (a delta of a deep pre-snapshot run minus itself would
/// report garbage — typically 0 — for any warm process).
#[test]
fn since_reports_ggt_depth_as_gauge_not_delta() {
    let _quiet = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    // deep run first: four distinct levels force nested interval splits
    let mut deep = GgtSolver::new(6, 0, 5, 1);
    deep.ladder_node(1, 24, 2);
    deep.ladder_node(2, 12, 2);
    deep.ladder_node(3, 6, 2);
    deep.ladder_node(4, 2, 2);
    assert_eq!(deep.principal_partition().len(), 4);
    let high_water = flow_stats().ggt_max_depth;
    assert!(high_water >= 2, "deep ladder should recurse: {high_water}");

    // snapshot, then strictly shallower work
    let before = flow_stats();
    let mut shallow = GgtSolver::new(4, 0, 3, 1);
    shallow.ladder_node(1, 4, 2);
    shallow.ladder_node(2, 4, 2); // same level → no split at all
    assert_eq!(shallow.principal_partition().len(), 1);

    let d = flow_stats().since(&before);
    assert_eq!(
        d.ggt_max_depth, high_water,
        "since() must report the process high-water mark, not a subtraction"
    );
    // while genuine counters in the same interval still delta normally
    assert_eq!(d.networks_built, 1);
    assert_eq!(
        d.max_flow_invocations,
        d.warm_solves + d.retract_solves + d.cold_solves()
    );
}

/// Satellite contract: every `FlowStats` update site is a `fetch_*`
/// atomic RMW, so the accounting invariant `invocations = warm +
/// retract + cold` holds exactly even with solvers racing on the
/// process-wide counters — no lost updates.
#[test]
fn counters_hold_under_four_concurrent_ladders() {
    let _quiet = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let before = flow_stats();
    std::thread::scope(|scope| {
        for w in 0..4u32 {
            scope.spawn(move || {
                // each worker owns a solver; only the global counters
                // are shared
                let mut g = GgtSolver::new(5, 0, 4, 1);
                g.ladder_node(1, 12 + i128::from(w), 2);
                g.ladder_node(2, 6, 2);
                g.ladder_node(3, 2, 2);
                let part = g.principal_partition();
                assert!(!part.is_empty());

                let mut pn = ParametricNetwork::new(4, 0, 3, 2);
                pn.add_static(1, 2, 3);
                for (from, to) in [(0u32, 1u32), (0, 2), (1, 3), (2, 3)] {
                    pn.add_parametric(from, to);
                }
                let scale = pn.scale_for(1);
                pn.solve(scale, &[4, 4, 1, 1]);
                pn.solve(scale, &[4, 4, 2, 2]);
                pn.solve(scale, &[4, 4, 1, 1]);
            });
        }
    });
    let d = flow_stats().since(&before);
    assert_eq!(d.networks_built, 8, "one GGT + one parametric per worker");
    assert_eq!(d.first_build, 8);
    assert!(d.max_flow_invocations >= 8 + 4 * 3);
    assert!(d.warm_solves >= 4, "each worker warm-solves at least once");
    assert!(d.retract_solves >= 4);
    assert_eq!(
        d.max_flow_invocations,
        d.warm_solves + d.retract_solves + d.cold_solves(),
        "the accounting invariant must survive 4 concurrent solvers"
    );
}

#[test]
fn ggt_partition_builds_one_network_and_counts_recursions() {
    let _quiet = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let before = flow_stats();
    // two independent levels → at least one interval split
    let mut g = GgtSolver::new(4, 0, 3, 1);
    g.ladder_node(1, 6, 2);
    g.ladder_node(2, 2, 2);
    let part = g.principal_partition();
    assert_eq!(part.len(), 2);
    let d = flow_stats().since(&before);
    assert_eq!(d.networks_built, 1, "the whole ladder shares one network");
    assert_eq!(d.first_build, 1);
    assert_eq!(d.infeasible_reset, 0, "GGT never resets");
    assert!(d.ggt_recursions >= 1);
    assert!(d.ggt_max_depth >= 1);
    assert!(
        d.ggt_arcs_saved >= d.arcs_built,
        "every re-solve after the first saves a rebuild"
    );
    assert_eq!(
        d.max_flow_invocations,
        d.warm_solves + d.retract_solves + d.cold_solves(),
        "every parametric solve is classified"
    );
}
