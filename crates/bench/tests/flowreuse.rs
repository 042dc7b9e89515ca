//! The `flowreuse` experiment end-to-end on tiny workloads.
//!
//! Lives in its own integration-test binary (not the lib's unit tests)
//! because the experiment asserts exact process-wide flow-counter
//! relations — scratch mode must build exactly one network per
//! max-flow — which only hold when no sibling test runs flow work in
//! the same process.

use lhcds_bench::experiments::{flowreuse_on, ExpOptions};

#[test]
fn flowreuse_records_a_json_baseline_and_enforces_identity() {
    let dir = std::env::temp_dir().join("lhcds_bench_flowreuse_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let tiny = vec![
        ("figure2_tiny", lhcds::data::figure2_graph(), 3usize),
        ("gnp_tiny_h4", lhcds::data::gen::gnp(24, 0.4, 7), 4usize),
    ];
    // 3 appears in neither the default threads axis (1/4) nor either h,
    // so its rows can only come from the --threads plumbing
    let out = flowreuse_on(
        &ExpOptions {
            threads: 3,
            ..ExpOptions::default()
        },
        tiny,
        &dir,
    );
    assert!(out.contains("baseline recorded"), "{out}");
    assert!(out.contains("| figure2_tiny "), "{out}");
    assert!(out.contains("| scratch "), "{out}");
    assert!(!out.contains("| warm "), "{out}");
    assert!(out.contains("| ggt "), "{out}");
    let json = std::fs::read_to_string(dir.join("BENCH_flow.json")).unwrap();
    for key in [
        "\"experiment\": \"flowreuse\"",
        "\"host_parallelism\"",
        "\"recorded_on_single_cpu\"",
        "\"speedup_meaningful\"",
        "\"graph\": \"figure2_tiny\"",
        "\"mode\": \"scratch\"",
        "\"mode\": \"ggt\"",
        "\"h\": 4",
        "\"threads\": 1",
        "\"threads\": 4",
        "\"threads\": 3",
        "\"ladder_wall_ms\"",
        "\"pipeline_wall_ms\"",
        "\"pipeline_speedup_vs_serial\"",
        "\"max_flow_invocations\"",
        "\"networks_built\"",
        "\"arcs_built\"",
        "\"warm_solves\"",
        "\"retract_solves\"",
        "\"cold_solves\"",
        "\"ggt_recursions\"",
        "\"warm_hit_rate\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // the honesty stamp: speedup columns recorded on a 1-CPU host are
    // machine-readably flagged as not meaningful
    let single = json.contains("\"recorded_on_single_cpu\": true");
    assert_eq!(
        json.contains("\"speedup_meaningful\": false"),
        single,
        "speedup_meaningful must negate recorded_on_single_cpu: {json}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
