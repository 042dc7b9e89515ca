//! A threaded request actually takes the threaded path
//! (`parallel_collect_invocations` rises) while serial never does.
//!
//! The collect counter is process-wide, so this test has its own
//! integration-test binary: no other test runs a parallel collect while
//! it measures.

use lhcds_clique::{parallel_collect_invocations, Parallelism};
use lhcds_patterns::{enumerate_pattern_with, CustomPattern, Pattern};

/// Pins that a requested thread policy is *honored*, not silently
/// dropped to serial: a threads(4) enumeration must take the threaded
/// block-collect path (the process-wide counter rises), while serial
/// enumeration never touches it.
#[test]
fn parallelism_is_honored_not_dropped() {
    let g = lhcds_data::figure2_graph();
    let patterns = [
        Pattern::Triangle, // kClist collect path
        Pattern::Star3,
        Pattern::Path4,
        Pattern::TailedTriangle,
        Pattern::Cycle4,
        Pattern::Diamond, // bespoke par_collect_blocks paths
    ];
    for p in patterns {
        let before = parallel_collect_invocations();
        enumerate_pattern_with(&g, p, &Parallelism::serial());
        assert_eq!(
            parallel_collect_invocations(),
            before,
            "{}: serial enumeration took the threaded path",
            p.key()
        );
        enumerate_pattern_with(&g, p, &Parallelism::threads(4));
        assert!(
            parallel_collect_invocations() > before,
            "{}: threads(4) was silently dropped to serial",
            p.key()
        );
    }
    // the custom backtracker shards through the same collect
    let c5 = CustomPattern::new("c5", 5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
    let before = parallel_collect_invocations();
    c5.enumerate(&g);
    assert_eq!(parallel_collect_invocations(), before);
    c5.enumerate_with(&g, &Parallelism::threads(4));
    assert!(parallel_collect_invocations() > before);
}
