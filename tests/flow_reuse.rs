//! Workspace-level flow-reuse equivalence: the served artifacts
//! (`DecompositionIndex` contents, full decompositions, compact
//! numbers) are byte-identical across both `flow_reuse` tiers —
//! `scratch` (one network per probe) and `ggt` (one never-reset flow
//! per network, driving the whole ladder by principal-partition
//! recursion; the default) — on the paper's Figure 2 worked example, on
//! generated community graphs, and on a CM stand-in whose verify tail
//! decides most candidates by flow.

use lhcds::core::density::dense_decomposition_opts;
use lhcds::core::index::{DecompositionIndex, IndexConfig};
use lhcds::core::pipeline::{top_k_lhcds, IppvConfig};
use lhcds::core::FlowReuse;
use lhcds::data::datasets::by_abbr;
use lhcds::data::figure2_graph;
use lhcds::data::gen::planted_communities;
use lhcds::graph::CsrGraph;

const TIERS: [FlowReuse; 2] = [FlowReuse::Scratch, FlowReuse::Ggt];

fn cfg(flow_reuse: FlowReuse) -> IppvConfig {
    IppvConfig {
        flow_reuse,
        ..IppvConfig::default()
    }
}

fn check_graph(g: &CsrGraph, h: usize) {
    // full decomposition, both verifier families, scratch as baseline
    for fast in [true, false] {
        let mk = |reuse: FlowReuse| IppvConfig {
            fast_verify: fast,
            ..cfg(reuse)
        };
        let scratch = top_k_lhcds(g, h, usize::MAX, &mk(FlowReuse::Scratch));
        let ggt = top_k_lhcds(g, h, usize::MAX, &mk(FlowReuse::Ggt));
        assert_eq!(ggt.subgraphs, scratch.subgraphs, "h={h} fast={fast}");
    }
    // the frozen index: byte-identity of every serialized part
    let mk_index = |reuse: FlowReuse| {
        DecompositionIndex::build(
            g,
            h,
            &IndexConfig {
                ippv: cfg(reuse),
                ..IndexConfig::default()
            },
        )
    };
    assert_eq!(
        mk_index(FlowReuse::Ggt).as_parts(),
        mk_index(FlowReuse::Scratch).as_parts(),
        "h={h}: index parts diverged"
    );
    // the dense-decomposition ladder (exact compact numbers)
    let cliques = lhcds::clique::CliqueSet::enumerate(g, h);
    let a = dense_decomposition_opts(g, &cliques, FlowReuse::Scratch);
    let b = dense_decomposition_opts(g, &cliques, FlowReuse::Ggt);
    assert_eq!(a.levels, b.levels, "h={h}");
    assert_eq!(a.phi, b.phi, "h={h}");
}

#[test]
fn figure2_is_reuse_invariant_across_h() {
    let g = figure2_graph();
    for h in [2usize, 3, 4] {
        check_graph(&g, h);
    }
    // and the reuse default still reproduces the paper's top-1
    let res = top_k_lhcds(&g, 3, 1, &IppvConfig::default());
    assert_eq!(res.subgraphs[0].vertices, vec![11, 12, 13, 14, 15, 16]);
    assert_eq!(res.subgraphs[0].density.to_string(), "13/6");
}

#[test]
fn planted_communities_are_reuse_invariant() {
    let g = planted_communities(250, 3, &[(12, 0.9), (9, 0.95)], 0xACE);
    check_graph(&g, 3);
    // The verify tail: past the CM stand-in's planted communities most
    // candidates are decided by a flow over their closure `T` in the
    // low-density background — the regime where real runs spend their
    // time.
    let cm = by_abbr("CM")
        .expect("CM stand-in")
        .generate_scaled(0.05)
        .graph;
    let stats = top_k_lhcds(&cm, 3, usize::MAX, &IppvConfig::default()).stats;
    assert!(
        stats.flow_verifications * 2 > stats.verifications,
        "the tail must be flow-decided: {stats:?}"
    );
    check_graph(&cm, 3);
}

#[test]
fn all_tiers_parse_and_roundtrip_display() {
    for tier in TIERS {
        let parsed: FlowReuse = tier.to_string().parse().unwrap();
        assert_eq!(parsed, tier);
    }
    assert!("eager".parse::<FlowReuse>().is_err());
    assert!("warm".parse::<FlowReuse>().is_err());
}
