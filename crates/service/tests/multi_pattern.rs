//! One daemon hosts one graph under several patterns: every pattern's
//! answers are identical to a fresh `top_k_lhxpds` run, and serving
//! them is flow-free.
//!
//! The max-flow counter is process-wide, so this test has its own
//! integration-test binary: no other test runs flows while it measures.

use std::collections::BTreeMap;
use std::time::Duration;

use lhcds_core::index::IndexConfig;
use lhcds_core::pipeline::IppvConfig;
use lhcds_graph::VertexId;
use lhcds_service::client;
use lhcds_service::protocol::{topk_result, AnswerRow, IndexRef, Request};
use lhcds_service::server::{ServeOptions, ServedIndexes, Server};

const TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn daemon_hosts_one_graph_under_many_patterns() {
    use lhcds_patterns::{build_pattern_index, top_k_lhxpds, Pattern};

    let g = lhcds_data::figure2_graph();
    let cfg = IndexConfig {
        k_max: 8,
        ..IndexConfig::default()
    };
    let patterns = [Pattern::Triangle, Pattern::Cycle4, Pattern::Star3];

    // Build the served indexes AND the fresh reference answers first —
    // both run flow; the serving phase afterwards must not.
    let mut indexes = BTreeMap::new();
    for p in patterns {
        let idx = build_pattern_index(&g, p, &cfg);
        indexes.insert(idx.pattern().to_string(), idx);
    }
    let mut fresh_topk = Vec::new(); // (pattern, k) -> rendered batch json
    let mut fresh_full = Vec::new(); // pattern -> full decomposition
    for p in patterns {
        for k in 1..=8usize {
            let fresh = top_k_lhxpds(&g, p, k, &IppvConfig::default());
            let ids = |v: VertexId| u64::from(v);
            let batch = topk_result(
                p.arity(),
                k,
                fresh.subgraphs.iter().map(|s| AnswerRow {
                    vertices: &s.vertices,
                    density: s.density,
                    clique_count: s.clique_count,
                }),
                &ids,
            );
            fresh_topk.push((p, k, batch.render()));
        }
        fresh_full.push((p, top_k_lhxpds(&g, p, usize::MAX, &IppvConfig::default())));
    }

    let served = ServedIndexes {
        name: "multi".into(),
        n: g.n(),
        m: g.m(),
        original_ids: None,
        indexes,
        failed: BTreeMap::new(),
    };
    let server = Server::bind("127.0.0.1:0", served, &ServeOptions::default()).unwrap();
    let addr = server.local_addr().to_string();
    let flow_before = lhcds_flow::max_flow_invocations();

    for (p, k, expected) in &fresh_topk {
        let got = client::query(
            &addr,
            &Request::TopK {
                index: IndexRef::pattern(p.to_string()),
                k: *k,
            },
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(got.render(), *expected, "{p} k={k}");
    }
    for (p, full) in &fresh_full {
        let mut expected_rank: Vec<Option<usize>> = vec![None; g.n()];
        let mut expected_density: Vec<Option<String>> = vec![None; g.n()];
        for (rank, s) in full.subgraphs.iter().enumerate() {
            for &v in &s.vertices {
                expected_rank[v as usize] = Some(rank + 1);
                expected_density[v as usize] = Some(s.density.to_string());
            }
        }
        for v in 0..g.n() as u64 {
            let memb = client::query(
                &addr,
                &Request::Membership {
                    index: IndexRef::pattern(p.to_string()),
                    vertex: v,
                },
                TIMEOUT,
            )
            .unwrap();
            let got_rank = memb
                .get("subgraph")
                .and_then(|s| s.get("rank"))
                .and_then(|r| r.as_u64())
                .map(|r| r as usize);
            assert_eq!(got_rank, expected_rank[v as usize], "{p} vertex={v}");
            let dens = client::query(
                &addr,
                &Request::DensityOf {
                    index: IndexRef::pattern(p.to_string()),
                    vertex: v,
                },
                TIMEOUT,
            )
            .unwrap();
            let got_density = dens
                .get("density")
                .and_then(|d| d.as_str())
                .map(str::to_string);
            assert_eq!(got_density, expected_density[v as usize], "{p} vertex={v}");
        }
    }
    // the stats op lists every served pattern key
    let stats = client::query(&addr, &Request::Stats, TIMEOUT).unwrap();
    let keys: Vec<&str> = stats
        .get("patterns")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(keys, ["3-star", "4-loop", "clique.h3"]);

    assert_eq!(
        lhcds_flow::max_flow_invocations(),
        flow_before,
        "pattern serving must be flow-free"
    );
    server.shutdown_handle().shutdown();
    server.join();
}
