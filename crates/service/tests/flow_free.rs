//! Serving answers is **flow-free**: once the indexes are built, the
//! query path never invokes Dinic (checked with
//! `lhcds_flow::max_flow_invocations`).
//!
//! The max-flow counter is process-wide, so this test has its own
//! integration-test binary: no other test runs flows while it measures.

use std::collections::BTreeMap;
use std::time::Duration;

use lhcds_core::index::{DecompositionIndex, IndexConfig};
use lhcds_graph::CsrGraph;
use lhcds_service::client;
use lhcds_service::protocol::{IndexRef, Request};
use lhcds_service::server::{ServeOptions, ServedIndexes, Server};

const TIMEOUT: Duration = Duration::from_secs(10);

fn served_for(g: &CsrGraph, hs: &[usize], k_max: usize) -> ServedIndexes {
    let cfg = IndexConfig {
        k_max,
        ..IndexConfig::default()
    };
    let mut indexes = BTreeMap::new();
    for &h in hs {
        let idx = DecompositionIndex::build(g, h, &cfg);
        indexes.insert(idx.pattern().to_string(), idx);
    }
    ServedIndexes {
        name: "test".into(),
        n: g.n(),
        m: g.m(),
        original_ids: None,
        indexes,
        failed: BTreeMap::new(),
    }
}

#[test]
fn serving_is_flow_free_end_to_end() {
    let g = lhcds_data::figure2_graph();
    // Build everything (the only flow-using phase) first…
    let served = served_for(&g, &[2, 3], 8);
    let server = Server::bind("127.0.0.1:0", served, &ServeOptions::default()).unwrap();
    let addr = server.local_addr().to_string();

    // …then snapshot the max-flow counter and hammer the server.
    let flow_before = lhcds_flow::max_flow_invocations();
    for h in [2usize, 3] {
        for k in 1..=8usize {
            let r = client::query(
                &addr,
                &Request::TopK {
                    index: IndexRef::clique(h),
                    k,
                },
                TIMEOUT,
            )
            .unwrap();
            assert!(r.get("found").unwrap().as_u64().unwrap() <= k as u64);
        }
        for v in 0..g.n() as u64 {
            client::query(
                &addr,
                &Request::DensityOf {
                    index: IndexRef::clique(h),
                    vertex: v,
                },
                TIMEOUT,
            )
            .unwrap();
            client::query(
                &addr,
                &Request::Membership {
                    index: IndexRef::clique(h),
                    vertex: v,
                },
                TIMEOUT,
            )
            .unwrap();
        }
    }
    client::query(&addr, &Request::Stats, TIMEOUT).unwrap();
    assert_eq!(
        lhcds_flow::max_flow_invocations(),
        flow_before,
        "the query path must never touch the flow network"
    );

    server.shutdown_handle().shutdown();
    server.join();
}
