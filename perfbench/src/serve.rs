//! The serving layer under a closed loop: the workload's index behind a
//! loopback `Server` with two workers, driven by two persistent client
//! connections that each wait for a reply before sending the next
//! request. Every response must equal a direct read of the same index,
//! rendered by the protocol's own serializers.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lhcds::core::DecompositionIndex;
use lhcds::graph::{CsrGraph, VertexId};
use lhcds::service::protocol::{
    density_result, membership_result, ok_response, request_json, topk_result,
};
use lhcds::service::{AnswerRow, IndexRef, Json, Request, ServeOptions, ServedIndexes, Server};

use crate::check::Gate;
use crate::workload::SplitMix;

/// Worker threads of the server and client connections of the loop.
pub const CONNECTIONS: usize = 2;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One distinct request and the exact response line it must get.
pub struct Query {
    line: String,
    expected: String,
}

/// The request mix: ½ `top_k` (k ∈ 1..=k_max), ¼ `density_of`,
/// ¼ `membership`, with vertices drawn uniformly over the graph, as the
/// repo's `serve_qps` experiment draws them.
pub struct Mix {
    queries: Vec<Query>,
    plan: Vec<usize>,
    /// Share of the point (`density_of` / `membership`) requests in the
    /// plan whose vertex belongs to an LhCDS, so its `membership`
    /// response carries that subgraph's rows.
    pub member_frac: f64,
}

impl Mix {
    pub fn new(idx: &DecompositionIndex, k_max: usize, requests: usize, seed: u64) -> Mix {
        let mut rng = SplitMix::new(seed ^ 0x51_0AD);
        let h = idx.h();
        let index = IndexRef::clique(h);
        let ids = |v: VertexId| u64::from(v);
        let mut queries = Vec::new();
        for k in 1..=k_max {
            let views = idx.top_k(k).expect("k within the index's k_max");
            let rows = views.into_iter().map(AnswerRow::from);
            queries.push(query(
                Request::TopK {
                    index: index.clone(),
                    k,
                },
                ok_response(topk_result(h, k, rows, &ids)),
            ));
        }
        // (kind, vertex) -> position in `queries`; kind 0 is
        // `density_of`, 1 is `membership`
        let mut point: HashMap<(usize, VertexId), usize> = HashMap::new();
        let (mut points, mut members) = (0usize, 0usize);
        let plan = (0..requests)
            .map(|_| {
                let kind = rng.below(4);
                if kind < 2 {
                    return rng.below(k_max);
                }
                let v = rng.below(idx.n()) as VertexId;
                points += 1;
                members += usize::from(idx.membership(v).is_some());
                *point.entry((kind - 2, v)).or_insert_with(|| {
                    queries.push(point_query(idx, &index, kind - 2, v));
                    queries.len() - 1
                })
            })
            .collect();
        Mix {
            queries,
            plan,
            member_frac: crate::report::ratio(members as f64, points as f64),
        }
    }
}

/// A `density_of` (`kind` 0) or `membership` (`kind` 1) request for `v`
/// with the response a direct read of `idx` renders.
fn point_query(idx: &DecompositionIndex, index: &IndexRef, kind: usize, v: VertexId) -> Query {
    let h = idx.h();
    let vertex = u64::from(v);
    let index = index.clone();
    if kind == 0 {
        let expected = ok_response(density_result(h, vertex, idx.density_of(v)));
        return query(Request::DensityOf { index, vertex }, expected);
    }
    let found = idx
        .membership(v)
        .map(|view| (view.rank, AnswerRow::from(view)));
    let expected = ok_response(membership_result(h, vertex, found, &|v| u64::from(v)));
    query(Request::Membership { index, vertex }, expected)
}

fn query(req: Request, expected: String) -> Query {
    let mut line = request_json(&req).render();
    line.push('\n');
    Query { line, expected }
}

/// Binds a loopback server on `idx`; returns it with the bind time.
pub fn bind(g: &CsrGraph, idx: &DecompositionIndex) -> (Server, f64) {
    let mut served = ServedIndexes {
        name: "perfbench".into(),
        n: g.n(),
        m: g.m(),
        original_ids: None,
        indexes: BTreeMap::new(),
        failed: BTreeMap::new(),
    };
    served.insert(idx.clone());
    let opts = ServeOptions {
        workers: CONNECTIONS,
        ..ServeOptions::default()
    };
    let t = Instant::now();
    let server = Server::bind("127.0.0.1:0", served, &opts).expect("bind loopback");
    (server, t.elapsed().as_secs_f64())
}

/// Stops a server and waits for its threads.
pub fn stop(server: Server) {
    server.shutdown_handle().shutdown();
    server.join();
}

/// One closed-loop block.
pub struct Block {
    pub wall_s: f64,
    /// Client-side latency of every request, send to full response line.
    pub latencies_us: Vec<f64>,
    pub gate: Gate,
}

/// Runs the whole plan of `mix` once, split across the connections.
pub fn run_block(server: &Server, mix: &Mix) -> Block {
    let addr = server.local_addr();
    let start = Barrier::new(CONNECTIONS + 1);
    let (results, wall_s) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let start = &start;
                s.spawn(move || client(addr, mix, c, start))
            })
            .collect();
        start.wait();
        let t = Instant::now();
        let results: Vec<_> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (results, t.elapsed().as_secs_f64())
    });
    let mut block = Block {
        wall_s,
        latencies_us: Vec::with_capacity(mix.plan.len()),
        gate: Gate::default(),
    };
    for (latencies, gate) in results {
        block.latencies_us.extend(latencies);
        block.gate.merge(gate);
    }
    block
}

fn client(addr: std::net::SocketAddr, mix: &Mix, c: usize, start: &Barrier) -> (Vec<f64>, Gate) {
    let mut gate = Gate::default();
    let mine: Vec<usize> = mix
        .plan
        .iter()
        .copied()
        .skip(c)
        .step_by(CONNECTIONS)
        .collect();
    let mut latencies = Vec::with_capacity(mine.len());
    let connected = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(s.try_clone()?);
        Ok((s, reader))
    });
    start.wait();
    let (mut stream, mut reader) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            for _ in &mine {
                gate.record(false, || format!("connect: {e}"));
            }
            return (latencies, gate);
        }
    };
    let mut response = String::new();
    for (i, &q) in mine.iter().enumerate() {
        let query = &mix.queries[q];
        response.clear();
        let t = Instant::now();
        let sent = stream
            .write_all(query.line.as_bytes())
            .and_then(|()| reader.read_line(&mut response));
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
        let ok = matches!(sent, Ok(n) if n > 0) && response == query.expected;
        gate.record(ok, || {
            format!("request {:?} got {:?}", query.line.trim_end(), response)
        });
        if sent.is_err() {
            // the connection is gone: the rest of this client's share fails
            for _ in i + 1..mine.len() {
                gate.record(false, || "connection lost".into());
            }
            break;
        }
    }
    (latencies, gate)
}

/// What the daemon's own `stats` op reports.
#[derive(Debug, Default)]
pub struct ServerView {
    pub p50_us: f64,
    pub p99_us: f64,
    pub lru_hits: f64,
    pub lru_misses: f64,
    pub errors: f64,
    pub sheds: f64,
}

/// Asks the daemon for its `stats` op.
pub fn server_view(server: &Server, gate: &mut Gate) -> ServerView {
    let line = request_json(&Request::Stats).render();
    let reply =
        lhcds::service::client::round_trip(&server.local_addr().to_string(), &line, IO_TIMEOUT);
    let parsed = reply.ok().and_then(|text| Json::parse(&text).ok());
    let result = parsed.as_ref().and_then(|j| j.get("result"));
    gate.record(result.is_some(), || "stats op did not answer".into());
    let Some(r) = result else {
        return ServerView::default();
    };
    let num = |j: Option<&Json>| j.and_then(Json::as_u64).unwrap_or(0) as f64;
    let latency = r.get("latency");
    let lru = r.get("lru");
    let errors = r
        .get("ops")
        .and_then(Json::as_array)
        .map_or(0.0, |ops| ops.iter().map(|op| num(op.get("errors"))).sum());
    ServerView {
        p50_us: num(latency.and_then(|l| l.get("p50_us"))),
        p99_us: num(latency.and_then(|l| l.get("p99_us"))),
        lru_hits: num(lru.and_then(|l| l.get("hits"))),
        lru_misses: num(lru.and_then(|l| l.get("misses"))),
        errors,
        sheds: num(r.get("shed")),
    }
}
