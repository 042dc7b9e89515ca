//! The `--trace 1` run: per-layer metrics.
//!
//! Every layer is measured from outside, by timing calls into its
//! public functions in paper order (enumerate → bounds → CP →
//! decompose + stable groups → prune), then the whole pipeline, whose
//! remainder is the verify driver (it has no public entry of its own),
//! at 1 and at 2 threads.
//! The counters come from what the program already returns:
//! `IppvStats`, `flow_stats()` deltas around serial single calls (never
//! while a server or a 2-thread call is live), and the daemon's `stats`
//! op. One more pipeline call runs with `lhcds::obs` tracing on; its
//! span tree gives self time per span, coverage, and the tracing
//! overhead against the untraced calls.

use std::collections::BTreeMap;
use std::time::Instant;

use lhcds::clique::{CliqueSet, Parallelism};
use lhcds::core::bounds::initialize_bounds;
use lhcds::core::cp::seq_kclist_pp_threaded;
use lhcds::core::decompose::tentative_gd;
use lhcds::core::pipeline::{top_k_lhcds, IppvConfig, IppvStats};
use lhcds::core::prune::prune;
use lhcds::core::stable::derive_stable_groups;
use lhcds::core::{flow_stats, DecompositionIndex, FlowStats, IndexConfig, Lhcds};
use lhcds::obs::{SpanNode, Trace};

use crate::check::{self, Gate};
use crate::report::{median, number, percentile, quote, ratio, Metrics};
use crate::workload::{config, Workload};
use crate::{serve, setup, Outcome, MIN_CALLS};

/// Spans whose summed self time is reported, with their metric names;
/// `topk` is the benchmark's own root around the traced pipeline call.
const SPANS: [(&str, &str); 9] = [
    ("topk", "span.topk.self_s"),
    ("enumerate", "span.enumerate.self_s"),
    ("kclist", "span.kclist.self_s"),
    ("cp", "span.cp.self_s"),
    ("decompose", "span.decompose.self_s"),
    ("prune", "span.prune.self_s"),
    ("verify", "span.verify.self_s"),
    ("local-decompose", "span.local-decompose.self_s"),
    ("flow-ladder", "span.flow-ladder.self_s"),
];

pub fn run(w: &Workload, seed: u64, generator_seed: u64, seconds: f64) -> Outcome {
    let input = setup(w, seed, generator_seed);
    let g = &input.graph;
    let mut gate = Gate::default();
    let reference = check::reference(g, w.h, w.k, &mut gate);
    let serial = config(1);
    let mut m = Metrics::default();
    let started = Instant::now();

    // ---- standalone layer calls, paper order ----
    let layer = standalone(g, w.h, &serial);

    // ---- untraced serial pipeline calls: counters + repeatability ----
    let mut walls = Vec::new();
    let mut counts: Vec<BTreeMap<&'static str, u64>> = Vec::new();
    let mut last_stats = IppvStats::default();
    let mut last_flow = FlowStats::default();
    while walls.len() < MIN_CALLS || started.elapsed().as_secs_f64() < seconds / 2.0 {
        let before = flow_stats();
        let t = Instant::now();
        let res = top_k_lhcds(g, w.h, w.k, &serial);
        walls.push(t.elapsed().as_secs_f64());
        last_flow = flow_stats().since(&before);
        gate.answer("untraced serial top_k", &res.subgraphs, &reference);
        counts.push(count_map(&res.stats, &last_flow, &layer));
        last_stats = res.stats;
    }

    // ---- the same call at 2 threads (no flow counters read here) ----
    let mut walls_2t = Vec::new();
    while walls_2t.len() < MIN_CALLS || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let res = top_k_lhcds(g, w.h, w.k, &config(2));
        walls_2t.push(t.elapsed().as_secs_f64());
        gate.answer("untraced 2-thread top_k", &res.subgraphs, &reference);
    }

    // ---- one traced call ----
    lhcds::obs::set_tracing(true);
    let before = flow_stats();
    let t = Instant::now();
    let root = lhcds::obs::span("topk");
    let traced = top_k_lhcds(g, w.h, w.k, &serial);
    drop(root);
    let traced_wall = t.elapsed().as_secs_f64();
    let traced_flow = flow_stats().since(&before);
    lhcds::obs::set_tracing(false);
    let trace = lhcds::obs::take_trace().expect("tracing recorded spans");
    gate.answer("traced serial top_k", &traced.subgraphs, &reference);
    counts.push(count_map(&traced.stats, &traced_flow, &layer));
    let mismatches = mismatched_counts(&counts);
    for name in &mismatches {
        eprintln!("count did not repeat at 1 thread: {name}");
    }
    let trace_file = export(w.name, seed, &trace);

    // ---- index + service ----
    let t = Instant::now();
    let idx = DecompositionIndex::from_subgraphs(g.n(), w.h, w.k, &traced.subgraphs);
    let freeze_s = t.elapsed().as_secs_f64();
    // the daemon's index build: the whole decomposition, frozen
    let t = Instant::now();
    let built = DecompositionIndex::build(
        g,
        w.h,
        &IndexConfig {
            k_max: w.k,
            ippv: serial.clone(),
        },
    );
    let build_s = t.elapsed().as_secs_f64();
    // its densest `k` must be the top-k answer
    let top: Vec<Lhcds> = (0..reference.len())
        .filter_map(|rank| built.subgraph(rank))
        .map(|v| Lhcds {
            vertices: v.vertices.to_vec(),
            density: v.density,
            clique_count: v.clique_count,
        })
        .collect();
    gate.answer("index build", &top, &reference);
    let (server, _) = serve::bind(g, &idx);
    let mix = serve::Mix::new(&idx, w.k, w.block_requests, seed);
    let mut block = serve::run_block(&server, &mix);
    gate.merge(std::mem::take(&mut block.gate));
    let view = serve::server_view(&server, &mut gate);
    serve::stop(server);
    let client_p50 = percentile(&mut block.latencies_us, 0.5);
    let client_p99 = percentile(&mut block.latencies_us, 0.99);

    // ---- metrics ----
    let untraced = median(&walls);
    let proposal = layer.bounds_s + layer.cp_s + layer.decompose_s + layer.prune_s;
    let verify_s = untraced - layer.enumerate_s - proposal;
    let verify_span = find(&trace.roots, "verify");
    let s = &last_stats;
    let f = &last_flow;
    let untraced_2t = median(&walls_2t);
    m.put("topk_2t_s", untraced_2t, "s");
    m.put("topk_2t_speedup", untraced / untraced_2t, "ratio");
    m.put("data.gen_s", median(&input.gen_s), "s");
    m.put("graph.load_s", median(&input.load_s), "s");
    m.put("clique.enumerate_s", layer.enumerate_s, "s");
    m.put("clique.enumerate_2t_s", layer.enumerate_2t_s, "s");
    m.put("clique.count", s.clique_count as f64, "count");
    m.put(
        "clique.enumerate_share",
        layer.enumerate_s / untraced,
        "ratio",
    );
    m.put("core.bounds_s", layer.bounds_s, "s");
    m.put("core.cp_s", layer.cp_s, "s");
    m.put("core.decompose_s", layer.decompose_s, "s");
    m.put("core.groups", layer.groups as f64, "count");
    m.put("core.prune_s", layer.prune_s, "s");
    m.put("core.pruned_vertices", layer.pruned as f64, "count");
    m.put("core.verify_s", verify_s, "s");
    m.put(
        "core.verify_span_s",
        verify_span.map_or(0.0, |v| secs(v.dur_ns)),
        "s",
    );
    m.put("core.verify_share", verify_s / untraced, "ratio");
    m.put(
        "core.local_decompose_s",
        total_ns(&trace.roots, "local-decompose") as f64 / 1e9,
        "s",
    );
    m.put("core.verifications", s.verifications as f64, "count");
    m.put(
        "core.flow_verifications",
        s.flow_verifications as f64,
        "count",
    );
    m.put(
        "core.local_decompositions",
        s.local_decompositions as f64,
        "count",
    );
    m.put("core.shortcut_accepts", s.shortcut_accepts as f64, "count");
    m.put("core.early_rejects", s.early_rejects as f64, "count");
    m.put("core.absorptions", s.absorptions as f64, "count");
    m.put("core.escalations", s.escalations as f64, "count");
    m.put(
        "core.verify_yield",
        ratio(traced.subgraphs.len() as f64, s.verifications as f64),
        "ratio",
    );
    m.put("flow.max_flows", f.max_flow_invocations as f64, "count");
    m.put("flow.networks_built", f.networks_built as f64, "count");
    m.put("flow.arcs_built", f.arcs_built as f64, "count");
    m.put("flow.warm_solves", f.warm_solves as f64, "count");
    m.put("flow.retract_solves", f.retract_solves as f64, "count");
    m.put("flow.cold_solves", f.cold_solves() as f64, "count");
    m.put("flow.ggt_recursions", f.ggt_recursions as f64, "count");
    m.put(
        "flow.flows_per_verification",
        ratio(f.max_flow_invocations as f64, s.flow_verifications as f64),
        "ratio",
    );
    m.put(
        "flow.arcs_per_flow",
        ratio(f.arcs_built as f64, f.max_flow_invocations as f64),
        "ratio",
    );
    m.put("index.subgraphs", built.len() as f64, "count");
    m.put("index.build_s", build_s, "s");
    m.put("index.freeze_s", freeze_s, "s");
    m.put("query_p99_us", client_p99, "us");
    m.put("service.server_p50_us", view.p50_us, "us");
    m.put("service.server_p99_us", view.p99_us, "us");
    m.put("service.transport_p50_us", client_p50 - view.p50_us, "us");
    m.put(
        "service.lru_hit_rate",
        ratio(view.lru_hits, view.lru_hits + view.lru_misses),
        "ratio",
    );
    m.put("service.errors", view.errors, "count");
    m.put("service.sheds", view.sheds, "count");
    m.put(
        "obs.trace_overhead_frac",
        traced_wall / untraced - 1.0,
        "ratio",
    );
    m.put(
        "obs.spans",
        trace.roots.iter().map(span_count).sum::<usize>() as f64,
        "count",
    );
    let root_node = trace.roots.iter().rev().find(|r| r.name == "topk");
    m.put(
        "obs.root_coverage",
        root_node.map_or(0.0, coverage),
        "ratio",
    );
    m.put(
        "obs.verify_coverage",
        verify_span.map_or(0.0, coverage),
        "ratio",
    );
    let self_times = self_times(&trace.roots);
    for (span, metric) in SPANS {
        let value = self_times.get(span).copied().unwrap_or(0) as f64 / 1e9;
        m.put(metric, value, "s");
    }
    m.put("bench.count_mismatches", mismatches.len() as f64, "count");

    let character = format!(
        "{{\"verify_share\": {}, \"enumerate_share\": {}}}",
        number(verify_s / untraced),
        number(layer.enumerate_s / untraced)
    );
    let self_json: Vec<String> = self_times
        .iter()
        .map(|(name, ns)| format!("{}: {}", quote(name), number(*ns as f64 / 1e9)))
        .collect();
    let details = vec![
        ("threads", "[1, 2]".into()),
        ("untraced_topk_s_all", format!("{walls:?}")),
        ("untraced_topk_2t_s_all", format!("{walls_2t:?}")),
        ("traced_topk_s", number(traced_wall)),
        ("setup_s_all", format!("{:?}", input.total_s)),
        ("point_member_frac", number(mix.member_frac)),
        ("character", character),
        ("span_self_s", format!("{{{}}}", self_json.join(", "))),
        (
            "trace_file",
            trace_file.map_or("null".into(), |p| quote(&p)),
        ),
        (
            "count_mismatches",
            format!(
                "[{}]",
                mismatches
                    .iter()
                    .map(|n| quote(n))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("graph", format!("{{\"n\": {}, \"m\": {}}}", g.n(), g.m())),
    ];
    Outcome {
        metrics: m,
        gate,
        details,
    }
}

/// Standalone timings of the proposal and prune layers.
struct Layer {
    enumerate_s: f64,
    enumerate_2t_s: f64,
    cliques: usize,
    cliques_2t: usize,
    bounds_s: f64,
    cp_s: f64,
    decompose_s: f64,
    groups: usize,
    prune_s: f64,
    pruned: usize,
}

fn standalone(g: &lhcds::graph::CsrGraph, h: usize, cfg: &IppvConfig) -> Layer {
    let t = Instant::now();
    let cliques_2t = CliqueSet::enumerate_with(g, h, &Parallelism::threads(2)).len();
    let enumerate_2t_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let cliques = CliqueSet::enumerate_with(g, h, &cfg.parallelism);
    let enumerate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut bounds = initialize_bounds(&cliques, cfg.bound_slack);
    let bounds_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut state = seq_kclist_pp_threaded(&cliques, cfg.cp_iterations, 1);
    let cp_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let decomp = tentative_gd(&cliques, &mut state);
    let groups = derive_stable_groups(&cliques, &state, &decomp, &mut bounds)
        .groups
        .len();
    let decompose_s = t.elapsed().as_secs_f64();

    // the pipeline's own prune stage: vertices in no h-clique, then
    // Proposition 5
    let t = Instant::now();
    let mut eligible: Vec<bool> = (0..g.n()).map(|v| cliques.degree(v as u32) > 0).collect();
    let mut pruned = eligible.iter().filter(|&&e| !e).count();
    pruned += prune(g, &cliques, &bounds, &mut eligible);
    let prune_s = t.elapsed().as_secs_f64();

    Layer {
        enumerate_s,
        enumerate_2t_s,
        cliques: cliques.len(),
        cliques_2t,
        bounds_s,
        cp_s,
        decompose_s,
        groups,
        prune_s,
        pruned,
    }
}

/// Every count that must repeat exactly at 1 thread, including the
/// standalone layer counts (which must agree with the pipeline's).
fn count_map(s: &IppvStats, f: &FlowStats, layer: &Layer) -> BTreeMap<&'static str, u64> {
    BTreeMap::from([
        ("clique.count", s.clique_count as u64),
        ("clique.count.standalone", layer.cliques as u64),
        ("clique.count.standalone_2t", layer.cliques_2t as u64),
        ("core.groups", s.initial_candidates as u64),
        ("core.groups.standalone", layer.groups as u64),
        ("core.pruned_vertices", s.pruned_vertices as u64),
        ("core.pruned_vertices.standalone", layer.pruned as u64),
        ("core.verifications", s.verifications as u64),
        ("core.flow_verifications", s.flow_verifications as u64),
        ("core.local_decompositions", s.local_decompositions as u64),
        ("core.shortcut_accepts", s.shortcut_accepts as u64),
        ("core.early_rejects", s.early_rejects as u64),
        ("core.absorptions", s.absorptions as u64),
        ("core.escalations", s.escalations as u64),
        ("core.killed_vertices", s.killed_vertices as u64),
        ("flow.max_flows", f.max_flow_invocations),
        ("flow.networks_built", f.networks_built),
        ("flow.arcs_built", f.arcs_built),
        ("flow.warm_solves", f.warm_solves),
        ("flow.retract_solves", f.retract_solves),
        ("flow.cold_solves", f.cold_solves()),
        ("flow.ggt_recursions", f.ggt_recursions),
    ])
}

/// Names of counts that differ between calls, or between a standalone
/// layer count and the pipeline's own.
fn mismatched_counts(counts: &[BTreeMap<&'static str, u64>]) -> Vec<&'static str> {
    let mut bad = Vec::new();
    let first = &counts[0];
    for (&name, &value) in first {
        let base = name.split_once(".standalone").map_or(name, |(b, _)| b);
        let differs = counts.iter().any(|c| c[name] != value) || first[base] != value;
        if differs {
            bad.push(name);
        }
    }
    bad
}

/// Writes the full span tree as JSON under `perfbench/out/`.
fn export(workload: &str, seed: u64, trace: &Trace) -> Option<String> {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace.to_json()));
    match written {
        Ok(()) => Some(path.display().to_string()),
        Err(e) => {
            eprintln!("trace export to {} failed: {e}", path.display());
            None
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn coverage(node: &SpanNode) -> f64 {
    ratio(node.child_ns() as f64, node.dur_ns as f64)
}

fn span_count(node: &SpanNode) -> usize {
    1 + node.children.iter().map(span_count).sum::<usize>()
}

/// First span named `name`, depth first.
fn find<'a>(nodes: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
    nodes.iter().find_map(|n| {
        if n.name == name {
            Some(n)
        } else {
            find(&n.children, name)
        }
    })
}

/// Summed duration of every span named `name`.
fn total_ns(nodes: &[SpanNode], name: &str) -> u64 {
    nodes
        .iter()
        .map(|n| if n.name == name { n.dur_ns } else { 0 } + total_ns(&n.children, name))
        .sum()
}

/// Self time (duration minus direct children) summed per span name.
fn self_times(nodes: &[SpanNode]) -> BTreeMap<&'static str, u64> {
    fn walk(n: &SpanNode, out: &mut BTreeMap<&'static str, u64>) {
        *out.entry(n.name).or_default() += n.dur_ns.saturating_sub(n.child_ns());
        for c in &n.children {
            walk(c, out);
        }
    }
    let mut out = BTreeMap::new();
    for n in nodes {
        walk(n, &mut out);
    }
    out
}
