//! The three workloads and their seeded inputs.
//!
//! Each workload fixes one Table 2 stand-in (or the `BENCH_kclist`
//! G(n, p) graph) with its generator seed, so its structure and its
//! character — where the wall time goes — are the ones the benchmark
//! documents. The run seed picks a random isomorphic copy: a seeded
//! vertex relabeling, serialized as an edge list and loaded back through
//! the program's own reader. The program sees only that edge list.
//!
//! `--generator-seed` replaces the structural seed instead, to re-check
//! a claim on a graph the benchmark was never tuned on.

use std::io::Cursor;
use std::time::Instant;

use lhcds::clique::Parallelism;
use lhcds::core::pipeline::IppvConfig;
use lhcds::graph::CsrGraph;

/// Which graph family a workload draws from.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// A Table 2 stand-in from `lhcds::data::datasets` (by abbreviation).
    StandIn(&'static str),
    /// `gnp(n, p)` from `lhcds::data::gen`.
    Gnp { n: usize, p: f64, seed: u64 },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Graph family and structural seed.
    pub family: Family,
    /// Clique size h.
    pub h: usize,
    /// Subgraphs asked for, and the largest `k` the served index answers.
    pub k: usize,
    /// Requests per closed-loop serving block.
    pub block_requests: usize,
    /// Serving blocks per run (a fixed request count per run).
    pub blocks: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "tail-cm-h3",
        family: Family::StandIn("CM"),
        h: 3,
        k: 10,
        block_requests: 25_000,
        blocks: 40,
    },
    Workload {
        name: "dense-gnp-h5",
        family: Family::Gnp {
            n: 2000,
            p: 0.1,
            seed: 0xBEEF,
        },
        h: 5,
        k: 10,
        block_requests: 15_000,
        blocks: 48,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A loaded input with its set-up timings.
pub struct Input {
    pub graph: CsrGraph,
    /// `lhcds-data` generator call, seconds.
    pub gen_s: f64,
    /// Benchmark-side relabel + serialize, seconds.
    pub serialize_s: f64,
    /// `lhcds::graph::io::read_edge_list`, seconds.
    pub load_s: f64,
}

impl Workload {
    /// The structural seed the workload documents.
    pub fn default_generator_seed(&self) -> u64 {
        match self.family {
            Family::StandIn(abbr) => stand_in(abbr).seed,
            Family::Gnp { seed, .. } => seed,
        }
    }

    /// Generates, relabels by `seed`, serializes and loads the input.
    pub fn input(&self, seed: u64, generator_seed: u64) -> Input {
        let t = Instant::now();
        let base = match self.family {
            Family::StandIn(abbr) => {
                let mut spec = stand_in(abbr);
                spec.seed = generator_seed;
                spec.generate().graph
            }
            Family::Gnp { n, p, .. } => lhcds::data::gen::gnp(n, p, generator_seed),
        };
        let gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let text = relabeled_edge_list(&base, seed);
        drop(base);
        let serialize_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let graph = lhcds::graph::io::read_edge_list(Cursor::new(text))
            .expect("generated edge list parses");
        let load_s = t.elapsed().as_secs_f64();
        Input {
            graph,
            gen_s,
            serialize_s,
            load_s,
        }
    }
}

/// Pipeline configuration at `threads` worker threads (default tier).
pub fn config(threads: usize) -> IppvConfig {
    IppvConfig {
        parallelism: if threads == 1 {
            Parallelism::serial()
        } else {
            Parallelism::threads(threads)
        },
        ..IppvConfig::default()
    }
}

fn stand_in(abbr: &str) -> lhcds::data::DatasetSpec {
    lhcds::data::datasets::by_abbr(abbr).expect("stand-in is registered")
}

/// SplitMix64: a tiny seeded generator, so inputs depend on nothing but
/// the seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `g` under a seeded random vertex permutation, as SNAP edge-list text.
fn relabeled_edge_list(g: &CsrGraph, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix::new(seed ^ 0x5EED_F1AB);
    let mut perm: Vec<u32> = (0..g.n() as u32).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let mut text = Vec::with_capacity(g.m() * 14);
    for (u, v) in g.edges() {
        let (a, b) = (perm[u as usize], perm[v as usize]);
        text.extend_from_slice(format!("{a} {b}\n").as_bytes());
    }
    text
}
