//! End-to-end, layer-by-layer benchmark of the lhcds workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tail-cm-h3 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the per-layer run (standalone layer calls, counters,
//! and one traced pipeline call). Both check every answer. The last
//! stdout line is the result object; the line before it is the record
//! with provenance and the details behind the numbers. See README.md
//! for the workloads and the metric map.

mod check;
mod layers;
mod report;
mod serve;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use lhcds::core::pipeline::top_k_lhcds;
use lhcds::core::DecompositionIndex;
use lhcds_bench::measure::{current_bytes, peak_bytes, reset_peak, CountingAllocator};

use check::Gate;
use lhcds::graph::CsrGraph;
use lhcds::service::Server;
use report::{median, number, percentile, quote, Metrics};
use workload::{config, Input, Workload};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Set-up repetitions at the start of a run, and server binds.
const SETUP_REPS: usize = 7;
/// Fewest timed calls per run, so each median has a middle.
pub const MIN_CALLS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    generator_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut generator_seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                let w = workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?;
                workload = Some(w);
            }
            "--seed" => seed = Some(int(&value)?),
            "--seconds" => seconds = Some(int(&value)? as f64),
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            "--generator-seed" => generator_seed = Some(int(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        generator_seed: generator_seed.unwrap_or_else(|| workload.default_generator_seed()),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        layers::run(&args.workload, args.seed, args.generator_seed, args.seconds)
    } else {
        end_to_end(&args.workload, args.seed, args.generator_seed, args.seconds)
    };
    let gate = &outcome.gate;
    for note in &gate.notes {
        eprintln!("FAILED: {note}");
    }
    let failed_frac = report::ratio(gate.failed as f64, gate.attempted as f64);
    let w = &args.workload;
    let mut record = vec![
        ("record", quote("perfbench")),
        ("workload", quote(w.name)),
        ("seed", args.seed.to_string()),
        ("generator_seed", args.generator_seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("seconds", number(args.seconds)),
        (
            "nproc",
            lhcds_bench::measure::BenchProvenance::detect()
                .host_parallelism
                .to_string(),
        ),
        ("server_workers", serve::CONNECTIONS.to_string()),
        ("client_connections", serve::CONNECTIONS.to_string()),
        ("h", w.h.to_string()),
        ("k", w.k.to_string()),
        ("attempted", gate.attempted.to_string()),
        ("failed", gate.failed.to_string()),
        ("failed_frac", number(failed_frac)),
    ];
    record.extend(outcome.details.iter().map(|(k, v)| (*k, v.clone())));
    let record: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    println!("{{{}}}", record.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        outcome.metrics.json()
    );
    if gate.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// What one run measured and checked.
pub struct Outcome {
    pub metrics: Metrics,
    pub gate: Gate,
    /// Extra record fields, already rendered as JSON values.
    pub details: Vec<(&'static str, String)>,
}

/// The loaded graph with the timings of every set-up repetition.
pub struct Setup {
    pub graph: CsrGraph,
    pub gen_s: Vec<f64>,
    pub load_s: Vec<f64>,
    /// Benchmark-side relabel + serialize, per repetition; recorded, but
    /// not part of `setup_s`.
    pub serialize_s: Vec<f64>,
    /// Generate + load, per repetition.
    pub total_s: Vec<f64>,
}

/// Generates and loads the input `SETUP_REPS` times; keeps the last.
pub fn setup(w: &Workload, seed: u64, generator_seed: u64) -> Setup {
    let mut reps: Vec<Input> = (0..SETUP_REPS)
        .map(|_| w.input(seed, generator_seed))
        .collect();
    let gen_s = reps.iter().map(|i| i.gen_s).collect();
    let load_s = reps.iter().map(|i| i.load_s).collect();
    let serialize_s = reps.iter().map(|i| i.serialize_s).collect();
    let total_s = reps.iter().map(setup_seconds).collect();
    Setup {
        graph: reps.pop().expect("at least one set-up").graph,
        gen_s,
        load_s,
        serialize_s,
        total_s,
    }
}

/// Seconds of one set-up: the generator and `read_edge_list`. The
/// benchmark's own relabel/serialize step between them is left out.
fn setup_seconds(i: &Input) -> f64 {
    i.gen_s + i.load_s
}

/// Binds `SETUP_REPS` servers on `idx`, one after another, recording
/// each bind time; keeps the last one.
fn bind_timed(g: &CsrGraph, idx: &DecompositionIndex, binds: &mut Vec<f64>) -> Server {
    let mut server = None;
    for _ in 0..SETUP_REPS {
        let (s, bind_s) = serve::bind(g, idx);
        binds.push(bind_s);
        if let Some(old) = server.replace(s) {
            serve::stop(old);
        }
    }
    server.expect("a server is bound")
}

/// The `--trace 0` run: end-to-end metrics with tracing off.
fn end_to_end(w: &Workload, seed: u64, generator_seed: u64, seconds: f64) -> Outcome {
    let input = setup(w, seed, generator_seed);
    let g = &input.graph;
    let mut gate = Gate::default();
    let reference = check::reference(g, w.h, w.k, &mut gate);

    let started = Instant::now();
    let serial = config(1);
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut serving: Option<(Server, serve::Mix)> = None;
    let mut serialize_s = input.serialize_s.clone();
    let mut binds = Vec::new();
    // per serving block: (requests per second, p50 us, p99 us); p99 is
    // recorded, not a metric: it swings too much on a shared host to gate
    let mut block_stats: Vec<[f64; 3]> = Vec::new();
    let mut requests = 0;
    let mut blocks = 0;
    let mut setup_load = input.total_s.clone();
    // one more set-up after each serving block, so `setup_s` samples the
    // whole run like the other metrics
    let mut serve_block = |server: &Server, mix: &serve::Mix, gate: &mut Gate| {
        let rep = w.input(seed, generator_seed);
        setup_load.push(setup_seconds(&rep));
        serialize_s.push(rep.serialize_s);
        let mut block = serve::run_block(server, mix);
        let n = block.latencies_us.len();
        requests += n;
        block_stats.push([
            n as f64 / block.wall_s,
            percentile(&mut block.latencies_us, 0.50),
            percentile(&mut block.latencies_us, 0.99),
        ]);
        gate.merge(block.gate);
    };
    loop {
        reset_peak();
        let live = current_bytes();
        let t = Instant::now();
        let answer = top_k_lhcds(g, w.h, w.k, &serial).subgraphs;
        let call_s = t.elapsed().as_secs_f64();
        walls.push(call_s);
        peaks.push(peak_bytes().saturating_sub(live) as f64 / (1 << 20) as f64);
        gate.answer("1-thread top_k", &answer, &reference);
        let (server, mix) = serving.get_or_insert_with(|| {
            let idx = DecompositionIndex::from_subgraphs(g.n(), w.h, w.k, &answer);
            let server = bind_timed(g, &idx, &mut binds);
            let mix = serve::Mix::new(&idx, w.k, w.block_requests, seed);
            (server, mix)
        });
        // serving blocks are spread over the run, in step with the solves
        let elapsed = started.elapsed().as_secs_f64();
        let due = ((w.blocks as f64 * elapsed / seconds).ceil() as usize).min(w.blocks);
        while blocks < due {
            serve_block(server, mix, &mut gate);
            blocks += 1;
        }
        // stop once another call would overrun `--seconds` by over 10%
        if walls.len() >= MIN_CALLS && started.elapsed().as_secs_f64() + call_s > seconds * 1.1 {
            break;
        }
    }
    let (server, mix) = serving.expect("serving started after the first call");
    while blocks < w.blocks {
        serve_block(&server, &mix, &mut gate);
        blocks += 1;
    }
    serve::stop(server);

    let mut m = Metrics::default();
    m.put("topk_s", median(&walls), "s");
    let per_block = |i: usize| block_stats.iter().map(|b| b[i]).collect::<Vec<f64>>();
    m.put("qps", median(&per_block(0)), "1/s");
    m.put("query_p50_us", median(&per_block(1)), "us");
    m.put("setup_s", median(&setup_load) + median(&binds), "s");
    m.put("peak_heap_mb", median(&peaks), "MB");
    let details = vec![
        (
            "samples",
            format!(
                "{{\"topk\": {}, \"setup\": {}, \"serve_blocks\": {}, \"requests\": {}}}",
                walls.len(),
                setup_load.len(),
                w.blocks,
                requests
            ),
        ),
        ("threads", "[1]".into()),
        ("topk_s_all", format!("{walls:?}")),
        ("serve_blocks_qps_p50_p99", format!("{block_stats:?}")),
        ("graph", format!("{{\"n\": {}, \"m\": {}}}", g.n(), g.m())),
        ("subgraphs", reference.len().to_string()),
        ("serialize_s", number(median(&serialize_s))),
        ("point_member_frac", number(mix.member_frac)),
    ];
    Outcome {
        metrics: m,
        gate,
        details,
    }
}
