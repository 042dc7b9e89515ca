//! One runner per table/figure of the paper's evaluation (§6).
//!
//! Every runner prints a markdown section comparable to the paper's
//! artifact and returns it as a string (the `harness` binary collects
//! them into `EXPERIMENTS.md` material). Dataset sizes are controlled
//! by [`ExpOptions::scale`]; the defaults keep the full sweep in a
//! minutes-scale budget (the paper's originals ran up to 48 h).

use crate::measure::{fmt_kb, peak_bytes, reset_peak, time_ms, BenchProvenance, MdTable};
use lhcds::baselines::{greedy_top_k_cds, FlowLds};
use lhcds::clique::{count_cliques, par_count_cliques, par_count_per_vertex, Parallelism};
use lhcds::core::pipeline::{top_k_lhcds, IppvConfig, IppvResult};
use lhcds::data::datasets::by_abbr;
use lhcds::data::manifest::DatasetRegistry;
use lhcds::data::{polbooks_like, registry, Dataset, LabeledGraph};
use lhcds::graph::properties::{average_clustering, diameter, edge_density};
use lhcds::graph::{CsrGraph, InducedSubgraph};
use lhcds::patterns::{enumerate_pattern_with, top_k_lhxpds, Pattern};

/// Experiment options.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Dataset scale factor in `(0, 1]` (background size multiplier).
    pub scale: f64,
    /// Worker threads for clique enumeration where an experiment
    /// supports it: `kclist` adds this count to its 1/2/4 sweep, and
    /// `table2real` counts |Ψ3|/|Ψ5| on this many threads (`0` =
    /// serial). Results never depend on it — only wall time does.
    pub threads: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 0.08,
            threads: 0,
        }
    }
}

fn dataset(abbr: &str, scale: f64) -> Dataset {
    by_abbr(abbr)
        .unwrap_or_else(|| panic!("unknown dataset {abbr}"))
        .generate_scaled(scale.min(1.0))
}

fn ippv_cfg(fast: bool) -> IppvConfig {
    IppvConfig {
        fast_verify: fast,
        ..IppvConfig::default()
    }
}

fn run(g: &CsrGraph, h: usize, k: usize, fast: bool) -> (IppvResult, f64) {
    let (res, ms) = time_ms(|| top_k_lhcds(g, h, k, &ippv_cfg(fast)));
    (res, ms)
}

/// All experiment ids, paper order.
pub fn all_experiments() -> &'static [&'static str] {
    &[
        "table2",
        "table2real",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "table3",
        "fig13",
        "table4",
        "fig14",
        "table5",
        "fig15",
        "fig16",
        "fig17",
        "ablation",
        "kclist",
        "patterns",
        "serve_qps",
        "flowreuse",
        "obs",
    ]
}

/// Dispatches an experiment by id.
pub fn run_experiment(name: &str, opts: &ExpOptions) -> Option<String> {
    Some(match name {
        "table2" => table2(opts),
        "table2real" => table2real(opts),
        "fig9" => fig9(opts),
        "fig10" => fig10(opts),
        "fig11" => fig11(opts),
        "fig12" => fig12(opts),
        "table3" => table3(opts),
        "fig13" => fig13(opts),
        "table4" => table4(opts),
        "fig14" => fig14(opts),
        "table5" => table5(opts),
        "fig15" => fig15(opts),
        "fig16" => fig16(opts),
        "fig17" => fig17(opts),
        "ablation" => ablation(opts),
        "kclist" => kclist(opts),
        "patterns" => patterns(opts),
        "serve_qps" => serve_qps(opts),
        "flowreuse" => flowreuse(opts),
        "obs" => obs(opts),
        _ => return None,
    })
}

/// Table 2: dataset statistics (`|V|, |E|, |Ψ3|, |Ψ5|`) for the
/// synthetic stand-ins next to the paper's originals.
pub fn table2(opts: &ExpOptions) -> String {
    let mut t = MdTable::new([
        "abbr",
        "stand-in |V|",
        "stand-in |E|",
        "|Ψ3|",
        "|Ψ5|",
        "paper |V|",
        "paper |E|",
    ]);
    for spec in registry() {
        let d = spec.generate_scaled(opts.scale);
        let g = &d.graph;
        t.row([
            spec.abbr.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            count_cliques(g, 3).to_string(),
            count_cliques(g, 5).to_string(),
            spec.paper_n.to_string(),
            spec.paper_m.to_string(),
        ]);
    }
    format!("## Table 2 — dataset statistics\n\n{}", t.render())
}

/// Table 2 on *real* graphs: loads every locally-present dataset from
/// the `datasets.toml` manifest (see `lhcds-data::manifest`), measures
/// load time (through the binary cache), `|V|`, `|E|`, `|Ψ3|`, `|Ψ5|`,
/// and records the rows to `BENCH_table2.json`.
///
/// Hermetic by design: when no manifest exists or no dataset file has
/// been downloaded, the experiment reports a skip note and writes
/// nothing — CI never depends on network downloads.
pub fn table2real(opts: &ExpOptions) -> String {
    let dir = std::env::var("LHCDS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    table2real_on(
        opts,
        &DatasetRegistry::default_path(),
        std::path::Path::new(&dir),
    )
}

/// Escapes a string for splicing into a JSON string literal (dataset
/// names come from the user's manifest, not from this crate).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// [`table2real`] with explicit manifest and output paths (unit tests
/// point these at fixtures and temp dirs).
fn table2real_on(
    opts: &ExpOptions,
    manifest: &std::path::Path,
    out_dir: &std::path::Path,
) -> String {
    let heading = "## Table 2 (real) — user-provided SNAP graphs";
    let parallelism = if opts.threads > 0 {
        Parallelism::threads(opts.threads)
    } else {
        Parallelism::serial()
    };
    if !manifest.is_file() {
        return format!(
            "{heading}\n\nskipped: no manifest at `{}` — run \
             `lhcds datasets fetch-instructions` to set one up.\n",
            manifest.display()
        );
    }
    let registry = match DatasetRegistry::load(manifest) {
        Ok(r) => r,
        Err(e) => return format!("{heading}\n\nskipped: {e}\n"),
    };

    let mut t = MdTable::new([
        "dataset",
        "|V|",
        "|E|",
        "|Ψ3|",
        "|Ψ5|",
        "load (ms)",
        "source",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut absent: Vec<&str> = Vec::new();
    for entry in registry.entries() {
        if !entry.is_present() {
            absent.push(&entry.name);
            continue;
        }
        let (loaded, ms) = time_ms(|| entry.load());
        let (g, status) = match loaded {
            Ok(ok) => ok,
            Err(e) => {
                t.row([
                    entry.name.clone(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("{ms:.1}"),
                    format!("FAILED: {e}"),
                ]);
                continue;
            }
        };
        let g = &g.graph;
        let psi3 = par_count_cliques(g, 3, &parallelism);
        let psi5 = par_count_cliques(g, 5, &parallelism);
        let source = match status {
            lhcds::data::CacheStatus::Hit => "cache",
            lhcds::data::CacheStatus::Built => "text (cache written)",
            lhcds::data::CacheStatus::Rebuilt => "text (cache rebuilt)",
            lhcds::data::CacheStatus::Uncached => "text (cache not writable)",
        };
        t.row([
            entry.name.clone(),
            g.n().to_string(),
            g.m().to_string(),
            psi3.to_string(),
            psi5.to_string(),
            format!("{ms:.1}"),
            source.to_string(),
        ]);
        json_rows.push(format!(
            "    {{\"dataset\": \"{}\", \"n\": {}, \"m\": {}, \"psi3\": {psi3}, \
             \"psi5\": {psi5}, \"load_ms\": {ms:.3}, \"from_cache\": {}}}",
            json_escape(&entry.name),
            g.n(),
            g.m(),
            status == lhcds::data::CacheStatus::Hit,
        ));
    }

    if t.is_empty() {
        return format!(
            "{heading}\n\nskipped: manifest `{}` lists {} dataset(s) but none are \
             downloaded — see `lhcds datasets fetch-instructions`.\n",
            manifest.display(),
            registry.entries().len()
        );
    }
    // Every present dataset failed to load: report, but never clobber a
    // previously recorded good baseline with an empty rows array.
    if json_rows.is_empty() {
        return format!(
            "{heading}\n\n{}\nno dataset loaded successfully — `BENCH_table2.json` left untouched\n",
            t.render()
        );
    }
    let json = format!(
        "{{\n  \"experiment\": \"table2real\",\n  {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        BenchProvenance::detect().json_fields(),
        json_rows.join(",\n")
    );
    let path = out_dir.join("BENCH_table2.json");
    let note = match std::fs::write(&path, &json) {
        Ok(()) => format!("recorded to `{}`", path.display()),
        Err(e) => format!("could not write `{}`: {e}", path.display()),
    };
    let absent_note = if absent.is_empty() {
        String::new()
    } else {
        format!("\nnot downloaded (skipped): {}\n", absent.join(", "))
    };
    format!("{heading}\n\n{}\n{note}\n{absent_note}", t.render())
}

/// Figure 9: basic vs fast verification runtime across `h ∈ {3,4,5}`
/// and `k ∈ {5,10,15,20}`.
pub fn fig9(opts: &ExpOptions) -> String {
    let panels = ["PC", "HA", "EP", "EN", "GW", "CM", "GQ", "AM"];
    let mut t = MdTable::new(["dataset", "h", "k", "basic (ms)", "fast (ms)", "speedup"]);
    for abbr in panels {
        let d = dataset(abbr, opts.scale);
        for h in [3usize, 4, 5] {
            for k in [5usize, 10, 15, 20] {
                let (res_b, ms_b) = run(&d.graph, h, k, false);
                let (res_f, ms_f) = run(&d.graph, h, k, true);
                assert_eq!(res_b.subgraphs, res_f.subgraphs, "verifiers disagree");
                t.row([
                    abbr.to_string(),
                    h.to_string(),
                    k.to_string(),
                    format!("{ms_b:.1}"),
                    format!("{ms_f:.1}"),
                    format!("{:.2}x", ms_b / ms_f.max(1e-9)),
                ]);
            }
        }
    }
    format!(
        "## Figure 9 — basic vs fast verification (paper: fast ≪ basic, gap grows with k)\n\n{}",
        t.render()
    )
}

/// Figure 10: per-stage runtime breakdown at `h = 3, k = 20`.
pub fn fig10(opts: &ExpOptions) -> String {
    let mut t = MdTable::new([
        "dataset",
        "variant",
        "SEQ-kClist++ (ms)",
        "TentativeGD+DeriveSG (ms)",
        "Prune (ms)",
        "Verify (ms)",
        "total (ms)",
    ]);
    for abbr in ["CM", "GQ", "PC", "HA"] {
        let d = dataset(abbr, opts.scale);
        for (label, fast) in [("basic", false), ("fast", true)] {
            let (res, ms) = run(&d.graph, 3, 20, fast);
            let s = &res.stats;
            t.row([
                abbr.to_string(),
                label.to_string(),
                format!("{:.1}", s.cp_ms),
                format!("{:.1}", s.decompose_ms),
                format!("{:.1}", s.prune_ms),
                format!("{:.1}", s.verify_ms),
                format!("{ms:.1}"),
            ]);
        }
    }
    format!(
        "## Figure 10 — stage breakdown, h=3 k=20 (paper: verification dominates; fast shrinks it)\n\n{}",
        t.render()
    )
}

/// Figure 11: runtime vs edge-sampling density (20%–100%), `h=3, k=5`.
pub fn fig11(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "density", "|E|", "|Ψ3|", "time (ms)"]);
    for abbr in ["AM", "EN", "EP", "DB"] {
        let d = dataset(abbr, opts.scale);
        for pct in [20u32, 40, 60, 80, 100] {
            let g = lhcds::data::gen::sample_edges(&d.graph, pct as f64 / 100.0, 7 + pct as u64);
            let psi = count_cliques(&g, 3);
            let (_, ms) = run(&g, 3, 5, true);
            t.row([
                abbr.to_string(),
                format!("{pct}%"),
                g.m().to_string(),
                psi.to_string(),
                format!("{ms:.1}"),
            ]);
        }
    }
    format!(
        "## Figure 11 — runtime vs graph density (paper: time grows with density/|Ψ3|)\n\n{}",
        t.render()
    )
}

/// Figure 12: IPPV at `h = 2` vs the LDSflow baseline, `k = 5`.
pub fn fig12(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "IPPV h=2 (ms)", "LDSflow (ms)", "speedup"]);
    for abbr in ["PP", "EP", "EN", "GW", "YT", "AM", "LF", "FX"] {
        let d = dataset(abbr, opts.scale);
        let (res_i, ms_i) = run(&d.graph, 2, 5, true);
        let (res_l, ms_l) = time_ms(|| FlowLds::ldsflow().top_k(&d.graph, 5));
        assert_eq!(res_i.subgraphs, res_l.subgraphs, "LDSflow disagrees");
        t.row([
            abbr.to_string(),
            format!("{ms_i:.1}"),
            format!("{ms_l:.1}"),
            format!("{:.2}x", ms_l / ms_i.max(1e-9)),
        ]);
    }
    format!(
        "## Figure 12 — IPPV (h=2) vs LDSflow (paper: IPPV faster everywhere)\n\n{}",
        t.render()
    )
}

/// Table 3: IPPV at `h = 3` vs the LTDS baseline, `k = 5`.
pub fn table3(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "IPPV h=3 (ms)", "LTDS (ms)", "speedup"]);
    for spec in registry() {
        let d = spec.generate_scaled(opts.scale);
        let (res_i, ms_i) = run(&d.graph, 3, 5, true);
        let (res_l, ms_l) = time_ms(|| FlowLds::ltds().top_k(&d.graph, 5));
        assert_eq!(res_i.subgraphs, res_l.subgraphs, "LTDS disagrees");
        t.row([
            spec.abbr.to_string(),
            format!("{ms_i:.1}"),
            format!("{ms_l:.1}"),
            format!("{:.2}x", ms_l / ms_i.max(1e-9)),
        ]);
    }
    format!(
        "## Table 3 — IPPV (h=3) vs LTDS (paper: 1.2x–87x speedups)\n\n{}",
        t.render()
    )
}

fn label_mix(lg: &LabeledGraph, verts: &[lhcds::graph::VertexId]) -> String {
    let mut counts = vec![0usize; lg.label_names.len()];
    for &v in verts {
        counts[lg.labels[v as usize] as usize] += 1;
    }
    lg.label_names
        .iter()
        .zip(&counts)
        .filter(|&(_, &c)| c > 0)
        .map(|(n, c)| format!("{n}:{c}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Figure 13: polbooks-like case study — top-1/2 LhCDS for h = 2..5
/// with community-label composition.
pub fn fig13(_opts: &ExpOptions) -> String {
    let pb = polbooks_like();
    let mut t = MdTable::new(["h", "rank", "size", "density", "edge density", "labels"]);
    for h in 2usize..=5 {
        let res = top_k_lhcds(&pb.graph, h, 2, &IppvConfig::default());
        for (i, s) in res.subgraphs.iter().enumerate() {
            let sub = InducedSubgraph::new(&pb.graph, &s.vertices);
            t.row([
                h.to_string(),
                format!("top-{}", i + 1),
                s.vertices.len().to_string(),
                format!("{:.3}", s.density.to_f64()),
                format!("{:.3}", edge_density(&sub.graph)),
                label_mix(&pb, &s.vertices),
            ]);
        }
    }
    format!(
        "## Figure 13 — polbooks case study (paper: larger h → more clique-like, multi-category coverage)\n\n{}",
        t.render()
    )
}

/// Table 4: average edge density and diameter of the top-5 LhCDSes for
/// `h ∈ {2, 3, 5, 7, 9}`.
pub fn table4(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "h", "avg edge density", "avg diameter", "found"]);
    for abbr in ["PC", "HA", "PP", "CM", "EP", "WB", "GQ"] {
        let d = dataset(abbr, opts.scale);
        for h in [2usize, 3, 5, 7, 9] {
            let res = top_k_lhcds(&d.graph, h, 5, &IppvConfig::default());
            if res.subgraphs.is_empty() {
                t.row([
                    abbr.into(),
                    h.to_string(),
                    "-".into(),
                    "-".into(),
                    "0".into(),
                ]);
                continue;
            }
            let mut dens = 0.0;
            let mut diam = 0.0;
            let mut diam_n = 0usize;
            for s in &res.subgraphs {
                let sub = InducedSubgraph::new(&d.graph, &s.vertices);
                dens += edge_density(&sub.graph);
                if let Some(dm) = diameter(&sub.graph) {
                    diam += dm as f64;
                    diam_n += 1;
                }
            }
            let found = res.subgraphs.len();
            t.row([
                abbr.to_string(),
                h.to_string(),
                format!("{:.3}", dens / found as f64),
                if diam_n > 0 {
                    format!("{:.2}", diam / diam_n as f64)
                } else {
                    "-".into()
                },
                found.to_string(),
            ]);
        }
    }
    format!(
        "## Table 4 — edge density & diameter of top-5 (paper: density grows with h, diameter ≤ 2)\n\n{}",
        t.render()
    )
}

/// Figure 14: size vs h-clique density, IPPV vs Greedy, `h ∈ {3, 5}`.
pub fn fig14(opts: &ExpOptions) -> String {
    let mut t = MdTable::new([
        "dataset",
        "h",
        "algorithm",
        "rank",
        "size",
        "h-clique density",
    ]);
    for abbr in ["CM", "PC"] {
        let d = dataset(abbr, opts.scale);
        for h in [3usize, 5] {
            let ippv = top_k_lhcds(&d.graph, h, 5, &IppvConfig::default());
            for (i, s) in ippv.subgraphs.iter().enumerate() {
                t.row([
                    abbr.to_string(),
                    h.to_string(),
                    "IPPV".into(),
                    (i + 1).to_string(),
                    s.vertices.len().to_string(),
                    format!("{:.2}", s.density.to_f64()),
                ]);
            }
            let greedy = greedy_top_k_cds(&d.graph, h, 5, 20);
            for (i, s) in greedy.iter().enumerate() {
                t.row([
                    abbr.to_string(),
                    h.to_string(),
                    "Greedy".into(),
                    (i + 1).to_string(),
                    s.vertices.len().to_string(),
                    format!("{:.2}", s.density.to_f64()),
                ]);
            }
            // the headline invariant of Figure 14: top-1 agrees
            if let (Some(a), Some(b)) = (ippv.subgraphs.first(), greedy.first()) {
                assert_eq!(a.density, b.density, "top-1 CDS density must agree");
            }
        }
    }
    format!(
        "## Figure 14 — IPPV vs Greedy subgraph statistics (paper: top-1 identical, Greedy lacks locality)\n\n{}",
        t.render()
    )
}

/// Table 5: average clustering coefficient of all LhCDSes for varying h.
pub fn table5(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "h", "avg clustering coefficient", "found"]);
    for abbr in ["PC", "HA", "PP", "CM", "EP", "WB", "GQ"] {
        let d = dataset(abbr, opts.scale);
        for h in [2usize, 3, 5, 7, 9] {
            let res = top_k_lhcds(&d.graph, h, 5, &IppvConfig::default());
            if res.subgraphs.is_empty() {
                t.row([abbr.into(), h.to_string(), "-".into(), "0".into()]);
                continue;
            }
            let mut cc = 0.0;
            for s in &res.subgraphs {
                let sub = InducedSubgraph::new(&d.graph, &s.vertices);
                cc += average_clustering(&sub.graph);
            }
            t.row([
                abbr.to_string(),
                h.to_string(),
                format!("{:.3}", cc / res.subgraphs.len() as f64),
                res.subgraphs.len().to_string(),
            ]);
        }
    }
    format!(
        "## Table 5 — clustering coefficient vs h (paper: grows with h; h=2 clearly lowest)\n\n{}",
        t.render()
    )
}

/// Figure 15: peak memory, IPPV vs LTDS (`h = 3, k = 5`). Requires the
/// counting allocator (installed by the harness binary).
pub fn fig15(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "IPPV peak (KB)", "LTDS peak (KB)"]);
    for spec in registry() {
        let d = spec.generate_scaled(opts.scale);
        reset_peak();
        let _ = top_k_lhcds(&d.graph, 3, 5, &IppvConfig::default());
        let ippv_peak = peak_bytes();
        reset_peak();
        let _ = FlowLds::ltds().top_k(&d.graph, 5);
        let ltds_peak = peak_bytes();
        t.row([spec.abbr.to_string(), fmt_kb(ippv_peak), fmt_kb(ltds_peak)]);
    }
    format!(
        "## Figure 15 — peak memory (paper: verification dominates; IPPV ≤ LTDS)\n\n{}",
        t.render()
    )
}

/// Figure 16: runtime vs CP iteration count `T`.
pub fn fig16(opts: &ExpOptions) -> String {
    let mut t = MdTable::new(["dataset", "T", "time (ms)"]);
    for abbr in ["EP", "HA", "CM", "PP", "EN", "GW", "AM"] {
        let d = dataset(abbr, opts.scale);
        for iters in [5usize, 10, 15, 20, 40, 60, 80, 100] {
            let cfg = IppvConfig {
                cp_iterations: iters,
                ..IppvConfig::default()
            };
            let (_, ms) = time_ms(|| top_k_lhcds(&d.graph, 3, 20, &cfg));
            t.row([abbr.to_string(), iters.to_string(), format!("{ms:.1}")]);
        }
    }
    format!(
        "## Figure 16 — runtime vs T (paper: optimum around T = 15–20)\n\n{}",
        t.render()
    )
}

/// Figure 17: polbooks-like L4xPDS case study over the six 4-vertex
/// patterns.
pub fn fig17(_opts: &ExpOptions) -> String {
    let pb = polbooks_like();
    let mut t = MdTable::new(["pattern", "rank", "size", "pattern density", "labels"]);
    for p in Pattern::all_four_vertex() {
        let res = top_k_lhxpds(&pb.graph, p, 2, &IppvConfig::default());
        if res.subgraphs.is_empty() {
            t.row([
                p.to_string(),
                "-".into(),
                "0".into(),
                "-".into(),
                "-".into(),
            ]);
        }
        for (i, s) in res.subgraphs.iter().enumerate() {
            t.row([
                p.to_string(),
                format!("top-{}", i + 1),
                s.vertices.len().to_string(),
                format!("{:.2}", s.density.to_f64()),
                label_mix(&pb, &s.vertices),
            ]);
        }
    }
    format!(
        "## Figure 17 — L4xPDS case study (paper: patterns select different regions/sizes)\n\n{}",
        t.render()
    )
}

/// Serial vs node-parallel kClist enumeration, recorded to
/// `BENCH_kclist.json` so future perf PRs have a committed
/// before/after anchor.
///
/// The workloads are fixed (independent of `--scale`) to keep the
/// recorded baseline comparable across runs: the largest
/// planted-community synthetic plus a dense `G(n, p)` whose 4/5-clique
/// counts dominate enumeration time. Every parallel run is asserted
/// equal to the serial count, and the per-vertex degree vector is
/// asserted byte-identical at 4 threads.
pub fn kclist(opts: &ExpOptions) -> String {
    let workloads: Vec<(&str, CsrGraph, Vec<usize>)> = vec![
        (
            "planted_communities_8000",
            lhcds::data::gen::planted_communities(
                8000,
                4,
                &[(28, 0.9), (22, 0.85), (16, 0.9), (12, 0.95)],
                0xBEEF,
            ),
            vec![3, 4, 5],
        ),
        (
            "gnp_2000_p10",
            lhcds::data::gen::gnp(2000, 0.1, 0xBEEF),
            vec![4, 5],
        ),
    ];
    let dir = std::env::var("LHCDS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    kclist_on(opts, workloads, std::path::Path::new(&dir))
}

/// [`kclist`] with explicit workloads and output directory (unit tests
/// swap in tiny graphs and a temp dir — the full-size sweep only runs
/// under the release-built harness).
fn kclist_on(
    opts: &ExpOptions,
    workloads: Vec<(&str, CsrGraph, Vec<usize>)>,
    out_dir: &std::path::Path,
) -> String {
    let mut threads: Vec<usize> = vec![1, 2, 4];
    if opts.threads > 0 && !threads.contains(&opts.threads) {
        threads.push(opts.threads);
    }

    let mut t = MdTable::new(["graph", "h", "threads", "time (ms)", "|Ψh|", "speedup"]);
    let mut json_rows: Vec<String> = Vec::new();
    for (name, g, hs) in &workloads {
        for &h in hs {
            let mut serial_ms = 0.0f64;
            let mut serial_count = 0u64;
            for &tc in &threads {
                let par = Parallelism::threads(tc);
                let (count, ms) = time_ms(|| par_count_cliques(g, h, &par));
                if tc == 1 {
                    serial_ms = ms;
                    serial_count = count;
                } else {
                    assert_eq!(count, serial_count, "{name} h={h} threads={tc} diverged");
                }
                let speedup = serial_ms / ms.max(1e-9);
                t.row([
                    name.to_string(),
                    h.to_string(),
                    tc.to_string(),
                    format!("{ms:.1}"),
                    count.to_string(),
                    format!("{speedup:.2}x"),
                ]);
                json_rows.push(format!(
                    "    {{\"graph\": \"{name}\", \"n\": {}, \"m\": {}, \"h\": {h}, \
                     \"threads\": {tc}, \"wall_ms\": {ms:.3}, \"cliques\": {count}, \
                     \"speedup_vs_serial\": {speedup:.3}}}",
                    g.n(),
                    g.m(),
                ));
            }
            // byte-identical degree vectors, the acceptance contract
            assert_eq!(
                par_count_per_vertex(g, h, &Parallelism::threads(4)),
                par_count_per_vertex(g, h, &Parallelism::serial()),
                "{name} h={h}: degree vectors must be byte-identical"
            );
        }
    }

    let provenance = BenchProvenance::detect();
    let host = provenance.host_parallelism;
    let json = format!(
        "{{\n  \"experiment\": \"kclist\",\n  {},\n  {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        provenance.json_fields(),
        provenance.speedup_fields(),
        json_rows.join(",\n")
    );
    let path = out_dir.join("BENCH_kclist.json");
    let note = match std::fs::write(&path, &json) {
        Ok(()) => format!("baseline recorded to `{}`", path.display()),
        Err(e) => format!("could not write `{}`: {e}", path.display()),
    };
    format!(
        "## kClist — serial vs node-parallel enumeration (host parallelism: {host})\n{}\n{}\n{note}\n",
        provenance.speedup_caveat(),
        t.render()
    )
}

/// Pattern enumeration, serial vs the sharded block-collect path: every
/// Figure 8 non-clique enumerator (3-star, 4-path, c3-star, 4-loop,
/// 2-triangle) plus the kClist-backed 4-clique, at 1/2/4 threads (and
/// `--threads`, when extra). Each parallel store is asserted
/// byte-identical to the serial one before its time is recorded — a
/// speedup that changed the answer would be worthless. Rows land in
/// `BENCH_patterns.json` with the standard provenance stamp
/// (`speedup_meaningful` etc.).
pub fn patterns(opts: &ExpOptions) -> String {
    let workloads: Vec<(&str, CsrGraph)> = vec![
        (
            "planted_communities_4000",
            lhcds::data::gen::planted_communities(
                4000,
                3,
                &[(22, 0.9), (16, 0.9), (12, 0.95)],
                0xBEEF,
            ),
        ),
        ("gnp_1200_p04", lhcds::data::gen::gnp(1200, 0.04, 0xBEEF)),
    ];
    let dir = std::env::var("LHCDS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    patterns_on(opts, workloads, std::path::Path::new(&dir))
}

/// [`patterns`] with explicit workloads and output directory (unit
/// tests swap in tiny graphs and a temp dir).
fn patterns_on(
    opts: &ExpOptions,
    workloads: Vec<(&str, CsrGraph)>,
    out_dir: &std::path::Path,
) -> String {
    let mut threads: Vec<usize> = vec![1, 2, 4];
    if opts.threads > 0 && !threads.contains(&opts.threads) {
        threads.push(opts.threads);
    }
    let sweep = [
        Pattern::Star3,
        Pattern::Path4,
        Pattern::TailedTriangle,
        Pattern::Cycle4,
        Pattern::Diamond,
        Pattern::Clique4,
    ];

    let mut t = MdTable::new([
        "graph",
        "pattern",
        "threads",
        "time (ms)",
        "instances",
        "speedup",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    for (name, g) in &workloads {
        for p in sweep {
            let mut serial_ms = 0.0f64;
            let mut serial_store = None;
            for &tc in &threads {
                let par = Parallelism::threads(tc);
                let (store, ms) = time_ms(|| enumerate_pattern_with(g, p, &par));
                match &serial_store {
                    None => {
                        serial_ms = ms;
                        serial_store = Some(store.clone());
                    }
                    Some(serial) => {
                        // byte-identity is the acceptance contract
                        assert_eq!(serial.len(), store.len(), "{name} {p} threads={tc}");
                        for i in 0..serial.len() {
                            assert_eq!(
                                serial.members(i),
                                store.members(i),
                                "{name} {p} threads={tc} instance {i} diverged"
                            );
                        }
                    }
                }
                let count = store.len();
                let speedup = serial_ms / ms.max(1e-9);
                t.row([
                    name.to_string(),
                    p.key(),
                    tc.to_string(),
                    format!("{ms:.1}"),
                    count.to_string(),
                    format!("{speedup:.2}x"),
                ]);
                json_rows.push(format!(
                    "    {{\"graph\": \"{name}\", \"n\": {}, \"m\": {}, \"pattern\": \"{}\", \
                     \"threads\": {tc}, \"wall_ms\": {ms:.3}, \"instances\": {count}, \
                     \"speedup_vs_serial\": {speedup:.3}}}",
                    g.n(),
                    g.m(),
                    p.key(),
                ));
            }
        }
    }

    let provenance = BenchProvenance::detect();
    let host = provenance.host_parallelism;
    let json = format!(
        "{{\n  \"experiment\": \"patterns\",\n  {},\n  {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        provenance.json_fields(),
        provenance.speedup_fields(),
        json_rows.join(",\n")
    );
    let path = out_dir.join("BENCH_patterns.json");
    let note = match std::fs::write(&path, &json) {
        Ok(()) => format!("baseline recorded to `{}`", path.display()),
        Err(e) => format!("could not write `{}`: {e}", path.display()),
    };
    format!(
        "## Patterns — serial vs sharded motif enumeration (host parallelism: {host})\n{}\n{}\n{note}\n",
        provenance.speedup_caveat(),
        t.render()
    )
}

/// Serving throughput of the `lhcds-service` daemon: spawn a server
/// in-process, hammer it from concurrent persistent connections with a
/// mixed query workload (`top_k` across the k range, `density_of`,
/// `membership`), and record QPS plus the server's own
/// histogram-derived p50/p99/p999 latency to `BENCH_serve.json`
/// (standard provenance stamp). Percentiles come from the same
/// [`lhcds::obs::Histogram`] the `stats` and `metrics` ops serve, so
/// the recorded baseline is exactly what operators will see live.
///
/// Queries are index reads — no flow network, no pipeline — so this
/// measures the protocol + thread-pool + LRU path, which is exactly
/// what a perf PR on the service layer needs as its before/after
/// anchor. Note the usual single-CPU caveat: with
/// `recorded_on_single_cpu: true`, client and server threads share one
/// core and the QPS floor is pessimistic.
///
/// A final *overload burst* phase starves the daemon (one worker, one
/// admission slot) under 2× the client count with a fresh connection
/// per request, and records the shed rate plus the p99 of admitted
/// requests — the committed baseline for the shedding policy.
pub fn serve_qps(_opts: &ExpOptions) -> String {
    let dir = std::env::var("LHCDS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let workloads: Vec<(&str, CsrGraph)> = vec![
        ("figure2", lhcds::data::figure2_graph()),
        (
            "planted_communities_2000",
            lhcds::data::gen::planted_communities(
                2000,
                3,
                &[(18, 0.9), (14, 0.9), (10, 0.95)],
                0xFEED,
            ),
        ),
    ];
    serve_qps_on(workloads, 4, 400, std::path::Path::new(&dir))
}

/// [`serve_qps`] with explicit workloads, client count, per-client
/// request count, and output directory (unit tests shrink all three).
fn serve_qps_on(
    workloads: Vec<(&str, CsrGraph)>,
    clients: usize,
    requests_per_client: usize,
    out_dir: &std::path::Path,
) -> String {
    use lhcds::core::index::{DecompositionIndex, IndexConfig};
    use lhcds::service::server::{ServeOptions, ServedIndexes, Server};
    use std::io::{BufRead, BufReader, Write};

    const K_MAX: usize = 8;
    let mut t = MdTable::new([
        "workload",
        "clients",
        "requests",
        "QPS",
        "p50 (µs)",
        "p99 (µs)",
        "p999 (µs)",
        "LRU hit rate",
    ]);
    let mut json_rows: Vec<String> = Vec::new();

    for (name, g) in &workloads {
        let mut served = ServedIndexes {
            name: (*name).into(),
            n: g.n(),
            m: g.m(),
            original_ids: None,
            indexes: std::collections::BTreeMap::new(),
            failed: std::collections::BTreeMap::new(),
        };
        served.insert(DecompositionIndex::build(
            g,
            3,
            &IndexConfig {
                k_max: K_MAX,
                ..IndexConfig::default()
            },
        ));
        let server = Server::bind(
            "127.0.0.1:0",
            served,
            &ServeOptions {
                workers: clients,
                ..ServeOptions::default()
            },
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();

        let n = g.n() as u64;
        let t0 = std::time::Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        // one persistent connection per client, like a
                        // well-behaved consumer
                        let stream = std::net::TcpStream::connect(addr).expect("connect");
                        stream.set_nodelay(true).ok();
                        let mut writer = stream.try_clone().expect("clone");
                        let mut reader = BufReader::new(stream);
                        let mut line = String::new();
                        for i in 0..requests_per_client {
                            // mixed workload: ~half hot top_k, half
                            // per-vertex point queries
                            let request = match i % 4 {
                                0 | 1 => format!(
                                    "{{\"op\":\"top_k\",\"h\":3,\"k\":{}}}\n",
                                    1 + (i + c) % K_MAX
                                ),
                                2 => format!(
                                    "{{\"op\":\"density_of\",\"h\":3,\"vertex\":{}}}\n",
                                    (i as u64 * 7919 + c as u64) % n
                                ),
                                _ => format!(
                                    "{{\"op\":\"membership\",\"h\":3,\"vertex\":{}}}\n",
                                    (i as u64 * 104729 + c as u64) % n
                                ),
                            };
                            writer.write_all(request.as_bytes()).expect("send");
                            writer.flush().expect("flush");
                            line.clear();
                            reader.read_line(&mut line).expect("receive");
                            assert!(line.contains("\"ok\":true"), "{name}: {line}");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client");
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let (hits, misses) = server.lru_counters();
        // server-side telemetry: every request the clients just sent —
        // and nothing else — is in the always-on latency histogram, so
        // the count doubles as a wiring check
        let total = clients * requests_per_client;
        let stats = server.stats();
        assert_eq!(
            stats.latency.count(),
            total as u64,
            "{name}: histogram must have recorded every request"
        );
        let (p50, p99, p999) = (
            stats.latency.p50(),
            stats.latency.p99(),
            stats.latency.p999(),
        );
        server.shutdown_handle().shutdown();
        server.join();

        let qps = total as f64 / wall_s.max(1e-9);
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

        t.row([
            name.to_string(),
            clients.to_string(),
            total.to_string(),
            format!("{qps:.0}"),
            p50.to_string(),
            p99.to_string(),
            p999.to_string(),
            format!("{:.0}%", hit_rate * 100.0),
        ]);
        json_rows.push(format!(
            "    {{\"workload\": \"{name}\", \"n\": {}, \"m\": {}, \"h\": 3, \
             \"k_max\": {K_MAX}, \"clients\": {clients}, \"requests\": {total}, \
             \"qps\": {qps:.1}, \"latency_source\": \"server_histogram\", \
             \"p50_us\": {p50}, \"p99_us\": {p99}, \"p999_us\": {p999}, \
             \"lru_hit_rate\": {hit_rate:.4}}}",
            g.n(),
            g.m(),
        ));
    }

    // Overload burst: a deliberately starved daemon (one worker, one
    // admission slot) hit by 2× the nominal client count, each client
    // opening a fresh connection per request — the worst-case consumer.
    // Records the shed rate and the p99 of the requests that *were*
    // admitted, so shedding-policy changes have a committed baseline.
    // Shedding is load-dependent: on a fast host the rate can be 0.0,
    // which is still a valid recording (the typed-error path is covered
    // separately by the chaos suite).
    let (burst_name, burst_graph) = &workloads[0];
    let mut served = ServedIndexes {
        name: (*burst_name).into(),
        n: burst_graph.n(),
        m: burst_graph.m(),
        original_ids: None,
        indexes: std::collections::BTreeMap::new(),
        failed: std::collections::BTreeMap::new(),
    };
    served.insert(DecompositionIndex::build(
        burst_graph,
        3,
        &IndexConfig {
            k_max: K_MAX,
            ..IndexConfig::default()
        },
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        served,
        &ServeOptions {
            workers: 1,
            max_pending: 1,
            ..ServeOptions::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let burst_clients = clients * 2;
    let per_client = requests_per_client / 2;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..burst_clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut line = String::new();
                    for i in 0..per_client {
                        let Ok(stream) = std::net::TcpStream::connect(addr) else {
                            continue; // accept backlog overflow counts as shed pressure
                        };
                        stream.set_nodelay(true).ok();
                        let mut writer = stream.try_clone().expect("clone");
                        let request = format!(
                            "{{\"op\":\"top_k\",\"h\":3,\"k\":{}}}\n",
                            1 + (i + c) % K_MAX
                        );
                        if writer.write_all(request.as_bytes()).is_err() {
                            continue;
                        }
                        writer.flush().ok();
                        line.clear();
                        let mut reader = BufReader::new(&stream);
                        let _ = reader.read_line(&mut line);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("burst client");
        }
    });
    let stats = server.stats();
    let admitted = stats.latency.count();
    let shed = stats.sheds.load(std::sync::atomic::Ordering::Relaxed);
    let burst_p99 = stats.latency.p99();
    server.shutdown_handle().shutdown();
    server.join();
    let offered = admitted + shed;
    let shed_rate = shed as f64 / offered.max(1) as f64;
    t.row([
        format!("{burst_name} (2x burst, workers=1)"),
        burst_clients.to_string(),
        offered.to_string(),
        "—".into(),
        "—".into(),
        burst_p99.to_string(),
        "—".into(),
        format!("shed {:.0}%", shed_rate * 100.0),
    ]);
    let burst_json = format!(
        "  \"overload_burst\": {{\"workload\": \"{burst_name}\", \"workers\": 1, \
         \"max_pending\": 1, \"clients\": {burst_clients}, \"offered\": {offered}, \
         \"admitted\": {admitted}, \"shed\": {shed}, \"shed_rate\": {shed_rate:.4}, \
         \"admitted_p99_us\": {burst_p99}}},"
    );

    let provenance = BenchProvenance::detect();
    let json = format!(
        "{{\n  \"experiment\": \"serve_qps\",\n  {},\n{burst_json}\n  \"rows\": [\n{}\n  ]\n}}\n",
        provenance.json_fields(),
        json_rows.join(",\n")
    );
    let path = out_dir.join("BENCH_serve.json");
    let note = match std::fs::write(&path, &json) {
        Ok(()) => format!("baseline recorded to `{}`", path.display()),
        Err(e) => format!("could not write `{}`: {e}", path.display()),
    };
    format!(
        "## serve_qps — query daemon throughput (host parallelism: {})\n\n{}\n{note}\n",
        provenance.host_parallelism,
        t.render()
    )
}

/// Flow-network reuse tier A/B: the decomposition ladder (exact dense
/// decomposition — every marginal-density probe) and a full IPPV run,
/// at both [`lhcds::core::FlowReuse`] tiers — `scratch` (reference
/// rebuild-per-probe) and `ggt` (one never-reset network per instance,
/// and the GGT divide-and-conquer for the whole ladder). Records wall time and the
/// flow work counters (networks/arcs built, max-flow invocations,
/// warm/retract/cold solves, GGT recursions) to `BENCH_flow.json` with
/// the standard provenance stamp — the committed before/after anchor
/// for flow-layer perf work.
///
/// Exactness is asserted, not hoped for: both tiers must produce
/// bit-identical decompositions and pipeline outputs — at every point
/// of the threads axis — the `ggt` tier must build strictly fewer
/// networks than it runs max-flows, and no more networks than
/// `scratch` on every row (the CI smoke contract).
pub fn flowreuse(opts: &ExpOptions) -> String {
    let dir = std::env::var("LHCDS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let workloads: Vec<(&str, CsrGraph, usize)> = vec![
        ("figure2", lhcds::data::figure2_graph(), 3),
        (
            "planted_communities_1200",
            lhcds::data::gen::planted_communities(
                1200,
                3,
                &[(20, 0.9), (16, 0.85), (12, 0.9), (10, 0.95)],
                0xF10,
            ),
            3,
        ),
        ("gnp_200_p20_h4", lhcds::data::gen::gnp(200, 0.2, 0xF10), 4),
    ];
    flowreuse_on(opts, workloads, std::path::Path::new(&dir))
}

/// [`flowreuse`] with explicit workloads and output directory. Public
/// for the integration test (`tests/flowreuse.rs`), which must own its
/// process: the experiment asserts exact process-wide flow-counter
/// relations, so it cannot share a test binary with other flow-running
/// tests.
pub fn flowreuse_on(
    opts: &ExpOptions,
    workloads: Vec<(&str, CsrGraph, usize)>,
    out_dir: &std::path::Path,
) -> String {
    use lhcds::core::density::dense_decomposition_threaded;
    use lhcds::core::{flow_stats, FlowReuse};

    // the threads axis: serial, a 4-way point, and any --threads extra
    let mut thread_axis: Vec<usize> = vec![1, 4];
    if opts.threads > 0 && !thread_axis.contains(&opts.threads) {
        thread_axis.push(opts.threads);
    }

    let mut t = MdTable::new([
        "graph",
        "h",
        "mode",
        "threads",
        "ladder (ms)",
        "pipeline (ms)",
        "max-flows",
        "networks",
        "arcs",
        "warm/retract/cold",
        "speedup",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    for (name, g, h) in &workloads {
        let cliques = lhcds::clique::CliqueSet::enumerate(g, *h);
        // the threads=1 baseline everything must byte-match, plus the
        // per-mode serial wall time the speedup column divides by
        let mut baseline: Option<(lhcds::core::density::DenseDecomposition, IppvResult)> = None;
        let mut serial_ms_by_mode: Vec<f64> = Vec::new();
        for &tc in &thread_axis {
            let mut networks_by_mode: Vec<u64> = Vec::new();
            for (mi, mode) in [FlowReuse::Scratch, FlowReuse::Ggt].into_iter().enumerate() {
                let cfg = IppvConfig {
                    flow_reuse: mode,
                    parallelism: Parallelism::threads(tc),
                    ..IppvConfig::default()
                };
                let before = flow_stats();
                let (decomp, ladder_ms) =
                    time_ms(|| dense_decomposition_threaded(g, &cliques, mode, tc));
                let (res, pipeline_ms) = time_ms(|| {
                    lhcds::core::pipeline::top_k_with_instances(g, &cliques, usize::MAX, &cfg)
                });
                let d = flow_stats().since(&before);

                if mode == FlowReuse::Scratch {
                    assert_eq!(
                        d.networks_built, d.max_flow_invocations,
                        "{name} threads={tc}: scratch mode must rebuild per probe"
                    );
                } else {
                    // the reuse contract, enforced on every run (CI smoke
                    // included): asymptotically fewer networks than ρ-probes
                    assert!(
                        d.max_flow_invocations <= 1 || d.networks_built < d.max_flow_invocations,
                        "{name} threads={tc}: {mode} built {} networks for {} max-flows",
                        d.networks_built,
                        d.max_flow_invocations
                    );
                    assert_eq!(
                        d.infeasible_reset, 0,
                        "{name} threads={tc}: the ggt tier must never reset a flow"
                    );
                }

                // pipeline speedup vs the same mode's threads=1 row —
                // honest only off a single-CPU host (provenance stamp)
                let speedup = if tc == 1 {
                    serial_ms_by_mode.push(pipeline_ms);
                    None
                } else {
                    Some(serial_ms_by_mode[mi] / pipeline_ms.max(1e-9))
                };

                t.row([
                    name.to_string(),
                    h.to_string(),
                    mode.to_string(),
                    tc.to_string(),
                    format!("{ladder_ms:.1}"),
                    format!("{pipeline_ms:.1}"),
                    d.max_flow_invocations.to_string(),
                    d.networks_built.to_string(),
                    d.arcs_built.to_string(),
                    format!("{}/{}/{}", d.warm_solves, d.retract_solves, d.cold_solves()),
                    speedup.map_or("-".into(), |s| format!("{s:.2}x")),
                ]);
                json_rows.push(format!(
                    "    {{\"graph\": \"{name}\", \"n\": {}, \"m\": {}, \"h\": {h}, \
                     \"mode\": \"{mode}\", \"threads\": {tc}, \
                     \"ladder_wall_ms\": {ladder_ms:.3}, \
                     \"pipeline_wall_ms\": {pipeline_ms:.3}, \
                     \"max_flow_invocations\": {}, \"networks_built\": {}, \
                     \"arcs_built\": {}, \"warm_solves\": {}, \"retract_solves\": {}, \
                     \"cold_solves\": {}, \"ggt_recursions\": {}, \
                     \"warm_hit_rate\": {:.4}{}}}",
                    g.n(),
                    g.m(),
                    d.max_flow_invocations,
                    d.networks_built,
                    d.arcs_built,
                    d.warm_solves,
                    d.retract_solves,
                    d.cold_solves(),
                    d.ggt_recursions,
                    d.warm_hit_rate(),
                    speedup.map_or(String::new(), |s| format!(
                        ", \"pipeline_speedup_vs_serial\": {s:.3}"
                    )),
                ));

                // bit-identity across every tier AND every thread
                // count: levels, compact numbers, pipeline outputs
                match &baseline {
                    None => baseline = Some((decomp, res)),
                    Some(base) => {
                        assert_eq!(
                            base.0.levels, decomp.levels,
                            "{name}/{mode}/t{tc}: ladder diverged"
                        );
                        assert_eq!(base.0.phi, decomp.phi, "{name}/{mode}/t{tc}: φ diverged");
                        assert_eq!(
                            base.1.subgraphs, res.subgraphs,
                            "{name}/{mode}/t{tc}: pipeline diverged"
                        );
                    }
                }
                networks_by_mode.push(d.networks_built);
            }
            // GGT never builds more networks than scratch, on every
            // row of the threads axis
            assert!(
                networks_by_mode[1] <= networks_by_mode[0],
                "{name} threads={tc}: ggt built {} networks vs scratch's {}",
                networks_by_mode[1],
                networks_by_mode[0]
            );
        }
    }

    let provenance = BenchProvenance::detect();
    let json = format!(
        "{{\n  \"experiment\": \"flowreuse\",\n  {},\n  {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        provenance.json_fields(),
        provenance.speedup_fields(),
        json_rows.join(",\n")
    );
    let path = out_dir.join("BENCH_flow.json");
    let note = match std::fs::write(&path, &json) {
        Ok(()) => format!("baseline recorded to `{}`", path.display()),
        Err(e) => format!("could not write `{}`: {e}", path.display()),
    };
    format!(
        "## flowreuse — parametric network reuse vs rebuild-per-probe (host parallelism: {})\n{}\n{}\n{note}\n",
        provenance.host_parallelism,
        provenance.speedup_caveat(),
        t.render()
    )
}

/// Observability overhead: the full IPPV pipeline with `lhcds_obs`
/// tracing off vs on, recorded to `BENCH_obs.json`.
///
/// Three claims, each asserted rather than eyeballed:
///
/// 1. **Byte-identity** — tracing must never change answers, so the
///    traced run's subgraphs are asserted equal to the untraced run's.
/// 2. **Disabled cost in the noise** — a disabled `span()` is one
///    relaxed atomic load plus an `Instant::now`; a microbenchmark
///    measures its per-call cost, and (span count in a real trace) ×
///    (that cost) is asserted under 1% of the untraced pipeline wall.
///    This estimate is deliberately used instead of differencing two
///    wall-clock medians, which on a noisy CI host would measure the
///    scheduler, not the instrumentation.
/// 3. **Enabled cost bounded** — the traced median is reported next to
///    the untraced one so regressions in the *enabled* path (e.g. a
///    lock on span creation) show up in the committed baseline.
/// 4. **Disarmed faults pinned** — the fault-injection registry shares
///    the same always-in contract as spans (one relaxed atomic load
///    when disarmed); its per-check cost is measured and held to the
///    same < 1%-of-wall bound, deliberately over-counting one check
///    per span site.
pub fn obs(_opts: &ExpOptions) -> String {
    let dir = std::env::var("LHCDS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let workloads: Vec<(&str, CsrGraph)> = vec![(
        "planted_communities_2000",
        lhcds::data::gen::planted_communities(2000, 3, &[(18, 0.9), (14, 0.9), (10, 0.95)], 0x0B5),
    )];
    obs_on(workloads, 3, std::path::Path::new(&dir))
}

/// [`obs`] with explicit workloads, repetition count, and output
/// directory (unit tests shrink all three).
fn obs_on(workloads: Vec<(&str, CsrGraph)>, reps: usize, out_dir: &std::path::Path) -> String {
    use lhcds::obs;

    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        xs[xs.len() / 2]
    };

    // per-call cost of a *disabled* span: the no-op contract the rest
    // of the codebase relies on to leave instrumentation always-in
    obs::set_tracing(false);
    let iters = 1_000_000u32;
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        let _guard = obs::span("disabled-span-microbench");
    }
    let disabled_span_ns = t0.elapsed().as_nanos() as f64 / f64::from(iters);

    // per-call cost of a *disarmed* fault-injection check: like the
    // disabled span, the registry's no-op contract is one relaxed
    // atomic load, and production request paths carry a handful of
    // these checks permanently
    obs::fault::disarm();
    let t0 = std::time::Instant::now();
    let mut fired_sum = 0u32;
    for _ in 0..iters {
        // black_box keeps the optimizer from hoisting the relaxed
        // load out of the loop and reporting a vacuous 0 ns
        fired_sum += u32::from(obs::fault::should_fire(std::hint::black_box(
            obs::fault::FaultPoint::SocketRead,
        )));
    }
    let disabled_fault_ns = t0.elapsed().as_nanos() as f64 / f64::from(iters);
    assert_eq!(fired_sum, 0, "disarmed registry must never fire");

    let mut t = MdTable::new([
        "workload",
        "reps",
        "off (ms)",
        "on (ms)",
        "spans",
        "off-overhead est.",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    for (name, g) in &workloads {
        let cfg = IppvConfig::default();
        let mut off_ms = Vec::with_capacity(reps);
        let mut on_ms = Vec::with_capacity(reps);
        let mut span_count = 0usize;
        for _ in 0..reps {
            obs::set_tracing(false);
            let _ = obs::take_trace();
            let (res_off, ms) = time_ms(|| top_k_lhcds(g, 3, 10, &cfg));
            off_ms.push(ms);

            obs::set_tracing(true);
            let (res_on, ms) = time_ms(|| top_k_lhcds(g, 3, 10, &cfg));
            on_ms.push(ms);
            obs::set_tracing(false);
            let trace = obs::take_trace().expect("traced run must leave a trace");
            // every span renders exactly one "name" key in the JSON
            // export — a cheap census that needs no tree-walking API
            span_count = trace.to_json().matches("\"name\":").count();
            assert!(span_count > 0, "{name}: traced pipeline recorded no spans");

            assert_eq!(
                res_off.subgraphs, res_on.subgraphs,
                "{name}: tracing changed the answer"
            );
        }
        let (off, on) = (median(off_ms), median(on_ms));
        // what the disabled instrumentation costs an untraced run:
        // every span site still executes its guard
        let overhead = (span_count as f64 * disabled_span_ns) / (off * 1e6).max(1.0);
        assert!(
            overhead < 0.01,
            "{name}: disabled tracing estimated at {:.3}% of wall (spans={span_count}, \
             {disabled_span_ns:.1} ns/span, off wall {off:.1} ms)",
            overhead * 100.0
        );
        // same pin for the disarmed fault registry, deliberately
        // over-counted: even if *every* span site also carried a fault
        // check (real request paths have ~4), the disarmed cost must
        // stay under 1% of the untraced wall
        let fault_overhead = (span_count as f64 * disabled_fault_ns) / (off * 1e6).max(1.0);
        assert!(
            fault_overhead < 0.01,
            "{name}: disarmed fault checks estimated at {:.3}% of wall \
             ({disabled_fault_ns:.1} ns/check, off wall {off:.1} ms)",
            fault_overhead * 100.0
        );

        t.row([
            name.to_string(),
            reps.to_string(),
            format!("{off:.1}"),
            format!("{on:.1}"),
            span_count.to_string(),
            format!("{:.4}%", overhead * 100.0),
        ]);
        json_rows.push(format!(
            "    {{\"workload\": \"{name}\", \"n\": {}, \"m\": {}, \"h\": 3, \"k\": 10, \
             \"reps\": {reps}, \"wall_off_ms\": {off:.3}, \"wall_on_ms\": {on:.3}, \
             \"trace_spans\": {span_count}, \"disabled_span_ns\": {disabled_span_ns:.2}, \
             \"estimated_off_overhead\": {overhead:.6}, \
             \"disabled_fault_ns\": {disabled_fault_ns:.2}, \
             \"estimated_fault_off_overhead\": {fault_overhead:.6}, \
             \"outputs_identical\": true}}",
            g.n(),
            g.m(),
        ));
    }

    let provenance = BenchProvenance::detect();
    let json = format!(
        "{{\n  \"experiment\": \"obs\",\n  {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        provenance.json_fields(),
        json_rows.join(",\n")
    );
    let path = out_dir.join("BENCH_obs.json");
    let note = match std::fs::write(&path, &json) {
        Ok(()) => format!("baseline recorded to `{}`", path.display()),
        Err(e) => format!("could not write `{}`: {e}", path.display()),
    };
    format!(
        "## obs — tracing overhead, off vs on (host parallelism: {})\n\n\
         disabled span: {disabled_span_ns:.1} ns/call · disarmed fault check: \
         {disabled_fault_ns:.1} ns/call\n\n{}\n{note}\n",
        provenance.host_parallelism,
        t.render()
    )
}

/// Ablation: fast-verifier features on/off (DESIGN.md §4).
pub fn ablation(opts: &ExpOptions) -> String {
    let mut t = MdTable::new([
        "dataset",
        "config",
        "time (ms)",
        "flow verifications",
        "shortcut accepts",
    ]);
    for abbr in ["HA", "CM", "EP"] {
        let d = dataset(abbr, opts.scale);
        // Every configuration must reproduce the reference output
        // bit-for-bit.
        let configs: [(&str, IppvConfig); 3] = [
            ("fast", IppvConfig::default()),
            (
                "basic",
                IppvConfig {
                    fast_verify: false,
                    ..IppvConfig::default()
                },
            ),
            (
                "no-cp (flow only)",
                IppvConfig {
                    use_cp: false,
                    use_prune: false,
                    fast_verify: false,
                    ..IppvConfig::default()
                },
            ),
        ];
        let reference = top_k_lhcds(&d.graph, 3, 10, &IppvConfig::default());
        for (name, cfg) in configs {
            let (res, ms) = time_ms(|| top_k_lhcds(&d.graph, 3, 10, &cfg));
            assert_eq!(
                res.subgraphs, reference.subgraphs,
                "{abbr}/{name}: results must not depend on configuration"
            );
            t.row([
                abbr.to_string(),
                name.to_string(),
                format!("{ms:.1}"),
                res.stats.flow_verifications.to_string(),
                res.stats.shortcut_accepts.to_string(),
            ]);
        }
    }
    format!(
        "## Ablation — verifier configurations (all exact; cost differs)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: ExpOptions = ExpOptions {
        scale: 0.011,
        threads: 0,
    };

    #[test]
    fn experiment_registry_is_complete() {
        for name in all_experiments() {
            // dispatch must know every id (we don't run them all here —
            // that's the harness's job)
            assert!([
                "table2",
                "table2real",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "table3",
                "fig13",
                "table4",
                "fig14",
                "table5",
                "fig15",
                "fig16",
                "fig17",
                "ablation",
                "kclist",
                "patterns",
                "serve_qps",
                "flowreuse",
                "obs"
            ]
            .contains(name));
        }
        assert!(run_experiment("nope", &TINY).is_none());
    }

    #[test]
    fn serve_qps_records_a_json_baseline() {
        let dir = std::env::temp_dir().join("lhcds_bench_serve_qps_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let tiny = vec![("figure2_tiny", lhcds::data::figure2_graph())];
        let out = serve_qps_on(tiny, 2, 12, &dir);
        assert!(out.contains("baseline recorded"), "{out}");
        assert!(out.contains("| figure2_tiny "), "{out}");
        let json = std::fs::read_to_string(dir.join("BENCH_serve.json")).unwrap();
        for key in [
            "\"experiment\": \"serve_qps\"",
            "\"host_parallelism\"",
            "\"recorded_on_single_cpu\"",
            "\"workload\": \"figure2_tiny\"",
            "\"clients\": 2",
            "\"requests\": 24",
            "\"qps\"",
            "\"latency_source\": \"server_histogram\"",
            "\"p50_us\"",
            "\"p99_us\"",
            "\"p999_us\"",
            "\"lru_hit_rate\"",
            "\"overload_burst\"",
            "\"max_pending\": 1",
            "\"shed_rate\"",
            "\"admitted_p99_us\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // histogram-derived percentiles are integer microseconds —
        // there must be no float in the latency fields
        assert!(!json.contains("\"p50_us\": 0."), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_records_a_json_baseline_and_bounds_overhead() {
        let dir = std::env::temp_dir().join("lhcds_bench_obs_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // big enough that the pipeline wall dwarfs span-guard cost even
        // in a debug build (the <1% assertion runs inside obs_on)
        let tiny = vec![(
            "planted_tiny",
            lhcds::data::gen::planted_communities(200, 3, &[(14, 0.9), (10, 0.9)], 0x0B5),
        )];
        let out = obs_on(tiny, 2, &dir);
        assert!(out.contains("baseline recorded"), "{out}");
        assert!(out.contains("disabled span:"), "{out}");
        let json = std::fs::read_to_string(dir.join("BENCH_obs.json")).unwrap();
        for key in [
            "\"experiment\": \"obs\"",
            "\"host_parallelism\"",
            "\"recorded_on_single_cpu\"",
            "\"workload\": \"planted_tiny\"",
            "\"reps\": 2",
            "\"wall_off_ms\"",
            "\"wall_on_ms\"",
            "\"trace_spans\"",
            "\"disabled_span_ns\"",
            "\"estimated_off_overhead\"",
            "\"disabled_fault_ns\"",
            "\"estimated_fault_off_overhead\"",
            "\"outputs_identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kclist_records_a_json_baseline() {
        let dir = std::env::temp_dir().join("lhcds_bench_kclist_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let tiny = vec![(
            "planted_tiny",
            lhcds::data::gen::planted_communities(60, 2, &[(8, 0.9)], 0xBEEF),
            vec![3usize],
        )];
        // 7 appears in neither the default sweep (1/2/4) nor the h
        // list, so it can only come from the --threads plumbing
        let out = kclist_on(
            &ExpOptions {
                threads: 7,
                ..ExpOptions::default()
            },
            tiny,
            &dir,
        );
        assert!(out.contains("baseline recorded"));
        assert!(out.contains("| 7 "), "extra --threads row missing");
        let json = std::fs::read_to_string(dir.join("BENCH_kclist.json")).unwrap();
        assert!(json.contains("\"threads\": 7"), "extra thread row: {json}");
        for key in [
            "\"experiment\": \"kclist\"",
            "\"host_parallelism\"",
            "\"recorded_on_single_cpu\"",
            "\"speedup_meaningful\"",
            "\"graph\"",
            "\"h\"",
            "\"threads\": 1",
            "\"wall_ms\"",
            "\"cliques\"",
            "\"speedup_vs_serial\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn patterns_records_a_json_baseline() {
        let dir = std::env::temp_dir().join("lhcds_bench_patterns_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let tiny = vec![("figure2_tiny", lhcds::data::figure2_graph())];
        // 7 appears nowhere in the default 1/2/4 sweep, so it can only
        // come from the --threads plumbing
        let out = patterns_on(
            &ExpOptions {
                threads: 7,
                ..ExpOptions::default()
            },
            tiny,
            &dir,
        );
        assert!(out.contains("baseline recorded"), "{out}");
        assert!(out.contains("| 7 "), "extra --threads row missing");
        let json = std::fs::read_to_string(dir.join("BENCH_patterns.json")).unwrap();
        for key in [
            "\"experiment\": \"patterns\"",
            "\"host_parallelism\"",
            "\"recorded_on_single_cpu\"",
            "\"speedup_meaningful\"",
            "\"pattern\": \"4-loop\"",
            "\"pattern\": \"2-triangle\"",
            "\"pattern\": \"clique.h4\"",
            "\"threads\": 1",
            "\"threads\": 7",
            "\"wall_ms\"",
            "\"instances\"",
            "\"speedup_vs_serial\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn fixture() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../data/fixtures/figure2.txt")
    }

    #[test]
    fn table2real_skips_gracefully_without_files() {
        let dir = std::env::temp_dir().join("lhcds_bench_table2real_skip");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        // no manifest at all
        let out = table2real_on(&TINY, &dir.join("none.toml"), &dir);
        assert!(out.contains("skipped: no manifest"));
        assert!(!dir.join("BENCH_table2.json").exists(), "hermetic skip");

        // manifest present, dataset files absent
        let manifest = dir.join("datasets.toml");
        std::fs::write(&manifest, "[gone]\npath = \"gone.txt\"\n").unwrap();
        let out = table2real_on(&TINY, &manifest, &dir);
        assert!(out.contains("none are"), "{out}");
        assert!(!dir.join("BENCH_table2.json").exists(), "hermetic skip");

        // unparseable manifest also skips rather than panics
        std::fs::write(&manifest, "[broken\n").unwrap();
        let out = table2real_on(&TINY, &manifest, &dir);
        assert!(out.contains("skipped:"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain-name"), "plain-name");
        assert_eq!(json_escape("we\"ird\\no"), "we\\\"ird\\\\no");
        assert_eq!(json_escape("tab\there"), "tab\\u0009here");
    }

    #[test]
    fn table2real_escapes_dataset_names_in_json() {
        let dir = std::env::temp_dir().join("lhcds_bench_table2real_escape");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("g.txt"), "0 1\n1 2\n2 0\n").unwrap();
        let manifest = dir.join("datasets.toml");
        std::fs::write(&manifest, "[we\"ird]\npath = \"g.txt\"\n").unwrap();
        let out = table2real_on(&TINY, &manifest, &dir);
        assert!(out.contains("recorded"), "{out}");
        let json = std::fs::read_to_string(dir.join("BENCH_table2.json")).unwrap();
        assert!(json.contains("\"dataset\": \"we\\\"ird\""), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table2real_records_present_datasets() {
        let dir = std::env::temp_dir().join("lhcds_bench_table2real_run");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(fixture(), dir.join("figure2.txt")).unwrap();
        let manifest = dir.join("datasets.toml");
        std::fs::write(
            &manifest,
            "[figure2]\npath = \"figure2.txt\"\nvertices = 20\nedges = 39\n\
             [absent]\npath = \"absent.txt\"\n",
        )
        .unwrap();

        let out = table2real_on(&TINY, &manifest, &dir);
        assert!(out.contains("| figure2 "), "{out}");
        assert!(out.contains("not downloaded (skipped): absent"), "{out}");
        let json = std::fs::read_to_string(dir.join("BENCH_table2.json")).unwrap();
        for key in [
            "\"experiment\": \"table2real\"",
            "\"host_parallelism\"",
            "\"recorded_on_single_cpu\"",
            "\"dataset\": \"figure2\"",
            "\"n\": 20",
            "\"m\": 39",
            "\"psi3\"",
            "\"psi5\"",
            "\"load_ms\"",
            "\"from_cache\": false",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // second run goes through the cache (and exercises the parallel
        // counting path, which is byte-identical to serial)
        let out = table2real_on(&ExpOptions { threads: 2, ..TINY }, &manifest, &dir);
        assert!(out.contains("cache"), "{out}");
        let json = std::fs::read_to_string(dir.join("BENCH_table2.json")).unwrap();
        assert!(json.contains("\"from_cache\": true"), "{json}");

        // when every present dataset fails, the recorded baseline must
        // NOT be clobbered with an empty rows array
        std::fs::write(
            &manifest,
            "[figure2]\npath = \"figure2.txt\"\nvertices = 9999\n",
        )
        .unwrap();
        let out = table2real_on(&TINY, &manifest, &dir);
        assert!(out.contains("FAILED"), "{out}");
        assert!(out.contains("left untouched"), "{out}");
        let unchanged = std::fs::read_to_string(dir.join("BENCH_table2.json")).unwrap();
        assert_eq!(unchanged, json, "good baseline must survive a failed run");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fig13_and_fig17_run_on_builtin_polbooks() {
        let out = fig13(&TINY);
        assert!(out.contains("top-1"));
        let out = fig17(&TINY);
        assert!(out.contains("4-clique"));
    }

    #[test]
    fn table2_lists_all_datasets() {
        let out = table2(&TINY);
        for abbr in ["HA", "GQ", "WT"] {
            assert!(out.contains(abbr), "missing {abbr}");
        }
    }

    #[test]
    fn ablation_runs_and_agrees() {
        let out = ablation(&TINY);
        assert!(out.contains("no-cp (flow only)"));
    }
}
