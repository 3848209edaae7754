//! Paper-scale sweep harness: genomes to 10⁵ SNPs and social graphs
//! toward 10⁶ nodes, with live metrics and full resource accounting.
//!
//! ROADMAP items 1-2 need runs far beyond the unit-test fixtures; this
//! binary is both the proof that the workspace survives those sizes and
//! the baseline every later PR must beat. For each size in the selected
//! profile it
//!
//! 1. generates the synthetic dataset once (GWAS catalog + genotype
//!    panel, or a Table-3.3-shaped social graph scaled up),
//! 2. runs the paper's inference kernel on it: sum-product BP for
//!    genomes across the kernel × threads grid (the scalar reference
//!    kernel at one thread, the production cache-blocked kernel at
//!    1/4/8 threads), and one single-chain Gibbs-sampling collective
//!    classification run at one thread for graphs (a single chain has no
//!    parallel work, so a thread axis would only re-measure it),
//! 3. records wall time, RSS / peak RSS (`/proc/self/status`), exact
//!    allocation deltas from the instrumented global allocator, and a
//!    content digest of the inference artifact (marginals / label
//!    distributions) so cross-thread bitwise identity is checkable from
//!    the JSON alone,
//!
//! writing the trajectory to `BENCH_SCALE.json` at the workspace root
//! (`ppdp-report diff` understands the file; see the `memory` metric
//! class). The whole run is observable live: a `ppdp-metrics` registry
//! with heartbeat and an ephemeral HTTP listener is installed up front,
//! and the harness *scrapes itself* mid-run, validates the OpenMetrics
//! payload, and records whether the BP round-progress gauge and per-span
//! allocation series were present — the acceptance probes for the live
//! observability layer.
//!
//! Usage: `bench_scale [--profile ci|paper|gate] [--out <path>]
//! [--max-peak-rss-bytes <n>] [--min-speedup <x>]`. The `ci` profile
//! keeps CI wall time low; `paper` sweeps to the full sizes (10⁵ SNPs,
//! 10⁶ graph nodes) and is what generates the checked-in baseline;
//! `gate` runs only the extreme sizes under an optional peak-RSS budget
//! (the ci.sh scale gate). `--min-speedup` demands that the fastest
//! blocked row beat the single-thread scalar row by at least the given
//! ratio at the largest genome size — the scalar row is the reference
//! kernel (`BpConfig::run_reference`), so the ratio gates the
//! blocked/vectorized path against it on the same machine and dataset,
//! with no wall-clock portability assumptions.
//!
//! Genome rows (`genome_log`) run the log-domain BP kernels. The harness
//! fails if one fails to converge or reports any `bp.renormalized`
//! repair — at paper scale the catalog's degree-2000 hub traits would
//! underflow linear-domain messages, and the log kernels must stay
//! exact. Rows of the same dataset and variant must agree
//! digest-for-digest across thread counts.

use ppdp::classify::{gibbs_run, GibbsConfig, LabeledGraph};
use ppdp::datagen::social::{generate, SocialConfig};
use ppdp::exec::ExecPolicy;
use ppdp::genomic::{BpConfig, Evidence, FactorGraph, Genotype, SnpId, TraitId};
use ppdp::metrics::alloc::CountingAlloc;
use ppdp::metrics::{http, LiveMetrics};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Every allocation in this binary flows through the counting allocator,
/// so the per-row allocation columns are exact (not sampled).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Catalogued associations per trait are capped here, mirroring real
/// panels where most of a 10⁵-locus array carries no association for any
/// given trait; past the cap the *trait list* grows instead
/// (`scaled_catalog`), so the factor count keeps scaling with the pool.
/// The cap is also the hub-trait degree, well past the ≈ 1100 where
/// linear-domain messages underflow. Recorded in every genome row as
/// `assoc_cap`.
const ASSOC_CAP: usize = 2_000;

/// The kernel × threads grid every genome dataset is swept under.
const GRID: [(&str, usize); 4] = [
    ("scalar", 1),
    ("blocked", 1),
    ("blocked", 4),
    ("blocked", 8),
];

/// One measured sweep point.
struct Row {
    kind: &'static str,
    size: usize,
    /// Factor count (genomes) or edge count (graphs).
    structure: usize,
    /// Kernel: `scalar` (the reference BP kernel) or `blocked` (the
    /// production kernel) for genome rows, `scan` (the sequential Gibbs
    /// sampler) for graph rows.
    variant: &'static str,
    /// Worker threads the inference ran under (dataset generation is
    /// shared across the grid and always sequential).
    threads: usize,
    /// Tile size for blocked rows (0 for scalar and scan rows).
    tile: usize,
    /// Per-trait association cap behind `structure` (0 for graph rows).
    assoc_cap: usize,
    /// FNV-1a over the inference artifact's f64 bits: equal digests mean
    /// bitwise-identical marginals / label distributions.
    digest: String,
    gen_wall_ns: u128,
    wall_ns: u128,
    /// BP sweeps or Gibbs sweeps actually performed.
    work_units: usize,
    converged: bool,
    /// `bp.renormalized` repairs during the run; the log kernels must
    /// report zero. Graph rows (Gibbs, no message products) are always
    /// zero.
    renormalized: u64,
    rss_bytes: u64,
    peak_rss_bytes: u64,
    alloc_bytes: u64,
    alloc_count: u64,
    peak_live_bytes: u64,
}

fn resource() -> (u64, u64) {
    ppdp::metrics::resource::sample()
        .map(|s| (s.rss_bytes, s.peak_rss_bytes))
        .unwrap_or((0, 0))
}

fn alloc_totals() -> (u64, u64, u64) {
    ppdp::metrics::alloc::totals()
        .map(|t| (t.bytes, t.count, t.peak_live_bytes))
        .unwrap_or((0, 0, 0))
}

/// FNV-1a 64 over a stream of f64 bit patterns.
fn fnv1a(h: &mut u64, x: f64) {
    for b in x.to_bits().to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn exec_for(threads: usize) -> ExecPolicy {
    if threads <= 1 {
        ExecPolicy::Sequential
    } else {
        ExecPolicy::parallel(threads)
    }
}

/// One BP run over a pre-built factor graph; the dataset is shared by the
/// whole kernel × threads grid, so rows differ only in the kernel path.
fn genome_row(
    graph: &FactorGraph,
    n_snps: usize,
    structure: usize,
    gen_wall_ns: u128,
    variant: &'static str,
    threads: usize,
) -> Row {
    let _span = ppdp::telemetry::span("scale.genome");
    let (bytes0, count0, _) = alloc_totals();
    let recorder = ppdp::telemetry::Recorder::new();
    let scope = recorder.enter();
    let start = Instant::now();
    let cfg = BpConfig {
        exec: exec_for(threads),
        ..Default::default()
    };
    let bp = if variant == "scalar" {
        cfg.run_reference(graph)
    } else {
        cfg.run(graph)
    };
    let wall_ns = start.elapsed().as_nanos();
    drop(scope);
    let renormalized = recorder.take().counter("bp.renormalized");
    let mut h = FNV_OFFSET;
    for m in &bp.snp_marginals {
        for &p in m {
            fnv1a(&mut h, p);
        }
    }
    for m in &bp.trait_marginals {
        for &p in m {
            fnv1a(&mut h, p);
        }
    }
    let (bytes1, count1, peak_live) = alloc_totals();
    let (rss, peak_rss) = resource();
    Row {
        kind: "genome_log",
        size: n_snps,
        structure,
        variant,
        threads,
        tile: if variant == "scalar" { 0 } else { 4096 },
        assoc_cap: ASSOC_CAP,
        digest: format!("{h:016x}"),
        gen_wall_ns,
        wall_ns,
        work_units: bp.iterations,
        converged: bp.converged,
        renormalized,
        rss_bytes: rss,
        peak_rss_bytes: peak_rss,
        alloc_bytes: bytes1 - bytes0,
        alloc_count: count1 - count0,
        peak_live_bytes: peak_live,
    }
}

/// Pre-built graph dataset for the Gibbs row at one size.
struct GraphData {
    data: ppdp::datagen::social::SocialDataset,
    known: Vec<bool>,
    gen_wall_ns: u128,
}

fn graph_dataset(nodes: usize) -> GraphData {
    let gen_start = Instant::now();
    // Caltech-shaped attributes scaled up; edges ≈ 8·|V| keeps the mean
    // degree in the band of the paper's datasets at any size.
    let edges = 8 * nodes;
    let data = generate(&SocialConfig {
        name: "scaled",
        nodes,
        edges,
        n_attrs: 7,
        label_arity: 4,
        utility_arity: 2,
        other_arity: 8,
        majority_frac: 0.72,
        components: 4,
        attr_corr: 0.52,
        homophily: 0.3,
        missing_frac: 0.1,
        seed: 42,
    });
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let known: Vec<bool> = (0..data.graph.user_count())
        .map(|_| rng.gen_bool(0.7))
        .collect();
    let gen_wall_ns = gen_start.elapsed().as_nanos();
    GraphData {
        data,
        known,
        gen_wall_ns,
    }
}

fn graph_row(gd: &GraphData, nodes: usize) -> Row {
    let _span = ppdp::telemetry::span("scale.graph");
    let (bytes0, count0, _) = alloc_totals();
    let lg = LabeledGraph::new(&gd.data.graph, gd.data.privacy_cat, gd.known.clone());
    let local = ppdp::classify::LocalKind::Bayes.fit(&lg);

    let start = Instant::now();
    // Short chains: the sweep cost (not the estimate quality) is what a
    // scale baseline pins, and 25 sweeps over 10⁵ unknowns is already
    // an order of magnitude beyond any test fixture.
    let out = match gibbs_run(
        &lg,
        local.as_ref(),
        GibbsConfig {
            burn_in: 5,
            samples: 20,
            ..Default::default()
        },
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_scale: gibbs failed at {nodes} nodes: {e}");
            std::process::exit(1);
        }
    };
    let wall_ns = start.elapsed().as_nanos();
    let mut h = FNV_OFFSET;
    for d in &out.dists {
        for &p in d {
            fnv1a(&mut h, p);
        }
    }
    let (bytes1, count1, peak_live) = alloc_totals();
    let (rss, peak_rss) = resource();
    Row {
        kind: "graph",
        size: nodes,
        structure: 8 * nodes,
        variant: "scan",
        threads: 1,
        tile: 0,
        assoc_cap: 0,
        digest: format!("{h:016x}"),
        gen_wall_ns: gd.gen_wall_ns,
        wall_ns,
        work_units: out.sweeps,
        converged: !out.degraded,
        renormalized: 0,
        rss_bytes: rss,
        peak_rss_bytes: peak_rss,
        alloc_bytes: bytes1 - bytes0,
        alloc_count: count1 - count0,
        peak_live_bytes: peak_live,
    }
}

/// Scrape the harness's own endpoint mid-run and probe the payload for
/// the acceptance series: valid OpenMetrics, the `bp.round` progress
/// gauge, and per-span allocation attribution.
struct ScrapeProbe {
    series: usize,
    validated: bool,
    bp_round_gauge: bool,
    span_alloc_series: bool,
}

fn self_scrape(addr: &std::net::SocketAddr) -> ScrapeProbe {
    let body = match http::scrape(addr) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_scale: self-scrape failed: {e}");
            std::process::exit(1);
        }
    };
    let stats = match ppdp::metrics::validate(&body) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_scale: scrape is not valid OpenMetrics: {e}");
            std::process::exit(1);
        }
    };
    ScrapeProbe {
        series: stats.samples,
        validated: true,
        bp_round_gauge: body.contains("\nbp_round "),
        span_alloc_series: body.contains("alloc_span_"),
    }
}

fn row_json(r: &Row) -> String {
    format!(
        "    {{\"kind\": \"{}\", \"size\": {}, \"structure\": {}, \"variant\": \"{}\", \
         \"threads\": {}, \"tile\": {}, \"assoc_cap\": {}, \"digest\": \"{}\", \
         \"gen_wall_ns\": {}, \
         \"wall_ns\": {}, \"work_units\": {}, \"converged\": {}, \"renormalized\": {}, \
         \"rss_bytes\": {}, \
         \"peak_rss_bytes\": {}, \"alloc_bytes\": {}, \"alloc_count\": {}, \
         \"peak_live_bytes\": {}}}",
        r.kind,
        r.size,
        r.structure,
        r.variant,
        r.threads,
        r.tile,
        r.assoc_cap,
        r.digest,
        r.gen_wall_ns,
        r.wall_ns,
        r.work_units,
        r.converged,
        r.renormalized,
        r.rss_bytes,
        r.peak_rss_bytes,
        r.alloc_bytes,
        r.alloc_count,
        r.peak_live_bytes,
    )
}

fn main() {
    let mut profile = String::from("ci");
    let mut out_path: Option<String> = None;
    let mut max_peak_rss: Option<u64> = None;
    let mut min_speedup: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => {
                profile = args
                    .next()
                    .unwrap_or_else(|| usage("--profile needs ci|paper|gate"))
            }
            "--out" => out_path = Some(args.next().unwrap_or_else(|| usage("--out needs a path"))),
            "--max-peak-rss-bytes" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--max-peak-rss-bytes needs a byte count"));
                max_peak_rss = Some(v.parse().unwrap_or_else(|_| {
                    usage(&format!("--max-peak-rss-bytes: bad byte count {v}"))
                }));
            }
            "--min-speedup" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--min-speedup needs a ratio"));
                let parsed: f64 = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("--min-speedup: bad ratio {v}")));
                if !(parsed.is_finite() && parsed >= 1.0) {
                    usage(&format!("--min-speedup: ratio must be ≥ 1, got {v}"));
                }
                min_speedup = Some(parsed);
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let (genome_sizes, graph_sizes): (&[usize], &[usize]) = match profile.as_str() {
        "ci" => (&[2_000, 10_000], &[5_000, 20_000]),
        "paper" => (
            &[10_000, 50_000, 100_000],
            &[25_000, 100_000, 250_000, 1_000_000],
        ),
        // CI regression gate at the paper's extreme sizes only: the
        // 10⁵-SNP genome and the 10⁶-node graph,
        // typically bounded by --max-peak-rss-bytes and --min-speedup.
        "gate" => (&[100_000], &[1_000_000]),
        other => usage(&format!("unknown profile {other} (want ci|paper|gate)")),
    };
    let out_path = out_path
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_SCALE.json").into());

    // Live observability for the whole run: registry + heartbeat +
    // ephemeral scrape port. Headless consumers can additionally set
    // PPDP_METRICS_SNAPSHOT; the listener here is for the self-probe.
    let live = LiveMetrics::install(Some("127.0.0.1:0"), 200, None, None);
    let addr = match live.addr() {
        Some(a) => a,
        None => {
            eprintln!("bench_scale: metrics listener failed to bind");
            std::process::exit(1);
        }
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut probe: Option<ScrapeProbe> = None;
    for &n in genome_sizes {
        eprintln!("bench_scale: generating {n}-SNP catalog …");
        let gen_start = Instant::now();
        let catalog = ppdp::datagen::gwas::scaled_catalog(n, ASSOC_CAP, 2, 7);
        let evidence = Evidence::none()
            .with_snp(SnpId(0), Genotype::HomRisk)
            .with_snp(SnpId(5), Genotype::Het)
            .with_trait(TraitId(2), true);
        let graph = match FactorGraph::build(&catalog, &evidence) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("bench_scale: factor graph build failed at {n} SNPs: {e}");
                std::process::exit(1);
            }
        };
        let structure = catalog.associations().len();
        let gen_wall_ns = gen_start.elapsed().as_nanos();
        for (variant, threads) in GRID {
            eprintln!("bench_scale: genome sweep at {n} SNPs ({variant}@{threads}) …");
            rows.push(genome_row(
                &graph,
                n,
                structure,
                gen_wall_ns,
                variant,
                threads,
            ));
            if probe.is_none() {
                // Mid-run on purpose: the registry must already carry the
                // BP round gauge and span attribution while work
                // continues.
                probe = Some(self_scrape(&addr));
            }
        }
    }
    for &n in graph_sizes {
        eprintln!("bench_scale: generating {n}-node graph …");
        let gd = graph_dataset(n);
        eprintln!("bench_scale: graph sweep at {n} nodes (scan@1) …");
        rows.push(graph_row(&gd, n));
    }
    let probe = probe.unwrap_or_else(|| usage("profile has no genome sizes"));
    let snap = live.finish();

    let max_threads = GRID.iter().map(|&(_, t)| t).max().unwrap_or(1);
    let json = format!(
        "{{\n  \"profile\": \"{profile}\",\n  \"threads\": {max_threads},\n  \
         \"scrape\": {{\"series\": {}, \
         \"validated\": {}, \"bp_round_gauge\": {}, \"span_alloc_series\": {}}},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        probe.series,
        probe.validated,
        probe.bp_round_gauge,
        probe.span_alloc_series,
        rows.iter().map(row_json).collect::<Vec<_>>().join(",\n"),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("bench_scale: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");

    let mut failed = false;
    if !probe.bp_round_gauge {
        eprintln!("GATE FAIL: mid-run scrape is missing the bp_round progress gauge");
        failed = true;
    }
    if !probe.span_alloc_series {
        eprintln!("GATE FAIL: mid-run scrape is missing per-span allocation series");
        failed = true;
    }
    if snap.counters.get("alloc.bytes").copied().unwrap_or(0) == 0 {
        eprintln!("GATE FAIL: counting allocator reported no traffic");
        failed = true;
    }
    for r in &rows {
        if r.peak_rss_bytes == 0 && std::path::Path::new("/proc/self/status").exists() {
            eprintln!("GATE FAIL: {} row at {} has no RSS sample", r.kind, r.size);
            failed = true;
        }
    }
    if let Some(budget) = max_peak_rss {
        for r in &rows {
            if r.peak_rss_bytes > budget {
                eprintln!(
                    "GATE FAIL: {} row at {} peaked at {} RSS bytes (budget {budget})",
                    r.kind, r.size, r.peak_rss_bytes
                );
                failed = true;
            }
        }
    }
    // Determinism gate, checkable from the digests alone: within one
    // (dataset, variant) group every thread count must produce the same
    // artifact bit-for-bit (the blocked kernel's lane reassociation puts
    // it ≤ 1e-12 from the scalar reference, not bitwise, so variants are
    // compared separately).
    for r in &rows {
        if let Some(first) = rows
            .iter()
            .find(|o| (o.kind, o.size, o.variant) == (r.kind, r.size, r.variant))
        {
            if first.digest != r.digest {
                eprintln!(
                    "GATE FAIL: {} row at {} ({}@{}) digest {} deviates from {} at {} threads \
                     — thread count changed the artifact",
                    r.kind, r.size, r.variant, r.threads, r.digest, first.digest, first.threads
                );
                failed = true;
            }
        }
    }
    // Kernel-health gates: paper-scale catalogs carry degree-2000 hub
    // traits whose message product underflows linear-domain messages. The
    // log kernels must be repair-free and converge at every size — one
    // nonzero `bp.renormalized` in a genome_log row means the LSE path
    // lost mass.
    for r in rows.iter().filter(|r| r.kind == "genome_log") {
        if r.renormalized != 0 {
            eprintln!(
                "GATE FAIL: log-domain row at {} SNPs needed {} underflow repairs",
                r.size, r.renormalized
            );
            failed = true;
        }
        if !r.converged {
            eprintln!(
                "GATE FAIL: log-domain row at {} SNPs did not converge",
                r.size
            );
            failed = true;
        }
    }
    // Speedup gate: on the largest genome_log dataset, the fastest
    // blocked row must beat the single-thread scalar row (the reference
    // kernel, measured in the same process on the same dataset) by the
    // requested ratio.
    if let Some(ratio) = min_speedup {
        let kind = "genome_log";
        if let Some(max_size) = rows.iter().filter(|r| r.kind == kind).map(|r| r.size).max() {
            let at = |variant: &str| {
                rows.iter()
                    .filter(|r| r.kind == kind && r.size == max_size && r.variant == variant)
                    .map(|r| r.wall_ns)
                    .min()
            };
            match (at("scalar"), at("blocked")) {
                (Some(scalar_ns), Some(blocked_ns)) if blocked_ns > 0 => {
                    let speedup = scalar_ns as f64 / blocked_ns as f64;
                    eprintln!(
                        "bench_scale: {kind} at {max_size}: blocked speedup {speedup:.2}× \
                         (scalar {scalar_ns} ns, best blocked {blocked_ns} ns)"
                    );
                    if speedup < ratio {
                        eprintln!(
                            "GATE FAIL: {kind} blocked speedup {speedup:.2}× is below the \
                             required {ratio:.2}×"
                        );
                        failed = true;
                    }
                }
                _ => {
                    eprintln!("GATE FAIL: {kind} rows missing a scalar/blocked pair at {max_size}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    let max_rss = rows.iter().map(|r| r.peak_rss_bytes).max().unwrap_or(0);
    println!(
        "bench_scale OK: {} rows, peak RSS {:.1} MiB → {out_path}",
        rows.len(),
        max_rss as f64 / (1024.0 * 1024.0)
    );
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "bench_scale: {msg}\nusage: bench_scale [--profile ci|paper|gate] \
         [--out <path>] [--max-peak-rss-bytes <n>] [--min-speedup <x>]"
    );
    std::process::exit(2)
}
