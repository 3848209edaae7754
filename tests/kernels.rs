//! Differential kernel-test suite: the log-domain BP kernel behind
//! [`ppdp::genomic::BpConfig::run`] against two oracles, on the golden
//! fixtures and on adversarial numeric structure:
//!
//! * the linear engine [`ppdp::genomic::IncrementalBp`] after a cold full
//!   refresh — the same fixed point, iterated in probability space;
//! * [`ppdp::genomic::exhaustive_marginals`] on forests — the exact
//!   answer;
//!
//! and against its own scalar reference kernel
//! ([`ppdp::genomic::BpConfig::run_reference`]).
//!
//! The contract under test (DESIGN.md, "numerical model"):
//!
//! * the log kernel and the linear engine reach the same fixed point —
//!   marginals agree to ≤ 1e-9 on every golden fixture when run to a
//!   tight tolerance — and the log kernel is exact on forests;
//! * the greedy sanitizer makes identical picks on either;
//! * the log kernel is policy- and tile-bitwise, and within 1e-12 of its
//!   scalar reference;
//! * crash-safe resume (`publish_resumable`) stays bitwise identical
//!   with warm thread-local arenas;
//! * structure that underflows linear messages (hub traits of degree
//!   ≳ 1100, vanishing factor tables) sends the linear engine unclean,
//!   leaves the log kernel finite, normalized and degradation-free, and
//!   moves `GenomePublisher::publish` onto the log kernel;
//! * the log kernel's arenas stay within their per-factor byte budget.

use ppdp::datagen;
use ppdp::exec::ExecPolicy;
use ppdp::genomic::kinship::transmission_table;
use ppdp::genomic::sanitize::{Predictor, Target};
use ppdp::genomic::{
    exhaustive_marginals, greedy_sanitize_incremental, greedy_sanitize_with, BpConfig, BpResult,
    Evidence, FactorGraph, Genotype, GwasCatalog, IncrementalBp, SnpId, TraitId,
};
use ppdp::publish::GenomePublisher;
use ppdp::telemetry::Recorder;
use proptest::prelude::*;

/// Tight-tolerance config; the 1e-9 cross-domain agreement bound only
/// holds when both engines converge well below it.
fn tight() -> BpConfig {
    BpConfig {
        tol: 1e-12,
        max_iters: 400,
        ..Default::default()
    }
}

/// The linear oracle: the incremental engine after a cold full refresh,
/// read out as a [`BpResult`] (`degraded` reports an unclean engine).
fn linear(g: &FactorGraph, cfg: BpConfig) -> BpResult {
    let mut engine = IncrementalBp::new(g.clone(), cfg);
    let out = engine.refresh();
    BpResult {
        snp_marginals: engine.snp_marginals(),
        trait_marginals: engine.trait_marginals(),
        iterations: out.updates as usize,
        converged: out.converged,
        final_residual: 0.0,
        restarts: 0,
        degraded: !out.clean,
    }
}

/// Max absolute marginal difference across every SNP and trait variable.
fn marginal_gap(a: &BpResult, b: &BpResult) -> f64 {
    let mut gap: f64 = 0.0;
    for (x, y) in a.snp_marginals.iter().zip(&b.snp_marginals) {
        for (u, v) in x.iter().zip(y) {
            gap = gap.max((u - v).abs());
        }
    }
    for (x, y) in a.trait_marginals.iter().zip(&b.trait_marginals) {
        for (u, v) in x.iter().zip(y) {
            gap = gap.max((u - v).abs());
        }
    }
    gap
}

/// Asserts every marginal is finite and sums to 1 at f64 precision.
fn assert_normalized(r: &BpResult) {
    for m in &r.snp_marginals {
        assert!(m.iter().all(|x| x.is_finite()), "non-finite SNP marginal");
        let z: f64 = m.iter().sum();
        assert!((z - 1.0).abs() < 1e-12, "SNP marginal sums to {z}");
    }
    for m in &r.trait_marginals {
        assert!(m.iter().all(|x| x.is_finite()), "non-finite trait marginal");
        let z: f64 = m.iter().sum();
        assert!((z - 1.0).abs() < 1e-12, "trait marginal sums to {z}");
    }
}

/// The BP golden fixture from `tests/golden.rs` (same catalog seed and
/// evidence as `bp_marginals.json`).
fn bp_golden_fixture() -> FactorGraph {
    let catalog = datagen::gwas::synthetic_catalog(40, 4, 1, 7);
    let evidence = Evidence::none()
        .with_snp(SnpId(0), Genotype::HomRisk)
        .with_snp(SnpId(5), Genotype::Het)
        .with_trait(TraitId(2), true);
    FactorGraph::build(&catalog, &evidence).unwrap()
}

/// Star catalog: one trait observed by `degree` SNP associations. The
/// trait-side cavity in linear space is a product of `degree − 1`
/// sub-unit message components, which hits exact 0.0 once the degree
/// passes ≈ 1100 (2⁻¹⁰⁷⁴ is the smallest subnormal).
fn hub_catalog(degree: usize) -> GwasCatalog {
    let mut cat = GwasCatalog::new(degree);
    let t = cat.add_trait("hub", 0.3);
    for s in 0..degree {
        cat.associate(
            SnpId(s),
            t,
            1.2 + 0.3 * (s % 7) as f64 / 7.0,
            0.1 + 0.05 * (s % 5) as f64,
        );
    }
    cat
}

#[test]
fn log_and_linear_marginals_agree_on_golden_fixture() {
    let g = bp_golden_fixture();
    for exec in [ExecPolicy::Sequential, ExecPolicy::parallel(4)] {
        let cfg = BpConfig { exec, ..tight() };
        let lin = linear(&g, cfg);
        let log = cfg.run(&g);
        assert!(lin.converged && log.converged);
        assert!(!lin.degraded && !log.degraded);
        assert_normalized(&log);
        let gap = marginal_gap(&lin, &log);
        assert!(gap <= 1e-9, "cross-domain marginal gap {gap} > 1e-9");
    }
}

/// The exact oracle: on forests BP marginals are exact, so the log
/// kernel must reproduce joint enumeration — with and without evidence,
/// across the shared-SNP star whose width walks the lane remainders.
#[test]
fn log_kernel_matches_exhaustive_on_forests() {
    let fig = ppdp::genomic::factor_graph::figure_5_1_catalog();
    let mut cases = vec![
        (fig.clone(), Evidence::none()),
        (
            fig,
            Evidence::none()
                .with_snp(SnpId(1), Genotype::HomRisk)
                .with_trait(TraitId(2), true),
        ),
    ];
    for k in 1..=5 {
        cases.push((
            shared_snp_catalog(k),
            Evidence::none().with_snp(SnpId(1), Genotype::Het),
        ));
    }
    for (cat, ev) in &cases {
        let g = FactorGraph::build(cat, ev).unwrap();
        assert!(g.is_forest());
        let exact = exhaustive_marginals(&g);
        let log = tight().run(&g);
        assert!(log.converged && !log.degraded);
        let gap = marginal_gap(&exact, &log);
        assert!(gap <= 1e-9, "log kernel {gap} away from exhaustive");
    }
}

#[test]
fn log_domain_is_policy_bitwise_on_golden_fixture() {
    let g = bp_golden_fixture();
    let seq = tight().run(&g);
    assert!(!seq.degraded);
    for threads in [1, 2, 8] {
        let par = BpConfig {
            exec: ExecPolicy::parallel(threads),
            ..tight()
        }
        .run(&g);
        assert_eq!(seq.iterations, par.iterations);
        for (a, b) in seq.snp_marginals.iter().zip(&par.snp_marginals) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "log kernel not policy-bitwise");
            }
        }
        for (a, b) in seq.trait_marginals.iter().zip(&par.trait_marginals) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "log kernel not policy-bitwise");
            }
        }
    }
}

/// The closure sanitizer on the log kernel and the incremental sanitizer
/// on the linear engine make the same picks with the same privacy
/// history.
#[test]
fn greedy_sanitizer_picks_are_identical_across_domains() {
    let catalog = datagen::gwas::synthetic_catalog(60, 5, 2, 11);
    let panel = datagen::genomes::amd_like(&catalog, TraitId(0), 10, 10, 11);
    let evidence = panel.full_evidence(0);
    let targets = [Target::Trait(TraitId(0)), Target::Trait(TraitId(1))];
    let log = greedy_sanitize_with(
        ExecPolicy::Sequential,
        &catalog,
        &evidence,
        &targets,
        0.9999,
        8,
        Predictor::BeliefPropagation(tight()),
    )
    .unwrap();
    let lin = greedy_sanitize_incremental(
        ExecPolicy::Sequential,
        &catalog,
        &evidence,
        &targets,
        0.9999,
        8,
        tight(),
    )
    .unwrap();
    assert_eq!(lin.removed, log.removed, "greedy picks diverged by domain");
    assert_eq!(lin.satisfied, log.satisfied);
    assert_eq!(lin.history.len(), log.history.len());
    for (a, b) in lin.history.iter().zip(&log.history) {
        assert!(
            (a - b).abs() <= 1e-9,
            "privacy history drift across domains: {a} vs {b}"
        );
    }
}

/// The incremental engine behind `publish` keeps linear messages, and a
/// degree-1200 hub underflows them. A default `publish` therefore runs
/// the log-kernel sanitizer: its outcome is that of `greedy_sanitize_with`
/// under the same configuration, bit for bit, and it reports no
/// degradation.
#[test]
fn log_publish_on_a_hub_stays_on_the_log_kernel() {
    let catalog = hub_catalog(1200);
    let mut evidence = Evidence::none();
    for s in 0..6 {
        evidence = evidence.with_snp(SnpId(s * 100), Genotype::HomRisk);
    }
    let targets = [Target::Trait(TraitId(0))];
    let g = FactorGraph::build(&catalog, &evidence).unwrap();
    assert!(
        linear(&g, BpConfig::default()).degraded,
        "the linear engine should not represent a degree-1200 hub"
    );
    let report = GenomePublisher::new(&catalog, 0.9999)
        .max_removals(3)
        .publish(&evidence, &targets)
        .unwrap();
    let reference = greedy_sanitize_with(
        ExecPolicy::Sequential,
        &catalog,
        &evidence,
        &targets,
        0.9999,
        3,
        Predictor::BeliefPropagation(BpConfig::default()),
    )
    .unwrap();
    let out = &report.outcome;
    assert!(!out.predictor_degraded, "publish degraded on a hub");
    assert_eq!(report.telemetry.degradations(), 0);
    assert_eq!(out.removed, reference.removed);
    assert_eq!(out.satisfied, reference.satisfied);
    let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out.history), bits(&reference.history));
    assert_eq!(bits(&out.error_history), bits(&reference.error_history));
    assert!(
        out.history[0] < 0.9999 && !out.removed.is_empty(),
        "the released hub evidence must leak: {out:?}"
    );
}

/// The log-kernel fallback of a hub publish has no pick journal, so a
/// checkpointed publish refuses the graph instead of answering from
/// repaired linear messages.
#[test]
fn resumable_publish_refuses_a_hub_the_linear_engine_cannot_represent() {
    let catalog = hub_catalog(1200);
    let evidence = Evidence::none().with_snp(SnpId(0), Genotype::HomRisk);
    let dir = tempdir("kernels-hub-resume");
    let store = ppdp::durable::CheckpointStore::open(&dir).unwrap();
    let err = GenomePublisher::new(&catalog, 0.9999)
        .max_removals(2)
        .publish_resumable(&evidence, &[Target::Trait(TraitId(0))], &store, "hub")
        .unwrap_err();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(err.kind(), "invalid_input");
}

/// Regression: a hub trait of degree 1500 underflows the linear
/// trait-side cavity (a product of 1499 sub-unit components). The linear
/// engine detects it — every message through the hub is repaired and
/// the engine reports unclean — while the log kernel never leaves the
/// representable range and reproduces the healthy-degree answer with a
/// `degraded.*`-free RunReport.
#[test]
fn hub_trait_underflows_linear_but_not_log() {
    let ev = Evidence::none().with_snp(SnpId(0), Genotype::HomRisk);
    let g = FactorGraph::build(&hub_catalog(1500), &ev).unwrap();
    // Oracle: at degree 400 the linear engine is still healthy, and the
    // per-factor trait pull of an unobserved flat SNP is uniform, so the
    // true trait marginal is degree-invariant.
    let small = FactorGraph::build(&hub_catalog(400), &ev).unwrap();
    let oracle = linear(&small, BpConfig::default());
    assert!(!oracle.degraded && oracle.converged);

    let lin_rec = Recorder::new();
    let lin = {
        let _scope = lin_rec.enter();
        linear(&g, BpConfig::default())
    };
    assert!(lin.degraded, "the linear engine survived a 1500-hub");
    assert!(lin_rec.take().counter("bp.renormalized") >= 1500);

    let log_rec = Recorder::new();
    let log = {
        let _scope = log_rec.enter();
        BpConfig::default().run(&g)
    };
    let log_report = log_rec.take();
    assert!(!log.degraded, "log kernel degraded on a degree-1500 hub");
    assert!(log.converged);
    assert_eq!(log_report.degradations(), 0);
    assert_eq!(log_report.counter("bp.renormalized"), 0);
    assert_normalized(&log);
    for (a, b) in log.trait_marginals[0]
        .iter()
        .zip(&oracle.trait_marginals[0])
    {
        assert!(
            (a - b).abs() <= 1e-9,
            "log marginal {a} drifted from healthy-degree oracle {b}"
        );
    }
}

/// A 10⁴-deep Mendelian chain propagates evidence end to end in both
/// domains: per-hop normalization keeps linear messages finite on chains
/// (only hubs underflow them), so the two must agree.
#[test]
fn deep_kin_chain_stays_finite_in_both_domains() {
    const DEPTH: usize = 10_000;
    // One trait per SNP: the factor graph only materializes SNPs that
    // appear in an association, and a per-SNP trait keeps every variable
    // at association-degree 1 (no hub — the chain is the structure under
    // test).
    let mut cat = GwasCatalog::new(DEPTH);
    for i in 0..DEPTH {
        let t = cat.add_trait(format!("t{i}"), 0.2);
        cat.associate(SnpId(i), t, if i == 0 { 1.6 } else { 1.05 }, 0.2);
    }
    let ev = Evidence::none().with_snp(SnpId(0), Genotype::HomRisk);
    let mut g = FactorGraph::build(&cat, &ev).unwrap();
    let table = transmission_table(0.3);
    g.add_kin_factors((0..DEPTH - 1).map(|i| (i, i + 1, table)))
        .unwrap();

    let lin = linear(&g, BpConfig::default());
    let log = BpConfig::default().run(&g);
    assert!(!lin.degraded && !log.degraded);
    assert_normalized(&lin);
    assert_normalized(&log);
    let gap = marginal_gap(&lin, &log);
    assert!(gap <= 1e-6, "deep-chain cross-domain gap {gap}");
}

/// Bitwise equality over every marginal of two results.
fn assert_bitwise(a: &BpResult, b: &BpResult, ctx: &str) {
    assert_eq!(a.iterations, b.iterations, "{ctx}: iteration drift");
    for (x, y) in a.snp_marginals.iter().zip(&b.snp_marginals) {
        for (u, v) in x.iter().zip(y) {
            assert_eq!(u.to_bits(), v.to_bits(), "{ctx}: SNP marginal not bitwise");
        }
    }
    for (x, y) in a.trait_marginals.iter().zip(&b.trait_marginals) {
        for (u, v) in x.iter().zip(y) {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "{ctx}: trait marginal not bitwise"
            );
        }
    }
}

/// A catalog with one high-degree SNP: `k` traits all share `SnpId(0)`
/// (plus one exclusive SNP each), so the SNP-side 4-lane gather sees a
/// neighbour list of length `k` — sweeping `k` walks the remainder
/// `k mod 4` through every value.
fn shared_snp_catalog(k: usize) -> GwasCatalog {
    let mut cat = GwasCatalog::new(k + 1);
    for t in 0..k {
        let id = cat.add_trait(format!("t{t}"), 0.2 + 0.01 * (t % 7) as f64);
        cat.associate(SnpId(0), id, 1.1 + 0.2 * (t % 5) as f64 / 5.0, 0.2);
        cat.associate(SnpId(t + 1), id, 1.3, 0.15);
    }
    cat
}

#[test]
fn blocked_log_kernel_is_tile_and_policy_invariant_and_near_scalar() {
    // The blocked kernel's quad-lane gathers reassociate the accumulation
    // (≤ 1e-12 vs the scalar reference, not bitwise) — but its result
    // must be bitwise across tile sizes and policies, including on the
    // degree-1500 hub that underflows linear messages.
    for g in [
        bp_golden_fixture(),
        FactorGraph::build(
            &hub_catalog(1500),
            &Evidence::none().with_snp(SnpId(0), Genotype::HomRisk),
        )
        .unwrap(),
    ] {
        let scalar = tight().run_reference(&g);
        let reference = tight().run(&g);
        assert!(!reference.degraded);
        assert_normalized(&reference);
        let gap = marginal_gap(&scalar, &reference);
        assert!(gap <= 1e-12, "blocked-vs-scalar log gap {gap} > 1e-12");
        for tile in [1usize, 7, 512, 4096] {
            for threads in [1, 2, 8] {
                let blocked = BpConfig {
                    tile: Some(tile),
                    exec: ExecPolicy::parallel(threads),
                    ..tight()
                }
                .run(&g);
                assert_bitwise(
                    &reference,
                    &blocked,
                    &format!("log tile {tile} × {threads} threads"),
                );
            }
        }
    }
}

#[test]
fn blocked_resumable_publish_stays_bitwise_with_warm_arenas() {
    // Journaled runs with a deliberately odd tile, their replays and a
    // plain publish must all make identical picks: the incremental
    // engine's trial rollback is exact, and warm thread-local BP arenas
    // re-initialize value-identically.
    let catalog = datagen::gwas::synthetic_catalog(30, 3, 1, 5);
    let panel = datagen::genomes::amd_like(&catalog, TraitId(0), 8, 8, 5);
    let evidence = panel.full_evidence(0);
    let targets = [Target::Trait(TraitId(0))];
    let publisher = |tile| {
        GenomePublisher::new(&catalog, 0.9999)
            .max_removals(6)
            .bp_config(BpConfig {
                tile,
                ..Default::default()
            })
    };

    // Warm the thread-local arenas before resuming.
    let warm = publisher(Some(5)).publish(&evidence, &targets).unwrap();

    let dir = tempdir("kernels-blocked-resume");
    let store = ppdp::durable::CheckpointStore::open(&dir).unwrap();
    let first = publisher(Some(5))
        .publish_resumable(&evidence, &targets, &store, "blocked")
        .unwrap();
    // A rerun over the completed journal is a pure replay.
    let replayed = publisher(Some(5))
        .publish_resumable(&evidence, &targets, &store, "blocked")
        .unwrap();
    let plain = publisher(None).publish(&evidence, &targets).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(warm.outcome.removed, first.outcome.removed);
    for other in [&replayed, &plain] {
        assert_eq!(first.outcome.removed, other.outcome.removed);
        assert_eq!(first.outcome.satisfied, other.outcome.satisfied);
        assert_eq!(first.outcome.history.len(), other.outcome.history.len());
        for (a, b) in first.outcome.history.iter().zip(&other.outcome.history) {
            assert_eq!(a.to_bits(), b.to_bits(), "resume not bitwise");
        }
    }
}

/// The in-place plane layout costs 112 B per association factor plus
/// 32 B per SNP; the budget leaves headroom for trait rows and allocator
/// rounding. A layout regression (a second buffer, a per-run table copy)
/// fails here instead of in the benchmark's peak-RSS bound.
#[test]
fn log_arenas_fit_the_per_factor_budget() {
    let catalog = datagen::gwas::scaled_catalog(18_000, 1_000, 2, 1);
    let g = FactorGraph::build(&catalog, &Evidence::none()).unwrap();
    let cfg = BpConfig::default();
    // A fresh thread owns a cold scratch: the first run grows the
    // arenas, the second runs warm on them.
    let (bytes, factors, snps) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                cfg.run(&g);
                let warm = cfg.run(&g);
                assert!(warm.converged && !warm.degraded);
                let bytes = ppdp::genomic::kernels::with_scratch(|s| s.arena_bytes());
                (bytes, g.factors.len(), g.n_snps())
            })
            .join()
            .unwrap()
    });
    let budget = 160 * factors + 40 * snps;
    assert!(
        bytes <= budget,
        "log arenas hold {bytes} B for {factors} factors and {snps} SNPs (budget {budget} B)"
    );
}

/// Fresh per-test checkpoint directory under the target tmpdir.
fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ppdp-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Hub degrees across the underflow frontier: the linear engine
    /// always needs repairs and goes unclean, the log kernel is always
    /// repair-free and finite.
    #[test]
    fn hub_degree_sweep_underflows_linear_only(degree in 1200usize..1600) {
        let cat = hub_catalog(degree);
        let ev = Evidence::none().with_snp(SnpId(0), Genotype::Het);
        let g = FactorGraph::build(&cat, &ev).unwrap();
        let lin_rec = Recorder::new();
        let lin = { let _s = lin_rec.enter(); linear(&g, BpConfig::default()) };
        let lin_report = lin_rec.take();
        prop_assert!(
            lin_report.counter("bp.renormalized") >= degree as u64,
            "linear cavity survived hub degree {degree}"
        );
        prop_assert!(lin.degraded, "linear engine stayed clean at degree {degree}");
        let log_rec = Recorder::new();
        let log = { let _s = log_rec.enter(); BpConfig::default().run(&g) };
        let log_report = log_rec.take();
        prop_assert!(!log.degraded, "log degraded at hub degree {degree}");
        prop_assert_eq!(log_report.counter("bp.renormalized"), 0);
        for m in log.snp_marginals.iter() {
            prop_assert!(m.iter().all(|x| x.is_finite()));
            let z: f64 = m.iter().sum();
            prop_assert!((z - 1.0).abs() < 1e-12);
        }
        for m in log.trait_marginals.iter() {
            prop_assert!(m.iter().all(|x| x.is_finite()));
            let z: f64 = m.iter().sum();
            prop_assert!((z - 1.0).abs() < 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kin tables scaled down to the subnormal range (1e-310..1e-250):
    /// the log kernel absorbs the scale as an additive constant that
    /// normalization cancels, so marginals stay finite and normalized.
    #[test]
    fn near_zero_kin_tables_keep_log_finite(exp in -310i32..-250, f in 0.05f64..0.95) {
        // Not `10f64.powi(exp)`: powi computes the reciprocal of 10^|exp|,
        // and 10^310 overflows to +inf, silently making the scale 0.0.
        let scale = 1e-250 * 10f64.powi(exp + 250);
        assert!(scale > 0.0);
        let mut cat = GwasCatalog::new(6);
        // One association per SNP so all six become graph variables.
        for i in 0..6 {
            let t = cat.add_trait(format!("t{i}"), 0.25);
            cat.associate(SnpId(i), t, if i == 0 { 1.4 } else { 1.02 }, 0.15);
        }
        let ev = Evidence::none().with_snp(SnpId(0), Genotype::Het);
        let mut g = FactorGraph::build(&cat, &ev).unwrap();
        let base = transmission_table(f);
        let mut tiny = base;
        for row in &mut tiny {
            for v in row.iter_mut() {
                *v *= scale;
            }
        }
        g.add_kin_factors((0..5).map(|i| (i, i + 1, tiny))).unwrap();
        let log = BpConfig::default().run(&g);
        prop_assert!(!log.degraded, "log degraded at table scale {scale:e}");
        for m in log.snp_marginals.iter() {
            prop_assert!(m.iter().all(|x| x.is_finite()));
            let z: f64 = m.iter().sum();
            prop_assert!((z - 1.0).abs() < 1e-12, "marginal sums to {z}");
        }
        for m in log.trait_marginals.iter() {
            prop_assert!(m.iter().all(|x| x.is_finite()));
            let z: f64 = m.iter().sum();
            prop_assert!((z - 1.0).abs() < 1e-12, "marginal sums to {z}");
        }
    }

    /// Random extreme evidence loads on the golden catalog: whenever both
    /// engines converge cleanly, they agree to 1e-9.
    #[test]
    fn extreme_evidence_keeps_domains_in_agreement(
        snp_mask in prop::collection::vec(0u8..3, 8),
        trait_on in any::<bool>(),
    ) {
        let catalog = datagen::gwas::synthetic_catalog(40, 4, 1, 7);
        let mut ev = Evidence::none().with_trait(TraitId(0), trait_on);
        for (i, &m) in snp_mask.iter().enumerate() {
            let g = match m {
                0 => Genotype::HomNonRisk,
                1 => Genotype::Het,
                _ => Genotype::HomRisk,
            };
            ev = ev.with_snp(SnpId(i * 5), g);
        }
        let g = FactorGraph::build(&catalog, &ev).unwrap();
        let lin = linear(&g, tight());
        let log = tight().run(&g);
        if lin.converged && log.converged && !lin.degraded && !log.degraded {
            let gap = marginal_gap(&lin, &log);
            prop_assert!(gap <= 1e-9, "marginal gap {gap} under extreme evidence");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lane-remainder sweep: the shared-SNP hub's neighbour list length
    /// `k` walks `k mod 4` through every remainder, exercising the quad
    /// gather's tail path. The blocked kernel must track the scalar
    /// reference to 1e-12 at every remainder and tile size.
    #[test]
    fn blocked_kernels_track_scalar_across_lane_remainders(k in 1usize..18, tile in 1usize..9) {
        let cat = shared_snp_catalog(k);
        let ev = Evidence::none().with_snp(SnpId(0), Genotype::Het);
        let g = FactorGraph::build(&cat, &ev).unwrap();

        let scalar = tight().run_reference(&g);
        let blocked = BpConfig {
            tile: Some(tile),
            ..tight()
        }
        .run(&g);
        assert_normalized(&blocked);
        let gap = marginal_gap(&scalar, &blocked);
        prop_assert!(gap <= 1e-12, "k={k} tile={tile}: log gap {gap} > 1e-12");
    }
}
