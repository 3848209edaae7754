//! Sum-product belief propagation on the SNP-trait factor graph — the
//! linear-complexity inference attack of §5.4 (Eqs. 5.3-5.6).
//!
//! Messages are exchanged between variable nodes and factor nodes until the
//! marginals converge. They are stored and combined in log space by the
//! kernels of [`crate::kernels`], so the incoming-message product at a hub
//! variable of degree ≳ 1000 — which underflows to exact zero in linear
//! probability space — stays representable. On forests (like Fig. 5.1) the
//! result is the exact marginal of the Eq. (5.2) factorization, which the
//! test-suite checks against [`crate::exhaustive`]. The warm-started
//! engine behind greedy sanitization, [`crate::IncrementalBp`], keeps its
//! own linear-domain messages.
//!
//! # Robustness
//!
//! BP never panics and never returns NaN. Factor tables and priors are
//! screened before the first sweep, and every message is checked as it is
//! normalized: a NaN/Inf/negative table entry, an all-zero table or a
//! non-finite normalizer — the signature of a poisoned factor table or
//! contradictory evidence — is repaired to uniform (counted as
//! `bp.renormalized`) and the attempt is marked unclean. Unclean or
//! non-converging attempts restart from fresh messages with escalated
//! damping (a bounded ladder of [`BpConfig::max_restarts`] extra attempts,
//! counted as `bp.restarts`). If every attempt stays unclean the run
//! degrades to prior-only marginals (evidence still honoured), sets
//! [`BpResult::degraded`], and records a `degraded.bp.prior_fallback`
//! telemetry event.

use crate::factor_graph::FactorGraph;
use crate::kernels::{self, BpScratch};
use ppdp_exec::ExecPolicy;

/// Minimum factor count (association + kin) before a `Parallel` policy
/// actually fans out; smaller graphs run sequentially regardless. This is
/// purely a scheduling decision — results are identical either way, since
/// every message stage evaluates the same pure per-item closures and
/// assembles them in item order.
pub(crate) const PAR_MIN_FACTORS: usize = 32;

/// Belief-propagation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BpConfig {
    /// Maximum message-passing iterations *per attempt*.
    pub max_iters: usize,
    /// Convergence tolerance on the max absolute message change
    /// (probability-space components).
    pub tol: f64,
    /// Damping factor in `[0, 1)`: `new = damping·old + (1−damping)·fresh`.
    /// 0 disables damping; positive values help on loopy graphs.
    pub damping: f64,
    /// Bounded restart schedule: when an attempt hits numerical corruption
    /// or fails to converge, BP restarts from fresh messages with escalated
    /// damping (0.5, then 0.8) up to this many extra attempts before
    /// accepting the outcome (or degrading to prior-only marginals).
    pub max_restarts: usize,
    /// How to schedule the per-factor message stages. The policy never
    /// changes the marginals: sweeps fan out over pure per-factor closures
    /// that each write only their own slot, so `Sequential` and any
    /// `Parallel { threads }` produce bitwise-identical messages.
    pub exec: ExecPolicy,
    /// Cache-tile size (items per scheduling block) of the message
    /// sweeps; `None` uses the built-in L2-sized default. Results are
    /// bitwise-invariant in this knob — it exists for cache tuning and
    /// for the tile-boundary differential tests.
    pub tile: Option<usize>,
}

impl Default for BpConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            tol: 1e-9,
            damping: 0.0,
            max_restarts: 2,
            exec: ExecPolicy::Sequential,
            tile: None,
        }
    }
}

/// Result of a belief-propagation run.
#[derive(Debug, Clone, PartialEq)]
pub struct BpResult {
    /// `snp_marginals[local_snp][g]` = posterior genotype distribution.
    pub snp_marginals: Vec<[f64; 3]>,
    /// `trait_marginals[local_trait]` = `[P(¬t), P(t)]` posterior.
    pub trait_marginals: Vec<[f64; 2]>,
    /// Total message-passing sweeps performed, summed over all attempts.
    pub iterations: usize,
    /// Whether the accepted attempt converged within its iteration budget.
    pub converged: bool,
    /// Max absolute message change in the last sweep — the convergence
    /// residual ([`f64::INFINITY`] when no sweep ran, 0 for exact methods).
    pub final_residual: f64,
    /// Extra attempts consumed by the restart ladder (0 = the first attempt
    /// was accepted).
    pub restarts: usize,
    /// True when every attempt hit numerical corruption and the marginals
    /// fell back to the prior-only product. Degraded marginals are valid
    /// distributions (evidence is still honoured) but carry no
    /// cross-variable inference — treat them as a flagged lower bound, not
    /// a posterior.
    pub degraded: bool,
}

/// Outcome of one damping attempt, as produced by a kernel in
/// [`crate::kernels`].
pub(crate) struct Attempt {
    pub(crate) snp_marginals: Vec<[f64; 3]>,
    pub(crate) trait_marginals: Vec<[f64; 2]>,
    pub(crate) sweeps: usize,
    pub(crate) converged: bool,
    pub(crate) final_residual: f64,
    pub(crate) clean: bool,
}

/// One damping attempt of a kernel: `(config, graph, damping, arenas)`.
type Kernel = fn(&BpConfig, &FactorGraph, f64, &mut BpScratch) -> Attempt;

impl BpConfig {
    /// Runs sum-product BP on `g` and returns all posterior marginals.
    ///
    /// Infallible by design: numerical corruption degrades (see the module
    /// docs and [`BpResult::degraded`]) instead of panicking or erroring —
    /// the caller always gets normalized, finite marginals plus flags
    /// describing how much to trust them.
    pub fn run(&self, g: &FactorGraph) -> BpResult {
        kernels::with_scratch(|scratch| self.run_with_scratch(g, scratch))
    }

    /// [`BpConfig::run`] against caller-provided arenas. `run` routes
    /// every call through the calling thread's persistent
    /// [`BpScratch`], so back-to-back runs (the greedy-sanitization
    /// inner loop, repeated publishes) reuse their message buffers;
    /// this entry point exists for callers that manage scratch
    /// lifetimes themselves.
    pub fn run_with_scratch(&self, g: &FactorGraph, scratch: &mut BpScratch) -> BpResult {
        // Warm-arena accounting for the allocation-flatness gate: a
        // metrics (not telemetry) counter, because worker threads have
        // their own cold scratch and per-policy telemetry must stay
        // equivalent.
        ppdp_metrics::counter(
            if scratch.is_warm(g.factors.len(), g.kin_factors.len()) {
                "exec.arena.reused"
            } else {
                "exec.arena.grown"
            },
            1,
        );
        self.run_kernel(g, scratch, kernels::attempt)
    }

    /// [`BpConfig::run`] on the scalar reference kernel: the same fixed
    /// point, restart ladder and telemetry, computed with per-factor
    /// log-sum-exp updates and sequential gathers. Marginals agree with
    /// `run` to ≲1e-12 per lane. Exists as the differential oracle of
    /// the production kernel (`tests/kernels.rs`) and as the baseline of
    /// `bench_scale`'s speedup gate.
    #[doc(hidden)]
    pub fn run_reference(&self, g: &FactorGraph) -> BpResult {
        kernels::with_scratch(|scratch| self.run_kernel(g, scratch, kernels::reference_attempt))
    }

    /// The restart ladder around one kernel, plus the prior-only
    /// fallback and run-level telemetry.
    fn run_kernel(&self, g: &FactorGraph, scratch: &mut BpScratch, kernel: Kernel) -> BpResult {
        let _span = ppdp_telemetry::span("bp.run");
        scratch.prepare(g);

        // Damping ladder: the configured value first, then the escalations
        // that actually increase it, capped at `max_restarts` extras.
        let mut ladder = vec![self.damping];
        for d in [0.5, 0.8] {
            if ladder.len() > self.max_restarts {
                break;
            }
            if d > ladder[ladder.len() - 1] {
                ladder.push(d);
            }
        }

        let mut total_sweeps = 0usize;
        let mut attempts_run = 0usize;
        let mut last_residual = f64::INFINITY;
        let mut best: Option<Attempt> = None;
        for &damping in &ladder {
            attempts_run += 1;
            let a = kernel(self, g, damping, scratch);
            total_sweeps += a.sweeps;
            last_residual = a.final_residual;
            let accepted = a.clean && a.converged;
            if a.clean {
                best = Some(a);
            }
            if accepted {
                break;
            }
        }
        let restarts = attempts_run - 1;
        if restarts > 0 {
            ppdp_telemetry::counter("bp.restarts", restarts as u64);
        }
        ppdp_telemetry::counter("bp.iterations", total_sweeps as u64);

        let result = match best {
            Some(a) => BpResult {
                snp_marginals: a.snp_marginals,
                trait_marginals: a.trait_marginals,
                iterations: total_sweeps,
                converged: a.converged,
                final_residual: a.final_residual,
                restarts,
                degraded: false,
            },
            None => {
                // Every attempt hit numerical corruption: degrade to the
                // prior-only product. Evidence indicators and prevalence
                // priors are valid by construction (the graph validated its
                // catalog at build time), so these are always finite and
                // normalized.
                ppdp_telemetry::degradation("bp", "prior_fallback");
                let snp_marginals = g
                    .snp_evidence
                    .iter()
                    .map(|ev| ev.map_or([1.0 / 3.0; 3], indicator3))
                    .collect();
                let trait_marginals = g
                    .trait_evidence
                    .iter()
                    .zip(&g.trait_prior)
                    .map(|(ev, p)| match ev {
                        Some(true) => [0.0, 1.0],
                        Some(false) => [1.0, 0.0],
                        None => {
                            let z = p[0] + p[1];
                            [p[0] / z, p[1] / z]
                        }
                    })
                    .collect();
                BpResult {
                    snp_marginals,
                    trait_marginals,
                    iterations: total_sweeps,
                    converged: false,
                    final_residual: last_residual,
                    restarts,
                    degraded: true,
                }
            }
        };
        ppdp_telemetry::counter(
            if result.converged {
                "bp.converged"
            } else {
                "bp.nonconverged"
            },
            1,
        );
        result
    }
}

pub(crate) fn indicator3(i: usize) -> [f64; 3] {
    let mut v = [0.0; 3];
    v[i] = 1.0;
    v
}

/// Unzips a stage's `(message, clean)` results (already in item order),
/// AND-folding the clean flags into `clean`. The fold is order-independent,
/// which is what lets the stage itself run on any number of threads.
pub(crate) fn fold_flag<T>(pairs: Vec<(T, bool)>, clean: &mut bool) -> Vec<T> {
    pairs
        .into_iter()
        .map(|(v, ok)| {
            *clean &= ok;
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor_graph::{figure_5_1_catalog, Evidence, FactorGraph};
    use crate::model::{Genotype, SnpId, TraitId};

    #[test]
    fn no_evidence_isolated_trait_stays_at_prior() {
        // Marginalizing an exclusive SNP's factor gives Σ_s P(s|t) = 1, so a
        // trait whose SNPs are all exclusive (t3 ↔ s5) keeps its prevalence
        // prior. Traits that *share* a SNP (t1/t2 via s2) correlate through
        // the product-of-experts factorization and may shift slightly; they
        // are checked against exhaustive enumeration in `exhaustive::tests`.
        let cat = figure_5_1_catalog();
        let g = FactorGraph::build(&cat, &Evidence::none()).unwrap();
        let r = BpConfig::default().run(&g);
        assert!(r.converged);
        assert!(!r.degraded);
        let t3 = g.trait_local(TraitId(2)).unwrap();
        assert!(
            (r.trait_marginals[t3][1] - g.trait_prior[t3][1]).abs() < 1e-9,
            "isolated trait moved from prior: {:?}",
            r.trait_marginals[t3]
        );
        // The shared-SNP traits stay *near* their priors (the coupling is a
        // second-order effect).
        for t in [TraitId(0), TraitId(1)] {
            let i = g.trait_local(t).unwrap();
            assert!((r.trait_marginals[i][1] - g.trait_prior[i][1]).abs() < 0.05);
        }
    }

    #[test]
    fn risk_genotype_evidence_raises_trait_posterior() {
        let cat = figure_5_1_catalog();
        let base = BpConfig::default().run(&FactorGraph::build(&cat, &Evidence::none()).unwrap());
        let ev = Evidence::none().with_snp(SnpId(0), Genotype::HomRisk);
        let g = FactorGraph::build(&cat, &ev).unwrap();
        let r = BpConfig::default().run(&g);
        let t1 = g.trait_local(TraitId(0)).unwrap();
        assert!(
            r.trait_marginals[t1][1] > base.trait_marginals[t1][1],
            "observing rr at an OR>1 locus must raise P(t1)"
        );
        // Unrelated trait t3 unaffected (different component).
        let t3 = g.trait_local(TraitId(2)).unwrap();
        assert!((r.trait_marginals[t3][1] - base.trait_marginals[t3][1]).abs() < 1e-9);
    }

    #[test]
    fn trait_evidence_shifts_snp_marginals() {
        let cat = figure_5_1_catalog();
        let base = BpConfig::default().run(&FactorGraph::build(&cat, &Evidence::none()).unwrap());
        let ev = Evidence::none().with_trait(TraitId(1), true);
        let g = FactorGraph::build(&cat, &ev).unwrap();
        let r = BpConfig::default().run(&g);
        for s in [SnpId(1), SnpId(2), SnpId(3)] {
            let i = g.snp_local(s).unwrap();
            assert!(
                r.snp_marginals[i][0] > base.snp_marginals[i][0],
                "P(rr) at {s} must rise when its trait is present"
            );
        }
    }

    #[test]
    fn evidence_is_reproduced_exactly() {
        let cat = figure_5_1_catalog();
        let ev = Evidence::none()
            .with_snp(SnpId(4), Genotype::Het)
            .with_trait(TraitId(0), false);
        let g = FactorGraph::build(&cat, &ev).unwrap();
        let r = BpConfig::default().run(&g);
        let s = g.snp_local(SnpId(4)).unwrap();
        assert_eq!(r.snp_marginals[s], [0.0, 1.0, 0.0]);
        let t = g.trait_local(TraitId(0)).unwrap();
        assert_eq!(r.trait_marginals[t], [1.0, 0.0]);
    }

    #[test]
    fn marginals_normalized_and_converged_on_tree() {
        let cat = figure_5_1_catalog();
        let ev = Evidence::none().with_snp(SnpId(1), Genotype::HomRisk);
        let g = FactorGraph::build(&cat, &ev).unwrap();
        let r = BpConfig::default().run(&g);
        assert!(r.converged);
        for m in &r.snp_marginals {
            assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        for m in &r.trait_marginals {
            assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn convergence_is_exposed_as_data() {
        let cat = figure_5_1_catalog();
        let g = FactorGraph::build(&cat, &Evidence::none()).unwrap();
        let cfg = BpConfig::default();
        let r = cfg.run(&g);
        assert!(r.converged);
        assert_eq!(r.restarts, 0);
        assert!(r.iterations >= 1 && r.iterations <= cfg.max_iters);
        assert!(
            r.final_residual < cfg.tol,
            "converged run must report a sub-tolerance residual, got {}",
            r.final_residual
        );
        // Starving the iteration budget surfaces non-convergence as data.
        // With restarts disabled, exactly one sweep runs.
        let starved = BpConfig {
            max_iters: 1,
            tol: 1e-15,
            max_restarts: 0,
            ..cfg
        }
        .run(&g);
        assert!(!starved.converged);
        assert!(
            !starved.degraded,
            "non-convergence alone is not degradation"
        );
        assert_eq!(starved.iterations, 1);
        assert!(starved.final_residual.is_finite() && starved.final_residual >= 1e-15);
    }

    #[test]
    fn restart_ladder_escalates_damping_on_nonconvergence() {
        let cat = figure_5_1_catalog();
        let g = FactorGraph::build(&cat, &Evidence::none()).unwrap();
        // One sweep per attempt, unreachable tolerance, default ladder
        // (0 → 0.5 → 0.8): three attempts, each a single sweep.
        let r = BpConfig {
            max_iters: 1,
            tol: 1e-15,
            ..BpConfig::default()
        }
        .run(&g);
        assert!(!r.converged);
        assert!(!r.degraded, "a clean attempt was available");
        assert_eq!(r.restarts, 2);
        assert_eq!(
            r.iterations, 3,
            "iterations counts sweeps over all attempts"
        );
    }

    #[test]
    fn poisoned_factor_degrades_to_prior_fallback_with_telemetry() {
        // An all-zero transmission table passes entry-wise validation (zero
        // probabilities are legal) but annihilates every message through it
        // — the "zero-probability CPT row" fault. BP must neither panic nor
        // emit NaN: it exhausts the restart ladder and degrades.
        let cat = figure_5_1_catalog();
        let mut g = FactorGraph::build(&cat, &Evidence::none()).unwrap();
        g.add_kin_factor(0, 1, [[0.0; 3]; 3]).unwrap();
        let rec = ppdp_telemetry::Recorder::new();
        let r = {
            let _scope = rec.enter();
            BpConfig::default().run(&g)
        };
        assert!(r.degraded);
        assert!(!r.converged);
        assert_eq!(r.restarts, 2, "full ladder exhausted");
        for m in &r.snp_marginals {
            assert!(m.iter().all(|x| x.is_finite()));
            assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        for m in &r.trait_marginals {
            assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        let report = rec.take();
        assert_eq!(report.counter("degraded.bp"), 1);
        assert_eq!(report.counter("degraded.bp.prior_fallback"), 1);
        assert!(report.counter("bp.renormalized") > 0);
        assert_eq!(report.counter("bp.restarts"), 2);
        assert_eq!(report.degradations(), 1);
    }

    #[test]
    fn degraded_marginals_still_honour_evidence() {
        let cat = figure_5_1_catalog();
        let ev = Evidence::none().with_snp(SnpId(0), Genotype::Het);
        let mut g = FactorGraph::build(&cat, &ev).unwrap();
        g.add_kin_factor(0, 1, [[0.0; 3]; 3]).unwrap();
        let r = BpConfig::default().run(&g);
        assert!(r.degraded);
        let s = g.snp_local(SnpId(0)).unwrap();
        assert_eq!(r.snp_marginals[s], [0.0, 1.0, 0.0]);
        // Unobserved traits fall back to their prevalence priors.
        for (t, m) in r.trait_marginals.iter().enumerate() {
            assert!((m[1] - g.trait_prior[t][1]).abs() < 1e-12);
        }
    }

    #[test]
    fn bp_run_records_telemetry() {
        let rec = ppdp_telemetry::Recorder::new();
        let cat = figure_5_1_catalog();
        let g = FactorGraph::build(&cat, &Evidence::none()).unwrap();
        let r = {
            let _scope = rec.enter();
            BpConfig::default().run(&g)
        };
        let report = rec.take();
        assert_eq!(report.counter("bp.iterations"), r.iterations as u64);
        assert_eq!(report.counter("bp.converged"), 1);
        assert_eq!(report.counter("bp.renormalized"), 0);
        let h = report
            .histogram("bp.sweep_residual")
            .expect("residuals recorded");
        assert_eq!(h.count, r.iterations as u64);
        assert!(report.span("bp.run").is_some());
    }

    /// A catalog large enough to cross [`PAR_MIN_FACTORS`], with kin
    /// factors, evidence, and uneven odds ratios — the shape the parallel
    /// scheduler actually sees in anger.
    fn wide_graph() -> FactorGraph {
        let mut cat = crate::GwasCatalog::with_table_5_3_traits(48);
        let nt = cat.n_traits();
        for s in 0..48 {
            cat.associate(
                SnpId(s),
                TraitId(s % nt),
                1.1 + 0.02 * s as f64,
                0.05 + 0.018 * (s % 50) as f64,
            );
        }
        let ev = Evidence::none()
            .with_snp(SnpId(0), Genotype::HomRisk)
            .with_snp(SnpId(7), Genotype::Het)
            .with_trait(TraitId(1), true);
        let mut g = FactorGraph::build(&cat, &ev).unwrap();
        let mendel = [[0.9, 0.1, 0.0], [0.25, 0.5, 0.25], [0.0, 0.1, 0.9]];
        for (p, c) in [(0, 1), (2, 3), (4, 5)] {
            g.add_kin_factor(p, c, mendel).unwrap();
        }
        g
    }

    #[test]
    fn parallel_policy_reproduces_sequential_run_bitwise() {
        let g = wide_graph();
        let seq = BpConfig::default().run(&g);
        assert!(!seq.degraded);
        for threads in [1, 2, 8] {
            let par = BpConfig {
                exec: ppdp_exec::ExecPolicy::parallel(threads),
                ..Default::default()
            }
            .run(&g);
            // f64 equality below means bitwise: every message stage folds
            // in factor order regardless of the thread count.
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn parallel_policy_matches_sequential_telemetry_counters() {
        let g = wide_graph();
        let run = |exec| {
            let rec = ppdp_telemetry::Recorder::new();
            let _r = {
                let _scope = rec.enter();
                BpConfig {
                    exec,
                    ..Default::default()
                }
                .run(&g)
            };
            rec.take()
        };
        let seq = run(ppdp_exec::ExecPolicy::Sequential);
        let par = run(ppdp_exec::ExecPolicy::parallel(4));
        assert_eq!(seq.equivalence_view(), par.equivalence_view());
    }

    #[test]
    fn blocked_log_kernel_matches_scalar_within_1e12_and_is_tile_invariant() {
        let g = wide_graph();
        let scalar = BpConfig::default().run_reference(&g);
        let blocked = BpConfig::default().run(&g);
        assert!(!blocked.degraded);
        for (a, b) in scalar
            .snp_marginals
            .iter()
            .flatten()
            .zip(blocked.snp_marginals.iter().flatten())
        {
            assert!((a - b).abs() < 1e-12, "lane drift {a} vs {b}");
        }
        // Tile size is a pure scheduling knob: bitwise-invariant.
        for tile in [Some(1), Some(5), Some(64)] {
            let other = BpConfig {
                tile,
                ..Default::default()
            }
            .run(&g);
            assert_eq!(blocked, other, "tile={tile:?}");
        }
    }

    #[test]
    fn log_domain_matches_linear_on_wide_graph() {
        // The linear oracle is the incremental engine after a cold full
        // refresh: the same fixed point in probability space.
        let g = wide_graph();
        let tight = BpConfig {
            tol: 1e-12,
            max_iters: 400,
            ..Default::default()
        };
        let mut lin = crate::IncrementalBp::new(g.clone(), tight);
        let out = lin.refresh();
        assert!(out.converged && out.clean);
        let log = tight.run(&g);
        assert!(log.converged);
        assert!(!log.degraded);
        for (a, b) in lin.snp_marginals().iter().zip(&log.snp_marginals) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9, "snp marginal drift: {x} vs {y}");
            }
        }
        for (a, b) in lin.trait_marginals().iter().zip(&log.trait_marginals) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9, "trait marginal drift: {x} vs {y}");
            }
        }
    }

    #[test]
    fn log_domain_parallel_policies_reproduce_sequential_bitwise() {
        let g = wide_graph();
        let seq = BpConfig::default().run(&g);
        assert!(!seq.degraded);
        for threads in [1, 2, 8] {
            let par = BpConfig {
                exec: ppdp_exec::ExecPolicy::parallel(threads),
                ..Default::default()
            }
            .run(&g);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn log_domain_poisoned_table_degrades_like_linear() {
        // The reference kernel screens and degrades exactly like the
        // production kernel.
        let cat = figure_5_1_catalog();
        let mut g = FactorGraph::build(&cat, &Evidence::none()).unwrap();
        g.add_kin_factor(0, 1, [[0.0; 3]; 3]).unwrap();
        let rec = ppdp_telemetry::Recorder::new();
        let r = {
            let _scope = rec.enter();
            BpConfig::default().run_reference(&g)
        };
        assert!(r.degraded);
        assert_eq!(r.restarts, 2, "full ladder exhausted");
        for m in &r.snp_marginals {
            assert!(m.iter().all(|x| x.is_finite()));
            assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        let report = rec.take();
        assert_eq!(report.counter("degraded.bp.prior_fallback"), 1);
        assert!(report.counter("bp.renormalized") > 0);
    }

    #[test]
    fn log_domain_evidence_reproduced_to_float_precision() {
        let cat = figure_5_1_catalog();
        let ev = Evidence::none()
            .with_snp(SnpId(4), Genotype::Het)
            .with_trait(TraitId(0), false);
        let g = FactorGraph::build(&cat, &ev).unwrap();
        // Clamped log messages leave ~exp(LOG_FLOOR) ≈ 1e-304 mass on
        // excluded states; the reference kernel, like the production
        // one, reports an observed variable's indicator instead.
        let r = BpConfig::default().run_reference(&g);
        let s = g.snp_local(SnpId(4)).unwrap();
        assert_eq!(r.snp_marginals[s], [0.0, 1.0, 0.0]);
        let t = g.trait_local(TraitId(0)).unwrap();
        assert_eq!(r.trait_marginals[t], [1.0, 0.0]);
        // Its unobserved neighbours still see the evidence.
        let free = g.snp_local(SnpId(0)).unwrap();
        let base = BpConfig::default()
            .run_reference(&FactorGraph::build(&cat, &Evidence::none()).unwrap());
        assert!(r.snp_marginals[free][0] < base.snp_marginals[free][0]);
    }

    #[test]
    fn damping_reaches_same_fixed_point_on_tree() {
        let cat = figure_5_1_catalog();
        let ev = Evidence::none().with_snp(SnpId(0), Genotype::HomNonRisk);
        let g = FactorGraph::build(&cat, &ev).unwrap();
        let plain = BpConfig::default().run(&g);
        let damped = BpConfig {
            damping: 0.5,
            max_iters: 500,
            ..Default::default()
        }
        .run(&g);
        for (a, b) in plain.trait_marginals.iter().zip(&damped.trait_marginals) {
            assert!((a[1] - b[1]).abs() < 1e-6);
        }
    }
}
