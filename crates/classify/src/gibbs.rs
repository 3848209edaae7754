//! Gibbs-sampling collective classification — the second collective
//! algorithm §3.4 names alongside ICA ("such as the Iterative
//! Classification Algorithm (ICA) [73] and Gibbs sampling (Gibbs) [74]").
//!
//! Each unknown user's label is resampled from the combined
//! attribute+relational conditional `α·P_A + β·P_L` given the current hard
//! labels of everyone else; after a burn-in period, per-user label
//! frequencies across the retained samples estimate the marginal
//! distributions. Seeded and fully deterministic.

use crate::dataset::LabeledGraph;
use crate::relational::{one_hot, RelationalWeights};
use crate::LocalClassifier;
use ppdp_errors::{ensure, Result};
use ppdp_exec::{split_seed, ExecPolicy};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Gibbs-sampler parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GibbsConfig {
    /// Weight of the attribute-based conditional.
    pub alpha: f64,
    /// Weight of the link-based conditional.
    pub beta: f64,
    /// Samples discarded before counting.
    pub burn_in: usize,
    /// Samples retained for the frequency estimate.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Independent Markov chains whose retained samples are pooled. Chain
    /// `c` runs on the seed `split_seed(seed, c)` (plain `seed` when
    /// `chains == 1`), so the pooled estimate depends only on the config —
    /// never on the execution policy or thread count.
    pub chains: usize,
    /// Execution policy for running the independent chains and building
    /// the neighbour-weight cache.
    pub exec: ExecPolicy,
}

impl Default for GibbsConfig {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            beta: 0.5,
            burn_in: 50,
            samples: 200,
            seed: 7,
            chains: 1,
            exec: ExecPolicy::Sequential,
        }
    }
}

/// Full outcome of a Gibbs run: the distributions plus chain statistics
/// ([`gibbs_predict`] keeps the distributions-only signature).
#[derive(Debug, Clone, PartialEq)]
pub struct GibbsOutcome {
    /// Final class distribution per user (known users pinned one-hot).
    pub dists: Vec<Vec<f64>>,
    /// Resampling sweeps performed, `chains × (burn_in + samples)`.
    pub sweeps: usize,
    /// Total hard-label changes across all sweeps of all chains — the
    /// chains' mixing activity (0 means every chain froze immediately).
    pub label_flips: usize,
    /// True when a conditional was numerically corrupt (NaN/Inf/negative
    /// mass or underflow to zero) and a uniform resample was used instead.
    pub degraded: bool,
}

/// Runs Gibbs-sampling collective classification and returns per-user
/// label distributions (known users stay pinned one-hot). Convenience
/// wrapper over [`gibbs_run`].
///
/// # Errors
/// Returns [`ppdp_errors::PpdpError::InvalidInput`] for a degenerate
/// config (see [`gibbs_run`]).
pub fn gibbs_predict(
    lg: &LabeledGraph<'_>,
    local: &dyn LocalClassifier,
    cfg: GibbsConfig,
) -> Result<Vec<Vec<f64>>> {
    Ok(gibbs_run(lg, local, cfg)?.dists)
}

/// Runs Gibbs-sampling collective classification and returns distributions
/// plus chain statistics. Seeded and fully deterministic.
///
/// A numerically corrupt conditional (NaN/Inf/negative mass, zero total)
/// never aborts the chain: that step resamples uniformly instead, counted
/// under `gibbs.renormalized` and flagged on [`GibbsOutcome::degraded`]
/// plus a `degraded.gibbs` telemetry event.
///
/// # Errors
/// Returns [`ppdp_errors::PpdpError::InvalidInput`] when no samples are
/// retained, the α/β mix is degenerate or the classifier's class count
/// disagrees with the graph's.
pub fn gibbs_run(
    lg: &LabeledGraph<'_>,
    local: &dyn LocalClassifier,
    cfg: GibbsConfig,
) -> Result<GibbsOutcome> {
    validate(lg, local, &cfg)?;
    let _span = ppdp_telemetry::span("gibbs.run");
    let unknown = lg.unknown_users();

    // Cache the attribute conditionals (they never change).
    let pa: Vec<Vec<f64>> = unknown
        .iter()
        .map(|&u| local.predict_dist(&lg.masked_row(u)))
        .collect();
    let wc = {
        let _span = ppdp_telemetry::span("gibbs.weights");
        RelationalWeights::build(lg, &unknown, cfg.exec)
    };
    ppdp_metrics::counter("gibbs.cached_weights", wc.len() as u64);

    let seeds = chain_seeds(&cfg);
    // Live progress across all chains: each chain bumps the
    // `gibbs.sweeps_done` live counter per sweep, and the metrics
    // heartbeat derives progress/ETA against this declared total.
    ppdp_telemetry::target(
        "gibbs.sweeps_done",
        (cfg.chains * (cfg.burn_in + cfg.samples)) as f64,
    );
    let chain_outs = cfg.exec.par_map(seeds.len(), |c| {
        run_chain(lg, &cfg, &unknown, &pa, &wc, seeds[c])
    });
    Ok(pool_chains(lg, &cfg, &chain_outs))
}

fn validate(lg: &LabeledGraph<'_>, local: &dyn LocalClassifier, cfg: &GibbsConfig) -> Result<()> {
    ensure(cfg.samples > 0, "need at least one retained sample")?;
    ensure(cfg.chains > 0, "need at least one chain")?;
    ensure(
        cfg.alpha.is_finite()
            && cfg.beta.is_finite()
            && cfg.alpha >= 0.0
            && cfg.beta >= 0.0
            && cfg.alpha + cfg.beta > 0.0,
        format!(
            "bad α/β mix: need α, β ≥ 0 and α + β > 0, got α = {}, β = {}",
            cfg.alpha, cfg.beta
        ),
    )?;
    ensure(
        local.n_classes() == lg.n_classes(),
        format!(
            "local classifier predicts {} classes but the graph has {}",
            local.n_classes(),
            lg.n_classes()
        ),
    )
}

/// Chain seeds depend only on the config: a single chain keeps the
/// historical `cfg.seed` walk, multiple chains decorrelate via
/// `split_seed`. The execution policy never touches the seeds.
fn chain_seeds(cfg: &GibbsConfig) -> Vec<u64> {
    if cfg.chains == 1 {
        vec![cfg.seed]
    } else {
        (0..cfg.chains as u64)
            .map(|c| split_seed(cfg.seed, c))
            .collect()
    }
}

fn pool_chains(lg: &LabeledGraph<'_>, cfg: &GibbsConfig, chain_outs: &[ChainOut]) -> GibbsOutcome {
    let n_classes = lg.n_classes();
    // Pool the chains in chain order (not completion order): retained
    // counts and flip totals are additive; the per-sweep flip histogram is
    // recorded here on the coordinator so even its order-dependent fields
    // (`last`) match the sequential run exactly.
    let mut counts: Vec<Vec<usize>> = vec![vec![0; n_classes]; lg.graph.user_count()];
    let mut label_flips = 0usize;
    let mut repairs = 0usize;
    for (chain_idx, chain) in chain_outs.iter().enumerate() {
        for (total, per_chain) in counts.iter_mut().zip(&chain.counts) {
            for (t, c) in total.iter_mut().zip(per_chain) {
                *t += c;
            }
        }
        label_flips += chain.label_flips;
        repairs += chain.repairs;
        // Sampler flip counts plateau at the chain's mixing rate rather
        // than decaying, so only the divergence check is meaningful here.
        let mut watchdog =
            ppdp_trace::ConvergenceWatchdog::new(ppdp_trace::WatchdogConfig::divergence_only(0.0));
        for (sweep, &flips) in chain.sweep_flips.iter().enumerate() {
            ppdp_telemetry::value("gibbs.sweep_flips", flips as f64);
            ppdp_trace::gibbs_sweep(chain_idx as u64, sweep as u64, flips as u64);
            if let Some(verdict) = watchdog.observe(flips as f64) {
                ppdp_telemetry::counter(&format!("watchdog.gibbs.{}", verdict.as_str()), 1);
                ppdp_trace::watchdog_event("gibbs", verdict.as_str(), watchdog.iteration());
            }
        }
    }
    let sweeps = cfg.chains * (cfg.burn_in + cfg.samples);
    ppdp_telemetry::counter("gibbs.sweeps", sweeps as u64);

    let dists = lg
        .graph
        .users()
        .map(|u| {
            if lg.known[u.0] {
                if let Some(y) = lg.true_label(u) {
                    return one_hot(y, n_classes);
                }
            }
            let total: usize = counts[u.0].iter().sum();
            if total == 0 {
                vec![1.0 / n_classes as f64; n_classes]
            } else {
                counts[u.0]
                    .iter()
                    .map(|&c| c as f64 / total as f64)
                    .collect()
            }
        })
        .collect();
    let degraded = repairs > 0;
    if degraded {
        ppdp_telemetry::degradation("gibbs", "uniform_sample");
    }
    GibbsOutcome {
        dists,
        sweeps,
        label_flips,
        degraded,
    }
}

/// Everything one chain contributes to the pooled estimate; merged by the
/// coordinator in chain order so results are policy-independent.
struct ChainOut {
    counts: Vec<Vec<usize>>,
    label_flips: usize,
    repairs: usize,
    sweep_flips: Vec<usize>,
}

/// Combined conditional `α·P_A + β·P_L` for one user, written into the
/// caller's scratch. `wrow` is the [`RelationalWeights`] row for `ns`, in
/// neighbour order, so the accumulation performs the same additions in the
/// same order as a per-edge recomputation — bitwise-identical, minus the
/// O(attributes) work per edge per sweep.
#[inline]
fn conditional_into(
    cond: &mut [f64],
    cfg: &GibbsConfig,
    label: &[u16],
    ns: &[ppdp_graph::UserId],
    wrow: &[f64],
    a_dist: &[f64],
) {
    let n_classes = cond.len();
    if ns.is_empty() {
        cond.copy_from_slice(a_dist);
    } else {
        cond.fill(0.0);
        let mut total_w = 0.0;
        for (&j, &w) in ns.iter().zip(wrow) {
            cond[label[j.0] as usize] += w;
            total_w += w;
        }
        if total_w <= 0.0 {
            cond.fill(0.0);
            for &j in ns {
                cond[label[j.0] as usize] += 1.0;
            }
            total_w = ns.len() as f64;
        }
        for (c, a) in cond.iter_mut().zip(a_dist) {
            *c = cfg.alpha * a + cfg.beta * (*c / total_w);
        }
    }
    let z: f64 = cond.iter().sum();
    if z > 0.0 {
        for c in cond.iter_mut() {
            *c /= z;
        }
    } else {
        cond.fill(1.0 / n_classes as f64);
    }
}

/// Runs one Markov chain on its own seeded RNG: one in-place scan per
/// sweep, each resample immediately visible to later users in the same
/// sweep. Pure except for the additive `gibbs.renormalized` counter inside
/// [`sample_from`] and the live sweep metrics, so it is safe to call from
/// worker threads.
fn run_chain(
    lg: &LabeledGraph<'_>,
    cfg: &GibbsConfig,
    unknown: &[ppdp_graph::UserId],
    pa: &[Vec<f64>],
    wc: &RelationalWeights,
    seed: u64,
) -> ChainOut {
    let n_classes = lg.n_classes();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut repairs = 0usize;
    // Bootstrap hard labels: known users fixed, unknowns drawn from P_A.
    let mut label: Vec<u16> = lg
        .graph
        .users()
        .map(|u| lg.true_label(u).filter(|_| lg.known[u.0]).unwrap_or(0))
        .collect();
    for (&u, d) in unknown.iter().zip(pa) {
        label[u.0] = sample_from(&mut rng, d, &mut repairs);
    }

    let mut counts: Vec<Vec<usize>> = vec![vec![0; n_classes]; lg.graph.user_count()];
    let mut label_flips = 0usize;
    let mut sweep_flips = Vec::with_capacity(cfg.burn_in + cfg.samples);
    // Conditional-distribution scratch, hoisted out of the sweep loop:
    // `fill`/`copy_from_slice` write exactly the values the historical
    // per-user `vec![…]` allocations held, so chains are bit-identical
    // while the inner loop stops allocating (≈ users × sweeps fewer
    // allocations per chain).
    let mut cond = vec![0.0f64; n_classes];
    for round in 0..(cfg.burn_in + cfg.samples) {
        let mut flips = 0usize;
        for (i, (&u, a_dist)) in unknown.iter().zip(pa).enumerate() {
            // Relational conditional from the *current hard labels* of the
            // neighbours (the Gibbs flavour of Eq. 4.3).
            let ns = lg.graph.neighbors(u);
            conditional_into(&mut cond, cfg, &label, ns, wc.row(i), a_dist);
            let resampled = sample_from(&mut rng, &cond, &mut repairs);
            if resampled != label[u.0] {
                flips += 1;
            }
            label[u.0] = resampled;
        }
        label_flips += flips;
        sweep_flips.push(flips);
        // Live-only (registry counters are additive and the gauge's final
        // write is `burn_in + samples` from every chain, so final
        // snapshots stay identical across execution policies).
        ppdp_metrics::counter("gibbs.sweeps_done", 1);
        ppdp_metrics::gauge_set("gibbs.sweep", (round + 1) as f64);
        if round >= cfg.burn_in {
            for &u in unknown {
                counts[u.0][label[u.0] as usize] += 1;
            }
        }
    }
    ChainOut {
        counts,
        label_flips,
        repairs,
        sweep_flips,
    }
}

/// Inverse-CDF sampling with a numerical guard: a corrupt distribution
/// (NaN/Inf/negative component or non-positive total mass) falls back to a
/// uniform draw instead of biasing the walk toward index 0.
fn sample_from<R: Rng>(rng: &mut R, dist: &[f64], repairs: &mut usize) -> u16 {
    let z: f64 = dist.iter().sum();
    if !z.is_finite() || z <= 0.0 || dist.iter().any(|p| !p.is_finite() || *p < 0.0) {
        *repairs += 1;
        ppdp_telemetry::counter("gibbs.renormalized", 1);
        return rng.gen_range(0..dist.len().max(1)) as u16;
    }
    let mut pick = rng.gen::<f64>() * z;
    for (i, &p) in dist.iter().enumerate() {
        pick -= p;
        if pick <= 0.0 {
            return i as u16;
        }
    }
    (dist.len() - 1) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_bayes::NaiveBayes;
    use ppdp_graph::{CategoryId, GraphBuilder, Schema, SocialGraph};

    fn two_cliques() -> SocialGraph {
        let mut b = GraphBuilder::new(Schema::uniform(3, 2));
        let a: Vec<_> = (0..4).map(|i| b.user_with(&[0, i % 2, 0])).collect();
        let c: Vec<_> = (0..4).map(|i| b.user_with(&[1, i % 2, 1])).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.edge(a[i], a[j]);
                b.edge(c[i], c[j]);
            }
        }
        b.edge(a[0], c[0]);
        b.build()
    }

    #[test]
    fn gibbs_recovers_clique_labels() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        known[7] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let dists = gibbs_predict(&lg, &nb, GibbsConfig::default()).unwrap();
        assert!(dists[3][0] > 0.8, "{:?}", dists[3]);
        assert!(dists[7][1] > 0.8, "{:?}", dists[7]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let a = gibbs_predict(&lg, &nb, GibbsConfig::default()).unwrap();
        let b = gibbs_predict(&lg, &nb, GibbsConfig::default()).unwrap();
        assert_eq!(a, b);
        let c = gibbs_predict(
            &lg,
            &nb,
            GibbsConfig {
                seed: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(a, c, "different chains differ in finite samples");
    }

    #[test]
    fn known_users_pinned_and_distributions_normalized() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let dists = gibbs_predict(&lg, &nb, GibbsConfig::default()).unwrap();
        assert_eq!(dists[0], vec![1.0, 0.0]);
        for d in &dists {
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gibbs_close_to_ica_on_easy_graph() {
        use crate::ica::{ica_predict, IcaConfig};
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        known[7] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let gibbs = gibbs_predict(
            &lg,
            &nb,
            GibbsConfig {
                burn_in: 100,
                samples: 1_000,
                ..Default::default()
            },
        )
        .unwrap();
        let ica = ica_predict(&lg, &nb, IcaConfig::default()).unwrap();
        for u in [3usize, 7] {
            for k in 0..2 {
                assert!(
                    (gibbs[u][k] - ica[u][k]).abs() < 0.2,
                    "u{u}: gibbs {:?} vs ica {:?}",
                    gibbs[u],
                    ica[u]
                );
            }
        }
    }

    #[test]
    fn gibbs_run_exposes_chain_statistics() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        known[7] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let cfg = GibbsConfig::default();
        let rec = ppdp_telemetry::Recorder::new();
        let out = {
            let _scope = rec.enter();
            gibbs_run(&lg, &nb, cfg).unwrap()
        };
        assert_eq!(out.sweeps, cfg.burn_in + cfg.samples);
        assert_eq!(
            out.dists,
            gibbs_predict(&lg, &nb, cfg).unwrap(),
            "wrapper returns same dists"
        );
        assert!(!out.degraded, "healthy chain must not flag degradation");
        let report = rec.take();
        assert_eq!(report.counter("gibbs.sweeps"), out.sweeps as u64);
        let flips = report
            .histogram("gibbs.sweep_flips")
            .expect("per-sweep flips recorded");
        assert_eq!(flips.count, out.sweeps as u64);
        assert!((flips.sum - out.label_flips as f64).abs() < 1e-9);
        assert!(report.span("gibbs.run").is_some());
    }

    #[test]
    fn multi_chain_parallel_reproduces_sequential_run_bitwise() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        known[7] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let base = GibbsConfig {
            chains: 6,
            burn_in: 10,
            samples: 50,
            ..Default::default()
        };
        let run = |exec: ExecPolicy| {
            let rec = ppdp_telemetry::Recorder::new();
            let out = {
                let _scope = rec.enter();
                gibbs_run(&lg, &nb, GibbsConfig { exec, ..base }).unwrap()
            };
            (out, rec.take())
        };
        let (seq_out, seq_rep) = run(ExecPolicy::Sequential);
        assert_eq!(seq_out.sweeps, 6 * 60, "sweeps count all chains");
        for threads in [1, 2, 8] {
            let (par_out, par_rep) = run(ExecPolicy::parallel(threads));
            assert_eq!(seq_out, par_out, "threads = {threads}");
            assert_eq!(
                seq_rep.equivalence_view(),
                par_rep.equivalence_view(),
                "threads = {threads}"
            );
            // The flip histogram is recorded coordinator-side in chain
            // order, so even its order-dependent fields must agree.
            let s = seq_rep.histogram("gibbs.sweep_flips").unwrap();
            let p = par_rep.histogram("gibbs.sweep_flips").unwrap();
            assert_eq!((s.count, s.sum, s.last), (p.count, p.sum, p.last));
        }
    }

    #[test]
    fn single_chain_keeps_the_historical_walk() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        // chains: 1 must keep using cfg.seed directly, so the default
        // config's output is unchanged by the multi-chain machinery; a
        // second chain must genuinely perturb the pooled estimate.
        let one = gibbs_run(&lg, &nb, GibbsConfig::default()).unwrap();
        let two = gibbs_run(
            &lg,
            &nb,
            GibbsConfig {
                chains: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(one.sweeps * 2, two.sweeps);
        assert_ne!(one.dists, two.dists, "pooled chains shift the estimate");
    }

    #[test]
    fn degenerate_config_is_a_typed_error_not_a_panic() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let no_samples = GibbsConfig {
            samples: 0,
            ..Default::default()
        };
        let err = gibbs_run(&lg, &nb, no_samples).unwrap_err();
        assert_eq!(err.kind(), "invalid_input");
        assert!(err.to_string().contains("retained sample"), "{err}");
        let no_chains = GibbsConfig {
            chains: 0,
            ..Default::default()
        };
        let err = gibbs_run(&lg, &nb, no_chains).unwrap_err();
        assert_eq!(err.kind(), "invalid_input");
        assert!(err.to_string().contains("chain"), "{err}");
        for (alpha, beta) in [(0.0, 0.0), (f64::NAN, 0.5), (-0.1, 0.5)] {
            let cfg = GibbsConfig {
                alpha,
                beta,
                ..Default::default()
            };
            let err = gibbs_run(&lg, &nb, cfg).unwrap_err();
            assert_eq!(err.kind(), "invalid_input", "α={alpha}, β={beta}");
        }
    }

    /// A local classifier that returns poisoned distributions.
    struct PoisonLocal {
        value: f64,
    }

    impl crate::LocalClassifier for PoisonLocal {
        fn n_classes(&self) -> usize {
            2
        }
        fn predict_dist(&self, _row: &[Option<u16>]) -> Vec<f64> {
            vec![self.value; 2]
        }
    }

    #[test]
    fn poisoned_conditionals_degrade_to_uniform_resampling() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        known[7] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        for value in [f64::NAN, f64::INFINITY, -1.0] {
            let poison = PoisonLocal { value };
            let rec = ppdp_telemetry::Recorder::new();
            let out = {
                let _scope = rec.enter();
                gibbs_run(&lg, &poison, GibbsConfig::default()).unwrap()
            };
            assert!(out.degraded, "value {value} must flag degradation");
            for d in &out.dists {
                let z: f64 = d.iter().sum();
                assert!(
                    d.iter().all(|p| p.is_finite() && *p >= 0.0) && (z - 1.0).abs() < 1e-9,
                    "value {value} leaked a corrupt dist: {d:?}"
                );
            }
            let report = rec.take();
            assert!(report.counter("gibbs.renormalized") > 0, "value {value}");
            assert_eq!(report.counter("degraded.gibbs"), 1);
            assert_eq!(report.counter("degraded.gibbs.uniform_sample"), 1);
        }
    }

    #[test]
    fn isolated_unknown_user_uses_attributes() {
        let mut b = GraphBuilder::new(Schema::uniform(2, 2));
        let _known = b.user_with(&[0, 0]);
        let known2 = b.user_with(&[1, 1]);
        let lone = b.user_with(&[1, 0]); // isolated, attr says class 1
        let _ = (known2, lone);
        let g = b.build();
        let lg = LabeledGraph::new(&g, CategoryId(1), vec![true, true, false]);
        let nb = NaiveBayes::train(&lg.train_set());
        let dists = gibbs_predict(&lg, &nb, GibbsConfig::default()).unwrap();
        assert!(dists[2][1] > 0.5, "{:?}", dists[2]);
    }
}
