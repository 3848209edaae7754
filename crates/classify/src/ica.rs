//! The Iterative Classification Algorithm (ICA, Algorithm 1): bootstrap
//! unknown labels with an attribute-based classifier `M_A`, then repeatedly
//! re-classify with the combined attribute+link model `M_AR` of Eq. (3.5),
//! `α·P_A{y} + β·P_L{y}`, until the label distributions converge.

use crate::dataset::LabeledGraph;
use crate::relational::{relational_dist_from, RelationalState, RelationalWeights};
use crate::LocalClassifier;
use ppdp_errors::{ensure, Result};
use ppdp_exec::ExecPolicy;

/// Below this many unknown users the per-node scoring is too cheap to be
/// worth spawning worker threads for; the run silently stays sequential.
/// Scheduling-only: the scored values are identical either way.
const PAR_MIN_UNKNOWNS: usize = 16;

/// ICA parameters: the α/β evidence mix of Eq. (3.5) plus iteration control.
#[derive(Debug, Clone, Copy)]
pub struct IcaConfig {
    /// Weight of the attribute-based distribution `P_A`.
    pub alpha: f64,
    /// Weight of the link-based distribution `P_L`.
    pub beta: f64,
    /// Maximum refinement iterations (step 4 of Algorithm 1).
    pub max_iters: usize,
    /// Convergence tolerance on the max per-class probability change.
    pub tol: f64,
    /// Execution policy for the per-node bootstrap and sweep scoring.
    /// Results are bitwise identical across policies and thread counts.
    pub exec: ExecPolicy,
}

impl Default for IcaConfig {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            beta: 0.5,
            max_iters: 10,
            tol: 1e-6,
            exec: ExecPolicy::Sequential,
        }
    }
}

impl IcaConfig {
    /// Config with a given α/β mix and default iteration control.
    ///
    /// # Panics
    /// Panics unless `alpha, beta ≥ 0` and `alpha + beta > 0`.
    pub fn with_mix(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha >= 0.0 && beta >= 0.0 && alpha + beta > 0.0,
            "bad α/β mix"
        );
        Self {
            alpha,
            beta,
            ..Self::default()
        }
    }

    /// Boundary validation for configs built as struct literals (which
    /// bypass [`IcaConfig::with_mix`]'s assertion).
    pub fn validate(&self) -> Result<()> {
        ensure(
            self.alpha.is_finite() && self.beta.is_finite(),
            format!(
                "α/β mix must be finite, got α = {}, β = {}",
                self.alpha, self.beta
            ),
        )?;
        ensure(
            self.alpha >= 0.0 && self.beta >= 0.0 && self.alpha + self.beta > 0.0,
            format!(
                "bad α/β mix: need α, β ≥ 0 and α + β > 0, got α = {}, β = {}",
                self.alpha, self.beta
            ),
        )?;
        ensure(
            self.tol.is_finite() && self.tol >= 0.0,
            format!(
                "convergence tolerance must be finite and ≥ 0, got {}",
                self.tol
            ),
        )
    }
}

/// Full outcome of an ICA run: the distributions plus the convergence
/// data ([`ica_predict`] keeps the distributions-only signature).
#[derive(Debug, Clone, PartialEq)]
pub struct IcaOutcome {
    /// Final class distribution per user (known users pinned one-hot).
    pub dists: Vec<Vec<f64>>,
    /// Refinement sweeps actually performed.
    pub iterations: usize,
    /// Max per-class probability change in the last sweep
    /// ([`f64::INFINITY`] when no sweep ran).
    pub final_delta: f64,
    /// Whether the sweep deltas dropped below `cfg.tol` within the budget.
    pub converged: bool,
    /// Total argmax-label changes across all sweeps.
    pub label_flips: usize,
    /// True when a distribution was numerically corrupt (NaN/Inf/negative
    /// mass or underflow to zero) and had to be repaired defensively.
    pub degraded: bool,
}

/// Runs ICA and returns the final class distribution of every user (known
/// users stay pinned one-hot). Convenience wrapper over [`ica_run`] for
/// callers that only need the distributions.
///
/// # Errors
/// Returns [`ppdp_errors::PpdpError::InvalidInput`] for a degenerate α/β
/// mix or a classifier whose class count disagrees with the graph's.
pub fn ica_predict(
    lg: &LabeledGraph<'_>,
    local: &dyn LocalClassifier,
    cfg: IcaConfig,
) -> Result<Vec<Vec<f64>>> {
    Ok(ica_run(lg, local, cfg)?.dists)
}

/// Runs ICA and returns distributions plus convergence data. Updates are
/// synchronous per iteration so the result is deterministic.
///
/// Numerically corrupt distributions (NaN/Inf/negative mass, underflow to
/// zero) never propagate: a corrupt attribute bootstrap falls back to the
/// uniform distribution and a corrupt combined distribution falls back to
/// the attribute-only one (the Naive-Bayes degradation of the robustness
/// plan). Repairs are counted under `ica.renormalized` and flagged on
/// [`IcaOutcome::degraded`] plus a `degraded.ica` telemetry event.
///
/// # Errors
/// Returns [`ppdp_errors::PpdpError::InvalidInput`] for a degenerate α/β
/// mix, a non-finite tolerance or a classifier whose class count disagrees
/// with the graph's.
pub fn ica_run(
    lg: &LabeledGraph<'_>,
    local: &dyn LocalClassifier,
    cfg: IcaConfig,
) -> Result<IcaOutcome> {
    cfg.validate()?;
    ensure(
        local.n_classes() == lg.n_classes(),
        format!(
            "local classifier predicts {} classes but the graph has {}",
            local.n_classes(),
            lg.n_classes()
        ),
    )?;
    let _span = ppdp_telemetry::span("ica.run");
    let unknown = lg.unknown_users();
    let mut state = RelationalState::new(lg);
    let uniform = vec![1.0 / lg.n_classes() as f64; lg.n_classes()];
    let mut repairs = 0usize;
    let exec = if unknown.len() >= PAR_MIN_UNKNOWNS {
        cfg.exec
    } else {
        ExecPolicy::Sequential
    };
    let weights = RelationalWeights::build(lg, &unknown, exec);

    // Bootstrap (steps 1-3): attribute-only distributions for V^U. A
    // corrupt local prediction degrades to the uninformative uniform.
    let pa: Vec<Vec<f64>> = fold_flag(
        exec.par_map(unknown.len(), |i| {
            checked_dist_flag(local.predict_dist(&lg.masked_row(unknown[i])), &uniform)
        }),
        &mut repairs,
    );
    for (&u, d) in unknown.iter().zip(&pa) {
        state.set(u, d.clone());
    }

    let mut iterations = 0;
    let mut final_delta = f64::INFINITY;
    let mut converged = false;
    let mut label_flips = 0usize;
    // Flags stalled/oscillating/diverging sweep-delta trajectories as
    // `watchdog.ica.*` counters and trace events; purely observational.
    let mut watchdog =
        ppdp_trace::ConvergenceWatchdog::new(ppdp_trace::WatchdogConfig::with_tol(cfg.tol));
    // Refinement (steps 4-10): combine P_A with the relational P_L.
    // Scoring reads only the previous synchronous state, so the per-node
    // evaluations are independent and safe to fan out.
    for _ in 0..cfg.max_iters {
        iterations += 1;
        let next: Vec<Vec<f64>> = fold_flag(
            exec.par_map(unknown.len(), |i| {
                let a_dist = &pa[i];
                let ns = lg.graph.neighbors(unknown[i]);
                match relational_dist_from(&state, ns, weights.row(i)) {
                    // A corrupt combined distribution degrades to the
                    // attribute-only bootstrap (itself already repaired).
                    Some(l_dist) => {
                        checked_dist_flag(mix(a_dist, &l_dist, cfg.alpha, cfg.beta), a_dist)
                    }
                    None => (a_dist.clone(), false),
                }
            }),
            &mut repairs,
        );
        let mut delta = 0.0f64;
        let mut flips = 0usize;
        for (&u, d) in unknown.iter().zip(next) {
            if crate::argmax(&state.dist[u.0]) != crate::argmax(&d) {
                flips += 1;
            }
            for (old, new) in state.dist[u.0].iter().zip(&d) {
                delta = delta.max((old - new).abs());
            }
            state.set(u, d);
        }
        label_flips += flips;
        final_delta = delta;
        ppdp_telemetry::value("ica.sweep_flips", flips as f64);
        ppdp_telemetry::value("ica.sweep_delta", delta);
        ppdp_trace::ica_sweep(iterations as u64, delta, flips as u64);
        if let Some(verdict) = watchdog.observe(delta) {
            ppdp_telemetry::counter(&format!("watchdog.ica.{}", verdict.as_str()), 1);
            ppdp_trace::watchdog_event("ica", verdict.as_str(), watchdog.iteration());
        }
        if delta < cfg.tol {
            converged = true;
            break;
        }
    }
    ppdp_telemetry::counter("ica.sweeps", iterations as u64);
    ppdp_telemetry::counter(
        if converged {
            "ica.converged"
        } else {
            "ica.nonconverged"
        },
        1,
    );
    let degraded = repairs > 0;
    if degraded {
        ppdp_telemetry::degradation("ica", "dist_repair");
    }
    Ok(IcaOutcome {
        dists: state.dist,
        iterations,
        final_delta,
        converged,
        label_flips,
        degraded,
    })
}

fn mix(a: &[f64], l: &[f64], alpha: f64, beta: f64) -> Vec<f64> {
    // One allocation, normalized in place: `r / z` lane-wise is the same
    // float op the historical two-vector version performed, so mixed
    // distributions are bit-identical.
    let mut raw: Vec<f64> = a.iter().zip(l).map(|(x, y)| alpha * x + beta * y).collect();
    let z: f64 = raw.iter().sum();
    if z > 0.0 {
        for r in &mut raw {
            *r /= z;
        }
        raw
    } else {
        raw.fill(1.0 / a.len() as f64);
        raw
    }
}

/// Renormalizes `d`, or returns `fallback` plus a repaired flag when `d`
/// carries NaN/Inf/negative components or its mass underflowed to zero.
/// The `ica.renormalized` counter is additive, so recording it from a
/// worker thread is order-independent; the flag lets the coordinator fold
/// the repair count deterministically.
fn checked_dist_flag(mut d: Vec<f64>, fallback: &[f64]) -> (Vec<f64>, bool) {
    let corrupt = d.iter().any(|x| !x.is_finite() || *x < 0.0);
    let z: f64 = d.iter().sum();
    if corrupt || !z.is_finite() || z <= 0.0 {
        ppdp_telemetry::counter("ica.renormalized", 1);
        return (fallback.to_vec(), true);
    }
    // Normalize in place — same `x / z` per lane as the historical
    // collect, minus one allocation per scored user per round.
    for x in &mut d {
        *x /= z;
    }
    (d, false)
}

/// Strips the repair flags from per-item results, summing them into
/// `repairs`; preserves item order.
fn fold_flag(items: Vec<(Vec<f64>, bool)>, repairs: &mut usize) -> Vec<Vec<f64>> {
    items
        .into_iter()
        .map(|(d, repaired)| {
            *repairs += usize::from(repaired);
            d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_bayes::NaiveBayes;
    use ppdp_exec::ExecPolicy;
    use ppdp_graph::{CategoryId, GraphBuilder, Schema, SocialGraph, UserId};

    /// Two homophilous cliques with an informative attribute; one unknown
    /// user per clique.
    fn two_cliques() -> SocialGraph {
        let mut b = GraphBuilder::new(Schema::uniform(3, 2));
        // clique A: label 0, attr0 = 0
        let a: Vec<_> = (0..4).map(|i| b.user_with(&[0, i % 2, 0])).collect();
        // clique B: label 1, attr0 = 1
        let c: Vec<_> = (0..4).map(|i| b.user_with(&[1, i % 2, 1])).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.edge(a[i], a[j]);
                b.edge(c[i], c[j]);
            }
        }
        b.edge(a[0], c[0]); // one bridge
        b.build()
    }

    #[test]
    fn ica_recovers_clique_labels() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false; // one unknown in clique A
        known[7] = false; // one unknown in clique B
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let dists = ica_predict(&lg, &nb, IcaConfig::default()).unwrap();
        assert!(dists[3][0] > 0.85, "clique-A member: {:?}", dists[3]);
        assert!(dists[7][1] > 0.85, "clique-B member: {:?}", dists[7]);
    }

    #[test]
    fn known_users_stay_pinned() {
        let g = two_cliques();
        let lg = LabeledGraph::new(&g, CategoryId(2), vec![true; 8]);
        let nb = NaiveBayes::train(&lg.train_set());
        let dists = ica_predict(&lg, &nb, IcaConfig::default()).unwrap();
        assert_eq!(dists[0], vec![1.0, 0.0]);
        assert_eq!(dists[4], vec![0.0, 1.0]);
    }

    #[test]
    fn pure_attribute_mix_matches_bootstrap() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let ica = ica_predict(&lg, &nb, IcaConfig::with_mix(1.0, 0.0)).unwrap();
        let direct = nb.predict_dist(&lg.masked_row(UserId(3)));
        for (a, b) in ica[3].iter().zip(&direct) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn converges_within_iteration_cap() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        known[7] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let short = ica_predict(
            &lg,
            &nb,
            IcaConfig {
                max_iters: 50,
                ..Default::default()
            },
        )
        .unwrap();
        let long = ica_predict(
            &lg,
            &nb,
            IcaConfig {
                max_iters: 500,
                ..Default::default()
            },
        )
        .unwrap();
        for (a, b) in short.iter().zip(&long) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-4, "fixed point reached early");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad α/β mix")]
    fn degenerate_mix_rejected() {
        IcaConfig::with_mix(0.0, 0.0);
    }

    #[test]
    fn degenerate_config_is_a_typed_error_at_the_boundary() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        // Struct literals bypass `with_mix`'s assert; the run boundary
        // still rejects them with a typed error, never a panic.
        for (alpha, beta) in [
            (0.0, 0.0),
            (-1.0, 0.5),
            (f64::NAN, 0.5),
            (f64::INFINITY, 0.5),
        ] {
            let cfg = IcaConfig {
                alpha,
                beta,
                ..Default::default()
            };
            let err = ica_run(&lg, &nb, cfg).unwrap_err();
            assert_eq!(err.kind(), "invalid_input", "α={alpha}, β={beta}: {err}");
        }
        let bad_tol = IcaConfig {
            tol: f64::NAN,
            ..Default::default()
        };
        assert_eq!(
            ica_run(&lg, &nb, bad_tol).unwrap_err().kind(),
            "invalid_input"
        );
    }

    /// A local classifier that returns poisoned distributions.
    struct PoisonLocal {
        n: usize,
        value: f64,
    }

    impl crate::LocalClassifier for PoisonLocal {
        fn n_classes(&self) -> usize {
            self.n
        }
        fn predict_dist(&self, _row: &[Option<u16>]) -> Vec<f64> {
            vec![self.value; self.n]
        }
    }

    #[test]
    fn poisoned_local_classifier_degrades_instead_of_propagating_nan() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        known[7] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        for value in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            let poison = PoisonLocal { n: 2, value };
            let rec = ppdp_telemetry::Recorder::new();
            let out = {
                let _scope = rec.enter();
                ica_run(&lg, &poison, IcaConfig::default()).unwrap()
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
            assert!(report.counter("ica.renormalized") > 0);
            assert_eq!(report.counter("degraded.ica"), 1);
            assert_eq!(report.counter("degraded.ica.dist_repair"), 1);
            assert_eq!(report.degradations(), 1);
        }
    }

    #[test]
    fn class_count_mismatch_is_rejected() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let poison = PoisonLocal { n: 5, value: 0.2 };
        let err = ica_run(&lg, &poison, IcaConfig::default()).unwrap_err();
        assert_eq!(err.kind(), "invalid_input");
        assert!(err.to_string().contains("5"), "{err}");
    }

    #[test]
    fn ica_run_exposes_convergence_data() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        known[7] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let cfg = IcaConfig {
            max_iters: 200,
            ..Default::default()
        };
        let out = ica_run(&lg, &nb, cfg).unwrap();
        assert!(out.converged, "easy graph must converge: {out:?}");
        assert!(!out.degraded, "healthy run must not flag degradation");
        assert!(out.iterations >= 1 && out.iterations <= 200);
        assert!(out.final_delta < cfg.tol);
        assert_eq!(
            out.dists,
            ica_predict(&lg, &nb, cfg).unwrap(),
            "wrapper returns same dists"
        );
        // A one-sweep budget cannot reach the 1e-6 fixed point here.
        let starved = ica_run(
            &lg,
            &nb,
            IcaConfig {
                max_iters: 1,
                ..cfg
            },
        )
        .unwrap();
        assert!(!starved.converged);
        assert_eq!(starved.iterations, 1);
        assert!(starved.final_delta.is_finite());
    }

    /// A chain of homophilous cliques, one unknown user per clique: wide
    /// enough (`n_cliques ≥ PAR_MIN_UNKNOWNS`) to cross the parallelism
    /// threshold.
    fn clique_chain(n_cliques: usize) -> (SocialGraph, Vec<bool>) {
        let mut b = GraphBuilder::new(Schema::uniform(3, 2));
        let mut prev: Option<UserId> = None;
        for c in 0..n_cliques {
            let label = (c % 2) as u16;
            let members: Vec<_> = (0..4)
                .map(|i| b.user_with(&[label, (i % 2) as u16, label]))
                .collect();
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.edge(members[i], members[j]);
                }
            }
            if let Some(p) = prev {
                b.edge(p, members[0]); // bridge between cliques
            }
            prev = Some(members[0]);
        }
        let mut known = vec![true; 4 * n_cliques];
        for c in 0..n_cliques {
            known[4 * c + 3] = false;
        }
        (b.build(), known)
    }

    #[test]
    fn parallel_policy_reproduces_sequential_run_bitwise() {
        let (g, known) = clique_chain(20);
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let sequential = ica_run(&lg, &nb, IcaConfig::default()).unwrap();
        for threads in [1, 2, 8] {
            let cfg = IcaConfig {
                exec: ppdp_exec::ExecPolicy::parallel(threads),
                ..Default::default()
            };
            let parallel = ica_run(&lg, &nb, cfg).unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_policy_matches_sequential_telemetry_counters() {
        let (g, known) = clique_chain(20);
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let run = |exec: ppdp_exec::ExecPolicy| {
            let poison = PoisonLocal { n: 2, value: -1.0 };
            let rec = ppdp_telemetry::Recorder::new();
            let out = {
                let _scope = rec.enter();
                ica_run(
                    &lg,
                    &poison,
                    IcaConfig {
                        exec,
                        ..Default::default()
                    },
                )
                .unwrap()
            };
            (out, rec.take().equivalence_view())
        };
        let (seq_out, seq_view) = run(ppdp_exec::ExecPolicy::Sequential);
        let (par_out, par_view) = run(ppdp_exec::ExecPolicy::parallel(4));
        assert_eq!(seq_out, par_out);
        assert!(seq_out.degraded, "poison must trigger worker-side repairs");
        assert_eq!(seq_view, par_view);
        assert!(par_view.counter("ica.renormalized") > 0);
    }

    /// Test-only reference for Eq. (4.3): every weight recomputed through
    /// [`crate::masked_weight`], summed in neighbour order.
    fn relational_recompute(
        lg: &LabeledGraph<'_>,
        state: &RelationalState,
        u: UserId,
    ) -> Option<Vec<f64>> {
        let ns = lg.graph.neighbors(u);
        if ns.is_empty() {
            return None;
        }
        let weights: Vec<f64> = ns.iter().map(|&j| crate::masked_weight(lg, u, j)).collect();
        let total: f64 = weights.iter().sum();
        let mut out = vec![0.0; state.n_classes()];
        if total > 0.0 {
            for (&j, &w) in ns.iter().zip(&weights) {
                for (o, p) in out.iter_mut().zip(&state.dist[j.0]) {
                    *o += w * p;
                }
            }
            for o in &mut out {
                *o /= total;
            }
        } else {
            for &j in ns {
                for (o, p) in out.iter_mut().zip(&state.dist[j.0]) {
                    *o += p;
                }
            }
            for o in &mut out {
                *o /= ns.len() as f64;
            }
        }
        Some(out)
    }

    /// Test-only reference: ICA with every wvRN weight recomputed per
    /// node per sweep ([`relational_recompute`]) and the local classifier
    /// called once per user — the loop before weights were cached and
    /// predictions memoized.
    fn ica_recompute(
        lg: &LabeledGraph<'_>,
        local: &dyn LocalClassifier,
        cfg: IcaConfig,
    ) -> IcaOutcome {
        let unknown = lg.unknown_users();
        let mut state = RelationalState::new(lg);
        let uniform = vec![1.0 / lg.n_classes() as f64; lg.n_classes()];
        let mut repairs = 0usize;
        let pa: Vec<Vec<f64>> = unknown
            .iter()
            .map(|&u| {
                let (d, r) = checked_dist_flag(local.predict_dist(&lg.masked_row(u)), &uniform);
                repairs += usize::from(r);
                d
            })
            .collect();
        for (&u, d) in unknown.iter().zip(&pa) {
            state.set(u, d.clone());
        }
        let (mut iterations, mut final_delta, mut converged, mut label_flips) =
            (0, f64::INFINITY, false, 0);
        for _ in 0..cfg.max_iters {
            iterations += 1;
            let next: Vec<Vec<f64>> = unknown
                .iter()
                .zip(&pa)
                .map(|(&u, a)| match relational_recompute(lg, &state, u) {
                    Some(l) => {
                        let (d, r) = checked_dist_flag(mix(a, &l, cfg.alpha, cfg.beta), a);
                        repairs += usize::from(r);
                        d
                    }
                    None => a.clone(),
                })
                .collect();
            let mut delta = 0.0f64;
            for (&u, d) in unknown.iter().zip(next) {
                if crate::argmax(&state.dist[u.0]) != crate::argmax(&d) {
                    label_flips += 1;
                }
                for (old, new) in state.dist[u.0].iter().zip(&d) {
                    delta = delta.max((old - new).abs());
                }
                state.set(u, d);
            }
            final_delta = delta;
            if delta < cfg.tol {
                converged = true;
                break;
            }
        }
        IcaOutcome {
            dists: state.dist,
            iterations,
            final_delta,
            converged,
            label_flips,
            degraded: repairs > 0,
        }
    }

    fn bits(dists: &[Vec<f64>]) -> Vec<Vec<u64>> {
        dists
            .iter()
            .map(|d| d.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// The cached-weight ICA, and `run_attack_with`'s memoized Collective
    /// and LinkOnly models, reproduce the recompute reference bit for bit
    /// on a Caltech-shaped graph, for both target labels and policies.
    #[test]
    fn cached_weights_reproduce_the_recompute_reference_bitwise() {
        use crate::eval::{run_attack_with, AttackModel, LocalKind};
        let d = ppdp_datagen::social::caltech_like(42);
        for label in [d.privacy_cat, d.utility_cat] {
            let lg = LabeledGraph::with_random_split(&d.graph, label, 0.7, 42);
            let nb = NaiveBayes::train(&lg.train_set());
            let reference = ica_recompute(&lg, &nb, IcaConfig::default());
            assert!(reference.iterations > 1, "{reference:?}");
            let mut link_ref = RelationalState::new(&lg);
            for u in lg.unknown_users() {
                link_ref.set(u, nb.predict_dist(&lg.masked_row(u)));
            }
            let mut link_ref_dists = link_ref.dist.clone();
            for u in lg.unknown_users() {
                if let Some(d) = relational_recompute(&lg, &link_ref, u) {
                    link_ref_dists[u.0] = d;
                }
            }
            for exec in [ExecPolicy::Sequential, ExecPolicy::parallel(2)] {
                let cfg = IcaConfig {
                    exec,
                    ..Default::default()
                };
                let got = ica_run(&lg, &nb, cfg).unwrap();
                assert_eq!(
                    bits(&got.dists),
                    bits(&reference.dists),
                    "{label:?} {exec:?}"
                );
                assert_eq!(got.final_delta.to_bits(), reference.final_delta.to_bits());
                assert_eq!(
                    (got.iterations, got.converged, got.label_flips, got.degraded),
                    (
                        reference.iterations,
                        reference.converged,
                        reference.label_flips,
                        reference.degraded
                    )
                );
                let model = AttackModel::Collective {
                    alpha: 0.5,
                    beta: 0.5,
                };
                let attack = run_attack_with(&lg, LocalKind::Bayes, model, exec).unwrap();
                assert_eq!(
                    bits(&attack.dists),
                    bits(&reference.dists),
                    "{label:?} {exec:?}"
                );
                assert_eq!(attack.iterations, reference.iterations);
                let link =
                    run_attack_with(&lg, LocalKind::Bayes, AttackModel::LinkOnly, exec).unwrap();
                assert_eq!(
                    bits(&link.dists),
                    bits(&link_ref_dists),
                    "{label:?} {exec:?}"
                );
            }
        }
    }

    #[test]
    fn ica_run_records_telemetry() {
        let g = two_cliques();
        let mut known = vec![true; 8];
        known[3] = false;
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let nb = NaiveBayes::train(&lg.train_set());
        let rec = ppdp_telemetry::Recorder::new();
        let out = {
            let _scope = rec.enter();
            ica_run(&lg, &nb, IcaConfig::default()).unwrap()
        };
        let report = rec.take();
        assert_eq!(report.counter("ica.sweeps"), out.iterations as u64);
        assert_eq!(report.counter("ica.converged"), 1);
        assert_eq!(report.counter("ica.renormalized"), 0);
        assert_eq!(report.degradations(), 0);
        let flips = report
            .histogram("ica.sweep_flips")
            .expect("per-sweep flips recorded");
        assert_eq!(flips.count, out.iterations as u64);
        assert!((flips.sum - out.label_flips as f64).abs() < 1e-9);
        assert!(report.span("ica.run").is_some());
    }
}
