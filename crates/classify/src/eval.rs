//! The attack models of §3.7.2 — `AttrOnly`, `LinkOnly`, `CC` (collective)
//! — instantiated with any of the three local classifiers, plus accuracy
//! evaluation.

use crate::dataset::LabeledGraph;
use crate::ica::{ica_run, IcaConfig};
use crate::knn::Knn;
use crate::naive_bayes::NaiveBayes;
use crate::relational::{relational_dist_from, RelationalState, RelationalWeights};
use crate::{argmax, LocalClassifier};
use ppdp_errors::Result;
use ppdp_exec::ExecPolicy;
use ppdp_graph::UserId;
use ppdp_roughset::{find_reduct, AttrId, InformationSystem, RuleClassifier};
use std::collections::HashMap;

/// Below this many distinct rows the local predictions are too cheap to be
/// worth spawning worker threads for. Scheduling-only: the predictions are
/// identical either way.
const PAR_MIN_ROWS: usize = 16;

/// Which attribute-based (local) classifier to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalKind {
    /// Categorical Naive Bayes with Laplace smoothing.
    Bayes,
    /// K-nearest neighbours with the given `k`.
    Knn(usize),
    /// Rough-Set rule classifier over a greedily-found reduct.
    Rst,
}

impl LocalKind {
    /// Human-readable name matching the figures' legends.
    pub fn name(&self) -> &'static str {
        match self {
            LocalKind::Bayes => "Bayes",
            LocalKind::Knn(_) => "KNN",
            LocalKind::Rst => "RST",
        }
    }

    /// Trains the local classifier on `lg`'s known users.
    pub fn fit(&self, lg: &LabeledGraph<'_>) -> Box<dyn LocalClassifier> {
        let ts = lg.train_set();
        match *self {
            LocalKind::Bayes => Box::new(NaiveBayes::train(&ts)),
            LocalKind::Knn(k) => Box::new(Knn::train(&ts, k)),
            LocalKind::Rst => Box::new(RstLocal::train(&ts)),
        }
    }
}

/// Adapter exposing the Rough-Set rule classifier as a [`LocalClassifier`]:
/// appends the label as a decision column, finds a reduct over the
/// condition columns and extracts decision rules.
#[derive(Debug, Clone)]
pub struct RstLocal {
    clf: RuleClassifier,
}

impl RstLocal {
    /// Trains: builds the information system `(V, C ∪ D)`, reduces `C` and
    /// extracts rules (the `learn_RST_Rule` step of Algorithm 1).
    pub fn train(ts: &crate::dataset::TrainSet) -> Self {
        let width = ts.rows.first().map_or(0, Vec::len);
        let mut rows: Vec<Vec<Option<u16>>> = Vec::with_capacity(ts.rows.len());
        for (row, &y) in ts.rows.iter().zip(&ts.labels) {
            let mut r = row.clone();
            r.push(Some(y));
            rows.push(r);
        }
        let sys = if rows.is_empty() {
            InformationSystem::from_columns(vec![Vec::new(); width + 1])
        } else {
            InformationSystem::from_rows(&rows)
        };
        let cond: Vec<AttrId> = (0..width).map(AttrId).collect();
        let decision = AttrId(width);
        let mut reduct = find_reduct(&sys, &cond, &[decision]);
        // Noisy tables can have an empty positive region, which makes every
        // subset (including ∅) a trivial "reduct". Rules over the empty set
        // collapse to the prior, so fall back to the full condition set —
        // the rule classifier's partial-match backoff handles sparsity.
        if reduct.is_empty() {
            reduct = cond;
        }
        let clf = RuleClassifier::train(&sys, &reduct, decision, ts.n_classes);
        Self { clf }
    }

    /// The reduct the rules range over.
    pub fn reduct(&self) -> &[AttrId] {
        &self.clf.rules().reduct
    }
}

impl LocalClassifier for RstLocal {
    fn n_classes(&self) -> usize {
        self.clf.rules().n_classes
    }

    fn predict_dist(&self, row: &[Option<u16>]) -> Vec<f64> {
        self.clf.predict_dist(row)
    }
}

/// An attack model from §3.7.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackModel {
    /// Attribute information only (no links).
    AttrOnly,
    /// Link information: attribute bootstrap for unlabeled neighbours, then
    /// one weighted relational pass (the two-step procedure of §3.7.2).
    LinkOnly,
    /// Collective inference (ICA) with the Eq. (3.5) α/β mix.
    Collective {
        /// Weight of attribute evidence.
        alpha: f64,
        /// Weight of link evidence.
        beta: f64,
    },
    /// Gibbs-sampling collective classification (the second collective
    /// algorithm §3.4 names) with the same α/β mix and default chain
    /// parameters.
    Gibbs {
        /// Weight of attribute evidence.
        alpha: f64,
        /// Weight of link evidence.
        beta: f64,
    },
}

/// Result of running an attack: final distributions and accuracy on `V^U`,
/// plus the inference engine's convergence data.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Final class distribution per user.
    pub dists: Vec<Vec<f64>>,
    /// Fraction of unknown-but-labelled users predicted correctly.
    pub accuracy: f64,
    /// Inference sweeps performed (1 for the single-pass models).
    pub iterations: usize,
    /// Whether the inference engine converged (single-pass models and
    /// fixed-length Gibbs chains are trivially converged).
    pub converged: bool,
    /// Final sweep residual (0 for non-iterative models).
    pub final_residual: f64,
    /// Whether the inference engine had to repair numerically corrupt
    /// distributions along the way (always `false` for single-pass models).
    pub degraded: bool,
}

/// Runs `model` with local classifier `kind` against `lg` and scores the
/// predictions on the hidden labels of `V^U`.
///
/// # Errors
/// Returns [`ppdp_errors::PpdpError::InvalidInput`] when the collective
/// models are configured with a degenerate α/β mix.
pub fn run_attack(
    lg: &LabeledGraph<'_>,
    kind: LocalKind,
    model: AttackModel,
) -> Result<AttackOutcome> {
    run_attack_with(lg, kind, model, ExecPolicy::Sequential)
}

/// [`run_attack`] with an explicit execution policy for the collective
/// inference engines (ICA node scoring; Gibbs chains). The outcome is
/// identical for every policy and thread count.
///
/// # Errors
/// Same conditions as [`run_attack`].
pub fn run_attack_with(
    lg: &LabeledGraph<'_>,
    kind: LocalKind,
    model: AttackModel,
    exec: ExecPolicy,
) -> Result<AttackOutcome> {
    let local = {
        let _fit_span = ppdp_telemetry::span(match kind {
            LocalKind::Bayes => "attack.fit.Bayes",
            LocalKind::Knn(_) => "attack.fit.KNN",
            LocalKind::Rst => "attack.fit.RST",
        });
        kind.fit(lg)
    };
    let _infer_span = ppdp_telemetry::span("attack.infer");
    let unknown = lg.unknown_users();
    let local = MemoLocal::new(local.as_ref(), lg, &unknown, exec);
    let mut iterations = 1;
    let mut converged = true;
    let mut final_residual = 0.0;
    let mut degraded = false;
    let dists = match model {
        AttackModel::AttrOnly => {
            let mut state = RelationalState::new(lg);
            for &u in &unknown {
                state.set(u, local.predict_dist(&lg.masked_row(u)));
            }
            state.dist
        }
        AttackModel::LinkOnly => {
            let mut state = RelationalState::new(lg);
            // Bootstrap every unknown user from attributes first, so each
            // user has at least an approximate distribution …
            for &u in &unknown {
                state.set(u, local.predict_dist(&lg.masked_row(u)));
            }
            // … then one weighted relational pass (Eq. 4.3), synchronous.
            let weights = RelationalWeights::build(lg, &unknown, ExecPolicy::Sequential);
            let passes: Vec<_> = unknown
                .iter()
                .enumerate()
                .map(|(i, &u)| {
                    let ns = lg.graph.neighbors(u);
                    (u, relational_dist_from(&state, ns, weights.row(i)))
                })
                .collect();
            for (u, d) in passes {
                if let Some(d) = d {
                    state.set(u, d);
                }
            }
            state.dist
        }
        AttackModel::Collective { alpha, beta } => {
            // The struct literal (not `with_mix`) defers mix validation to
            // `ica_run`, which reports a typed error instead of panicking.
            let out = ica_run(
                lg,
                &local,
                IcaConfig {
                    alpha,
                    beta,
                    exec,
                    ..Default::default()
                },
            )?;
            iterations = out.iterations;
            converged = out.converged;
            final_residual = out.final_delta;
            degraded = out.degraded;
            out.dists
        }
        AttackModel::Gibbs { alpha, beta } => {
            let out = crate::gibbs::gibbs_run(
                lg,
                &local,
                crate::gibbs::GibbsConfig {
                    alpha,
                    beta,
                    exec,
                    ..Default::default()
                },
            )?;
            iterations = out.sweeps;
            degraded = out.degraded;
            out.dists
        }
    };
    let accuracy = accuracy(lg, &dists);
    Ok(AttackOutcome {
        dists,
        accuracy,
        iterations,
        converged,
        final_residual,
        degraded,
    })
}

/// The attack's local classifier with its predictions for the unknown
/// users' masked rows computed once per distinct row.
///
/// Exact: every [`LocalClassifier`] here is a pure function of the row
/// (KNN breaks distance ties by training index, a total order), so a
/// memoized prediction is bitwise the one a fresh call returns, and users
/// that publish identical rows share one classifier run. Rows outside the
/// memo fall through to the classifier.
struct MemoLocal<'a> {
    inner: &'a dyn LocalClassifier,
    /// Distinct masked row → index into `dists`.
    index: HashMap<Vec<Option<u16>>, usize>,
    dists: Vec<Vec<f64>>,
}

impl<'a> MemoLocal<'a> {
    fn new(
        inner: &'a dyn LocalClassifier,
        lg: &LabeledGraph<'_>,
        users: &[UserId],
        exec: ExecPolicy,
    ) -> Self {
        let mut index: HashMap<Vec<Option<u16>>, usize> = HashMap::new();
        let mut rows: Vec<Vec<Option<u16>>> = Vec::new();
        for &u in users {
            index.entry(lg.masked_row(u)).or_insert_with_key(|row| {
                rows.push(row.clone());
                rows.len() - 1
            });
        }
        let exec = if rows.len() >= PAR_MIN_ROWS {
            exec
        } else {
            ExecPolicy::Sequential
        };
        let dists = exec.par_map(rows.len(), |i| inner.predict_dist(&rows[i]));
        Self {
            inner,
            index,
            dists,
        }
    }
}

impl LocalClassifier for MemoLocal<'_> {
    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }

    fn predict_dist(&self, row: &[Option<u16>]) -> Vec<f64> {
        match self.index.get(row) {
            Some(&i) => self.dists[i].clone(),
            None => self.inner.predict_dist(row),
        }
    }
}

/// Fraction of `V^U` users whose argmax prediction matches ground truth.
/// Returns 1.0 when there is nothing to predict.
pub fn accuracy(lg: &LabeledGraph<'_>, dists: &[Vec<f64>]) -> f64 {
    let targets = lg.unknown_users();
    if targets.is_empty() {
        return 1.0;
    }
    let correct = targets
        .iter()
        .filter(|&&u| Some(argmax(&dists[u.0])) == lg.true_label(u))
        .count();
    correct as f64 / targets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdp_graph::{CategoryId, GraphBuilder, Schema, SocialGraph};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Homophilous two-community graph: community = label, attribute 0
    /// correlates with the label, attribute 1 is noise.
    fn community_graph(n: usize, seed: u64) -> SocialGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(Schema::uniform(3, 2));
        let users: Vec<_> = (0..n)
            .map(|i| {
                let label = (i % 2) as u16;
                let a0 = if rng.gen_bool(0.85) { label } else { 1 - label };
                let a1 = rng.gen_range(0..2u16);
                b.user_with(&[a0, a1, label])
            })
            .collect();
        for i in 0..n {
            for j in (i + 1)..n {
                let same = i % 2 == j % 2;
                let p = if same { 0.25 } else { 0.02 };
                if rng.gen_bool(p) {
                    b.edge(users[i], users[j]);
                }
            }
        }
        b.build()
    }

    #[test]
    fn all_models_beat_chance_on_homophilous_graph() {
        let g = community_graph(80, 3);
        let lg = LabeledGraph::with_random_split(&g, CategoryId(2), 0.7, 3);
        for kind in [LocalKind::Bayes, LocalKind::Knn(5), LocalKind::Rst] {
            for model in [
                AttackModel::AttrOnly,
                AttackModel::LinkOnly,
                AttackModel::Collective {
                    alpha: 0.5,
                    beta: 0.5,
                },
            ] {
                let out = run_attack(&lg, kind, model).unwrap();
                assert!(
                    out.accuracy > 0.6,
                    "{kind:?}/{model:?} accuracy {} ≤ chance",
                    out.accuracy
                );
            }
        }
    }

    #[test]
    fn collective_at_least_matches_attr_only_here() {
        let g = community_graph(80, 11);
        let lg = LabeledGraph::with_random_split(&g, CategoryId(2), 0.6, 11);
        let attr = run_attack(&lg, LocalKind::Bayes, AttackModel::AttrOnly)
            .unwrap()
            .accuracy;
        let cc = run_attack(
            &lg,
            LocalKind::Bayes,
            AttackModel::Collective {
                alpha: 0.5,
                beta: 0.5,
            },
        )
        .unwrap()
        .accuracy;
        assert!(
            cc + 1e-9 >= attr - 0.05,
            "collective {cc} should not collapse vs {attr}"
        );
    }

    #[test]
    fn gibbs_attack_model_beats_chance() {
        let g = community_graph(80, 7);
        let lg = LabeledGraph::with_random_split(&g, CategoryId(2), 0.7, 7);
        let out = run_attack(
            &lg,
            LocalKind::Bayes,
            AttackModel::Gibbs {
                alpha: 0.5,
                beta: 0.5,
            },
        )
        .unwrap();
        assert!(out.accuracy > 0.6, "Gibbs accuracy {}", out.accuracy);
        assert!(!out.degraded);
    }

    #[test]
    fn memoized_local_predictions_equal_direct_calls() {
        let g = community_graph(60, 13);
        let lg = LabeledGraph::with_random_split(&g, CategoryId(2), 0.5, 13);
        for kind in [LocalKind::Bayes, LocalKind::Knn(3), LocalKind::Rst] {
            let local = kind.fit(&lg);
            let out = run_attack(&lg, kind, AttackModel::AttrOnly).unwrap();
            for u in lg.unknown_users() {
                let direct = local.predict_dist(&lg.masked_row(u));
                assert_eq!(out.dists[u.0], direct, "{kind:?} {u:?}");
            }
        }
    }

    #[test]
    fn rst_local_exposes_reduct() {
        let g = community_graph(40, 5);
        let lg = LabeledGraph::with_random_split(&g, CategoryId(2), 0.8, 5);
        let rst = RstLocal::train(&lg.train_set());
        assert!(!rst.reduct().is_empty());
        assert!(rst.reduct().iter().all(|a| a.0 < 3));
    }

    #[test]
    fn accuracy_of_perfect_predictions_is_one() {
        let g = community_graph(20, 9);
        let lg = LabeledGraph::with_random_split(&g, CategoryId(2), 0.5, 9);
        let dists: Vec<Vec<f64>> = g
            .users()
            .map(|u| {
                let y = lg.true_label(u).unwrap();
                crate::relational::one_hot(y, 2)
            })
            .collect();
        assert_eq!(accuracy(&lg, &dists), 1.0);
    }

    #[test]
    fn empty_target_set_scores_one() {
        let g = community_graph(10, 1);
        let lg = LabeledGraph::new(&g, CategoryId(2), vec![true; 10]);
        assert_eq!(accuracy(&lg, &vec![vec![0.5, 0.5]; 10]), 1.0);
    }
}
