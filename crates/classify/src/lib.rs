//! Classification and collective-inference substrate for the `ppdp`
//! workspace — the attack models of Chapter 3 (§3.3.3, §3.4, §3.7.2).
//!
//! Three attribute-based ("local") classifiers — categorical Naive Bayes,
//! KNN and the Rough-Set rule classifier — plus the weighted relational
//! classifier (wvRN, Eq. 3.3/4.3) and the Iterative Classification
//! Algorithm (ICA, Algorithm 1) that combines them with the `α·P_A + β·P_L`
//! evidence mix of Eq. (3.5).
//!
//! The attack models of §3.7.2 are exposed as [`AttackModel`]:
//! `AttrOnly`, `LinkOnly` (attribute bootstrap + one relational pass),
//! `Collective` (full ICA) and `Gibbs` — §3.4's second collective
//! algorithm, a sequential-scan sampler ([`gibbs_run`]) whose independent
//! chains are the only unit of parallelism.

pub mod dataset;
pub mod eval;
pub mod gibbs;
pub mod ica;
pub mod knn;
pub mod metrics;
pub mod naive_bayes;
pub mod relational;

pub use dataset::{LabeledGraph, TrainSet};
pub use eval::{accuracy, run_attack, run_attack_with, AttackModel, LocalKind};
pub use gibbs::{gibbs_predict, gibbs_run, GibbsConfig, GibbsOutcome};
pub use ica::{ica_predict, ica_run, IcaConfig, IcaOutcome};
pub use knn::Knn;
pub use metrics::{cross_validate, ConfusionMatrix};
pub use naive_bayes::NaiveBayes;
pub use relational::{
    masked_weight, one_hot, relational_dist, relational_dist_from, RelationalState,
    RelationalWeights,
};

/// A trained attribute-based classifier producing class-probability
/// distributions from a full attribute row (`None` = unpublished value).
///
/// The `Send + Sync` supertrait lets the inference loops score nodes from
/// worker threads under [`ppdp_exec::ExecPolicy::Parallel`]; every
/// classifier here is plain trained data, so the bound is free.
pub trait LocalClassifier: Send + Sync {
    /// Number of decision classes.
    fn n_classes(&self) -> usize;
    /// Probability distribution over classes for `row`.
    fn predict_dist(&self, row: &[Option<u16>]) -> Vec<f64>;

    /// Most probable class (first index wins ties).
    fn predict(&self, row: &[Option<u16>]) -> u16 {
        argmax(&self.predict_dist(row))
    }
}

/// Index of the maximum entry; first occurrence wins ties.
pub fn argmax(dist: &[f64]) -> u16 {
    let mut best = 0usize;
    for (i, &p) in dist.iter().enumerate() {
        if p > dist[best] {
            best = i;
        }
    }
    best as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[0.2, 0.5, 0.5]), 1);
        assert_eq!(argmax(&[1.0]), 0);
    }
}
