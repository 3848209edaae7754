//! Chapter 5: privacy-preserving genomic data publishing.
//!
//! Implements the full attack/defence stack of the dissertation's genomic
//! chapter:
//! * [`model`] — SNPs, genotypes (relative to the risk allele), traits;
//! * [`catalog`] — the GWAS-Catalog model: SNP-trait associations with odds
//!   ratios and control-group risk-allele frequencies, plus the case-group
//!   RAF derivation `f^a = OR·f^o / (1 − f^o + OR·f^o)`;
//! * [`tables`] — the conditional probability Tables 5.1/5.2;
//! * [`factor_graph`] — the bipartite factor graph of Fig. 5.1 with
//!   evidence clamping;
//! * [`bp`] — sum-product belief propagation (the linear-complexity
//!   inference attack of §5.4);
//! * [`incremental`] — warm-start, residual-scheduled BP with journaled
//!   trials and linear-domain messages, the engine behind the greedy
//!   sanitization delta oracles;
//! * [`kernels`] — the log-domain, flat-slice message kernels behind
//!   [`bp`] (underflow-immune at hub variables) plus the reusable message
//!   arenas;
//! * [`exhaustive`] — the exponential-cost joint-enumeration baseline the
//!   paper's headline claim compares against (Eq. 5.1);
//! * [`nb`] — the Naive Bayes attacker baseline of Fig. 5.2(b);
//! * [`privacy`] — entropy privacy `H_i` (Eq. 5.7), `δ-privacy`, and the
//!   estimation-error metric `Er` (Eq. 5.8);
//! * [`neighbors`] — the neighbor-SNP closures of Defs. 5.5.3/5.5.4;
//! * [`sanitize`] — greedy vulnerable-neighbor-SNP sanitization (the GPUT
//!   problem, Def. 5.5.6), built on the monotone-submodular greedy of
//!   `ppdp-opt`;
//! * [`kinship`] — the relative-aware attacker: Mendelian-transmission
//!   factors connect family members' genotype variables, realizing the
//!   kin-genomic-privacy threat the chapter motivates with the Lacks
//!   family;
//! * [`ld`] — linkage-disequilibrium factors within one genome, realizing
//!   the Watson-ApoE reconstruction scenario of §5.1.

pub mod bp;
pub mod catalog;
pub mod exhaustive;
pub mod factor_graph;
pub mod incremental;
pub mod kernels;
pub mod kinship;
pub mod ld;
pub mod model;
pub mod nb;
pub mod neighbors;
pub mod privacy;
pub mod sanitize;
pub mod tables;

pub use bp::{BpConfig, BpResult};
pub use catalog::{Association, GwasCatalog, TraitInfo};
pub use exhaustive::exhaustive_marginals;
pub use factor_graph::{Evidence, FactorGraph};
pub use incremental::{IncrementalBp, RefreshOutcome};
pub use kernels::{logsumexp, lse2, lse3, BpScratch, LOG_FLOOR};
pub use kinship::{
    build_family_graph, kin_attack, kin_greedy_sanitize, Family, FamilyIndex, KinTarget,
};
pub use ld::{add_ld_factors, LdPair};
pub use model::{Genotype, SnpId, TraitId};
pub use nb::naive_bayes_marginals;
pub use privacy::{entropy_privacy, estimation_error, satisfies_delta_privacy};
pub use sanitize::{
    greedy_sanitize, greedy_sanitize_checkpointed, greedy_sanitize_full_recompute,
    greedy_sanitize_incremental, greedy_sanitize_with, sanitize_checkpoint_key, SanitizeJournal,
    SanitizeOutcome,
};
pub use tables::{allele_given_trait, genotype_given_trait, trait_posterior};
