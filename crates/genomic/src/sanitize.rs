//! Greedy SNP sanitization — the GPUT problem (Def. 5.5.6): hide the
//! minimum number of released SNPs so that every protection target reaches
//! `δ-privacy`, exploiting the monotonicity (Thm. 5.5.1) and submodularity
//! (Thm. 5.5.2) of the entropy-privacy objective.

use crate::bp::BpConfig;
use crate::catalog::GwasCatalog;
use crate::factor_graph::{Evidence, FactorGraph};
use crate::incremental::IncrementalBp;
use crate::model::{SnpId, TraitId};
use crate::nb::naive_bayes_marginals;
use crate::neighbors::{neighbor_snps_of_snp, neighbor_snps_of_trait};
use ppdp_durable::{CheckpointKey, CheckpointStore, Codec};
use ppdp_errors::{PpdpError, Result};
use ppdp_exec::ExecPolicy;
use ppdp_opt::{greedy_cardinality_oracle_hooked, greedy_cardinality_with, DeltaOracle};
use std::collections::BTreeSet;

/// A variable whose privacy the publisher wants to protect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    /// An unreleased SNP.
    Snp(SnpId),
    /// An unreleased trait.
    Trait(TraitId),
}

/// Which attacker the sanitizer defends against (Fig. 5.2 a/b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predictor {
    /// Belief propagation (§5.4).
    BeliefPropagation(BpConfig),
    /// The Naive Bayes baseline.
    NaiveBayes,
}

impl Predictor {
    /// Runs the attacker and returns the marginal of every target.
    /// Targets missing from the factor graph (e.g. a trait with no
    /// associations) get `None` — the attacker has no handle at all.
    fn target_marginals(
        &self,
        catalog: &GwasCatalog,
        evidence: &Evidence,
        targets: &[Target],
    ) -> Result<Vec<Option<Vec<f64>>>> {
        let g = FactorGraph::build(catalog, evidence)?;
        let result = match self {
            Predictor::BeliefPropagation(cfg) => cfg.run(&g),
            Predictor::NaiveBayes => naive_bayes_marginals(catalog, evidence)?,
        };
        Ok(targets
            .iter()
            .map(|t| match t {
                Target::Snp(s) => g.snp_local(*s).map(|i| result.snp_marginals[i].to_vec()),
                Target::Trait(t) => g
                    .trait_local(*t)
                    .map(|i| result.trait_marginals[i].to_vec()),
            })
            .collect())
    }

    /// Per-target privacy *level*: `1 − TV(posterior, baseline posterior)`,
    /// where the baseline is the attacker's belief with no SNP evidence at
    /// all. 1 means the released SNPs taught the attacker nothing beyond
    /// the prior; 0 means they moved the attacker's belief maximally.
    ///
    /// This is the normalization under which Fig. 5.2's "privacy level
    /// approximates to 1" is attainable for every Table 5.3 disease — the
    /// raw Eq. (5.7) entropy of a rare disease (prevalence 1.7e-5) is near
    /// zero even when the attacker knows nothing beyond the prevalence.
    /// The Eq. (5.7) entropy itself is still available via
    /// [`crate::privacy::entropy_privacy`] on the marginals.
    ///
    /// # Errors
    /// Propagates [`FactorGraph::build`] boundary failures
    /// ([`ppdp_errors::PpdpError::InvalidInput`]).
    pub fn target_privacy_levels(
        &self,
        catalog: &GwasCatalog,
        evidence: &Evidence,
        targets: &[Target],
    ) -> Result<Vec<f64>> {
        let baseline = {
            let mut ev = evidence.clone();
            ev.snps.clear();
            self.target_marginals(catalog, &ev, targets)?
        };
        Ok(self
            .target_marginals(catalog, evidence, targets)?
            .into_iter()
            .zip(&baseline)
            .map(|(post, base)| match (post, base) {
                (Some(p), Some(b)) => {
                    let tv = 0.5 * p.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>();
                    (1.0 - tv).clamp(0.0, 1.0)
                }
                _ => 1.0, // unreachable target: nothing to learn
            })
            .collect())
    }
}

/// Result of a greedy sanitization run.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizeOutcome {
    /// Hidden SNPs, in removal order.
    pub removed: Vec<SnpId>,
    /// Minimum target privacy level (see
    /// [`Predictor::target_privacy_levels`]) after `k` removals
    /// (`history[0]` = before any removal) — the y-axis of Fig. 5.2.
    pub history: Vec<f64>,
    /// Mean target estimation error alongside `history` (second Fig. 5.2
    /// series).
    pub error_history: Vec<f64>,
    /// Whether every target reached `δ`.
    pub satisfied: bool,
    /// Whether every predictor invocation during the run converged
    /// (trivially true for the exact Naive Bayes baseline; for BP this
    /// aggregates the [`crate::BpResult::converged`] flags that were
    /// previously discarded).
    pub predictor_converged: bool,
    /// Whether any predictor invocation degraded to its prior-only fallback
    /// ([`crate::BpResult::degraded`]). A `true` here means the reported
    /// privacy levels were computed against a weakened attacker and should
    /// be treated as optimistic.
    pub predictor_degraded: bool,
}

/// The vulnerable-neighbor-SNP candidate set: released SNPs that are
/// neighbor SNPs (Defs. 5.5.3/5.5.4) of at least one target.
pub fn candidate_snps(
    catalog: &GwasCatalog,
    evidence: &Evidence,
    targets: &[Target],
) -> Vec<SnpId> {
    let mut cands: BTreeSet<SnpId> = BTreeSet::new();
    for t in targets {
        match t {
            Target::Trait(t) => cands.extend(neighbor_snps_of_trait(catalog, *t)),
            Target::Snp(s) => cands.extend(neighbor_snps_of_snp(catalog, *s)),
        }
    }
    cands
        .into_iter()
        .filter(|s| evidence.snps.contains_key(s))
        .collect()
}

/// Greedy GPUT solver: iteratively hides the released neighbor SNP whose
/// removal maximizes the summed target privacy, until every target reaches
/// `δ-privacy` or `max_removals` SNPs are hidden. Returns the removal
/// sequence and the privacy trajectory (Fig. 5.2).
///
/// Privacy is measured by [`Predictor::target_privacy_levels`] — distance
/// of the attacker's posterior from their no-SNP-evidence baseline — which
/// reaches 1 exactly when the remaining released SNPs teach the attacker
/// nothing beyond the prior.
///
/// # Errors
/// [`ppdp_errors::PpdpError::InvalidInput`] when the catalog/evidence pair
/// fails boundary validation, [`ppdp_errors::PpdpError::Numerical`] when
/// the privacy objective turns NaN mid-search.
pub fn greedy_sanitize(
    catalog: &GwasCatalog,
    evidence: &Evidence,
    targets: &[Target],
    delta: f64,
    max_removals: usize,
    predictor: Predictor,
) -> Result<SanitizeOutcome> {
    greedy_sanitize_with(
        ExecPolicy::Sequential,
        catalog,
        evidence,
        targets,
        delta,
        max_removals,
        predictor,
    )
}

/// [`greedy_sanitize`] with an explicit execution policy: under
/// [`ExecPolicy::Parallel`] the per-candidate marginal-gain evaluations of
/// each greedy round fan out across worker threads. The removal sequence,
/// trajectories and convergence flags are identical to the sequential
/// solver for every thread count; only wall-clock changes.
///
/// Every probe builds the factor graph and runs the attacker from
/// scratch, and the whole pick order up to `max_removals` is computed
/// before the δ stop cuts it. It is the sanitizer for the Naive Bayes
/// attacker and for graphs the linear incremental engine cannot
/// represent, and the differential reference for
/// [`greedy_sanitize_incremental`], which makes the same picks with one
/// graph build and stops its search at δ.
///
/// # Errors
/// Same contract as [`greedy_sanitize`].
pub fn greedy_sanitize_with(
    exec: ExecPolicy,
    catalog: &GwasCatalog,
    evidence: &Evidence,
    targets: &[Target],
    delta: f64,
    max_removals: usize,
    predictor: Predictor,
) -> Result<SanitizeOutcome> {
    // Validate here, not just inside BP's graph build: the Naive-Bayes
    // predictor never builds a factor graph, and a dangling SNP id would
    // otherwise only surface later as a NaN objective.
    catalog.validate()?;
    evidence.validate_against(catalog)?;
    // A scoped recorder audits the predictor's convergence counters for
    // this run; events still propagate to any outer/global recorder.
    let audit = ppdp_telemetry::Recorder::new();
    let audit_scope = audit.enter();
    let span = ppdp_telemetry::span("sanitize.greedy");
    let candidates = candidate_snps(catalog, evidence, targets);

    let evidence_without = |removed: &[usize]| -> Evidence {
        let mut ev = evidence.clone();
        for &i in removed {
            ev.snps.remove(&candidates[i]);
        }
        ev
    };
    let min_entropy = |removed: &[usize]| -> Result<f64> {
        let ev = evidence_without(removed);
        Ok(predictor
            .target_privacy_levels(catalog, &ev, targets)?
            .into_iter()
            .fold(f64::INFINITY, f64::min))
    };
    // The greedy objective must be a plain `f64` closure; boundary failures
    // surface as NaN, which `greedy_cardinality`'s checked evaluation turns
    // back into a typed `Numerical` error.
    let sum_entropy = |removed: &[usize]| -> f64 {
        let ev = evidence_without(removed);
        predictor
            .target_privacy_levels(catalog, &ev, targets)
            .map(|v| v.iter().sum())
            .unwrap_or(f64::NAN)
    };

    // Greedy on the summed privacy level (smooth objective); the stopping
    // rule and the reported trajectory use the min (the δ-privacy
    // criterion). The per-candidate evaluations of each round are
    // independent predictor runs, so they parallelize under `exec`.
    let order = greedy_cardinality_with(
        exec,
        candidates.len(),
        max_removals.min(candidates.len()),
        |sel| sum_entropy(sel),
    )?;

    let mut history = vec![min_entropy(&[])?];
    let mut error_history = vec![mean_error(
        &predictor,
        catalog,
        &evidence_without(&[]),
        targets,
    )?];
    let mut taken: Vec<usize> = Vec::new();
    let mut satisfied = history[0] >= delta;
    for &i in &order {
        if satisfied {
            break;
        }
        taken.push(i);
        let h = min_entropy(&taken)?;
        history.push(h);
        error_history.push(mean_error(
            &predictor,
            catalog,
            &evidence_without(&taken),
            targets,
        )?);
        satisfied = h >= delta;
    }

    ppdp_telemetry::counter("sanitize.greedy.removed", taken.len() as u64);
    drop(span);
    drop(audit_scope);
    let report = audit.take();
    let predictor_converged = report.counter("bp.nonconverged") == 0;
    let predictor_degraded = report.counter("degraded.bp") > 0;

    Ok(SanitizeOutcome {
        removed: taken.into_iter().map(|i| candidates[i]).collect(),
        history,
        error_history,
        satisfied,
        predictor_converged,
        predictor_degraded,
    })
}

/// A protection target resolved against the factor graph, with the
/// attacker's no-SNP-evidence baseline belief captured once up front.
enum TargetSlot {
    Snp {
        local: usize,
        baseline: [f64; 3],
    },
    Trait {
        local: usize,
        baseline: [f64; 2],
    },
    /// Not present in the graph: the attacker has no handle at all.
    Unreachable,
}

/// [`DeltaOracle`] over the GPUT candidate set, backed by a warm-started
/// [`IncrementalBp`] engine. A probe hides one candidate SNP inside a
/// journaled trial, refreshes only the dirtied region of the graph, scores
/// the targets, and rolls the trial back; a commit makes the removal
/// permanent. The factor graph is built once and the attacker's baseline
/// belief is computed once — the closure-based sanitizer rebuilds both on
/// every objective evaluation.
struct GputOracle<'a> {
    engine: IncrementalBp,
    cand_local: Vec<usize>,
    slots: &'a [TargetSlot],
    committed: Vec<usize>,
    current: f64,
    /// When true every probe/commit runs [`IncrementalBp::full_recompute`]
    /// instead of a warm refresh — the strict reference mode.
    strict: bool,
    all_converged: bool,
    /// False once any refresh needed message repair: the linear engine
    /// could not represent the graph (see [`IncrementalBp::is_clean`]).
    all_clean: bool,
    probes: u64,
    /// `(min privacy level, mean estimation error)` after each commit, in
    /// commit order — the Fig. 5.2 trajectory, recorded for free while the
    /// engine is already in the right state.
    trajectory: Vec<(f64, f64)>,
}

impl GputOracle<'_> {
    fn refresh_engine(&mut self) {
        let out = if self.strict {
            self.engine.full_recompute()
        } else {
            self.engine.refresh()
        };
        self.all_converged &= out.converged;
        self.all_clean &= out.clean;
    }

    /// Privacy level of one target, arithmetic-identical to
    /// [`Predictor::target_privacy_levels`] (same clamp), just read from
    /// the warm engine instead of a fresh BP run.
    fn level(&self, slot: &TargetSlot) -> f64 {
        let tv = |p: &[f64], baseline: &[f64]| {
            0.5 * p
                .iter()
                .zip(baseline)
                .map(|(x, y)| (x - y).abs())
                .sum::<f64>()
        };
        match slot {
            TargetSlot::Snp { local, baseline } => {
                (1.0 - tv(&self.engine.snp_marginal(*local), baseline)).clamp(0.0, 1.0)
            }
            TargetSlot::Trait { local, baseline } => {
                (1.0 - tv(&self.engine.trait_marginal(*local), baseline)).clamp(0.0, 1.0)
            }
            TargetSlot::Unreachable => 1.0,
        }
    }

    /// Summed target privacy: the greedy objective. Folds over the slots
    /// in target order, so it equals the sum of the collected levels
    /// bitwise without allocating on every probe.
    fn sum_levels(&self) -> f64 {
        self.slots.iter().map(|slot| self.level(slot)).sum()
    }

    /// Minimum target privacy: the δ-privacy criterion.
    fn min_level(&self) -> f64 {
        self.slots
            .iter()
            .map(|slot| self.level(slot))
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean target estimation error at the engine's current state
    /// (arithmetic-identical to the closure sanitizer's [`mean_error`]).
    fn mean_err(&self) -> f64 {
        use crate::privacy::{estimation_error, GENOTYPE_CODING, TRAIT_CODING};
        if self.slots.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .slots
            .iter()
            .map(|slot| match slot {
                TargetSlot::Snp { local, .. } => {
                    estimation_error(&self.engine.snp_marginal(*local), &GENOTYPE_CODING)
                }
                TargetSlot::Trait { local, .. } => {
                    estimation_error(&self.engine.trait_marginal(*local), &TRAIT_CODING)
                }
                TargetSlot::Unreachable => 0.5,
            })
            .sum();
        total / self.slots.len() as f64
    }

    fn probe(&mut self, item: usize) -> Result<f64> {
        self.engine.begin_trial()?;
        self.engine.set_snp_evidence(self.cand_local[item], None)?;
        self.refresh_engine();
        let v = self.sum_levels();
        self.engine.rollback_trial()?;
        Ok(v)
    }
}

impl DeltaOracle for GputOracle<'_> {
    fn len(&self) -> usize {
        self.cand_local.len()
    }

    fn committed(&self) -> &[usize] {
        &self.committed
    }

    fn current(&self) -> f64 {
        self.current
    }

    fn value_of(&mut self, item: usize) -> f64 {
        self.probes += 1;
        // Engine errors (impossible for pre-validated indices) surface as
        // NaN, which the greedy solver turns into a typed Numerical error.
        self.probe(item).unwrap_or(f64::NAN)
    }

    fn commit(&mut self, item: usize, value: f64) {
        // The candidate index was validated at oracle construction, so the
        // evidence edit cannot fail.
        let _ = self.engine.set_snp_evidence(self.cand_local[item], None);
        self.refresh_engine();
        self.committed.push(item);
        self.current = value;
        self.trajectory.push((self.min_level(), self.mean_err()));
    }
}

/// [`greedy_sanitize`] against the belief-propagation attacker, evaluated
/// through the incremental inference engine: the factor graph is built
/// once, BP messages persist across the whole greedy search, and each
/// candidate probe is a journaled trial refreshed by residual scheduling
/// instead of a from-scratch graph build + BP run. Same outcome shape and
/// stopping rule as [`greedy_sanitize_with`], but the δ stop is checked
/// by the solver before every round, so no round runs once the targets
/// are δ-private. Marginals (and hence privacy trajectories) agree with
/// the from-scratch pipeline to within the BP tolerance rather than
/// bitwise. This is the path `GenomePublisher::publish` takes for the
/// belief-propagation attacker.
///
/// The engine keeps linear-domain messages, which underflow at a
/// variable of degree ≳ 1100 (a hub trait). When any refresh needs
/// message repair ([`IncrementalBp::is_clean`] turns `false`), the
/// engine's answers cannot be trusted, and the search reruns as
/// [`greedy_sanitize_with`] on the log-domain kernel of
/// [`BpConfig::run`]: the outcome is then that function's, bit for bit.
///
/// `exec` drives the engine's dirty-set fan-out (and is forwarded to the
/// solver); the result is bitwise-identical for every policy.
///
/// `predictor_degraded` reports the one full BP run, the attacker's
/// no-evidence baseline: the incremental engine has no prior-only
/// fallback — a budget-exhausted refresh reports through
/// `predictor_converged` instead.
///
/// # Errors
/// Same contract as [`greedy_sanitize`].
pub fn greedy_sanitize_incremental(
    exec: ExecPolicy,
    catalog: &GwasCatalog,
    evidence: &Evidence,
    targets: &[Target],
    delta: f64,
    max_removals: usize,
    cfg: BpConfig,
) -> Result<SanitizeOutcome> {
    sanitize_incremental_impl(
        exec,
        catalog,
        evidence,
        targets,
        delta,
        max_removals,
        cfg,
        false,
        None,
    )
}

/// Strict reference twin of [`greedy_sanitize_incremental`]: every probe
/// and commit runs [`IncrementalBp::full_recompute`] instead of a
/// warm-started refresh. Used by the equivalence tests and the PR bench to
/// certify that warm-starting changes cost, not answers.
///
/// # Errors
/// As [`greedy_sanitize_incremental`].
pub fn greedy_sanitize_full_recompute(
    exec: ExecPolicy,
    catalog: &GwasCatalog,
    evidence: &Evidence,
    targets: &[Target],
    delta: f64,
    max_removals: usize,
    cfg: BpConfig,
) -> Result<SanitizeOutcome> {
    sanitize_incremental_impl(
        exec,
        catalog,
        evidence,
        targets,
        delta,
        max_removals,
        cfg,
        true,
        None,
    )
}

/// Write-ahead journal of a greedy sanitization run: the committed picks
/// `(candidate index, objective value)` in pick order. Saved to a
/// [`CheckpointStore`] after every pick, so a killed run replays exactly
/// its committed prefix and resumes picking — replay drives the oracle
/// through the same `commit` calls the live run made, which restores the
/// engine (and hence every later pick) bitwise.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SanitizeJournal {
    /// Committed picks, in pick order.
    pub picks: Vec<(u64, f64)>,
}

impl Codec for SanitizeJournal {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.picks.encode_into(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(SanitizeJournal {
            picks: Vec::<(u64, f64)>::decode(input)?,
        })
    }
}

/// The checkpoint key a [`greedy_sanitize_checkpointed`] run files its
/// journal under. Public so the crash harness (and operators) can inspect
/// or prune a run's checkpoint without re-deriving the digest rules.
///
/// The digest covers everything that must match for a replayed prefix to
/// be valid: catalog, evidence (in sorted order — `Evidence` hashes are
/// iteration-order-unstable), targets, `δ` and the removal cap. The exec
/// fingerprint is `"any"`: sanitization artifacts are policy-invariant.
pub fn sanitize_checkpoint_key(
    run_label: &str,
    catalog: &GwasCatalog,
    evidence: &Evidence,
    targets: &[Target],
    delta: f64,
    max_removals: usize,
) -> CheckpointKey {
    let mut input = format!(
        "{catalog:?}|{targets:?}|{}|{max_removals}|",
        delta.to_bits()
    );
    let mut snps: Vec<_> = evidence.snps.iter().collect();
    snps.sort_unstable_by_key(|(s, _)| s.0);
    for (s, g) in snps {
        input.push_str(&format!("s{}={g:?};", s.0));
    }
    let mut traits: Vec<_> = evidence.traits.iter().collect();
    traits.sort_unstable_by_key(|(t, _)| t.0);
    for (t, present) in traits {
        input.push_str(&format!("t{}={present};", t.0));
    }
    CheckpointKey::new(format!("sanitize/{run_label}"), 0, "any", input.as_bytes())
}

/// [`greedy_sanitize_incremental`] with crash-safe pick journaling: every
/// committed pick is appended to a [`SanitizeJournal`] checkpoint (atomic
/// tmp + fsync + rename) *before* the next greedy round starts. A rerun
/// after a kill loads the journal, replays the committed picks through the
/// oracle, and resumes the search — producing a bitwise-identical
/// [`SanitizeOutcome`] to an uninterrupted run (asserted by the crash
/// harness). A completed run leaves its journal in place; rerunning is a
/// pure replay.
///
/// # Errors
/// As [`greedy_sanitize_incremental`]; checkpoint I/O failures surface
/// as [`PpdpError::Io`]. A graph the linear engine cannot represent is
/// [`PpdpError::InvalidInput`]: its log-domain fallback has no journal.
#[allow(clippy::too_many_arguments)]
pub fn greedy_sanitize_checkpointed(
    exec: ExecPolicy,
    catalog: &GwasCatalog,
    evidence: &Evidence,
    targets: &[Target],
    delta: f64,
    max_removals: usize,
    cfg: BpConfig,
    store: &CheckpointStore,
    run_label: &str,
) -> Result<SanitizeOutcome> {
    sanitize_incremental_impl(
        exec,
        catalog,
        evidence,
        targets,
        delta,
        max_removals,
        cfg,
        false,
        Some((store, run_label)),
    )
}

#[allow(clippy::too_many_arguments)]
fn sanitize_incremental_impl(
    exec: ExecPolicy,
    catalog: &GwasCatalog,
    evidence: &Evidence,
    targets: &[Target],
    delta: f64,
    max_removals: usize,
    mut cfg: BpConfig,
    strict: bool,
    ckpt: Option<(&CheckpointStore, &str)>,
) -> Result<SanitizeOutcome> {
    catalog.validate()?;
    evidence.validate_against(catalog)?;
    cfg.exec = exec;
    if let Some(out) = engine_search(
        catalog,
        evidence,
        targets,
        delta,
        max_removals,
        cfg,
        strict,
        ckpt,
    )? {
        return Ok(out);
    }
    // The linear engine needed message repair — a variable whose incoming
    // message product underflows, such as a hub trait of degree ≳ 1100.
    // Its marginals would be wrong, so the search reruns on the
    // log-domain kernel, which represents the graph exactly. That path
    // has no pick journal to resume from.
    ppdp_errors::ensure(
        ckpt.is_none(),
        "checkpointed sanitization needs the incremental engine, whose \
         linear-domain messages cannot represent this graph (message \
         products underflow); use publish without a checkpoint store",
    )?;
    greedy_sanitize_with(
        exec,
        catalog,
        evidence,
        targets,
        delta,
        max_removals,
        Predictor::BeliefPropagation(cfg),
    )
}

/// The engine-backed greedy search of [`sanitize_incremental_impl`].
/// `Ok(None)` when a refresh needed message repair, i.e. the linear
/// engine cannot represent the graph.
#[allow(clippy::too_many_arguments)]
fn engine_search(
    catalog: &GwasCatalog,
    evidence: &Evidence,
    targets: &[Target],
    delta: f64,
    max_removals: usize,
    cfg: BpConfig,
    strict: bool,
    ckpt: Option<(&CheckpointStore, &str)>,
) -> Result<Option<SanitizeOutcome>> {
    let exec = cfg.exec;
    let audit = ppdp_telemetry::Recorder::new();
    let audit_scope = audit.enter();
    let span = ppdp_telemetry::span("sanitize.greedy");
    let mut engine = IncrementalBp::new(FactorGraph::build(catalog, evidence)?, cfg);
    let candidates = candidate_snps(catalog, evidence, targets);

    // Attacker's baseline belief (no SNP evidence at all), computed once.
    // Interning depends only on the catalog's association list, so local
    // indices agree between the baseline graph and the working graph.
    let baseline = {
        let mut ev = evidence.clone();
        ev.snps.clear();
        let g = FactorGraph::build(catalog, &ev)?;
        cfg.run(&g)
    };

    let g = engine.graph();
    let slots: Vec<TargetSlot> = targets
        .iter()
        .map(|t| match t {
            Target::Snp(s) => g
                .snp_local(*s)
                .map(|i| TargetSlot::Snp {
                    local: i,
                    baseline: baseline.snp_marginals[i],
                })
                .unwrap_or(TargetSlot::Unreachable),
            Target::Trait(t) => g
                .trait_local(*t)
                .map(|i| TargetSlot::Trait {
                    local: i,
                    baseline: baseline.trait_marginals[i],
                })
                .unwrap_or(TargetSlot::Unreachable),
        })
        .collect();
    let cand_local: Vec<usize> = candidates
        .iter()
        .map(|s| {
            g.snp_local(*s).ok_or_else(|| {
                PpdpError::invalid_input(format!("candidate SNP {s:?} is not in the factor graph"))
            })
        })
        .collect::<Result<Vec<_>>>()?;

    let init = engine.refresh(); // everything dirty: the one full pass
    if !init.clean {
        return Ok(None);
    }

    let mut oracle = GputOracle {
        engine,
        cand_local,
        slots: &slots,
        committed: Vec::new(),
        current: 0.0,
        strict,
        all_converged: init.converged,
        all_clean: true,
        probes: 0,
        trajectory: Vec::new(),
    };
    oracle.current = oracle.sum_levels();
    let h0 = oracle.min_level();
    let e0 = oracle.mean_err();

    let k = max_removals.min(candidates.len());

    // Durability hookup: load any existing journal for this exact input,
    // replay its committed picks through the oracle (bitwise-restoring the
    // engine state), then journal every new pick before the next round.
    let key = ckpt.map(|(_, run_label)| {
        sanitize_checkpoint_key(run_label, catalog, evidence, targets, delta, max_removals)
    });
    let mut journal = SanitizeJournal::default();
    if let (Some((store, run_label)), Some(key)) = (ckpt, key.as_ref()) {
        if let Some(loaded) = store.load::<SanitizeJournal>(key) {
            let valid = loaded
                .picks
                .iter()
                .all(|&(item, _)| (item as usize) < oracle.len());
            if valid {
                for &(item, value) in &loaded.picks {
                    oracle.commit(item as usize, value);
                }
                ppdp_telemetry::counter(
                    "sanitize.checkpoint.resumed_picks",
                    loaded.picks.len() as u64,
                );
                ppdp_trace::supervisor_event(
                    "checkpoint_resume",
                    run_label,
                    loaded.picks.len() as u64,
                );
                journal = loaded;
            }
        }
    }

    // The δ stop runs inside the solver: it is asked before every round,
    // so no round is evaluated once the last committed pick (or the
    // starting evidence) is δ-private.
    let mut reached_delta = |o: &GputOracle| o.trajectory.last().map_or(h0, |&(h, _)| h) >= delta;
    let replayed: Vec<usize> = journal.picks.iter().map(|&(i, _)| i as usize).collect();
    let mut on_pick = |item: usize, value: f64| {
        let (Some((store, run_label)), Some(key)) = (ckpt, key.as_ref()) else {
            return;
        };
        journal.picks.push((item as u64, value));
        // The save is the durability point: once it returns, a kill
        // anywhere before the next save replays up to *this* pick.
        if store.save(key, &journal).is_ok() {
            ppdp_telemetry::counter("sanitize.checkpoint.saved", 1);
            ppdp_trace::supervisor_event("checkpoint_save", run_label, journal.picks.len() as u64);
        }
    };
    let fresh = greedy_cardinality_oracle_hooked(
        exec,
        &mut oracle,
        k.saturating_sub(replayed.len()),
        &mut on_pick,
        &mut reached_delta,
    )?;
    let order: Vec<usize> = replayed.into_iter().chain(fresh).collect();

    // Read the trajectory up to the first δ-private prefix. The solver
    // already stopped there; the cut only matters for a replayed journal
    // that holds picks past δ.
    let mut history = vec![h0];
    let mut error_history = vec![e0];
    let mut taken: Vec<usize> = Vec::new();
    let mut satisfied = h0 >= delta;
    for (pos, &i) in order.iter().enumerate() {
        if satisfied {
            break;
        }
        taken.push(i);
        let (h, e) = oracle.trajectory[pos];
        history.push(h);
        error_history.push(e);
        satisfied = h >= delta;
    }

    ppdp_telemetry::counter("sanitize.greedy.removed", taken.len() as u64);
    // Probes served from warm state instead of a from-scratch
    // graph-build + baseline + posterior pipeline (0 in strict mode:
    // full_recompute rebuilds the messages on purpose).
    ppdp_telemetry::counter(
        "sanitize.greedy.oracle_calls_saved",
        if strict { 0 } else { oracle.probes },
    );
    drop(span);
    drop(audit_scope);
    let report = audit.take();
    if !oracle.all_clean {
        return Ok(None);
    }
    let predictor_converged = oracle.all_converged && report.counter("bp.nonconverged") == 0;
    let predictor_degraded = report.counter("degraded.bp") > 0;

    Ok(Some(SanitizeOutcome {
        removed: taken.into_iter().map(|i| candidates[i]).collect(),
        history,
        error_history,
        satisfied,
        predictor_converged,
        predictor_degraded,
    }))
}

fn mean_error(
    predictor: &Predictor,
    catalog: &GwasCatalog,
    evidence: &Evidence,
    targets: &[Target],
) -> Result<f64> {
    use crate::privacy::{estimation_error, GENOTYPE_CODING, TRAIT_CODING};
    let g = FactorGraph::build(catalog, evidence)?;
    let result = match predictor {
        Predictor::BeliefPropagation(cfg) => cfg.run(&g),
        Predictor::NaiveBayes => naive_bayes_marginals(catalog, evidence)?,
    };
    if targets.is_empty() {
        return Ok(0.0);
    }
    let total: f64 = targets
        .iter()
        .map(|t| match t {
            Target::Snp(s) => g
                .snp_local(*s)
                .map(|i| estimation_error(&result.snp_marginals[i], &GENOTYPE_CODING))
                .unwrap_or(0.5),
            Target::Trait(t) => g
                .trait_local(*t)
                .map(|i| estimation_error(&result.trait_marginals[i], &TRAIT_CODING))
                .unwrap_or(0.5),
        })
        .sum();
    Ok(total / targets.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor_graph::figure_5_1_catalog;
    use crate::model::Genotype;

    fn full_evidence() -> Evidence {
        // All SNPs released with strongly informative genotypes.
        let mut ev = Evidence::none();
        for s in 0..5 {
            ev.snps.insert(SnpId(s), Genotype::HomRisk);
        }
        ev
    }

    #[test]
    fn candidates_are_released_neighbor_snps() {
        let cat = figure_5_1_catalog();
        let ev = Evidence::none().with_snp(SnpId(0), Genotype::Het);
        let cands = candidate_snps(&cat, &ev, &[Target::Trait(TraitId(0))]);
        assert_eq!(cands, vec![SnpId(0)], "only released SNPs are candidates");
    }

    #[test]
    fn privacy_monotone_along_removals() {
        let cat = figure_5_1_catalog();
        let out = greedy_sanitize(
            &cat,
            &full_evidence(),
            &[Target::Trait(TraitId(0)), Target::Trait(TraitId(1))],
            0.99,
            8,
            Predictor::BeliefPropagation(BpConfig::default()),
        )
        .unwrap();
        for w in out.history.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "Thm 5.5.1 monotonicity violated: {:?}",
                out.history
            );
        }
        assert!(!out.removed.is_empty());
    }

    #[test]
    fn sanitization_reaches_delta_when_all_evidence_removable() {
        let cat = figure_5_1_catalog();
        let out = greedy_sanitize(
            &cat,
            &full_evidence(),
            &[Target::Trait(TraitId(1))],
            0.9,
            8,
            Predictor::BeliefPropagation(BpConfig::default()),
        )
        .unwrap();
        assert!(
            out.satisfied,
            "hiding every informative SNP must suffice: {out:?}"
        );
        let last = *out.history.last().unwrap();
        assert!(last >= 0.9);
        assert!(
            out.predictor_converged,
            "tree-structured BP must converge every call"
        );
    }

    #[test]
    fn naive_bayes_needs_fewer_removals_than_bp() {
        // BP extracts more signal, so saturating the attacker's uncertainty
        // requires at least as many removals as for NB (Fig. 5.2 shape).
        let cat = figure_5_1_catalog();
        let targets = [Target::Trait(TraitId(0)), Target::Trait(TraitId(1))];
        let bp = greedy_sanitize(
            &cat,
            &full_evidence(),
            &targets,
            0.35,
            8,
            Predictor::BeliefPropagation(BpConfig::default()),
        )
        .unwrap();
        let nb = greedy_sanitize(
            &cat,
            &full_evidence(),
            &targets,
            0.35,
            8,
            Predictor::NaiveBayes,
        )
        .unwrap();
        assert!(
            bp.removed.len() >= nb.removed.len(),
            "BP {} vs NB {}",
            bp.removed.len(),
            nb.removed.len()
        );
    }

    #[test]
    fn parallel_policy_reproduces_sequential_sanitization_bitwise() {
        let cat = figure_5_1_catalog();
        let targets = [Target::Trait(TraitId(0)), Target::Trait(TraitId(1))];
        for predictor in [
            Predictor::BeliefPropagation(BpConfig::default()),
            Predictor::NaiveBayes,
        ] {
            let run = |exec: ExecPolicy| {
                let rec = ppdp_telemetry::Recorder::new();
                let out = {
                    let _scope = rec.enter();
                    greedy_sanitize_with(exec, &cat, &full_evidence(), &targets, 0.99, 8, predictor)
                        .unwrap()
                };
                (out, rec.take().equivalence_view())
            };
            let (seq_out, seq_view) = run(ExecPolicy::Sequential);
            for threads in [1, 2, 8] {
                let (par_out, par_view) = run(ExecPolicy::parallel(threads));
                assert_eq!(seq_out, par_out, "{predictor:?}, threads = {threads}");
                assert_eq!(seq_view, par_view, "{predictor:?}, threads = {threads}");
            }
        }
    }

    #[test]
    fn zero_delta_requires_no_removals() {
        let cat = figure_5_1_catalog();
        let out = greedy_sanitize(
            &cat,
            &full_evidence(),
            &[Target::Trait(TraitId(0))],
            0.0,
            8,
            Predictor::NaiveBayes,
        )
        .unwrap();
        assert!(out.satisfied);
        assert!(out.removed.is_empty());
    }

    /// Asymmetric evidence (mixed genotypes) so candidate gains are
    /// distinct and pick order is not decided by exact-tie fallbacks —
    /// warm-started and from-scratch BP then agree on the sequence.
    fn mixed_evidence() -> Evidence {
        let mut ev = Evidence::none();
        for s in 0..5 {
            let g = if s % 2 == 0 {
                Genotype::HomRisk
            } else {
                Genotype::Het
            };
            ev.snps.insert(SnpId(s), g);
        }
        ev
    }

    #[test]
    fn incremental_sanitizer_matches_closure_pipeline() {
        let cat = figure_5_1_catalog();
        let targets = [Target::Trait(TraitId(0)), Target::Trait(TraitId(1))];
        let closure = greedy_sanitize(
            &cat,
            &mixed_evidence(),
            &targets,
            0.95,
            8,
            Predictor::BeliefPropagation(BpConfig::default()),
        )
        .unwrap();
        let inc = greedy_sanitize_incremental(
            ExecPolicy::Sequential,
            &cat,
            &mixed_evidence(),
            &targets,
            0.95,
            8,
            BpConfig::default(),
        )
        .unwrap();
        assert_eq!(inc.removed, closure.removed, "same removal sequence");
        assert_eq!(inc.satisfied, closure.satisfied);
        assert_eq!(inc.history.len(), closure.history.len());
        for (a, b) in inc.history.iter().zip(&closure.history) {
            assert!((a - b).abs() < 1e-6, "history {a} vs {b}");
        }
        for (a, b) in inc.error_history.iter().zip(&closure.error_history) {
            assert!((a - b).abs() < 1e-6, "error history {a} vs {b}");
        }
        assert!(inc.predictor_converged);
    }

    #[test]
    fn warm_start_and_full_recompute_pick_identical_sets() {
        let cat = figure_5_1_catalog();
        let targets = [Target::Trait(TraitId(0)), Target::Trait(TraitId(1))];
        let warm = greedy_sanitize_incremental(
            ExecPolicy::Sequential,
            &cat,
            &mixed_evidence(),
            &targets,
            0.95,
            8,
            BpConfig::default(),
        )
        .unwrap();
        let strict = greedy_sanitize_full_recompute(
            ExecPolicy::Sequential,
            &cat,
            &mixed_evidence(),
            &targets,
            0.95,
            8,
            BpConfig::default(),
        )
        .unwrap();
        assert_eq!(warm.removed, strict.removed);
        assert_eq!(warm.satisfied, strict.satisfied);
        for (a, b) in warm.history.iter().zip(&strict.history) {
            assert!((a - b).abs() < 1e-9, "history {a} vs {b}");
        }
    }

    #[test]
    fn incremental_sanitizer_is_policy_invariant_bitwise() {
        let cat = figure_5_1_catalog();
        let targets = [Target::Trait(TraitId(0)), Target::Trait(TraitId(1))];
        let run = |exec: ExecPolicy| {
            greedy_sanitize_incremental(
                exec,
                &cat,
                &mixed_evidence(),
                &targets,
                0.99,
                8,
                BpConfig::default(),
            )
            .unwrap()
        };
        let seq = run(ExecPolicy::Sequential);
        for threads in [2, 4] {
            assert_eq!(run(ExecPolicy::parallel(threads)), seq, "threads {threads}");
        }
    }

    #[test]
    fn incremental_sanitizer_records_oracle_savings() {
        let cat = figure_5_1_catalog();
        let targets = [Target::Trait(TraitId(0))];
        let rec = ppdp_telemetry::Recorder::new();
        {
            let _scope = rec.enter();
            let _ = greedy_sanitize_incremental(
                ExecPolicy::Sequential,
                &cat,
                &mixed_evidence(),
                &targets,
                0.99,
                8,
                BpConfig::default(),
            )
            .unwrap();
        }
        let report = rec.take();
        assert!(
            report.counter("sanitize.greedy.oracle_calls_saved") > 0,
            "warm-start probes must be recorded as savings"
        );
        assert!(report.counter("bp.incremental.refreshes") > 0);
    }

    fn tmpstore(tag: &str) -> CheckpointStore {
        let d = std::env::temp_dir().join(format!("ppdp-sanitize-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        CheckpointStore::open(&d).unwrap()
    }

    #[test]
    fn checkpointed_run_matches_plain_incremental_bitwise() {
        let cat = figure_5_1_catalog();
        let targets = [Target::Trait(TraitId(0)), Target::Trait(TraitId(1))];
        let reference = greedy_sanitize_incremental(
            ExecPolicy::Sequential,
            &cat,
            &mixed_evidence(),
            &targets,
            0.95,
            8,
            BpConfig::default(),
        )
        .unwrap();
        let store = tmpstore("match");
        let out = greedy_sanitize_checkpointed(
            ExecPolicy::Sequential,
            &cat,
            &mixed_evidence(),
            &targets,
            0.95,
            8,
            BpConfig::default(),
            &store,
            "unit",
        )
        .unwrap();
        assert_eq!(out, reference, "journaling must not perturb the run");
        let key = sanitize_checkpoint_key("unit", &cat, &mixed_evidence(), &targets, 0.95, 8);
        let journal: SanitizeJournal = store.load(&key).expect("journal persisted");
        assert!(!journal.picks.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn truncated_journal_resumes_to_identical_outcome() {
        // Simulate a kill after the second pick: keep only the journal
        // prefix a crashed run would have fsynced, rerun, and demand the
        // resumed outcome be bitwise-identical to the uninterrupted one.
        let cat = figure_5_1_catalog();
        let targets = [Target::Trait(TraitId(0)), Target::Trait(TraitId(1))];
        let run = |store: &CheckpointStore| {
            greedy_sanitize_checkpointed(
                ExecPolicy::Sequential,
                &cat,
                &mixed_evidence(),
                &targets,
                0.99,
                8,
                BpConfig::default(),
                store,
                "resume",
            )
            .unwrap()
        };
        let store = tmpstore("resume");
        let uninterrupted = run(&store);

        let key = sanitize_checkpoint_key("resume", &cat, &mixed_evidence(), &targets, 0.99, 8);
        let full: SanitizeJournal = store.load(&key).unwrap();
        assert!(full.picks.len() >= 3, "need enough picks to truncate");
        for cut in 0..full.picks.len() {
            let truncated = SanitizeJournal {
                picks: full.picks[..cut].to_vec(),
            };
            store.save(&key, &truncated).unwrap();
            let rec = ppdp_telemetry::Recorder::new();
            let resumed = {
                let _scope = rec.enter();
                run(&store)
            };
            assert_eq!(resumed, uninterrupted, "kill point after pick {cut}");
            assert_eq!(
                rec.take().counter("sanitize.checkpoint.resumed_picks"),
                cut as u64
            );
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_journal_falls_back_to_cold_start() {
        let cat = figure_5_1_catalog();
        let targets = [Target::Trait(TraitId(0))];
        let store = tmpstore("corrupt");
        let first = greedy_sanitize_checkpointed(
            ExecPolicy::Sequential,
            &cat,
            &mixed_evidence(),
            &targets,
            0.99,
            8,
            BpConfig::default(),
            &store,
            "corrupt",
        )
        .unwrap();
        let key = sanitize_checkpoint_key("corrupt", &cat, &mixed_evidence(), &targets, 0.99, 8);
        // Flip one byte in the checkpoint file: load must reject it (CRC)
        // and the rerun must recompute from scratch, not error.
        let path = store.path_for(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let rerun = greedy_sanitize_checkpointed(
            ExecPolicy::Sequential,
            &cat,
            &mixed_evidence(),
            &targets,
            0.99,
            8,
            BpConfig::default(),
            &store,
            "corrupt",
        )
        .unwrap();
        assert_eq!(rerun, first);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn unreachable_target_counts_as_private() {
        let mut cat = figure_5_1_catalog();
        let lonely = cat.add_trait("lonely", 0.01);
        let out = greedy_sanitize(
            &cat,
            &full_evidence(),
            &[Target::Trait(lonely)],
            0.99,
            8,
            Predictor::NaiveBayes,
        )
        .unwrap();
        assert!(
            out.satisfied,
            "a trait with no associations cannot be attacked"
        );
        assert!(out.removed.is_empty());
    }
}
