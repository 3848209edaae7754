//! High-level publishing pipelines, one per dissertation chapter.

use ppdp_audit::digest::{fnv1a, Digest};
use ppdp_audit::{AuditSink, ReleaseBuilder, ReleaseCache, ReleaseRecord};
use ppdp_classify::{AttackModel, LabeledGraph, LocalKind};
use ppdp_datagen::social::SocialDataset;
use ppdp_durable::CheckpointStore;
use ppdp_errors::{ensure, ensure_unit_closed, Result};
use ppdp_exec::ExecPolicy;
use ppdp_genomic::sanitize::{
    greedy_sanitize_checkpointed, greedy_sanitize_incremental, greedy_sanitize_with,
    sanitize_checkpoint_key, Predictor, SanitizeOutcome, Target,
};
use ppdp_genomic::{BpConfig, Evidence, GwasCatalog};
use ppdp_graph::SocialGraph;
use ppdp_sanitize::{collective_sanitize, remove_indistinguishable_links_with, CollectivePlan};
use ppdp_telemetry::{Recorder, RunReport};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Records the wall-clock of one pipeline phase under an `exec.`-prefixed
/// value, so [`RunReport::equivalence_view`] drops it: timings are the one
/// thing the parallel layer is *allowed* to change.
fn record_phase_ms(phase: &'static str, started: std::time::Instant) {
    ppdp_telemetry::value(
        match phase {
            "attack_before" => "exec.phase_ms.attack_before",
            "sanitize" => "exec.phase_ms.sanitize",
            "attack_after" => "exec.phase_ms.attack_after",
            "fit" => "exec.phase_ms.fit",
            "sample" => "exec.phase_ms.sample",
            "optimize" => "exec.phase_ms.optimize",
            _ => "exec.phase_ms.other",
        },
        started.elapsed().as_secs_f64() * 1e3,
    );
}

/// The execution-policy fingerprint stamped on release records; the one
/// release field [`ReleaseRecord::equivalence_view`] masks.
fn exec_fp(exec: ExecPolicy) -> String {
    match exec {
        ExecPolicy::Sequential => "seq".to_owned(),
        ExecPolicy::Parallel { threads } => format!("par{threads}"),
    }
}

/// Content digest of a social dataset: node/edge structure plus the
/// privacy- and utility-category labels the pipeline publishes over.
fn social_input_digest(d: &SocialDataset) -> u64 {
    let mut dg = Digest::new();
    dg.write_u64(d.graph.user_count() as u64);
    for (a, b) in d.graph.edges() {
        dg.write_u64(a.0 as u64).write_u64(b.0 as u64);
    }
    for cat in [d.privacy_cat, d.utility_cat] {
        dg.write_u64(cat.0 as u64);
        for u in d.graph.users() {
            dg.write_u64(d.graph.value(u, cat).map_or(u64::MAX, u64::from));
        }
    }
    dg.finish()
}

/// Content digest of a categorical microdata table (schema + every cell).
fn table_input_digest(t: &ppdp_dp::Table) -> u64 {
    let mut dg = Digest::new();
    dg.write_u64(t.n_cols() as u64);
    for a in t.arities() {
        dg.write_u64(u64::from(*a));
    }
    dg.write_u64(t.n_rows() as u64);
    for row in t.rows() {
        for v in row {
            dg.write_u64(u64::from(*v));
        }
    }
    dg.finish()
}

/// Chapter 3 pipeline: collective sanitization of a social dataset plus a
/// before/after attack evaluation.
#[derive(Debug, Clone)]
pub struct SocialPublisher<'d> {
    data: &'d SocialDataset,
    level: usize,
    links_to_remove: usize,
    known_fraction: f64,
    kind: LocalKind,
    mix: (f64, f64),
    exec: ExecPolicy,
}

/// Outcome of a [`SocialPublisher`] run.
#[derive(Debug, Clone)]
pub struct SocialReport {
    /// The sanitized graph.
    pub sanitized: SocialGraph,
    /// What Algorithm 2 decided (removed / perturbed categories).
    pub plan: CollectivePlan,
    /// Attack accuracy on the sensitive attribute before sanitization.
    pub privacy_accuracy_before: f64,
    /// Attack accuracy on the sensitive attribute after sanitization.
    pub privacy_accuracy_after: f64,
    /// Attack accuracy on the utility attribute after sanitization.
    pub utility_accuracy_after: f64,
    /// Everything the instrumented sub-crates recorded during the run:
    /// phase timings, ICA sweep counts, link-removal counters.
    pub telemetry: RunReport,
    /// Lineage record of the published artifact (also delivered to any
    /// active [`AuditSink`]).
    pub release: ReleaseRecord,
}

impl<'d> SocialPublisher<'d> {
    /// Starts a pipeline over `data` with the defaults of §3.7 (ICA-Bayes
    /// at α = β = 0.5, 70 % known labels, generalization level 5, no link
    /// removal).
    pub fn new(data: &'d SocialDataset) -> Self {
        Self {
            data,
            level: 5,
            links_to_remove: 0,
            known_fraction: 0.7,
            kind: LocalKind::Bayes,
            mix: (0.5, 0.5),
            exec: ExecPolicy::Sequential,
        }
    }

    /// Sets the generalization level `L` used on the Core.
    pub fn generalization_level(mut self, level: usize) -> Self {
        self.level = level;
        self
    }

    /// Additionally removes this many indistinguishable links.
    pub fn remove_links(mut self, n: usize) -> Self {
        self.links_to_remove = n;
        self
    }

    /// Sets the fraction of users whose sensitive label the attacker knows.
    pub fn known_fraction(mut self, f: f64) -> Self {
        self.known_fraction = f;
        self
    }

    /// Sets the attacker's local classifier.
    pub fn local_classifier(mut self, kind: LocalKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the α/β evidence mix of Eq. (3.5).
    pub fn evidence_mix(mut self, alpha: f64, beta: f64) -> Self {
        self.mix = (alpha, beta);
        self
    }

    /// Sets the execution policy for the attack and sanitization phases.
    /// The published artifacts and report metrics are bitwise identical
    /// for every policy and thread count; only wall-clock changes.
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Runs sanitization + evaluation (deterministic for a given seed).
    ///
    /// The attached [`SocialReport::telemetry`] covers the whole run; the
    /// same events also reach any recorder the caller has scoped or
    /// installed globally.
    ///
    /// # Errors
    /// Returns [`ppdp_errors::PpdpError::InvalidInput`] when the known
    /// fraction is outside `[0, 1]`, the α/β mix is degenerate, or the
    /// dataset's privacy/utility targets are invalid.
    pub fn publish(&self, seed: u64) -> Result<SocialReport> {
        ensure_unit_closed("known fraction", self.known_fraction)?;
        ensure(
            self.mix.0.is_finite()
                && self.mix.1.is_finite()
                && self.mix.0 >= 0.0
                && self.mix.1 >= 0.0
                && self.mix.0 + self.mix.1 > 0.0,
            format!(
                "bad α/β mix: need α, β ≥ 0 and α + β > 0, got α = {}, β = {}",
                self.mix.0, self.mix.1
            ),
        )?;
        let rec = Recorder::new();
        let scope = rec.enter();
        let audit = AuditSink::new();
        let audit_scope = audit.enter();
        let span = ppdp_telemetry::span("social.publish");
        self.exec.record_threads();

        let d = self.data;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let known: Vec<bool> = (0..d.graph.user_count())
            .map(|_| rng.gen_bool(self.known_fraction))
            .collect();
        let model = AttackModel::Collective {
            alpha: self.mix.0,
            beta: self.mix.1,
        };

        let before = {
            let _phase = ppdp_telemetry::span("attack_before");
            let started = std::time::Instant::now();
            let accuracy = ppdp_classify::run_attack_with(
                &LabeledGraph::new(&d.graph, d.privacy_cat, known.clone()),
                self.kind,
                model,
                self.exec,
            )?
            .accuracy;
            record_phase_ms("attack_before", started);
            accuracy
        };

        let (sanitized, plan) = {
            let _phase = ppdp_telemetry::span("sanitize");
            let started = std::time::Instant::now();
            let (mut sanitized, plan) =
                collective_sanitize(&d.graph, d.privacy_cat, d.utility_cat, self.level)?;
            if self.links_to_remove > 0 {
                sanitized = remove_indistinguishable_links_with(
                    self.exec,
                    &sanitized,
                    d.privacy_cat,
                    &known,
                    self.kind,
                    self.links_to_remove,
                )?;
            }
            record_phase_ms("sanitize", started);
            (sanitized, plan)
        };

        let (after, utility) = {
            let _phase = ppdp_telemetry::span("attack_after");
            let started = std::time::Instant::now();
            let after = ppdp_classify::run_attack_with(
                &LabeledGraph::new(&sanitized, d.privacy_cat, known.clone()),
                self.kind,
                model,
                self.exec,
            )?
            .accuracy;
            let utility = ppdp_classify::run_attack_with(
                &LabeledGraph::new(&sanitized, d.utility_cat, known),
                self.kind,
                model,
                self.exec,
            )?
            .accuracy;
            record_phase_ms("attack_after", started);
            (after, utility)
        };

        drop(span);
        drop(audit_scope);
        drop(scope);
        let release = ReleaseBuilder::new("social.publish", "collective_sanitize")
            .param("level", self.level)
            .param("links_removed", self.links_to_remove)
            .param("known_fraction", self.known_fraction)
            .param("classifier", format!("{:?}", self.kind))
            .param("alpha", self.mix.0)
            .param("beta", self.mix.1)
            .param("seed", seed)
            .input_digest(social_input_digest(d))
            .exec(&exec_fp(self.exec))
            .finish(audit.take().draws);
        ppdp_audit::record_release(&release);
        Ok(SocialReport {
            sanitized,
            plan,
            privacy_accuracy_before: before,
            privacy_accuracy_after: after,
            utility_accuracy_after: utility,
            telemetry: rec.take(),
            release,
        })
    }
}

/// Chapter 4 pipeline: per-user latent-privacy optimization. Thin wrapper
/// over [`ppdp_tradeoff`] kept here so the examples read top-down; see that
/// crate for the full API.
pub use ppdp_tradeoff::optimize::{optimize_attribute_strategy, select_vulnerable_links};

/// Chapter 4 pipeline entry point: re-exported optimizer plus profile and
/// strategy builders.
pub struct LatentPublisher;

/// Outcome of a [`LatentPublisher`] run.
#[derive(Debug, Clone)]
pub struct LatentReport {
    /// The optimized per-attribute publishing strategy.
    pub strategy: ppdp_tradeoff::AttributeStrategy,
    /// Latent-privacy objective value achieved by the strategy.
    pub privacy: f64,
    /// Telemetry recorded during the optimization (greedy solver counters).
    pub telemetry: RunReport,
    /// Lineage record of the published strategy.
    pub release: ReleaseRecord,
}

impl LatentPublisher {
    /// Optimizes an attribute strategy for one user; see
    /// [`ppdp_tradeoff::optimize::optimize_attribute_strategy`].
    ///
    /// # Errors
    /// Propagates the optimizer's boundary validation — an infeasible
    /// initial strategy, a mismatched profile, or a degenerate `δ`.
    pub fn optimize(
        profile: &ppdp_tradeoff::Profile,
        initial: &ppdp_tradeoff::AttributeStrategy,
        predictions: &[Vec<f64>],
        delta: f64,
    ) -> Result<LatentReport> {
        Self::optimize_with(ExecPolicy::Sequential, profile, initial, predictions, delta)
    }

    /// [`LatentPublisher::optimize`] with an explicit execution policy for
    /// the coordinate-ascent candidate scoring; the optimized strategy and
    /// privacy value are identical for every policy and thread count.
    ///
    /// # Errors
    /// Same conditions as [`LatentPublisher::optimize`].
    pub fn optimize_with(
        exec: ExecPolicy,
        profile: &ppdp_tradeoff::Profile,
        initial: &ppdp_tradeoff::AttributeStrategy,
        predictions: &[Vec<f64>],
        delta: f64,
    ) -> Result<LatentReport> {
        let rec = Recorder::new();
        let scope = rec.enter();
        let audit = AuditSink::new();
        let audit_scope = audit.enter();
        let span = ppdp_telemetry::span("latent.optimize");
        exec.record_threads();
        let started = std::time::Instant::now();
        let (strategy, privacy) = ppdp_tradeoff::optimize_attribute_strategy_with(
            exec,
            profile,
            initial,
            predictions,
            ppdp_tradeoff::hamming_disparity,
            ppdp_tradeoff::OptimizeConfig {
                delta,
                ..Default::default()
            },
        )?;
        record_phase_ms("optimize", started);
        drop(span);
        drop(audit_scope);
        drop(scope);
        // Debug-formatted f64s print their shortest round-trip form, so
        // the digest is bit-faithful to the inputs.
        let input = format!("{profile:?}|{initial:?}|{predictions:?}");
        let release = ReleaseBuilder::new("latent.optimize", "coordinate_ascent")
            .param("delta", delta)
            .input_digest(fnv1a(input.as_bytes()))
            .exec(&exec_fp(exec))
            .finish(audit.take().draws);
        ppdp_audit::record_release(&release);
        Ok(LatentReport {
            strategy,
            privacy,
            telemetry: rec.take(),
            release,
        })
    }
}

/// Chapter 5 pipeline: genome publishing with `δ-privacy` against a
/// belief-propagation attacker.
#[derive(Debug, Clone)]
pub struct GenomePublisher<'c> {
    catalog: &'c GwasCatalog,
    delta: f64,
    max_removals: usize,
    predictor: Predictor,
    exec: ExecPolicy,
}

impl<'c> GenomePublisher<'c> {
    /// Pipeline over `catalog` defending at privacy threshold `delta`.
    pub fn new(catalog: &'c GwasCatalog, delta: f64) -> Self {
        Self {
            catalog,
            delta,
            max_removals: usize::MAX,
            predictor: Predictor::BeliefPropagation(BpConfig::default()),
            exec: ExecPolicy::Sequential,
        }
    }

    /// Sets the execution policy for the greedy sanitizer's per-candidate
    /// marginal-gain evaluations. The removal sequence and report are
    /// bitwise identical for every policy and thread count.
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Caps the number of SNPs the sanitizer may hide.
    pub fn max_removals(mut self, n: usize) -> Self {
        self.max_removals = n;
        self
    }

    /// Defends against the Naive Bayes attacker instead of BP.
    pub fn against_naive_bayes(mut self) -> Self {
        self.predictor = Predictor::NaiveBayes;
        self
    }

    /// Overrides the belief-propagation attacker configuration: the
    /// iteration budget and tolerance, damping, restart ladder and tile
    /// size. The greedy search runs on the incremental engine under the
    /// scheduling fields of `cfg`; graphs that engine cannot represent
    /// (hub traits of degree ≳ 1100) run on [`BpConfig::run`] under all of
    /// them.
    pub fn bp_config(mut self, cfg: BpConfig) -> Self {
        self.predictor = Predictor::BeliefPropagation(cfg);
        self
    }

    /// Seals the lineage record for one sanitize run; the input digest
    /// reuses the checkpoint key's canonical encoding of (catalog,
    /// evidence, targets, δ, cap), so the release identity and the
    /// durable resume identity can never disagree about the inputs.
    fn seal_release(
        &self,
        evidence: &Evidence,
        targets: &[Target],
        draws: Vec<ppdp_audit::DrawRecord>,
    ) -> ReleaseRecord {
        let input = sanitize_checkpoint_key(
            "audit",
            self.catalog,
            evidence,
            targets,
            self.delta,
            self.max_removals,
        )
        .input_digest;
        let release = ReleaseBuilder::new("genome.publish", "greedy_sanitize")
            .param("delta", self.delta)
            .param("max_removals", self.max_removals)
            .param("predictor", format!("{:?}", self.predictor))
            .input_digest(input)
            .exec(&exec_fp(self.exec))
            .finish(draws);
        ppdp_audit::record_release(&release);
        release
    }

    /// Sanitizes `evidence` so that every `target` reaches `δ`-privacy;
    /// returns the evidence actually safe to release, the greedy outcome,
    /// and the telemetry of the run (BP sweeps, removals, timings).
    ///
    /// Against the BP attacker the greedy search runs on the incremental
    /// BP engine, the path [`GenomePublisher::publish_resumable`] takes
    /// without a journal: the factor graph and the attacker's baseline are
    /// built once, each candidate probe is a journaled trial that is
    /// rolled back, and the search stops before the first round after
    /// every target reaches `δ`. The picks are those of
    /// [`ppdp_genomic::greedy_sanitize_with`]; privacy levels agree with
    /// it to within the BP tolerance. The engine's messages are
    /// linear-domain; when they need repair (a hub whose message product
    /// underflows), the search reruns as `greedy_sanitize_with` on the
    /// log-domain kernel and the outcome is that function's, bit for bit.
    /// The Naive Bayes attacker always runs on `greedy_sanitize_with`.
    ///
    /// Back-to-back publishes on one thread reuse the thread-local BP
    /// message arenas ([`ppdp_genomic::BpScratch`]) of the baseline
    /// inference: after the first run, it performs no message-buffer
    /// allocations (asserted flat by the arena-reuse gate in
    /// `tests/arena.rs`).
    ///
    /// # Errors
    /// Returns [`ppdp_errors::PpdpError::InvalidInput`] for a corrupt
    /// catalog, evidence referencing unknown SNPs/traits, or a `δ`
    /// threshold that is not finite.
    pub fn publish(&self, evidence: &Evidence, targets: &[Target]) -> Result<GenomeReport> {
        self.sanitize_and_seal(evidence, targets, || match self.predictor {
            Predictor::NaiveBayes => greedy_sanitize_with(
                self.exec,
                self.catalog,
                evidence,
                targets,
                self.delta,
                self.max_removals,
                self.predictor,
            ),
            Predictor::BeliefPropagation(cfg) => greedy_sanitize_incremental(
                self.exec,
                self.catalog,
                evidence,
                targets,
                self.delta,
                self.max_removals,
                cfg,
            ),
        })
    }

    /// [`GenomePublisher::publish`] with crash-safe checkpointing: every
    /// greedy pick is journaled to `store` (fsync + atomic rename) as it
    /// commits, and a rerun with the same `store`, `run_label`, and inputs
    /// resumes from the journal instead of re-evaluating finished picks.
    /// The resumed report is bitwise identical to an uninterrupted run —
    /// the journal replays through the same `commit` path the solver uses,
    /// and trial rollback in the incremental BP engine is exact. A run on
    /// a fresh store returns the same report as `publish` (BP attacker).
    ///
    /// A journal written for *different* inputs (catalog, evidence,
    /// targets, δ, or removal cap) never matches the checkpoint key and
    /// degrades to a cold start; so does a corrupt or truncated snapshot.
    /// Warm thread-local message arenas (reused across earlier publishes
    /// on the same thread) do not perturb this: arena `clear`/`resize`
    /// re-initialization is value-identical to fresh allocation, so
    /// resumed and uninterrupted runs stay bitwise equal either way.
    ///
    /// # Errors
    /// As [`GenomePublisher::publish`], plus [`ppdp_errors::PpdpError::InvalidInput`]
    /// when the configured predictor is Naive Bayes, or when the graph
    /// needs the log-domain fallback — only the incremental BP sanitizer
    /// journals its picks.
    pub fn publish_resumable(
        &self,
        evidence: &Evidence,
        targets: &[Target],
        store: &CheckpointStore,
        run_label: &str,
    ) -> Result<GenomeReport> {
        self.sanitize_and_seal(evidence, targets, || {
            let Predictor::BeliefPropagation(cfg) = self.predictor else {
                return Err(ppdp_errors::PpdpError::invalid_input(
                    "publish_resumable requires the belief-propagation predictor; \
                     the Naive Bayes sanitizer has no pick journal",
                ));
            };
            greedy_sanitize_checkpointed(
                self.exec,
                self.catalog,
                evidence,
                targets,
                self.delta,
                self.max_removals,
                cfg,
                store,
                run_label,
            )
        })
    }

    /// The body both publish methods share: runs `sanitize` under the
    /// run's telemetry and audit scopes, drops the removed SNPs from the
    /// evidence, and seals the release.
    fn sanitize_and_seal(
        &self,
        evidence: &Evidence,
        targets: &[Target],
        sanitize: impl FnOnce() -> Result<SanitizeOutcome>,
    ) -> Result<GenomeReport> {
        ensure(
            self.delta.is_finite(),
            format!("privacy threshold δ must be finite, got {}", self.delta),
        )?;
        let rec = Recorder::new();
        let scope = rec.enter();
        let audit = AuditSink::new();
        let audit_scope = audit.enter();
        let span = ppdp_telemetry::span("genome.publish");
        self.exec.record_threads();
        let started = std::time::Instant::now();
        let outcome = sanitize()?;
        record_phase_ms("sanitize", started);
        let mut released = evidence.clone();
        for s in &outcome.removed {
            released.snps.remove(s);
        }
        drop(span);
        drop(audit_scope);
        drop(scope);
        let release = self.seal_release(evidence, targets, audit.take().draws);
        Ok(GenomeReport {
            released,
            outcome,
            telemetry: rec.take(),
            release,
        })
    }
}

/// Outcome of a [`GenomePublisher`] run.
#[derive(Debug, Clone)]
pub struct GenomeReport {
    /// The evidence that remains safe to release after sanitization.
    pub released: Evidence,
    /// The greedy sanitizer's trajectory (removed SNPs, privacy history).
    pub outcome: SanitizeOutcome,
    /// Telemetry recorded during the run (BP iterations, residuals,
    /// per-candidate evaluation spans).
    pub telemetry: RunReport,
    /// Lineage record of the released evidence. A resumed run seals the
    /// same record as an uninterrupted one (same inputs, same id).
    pub release: ReleaseRecord,
}

/// Differential-privacy pipeline: synthetic publishing of categorical
/// microdata via a noisy low-dimensional (Bayesian-network) approximation.
#[derive(Debug, Clone, Copy)]
pub struct DpPublisher {
    /// Total ε for the release.
    pub epsilon: f64,
    /// Bayesian-network degree (marginal dimensionality − 1).
    pub degree: usize,
    exec: ExecPolicy,
    private_structure: bool,
}

impl DpPublisher {
    /// Pipeline with the given budget and network degree.
    pub fn new(epsilon: f64, degree: usize) -> Self {
        Self {
            epsilon,
            degree,
            private_structure: false,
            exec: ExecPolicy::Sequential,
        }
    }

    /// Sets the execution policy for the sampling phase. Records are drawn
    /// from per-record split seeds, so the synthetic table is bitwise
    /// identical for every policy and thread count.
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Selects network structure with the exponential mechanism
    /// ([`ppdp_dp::BayesNet::fit_private_structure`]): half the budget
    /// goes to structure picks, half to the conditionals. The structure
    /// draws pay out of a reserved share without individual ledger
    /// entries, so they surface in the release record as off-ledger
    /// draws (lint-exempt, but part of the composed ε).
    pub fn private_structure(mut self) -> Self {
        self.private_structure = true;
        self
    }

    /// Fits the noisy network and samples `n` synthetic records.
    ///
    /// The attached [`DpReport::telemetry`] includes every ε draw of the
    /// fit's [`ppdp_dp::BudgetLedger`]; the draws sum to the configured
    /// total budget.
    ///
    /// # Errors
    /// Returns [`ppdp_errors::PpdpError::InvalidInput`] for a non-positive
    /// or non-finite ε or an empty schema, and
    /// [`ppdp_errors::PpdpError::BudgetExhausted`] if the fit attempts to
    /// overdraw its ledger.
    pub fn publish(&self, table: &ppdp_dp::Table, n: usize, seed: u64) -> Result<DpReport> {
        let rec = Recorder::new();
        let scope = rec.enter();
        let audit = AuditSink::new();
        let audit_scope = audit.enter();
        let span = ppdp_telemetry::span("dp.publish");
        self.exec.record_threads();
        let input_digest = table_input_digest(table);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = {
            let _phase = ppdp_telemetry::span("fit");
            let started = std::time::Instant::now();
            let cfg = ppdp_dp::SynthesisConfig {
                degree: self.degree,
                epsilon: self.epsilon,
            };
            let net = if self.private_structure {
                ppdp_dp::BayesNet::fit_private_structure(&mut rng, table, cfg)
            } else {
                ppdp_dp::BayesNet::fit(&mut rng, table, cfg)
            }?;
            record_phase_ms("fit", started);
            net
        };
        let table = {
            let _phase = ppdp_telemetry::span("sample");
            let started = std::time::Instant::now();
            // Per-record split seeds (derived from the run seed after the
            // fit consumed its draws) keep the table a pure function of
            // `(table, ε, degree, seed, n)` under any execution policy.
            let sample_seed = rng.gen::<u64>();
            let table = net.sample_with(self.exec, sample_seed, n);
            record_phase_ms("sample", started);
            table
        };
        drop(span);
        drop(audit_scope);
        drop(scope);
        let release = self
            .release_builder(n, seed)
            .input_digest(input_digest)
            .exec(&exec_fp(self.exec))
            .finish(audit.take().draws);
        ppdp_audit::record_release(&release);
        Ok(DpReport {
            table,
            telemetry: rec.take(),
            release,
        })
    }

    /// The release query this publisher answers: PrivBayes synthesis at
    /// `(ε, degree)` of `n` records under `seed`. Shared by
    /// [`DpPublisher::publish`] and the cache probe so their query
    /// fingerprints can never drift apart.
    fn release_builder(&self, n: usize, seed: u64) -> ReleaseBuilder {
        ReleaseBuilder::new("dp.publish", "privbayes")
            .param("epsilon", self.epsilon)
            .param("degree", self.degree)
            .param(
                "structure",
                if self.private_structure {
                    "exponential"
                } else {
                    "greedy_mi"
                },
            )
            .param("n", n)
            .param("seed", seed)
    }

    /// [`DpPublisher::publish`] through a [`ReleaseCache`]: if the same
    /// query (ε, degree, n, seed) was already answered over the same
    /// input table, the cached synthetic table and its lineage record
    /// are returned **without spending any ε** — republishing is
    /// post-processing. A miss publishes normally and populates the
    /// cache.
    ///
    /// # Errors
    /// As [`DpPublisher::publish`] (misses only; a hit cannot fail).
    pub fn publish_cached(
        &self,
        table: &ppdp_dp::Table,
        n: usize,
        seed: u64,
        cache: &mut ReleaseCache<ppdp_dp::Table>,
    ) -> Result<DpReport> {
        let qf = self.release_builder(n, seed).query_fingerprint();
        let input_digest = table_input_digest(table);
        if let Some((record, synthetic)) = cache.lookup(qf, input_digest) {
            return Ok(DpReport {
                table: synthetic.clone(),
                telemetry: RunReport::default(),
                release: record.clone(),
            });
        }
        let report = self.publish(table, n, seed)?;
        cache.insert(report.release.clone(), report.table.clone());
        Ok(report)
    }
}

/// Outcome of a [`DpPublisher`] run.
#[derive(Debug, Clone)]
pub struct DpReport {
    /// The synthetic table sampled from the noisy network.
    pub table: ppdp_dp::Table,
    /// Telemetry recorded during the run; `telemetry.budget` holds one
    /// entry per ε draw and `telemetry.total_epsilon()` equals the
    /// configured budget. Empty on a [`DpPublisher::publish_cached`] hit
    /// (nothing ran, nothing was spent).
    pub telemetry: RunReport,
    /// Lineage record of the release: every CPD ledger draw (with
    /// call-site provenance) plus the off-ledger structure-selection
    /// draws.
    pub release: ReleaseRecord,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdp_datagen::genomes::amd_like;
    use ppdp_datagen::gwas::synthetic_catalog;
    use ppdp_datagen::microdata::correlated_microdata;
    use ppdp_datagen::social::caltech_like;
    use ppdp_genomic::TraitId;

    #[test]
    fn social_pipeline_reduces_privacy_accuracy() {
        let data = caltech_like(42);
        let report = SocialPublisher::new(&data)
            .generalization_level(2)
            .publish(7)
            .unwrap();
        assert!(
            report.privacy_accuracy_after <= report.privacy_accuracy_before + 1e-9,
            "{} → {}",
            report.privacy_accuracy_before,
            report.privacy_accuracy_after
        );
        assert!(report.utility_accuracy_after > 0.0);
    }

    #[test]
    fn genome_pipeline_releases_sanitized_evidence() {
        let catalog = synthetic_catalog(60, 5, 2, 11);
        let panel = amd_like(&catalog, TraitId(0), 10, 10, 11);
        let evidence = panel.full_evidence(0);
        let targets = [Target::Trait(TraitId(0)), Target::Trait(TraitId(1))];
        let report = GenomePublisher::new(&catalog, 0.6)
            .publish(&evidence, &targets)
            .unwrap();
        let (released, outcome) = (&report.released, &report.outcome);
        assert_eq!(
            evidence.snps.len(),
            released.snps.len() + outcome.removed.len()
        );
        for s in &outcome.removed {
            assert!(!released.snps.contains_key(s), "removed SNP still released");
        }
        assert!(
            report.telemetry.counter("bp.iterations") > 0,
            "BP ran under the recorder"
        );
    }

    #[test]
    fn genome_resumable_matches_plain_and_resumes_from_journal() {
        let catalog = synthetic_catalog(60, 5, 2, 11);
        let panel = amd_like(&catalog, TraitId(0), 10, 10, 11);
        let evidence = panel.full_evidence(0);
        let targets = [Target::Trait(TraitId(0)), Target::Trait(TraitId(1))];
        // δ high enough that the search must pick: a run whose evidence is
        // already δ-private stops before its first round and journals
        // nothing.
        let publisher = GenomePublisher::new(&catalog, 0.9999).max_removals(4);
        let plain = publisher.publish(&evidence, &targets).unwrap();

        let dir = std::env::temp_dir().join(format!("ppdp-core-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ppdp_durable::CheckpointStore::open(&dir).unwrap();
        let first = publisher
            .publish_resumable(&evidence, &targets, &store, "core-test")
            .unwrap();
        assert_eq!(
            first.outcome, plain.outcome,
            "checkpointing must not change picks"
        );
        let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first.outcome.history), bits(&plain.outcome.history));
        assert_eq!(
            bits(&first.outcome.error_history),
            bits(&plain.outcome.error_history)
        );
        assert_eq!(first.released.snps, plain.released.snps);
        assert_eq!(first.release.id, plain.release.id);

        // A rerun against the same store replays the full journal instead
        // of re-running the greedy search, and lands on the same report.
        let second = publisher
            .publish_resumable(&evidence, &targets, &store, "core-test")
            .unwrap();
        assert_eq!(second.outcome, plain.outcome);
        // The journal holds every greedy pick, and the search stops at δ,
        // so those picks are outcome.removed: run 2 must resume exactly
        // the picks run 1 saved, and save nothing new.
        let saved = first.telemetry.counter("sanitize.checkpoint.saved");
        assert!(saved > 0, "first run must journal its picks");
        assert_eq!(saved, first.outcome.removed.len() as u64);
        assert_eq!(
            second
                .telemetry
                .counter("sanitize.checkpoint.resumed_picks"),
            saved,
            "second run must resume every journaled pick"
        );
        assert_eq!(second.telemetry.counter("sanitize.checkpoint.saved"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn genome_publish_stops_the_greedy_at_delta() {
        let catalog = synthetic_catalog(60, 5, 2, 11);
        let panel = amd_like(&catalog, TraitId(0), 10, 10, 11);
        let evidence = panel.full_evidence(0);
        let targets = [Target::Trait(TraitId(0)), Target::Trait(TraitId(1))];
        let n = ppdp_genomic::sanitize::candidate_snps(&catalog, &evidence, &targets).len() as u64;
        // Probes of `rounds` full greedy rounds, plus the base evaluation.
        let evaluations = |rounds: u64| 1 + (0..rounds).map(|r| n - r).sum::<u64>();
        let publish = |delta: f64| {
            GenomePublisher::new(&catalog, delta)
                .max_removals(4)
                .publish(&evidence, &targets)
                .unwrap()
        };

        // δ above every level: all four rounds run.
        let full = publish(2.0);
        let history = &full.outcome.history;
        assert_eq!(full.outcome.removed.len(), 4);
        assert_eq!(
            full.telemetry.counter("greedy.cardinality.evaluations"),
            evaluations(4)
        );

        // δ at the level the first new maximum reaches: the search stops
        // right after that pick, and no later round is evaluated.
        let j = (1..history.len())
            .find(|&j| history[..j].iter().all(|&h| h < history[j]))
            .expect("the greedy raises the privacy level");
        let stopped = publish(history[j]);
        assert!(stopped.outcome.satisfied);
        assert_eq!(stopped.outcome.removed, full.outcome.removed[..j]);
        assert_eq!(stopped.outcome.history, history[..=j]);
        assert_eq!(
            stopped.telemetry.counter("greedy.cardinality.evaluations"),
            evaluations(j as u64)
        );

        // δ met by the evidence as released: no round at all.
        let at_start = publish(history[0]);
        assert!(at_start.outcome.satisfied);
        assert!(at_start.outcome.removed.is_empty());
        assert_eq!(
            at_start.telemetry.counter("greedy.cardinality.evaluations"),
            1
        );
    }

    #[test]
    fn genome_resumable_rejects_naive_bayes_predictor() {
        let catalog = synthetic_catalog(60, 5, 2, 11);
        let dir = std::env::temp_dir().join(format!("ppdp-core-resume-nb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ppdp_durable::CheckpointStore::open(&dir).unwrap();
        // A degree-1200 hub underflows the incremental engine's linear
        // messages; its log-domain fallback has no pick journal either.
        let mut hub = GwasCatalog::new(1200);
        let t = hub.add_trait("hub", 0.3);
        for s in 0..1200 {
            hub.associate(
                ppdp_genomic::SnpId(s),
                t,
                1.2 + 0.3 * (s % 7) as f64 / 7.0,
                0.2,
            );
        }
        for publisher in [
            GenomePublisher::new(&catalog, 0.6).against_naive_bayes(),
            GenomePublisher::new(&hub, 0.6),
        ] {
            let err = publisher
                .publish_resumable(
                    &Evidence::none(),
                    &[Target::Trait(TraitId(0))],
                    &store,
                    "nb",
                )
                .unwrap_err();
            assert_eq!(err.kind(), "invalid_input");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelines_reject_bad_boundary_inputs_with_typed_errors() {
        let data = caltech_like(42);
        let err = SocialPublisher::new(&data)
            .known_fraction(1.5)
            .publish(7)
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_input");
        let err = SocialPublisher::new(&data)
            .evidence_mix(0.0, 0.0)
            .publish(7)
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_input");

        let catalog = synthetic_catalog(60, 5, 2, 3);
        let err = GenomePublisher::new(&catalog, f64::NAN)
            .publish(&Evidence::none(), &[Target::Trait(TraitId(0))])
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_input");

        let t = correlated_microdata(50, 3, 2, 0.5, 5);
        let err = DpPublisher::new(-1.0, 1).publish(&t, 10, 6).unwrap_err();
        assert_eq!(err.kind(), "invalid_input");
    }

    #[test]
    fn dp_pipeline_produces_same_schema() {
        let t = correlated_microdata(500, 4, 3, 0.8, 5);
        let report = DpPublisher::new(5.0, 1).publish(&t, 300, 6).unwrap();
        let synth = &report.table;
        assert_eq!(synth.n_cols(), 4);
        assert_eq!(synth.n_rows(), 300);
        assert_eq!(synth.arities(), t.arities());
        assert!(
            (report.telemetry.total_epsilon() - 5.0).abs() < 1e-9,
            "ledger draws must sum to the configured ε: {:?}",
            report.telemetry.budget
        );
    }
}
