//! Warm-start, residual-scheduled belief propagation — the incremental
//! inference engine behind the delta oracles of `ppdp-opt`.
//!
//! [`crate::bp`] answers one query by sweeping every message until the whole
//! graph converges. Greedy sanitization asks thousands of *slightly
//! perturbed* queries — each candidate toggles one SNP's evidence — so
//! re-running full BP repeats almost all of that work. [`IncrementalBp`]
//! keeps the converged messages alive between queries and, after an
//! evidence edit, re-propagates only where something actually changed:
//!
//! * **Dirty set.** Editing a variable's evidence bumps the *residual* of
//!   every adjacent factor to 1.0. A factor's residual is an upper bound on
//!   how stale its outgoing messages are; converged factors sit at 0.
//! * **Residual schedule.** Factors are recomputed highest-residual first
//!   (a lazy max-heap with stale-entry skipping; ties break toward the
//!   lower factor index, so the order is a pure function of the state).
//!   Recomputing factor `f` zeroes its residual and bumps each neighbour by
//!   the observed outgoing-message change, so updates chase the wavefront
//!   of actual change and stop when every residual falls below tolerance.
//! * **Seed fan-out.** The first pass over the dirty set is a Jacobi
//!   half-sweep: the pending updates are pure reads of the current
//!   messages, so they fan out under the configured [`ExecPolicy`] and are
//!   applied in index order — `Sequential` and `Parallel { .. }` produce
//!   bitwise-identical states. The subsequent priority loop is inherently
//!   sequential (each update feeds the next) and policy-independent.
//! * **Trials.** [`IncrementalBp::begin_trial`] opens a journal that
//!   records the first-touch value of everything mutated after it —
//!   evidence, potentials, messages, residuals. `rollback_trial` restores
//!   the exact pre-trial state (bitwise), which is what lets a greedy
//!   oracle score a candidate and walk away without paying for a rebuild.
//! * **Strict mode.** [`IncrementalBp::full_recompute`] resets every
//!   message and replays from scratch through the same schedule — the
//!   reference the equivalence tests (and doubting callers) compare
//!   against.
//!
//! Messages live in linear probability space, normalized per hop, with the
//! `checked3_flag` corruption repair and linear damping. That keeps a
//! probe cheap — no `exp`/`ln` per message — but the incoming product at
//! a variable of degree ≳ 1000 underflows: the engine then repairs
//! messages and reports [`IncrementalBp::is_clean`] `false`, where the
//! log-domain kernels of [`BpConfig::run`] stay exact. Callers that can
//! meet such hubs check the flag and fall back to full log-domain BP (the
//! greedy sanitizer does). On clean graphs the engine reaches the same
//! fixed point as [`BpConfig::run`] to within the scheduling tolerance
//! (see `schedule_tol`); `tests/kernels.rs` uses it as the linear oracle
//! of the log kernel.

use crate::bp::{indicator3, BpConfig, PAR_MIN_FACTORS};
use crate::factor_graph::FactorGraph;
use crate::model::Genotype;
use ppdp_errors::{ensure, Result};
use ppdp_exec::ExecPolicy;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One worklist entry: a factor (`idx < n_factors`) or kin factor
/// (`idx - n_factors`) whose residual was `res` when the entry was pushed.
/// Entries are never removed on re-bump; a popped entry whose `res` no
/// longer matches the live residual is stale and skipped.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    res: f64,
    idx: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on residual; ties pop the lower index first so the
        // schedule is deterministic (total_cmp is a total order, so NaN
        // residuals — which the guards upstream should make impossible —
        // would still order consistently rather than poisoning the heap).
        self.res
            .total_cmp(&other.res)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A pending Jacobi update computed from the pre-pass state (pure read),
/// applied later in index order.
enum PendingUpdate {
    Assoc {
        to_s: [f64; 3],
        to_t: [f64; 2],
        d_s: f64,
        d_t: f64,
        ok: bool,
    },
    Kin {
        sides: [[f64; 3]; 2],
        d_parent: f64,
        d_child: f64,
        ok: bool,
    },
}

/// What one [`IncrementalBp::refresh`] (or [`IncrementalBp::full_recompute`])
/// did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshOutcome {
    /// Factor updates performed (each rewrites 2 messages).
    pub updates: u64,
    /// Messages rewritten: `2 × updates`, the same metric full BP reports
    /// as `bp.messages_updated`.
    pub messages_updated: u64,
    /// Whether every residual fell below the scheduling tolerance within
    /// the update budget (`max_iters × n_factors` — a full-BP-equivalent
    /// amount of work).
    pub converged: bool,
    /// False when any message needed corruption repair (the analogue of a
    /// full-BP attempt going unclean).
    pub clean: bool,
}

/// Belief propagation with persistent messages, evidence editing, residual
/// scheduling and journaled trials. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct IncrementalBp {
    g: FactorGraph,
    cfg: BpConfig,
    /// Residuals below this are considered converged. Tighter than
    /// `cfg.tol` because an unprocessed sub-threshold residual is error
    /// that full BP would have swept away; the margin keeps marginals
    /// within `cfg.tol` of the full-recompute answer on loopy graphs.
    schedule_tol: f64,
    snp_pot: Vec<[f64; 3]>,
    trait_pot: Vec<[f64; 2]>,
    f2s: Vec<[f64; 3]>,
    f2t: Vec<[f64; 2]>,
    k2s: Vec<[[f64; 3]; 2]>,
    /// Per-factor staleness bound: association factor `f` at `f`, kin
    /// factor `k` at `n_factors + k`.
    residual: Vec<f64>,
    heap: BinaryHeap<HeapEntry>,
    converged: bool,
    clean: bool,
    messages_updated: u64,
    // --- trial journal (first-touch snapshots) ---
    in_trial: bool,
    j_snps: Vec<(usize, Option<usize>, [f64; 3])>,
    j_snp_touched: Vec<bool>,
    j_traits: Vec<(usize, Option<bool>, [f64; 2])>,
    j_trait_touched: Vec<bool>,
    j_factors: Vec<(usize, [f64; 3], [f64; 2])>,
    j_factor_touched: Vec<bool>,
    j_kins: Vec<(usize, [[f64; 3]; 2])>,
    j_kin_touched: Vec<bool>,
    j_residuals: Vec<(usize, f64)>,
    j_res_touched: Vec<bool>,
    j_converged: bool,
    j_clean: bool,
}

impl IncrementalBp {
    /// Wraps `g` in an incremental engine. Every factor starts dirty; call
    /// [`IncrementalBp::refresh`] once to reach the initial fixed point
    /// (equivalent to one full BP run) before reading marginals. Only the
    /// scheduling fields of `cfg` apply (`max_iters`, `tol`, `damping`,
    /// `exec`); the restart ladder and tiling belong to
    /// [`BpConfig::run`].
    pub fn new(g: FactorGraph, cfg: BpConfig) -> Self {
        let nf = g.factors.len();
        let nk = g.kin_factors.len();
        let snp_pot: Vec<[f64; 3]> = g
            .snp_evidence
            .iter()
            .map(|ev| match ev {
                Some(i) => indicator3(*i),
                None => [1.0; 3],
            })
            .collect();
        let trait_pot: Vec<[f64; 2]> = g
            .trait_evidence
            .iter()
            .enumerate()
            .map(|(t, ev)| match ev {
                Some(true) => [0.0, 1.0],
                Some(false) => [1.0, 0.0],
                None => g.trait_prior[t],
            })
            .collect();
        let residual = vec![1.0; nf + nk];
        let heap = (0..nf + nk)
            .map(|idx| HeapEntry { res: 1.0, idx })
            .collect();
        Self {
            schedule_tol: (cfg.tol * 1e-3).max(1e-300),
            snp_pot,
            trait_pot,
            f2s: vec![[1.0; 3]; nf],
            f2t: vec![[1.0; 2]; nf],
            k2s: vec![[[1.0; 3]; 2]; nk],
            residual,
            heap,
            converged: false,
            clean: true,
            messages_updated: 0,
            in_trial: false,
            j_snps: Vec::new(),
            j_snp_touched: vec![false; g.n_snps()],
            j_traits: Vec::new(),
            j_trait_touched: vec![false; g.n_traits()],
            j_factors: Vec::new(),
            j_factor_touched: vec![false; nf],
            j_kins: Vec::new(),
            j_kin_touched: vec![false; nk],
            j_residuals: Vec::new(),
            j_res_touched: vec![false; nf + nk],
            j_converged: false,
            j_clean: true,
            g,
            cfg,
        }
    }

    /// The wrapped graph (evidence fields reflect all edits so far).
    pub fn graph(&self) -> &FactorGraph {
        &self.g
    }

    /// Whether the last refresh drove every residual below tolerance.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// False once any message has needed corruption repair — the analogue
    /// of a degraded full-BP run; treat marginals as suspect.
    pub fn is_clean(&self) -> bool {
        self.clean
    }

    /// Lifetime total of messages rewritten (2 per factor update).
    pub fn messages_updated(&self) -> u64 {
        self.messages_updated
    }

    /// Whether a trial journal is currently open.
    pub fn in_trial(&self) -> bool {
        self.in_trial
    }

    /// Sets (or clears) the genotype evidence of local SNP variable `s` and
    /// marks the adjacent factors dirty. A no-op when the value is
    /// unchanged. Takes effect on the next [`IncrementalBp::refresh`].
    ///
    /// # Errors
    /// [`ppdp_errors::PpdpError::InvalidInput`] when `s` is out of range.
    pub fn set_snp_evidence(&mut self, s: usize, ev: Option<Genotype>) -> Result<()> {
        ensure(
            s < self.g.n_snps(),
            format_args!(
                "set_snp_evidence: variable {s} out of range (graph has {} SNPs)",
                self.g.n_snps()
            ),
        )?;
        let idx = ev.map(|g| g.index());
        if self.g.snp_evidence[s] == idx {
            return Ok(());
        }
        self.journal_snp(s);
        self.g.snp_evidence[s] = idx;
        self.snp_pot[s] = match idx {
            Some(i) => indicator3(i),
            None => [1.0; 3],
        };
        self.converged = false;
        let nf = self.g.factors.len();
        for i in 0..self.g.snp_factor_ids(s).len() {
            let f = self.g.snp_factor_ids(s)[i] as usize;
            self.bump(f, 1.0);
        }
        for i in 0..self.g.snp_kin_ids(s).len() {
            let k = self.g.snp_kin_ids(s)[i] as usize;
            self.bump(nf + k, 1.0);
        }
        Ok(())
    }

    /// Sets (or clears) the status evidence of local trait variable `t`;
    /// sibling of [`IncrementalBp::set_snp_evidence`].
    ///
    /// # Errors
    /// [`ppdp_errors::PpdpError::InvalidInput`] when `t` is out of range.
    pub fn set_trait_evidence(&mut self, t: usize, ev: Option<bool>) -> Result<()> {
        ensure(
            t < self.g.n_traits(),
            format_args!(
                "set_trait_evidence: variable {t} out of range (graph has {} traits)",
                self.g.n_traits()
            ),
        )?;
        if self.g.trait_evidence[t] == ev {
            return Ok(());
        }
        self.journal_trait(t);
        self.g.trait_evidence[t] = ev;
        self.trait_pot[t] = match ev {
            Some(true) => [0.0, 1.0],
            Some(false) => [1.0, 0.0],
            None => self.g.trait_prior[t],
        };
        self.converged = false;
        for i in 0..self.g.trait_factor_ids(t).len() {
            let f = self.g.trait_factor_ids(t)[i] as usize;
            self.bump(f, 1.0);
        }
        Ok(())
    }

    /// Propagates all pending dirt until every residual is below tolerance
    /// (or the `max_iters × n_factors` update budget runs out, reported as
    /// `converged: false`). Records the work as `bp.messages_updated` —
    /// the same telemetry metric full BP emits per sweep — so the two
    /// engines' costs are directly comparable. For the same reason the
    /// work is timed under the `bp.run` span name full BP uses, so span
    /// reports charge a refresh to the BP layer.
    pub fn refresh(&mut self) -> RefreshOutcome {
        let _span = ppdp_telemetry::span("bp.run");
        let nf = self.g.factors.len();
        let nk = self.g.kin_factors.len();
        let budget = (self.cfg.max_iters as u64).saturating_mul((nf + nk).max(1) as u64);
        let mut updates: u64 = 0;

        // Seed half-sweep: drain the worklist into a sorted dirty list and
        // fan the pending (pure) recomputes out under the exec policy.
        let mut dirty: Vec<usize> = Vec::new();
        while let Some(e) = self.heap.pop() {
            if e.res == self.residual[e.idx] && e.res >= self.schedule_tol {
                dirty.push(e.idx);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        let frontier = dirty.len() as u64;
        if !dirty.is_empty() {
            let exec = if dirty.len() >= PAR_MIN_FACTORS {
                self.cfg.exec
            } else {
                ExecPolicy::Sequential
            };
            let pending = {
                let this: &Self = self;
                exec.par_map(dirty.len(), |i| this.compute_update(dirty[i], nf))
            };
            // Apply every write first (Jacobi), then zero the processed
            // residuals, then bump neighbours — in that order, so a dirty
            // factor invalidated by another dirty factor's change re-enters
            // the worklist instead of being lost.
            for (&idx, upd) in dirty.iter().zip(&pending) {
                self.apply_update(idx, upd, nf);
                updates += 1;
            }
            for &idx in &dirty {
                self.journal_residual(idx);
                self.residual[idx] = 0.0;
            }
            for (&idx, upd) in dirty.iter().zip(&pending) {
                self.bump_neighbours(idx, upd, nf);
            }
        }

        // Gauss-Seidel priority loop: always recompute the stalest factor
        // next. Each update reads the freshest messages, so the wavefront
        // both propagates and dies out as fast as the graph allows.
        let mut drained = true;
        while let Some(e) = self.heap.pop() {
            if e.res != self.residual[e.idx] || e.res < self.schedule_tol {
                continue;
            }
            if updates >= budget {
                self.heap.push(e);
                drained = false;
                break;
            }
            let upd = self.compute_update(e.idx, nf);
            self.apply_update(e.idx, &upd, nf);
            self.journal_residual(e.idx);
            self.residual[e.idx] = 0.0;
            self.bump_neighbours(e.idx, &upd, nf);
            updates += 1;
        }

        self.converged = drained;
        let messages = 2 * updates;
        self.messages_updated += messages;
        ppdp_telemetry::counter("bp.messages_updated", messages);
        ppdp_telemetry::counter("bp.incremental.refreshes", 1);
        ppdp_trace::bp_refresh(frontier, updates, messages, self.converged);
        RefreshOutcome {
            updates,
            messages_updated: messages,
            converged: self.converged,
            clean: self.clean,
        }
    }

    /// Strict mode: forgets every message, marks the whole graph dirty and
    /// replays from scratch through the same schedule. Journaled like any
    /// other mutation, so it can run inside a trial.
    pub fn full_recompute(&mut self) -> RefreshOutcome {
        let nf = self.g.factors.len();
        let nk = self.g.kin_factors.len();
        for f in 0..nf {
            self.journal_factor(f);
            self.f2s[f] = [1.0; 3];
            self.f2t[f] = [1.0; 2];
        }
        for k in 0..nk {
            self.journal_kin(k);
            self.k2s[k] = [[1.0; 3]; 2];
        }
        self.heap.clear();
        for idx in 0..nf + nk {
            self.journal_residual(idx);
            self.residual[idx] = 1.0;
            self.heap.push(HeapEntry { res: 1.0, idx });
        }
        self.converged = false;
        self.refresh()
    }

    /// Posterior genotype distribution of local SNP `s` under the current
    /// messages — identical arithmetic (and fold order) to full BP's
    /// marginal stage.
    pub fn snp_marginal(&self, s: usize) -> [f64; 3] {
        checked3_flag(self.incoming_snp(s, None, None)).0
    }

    /// Posterior status distribution of local trait `t`.
    pub fn trait_marginal(&self, t: usize) -> [f64; 2] {
        checked2_flag(self.incoming_trait(t, None)).0
    }

    /// All SNP marginals (allocates; prefer the per-variable reads in
    /// oracle loops that only score a few targets).
    pub fn snp_marginals(&self) -> Vec<[f64; 3]> {
        (0..self.g.n_snps()).map(|s| self.snp_marginal(s)).collect()
    }

    /// All trait marginals.
    pub fn trait_marginals(&self) -> Vec<[f64; 2]> {
        (0..self.g.n_traits())
            .map(|t| self.trait_marginal(t))
            .collect()
    }

    /// Opens a trial: every subsequent mutation records its first-touch
    /// old value so [`IncrementalBp::rollback_trial`] can restore the
    /// exact current state.
    ///
    /// # Errors
    /// [`ppdp_errors::PpdpError::InvalidInput`] when a trial is already
    /// open (trials do not nest).
    pub fn begin_trial(&mut self) -> Result<()> {
        ensure(
            !self.in_trial,
            "begin_trial: a trial is already open (trials do not nest)",
        )?;
        self.in_trial = true;
        self.j_converged = self.converged;
        self.j_clean = self.clean;
        ppdp_trace::trial(ppdp_trace::TrialPhase::Begin, 0);
        Ok(())
    }

    /// Closes the trial keeping all its mutations.
    ///
    /// # Errors
    /// [`ppdp_errors::PpdpError::InvalidInput`] when no trial is open.
    pub fn commit_trial(&mut self) -> Result<()> {
        ensure(self.in_trial, "commit_trial: no trial is open")?;
        let entries = (self.j_snps.len()
            + self.j_traits.len()
            + self.j_factors.len()
            + self.j_kins.len()
            + self.j_residuals.len()) as u64;
        ppdp_trace::trial(ppdp_trace::TrialPhase::Commit, entries);
        for &(s, ..) in &self.j_snps {
            self.j_snp_touched[s] = false;
        }
        for &(t, ..) in &self.j_traits {
            self.j_trait_touched[t] = false;
        }
        for &(f, ..) in &self.j_factors {
            self.j_factor_touched[f] = false;
        }
        for &(k, _) in &self.j_kins {
            self.j_kin_touched[k] = false;
        }
        for &(i, _) in &self.j_residuals {
            self.j_res_touched[i] = false;
        }
        self.j_snps.clear();
        self.j_traits.clear();
        self.j_factors.clear();
        self.j_kins.clear();
        self.j_residuals.clear();
        self.in_trial = false;
        Ok(())
    }

    /// Closes the trial restoring the exact (bitwise) pre-trial state:
    /// evidence, potentials, messages, residuals, worklist and flags.
    ///
    /// # Errors
    /// [`ppdp_errors::PpdpError::InvalidInput`] when no trial is open.
    pub fn rollback_trial(&mut self) -> Result<()> {
        ensure(self.in_trial, "rollback_trial: no trial is open")?;
        let entries = (self.j_snps.len()
            + self.j_traits.len()
            + self.j_factors.len()
            + self.j_kins.len()
            + self.j_residuals.len()) as u64;
        ppdp_trace::trial(ppdp_trace::TrialPhase::Rollback, entries);
        // `drain` keeps each journal's capacity for the next trial.
        for (s, ev, pot) in self.j_snps.drain(..) {
            self.g.snp_evidence[s] = ev;
            self.snp_pot[s] = pot;
            self.j_snp_touched[s] = false;
        }
        for (t, ev, pot) in self.j_traits.drain(..) {
            self.g.trait_evidence[t] = ev;
            self.trait_pot[t] = pot;
            self.j_trait_touched[t] = false;
        }
        for (f, to_s, to_t) in self.j_factors.drain(..) {
            self.f2s[f] = to_s;
            self.f2t[f] = to_t;
            self.j_factor_touched[f] = false;
        }
        for (k, sides) in self.j_kins.drain(..) {
            self.k2s[k] = sides;
            self.j_kin_touched[k] = false;
        }
        for (i, r) in self.j_residuals.drain(..) {
            self.residual[i] = r;
            self.j_res_touched[i] = false;
        }
        // The worklist may hold trial-time entries; rebuild it from the
        // restored residuals (any sub-tolerance entry is irrelevant).
        self.heap.clear();
        for (idx, &res) in self.residual.iter().enumerate() {
            if res >= self.schedule_tol {
                self.heap.push(HeapEntry { res, idx });
            }
        }
        self.converged = self.j_converged;
        self.clean = self.j_clean;
        self.in_trial = false;
        Ok(())
    }

    // --- internals ---

    /// Incoming product at SNP `s` — potential × adjacent factor messages
    /// in adjacency order — excluding one association factor or kin factor.
    /// Mirrors `bp::run`'s `incoming` closure exactly.
    fn incoming_snp(&self, s: usize, skip_f: Option<usize>, skip_k: Option<usize>) -> [f64; 3] {
        let mut msg = self.snp_pot[s];
        for &f2 in self.g.snp_factor_ids(s) {
            let f2 = f2 as usize;
            if Some(f2) != skip_f {
                for (m, l) in msg.iter_mut().zip(&self.f2s[f2]) {
                    *m *= l;
                }
            }
        }
        for &k in self.g.snp_kin_ids(s) {
            let k = k as usize;
            if Some(k) != skip_k {
                let side = if self.g.kin_factors[k].parent == s {
                    0
                } else {
                    1
                };
                for (m, l) in msg.iter_mut().zip(&self.k2s[k][side]) {
                    *m *= l;
                }
            }
        }
        msg
    }

    /// Incoming product at trait `t`, excluding one association factor.
    fn incoming_trait(&self, t: usize, skip_f: Option<usize>) -> [f64; 2] {
        let mut msg = self.trait_pot[t];
        for &f2 in self.g.trait_factor_ids(t) {
            let f2 = f2 as usize;
            if Some(f2) != skip_f {
                for (m, l) in msg.iter_mut().zip(&self.f2t[f2]) {
                    *m *= l;
                }
            }
        }
        msg
    }

    /// Recomputes the outgoing messages of worklist slot `idx` from the
    /// *current* messages — a pure read, safe to fan out.
    fn compute_update(&self, idx: usize, nf: usize) -> PendingUpdate {
        if idx < nf {
            let fac = &self.g.factors[idx];
            let (s2f, ok_in_s) = checked3_flag(self.incoming_snp(fac.snp, Some(idx), None));
            let (t2f, ok_in_t) = checked2_flag(self.incoming_trait(fac.trait_idx, Some(idx)));
            let mut to_s = [0.0f64; 3];
            for (gi, row) in fac.table.iter().enumerate() {
                to_s[gi] = row[0] * t2f[0] + row[1] * t2f[1];
            }
            let (to_s, ok_s) = checked3_flag(to_s);
            let to_s = damp(to_s, self.f2s[idx], self.cfg.damping);
            let mut d_s = 0.0f64;
            for (new, old) in to_s.iter().zip(&self.f2s[idx]) {
                d_s = d_s.max((new - old).abs());
            }
            let mut to_t = [0.0f64; 2];
            for (t, slot) in to_t.iter_mut().enumerate() {
                *slot = (0..3).map(|gi| fac.table[gi][t] * s2f[gi]).sum();
            }
            let (to_t, ok_t) = checked2_flag(to_t);
            let to_t = damp(to_t, self.f2t[idx], self.cfg.damping);
            let mut d_t = 0.0f64;
            for (new, old) in to_t.iter().zip(&self.f2t[idx]) {
                d_t = d_t.max((new - old).abs());
            }
            PendingUpdate::Assoc {
                to_s,
                to_t,
                d_s,
                d_t,
                ok: ok_in_s && ok_in_t && ok_s && ok_t,
            }
        } else {
            let k = idx - nf;
            let kf = &self.g.kin_factors[k];
            let (from_parent, ok_p_in) = checked3_flag(self.incoming_snp(kf.parent, None, Some(k)));
            let (from_child, ok_c_in) = checked3_flag(self.incoming_snp(kf.child, None, Some(k)));
            // to child: Σ_p T[p][c] · μ_{parent→k}(p)
            let mut to_child = [0.0f64; 3];
            for (c, slot) in to_child.iter_mut().enumerate() {
                *slot = (0..3).map(|p| kf.table[p][c] * from_parent[p]).sum();
            }
            let (to_child, ok_c) = checked3_flag(to_child);
            let to_child = damp(to_child, self.k2s[k][1], self.cfg.damping);
            let mut d_child = 0.0f64;
            for (new, old) in to_child.iter().zip(&self.k2s[k][1]) {
                d_child = d_child.max((new - old).abs());
            }
            // to parent: Σ_c T[p][c] · μ_{child→k}(c)
            let mut to_parent = [0.0f64; 3];
            for (p, slot) in to_parent.iter_mut().enumerate() {
                *slot = (0..3).map(|c| kf.table[p][c] * from_child[c]).sum();
            }
            let (to_parent, ok_pp) = checked3_flag(to_parent);
            let to_parent = damp(to_parent, self.k2s[k][0], self.cfg.damping);
            let mut d_parent = 0.0f64;
            for (new, old) in to_parent.iter().zip(&self.k2s[k][0]) {
                d_parent = d_parent.max((new - old).abs());
            }
            PendingUpdate::Kin {
                sides: [to_parent, to_child],
                d_parent,
                d_child,
                ok: ok_p_in && ok_c_in && ok_c && ok_pp,
            }
        }
    }

    /// Writes a pending update's messages (journaled).
    fn apply_update(&mut self, idx: usize, upd: &PendingUpdate, nf: usize) {
        match upd {
            PendingUpdate::Assoc { to_s, to_t, ok, .. } => {
                self.journal_factor(idx);
                self.f2s[idx] = *to_s;
                self.f2t[idx] = *to_t;
                self.clean &= ok;
            }
            PendingUpdate::Kin { sides, ok, .. } => {
                let k = idx - nf;
                self.journal_kin(k);
                self.k2s[k] = *sides;
                self.clean &= ok;
            }
        }
    }

    /// Raises the residual of every neighbour that consumed a message this
    /// update changed, by the observed change magnitude.
    fn bump_neighbours(&mut self, idx: usize, upd: &PendingUpdate, nf: usize) {
        match upd {
            PendingUpdate::Assoc { d_s, d_t, .. } => {
                let (s, t) = {
                    let fac = &self.g.factors[idx];
                    (fac.snp, fac.trait_idx)
                };
                if *d_s > 0.0 {
                    for i in 0..self.g.snp_factor_ids(s).len() {
                        let f2 = self.g.snp_factor_ids(s)[i] as usize;
                        if f2 != idx {
                            self.bump(f2, *d_s);
                        }
                    }
                    for i in 0..self.g.snp_kin_ids(s).len() {
                        let k = self.g.snp_kin_ids(s)[i] as usize;
                        self.bump(nf + k, *d_s);
                    }
                }
                if *d_t > 0.0 {
                    for i in 0..self.g.trait_factor_ids(t).len() {
                        let f2 = self.g.trait_factor_ids(t)[i] as usize;
                        if f2 != idx {
                            self.bump(f2, *d_t);
                        }
                    }
                }
            }
            PendingUpdate::Kin {
                d_parent, d_child, ..
            } => {
                let k = idx - nf;
                let (parent, child) = {
                    let kf = &self.g.kin_factors[k];
                    (kf.parent, kf.child)
                };
                for (&s, &d) in [parent, child].iter().zip([d_parent, d_child]) {
                    if d > 0.0 {
                        for i in 0..self.g.snp_factor_ids(s).len() {
                            let f2 = self.g.snp_factor_ids(s)[i] as usize;
                            self.bump(f2, d);
                        }
                        for i in 0..self.g.snp_kin_ids(s).len() {
                            let k2 = self.g.snp_kin_ids(s)[i] as usize;
                            if k2 != k {
                                self.bump(nf + k2, d);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Raises `residual[idx]` to `amount` (if larger) and enqueues it.
    fn bump(&mut self, idx: usize, amount: f64) {
        if amount <= self.residual[idx] {
            return;
        }
        self.journal_residual(idx);
        self.residual[idx] = amount;
        if amount >= self.schedule_tol {
            self.heap.push(HeapEntry { res: amount, idx });
        }
    }

    fn journal_snp(&mut self, s: usize) {
        if self.in_trial && !self.j_snp_touched[s] {
            self.j_snp_touched[s] = true;
            self.j_snps
                .push((s, self.g.snp_evidence[s], self.snp_pot[s]));
        }
    }

    fn journal_trait(&mut self, t: usize) {
        if self.in_trial && !self.j_trait_touched[t] {
            self.j_trait_touched[t] = true;
            self.j_traits
                .push((t, self.g.trait_evidence[t], self.trait_pot[t]));
        }
    }

    fn journal_factor(&mut self, f: usize) {
        if self.in_trial && !self.j_factor_touched[f] {
            self.j_factor_touched[f] = true;
            self.j_factors.push((f, self.f2s[f], self.f2t[f]));
        }
    }

    fn journal_kin(&mut self, k: usize) {
        if self.in_trial && !self.j_kin_touched[k] {
            self.j_kin_touched[k] = true;
            self.j_kins.push((k, self.k2s[k]));
        }
    }

    fn journal_residual(&mut self, idx: usize) {
        if self.in_trial && !self.j_res_touched[idx] {
            self.j_res_touched[idx] = true;
            self.j_residuals.push((idx, self.residual[idx]));
        }
    }
}

/// Normalizes a 3-vector, first checking it for corruption: a NaN, Inf or
/// negative component, or an underflowed (non-positive) sum, bumps the
/// `bp.renormalized` counter and repairs the message to uniform so the
/// refresh can finish with finite values. Returns the message plus a
/// clean-flag (`false` = repaired); pure apart from the additive counter,
/// so it is safe to call from worker threads.
fn checked3_flag(mut v: [f64; 3]) -> ([f64; 3], bool) {
    let corrupt = v.iter().any(|x| !x.is_finite() || *x < 0.0);
    let z: f64 = v.iter().sum();
    if corrupt || !z.is_finite() || z <= 0.0 {
        ppdp_telemetry::counter("bp.renormalized", 1);
        return ([1.0 / 3.0; 3], false);
    }
    for x in &mut v {
        *x /= z;
    }
    (v, true)
}

/// 2-vector sibling of [`checked3_flag`].
fn checked2_flag(mut v: [f64; 2]) -> ([f64; 2], bool) {
    let corrupt = v.iter().any(|x| !x.is_finite() || *x < 0.0);
    let z: f64 = v.iter().sum();
    if corrupt || !z.is_finite() || z <= 0.0 {
        ppdp_telemetry::counter("bp.renormalized", 1);
        return ([0.5; 2], false);
    }
    for x in &mut v {
        *x /= z;
    }
    (v, true)
}

/// Linear damping: `d·old + (1−d)·new` per component (`new` when `d ≤ 0`).
fn damp<const N: usize>(new: [f64; N], old: [f64; N], d: f64) -> [f64; N] {
    if d <= 0.0 {
        return new;
    }
    let mut out = [0.0; N];
    for i in 0..N {
        out[i] = d * old[i] + (1.0 - d) * new[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor_graph::{figure_5_1_catalog, Evidence};
    use crate::model::{SnpId, TraitId};
    use crate::GwasCatalog;

    fn assert_close3(a: &[[f64; 3]], b: &[[f64; 3]], tol: f64, what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            for (u, v) in x.iter().zip(y) {
                assert!((u - v).abs() <= tol, "{what}[{i}]: {x:?} vs {y:?}");
            }
        }
    }

    fn assert_close2(a: &[[f64; 2]], b: &[[f64; 2]], tol: f64, what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            for (u, v) in x.iter().zip(y) {
                assert!((u - v).abs() <= tol, "{what}[{i}]: {x:?} vs {y:?}");
            }
        }
    }

    /// Full-BP reference for the engine's current evidence state.
    fn reference(g: &FactorGraph, cfg: &BpConfig) -> crate::bp::BpResult {
        cfg.run(g)
    }

    #[test]
    fn initial_refresh_matches_full_bp_on_tree() {
        let cat = figure_5_1_catalog();
        let ev = Evidence::none().with_snp(SnpId(0), Genotype::HomRisk);
        let g = FactorGraph::build(&cat, &ev).unwrap();
        let cfg = BpConfig::default();
        let full = reference(&g, &cfg);
        let mut inc = IncrementalBp::new(g, cfg);
        let out = inc.refresh();
        assert!(out.converged && out.clean);
        assert_close3(&inc.snp_marginals(), &full.snp_marginals, 1e-12, "snp");
        assert_close2(
            &inc.trait_marginals(),
            &full.trait_marginals,
            1e-12,
            "trait",
        );
    }

    #[test]
    fn evidence_edits_converge_to_full_bp_cheaply() {
        let cat = figure_5_1_catalog();
        let g = FactorGraph::build(&cat, &Evidence::none()).unwrap();
        let cfg = BpConfig::default();
        let mut inc = IncrementalBp::new(g, cfg);
        let first = inc.refresh();
        assert!(first.converged);

        inc.set_snp_evidence(0, Some(Genotype::HomRisk)).unwrap();
        let second = inc.refresh();
        assert!(second.converged);
        assert!(
            second.updates < first.updates,
            "touching one SNP must cost less than the initial solve \
             ({} vs {})",
            second.updates,
            first.updates
        );

        let ev = Evidence::none().with_snp(SnpId(0), Genotype::HomRisk);
        let full = reference(&FactorGraph::build(&cat, &ev).unwrap(), &cfg);
        assert_close2(&inc.trait_marginals(), &full.trait_marginals, 1e-12, "t");
        assert_close3(&inc.snp_marginals(), &full.snp_marginals, 1e-12, "s");
    }

    #[test]
    fn refresh_without_dirt_is_free() {
        let g = FactorGraph::build(&figure_5_1_catalog(), &Evidence::none()).unwrap();
        let mut inc = IncrementalBp::new(g, BpConfig::default());
        inc.refresh();
        let idle = inc.refresh();
        assert_eq!(idle.updates, 0);
        assert!(idle.converged);
        // Re-setting the same evidence value is also a no-op.
        inc.set_snp_evidence(1, None).unwrap();
        assert_eq!(inc.refresh().updates, 0);
    }

    #[test]
    fn trial_rollback_restores_state_bitwise() {
        let cat = figure_5_1_catalog();
        let ev = Evidence::none().with_trait(TraitId(1), true);
        let g = FactorGraph::build(&cat, &ev).unwrap();
        let mut inc = IncrementalBp::new(g, BpConfig::default());
        inc.refresh();
        let saved = inc.clone();

        inc.begin_trial().unwrap();
        inc.set_snp_evidence(2, Some(Genotype::Het)).unwrap();
        inc.set_trait_evidence(0, Some(false)).unwrap();
        inc.refresh();
        assert_ne!(saved.trait_marginals(), inc.trait_marginals());
        inc.rollback_trial().unwrap();

        assert_eq!(saved.g.snp_evidence, inc.g.snp_evidence);
        assert_eq!(saved.g.trait_evidence, inc.g.trait_evidence);
        assert_eq!(saved.snp_pot, inc.snp_pot);
        assert_eq!(saved.trait_pot, inc.trait_pot);
        assert_eq!(saved.f2s, inc.f2s);
        assert_eq!(saved.f2t, inc.f2t);
        assert_eq!(saved.k2s, inc.k2s);
        assert_eq!(saved.residual, inc.residual);
        assert_eq!(saved.converged, inc.converged);
        // And the restored engine keeps working normally.
        inc.set_snp_evidence(2, Some(Genotype::Het)).unwrap();
        inc.refresh();
        assert!(inc.converged());
    }

    #[test]
    fn trials_do_not_nest_and_must_be_open_to_close() {
        let g = FactorGraph::build(&figure_5_1_catalog(), &Evidence::none()).unwrap();
        let mut inc = IncrementalBp::new(g, BpConfig::default());
        assert!(inc.rollback_trial().is_err());
        assert!(inc.commit_trial().is_err());
        inc.begin_trial().unwrap();
        assert!(inc.begin_trial().is_err());
        inc.commit_trial().unwrap();
        assert!(!inc.in_trial());
    }

    #[test]
    fn commit_trial_keeps_the_edit() {
        let cat = figure_5_1_catalog();
        let g = FactorGraph::build(&cat, &Evidence::none()).unwrap();
        let cfg = BpConfig::default();
        let mut inc = IncrementalBp::new(g, cfg);
        inc.refresh();
        inc.begin_trial().unwrap();
        inc.set_snp_evidence(0, Some(Genotype::HomNonRisk)).unwrap();
        inc.refresh();
        inc.commit_trial().unwrap();

        let ev = Evidence::none().with_snp(SnpId(0), Genotype::HomNonRisk);
        let full = reference(&FactorGraph::build(&cat, &ev).unwrap(), &cfg);
        assert_close2(&inc.trait_marginals(), &full.trait_marginals, 1e-12, "t");
    }

    #[test]
    fn full_recompute_agrees_with_warm_start() {
        let cat = figure_5_1_catalog();
        let g = FactorGraph::build(&cat, &Evidence::none()).unwrap();
        let mut inc = IncrementalBp::new(g, BpConfig::default());
        inc.refresh();
        inc.set_snp_evidence(3, Some(Genotype::HomRisk)).unwrap();
        inc.refresh();
        let warm_s = inc.snp_marginals();
        let warm_t = inc.trait_marginals();
        let strict = inc.full_recompute();
        assert!(strict.converged);
        assert_close3(&inc.snp_marginals(), &warm_s, 1e-9, "snp");
        assert_close2(&inc.trait_marginals(), &warm_t, 1e-9, "trait");
    }

    /// Loopy + kin graph exercising the scheduler beyond trees, same shape
    /// as `bp::tests::wide_graph`.
    fn wide_graph() -> FactorGraph {
        let mut cat = GwasCatalog::with_table_5_3_traits(48);
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
            .with_trait(TraitId(1), true);
        let mut g = FactorGraph::build(&cat, &ev).unwrap();
        let mendel = [[0.9, 0.1, 0.0], [0.25, 0.5, 0.25], [0.0, 0.1, 0.9]];
        for (p, c) in [(0, 1), (2, 3), (4, 5)] {
            g.add_kin_factor(p, c, mendel).unwrap();
        }
        g
    }

    #[test]
    fn kin_edits_propagate_across_the_family_edge() {
        let g = wide_graph();
        let cfg = BpConfig::default();
        let mut inc = IncrementalBp::new(g.clone(), cfg);
        inc.refresh();
        let child_before = inc.snp_marginal(1);
        // Clamping the parent must move the child's marginal through the
        // kin factor.
        inc.set_snp_evidence(0, Some(Genotype::HomNonRisk)).unwrap();
        inc.refresh();
        let child_after = inc.snp_marginal(1);
        assert_ne!(child_before, child_after);

        let mut g2 = g;
        g2.snp_evidence[0] = Some(Genotype::HomNonRisk.index());
        let full = cfg.run(&g2);
        assert_close3(&inc.snp_marginals(), &full.snp_marginals, 1e-9, "snp");
        assert_close2(&inc.trait_marginals(), &full.trait_marginals, 1e-9, "t");
    }

    #[test]
    fn exec_policy_does_not_change_the_result_bitwise() {
        let g = wide_graph();
        let run = |exec| {
            let mut inc = IncrementalBp::new(
                g.clone(),
                BpConfig {
                    exec,
                    ..BpConfig::default()
                },
            );
            inc.refresh();
            inc.set_snp_evidence(7, Some(Genotype::Het)).unwrap();
            inc.set_trait_evidence(2, Some(true)).unwrap();
            inc.refresh();
            (inc.snp_marginals(), inc.trait_marginals(), inc.f2s, inc.f2t)
        };
        let seq = run(ExecPolicy::Sequential);
        for threads in [2, 4] {
            let par = run(ExecPolicy::parallel(threads));
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn random_dirty_sequences_track_full_recompute() {
        // Deterministic xorshift so the sequence is stable without any
        // clock or RNG dependency.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let g = wide_graph();
        let cfg = BpConfig::default();
        let mut inc = IncrementalBp::new(g.clone(), cfg);
        inc.refresh();
        let mut shadow = g;
        for step in 0..40 {
            let s = (next() % 48) as usize;
            let ev = match next() % 4 {
                0 => None,
                1 => Some(Genotype::HomNonRisk),
                2 => Some(Genotype::Het),
                _ => Some(Genotype::HomRisk),
            };
            inc.set_snp_evidence(s, ev).unwrap();
            shadow.snp_evidence[s] = ev.map(|g| g.index());
            inc.refresh();
            assert!(inc.converged(), "step {step} did not converge");
            let full = cfg.run(&shadow);
            assert_close3(&inc.snp_marginals(), &full.snp_marginals, 1e-9, "snp");
            assert_close2(&inc.trait_marginals(), &full.trait_marginals, 1e-9, "t");
        }
    }

    #[test]
    fn update_budget_exhaustion_reports_nonconvergence() {
        let g = wide_graph();
        let mut inc = IncrementalBp::new(
            g,
            BpConfig {
                max_iters: 0,
                ..BpConfig::default()
            },
        );
        let out = inc.refresh();
        assert!(!out.converged);
        assert!(!inc.converged());
        // Raising the budget later finishes the job from where it stopped.
        inc.cfg.max_iters = 100;
        let out = inc.refresh();
        assert!(out.converged);
    }

    #[test]
    fn out_of_range_edits_are_rejected() {
        let g = FactorGraph::build(&figure_5_1_catalog(), &Evidence::none()).unwrap();
        let mut inc = IncrementalBp::new(g, BpConfig::default());
        let msg = |r: Result<()>| r.unwrap_err().to_string();
        assert_eq!(
            msg(inc.set_snp_evidence(99, None)),
            "invalid input: set_snp_evidence: variable 99 out of range (graph has 5 SNPs)"
        );
        assert_eq!(
            msg(inc.set_trait_evidence(99, None)),
            "invalid input: set_trait_evidence: variable 99 out of range (graph has 3 traits)"
        );
    }

    #[test]
    fn refresh_records_message_telemetry() {
        let rec = ppdp_telemetry::Recorder::new();
        let g = FactorGraph::build(&figure_5_1_catalog(), &Evidence::none()).unwrap();
        let (out, total) = {
            let _scope = rec.enter();
            let mut inc = IncrementalBp::new(g, BpConfig::default());
            let out = inc.refresh();
            (out, inc.messages_updated())
        };
        let report = rec.take();
        assert_eq!(report.counter("bp.messages_updated"), out.messages_updated);
        assert_eq!(report.counter("bp.incremental.refreshes"), 1);
        assert_eq!(total, out.messages_updated);
        assert_eq!(out.messages_updated, 2 * out.updates);
    }
}
