//! Log-domain, flat-slice belief-propagation kernels: the message
//! arithmetic behind [`crate::BpConfig::run`].
//!
//! Sum-product BP in linear probability space multiplies
//! per-hop-normalized messages. At AMD scale (90 449 SNPs, hub variables
//! with thousands of incident factors) the *product of incoming messages
//! at one variable* underflows: normalized 3-vector messages have
//! components ≈ 0.3–0.5, so a degree-`d` product has components ≈
//! `0.5^d`, which reaches exact `0.0` near `d ≈ 1000` even though the
//! posterior is perfectly well defined. The kernels here run the same
//! fixed-point iteration (Eqs. 5.3–5.6) in log space:
//!
//! * messages are stored as logs, normalized so `logsumexp(msg) = 0`;
//! * products become sums; factor marginalization becomes
//!   [`lse2`]/[`lse3`] with max-subtraction stabilization, which never
//!   overflows and never returns `-inf` for finite inputs;
//! * every stored lane is clamped at [`LOG_FLOOR`] (= ln of ~1e-304,
//!   still above the subnormal range), which makes the cavity
//!   subtraction `total − own` branch-free: no `-inf − (-inf) = NaN`
//!   corner exists;
//! * the per-variable incoming *product* is computed once per sweep as a
//!   flat total (pass A), and each factor's cavity is recovered by
//!   subtracting its own branch (pass B), so a variable of degree `d`
//!   costs O(d) per sweep rather than O(d²);
//! * sweeps are scheduled over the CSR arenas in cache-sized blocks via
//!   [`ppdp_exec::ExecPolicy::par_fill`], with block-to-worker-lane
//!   affinity that is stable across rounds.
//!
//! `attempt` is the production kernel. Each association
//! factor's state is split over three planes — the hot SNP-side log lanes
//! that pass A gathers four factors at a time, a cold half with the
//! trait-side lanes and sweep bookkeeping, and a probability-space copy
//! of both messages — so its factor update runs in probability space
//! against the graph's own tables, floored at `exp(LOG_FLOOR)`. Pass B
//! reads only the pass-A totals and its own factor's previous slot, so
//! every plane is updated in place.
//!
//! `reference_attempt` is the scalar reference: per-factor log-sum-exp
//! updates with sequential gathers, reachable only through the hidden
//! [`crate::BpConfig::run_reference`] entry point. The differential
//! suite (`tests/kernels.rs`) and the `bench_scale` speedup gate compare
//! the two; they agree to ≲1e-12 per lane.
//!
//! Arenas live in a thread-local [`BpScratch`] (see [`with_scratch`]),
//! so repeated `publish` calls on one thread reuse their message buffers
//! instead of reallocating per BP run.

use crate::bp::{fold_flag, indicator3, Attempt, BpConfig, PAR_MIN_FACTORS};
use crate::factor_graph::{FactorGraph, KinFactor};
use ppdp_exec::ExecPolicy;
use std::cell::RefCell;

/// Lower clamp for stored log-message lanes: `exp(-700)` ≈ 9.9e-305 is
/// the smallest normal-range magnitude we keep, safely above f64's
/// subnormal threshold (`exp(-745)` ≈ 5e-324). Clamping here (rather
/// than at `-inf`) keeps the cavity subtraction `total − own` finite and
/// branch-free.
pub const LOG_FLOOR: f64 = -700.0;

/// `ln(1/3)`, the uniform 3-state log-message (bit-equal to
/// `(1.0f64 / 3.0).ln()`, asserted in the unit tests).
const LN_THIRD: f64 = -1.0986122886681098;

/// `ln(1/2)`, the uniform 2-state log-message.
const LN_HALF: f64 = -std::f64::consts::LN_2;

/// Factors per scheduling block: 4096 × 32-byte hot-plane slots ≈
/// 128 KiB per block, sized to stay resident in a core's private L2
/// across the read-modify-write of one sweep.
const BLOCK: usize = 4096;

/// Resolves the effective cache-tile size for the blocked kernel:
/// [`crate::BpConfig::tile`] when set (the differential suite sweeps
/// tile boundaries through it), otherwise the L2-sized [`BLOCK`].
fn tile_size(cfg: &BpConfig) -> usize {
    cfg.tile.unwrap_or(BLOCK).max(1)
}

/// Stable log-sum-exp of two values: `ln(e^a + e^b)` with the max
/// subtracted first. Never overflows; returns `-inf` only when both
/// inputs are `-inf`. For finite inputs the result is finite and
/// `>= max(a, b)`.
#[inline]
pub fn lse2(a: f64, b: f64) -> f64 {
    let m = a.max(b);
    if !m.is_finite() {
        // Both -inf (sum of zeros), or a NaN/+inf slipped in: in every
        // case m itself is the mathematically right (or least wrong)
        // answer and avoids NaN from `-inf - -inf`.
        return m;
    }
    m + ((a - m).exp() + (b - m).exp()).ln()
}

/// Stable log-sum-exp of three values (see [`lse2`]).
#[inline]
pub fn lse3(a: f64, b: f64, c: f64) -> f64 {
    let m = a.max(b).max(c);
    if !m.is_finite() {
        return m;
    }
    m + ((a - m).exp() + (b - m).exp() + (c - m).exp()).ln()
}

/// Stable log-sum-exp over a slice; `-inf` for an empty slice.
pub fn logsumexp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// Normalizes a 3-state log-message in place so `logsumexp = 0`,
/// clamping lanes at [`LOG_FLOOR`] (lane 3 is padding and left as-is).
/// A non-finite normalizer — a NaN or `+inf` lane, the log-domain
/// signature of a poisoned table — repairs the message to uniform,
/// bumps `bp.renormalized`, and returns `false`.
#[inline]
pub(crate) fn norm3_log(v: &mut [f64; 4]) -> bool {
    let z = lse3(v[0], v[1], v[2]);
    if !z.is_finite() {
        ppdp_telemetry::counter("bp.renormalized", 1);
        v[0] = LN_THIRD;
        v[1] = LN_THIRD;
        v[2] = LN_THIRD;
        return false;
    }
    v[0] = (v[0] - z).max(LOG_FLOOR);
    v[1] = (v[1] - z).max(LOG_FLOOR);
    v[2] = (v[2] - z).max(LOG_FLOOR);
    true
}

/// 2-state sibling of [`norm3_log`].
#[inline]
pub(crate) fn norm2_log(v: &mut [f64; 2]) -> bool {
    let z = lse2(v[0], v[1]);
    if !z.is_finite() {
        ppdp_telemetry::counter("bp.renormalized", 1);
        v[0] = LN_HALF;
        v[1] = LN_HALF;
        return false;
    }
    v[0] = (v[0] - z).max(LOG_FLOOR);
    v[1] = (v[1] - z).max(LOG_FLOOR);
    true
}

/// Log-domain damping: `ln(d·e^old + (1−d)·e^new)` via [`lse2`]. Called
/// with precomputed `ln d` / `ln(1−d)`; both inputs normalized, so the
/// mix is normalized too (up to rounding).
#[inline]
fn logmix(old: f64, new: f64, ln_d: f64, ln_1md: f64) -> f64 {
    lse2(ln_d + old, ln_1md + new)
}

/// One association factor's outgoing log-messages plus its sweep
/// residual and clean flag, padded to a 64-byte cache line so one
/// factor's state is one line. The scalar reference kernel's record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FacMsg {
    /// Log-message to the SNP variable (lane 3 = padding, kept `0.0`).
    to_s: [f64; 4],
    /// Log-message to the trait variable.
    to_t: [f64; 2],
    /// Max probability-space component change of the last update.
    resid: f64,
    /// `false` when this factor's update needed repair (poisoned table).
    clean: bool,
}

impl Default for FacMsg {
    fn default() -> Self {
        // ln(1) = 0 per lane: the flat starting messages.
        Self {
            to_s: [0.0; 4],
            to_t: [0.0; 2],
            resid: 0.0,
            clean: true,
        }
    }
}

/// One kin factor's outgoing log-messages (to-parent side 0, to-child
/// side 1) plus residual and clean flag.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KinMsg {
    to_parent: [f64; 4],
    to_child: [f64; 4],
    resid: f64,
    clean: bool,
}

impl Default for KinMsg {
    fn default() -> Self {
        Self {
            to_parent: [0.0; 4],
            to_child: [0.0; 4],
            resid: 0.0,
            clean: true,
        }
    }
}

/// Cold half of one association factor's state in the blocked layout:
/// the trait-side message plus sweep bookkeeping, padded to half a cache
/// line. The hot SNP-side lanes live in a separate `[f64; 4]` plane
/// ([`BpScratch::fs2s`]), so the pass-A SNP gathers stream 32-byte
/// records of nothing but `to_s` lanes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FacHalf {
    to_t: [f64; 2],
    resid: f64,
    clean: bool,
}

impl Default for FacHalf {
    fn default() -> Self {
        Self {
            to_t: [0.0; 2],
            resid: 0.0,
            clean: true,
        }
    }
}

/// Probability-space copy of one association factor's outgoing messages
/// in the blocked kernel. Keeping the linear values of the previous sweep
/// next to the log planes lets the factor update run its
/// marginalization, damping and residual entirely in probability space:
/// the only transcendentals left per factor are the five `exp` calls of
/// the cavity normalization and the five `ln` calls that store the result
/// back into the log planes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbMsg {
    /// Linear message to the SNP variable (lane 3 = padding).
    ps: [f64; 4],
    /// Linear message to the trait variable.
    pt: [f64; 2],
}

impl Default for ProbMsg {
    fn default() -> Self {
        // exp(ln 1) = 1 per lane: the linear view of the fresh messages.
        Self {
            ps: [1.0; 4],
            pt: [1.0; 2],
        }
    }
}

/// `acc += m`, one fixed-width lane statement per component.
#[inline]
fn add4(acc: &mut [f64; 4], m: &[f64; 4]) {
    for (a, &v) in acc.iter_mut().zip(m) {
        *a += v;
    }
}

/// 2-lane sibling of [`add4`].
#[inline]
fn add2(acc: &mut [f64; 2], m: &[f64; 2]) {
    for (a, &v) in acc.iter_mut().zip(m) {
        *a += v;
    }
}

/// Σ `plane[f]` over `ids` starting from `init`, gathered four incident
/// factors at a time into independent partial sums that combine at the
/// end. Splitting the reduction breaks the loop-carried dependence so
/// LLVM can keep four accumulator vectors in flight; it *reassociates*
/// the sum (≈1 ulp per term vs the scalar gather) but stays a pure
/// function of the operands, hence bitwise across exec policies and
/// tile sizes.
#[inline]
fn gather4(init: [f64; 4], ids: &[u32], plane: &[[f64; 4]]) -> [f64; 4] {
    let mut acc = [[0.0f64; 4]; 4];
    let mut quads = ids.chunks_exact(4);
    for quad in quads.by_ref() {
        for (a, &f) in acc.iter_mut().zip(quad) {
            add4(a, &plane[f as usize]);
        }
    }
    for (a, &f) in acc.iter_mut().zip(quads.remainder()) {
        add4(a, &plane[f as usize]);
    }
    let mut tot = init;
    for a in &acc {
        add4(&mut tot, a);
    }
    tot
}

/// Trait-side sibling of [`gather4`], reading the `to_t` lanes of the
/// cold half-plane — the hub-trait hot loop (thousands of incident
/// factors per trait at paper scale).
#[inline]
fn gather2(init: [f64; 2], ids: &[u32], half: &[FacHalf]) -> [f64; 2] {
    let mut acc = [[0.0f64; 2]; 4];
    let mut quads = ids.chunks_exact(4);
    for quad in quads.by_ref() {
        for (a, &f) in acc.iter_mut().zip(quad) {
            add2(a, &half[f as usize].to_t);
        }
    }
    for (a, &f) in acc.iter_mut().zip(quads.remainder()) {
        add2(a, &half[f as usize].to_t);
    }
    let mut tot = init;
    for a in &acc {
        add2(&mut tot, a);
    }
    tot
}

/// Reusable message arenas for the BP kernels.
///
/// One scratch lives per thread (see [`with_scratch`]); `clear` +
/// `resize` re-initializes contents to the fresh-run values without
/// touching capacity, so back-to-back runs on same-shaped graphs —
/// the greedy-sanitization inner loop, repeated `publish` calls —
/// perform zero message-buffer allocations after the first run. The
/// `exec.arena.reused` / `exec.arena.grown` metrics count warm vs cold
/// runs (asserted flat by the arena-reuse leak test).
#[derive(Debug, Default)]
pub struct BpScratch {
    /// Hot SNP-side log-message plane, one slot per association factor.
    fs2s: Vec<[f64; 4]>,
    /// Cold factor halves (trait-side lanes, residual, clean flag).
    fhalf: Vec<FacHalf>,
    /// Probability-space copies of both factor messages.
    fprob: Vec<ProbMsg>,
    /// Scalar reference kernel: association-factor messages.
    fmsg: Vec<FacMsg>,
    /// Kin-factor messages (both kernels).
    kmsg: Vec<KinMsg>,
    /// Per-kin-factor log tables, `[p*4 + c]`, pads at floor.
    lktab: Vec<[f64; 16]>,
    /// Log trait potentials (evidence indicators / prevalence priors).
    ltrait_pot: Vec<[f64; 2]>,
    /// Per-SNP incoming log totals (potential + all incident messages).
    stot: Vec<[f64; 4]>,
    /// Per-trait incoming log totals.
    ttot: Vec<[f64; 2]>,
    /// `false` when table/potential screening found a poisoned input —
    /// every attempt on this graph is then marked unclean, so the run
    /// repairs and degrades instead of trusting the messages.
    log_ok: bool,
}

thread_local! {
    static SCRATCH: RefCell<BpScratch> = RefCell::new(BpScratch::default());
}

/// Runs `f` with this thread's persistent [`BpScratch`]. Re-entrant
/// calls (a BP run nested inside another on the same thread) fall back
/// to a fresh scratch rather than aliasing the outer one.
pub fn with_scratch<R>(f: impl FnOnce(&mut BpScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut BpScratch::default()),
    })
}

/// Converts one probability `x` to a floored log lane. Exact zeros — and
/// poison, which [`table_ok`] screens separately — clamp to
/// [`LOG_FLOOR`].
#[inline]
fn ln_lane(x: f64) -> f64 {
    if x > 0.0 && x.is_finite() {
        x.ln().max(LOG_FLOOR)
    } else {
        LOG_FLOOR
    }
}

/// Screens one factor table or prior: `false` (plus a `bp.renormalized`
/// bump) when an entry is NaN, negative or infinite, or every entry is
/// zero — the inputs whose every message would need repair.
fn table_ok<'a>(entries: impl IntoIterator<Item = &'a f64>) -> bool {
    let mut ok = true;
    let mut any_pos = false;
    for &x in entries {
        ok &= x >= 0.0 && x.is_finite();
        any_pos |= x > 0.0;
    }
    if !ok || !any_pos {
        ppdp_telemetry::counter("bp.renormalized", 1);
    }
    ok && any_pos
}

/// `clear` + `resize`: every slot back to `fill` without releasing
/// capacity.
fn reset<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    v.clear();
    v.resize(n, fill);
}

impl BpScratch {
    /// True when the production kernel's arenas already have capacity
    /// for an `nf`-factor, `nk`-kin-factor graph (i.e. the coming run
    /// allocates no message buffer).
    pub(crate) fn is_warm(&self, nf: usize, nk: usize) -> bool {
        self.fs2s.capacity() >= nf
            && self.fhalf.capacity() >= nf
            && self.fprob.capacity() >= nf
            && self.kmsg.capacity() >= nk
    }

    /// Bytes of message-arena capacity this scratch holds (capacity ×
    /// element size, summed over every arena) — the figure the arena
    /// budget test in `tests/kernels.rs` bounds per factor and per SNP.
    pub fn arena_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.fs2s)
            + bytes(&self.fhalf)
            + bytes(&self.fprob)
            + bytes(&self.fmsg)
            + bytes(&self.kmsg)
            + bytes(&self.lktab)
            + bytes(&self.ltrait_pot)
            + bytes(&self.stot)
            + bytes(&self.ttot)
    }

    /// Screens `g`'s tables and priors and precomputes the kin log
    /// tables and trait log potentials, leaving `self.log_ok = false`
    /// (with one `bp.renormalized` bump per poisoned factor) when
    /// screening finds NaN/negative/`+inf` entries or an all-zero table.
    /// Association tables are not copied: the kernels read them from the
    /// graph.
    pub(crate) fn prepare(&mut self, g: &FactorGraph) {
        self.log_ok = true;
        for fac in &g.factors {
            self.log_ok &= table_ok(fac.table.iter().flatten());
        }

        self.lktab.clear();
        self.lktab.reserve(g.kin_factors.len());
        for kf in &g.kin_factors {
            self.log_ok &= table_ok(kf.table.iter().flatten());
            let mut lanes = [LOG_FLOOR; 16];
            for (p, row) in kf.table.iter().enumerate() {
                for (c, &x) in row.iter().enumerate() {
                    lanes[p * 4 + c] = ln_lane(x);
                }
            }
            self.lktab.push(lanes);
        }

        self.ltrait_pot.clear();
        self.ltrait_pot.reserve(g.n_traits());
        for (ev, p) in g.trait_evidence.iter().zip(&g.trait_prior) {
            self.ltrait_pot.push(match ev {
                Some(true) => [LOG_FLOOR, 0.0],
                Some(false) => [0.0, LOG_FLOOR],
                None => {
                    self.log_ok &= table_ok(p);
                    [ln_lane(p[0]), ln_lane(p[1])]
                }
            });
        }
    }
}

/// Log node potential of a SNP variable: its floored evidence indicator,
/// or flat (`ln 1` per lane) when unobserved.
#[inline]
fn lsnp_pot(ev: Option<usize>) -> [f64; 4] {
    match ev {
        Some(i) => {
            let mut v = [LOG_FLOOR, LOG_FLOOR, LOG_FLOOR, 0.0];
            v[i] = 0.0;
            v
        }
        None => [0.0; 4],
    }
}

/// The policy a sweep runs under: graphs below [`PAR_MIN_FACTORS`] stay
/// sequential whatever the configuration asks for.
fn sweep_exec(cfg: &BpConfig, g: &FactorGraph) -> ExecPolicy {
    if g.factors.len() + g.kin_factors.len() >= PAR_MIN_FACTORS {
        cfg.exec
    } else {
        ExecPolicy::Sequential
    }
}

/// Damping weights in both domains: `(d, ln d, ln(1 − d))`.
fn damping_weights(damping: f64) -> (f64, f64, f64) {
    if damping > 0.0 {
        (damping, damping.ln(), (1.0 - damping).ln())
    } else {
        (0.0, f64::NEG_INFINITY, 0.0)
    }
}

/// How one attempt's sweep loop ended.
struct Sweeps {
    sweeps: usize,
    converged: bool,
    final_residual: f64,
    clean: bool,
}

/// The sweep loop both kernels share: runs `sweep` (one synchronous
/// round, returning its residual — the max absolute *probability*
/// change of any message — and whether every update in it was clean)
/// until convergence, corruption or the iteration budget, recording the
/// per-sweep telemetry and watchdog verdicts.
fn iterate(
    cfg: &BpConfig,
    g: &FactorGraph,
    inputs_ok: bool,
    mut sweep: impl FnMut() -> (f64, bool),
) -> Sweeps {
    let updated = 2 * (g.factors.len() + g.kin_factors.len()) as u64;
    let mut out = Sweeps {
        sweeps: 0,
        converged: false,
        final_residual: f64::INFINITY,
        clean: inputs_ok,
    };
    // Live convergence monitor: flags stalled/oscillating/diverging
    // residual trajectories as `watchdog.bp.*` counters and trace events
    // without ever changing the iteration itself.
    let mut watchdog =
        ppdp_trace::ConvergenceWatchdog::new(ppdp_trace::WatchdogConfig::with_tol(cfg.tol));
    // Live progress: the metrics heartbeat derives progress/ETA from the
    // bp.round gauge against this declared ceiling.
    ppdp_telemetry::target("bp.rounds", cfg.max_iters as f64);
    for iter in 0..cfg.max_iters {
        out.sweeps = iter + 1;
        let (delta, ok) = sweep();
        out.clean &= ok;
        out.final_residual = delta;
        // Each sweep rewrites every factor→variable message: two per
        // association factor and two per kin factor. The incremental
        // engine reports the same metric.
        ppdp_telemetry::counter("bp.messages_updated", updated);
        ppdp_telemetry::value("bp.sweep_residual", delta);
        ppdp_telemetry::gauge("bp.round", out.sweeps as f64);
        ppdp_trace::bp_round(out.sweeps as u64, delta, updated, updated / 2);
        if let Some(verdict) = watchdog.observe(delta) {
            ppdp_telemetry::counter(&format!("watchdog.bp.{}", verdict.as_str()), 1);
            ppdp_trace::watchdog_event("bp", verdict.as_str(), watchdog.iteration());
        }
        if !out.clean {
            break;
        }
        if delta < cfg.tol {
            out.converged = true;
            break;
        }
    }
    out
}

/// Kin-factor update in log space (both kernels): cavities at both
/// endpoints from the pass-A totals, marginalization over the 3×3
/// transmission table in both directions, damping, residual. Reads the
/// factor's previous messages from `slot` and overwrites it.
#[inline]
fn kin_update(
    kf: &KinFactor,
    tab: &[f64; 16],
    st: &[[f64; 4]],
    slot: &mut KinMsg,
    damping: f64,
    ln_d: f64,
    ln_1md: f64,
) {
    let old = *slot;
    let mut ok = true;

    let mut cp = [0.0f64; 4];
    for ((c, &t), &o) in cp.iter_mut().zip(&st[kf.parent]).zip(&old.to_parent) {
        *c = t - o;
    }
    let mut cc = [0.0f64; 4];
    for ((c, &t), &o) in cc.iter_mut().zip(&st[kf.child]).zip(&old.to_child) {
        *c = t - o;
    }
    ok &= norm3_log(&mut cp);
    ok &= norm3_log(&mut cc);

    // to child: lse over parents of T[p][c] + μ_{parent→k}(p)
    let mut to_child = [0.0f64; 4];
    for (c, m) in to_child.iter_mut().enumerate().take(3) {
        *m = lse3(tab[c] + cp[0], tab[4 + c] + cp[1], tab[8 + c] + cp[2]);
    }
    ok &= norm3_log(&mut to_child);
    // to parent: lse over children of T[p][c] + μ_{child→k}(c)
    let mut to_parent = [0.0f64; 4];
    for (p, m) in to_parent.iter_mut().enumerate().take(3) {
        let row = p * 4;
        *m = lse3(tab[row] + cc[0], tab[row + 1] + cc[1], tab[row + 2] + cc[2]);
    }
    ok &= norm3_log(&mut to_parent);

    if damping > 0.0 {
        for (m, &o) in to_parent.iter_mut().zip(&old.to_parent).take(3) {
            *m = logmix(o, *m, ln_d, ln_1md);
        }
        for (m, &o) in to_child.iter_mut().zip(&old.to_child).take(3) {
            *m = logmix(o, *m, ln_d, ln_1md);
        }
    }
    let mut d = 0.0f64;
    for (&m, &o) in to_parent.iter().zip(&old.to_parent).take(3) {
        d = d.max((m.exp() - o.exp()).abs());
    }
    for (&m, &o) in to_child.iter().zip(&old.to_child).take(3) {
        d = d.max((m.exp() - o.exp()).abs());
    }
    *slot = KinMsg {
        to_parent,
        to_child,
        resid: d,
        clean: ok,
    };
}

/// Folds one sweep's per-factor residuals and clean flags.
fn fold_sweep(facs: impl Iterator<Item = (f64, bool)>, kins: &[KinMsg]) -> (f64, bool) {
    let mut delta = 0.0f64;
    let mut clean = true;
    for (resid, ok) in facs.chain(kins.iter().map(|m| (m.resid, m.clean))) {
        delta = delta.max(resid);
        clean &= ok;
    }
    (delta, clean)
}

/// Closes an attempt: beliefs from the final totals — normalized in log
/// space, exponentiated, and renormalized in linear space so marginals
/// sum to 1 at f64 precision. An observed variable's marginal is its
/// evidence indicator exactly — the posterior of a clamped variable —
/// rather than the `exp(LOG_FLOOR)` residue its floored lanes carry.
fn beliefs(
    g: &FactorGraph,
    exec: ExecPolicy,
    st: &[[f64; 4]],
    tt: &[[f64; 2]],
    run: Sweeps,
) -> Attempt {
    let mut clean = run.clean;
    let snp_marginals = fold_flag(
        exec.par_map(g.n_snps(), |s| {
            let mut b = st[s];
            let ok = norm3_log(&mut b);
            if let Some(i) = g.snp_evidence[s] {
                return (indicator3(i), ok);
            }
            let e = [b[0].exp(), b[1].exp(), b[2].exp()];
            let z = e[0] + e[1] + e[2];
            ([e[0] / z, e[1] / z, e[2] / z], ok)
        }),
        &mut clean,
    );
    let trait_marginals = fold_flag(
        exec.par_map(g.n_traits(), |t| {
            let mut b = tt[t];
            let ok = norm2_log(&mut b);
            match g.trait_evidence[t] {
                Some(true) => ([0.0, 1.0], ok),
                Some(false) => ([1.0, 0.0], ok),
                None => {
                    let e = [b[0].exp(), b[1].exp()];
                    let z = e[0] + e[1];
                    ([e[0] / z, e[1] / z], ok)
                }
            }
        }),
        &mut clean,
    );
    Attempt {
        snp_marginals,
        trait_marginals,
        sweeps: run.sweeps,
        converged: run.converged && clean,
        final_residual: run.final_residual,
        clean,
    }
}

/// Kin-factor contributions to SNP `s`'s pass-A total.
#[inline]
fn add_kin(g: &FactorGraph, km: &[KinMsg], s: usize, tot: &mut [f64; 4]) {
    for &k in g.snp_kin_ids(s) {
        let k = k as usize;
        let m = if g.kin_factors[k].parent == s {
            &km[k].to_parent
        } else {
            &km[k].to_child
        };
        add4(tot, m);
    }
}

/// The production kernel: one message-passing attempt from fresh
/// messages at the given damping, over the three in-place factor planes
/// ([`BpScratch::fs2s`], [`BpScratch::fhalf`], [`BpScratch::fprob`])
/// with quad-lane gathers ([`gather4`]/[`gather2`]) and cache-tiled
/// round scheduling (`cfg.tile`, default [`BLOCK`]). Bitwise-identical
/// across exec policies and tile sizes. Requires
/// [`BpScratch::prepare`] to have run for `g`.
pub(crate) fn attempt(
    cfg: &BpConfig,
    g: &FactorGraph,
    damping: f64,
    scratch: &mut BpScratch,
) -> Attempt {
    let nf = g.factors.len();
    let nk = g.kin_factors.len();
    let exec = sweep_exec(cfg, g);
    let tile = tile_size(cfg);
    let BpScratch {
        fs2s,
        fhalf,
        fprob,
        kmsg,
        lktab,
        ltrait_pot,
        stot,
        ttot,
        log_ok,
        ..
    } = scratch;
    reset(fs2s, nf, [0.0; 4]);
    reset(fhalf, nf, FacHalf::default());
    reset(fprob, nf, ProbMsg::default());
    reset(kmsg, nk, KinMsg::default());
    reset(stot, g.n_snps(), [0.0; 4]);
    reset(ttot, g.n_traits(), [0.0; 2]);
    let (lktab, ltrait_pot) = (&lktab[..], &ltrait_pot[..]);
    let (d, ln_d, ln_1md) = damping_weights(damping);
    // Linear view of the log floor: every table entry is read through
    // `max(pfloor)`, so zeros and poison screen exactly like the floored
    // log lanes of the reference kernel.
    let pfloor = LOG_FLOOR.exp();

    // Tile/lane utilization, live registry only (the values are computed
    // coordinator-side from the CSR shape, identical under every policy,
    // but they are scheduling facts — not part of the kernel's semantic
    // telemetry stream).
    let tiles_per_sweep = (g.n_snps().div_ceil(tile)
        + g.n_traits().div_ceil(tile)
        + nf.div_ceil(tile)
        + nk.div_ceil(tile)) as u64;
    let (lane_quads, lane_tail) = (0..g.n_snps())
        .map(|s| g.snp_factor_ids(s).len())
        .chain((0..g.n_traits()).map(|t| g.trait_factor_ids(t).len()))
        .fold((0u64, 0u64), |(q, r), deg| {
            (q + (deg / 4) as u64, r + (deg % 4) as u64)
        });
    ppdp_metrics::counter("bp.lane_quads", lane_quads);
    ppdp_metrics::counter("bp.lane_tail", lane_tail);

    // Pass A over the planes: quad-lane gathers per variable.
    let gather = |fs: &[[f64; 4]],
                  fh: &[FacHalf],
                  km: &[KinMsg],
                  stot: &mut [[f64; 4]],
                  ttot: &mut [[f64; 2]]| {
        exec.par_fill(stot, tile, |s, slot| {
            let mut tot = gather4(lsnp_pot(g.snp_evidence[s]), g.snp_factor_ids(s), fs);
            add_kin(g, km, s, &mut tot);
            *slot = tot;
        });
        exec.par_fill(ttot, tile, |t, slot| {
            *slot = gather2(ltrait_pot[t], g.trait_factor_ids(t), fh);
        });
    };

    let run = iterate(cfg, g, *log_ok, || {
        ppdp_metrics::counter("bp.tiles_swept", tiles_per_sweep);
        gather(fs2s, fhalf, kmsg, stot, ttot);
        let (st, tt) = (&stot[..], &ttot[..]);

        // Pass B: per-factor cavity + update, in place. The cavity is
        // exponentiated once (with the max subtracted, like `lse`), after
        // which marginalization over the floored linear tables, damping
        // against the probability copy, and the residual are pure
        // mul/add — the same fixed point as the reference kernel's
        // log-sum-exp update, agreeing to ≲1e-12 per lane since every
        // message renormalizes per hop.
        exec.par_zip_fill3(fs2s, fhalf, fprob, tile, |f, ls, half, prob| {
            let fac = &g.factors[f];
            let mut ok = true;

            // Cavity at the SNP, exponentiated and normalized in linear
            // space. The max lane contributes exp(0) = 1, so the
            // normalizer lies in [1, 3] — finite and positive whenever
            // the inputs are.
            let stv = &st[fac.snp];
            let c = [stv[0] - ls[0], stv[1] - ls[1], stv[2] - ls[2]];
            let m = c[0].max(c[1]).max(c[2]);
            let cs = if m.is_finite() {
                let e = [(c[0] - m).exp(), (c[1] - m).exp(), (c[2] - m).exp()];
                let zs = e[0] + e[1] + e[2];
                [e[0] / zs, e[1] / zs, e[2] / zs]
            } else {
                ppdp_telemetry::counter("bp.renormalized", 1);
                ok = false;
                [1.0 / 3.0; 3]
            };
            let ct0 = tt[fac.trait_idx][0] - half.to_t[0];
            let ct1 = tt[fac.trait_idx][1] - half.to_t[1];
            let mt = ct0.max(ct1);
            let ct = if mt.is_finite() {
                let e = [(ct0 - mt).exp(), (ct1 - mt).exp()];
                let zt = e[0] + e[1];
                [e[0] / zt, e[1] / zt]
            } else {
                ppdp_telemetry::counter("bp.renormalized", 1);
                ok = false;
                [0.5; 2]
            };

            // Marginalize over the floored tables. Every entry is ≥
            // exp(LOG_FLOOR) > 0 and each cavity's max lane is ≥
            // 1/width, so the sums stay strictly positive — a non-finite
            // normalizer can only come from poisoned inputs.
            let tab = fac.table.map(|row| row.map(|x| x.max(pfloor)));
            let mut ps = [0.0f64; 4];
            for (m, row) in ps.iter_mut().zip(&tab) {
                *m = row[0] * ct[0] + row[1] * ct[1];
            }
            let zs = ps[0] + ps[1] + ps[2];
            if zs.is_finite() && zs > 0.0 {
                ps[0] /= zs;
                ps[1] /= zs;
                ps[2] /= zs;
            } else {
                ppdp_telemetry::counter("bp.renormalized", 1);
                ok = false;
                ps = [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0];
            }
            let mut pt = [0.0f64; 2];
            for (t, m) in pt.iter_mut().enumerate() {
                *m = tab[0][t] * cs[0] + tab[1][t] * cs[1] + tab[2][t] * cs[2];
            }
            let zt = pt[0] + pt[1];
            if zt.is_finite() && zt > 0.0 {
                pt[0] /= zt;
                pt[1] /= zt;
            } else {
                ppdp_telemetry::counter("bp.renormalized", 1);
                ok = false;
                pt = [0.5; 2];
            }

            if d > 0.0 {
                for (m, &o) in ps.iter_mut().zip(&prob.ps).take(3) {
                    *m = d * o + (1.0 - d) * *m;
                }
                for (m, &o) in pt.iter_mut().zip(&prob.pt) {
                    *m = d * o + (1.0 - d) * *m;
                }
            }
            let mut resid = 0.0f64;
            for (&m, &o) in ps.iter().zip(&prob.ps).take(3) {
                resid = resid.max((m - o).abs());
            }
            for (&m, &o) in pt.iter().zip(&prob.pt) {
                resid = resid.max((m - o).abs());
            }

            // Store the log view for pass A's gathers, floored like the
            // reference kernel's stored lanes.
            *ls = [
                ps[0].ln().max(LOG_FLOOR),
                ps[1].ln().max(LOG_FLOOR),
                ps[2].ln().max(LOG_FLOOR),
                0.0,
            ];
            *half = FacHalf {
                to_t: [pt[0].ln().max(LOG_FLOOR), pt[1].ln().max(LOG_FLOOR)],
                resid,
                clean: ok,
            };
            *prob = ProbMsg { ps, pt };
        });

        // Kin pass: AoS layout (kin counts are tiny next to association
        // factors), tiled like everything else.
        exec.par_fill(kmsg, tile, |k, slot| {
            kin_update(&g.kin_factors[k], &lktab[k], st, slot, d, ln_d, ln_1md);
        });
        fold_sweep(fhalf.iter().map(|h| (h.resid, h.clean)), kmsg)
    });

    gather(fs2s, fhalf, kmsg, stot, ttot);
    beliefs(g, exec, stot, ttot, run)
}

/// Floored log view of one association table, `[g*2 + t]`.
fn log_table(table: &[[f64; 2]; 3]) -> [f64; 8] {
    let mut lanes = [LOG_FLOOR; 8];
    for (gi, row) in table.iter().enumerate() {
        for (t, &x) in row.iter().enumerate() {
            lanes[gi * 2 + t] = ln_lane(x);
        }
    }
    lanes
}

/// The scalar reference kernel: the same fixed point, sweep schedule
/// (synchronous updates from the previous sweep's messages), residual
/// semantics (max absolute *probability* change), telemetry stream and
/// restart/degradation contract as [`attempt`], computed
/// with plain per-factor log-sum-exp updates and sequential gathers. It
/// exists as the differential oracle of the blocked kernel and is
/// reachable only through [`crate::BpConfig::run_reference`]. Requires
/// [`BpScratch::prepare`] to have run for `g`.
pub(crate) fn reference_attempt(
    cfg: &BpConfig,
    g: &FactorGraph,
    damping: f64,
    scratch: &mut BpScratch,
) -> Attempt {
    let exec = sweep_exec(cfg, g);
    let ltab: Vec<[f64; 8]> = g.factors.iter().map(|f| log_table(&f.table)).collect();
    let BpScratch {
        fmsg,
        kmsg,
        lktab,
        ltrait_pot,
        stot,
        ttot,
        log_ok,
        ..
    } = scratch;
    reset(fmsg, g.factors.len(), FacMsg::default());
    reset(kmsg, g.kin_factors.len(), KinMsg::default());
    reset(stot, g.n_snps(), [0.0; 4]);
    reset(ttot, g.n_traits(), [0.0; 2]);
    let (lktab, ltrait_pot) = (&lktab[..], &ltrait_pot[..]);
    let (d, ln_d, ln_1md) = damping_weights(damping);

    // Pass A: per-variable incoming totals (potential + every incident
    // message). Totals make the per-factor cavity a branch-free
    // subtraction in pass B instead of a skip-one gather per edge.
    let gather = |fm: &[FacMsg], km: &[KinMsg], stot: &mut [[f64; 4]], ttot: &mut [[f64; 2]]| {
        exec.par_fill(stot, BLOCK, |s, slot| {
            let mut tot = lsnp_pot(g.snp_evidence[s]);
            for &f in g.snp_factor_ids(s) {
                add4(&mut tot, &fm[f as usize].to_s);
            }
            add_kin(g, km, s, &mut tot);
            *slot = tot;
        });
        exec.par_fill(ttot, BLOCK, |t, slot| {
            let mut tot = ltrait_pot[t];
            for &f in g.trait_factor_ids(t) {
                add2(&mut tot, &fm[f as usize].to_t);
            }
            *slot = tot;
        });
    };

    let run = iterate(cfg, g, *log_ok, || {
        gather(fmsg, kmsg, stot, ttot);
        let (st, tt) = (&stot[..], &ttot[..]);

        // Pass B: per-factor cavity + update (Eqs. 5.5/5.6 in log
        // space), in place — each slot reads only its own previous
        // messages and the totals.
        exec.par_fill(fmsg, BLOCK, |f, slot| {
            let fac = &g.factors[f];
            let old = *slot;
            let tab = &ltab[f];
            let mut ok = true;

            // Cavity at the SNP = this factor's variable→factor message
            // (Eq. 5.3), normalized.
            let mut cs = [0.0f64; 4];
            for ((c, &t), &o) in cs.iter_mut().zip(&st[fac.snp]).zip(&old.to_s) {
                *c = t - o;
            }
            ok &= norm3_log(&mut cs);
            let mut ct = [
                tt[fac.trait_idx][0] - old.to_t[0],
                tt[fac.trait_idx][1] - old.to_t[1],
            ];
            ok &= norm2_log(&mut ct);

            let mut to_s = [0.0f64; 4];
            for (m, pair) in to_s.iter_mut().zip(tab.chunks_exact(2)).take(3) {
                *m = lse2(pair[0] + ct[0], pair[1] + ct[1]);
            }
            ok &= norm3_log(&mut to_s);
            let mut to_t = [0.0f64; 2];
            for (t, m) in to_t.iter_mut().enumerate() {
                *m = lse3(tab[t] + cs[0], tab[2 + t] + cs[1], tab[4 + t] + cs[2]);
            }
            ok &= norm2_log(&mut to_t);

            if d > 0.0 {
                for (m, &o) in to_s.iter_mut().zip(old.to_s.iter()).take(3) {
                    *m = logmix(o, *m, ln_d, ln_1md);
                }
                for (m, &o) in to_t.iter_mut().zip(old.to_t.iter()) {
                    *m = logmix(o, *m, ln_d, ln_1md);
                }
            }
            let mut resid = 0.0f64;
            for (&m, &o) in to_s.iter().zip(old.to_s.iter()).take(3) {
                resid = resid.max((m.exp() - o.exp()).abs());
            }
            for (&m, &o) in to_t.iter().zip(old.to_t.iter()) {
                resid = resid.max((m.exp() - o.exp()).abs());
            }
            *slot = FacMsg {
                to_s,
                to_t,
                resid,
                clean: ok,
            };
        });

        exec.par_fill(kmsg, BLOCK, |k, slot| {
            kin_update(&g.kin_factors[k], &lktab[k], st, slot, d, ln_d, ln_1md);
        });
        fold_sweep(fmsg.iter().map(|m| (m.resid, m.clean)), kmsg)
    });

    gather(fmsg, kmsg, stot, ttot);
    beliefs(g, exec, stot, ttot, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_log_constants_match_runtime_ln() {
        assert_eq!(LN_THIRD, (1.0f64 / 3.0).ln());
        assert_eq!(LN_HALF, (1.0f64 / 2.0).ln());
    }

    #[test]
    fn lse_matches_naive_in_safe_range() {
        for (a, b, c) in [
            (0.0f64, 0.0f64, 0.0f64),
            (-1.0, -2.0, -3.0),
            (3.5, -0.25, 1.0),
        ] {
            let naive = (a.exp() + b.exp() + c.exp()).ln();
            assert!((lse3(a, b, c) - naive).abs() < 1e-12);
            let naive2 = (a.exp() + b.exp()).ln();
            assert!((lse2(a, b) - naive2).abs() < 1e-12);
            assert!((logsumexp(&[a, b, c]) - lse3(a, b, c)).abs() < 1e-12);
        }
    }

    #[test]
    fn lse_survives_extreme_magnitudes() {
        // Naive exp would overflow (+inf) or underflow (0 → -inf).
        assert!((lse2(1000.0, 1000.0) - (1000.0 + 2f64.ln())).abs() < 1e-9);
        assert!((lse2(-1e6, -1e6) - (-1e6 + 2f64.ln())).abs() < 1e-6);
        // The dominant element wins when the gap exceeds the mantissa.
        assert_eq!(lse2(0.0, -800.0), 0.0);
        assert_eq!(lse3(-5.0, f64::NEG_INFINITY, f64::NEG_INFINITY), -5.0);
        assert_eq!(logsumexp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn norm_log_normalizes_and_floors() {
        let mut v = [-1000.0, -1001.0, -5000.0, 0.0];
        assert!(norm3_log(&mut v));
        assert!((lse3(v[0], v[1], v[2])).abs() < 1e-12);
        assert_eq!(v[2], LOG_FLOOR, "deep lane clamps at the floor");
        assert_eq!(v[3], 0.0, "padding untouched");
        let mut w = [f64::NAN, 0.0];
        assert!(!norm2_log(&mut w), "NaN lane repairs to uniform");
        assert_eq!(w, [LN_HALF; 2]);
    }

    #[test]
    fn logmix_matches_linear_damping() {
        let (d, old, new) = (0.5f64, 0.2f64, 0.6f64);
        let mixed = logmix(old.ln(), new.ln(), d.ln(), (1.0 - d).ln());
        assert!((mixed.exp() - (d * old + (1.0 - d) * new)).abs() < 1e-12);
    }

    #[test]
    fn fac_msg_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<FacMsg>(), 64);
    }

    #[test]
    fn fac_half_and_hot_plane_are_half_lines() {
        assert_eq!(std::mem::size_of::<FacHalf>(), 32);
        assert_eq!(std::mem::size_of::<[f64; 4]>(), 32);
    }

    #[test]
    fn lane_gathers_match_scalar_sums_across_remainders() {
        // Degrees 0..=9 cover every chunks_exact(4) remainder shape.
        for deg in 0..=9usize {
            let plane: Vec<[f64; 4]> = (0..deg)
                .map(|i| {
                    let x = (i as f64 + 1.0) * 0.37 - 1.1;
                    [x, -x * 0.5, x * x * 0.01, 0.0]
                })
                .collect();
            let half: Vec<FacHalf> = plane
                .iter()
                .map(|p| FacHalf {
                    to_t: [p[0] * 0.3, p[1] - 0.2],
                    ..FacHalf::default()
                })
                .collect();
            let ids: Vec<u32> = (0..deg as u32).collect();
            let init4 = [0.25, -0.5, 1.5, 0.0];
            let got4 = gather4(init4, &ids, &plane);
            let mut want4 = init4;
            for &f in &ids {
                add4(&mut want4, &plane[f as usize]);
            }
            for (a, b) in got4.iter().zip(&want4) {
                assert!((a - b).abs() < 1e-12, "deg={deg}: {a} vs {b}");
            }
            let init2 = [0.1, -0.7];
            let got2 = gather2(init2, &ids, &half);
            let mut want2 = init2;
            for &f in &ids {
                add2(&mut want2, &half[f as usize].to_t);
            }
            for (a, b) in got2.iter().zip(&want2) {
                assert!((a - b).abs() < 1e-12, "deg={deg}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn lane_gathers_are_deterministic_for_fixed_inputs() {
        let plane: Vec<[f64; 4]> = (0..1500)
            .map(|i| {
                let x = ((i * 2654435761_usize) % 997) as f64 / 997.0 - 0.5;
                [x, x * 0.5, -x, 0.0]
            })
            .collect();
        let ids: Vec<u32> = (0..1500).collect();
        let a = gather4([0.0; 4], &ids, &plane);
        let b = gather4([0.0; 4], &ids, &plane);
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
    }
}
