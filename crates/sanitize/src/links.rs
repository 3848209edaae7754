//! Indistinguishable-link scoring and removal (Def. 3.5.1 / §3.5.3).
//!
//! A link is *Δ'-indistinguishable* for a user when removing it leaves the
//! user's predicted class distribution nearly uniform — i.e. the variance of
//! the class probabilities drops below Δ'. The link-removal sanitizer
//! removes the links whose removal minimizes that variance, so the attacker
//! ends up unable to tell the classes apart.
//!
//! Scoring runs on per-victim totals (the total − own move): for a victim
//! `u` with current neighbours `N_u`, wvRN weights `w` and reference
//! distributions `d`, keep `W_u = Σ w`, `S_u = Σ w·d_j`, `P_u = Σ d_j` and
//! `|N_u|`. Removing neighbour `j` then leaves `(S_u − w·d_j)/(W_u − w)`, or
//! the plain average `(P_u − d_j)/(|N_u| − 1)` when no other neighbour
//! shares an attribute. A scoring pass therefore costs O(E·C) for E links
//! and C classes, and after a removal batch only the touched endpoints'
//! totals and incident links are recomputed. The subtraction is not
//! bitwise the sum it replaces: scores agree with a direct recomputation to
//! ~1e-16, which can reorder exact ties between links.

use ppdp_classify::{AttackModel, LabeledGraph, LocalKind, RelationalWeights};
use ppdp_errors::{ensure, Result};
use ppdp_exec::ExecPolicy;
use ppdp_graph::{CategoryId, SocialGraph, UserId};
use std::cmp::Ordering;

/// Below this many candidate links the per-edge scoring is too cheap to be
/// worth spawning worker threads for; the run silently stays sequential.
/// Scheduling-only: the scores are identical either way.
const PAR_MIN_EDGES: usize = 64;

/// One scored candidate link: removing `{user, neighbor}` leaves `user`'s
/// relational class distribution with the given probability variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkScore {
    /// The victim whose distribution was evaluated.
    pub user: UserId,
    /// The neighbour at the other end of the candidate link.
    pub neighbor: UserId,
    /// `Var{P(y_1), …, P(y_|Y|)}` after hypothetically removing the link.
    pub variance: f64,
}

/// Population variance of a probability vector — the indistinguishability
/// criterion of Eq. (3.4). Zero means perfectly uniform (fully hidden).
pub fn dist_variance(dist: &[f64]) -> f64 {
    variance_of(dist.len(), |c| dist[c])
}

/// [`dist_variance`] of the vector `(p(0), …, p(n − 1))` without
/// materializing it; `p` is evaluated twice per entry.
fn variance_of(n: usize, p: impl Fn(usize) -> f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let mean = (0..n).map(&p).sum::<f64>() / n as f64;
    (0..n)
        .map(|c| {
            let x = p(c) - mean;
            x * x
        })
        .sum::<f64>()
        / n as f64
}

/// The relational state a link score reads: per-victim totals over the
/// victim's current neighbours, the cached wvRN weights and the attacker's
/// static reference distributions.
struct LinkScorer<'a> {
    /// The graph the weights were built on; the current graph may only
    /// have lost edges since.
    lg: &'a LabeledGraph<'a>,
    dists: &'a [Vec<f64>],
    n_classes: usize,
    /// `row[u]` = `u`'s row in `weights`; `None` for known users.
    row: Vec<Option<usize>>,
    weights: RelationalWeights,
    /// `W_u`, the summed weight of `u`'s current neighbours.
    w_sum: Vec<f64>,
    /// `2·n_classes` lanes per user: `S_u = Σ w·d_j`, then `P_u = Σ d_j`.
    sums: Vec<f64>,
    /// `|N_u|` in the current graph.
    deg: Vec<usize>,
}

impl<'a> LinkScorer<'a> {
    /// Builds weights and totals for every victim (unknown-label user) of
    /// `lg.graph`.
    fn new(exec: ExecPolicy, lg: &'a LabeledGraph<'a>, dists: &'a [Vec<f64>]) -> Self {
        let n = lg.graph.user_count();
        let n_classes = lg.n_classes();
        let victims: Vec<UserId> = lg.graph.users().filter(|u| !lg.known[u.0]).collect();
        let mut row = vec![None; n];
        for (i, u) in victims.iter().enumerate() {
            row[u.0] = Some(i);
        }
        let exec = if lg.graph.edge_count() >= PAR_MIN_EDGES {
            exec
        } else {
            ExecPolicy::Sequential
        };
        let weights = RelationalWeights::build(lg, &victims, exec);
        let mut scorer = Self {
            lg,
            dists,
            n_classes,
            row,
            weights,
            w_sum: vec![0.0; n],
            sums: vec![0.0; 2 * n * n_classes],
            deg: vec![0; n],
        };
        let totals = exec.par_map(victims.len(), |i| {
            scorer.totals(victims[i], i, lg.graph.neighbors(victims[i]))
        });
        for (&u, (w_sum, sums)) in victims.iter().zip(totals) {
            scorer.store(u, lg.graph.neighbors(u).len(), w_sum, &sums);
        }
        scorer
    }

    /// `(W_u, S_u ‖ P_u)` of victim `u` (weight row `r`) over `ns`, a
    /// sorted subsequence of its neighbours in the built graph.
    fn totals(&self, u: UserId, r: usize, ns: &[UserId]) -> (f64, Vec<f64>) {
        let c = self.n_classes;
        let built = self.lg.graph.neighbors(u);
        let w = self.weights.row(r);
        let mut w_sum = 0.0;
        let mut sums = vec![0.0; 2 * c];
        let (s, p) = sums.split_at_mut(c);
        let mut k = 0;
        for &j in ns {
            while built[k] != j {
                k += 1;
            }
            w_sum += w[k];
            for ((s, p), d) in s.iter_mut().zip(p.iter_mut()).zip(&self.dists[j.0]) {
                *s += w[k] * d;
                *p += d;
            }
        }
        (w_sum, sums)
    }

    fn store(&mut self, u: UserId, deg: usize, w_sum: f64, sums: &[f64]) {
        let lanes = 2 * self.n_classes;
        self.w_sum[u.0] = w_sum;
        self.sums[u.0 * lanes..(u.0 + 1) * lanes].copy_from_slice(sums);
        self.deg[u.0] = deg;
    }

    /// Recomputes the totals of the victims among `users` over their
    /// neighbours in `current`.
    fn refresh(&mut self, current: &SocialGraph, users: &[usize]) {
        for &u in users {
            let u = UserId(u);
            if let Some(r) = self.row[u.0] {
                let ns = current.neighbors(u);
                let (w_sum, sums) = self.totals(u, r, ns);
                self.store(u, ns.len(), w_sum, &sums);
            }
        }
    }

    /// Variance of victim `u`'s relational distribution once the link to
    /// `skip` is gone, or `None` when `u`'s label is already public.
    fn victim_variance(&self, u: UserId, skip: UserId) -> Option<f64> {
        let r = self.row[u.0]?;
        let c = self.n_classes;
        let deg = self.deg[u.0];
        if deg <= 1 {
            // The sole link: `u` falls back to its bootstrap distribution.
            return Some(dist_variance(&self.dists[u.0]));
        }
        let d = &self.dists[skip.0];
        // `skip` is a neighbour in the built graph, so the search hits.
        let w = self
            .lg
            .graph
            .neighbors(u)
            .binary_search(&skip)
            .map_or(0.0, |k| self.weights.row(r)[k]);
        let rest = self.w_sum[u.0] - w;
        let (s, p) = self.sums[2 * c * u.0..2 * c * (u.0 + 1)].split_at(c);
        Some(if rest > 0.0 {
            variance_of(c, |k| (s[k] - w * d[k]) / rest)
        } else {
            // Eq. (4.1): plain average when no other neighbour shares an
            // attribute. Adding 0.0 weights is exact, so `rest` is exactly
            // zero in that case.
            let others = (deg - 1) as f64;
            variance_of(c, |k| (p[k] - d[k]) / others)
        })
    }

    /// Scores the link `{a, b}` by its more indistinguishable victim
    /// endpoint (ties go to `a`); `+∞` when both labels are public.
    fn score(&self, (a, b): (UserId, UserId)) -> LinkScore {
        let va = self.victim_variance(a, b);
        let vb = self.victim_variance(b, a);
        match (va, vb) {
            (Some(x), Some(y)) if y < x => LinkScore {
                user: b,
                neighbor: a,
                variance: y,
            },
            (Some(x), _) => LinkScore {
                user: a,
                neighbor: b,
                variance: x,
            },
            (None, Some(y)) => LinkScore {
                user: b,
                neighbor: a,
                variance: y,
            },
            (None, None) => LinkScore {
                user: a,
                neighbor: b,
                variance: f64::INFINITY,
            },
        }
    }

    /// Scores `edges`, fanning out under `exec` when there are enough.
    fn score_all(&self, exec: ExecPolicy, edges: &[(UserId, UserId)]) -> Vec<LinkScore> {
        let exec = if edges.len() >= PAR_MIN_EDGES {
            exec
        } else {
            ExecPolicy::Sequential
        };
        exec.par_map(edges.len(), |i| self.score(edges[i]))
    }
}

/// Scores every undirected link of the graph by the *minimum* post-removal
/// distribution variance over its endpoints whose label is unknown (the
/// victims worth protecting), returning candidates sorted ascending — the
/// head of the list is "the most indistinguishable link" of §3.5.3.
///
/// Links between two known-label users score `+∞` (removing them protects
/// nobody). A victim whose only link is the candidate falls back to the
/// attacker's attribute-based distribution after removal (§3.7.2 bootstraps
/// isolated users from attributes), so the candidate is scored by *that*
/// distribution's variance — treating it as "fully hidden" would reward
/// handing the attacker their sharp attribute channel.
///
/// `dists` are the per-user class distributions the attacker currently
/// holds (e.g. from an `AttrOnly` bootstrap).
pub fn indistinguishable_links(lg: &LabeledGraph<'_>, dists: &[Vec<f64>]) -> Vec<LinkScore> {
    indistinguishable_links_with(ExecPolicy::Sequential, lg, dists)
}

/// [`indistinguishable_links`] with an explicit execution policy: under
/// [`ExecPolicy::Parallel`] the per-victim totals and per-link evaluations
/// fan out across worker threads. Each link's score is independent of every
/// other link's, and the final ordering is a total sort with deterministic
/// tie-breaks, so the returned list is identical for every policy and
/// thread count.
pub fn indistinguishable_links_with(
    exec: ExecPolicy,
    lg: &LabeledGraph<'_>,
    dists: &[Vec<f64>],
) -> Vec<LinkScore> {
    let scorer = LinkScorer::new(exec, lg, dists);
    let edges: Vec<(UserId, UserId)> = lg.graph.edges().collect();
    let mut scores = scorer.score_all(exec, &edges);
    scores.sort_by(rank);
    scores
}

/// Ascending total order: variance, then victim, then neighbour — the
/// deterministic ranking every scoring pass uses.
fn rank(x: &LinkScore, y: &LinkScore) -> Ordering {
    x.variance
        .total_cmp(&y.variance)
        .then(x.user.cmp(&y.user))
        .then(x.neighbor.cmp(&y.neighbor))
}

/// Moves the `take` lowest-ranked scores to the front of `scores`, sorted
/// by [`rank`] — the prefix a full sort would produce, because `rank` is a
/// total order over distinct links. The tail is left unordered.
fn select_top(scores: &mut [LinkScore], take: usize) {
    if take == 0 || scores.is_empty() {
        return;
    }
    if take < scores.len() {
        scores.select_nth_unstable_by(take - 1, rank);
    }
    scores[..take].sort_by(rank);
}

/// Removes the `count` most indistinguishable links and returns the
/// sanitized graph. The attacker's reference distributions are obtained by
/// bootstrapping the local classifier `kind` (AttrOnly) over the split
/// described by `known`.
///
/// Removal proceeds in batches with re-scoring between batches: single-link
/// scores are evaluated against the *current* graph, so joint effects (a
/// victim losing several links) are tracked instead of trusting stale
/// one-shot scores. This is the "local optimal" strategy §3.7.3 describes,
/// applied iteratively.
///
/// # Errors
/// Returns [`ppdp_errors::PpdpError::InvalidInput`] when the known mask
/// does not cover every user or `label_cat` is outside the schema.
pub fn remove_indistinguishable_links(
    g: &SocialGraph,
    label_cat: CategoryId,
    known: &[bool],
    kind: LocalKind,
    count: usize,
) -> Result<SocialGraph> {
    remove_indistinguishable_links_with(ExecPolicy::Sequential, g, label_cat, known, kind, count)
}

/// [`remove_indistinguishable_links`] with an explicit execution policy for
/// the per-link scoring passes (see [`indistinguishable_links_with`]). The
/// sanitized graph is identical for every policy and thread count.
///
/// # Errors
/// Same contract as [`remove_indistinguishable_links`].
pub fn remove_indistinguishable_links_with(
    exec: ExecPolicy,
    g: &SocialGraph,
    label_cat: CategoryId,
    known: &[bool],
    kind: LocalKind,
    count: usize,
) -> Result<SocialGraph> {
    ensure(
        known.len() == g.user_count(),
        format!(
            "known mask covers {} users but the graph has {}",
            known.len(),
            g.user_count()
        ),
    )?;
    ensure(
        label_cat.0 < g.schema().len(),
        format!(
            "label category {} is outside the schema ({} categories)",
            label_cat.0,
            g.schema().len()
        ),
    )?;
    let _span = ppdp_telemetry::span("links.remove_indistinguishable");
    let lg0 = LabeledGraph::new(g, label_cat, known.to_vec());
    let boot = ppdp_classify::run_attack(&lg0, kind, AttackModel::AttrOnly)?;
    let mut scorer = LinkScorer::new(exec, &lg0, &boot.dists);
    let mut out = g.clone();
    let mut left = count;
    // Re-score every `batch` removals; cap the number of scoring passes so
    // large sweeps stay tractable.
    let batch = (count / 10).max(50);
    // One flat score list. A link's score is a pure function of its
    // endpoints' neighbour sets, so after a removal batch only links
    // incident to a touched endpoint are dropped and re-scored; every other
    // entry is exactly what a full re-scoring pass would recompute.
    let edges: Vec<(UserId, UserId)> = g.edges().collect();
    let mut scores = scorer.score_all(exec, &edges);
    let mut rescored = scores.len() as u64;
    let mut reused = 0u64;
    let mut is_dirty = vec![false; g.user_count()];
    loop {
        let take = left.min(batch).min(scores.len());
        if take == 0 {
            break;
        }
        select_top(&mut scores, take);
        let mut dirty: Vec<usize> = Vec::with_capacity(2 * take);
        for s in scores.drain(..take) {
            out.remove_edge(s.user, s.neighbor);
            for u in [s.user.0, s.neighbor.0] {
                if !is_dirty[u] {
                    is_dirty[u] = true;
                    dirty.push(u);
                }
            }
        }
        ppdp_telemetry::counter("links.removed", take as u64);
        left -= take;
        if left == 0 || out.edge_count() == 0 {
            break;
        }
        scorer.refresh(&out, &dirty);
        scores.retain(|s| !is_dirty[s.user.0] && !is_dirty[s.neighbor.0]);
        // Each link with a dirty endpoint once: from its lower endpoint
        // when both are dirty.
        let mut need: Vec<(UserId, UserId)> = Vec::new();
        for &d in &dirty {
            for &j in out.neighbors(UserId(d)) {
                if !is_dirty[j.0] || d < j.0 {
                    need.push((UserId(d.min(j.0)), UserId(d.max(j.0))));
                }
            }
        }
        rescored += need.len() as u64;
        reused += scores.len() as u64;
        scores.extend(scorer.score_all(exec, &need));
        for &u in &dirty {
            is_dirty[u] = false;
        }
    }
    ppdp_telemetry::counter("links.rescored", rescored);
    ppdp_telemetry::counter("links.rescore_saved", reused);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdp_classify::masked_weight;
    use ppdp_graph::{GraphBuilder, Schema};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Oracle: the relational distribution of `u` with neighbour `skip`
    /// excluded, recomputed from scratch (weights and sums) — the
    /// per-link evaluation the total − own scorer replaces.
    fn relational_without(
        lg: &LabeledGraph<'_>,
        dists: &[Vec<f64>],
        u: UserId,
        skip: UserId,
    ) -> Option<Vec<f64>> {
        let ns: Vec<UserId> = lg
            .graph
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&j| j != skip)
            .collect();
        if ns.is_empty() {
            return None;
        }
        let weights: Vec<f64> = ns.iter().map(|&j| masked_weight(lg, u, j)).collect();
        let total: f64 = weights.iter().sum();
        let mut out = vec![0.0; lg.n_classes()];
        if total > 0.0 {
            for (&j, &w) in ns.iter().zip(&weights) {
                for (o, p) in out.iter_mut().zip(&dists[j.0]) {
                    *o += w * p;
                }
            }
            for o in &mut out {
                *o /= total;
            }
        } else {
            for &j in &ns {
                for (o, p) in out.iter_mut().zip(&dists[j.0]) {
                    *o += p;
                }
            }
            for o in &mut out {
                *o /= ns.len() as f64;
            }
        }
        Some(out)
    }

    /// Oracle victim variance: `None` for a known user, the bootstrap
    /// variance when the candidate is the victim's sole link.
    fn oracle_variance(
        lg: &LabeledGraph<'_>,
        dists: &[Vec<f64>],
        u: UserId,
        skip: UserId,
    ) -> Option<f64> {
        if lg.known[u.0] {
            return None;
        }
        Some(
            relational_without(lg, dists, u, skip)
                .map(|d| dist_variance(&d))
                .unwrap_or_else(|| dist_variance(&dists[u.0])),
        )
    }

    /// Asserts every link's two victim variances agree with the oracle to
    /// 1e-12, and `indistinguishable_links` scores each link by them.
    fn assert_matches_oracle(lg: &LabeledGraph<'_>, dists: &[Vec<f64>]) -> usize {
        let scorer = LinkScorer::new(ExecPolicy::Sequential, lg, dists);
        let mut checked = 0;
        for (a, b) in lg.graph.edges() {
            for (u, skip) in [(a, b), (b, a)] {
                let got = scorer.victim_variance(u, skip);
                let want = oracle_variance(lg, dists, u, skip);
                match (got, want) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert!((x - y).abs() <= 1e-12, "{u:?} without {skip:?}: {x} vs {y}");
                        checked += 1;
                    }
                    _ => panic!("{u:?} without {skip:?}: {got:?} vs {want:?}"),
                }
            }
        }
        let scores = indistinguishable_links(lg, dists);
        assert_eq!(scores.len(), lg.graph.edge_count());
        for s in &scores {
            let want = [(s.user, s.neighbor), (s.neighbor, s.user)]
                .iter()
                .filter_map(|&(u, skip)| oracle_variance(lg, dists, u, skip))
                .fold(f64::INFINITY, f64::min);
            assert!(
                s.variance == want || (s.variance - want).abs() <= 1e-12,
                "{s:?} vs oracle {want}"
            );
        }
        checked
    }

    /// Label is category 2 (3 classes); categories 0 and 1 are features.
    /// Covers a degree-1 victim, a victim whose neighbours share no
    /// attribute (every weight 0), a victim with exactly one positive
    /// weight (removing that link leaves an all-zero rest), a victim that
    /// publishes no feature, and a known–known link.
    #[test]
    fn total_minus_own_scores_match_the_recomputation_oracle() {
        let mut b = GraphBuilder::new(Schema::uniform(3, 3));
        let hub = b.user_with(&[0, 0, 0]); // 0: victim, mixed weights
        let k1 = b.user_with(&[0, 1, 1]); // 1: known
        let k2 = b.user_with(&[0, 0, 2]); // 2: known
        let k3 = b.user_with(&[1, 1, 0]); // 3: known
        let leaf = b.user_with(&[0, 1, 1]); // 4: victim of degree 1
        let alien = b.user_with(&[2, 2, 1]); // 5: victim, shares nothing
        let single = b.user_with(&[1, 0, 2]); // 6: victim, one positive weight
        let blank = b.user(); // 7: victim publishing nothing
        b.edge(hub, k1)
            .edge(hub, k2)
            .edge(hub, k3)
            .edge(hub, single);
        b.edge(k1, k2); // known–known: +∞
        b.edge(leaf, k1);
        b.edge(alien, k1).edge(alien, k2).edge(alien, k3);
        b.edge(single, k1).edge(single, k3).edge(single, k2);
        b.edge(blank, k2).edge(blank, k3);
        let g = b.build();
        let known = vec![false, true, true, true, false, false, false, false];
        let lg = LabeledGraph::new(&g, CategoryId(2), known);
        let dists = vec![
            vec![0.2, 0.5, 0.3],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0],
            vec![0.6, 0.3, 0.1],
            vec![0.1, 0.1, 0.8],
            vec![0.3, 0.3, 0.4],
            vec![0.5, 0.25, 0.25],
        ];
        assert!(masked_weight(&lg, alien, k1) == 0.0 && masked_weight(&lg, alien, k3) == 0.0);
        assert!(masked_weight(&lg, single, k3) > 0.0 && masked_weight(&lg, single, k1) == 0.0);
        assert_eq!(assert_matches_oracle(&lg, &dists), 14);
        let scores = indistinguishable_links(&lg, &dists);
        let kk = scores
            .iter()
            .find(|s| s.user.0.min(s.neighbor.0) == 1 && s.user.0.max(s.neighbor.0) == 2)
            .unwrap();
        assert!(kk.variance.is_infinite(), "known–known link: {kk:?}");
    }

    #[test]
    fn total_minus_own_scores_match_the_oracle_on_random_graphs() {
        for seed in 0..6u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut b = GraphBuilder::new(Schema::uniform(4, 3));
            let users: Vec<UserId> = (0..40)
                .map(|_| {
                    let row: Vec<Option<u16>> = (0..4)
                        .map(|_| rng.gen_bool(0.8).then(|| rng.gen_range(0..3u16)))
                        .collect();
                    b.user_with_partial(&row)
                })
                .collect();
            for _ in 0..120 {
                let (x, y) = (rng.gen_range(0..40), rng.gen_range(0..40));
                if x != y {
                    b.edge(users[x], users[y]);
                }
            }
            let g = b.build();
            let known: Vec<bool> = (0..40).map(|_| rng.gen_bool(0.5)).collect();
            let lg = LabeledGraph::new(&g, CategoryId(3), known);
            let dists: Vec<Vec<f64>> = (0..40)
                .map(|_| {
                    let raw: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
                    let z: f64 = raw.iter().sum();
                    raw.iter().map(|x| x / z).collect()
                })
                .collect();
            assert!(assert_matches_oracle(&lg, &dists) > 0, "seed {seed}");
        }
    }

    #[test]
    fn top_k_selection_equals_the_full_sort_prefix() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // Heavy ties on variance, with ∞ and NaN in the mix; links are
        // distinct, so `rank` is total.
        let levels = [0.0, 0.25, 0.25, 0.5, f64::INFINITY, f64::NAN];
        let mut scores: Vec<LinkScore> = Vec::new();
        for a in 0..12 {
            for b in (a + 1)..12 {
                let (user, neighbor) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                scores.push(LinkScore {
                    user: UserId(user),
                    neighbor: UserId(neighbor),
                    variance: levels[rng.gen_range(0..levels.len())],
                });
            }
        }
        let mut sorted = scores.clone();
        sorted.sort_by(rank);
        for take in 0..=scores.len() {
            let mut picked = scores.clone();
            select_top(&mut picked, take);
            let same = picked[..take]
                .iter()
                .zip(&sorted[..take])
                .all(|(x, y)| rank(x, y) == Ordering::Equal);
            assert!(same, "take = {take}");
        }
    }

    #[test]
    fn variance_zero_for_uniform() {
        assert_eq!(dist_variance(&[0.25; 4]), 0.0);
        assert!(dist_variance(&[1.0, 0.0]) > 0.2);
        assert_eq!(dist_variance(&[]), 0.0);
    }

    /// u0 linked to two label-0 users and one label-1 user; label is
    /// category 1, category 0 is a feature everyone shares.
    fn star() -> SocialGraph {
        let mut b = GraphBuilder::new(Schema::uniform(2, 2));
        let u0 = b.user_with(&[0, 0]);
        let u1 = b.user_with(&[0, 0]);
        let u2 = b.user_with(&[0, 0]);
        let u3 = b.user_with(&[0, 1]);
        b.edge(u0, u1).edge(u0, u2).edge(u0, u3);
        b.build()
    }

    #[test]
    fn removing_same_class_link_is_most_indistinguishable() {
        let g = star();
        let lg = LabeledGraph::new(&g, CategoryId(1), vec![false, true, true, true]);
        // one-hot distributions for the known users, uniform for u0.
        let dists = vec![
            vec![0.5, 0.5],
            vec![1.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        ];
        let scores = indistinguishable_links(&lg, &dists);
        assert_eq!(scores.len(), 3);
        // Removing a u0-u1 or u0-u2 link leaves {0,1} neighbours → (0.5,0.5)
        // variance 0; removing u0-u3 leaves (1.0, 0.0) → high variance.
        let best = scores[0];
        assert!(best.neighbor == UserId(1) || best.neighbor == UserId(2));
        assert!(best.variance < 1e-9);
        assert!(scores[2].variance > 0.2);
        assert_eq!(scores[2].neighbor, UserId(3));
    }

    #[test]
    fn removal_produces_sanitized_graph() {
        let g = star();
        let out = remove_indistinguishable_links(
            &g,
            CategoryId(1),
            &[false, true, true, true],
            LocalKind::Bayes,
            2,
        )
        .unwrap();
        assert_eq!(out.edge_count(), 1);
        assert_eq!(g.edge_count(), 3, "original untouched");
        // The discriminative link to u3 must survive longest? No: it is the
        // *least* indistinguishable, so it is removed last — still present.
        assert!(out.has_edge(UserId(0), UserId(3)));
    }

    #[test]
    fn removing_more_links_than_exist_empties_graph() {
        let g = star();
        let out = remove_indistinguishable_links(
            &g,
            CategoryId(1),
            &[false, true, true, true],
            LocalKind::Bayes,
            99,
        )
        .unwrap();
        assert_eq!(out.edge_count(), 0);
    }

    #[test]
    fn sole_link_counts_as_fully_hidden() {
        let mut b = GraphBuilder::new(Schema::uniform(2, 2));
        let u0 = b.user_with(&[0, 0]);
        let u1 = b.user_with(&[0, 1]);
        b.edge(u0, u1);
        let g = b.build();
        let lg = LabeledGraph::new(&g, CategoryId(1), vec![false, true]);
        let dists = vec![vec![0.5, 0.5], vec![0.0, 1.0]];
        let scores = indistinguishable_links(&lg, &dists);
        assert_eq!(scores[0].variance, 0.0);
    }

    /// A chain of cliques wide enough to cross `PAR_MIN_EDGES`.
    fn big_graph() -> (SocialGraph, Vec<bool>) {
        clique_chain(8)
    }

    fn clique_chain(n_cliques: usize) -> (SocialGraph, Vec<bool>) {
        let mut b = GraphBuilder::new(Schema::uniform(2, 2));
        let mut prev = None;
        for c in 0..n_cliques {
            let label = (c % 2) as u16;
            let members: Vec<_> = (0..5)
                .map(|i| b.user_with(&[(i % 2) as u16, label]))
                .collect();
            for i in 0..5 {
                for j in (i + 1)..5 {
                    b.edge(members[i], members[j]);
                }
            }
            if let Some(p) = prev {
                b.edge(p, members[0]);
            }
            prev = Some(members[0]);
        }
        let mut known = vec![true; 5 * n_cliques];
        for c in 0..n_cliques {
            known[5 * c + 4] = false;
        }
        (b.build(), known)
    }

    #[test]
    fn parallel_policy_reproduces_sequential_scores_and_removals_bitwise() {
        let (g, known) = big_graph();
        assert!(
            g.edge_count() >= PAR_MIN_EDGES,
            "fixture must cross the gate"
        );
        let lg = LabeledGraph::new(&g, CategoryId(1), known.clone());
        let dists: Vec<Vec<f64>> = (0..g.user_count())
            .map(|u| {
                if known[u] {
                    vec![1.0, 0.0]
                } else {
                    vec![0.5, 0.5]
                }
            })
            .collect();
        let seq_scores = indistinguishable_links(&lg, &dists);
        let seq_graph =
            remove_indistinguishable_links(&g, CategoryId(1), &known, LocalKind::Bayes, 20)
                .unwrap();
        for threads in [1, 2, 8] {
            let exec = ExecPolicy::parallel(threads);
            assert_eq!(
                seq_scores,
                indistinguishable_links_with(exec, &lg, &dists),
                "threads = {threads}"
            );
            let par_graph = remove_indistinguishable_links_with(
                exec,
                &g,
                CategoryId(1),
                &known,
                LocalKind::Bayes,
                20,
            )
            .unwrap();
            assert_eq!(seq_graph, par_graph, "threads = {threads}");
        }
    }

    #[test]
    fn incremental_rescoring_matches_full_rescoring_across_batches() {
        // Reference: the pre-cache removal loop that re-scores every edge
        // of the current graph between batches. The cached loop must
        // produce the identical sanitized graph while re-scoring only
        // edges incident to a removed endpoint.
        let reference = |g: &SocialGraph, known: &[bool], count: usize| -> SocialGraph {
            let lg0 = LabeledGraph::new(g, CategoryId(1), known.to_vec());
            let boot =
                ppdp_classify::run_attack(&lg0, LocalKind::Bayes, AttackModel::AttrOnly).unwrap();
            let mut out = g.clone();
            let mut left = count;
            let batch = (count / 10).max(50);
            while left > 0 && out.edge_count() > 0 {
                let lg = LabeledGraph::new(&out, CategoryId(1), known.to_vec());
                let scores = indistinguishable_links(&lg, &boot.dists);
                let take = left.min(batch).min(scores.len());
                if take == 0 {
                    break;
                }
                for s in scores.into_iter().take(take) {
                    out.remove_edge(s.user, s.neighbor);
                }
                left -= take;
            }
            out
        };
        let (g, known) = big_graph();
        // 80 removals with batch = 50 → two scoring passes, so the dirty
        // path (second pass reuses clean cached scores) really runs.
        for count in [5, 20, 80] {
            let expect = reference(&g, &known, count);
            let got =
                remove_indistinguishable_links(&g, CategoryId(1), &known, LocalKind::Bayes, count)
                    .unwrap();
            assert_eq!(expect, got, "count = {count}");
        }
    }

    #[test]
    fn rescore_telemetry_reports_cache_reuse() {
        // Large enough that one 50-edge batch (tie-broken toward low user
        // ids, hence concentrated in the early cliques) leaves later
        // cliques untouched for the second pass to reuse.
        let (g, known) = clique_chain(24);
        let rec = ppdp_telemetry::Recorder::new();
        {
            let _scope = rec.enter();
            let _ = remove_indistinguishable_links(&g, CategoryId(1), &known, LocalKind::Bayes, 80)
                .unwrap();
        }
        let report = rec.take();
        assert!(
            report.counter("links.rescore_saved") > 0,
            "second pass must reuse scores of untouched edges"
        );
        assert!(report.counter("links.rescored") > 0);
    }

    #[test]
    fn mismatched_known_mask_is_a_typed_error() {
        let g = star();
        let err = remove_indistinguishable_links(
            &g,
            CategoryId(1),
            &[false, true], // graph has 4 users
            LocalKind::Bayes,
            1,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "invalid_input");
        assert!(err.to_string().contains("4"), "{err}");
        let err = remove_indistinguishable_links(
            &g,
            CategoryId(9),
            &[false, true, true, true],
            LocalKind::Bayes,
            1,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "invalid_input");
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn link_between_known_users_scores_infinite() {
        let mut b = GraphBuilder::new(Schema::uniform(2, 2));
        let u0 = b.user_with(&[0, 0]);
        let u1 = b.user_with(&[0, 1]);
        b.edge(u0, u1);
        let g = b.build();
        let lg = LabeledGraph::new(&g, CategoryId(1), vec![true, true]);
        let dists = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let scores = indistinguishable_links(&lg, &dists);
        assert!(scores[0].variance.is_infinite());
    }
}
