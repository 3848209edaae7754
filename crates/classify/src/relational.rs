//! The weighted relational classifier (weighted-vote Relational Neighbour,
//! Eq. 3.3 / 4.3): a user's class distribution is the `W_{i,j}`-weighted
//! average of its neighbours' current distributions.

use crate::dataset::LabeledGraph;
use ppdp_exec::ExecPolicy;
use ppdp_graph::UserId;

/// The evolving per-user class distributions used by relational and
/// collective inference. Known users are pinned to one-hot distributions.
#[derive(Debug, Clone)]
pub struct RelationalState {
    /// `dist[u]` = current class distribution of user `u`.
    pub dist: Vec<Vec<f64>>,
    n_classes: usize,
}

impl RelationalState {
    /// Initializes: known users one-hot on their true label, unknown users
    /// uniform.
    pub fn new(lg: &LabeledGraph<'_>) -> Self {
        let n_classes = lg.n_classes();
        let uniform = vec![1.0 / n_classes as f64; n_classes];
        let dist = lg
            .graph
            .users()
            .map(|u| match (lg.known[u.0], lg.true_label(u)) {
                (true, Some(y)) => one_hot(y, n_classes),
                _ => uniform.clone(),
            })
            .collect();
        Self { dist, n_classes }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Replaces the distribution of `u` (unknown users only, callers must
    /// not overwrite pinned known users).
    pub fn set(&mut self, u: UserId, d: Vec<f64>) {
        debug_assert_eq!(d.len(), self.n_classes);
        self.dist[u.0] = d;
    }
}

/// One-hot distribution for class `y`.
pub fn one_hot(y: u16, n: usize) -> Vec<f64> {
    let mut d = vec![0.0; n];
    d[y as usize] = 1.0;
    d
}

/// The wvRN weight `W_{i,j}` of Eq. (3.2)/(4.2) computed with the label
/// column masked, so the attacker's weights never peek at ground truth.
pub fn masked_weight(lg: &LabeledGraph<'_>, i: UserId, j: UserId) -> f64 {
    let label = lg.label_cat.0;
    let (ri, rj) = (lg.graph.attr_row(i), lg.graph.attr_row(j));
    let denom = ri
        .iter()
        .enumerate()
        .filter(|(c, v)| *c != label && v.is_some())
        .count();
    if denom == 0 {
        return 0.0;
    }
    let shared = ri
        .iter()
        .zip(rj)
        .enumerate()
        .filter(|(c, (x, y))| *c != label && x.is_some() && x == y)
        .count();
    shared as f64 / denom as f64
}

/// CSR arena of [`masked_weight`] values: row `i` holds `W_{u,j}` for
/// `u = users[i]`, aligned element-for-element with
/// `lg.graph.neighbors(u)`.
///
/// The weights are a pure function of the published attribute table, so
/// ICA's sweeps, the LinkOnly pass, every Gibbs sweep and the link scorer
/// read one arena built once per [`LabeledGraph`] instead of recomputing an
/// O(attributes) weight per edge per pass. The cached values are the ones
/// [`masked_weight`] returns, and readers sum them in neighbour order, so
/// cached and recomputed inference agree bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationalWeights {
    off: Vec<usize>,
    w: Vec<f64>,
}

impl RelationalWeights {
    /// Builds the rows of `users` (typically [`LabeledGraph::unknown_users`],
    /// the users whose relational distribution is read). Rows are
    /// independent and collected in index order, so the arena is identical
    /// for every execution policy.
    pub fn build(lg: &LabeledGraph<'_>, users: &[UserId], exec: ExecPolicy) -> Self {
        let rows: Vec<Vec<f64>> = exec.par_map(users.len(), |i| {
            let u = users[i];
            lg.graph
                .neighbors(u)
                .iter()
                .map(|&j| masked_weight(lg, u, j))
                .collect()
        });
        let mut off = Vec::with_capacity(users.len() + 1);
        off.push(0);
        let mut w = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        for row in &rows {
            w.extend_from_slice(row);
            off.push(w.len());
        }
        Self { off, w }
    }

    /// The weight row of `users[i]`, aligned with its neighbour list.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.w[self.off[i]..self.off[i + 1]]
    }

    /// Number of cached weights (the summed degree of the built users).
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// Whether no weight is cached.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }
}

/// Relational distribution `P(y^i_t | N_i)` per Eq. (4.3): the wvRN-weighted
/// average of neighbours' distributions,
/// `P(y^i_t | N_i) = Σ_j P(y^j_t) · W_{i,j} / Σ_k W_{i,k}`.
///
/// Returns `None` when `u` has no neighbours, or when every weight is zero
/// *and* there are no neighbours to average at all — in the all-zero-weight
/// case the unweighted mean of Eq. (4.1) is used instead, matching the
/// paper's fallback from the weighted to the plain average.
///
/// Recomputes `u`'s weights; inference loops read a [`RelationalWeights`]
/// row through [`relational_dist_from`] instead.
pub fn relational_dist(
    lg: &LabeledGraph<'_>,
    state: &RelationalState,
    u: UserId,
) -> Option<Vec<f64>> {
    let ns = lg.graph.neighbors(u);
    let weights: Vec<f64> = ns.iter().map(|&j| masked_weight(lg, u, j)).collect();
    relational_dist_from(state, ns, &weights)
}

/// [`relational_dist`] over the neighbour list `ns` with its weight row
/// `weights` (element-for-element, e.g. a [`RelationalWeights::row`]).
pub fn relational_dist_from(
    state: &RelationalState,
    ns: &[UserId],
    weights: &[f64],
) -> Option<Vec<f64>> {
    debug_assert_eq!(ns.len(), weights.len());
    if ns.is_empty() {
        return None;
    }
    let mut out = vec![0.0; state.n_classes()];
    let total: f64 = weights.iter().sum();
    if total > 0.0 {
        for (&j, &w) in ns.iter().zip(weights) {
            for (o, p) in out.iter_mut().zip(&state.dist[j.0]) {
                *o += w * p;
            }
        }
        for o in &mut out {
            *o /= total;
        }
    } else {
        // Eq. (4.1): plain average when no attribute overlap exists.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ppdp_graph::{CategoryId, GraphBuilder, Schema, SocialGraph};

    /// Star: u0 centre, linked to u1 (label 0), u2 (label 0), u3 (label 1).
    /// Attribute columns 0-1 are features, column 2 is the label.
    fn star() -> SocialGraph {
        let mut b = GraphBuilder::new(Schema::uniform(3, 2));
        let u0 = b.user_with(&[0, 0, 0]);
        let u1 = b.user_with(&[0, 0, 0]); // shares 2 attrs with u0
        let u2 = b.user_with(&[0, 1, 0]); // shares 1
        let u3 = b.user_with(&[1, 1, 1]); // shares 0
        b.edge(u0, u1).edge(u0, u2).edge(u0, u3);
        b.build()
    }

    #[test]
    fn weighted_average_prefers_similar_neighbours() {
        let g = star();
        let lg = LabeledGraph::new(&g, CategoryId(2), vec![false, true, true, true]);
        let state = RelationalState::new(&lg);
        let d = relational_dist(&lg, &state, UserId(0)).unwrap();
        // Masked weights from u0: u1 shares both features (w=1), u2 shares
        // one (w=0.5), u3 shares none (w=0) → P(class 0) = 1.5/1.5 = 1.
        assert!((d[0] - 1.0).abs() < 1e-12, "{d:?}");
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Weight computation itself masks the label column.
        assert!((masked_weight(&lg, UserId(0), UserId(2)) - 0.5).abs() < 1e-12);
        assert!(masked_weight(&lg, UserId(0), UserId(3)).abs() < 1e-12);
    }

    #[test]
    fn cached_rows_are_the_recomputed_weights_bitwise() {
        let g = star();
        let lg = LabeledGraph::new(&g, CategoryId(2), vec![false, true, false, true]);
        let users = [UserId(0), UserId(2), UserId(3)];
        let w = RelationalWeights::build(&lg, &users, ExecPolicy::Sequential);
        assert_eq!(
            w,
            RelationalWeights::build(&lg, &users, ExecPolicy::parallel(2))
        );
        assert_eq!(w.len(), 5);
        let state = RelationalState::new(&lg);
        for (i, &u) in users.iter().enumerate() {
            let ns = g.neighbors(u);
            let want: Vec<u64> = ns
                .iter()
                .map(|&j| masked_weight(&lg, u, j).to_bits())
                .collect();
            let got: Vec<u64> = w.row(i).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "row of {u:?}");
            assert_eq!(
                relational_dist_from(&state, ns, w.row(i)),
                relational_dist(&lg, &state, u)
            );
        }
    }

    #[test]
    fn isolated_user_returns_none() {
        let mut b = GraphBuilder::new(Schema::uniform(2, 2));
        b.user_with(&[0, 0]);
        let g = b.build();
        let lg = LabeledGraph::new(&g, CategoryId(1), vec![false]);
        let state = RelationalState::new(&lg);
        assert!(relational_dist(&lg, &state, UserId(0)).is_none());
    }

    #[test]
    fn zero_weights_fall_back_to_plain_average() {
        // u0 publishes nothing → all wvRN weights are 0 → Eq. (4.1) average.
        let mut b = GraphBuilder::new(Schema::uniform(2, 2));
        let u0 = b.user();
        let u1 = b.user_with(&[0, 0]);
        let u2 = b.user_with(&[1, 1]);
        b.edge(u0, u1).edge(u0, u2);
        let g = b.build();
        let lg = LabeledGraph::new(&g, CategoryId(1), vec![false, true, true]);
        let state = RelationalState::new(&lg);
        let d = relational_dist(&lg, &state, UserId(0)).unwrap();
        assert!((d[0] - 0.5).abs() < 1e-12 && (d[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn state_pins_known_users() {
        let g = star();
        let lg = LabeledGraph::new(&g, CategoryId(2), vec![false, true, true, true]);
        let state = RelationalState::new(&lg);
        assert_eq!(state.dist[3], vec![0.0, 1.0]);
        assert_eq!(state.dist[0], vec![0.5, 0.5]);
    }
}
