//! The bipartite factor graph of §5.4 / Fig. 5.1: SNP variable nodes, trait
//! variable nodes, and one factor node `f_ji(s_i, t_j)` per catalogued
//! SNP-trait association.
//!
//! The joint distribution is factorized as Eq. (5.2):
//! `p(X^U | S^K, T^K, C) = (1/Z) · Π_j P(t_j) · Π_{i,j} f_ji(s_i, t_j)`
//! with `f_ji(s, t) = P(s | t)` from Table 5.2. Known SNPs/traits enter as
//! clamped evidence. When a SNP participates in several associations the
//! product acts as a product-of-experts combination of its parents — the
//! same approximation the dissertation's pairwise factorization makes.
//!
//! # Layout
//!
//! Adjacency is stored as flat CSR (compressed sparse row) arrays rather
//! than `Vec<Vec<usize>>`: one `offsets` array per variable class plus a
//! packed `u32` item array. Neighbour walks in the BP hot loop are then a
//! single slice index with no pointer chasing, and the whole graph is three
//! contiguous allocations. Global→local id resolution goes through sorted
//! lookup tables (binary search) instead of `O(n)` scans or hash maps, so
//! construction and lookup order are deterministic independent of hasher
//! state.

use crate::catalog::GwasCatalog;
use crate::model::{Genotype, SnpId, TraitId};
use crate::tables::genotype_given_trait;
use ppdp_errors::{ensure, PpdpError, Result};
use std::collections::BTreeMap;

/// The attacker's background knowledge: released SNPs `S^K` and released
/// traits `T^K` (§5.3.2). Ordered maps keep every traversal (validation,
/// candidate enumeration, serialization) deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Evidence {
    /// Known genotypes.
    pub snps: BTreeMap<SnpId, Genotype>,
    /// Known trait statuses.
    pub traits: BTreeMap<TraitId, bool>,
}

impl Evidence {
    /// Empty evidence (a fully unobserved target).
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a known SNP; builder style.
    pub fn with_snp(mut self, s: SnpId, g: Genotype) -> Self {
        self.snps.insert(s, g);
        self
    }

    /// Adds a known trait; builder style.
    pub fn with_trait(mut self, t: TraitId, present: bool) -> Self {
        self.traits.insert(t, present);
        self
    }

    /// Checks that every referenced SNP and trait exists in `catalog`.
    ///
    /// # Errors
    /// [`PpdpError::InvalidInput`] naming the first dangling reference (in
    /// id order — the maps are sorted, so the choice is deterministic).
    pub fn validate_against(&self, catalog: &GwasCatalog) -> Result<()> {
        for s in self.snps.keys() {
            ensure(
                s.0 < catalog.n_snps(),
                format_args!(
                    "evidence references unknown SNP {s} (catalog has {} loci)",
                    catalog.n_snps()
                ),
            )?;
        }
        for t in self.traits.keys() {
            ensure(
                t.0 < catalog.n_traits(),
                format_args!(
                    "evidence references unknown trait {t} (catalog has {} traits)",
                    catalog.n_traits()
                ),
            )?;
        }
        Ok(())
    }
}

/// One pairwise factor `f_ji(s_i, t_j)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    /// Local index of the SNP variable.
    pub snp: usize,
    /// Local index of the trait variable.
    pub trait_idx: usize,
    /// `table[g][t] = P(genotype g | trait status t)` (t: 0 = absent,
    /// 1 = present).
    pub table: [[f64; 2]; 3],
}

/// A pairwise SNP-SNP factor between two genotype variables — used by the
/// kinship extension ([`crate::kinship`]) to encode Mendelian transmission
/// between a parent's and a child's genotype at the same locus.
#[derive(Debug, Clone, PartialEq)]
pub struct KinFactor {
    /// Local index of the parent's SNP variable.
    pub parent: usize,
    /// Local index of the child's SNP variable.
    pub child: usize,
    /// `table[p][c] = P(child genotype c | parent genotype p)`.
    pub table: [[f64; 3]; 3],
}

/// Flat CSR adjacency: `items[offsets[r] .. offsets[r+1]]` are row `r`'s
/// neighbour ids, in insertion order. Item ids are interned as `u32` — a
/// factor graph with more than 4 billion factors does not fit in memory
/// anyway, and the narrower ids halve the adjacency footprint.
#[derive(Debug, Clone, Default, PartialEq)]
struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Builds a CSR table from `(row, item)` memberships via counting sort.
    /// Pairs must be supplied in item order; within each row, items then
    /// come out in that same order (matching what repeated `Vec::push`
    /// construction produced).
    fn from_memberships(n_rows: usize, pairs: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0u32; n_rows + 1];
        for &(row, _) in pairs {
            offsets[row as usize + 1] += 1;
        }
        for r in 0..n_rows {
            offsets[r + 1] += offsets[r];
        }
        let mut cursor = offsets.clone();
        let mut items = vec![0u32; pairs.len()];
        for &(row, item) in pairs {
            let slot = cursor[row as usize];
            items[slot as usize] = item;
            cursor[row as usize] = slot + 1;
        }
        Self { offsets, items }
    }

    fn row(&self, r: usize) -> &[u32] {
        &self.items[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }
}

/// Sorted `(global id, local index)` lookup table. Duplicated global ids
/// (family graphs replicate the template per member) resolve to the lowest
/// local index, preserving first-occurrence semantics.
fn build_lookup<T: Ord + Copy>(ids: &[T]) -> Vec<(T, u32)> {
    let mut lookup: Vec<(T, u32)> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i as u32))
        .collect();
    lookup.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    lookup
}

fn lookup_local<T: Ord + Copy>(lookup: &[(T, u32)], id: T) -> Option<usize> {
    let i = lookup.partition_point(|&(x, _)| x < id);
    match lookup.get(i) {
        Some(&(x, local)) if x == id => Some(local as usize),
        _ => None,
    }
}

/// The compiled factor graph: only SNPs that participate in at least one
/// association are materialized (isolated SNPs carry no inferential signal).
///
/// The association/kin factor lists stay public (read-only consumers like
/// exhaustive enumeration and benches walk them directly); adjacency lives
/// in private CSR tables kept in sync by the constructors and
/// [`FactorGraph::add_kin_factor`] / [`FactorGraph::add_kin_factors`].
#[derive(Debug, Clone, PartialEq)]
pub struct FactorGraph {
    /// Global ids of the materialized SNP variables.
    pub snp_ids: Vec<SnpId>,
    /// Global ids of the materialized trait variables.
    pub trait_ids: Vec<TraitId>,
    /// Trait priors `[P(¬t), P(t)]` (prevalence), or clamped evidence.
    pub trait_prior: Vec<[f64; 2]>,
    /// SNP evidence: clamped genotype index, if known.
    pub snp_evidence: Vec<Option<usize>>,
    /// Trait evidence: clamped status, if known.
    pub trait_evidence: Vec<Option<bool>>,
    /// All pairwise SNP-trait factors.
    pub factors: Vec<Factor>,
    /// Mendelian-transmission factors between SNP variables (kinship).
    pub kin_factors: Vec<KinFactor>,
    /// CSR: SNP variable → adjacent association-factor ids.
    snp_adj: Csr,
    /// CSR: trait variable → adjacent association-factor ids.
    trait_adj: Csr,
    /// CSR: SNP variable → adjacent kin-factor ids.
    kin_adj: Csr,
    /// Sorted global→local SNP lookup.
    snp_lookup: Vec<(SnpId, u32)>,
    /// Sorted global→local trait lookup.
    trait_lookup: Vec<(TraitId, u32)>,
}

impl FactorGraph {
    /// Compiles `catalog` + `evidence` into a factor graph.
    ///
    /// This is the validation boundary for the whole genomic attack stack:
    /// the catalog is re-checked ([`GwasCatalog::validate`]), evidence may
    /// only reference catalogued loci/traits, and an association-free
    /// catalog (an *empty graph* — nothing to infer over) is rejected
    /// outright rather than yielding silently empty marginals.
    ///
    /// # Errors
    /// [`PpdpError::InvalidInput`] naming the offending record.
    pub fn build(catalog: &GwasCatalog, evidence: &Evidence) -> Result<Self> {
        catalog.validate()?;
        ensure(
            !catalog.associations().is_empty(),
            "catalog has no SNP-trait associations: the factor graph would be empty",
        )?;
        evidence.validate_against(catalog)?;
        // Intern in first-occurrence (association) order: local index = the
        // position of the id's first appearance in the catalog. `validate`
        // has range-checked every id, so dense tables indexed by global id
        // do the interning; the assigned order depends only on the
        // association list.
        const NEW: u32 = u32::MAX;
        let mut snp_local = vec![NEW; catalog.n_snps()];
        let mut trait_local = vec![NEW; catalog.n_traits()];
        let mut snp_ids = Vec::new();
        let mut trait_ids = Vec::new();
        let mut factors = Vec::with_capacity(catalog.associations().len());
        for assoc in catalog.associations() {
            let s = &mut snp_local[assoc.snp.0];
            if *s == NEW {
                *s = snp_ids.len() as u32;
                snp_ids.push(assoc.snp);
            }
            let t = &mut trait_local[assoc.trait_id.0];
            if *t == NEW {
                *t = trait_ids.len() as u32;
                trait_ids.push(assoc.trait_id);
            }
            let mut table = [[0.0; 2]; 3];
            for g in Genotype::ALL {
                table[g.index()][0] = genotype_given_trait(assoc, g, false);
                table[g.index()][1] = genotype_given_trait(assoc, g, true);
            }
            factors.push(Factor {
                snp: *s as usize,
                trait_idx: *t as usize,
                table,
            });
        }

        let trait_prior: Vec<[f64; 2]> = trait_ids
            .iter()
            .map(|&t| {
                let p = catalog.trait_info(t).prevalence;
                [1.0 - p, p]
            })
            .collect();

        let snp_evidence: Vec<Option<usize>> = snp_ids
            .iter()
            .map(|s| evidence.snps.get(s).map(|g| g.index()))
            .collect();
        let trait_evidence: Vec<Option<bool>> = trait_ids
            .iter()
            .map(|t| evidence.traits.get(t).copied())
            .collect();

        Ok(Self::assemble(
            snp_ids,
            trait_ids,
            trait_prior,
            snp_evidence,
            trait_evidence,
            factors,
        ))
    }

    /// Assembles a graph from pre-built parts, deriving the CSR adjacency
    /// and lookup tables. Used by [`FactorGraph::build`] and by callers
    /// (e.g. [`crate::kinship`]) that construct replicated graphs directly.
    ///
    /// # Errors
    /// [`PpdpError::InvalidInput`] when vector lengths disagree or a factor
    /// references an out-of-range variable.
    pub fn from_parts(
        snp_ids: Vec<SnpId>,
        trait_ids: Vec<TraitId>,
        trait_prior: Vec<[f64; 2]>,
        snp_evidence: Vec<Option<usize>>,
        trait_evidence: Vec<Option<bool>>,
        factors: Vec<Factor>,
    ) -> Result<Self> {
        ensure(
            snp_evidence.len() == snp_ids.len(),
            format_args!(
                "snp_evidence has {} entries for {} SNP variables",
                snp_evidence.len(),
                snp_ids.len()
            ),
        )?;
        ensure(
            trait_prior.len() == trait_ids.len() && trait_evidence.len() == trait_ids.len(),
            format_args!(
                "trait_prior/trait_evidence have {}/{} entries for {} trait variables",
                trait_prior.len(),
                trait_evidence.len(),
                trait_ids.len()
            ),
        )?;
        for (i, f) in factors.iter().enumerate() {
            ensure(
                f.snp < snp_ids.len() && f.trait_idx < trait_ids.len(),
                format_args!(
                    "factor {i} references (snp {}, trait {}) outside {}×{} variables",
                    f.snp,
                    f.trait_idx,
                    snp_ids.len(),
                    trait_ids.len()
                ),
            )?;
        }
        Ok(Self::assemble(
            snp_ids,
            trait_ids,
            trait_prior,
            snp_evidence,
            trait_evidence,
            factors,
        ))
    }

    fn assemble(
        snp_ids: Vec<SnpId>,
        trait_ids: Vec<TraitId>,
        trait_prior: Vec<[f64; 2]>,
        snp_evidence: Vec<Option<usize>>,
        trait_evidence: Vec<Option<bool>>,
        factors: Vec<Factor>,
    ) -> Self {
        let snp_pairs: Vec<(u32, u32)> = factors
            .iter()
            .enumerate()
            .map(|(i, f)| (f.snp as u32, i as u32))
            .collect();
        let trait_pairs: Vec<(u32, u32)> = factors
            .iter()
            .enumerate()
            .map(|(i, f)| (f.trait_idx as u32, i as u32))
            .collect();
        let snp_adj = Csr::from_memberships(snp_ids.len(), &snp_pairs);
        let trait_adj = Csr::from_memberships(trait_ids.len(), &trait_pairs);
        let kin_adj = Csr::from_memberships(snp_ids.len(), &[]);
        let snp_lookup = build_lookup(&snp_ids);
        let trait_lookup = build_lookup(&trait_ids);
        Self {
            snp_ids,
            trait_ids,
            trait_prior,
            snp_evidence,
            trait_evidence,
            factors,
            kin_factors: Vec::new(),
            snp_adj,
            trait_adj,
            kin_adj,
            snp_lookup,
            trait_lookup,
        }
    }

    /// Appends a Mendelian-transmission factor between two materialized SNP
    /// variables (same locus, different individuals). Used by
    /// [`crate::kinship`]. Appending many factors one at a time rebuilds
    /// the kin adjacency each call — batch callers should prefer
    /// [`FactorGraph::add_kin_factors`].
    ///
    /// # Errors
    /// [`PpdpError::InvalidInput`] on out-of-range variable indices, a
    /// self-edge, or a table containing negative or non-finite entries.
    pub fn add_kin_factor(
        &mut self,
        parent: usize,
        child: usize,
        table: [[f64; 3]; 3],
    ) -> Result<()> {
        self.add_kin_factors([(parent, child, table)])
    }

    /// Appends a batch of Mendelian-transmission factors, validating every
    /// entry before mutating the graph (failure leaves it unchanged) and
    /// rebuilding the kin CSR adjacency once.
    ///
    /// # Errors
    /// [`PpdpError::InvalidInput`] as for [`FactorGraph::add_kin_factor`].
    pub fn add_kin_factors(
        &mut self,
        batch: impl IntoIterator<Item = (usize, usize, [[f64; 3]; 3])>,
    ) -> Result<()> {
        let batch: Vec<(usize, usize, [[f64; 3]; 3])> = batch.into_iter().collect();
        for &(parent, child, ref table) in &batch {
            ensure(
                parent < self.n_snps() && child < self.n_snps(),
                format_args!(
                    "kin factor ({parent}, {child}) out of range: graph has {} SNP variables",
                    self.n_snps()
                ),
            )?;
            ensure(
                parent != child,
                format_args!("kin factor ({parent}, {child}) links a variable to itself"),
            )?;
            for (p, row) in table.iter().enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    if !v.is_finite() || v < 0.0 {
                        return Err(PpdpError::invalid_input(format!(
                            "kin factor ({parent}, {child}) table[{p}][{c}] = {v} is not a \
                             non-negative finite weight"
                        )));
                    }
                }
            }
        }
        self.kin_factors
            .extend(batch.into_iter().map(|(parent, child, table)| KinFactor {
                parent,
                child,
                table,
            }));
        // Rebuild the kin CSR from scratch: each factor contributes its
        // parent and child memberships, in factor order (parent first),
        // matching what per-edge `Vec::push` produced.
        let mut pairs = Vec::with_capacity(self.kin_factors.len() * 2);
        for (k, f) in self.kin_factors.iter().enumerate() {
            pairs.push((f.parent as u32, k as u32));
            pairs.push((f.child as u32, k as u32));
        }
        self.kin_adj = Csr::from_memberships(self.n_snps(), &pairs);
        Ok(())
    }

    /// Number of SNP variables.
    pub fn n_snps(&self) -> usize {
        self.snp_ids.len()
    }

    /// Number of trait variables.
    pub fn n_traits(&self) -> usize {
        self.trait_ids.len()
    }

    /// Association-factor ids adjacent to SNP variable `s`, in factor order.
    pub fn snp_factor_ids(&self, s: usize) -> &[u32] {
        self.snp_adj.row(s)
    }

    /// Association-factor ids adjacent to trait variable `t`, in factor
    /// order.
    pub fn trait_factor_ids(&self, t: usize) -> &[u32] {
        self.trait_adj.row(t)
    }

    /// Kin-factor ids adjacent to SNP variable `s`.
    pub fn snp_kin_ids(&self, s: usize) -> &[u32] {
        self.kin_adj.row(s)
    }

    /// Total factor degree of SNP variable `s` (association + kin). The
    /// incoming message *product* at a variable has components that
    /// shrink roughly like `0.5^degree`, so linear-domain messages (the
    /// [`crate::IncrementalBp`] engine) underflow to exact zero near
    /// degree ≈ 1000, while the log-domain kernels of [`BpConfig::run`]
    /// do not.
    ///
    /// [`BpConfig::run`]: crate::BpConfig::run
    pub fn snp_degree(&self, s: usize) -> usize {
        self.snp_factor_ids(s).len() + self.snp_kin_ids(s).len()
    }

    /// Total factor degree of trait variable `t` (see
    /// [`FactorGraph::snp_degree`]).
    pub fn trait_degree(&self, t: usize) -> usize {
        self.trait_factor_ids(t).len()
    }

    /// Local index of global SNP `s`, if materialized (binary search; the
    /// first occurrence wins when ids repeat, as in family graphs).
    pub fn snp_local(&self, s: SnpId) -> Option<usize> {
        lookup_local(&self.snp_lookup, s)
    }

    /// Local index of global trait `t`, if materialized.
    pub fn trait_local(&self, t: TraitId) -> Option<usize> {
        lookup_local(&self.trait_lookup, t)
    }

    /// Whether the factor graph is a forest (no cycles). BP is exact on
    /// forests, approximate otherwise — useful for tests and diagnostics.
    pub fn is_forest(&self) -> bool {
        // Union-find over variable nodes; each factor is an edge
        // snp ↔ trait. A cycle appears iff an edge joins two nodes already
        // connected.
        let n = self.n_snps() + self.n_traits();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for f in &self.factors {
            let a = find(&mut parent, f.snp);
            let b = find(&mut parent, self.n_snps() + f.trait_idx);
            if a == b {
                return false;
            }
            parent[a] = b;
        }
        for f in &self.kin_factors {
            let a = find(&mut parent, f.parent);
            let b = find(&mut parent, f.child);
            if a == b {
                return false;
            }
            parent[a] = b;
        }
        true
    }
}

/// Builds the 3-trait/5-SNP example factor graph of Fig. 5.1:
/// `{s1,s2} → t1`, `{s2,s3,s4} → t2`, `{s5} → t3`.
pub fn figure_5_1_catalog() -> GwasCatalog {
    let mut c = GwasCatalog::new(5);
    let t1 = c.add_trait("t1", 0.1);
    let t2 = c.add_trait("t2", 0.2);
    let t3 = c.add_trait("t3", 0.05);
    c.associate(SnpId(0), t1, 1.5, 0.3);
    c.associate(SnpId(1), t1, 1.3, 0.25);
    c.associate(SnpId(1), t2, 1.8, 0.25);
    c.associate(SnpId(2), t2, 1.2, 0.4);
    c.associate(SnpId(3), t2, 2.0, 0.15);
    c.associate(SnpId(4), t3, 1.6, 0.2);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_5_1_structure() {
        let g = FactorGraph::build(&figure_5_1_catalog(), &Evidence::none()).unwrap();
        assert_eq!(g.n_snps(), 5);
        assert_eq!(g.n_traits(), 3);
        assert_eq!(g.factors.len(), 6);
        // s2 (index 1) participates in two factors (t1 and t2).
        let s2 = g.snp_local(SnpId(1)).unwrap();
        assert_eq!(g.snp_factor_ids(s2).len(), 2);
        // t2 has three SNP neighbours.
        let t2 = g.trait_local(TraitId(1)).unwrap();
        assert_eq!(g.trait_factor_ids(t2).len(), 3);
        assert!(g.is_forest(), "Fig. 5.1 is a tree");
    }

    #[test]
    fn csr_adjacency_matches_factor_list() {
        let g = FactorGraph::build(&figure_5_1_catalog(), &Evidence::none()).unwrap();
        // Every factor appears exactly once in its SNP's and trait's rows,
        // and rows are in ascending factor order (insertion order).
        for s in 0..g.n_snps() {
            let row = g.snp_factor_ids(s);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row sorted: {row:?}");
            for &f in row {
                assert_eq!(g.factors[f as usize].snp, s);
            }
        }
        for t in 0..g.n_traits() {
            for &f in g.trait_factor_ids(t) {
                assert_eq!(g.factors[f as usize].trait_idx, t);
            }
        }
        let total: usize = (0..g.n_snps()).map(|s| g.snp_factor_ids(s).len()).sum();
        assert_eq!(total, g.factors.len());
    }

    #[test]
    fn kin_adjacency_tracks_batched_appends() {
        let mut g = FactorGraph::build(&figure_5_1_catalog(), &Evidence::none()).unwrap();
        g.add_kin_factors([
            (0, 1, [[0.5; 3]; 3]),
            (1, 2, [[0.5; 3]; 3]),
            (0, 3, [[0.5; 3]; 3]),
        ])
        .unwrap();
        assert_eq!(g.snp_kin_ids(0), &[0, 2]);
        assert_eq!(g.snp_kin_ids(1), &[0, 1]);
        assert_eq!(g.snp_kin_ids(2), &[1]);
        assert_eq!(g.snp_kin_ids(3), &[2]);
        assert_eq!(g.snp_kin_ids(4), &[] as &[u32]);
        // A failed batch mutates nothing.
        let before = g.clone();
        assert!(g
            .add_kin_factors([(3, 4, [[0.5; 3]; 3]), (1, 1, [[0.5; 3]; 3])])
            .is_err());
        assert_eq!(g, before);
    }

    #[test]
    fn from_parts_validates_factor_ranges() {
        let g = FactorGraph::build(&figure_5_1_catalog(), &Evidence::none()).unwrap();
        let rebuilt = FactorGraph::from_parts(
            g.snp_ids.clone(),
            g.trait_ids.clone(),
            g.trait_prior.clone(),
            g.snp_evidence.clone(),
            g.trait_evidence.clone(),
            g.factors.clone(),
        )
        .unwrap();
        assert_eq!(g, rebuilt);

        let mut bad = g.factors.clone();
        bad[0].snp = 99;
        let e = FactorGraph::from_parts(
            g.snp_ids.clone(),
            g.trait_ids.clone(),
            g.trait_prior.clone(),
            g.snp_evidence.clone(),
            g.trait_evidence.clone(),
            bad,
        )
        .unwrap_err();
        assert!(e.to_string().contains("factor 0"), "{e}");

        let e = FactorGraph::from_parts(
            g.snp_ids.clone(),
            g.trait_ids.clone(),
            g.trait_prior.clone(),
            vec![None; 2],
            g.trait_evidence.clone(),
            g.factors.clone(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("snp_evidence"), "{e}");
    }

    #[test]
    fn evidence_is_clamped() {
        let ev = Evidence::none()
            .with_snp(SnpId(0), Genotype::Het)
            .with_trait(TraitId(2), true);
        let g = FactorGraph::build(&figure_5_1_catalog(), &ev).unwrap();
        let s = g.snp_local(SnpId(0)).unwrap();
        assert_eq!(g.snp_evidence[s], Some(1));
        let t = g.trait_local(TraitId(2)).unwrap();
        assert_eq!(g.trait_evidence[t], Some(true));
    }

    #[test]
    fn factor_tables_are_conditional_distributions() {
        let g = FactorGraph::build(&figure_5_1_catalog(), &Evidence::none()).unwrap();
        for f in &g.factors {
            for t in 0..2 {
                let total: f64 = (0..3).map(|s| f.table[s][t]).sum();
                assert!((total - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cycle_detection() {
        // Two traits sharing two SNPs forms a 4-cycle.
        let mut c = GwasCatalog::new(2);
        let t0 = c.add_trait("a", 0.1);
        let t1 = c.add_trait("b", 0.1);
        for s in 0..2 {
            c.associate(SnpId(s), t0, 1.5, 0.3);
            c.associate(SnpId(s), t1, 1.5, 0.3);
        }
        let g = FactorGraph::build(&c, &Evidence::none()).unwrap();
        assert!(!g.is_forest());
    }

    #[test]
    fn empty_catalog_rejected() {
        let c = GwasCatalog::new(3);
        let e = FactorGraph::build(&c, &Evidence::none()).unwrap_err();
        assert_eq!(e.kind(), "invalid_input");
        assert!(e.to_string().contains("no SNP-trait associations"), "{e}");
    }

    #[test]
    fn dangling_evidence_rejected() {
        let cat = figure_5_1_catalog();
        let ev = Evidence::none().with_snp(SnpId(42), Genotype::Het);
        let e = FactorGraph::build(&cat, &ev).unwrap_err();
        assert!(e.to_string().contains("s42"), "names the SNP: {e}");
        let ev = Evidence::none().with_trait(TraitId(9), true);
        let e = FactorGraph::build(&cat, &ev).unwrap_err();
        assert!(e.to_string().contains("t9"), "names the trait: {e}");
    }

    #[test]
    fn corrupted_catalog_rejected_at_build() {
        let mut cat = figure_5_1_catalog();
        cat.associations_mut()[2].raf_control = f64::NAN;
        let e = FactorGraph::build(&cat, &Evidence::none()).unwrap_err();
        assert_eq!(e.kind(), "invalid_input");
    }

    #[test]
    fn degenerate_kin_factors_rejected() {
        let mut g = FactorGraph::build(&figure_5_1_catalog(), &Evidence::none()).unwrap();
        assert!(g.add_kin_factor(0, 99, [[0.5; 3]; 3]).is_err(), "dangling");
        assert!(g.add_kin_factor(1, 1, [[0.5; 3]; 3]).is_err(), "self-edge");
        let mut bad = [[0.5; 3]; 3];
        bad[1][2] = f64::NAN;
        assert!(g.add_kin_factor(0, 1, bad).is_err(), "NaN entry");
        bad[1][2] = -0.25;
        assert!(g.add_kin_factor(0, 1, bad).is_err(), "negative entry");
        assert!(g.add_kin_factor(0, 1, [[0.5; 3]; 3]).is_ok());
    }

    #[test]
    fn isolated_snps_not_materialized() {
        let mut c = GwasCatalog::new(10);
        let t = c.add_trait("x", 0.1);
        c.associate(SnpId(7), t, 1.5, 0.3);
        let g = FactorGraph::build(&c, &Evidence::none()).unwrap();
        assert_eq!(g.n_snps(), 1);
        assert_eq!(g.snp_ids, vec![SnpId(7)]);
        assert_eq!(g.snp_local(SnpId(0)), None);
    }

    #[test]
    fn duplicate_ids_resolve_to_first_occurrence() {
        // Family-style graph: the same global ids appear once per member.
        let g = FactorGraph::build(&figure_5_1_catalog(), &Evidence::none()).unwrap();
        let m = 3usize;
        let ns = g.n_snps();
        let mut snp_ids = Vec::new();
        let mut trait_ids = Vec::new();
        let mut trait_prior = Vec::new();
        let mut factors = Vec::new();
        for member in 0..m {
            snp_ids.extend_from_slice(&g.snp_ids);
            trait_ids.extend_from_slice(&g.trait_ids);
            trait_prior.extend_from_slice(&g.trait_prior);
            factors.extend(g.factors.iter().map(|f| Factor {
                snp: f.snp + member * ns,
                trait_idx: f.trait_idx + member * g.n_traits(),
                table: f.table,
            }));
        }
        let big = FactorGraph::from_parts(
            snp_ids,
            trait_ids,
            trait_prior,
            vec![None; ns * m],
            vec![None; g.n_traits() * m],
            factors,
        )
        .unwrap();
        for s in 0..ns {
            assert_eq!(big.snp_local(g.snp_ids[s]), Some(s), "member-0 copy wins");
        }
    }

    #[test]
    fn boundary_messages_name_the_record_verbatim() {
        let cat = figure_5_1_catalog();
        let msg = |e: PpdpError| e.to_string();
        let e = Evidence::none().with_snp(SnpId(42), Genotype::Het);
        assert_eq!(
            msg(e.validate_against(&cat).unwrap_err()),
            "invalid input: evidence references unknown SNP s42 (catalog has 5 loci)"
        );
        let e = Evidence::none().with_trait(TraitId(9), true);
        assert_eq!(
            msg(e.validate_against(&cat).unwrap_err()),
            "invalid input: evidence references unknown trait t9 (catalog has 3 traits)"
        );

        let g = FactorGraph::build(&cat, &Evidence::none()).unwrap();
        let parts = |f: &dyn Fn(&mut FactorGraph)| {
            let mut h = g.clone();
            f(&mut h);
            FactorGraph::from_parts(
                h.snp_ids,
                h.trait_ids,
                h.trait_prior,
                h.snp_evidence,
                h.trait_evidence,
                h.factors,
            )
            .unwrap_err()
        };
        assert_eq!(
            msg(parts(&|h| h.snp_evidence.push(None))),
            "invalid input: snp_evidence has 6 entries for 5 SNP variables"
        );
        assert_eq!(
            msg(parts(&|h| {
                h.trait_prior.pop();
            })),
            "invalid input: trait_prior/trait_evidence have 2/3 entries for 3 trait variables"
        );
        assert_eq!(
            msg(parts(&|h| h.factors[4].trait_idx = 8)),
            "invalid input: factor 4 references (snp 3, trait 8) outside 5×3 variables"
        );

        let mut g = g;
        assert_eq!(
            msg(g.add_kin_factor(0, 99, [[0.5; 3]; 3]).unwrap_err()),
            "invalid input: kin factor (0, 99) out of range: graph has 5 SNP variables"
        );
        assert_eq!(
            msg(g.add_kin_factor(1, 1, [[0.5; 3]; 3]).unwrap_err()),
            "invalid input: kin factor (1, 1) links a variable to itself"
        );
    }

    #[test]
    fn dense_interning_keeps_first_occurrence_order() {
        // Ids arrive out of order and repeat; locals follow first sight.
        let mut c = GwasCatalog::new(10);
        let a = c.add_trait("a", 0.1);
        let b = c.add_trait("b", 0.2);
        c.associate(SnpId(9), b, 1.5, 0.3);
        c.associate(SnpId(2), a, 1.3, 0.25);
        c.associate(SnpId(9), a, 1.8, 0.25);
        c.associate(SnpId(4), b, 1.2, 0.4);
        let g = FactorGraph::build(&c, &Evidence::none()).unwrap();
        assert_eq!(g.snp_ids, vec![SnpId(9), SnpId(2), SnpId(4)]);
        assert_eq!(g.trait_ids, vec![b, a]);
        let ends: Vec<(usize, usize)> = g.factors.iter().map(|f| (f.snp, f.trait_idx)).collect();
        assert_eq!(ends, vec![(0, 0), (1, 1), (0, 1), (2, 0)]);
        assert_eq!(g.trait_prior[0], [0.8, 0.2]);
    }
}
