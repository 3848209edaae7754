//! Synthetic GWAS catalogs: SNP-trait associations with realistic odds
//! ratios and control-group risk-allele frequencies, using the Table 5.3
//! disease list by default.

use ppdp_genomic::{GwasCatalog, SnpId, TraitId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Builds a synthetic catalog over the Table 5.3 diseases.
///
/// * `n_snps` — total SNP loci (most unassociated, as in real panels);
/// * `assoc_per_trait` — associations per trait;
/// * `shared_per_trait` — how many of each trait's SNPs are *shared* with
///   the previous trait, creating the cross-trait paths belief propagation
///   exploits (Fig. 5.1's `s2` pattern);
/// * odds ratios are drawn from `[1.05, 2.5]` and control RAFs from
///   `[0.05, 0.95]`, the ranges typical of GWAS-Catalog entries.
///
/// # Panics
/// Panics if the SNP pool is too small for the requested associations.
pub fn synthetic_catalog(
    n_snps: usize,
    assoc_per_trait: usize,
    shared_per_trait: usize,
    seed: u64,
) -> GwasCatalog {
    assert!(
        shared_per_trait < assoc_per_trait,
        "need at least one exclusive SNP per trait"
    );
    let mut catalog = GwasCatalog::with_table_5_3_traits(n_snps);
    let n_traits = catalog.n_traits();
    assert!(
        n_traits * assoc_per_trait <= n_snps,
        "SNP pool too small: need ≤ {n_snps} loci, traits want {}",
        n_traits * assoc_per_trait
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    associate_chain(
        &mut catalog,
        n_traits,
        assoc_per_trait,
        shared_per_trait,
        &mut rng,
    );
    catalog
}

/// Chains every trait to its predecessor through a shared SNP prefix and
/// draws odds ratio / control RAF per association — the body both catalog
/// builders share (identical RNG draw order, so [`synthetic_catalog`]'s
/// output is unchanged by the refactor).
fn associate_chain(
    catalog: &mut GwasCatalog,
    n_traits: usize,
    assoc_per_trait: usize,
    shared_per_trait: usize,
    rng: &mut ChaCha8Rng,
) {
    let mut next_free = 0usize;
    let mut prev_snps: Vec<SnpId> = Vec::new();
    for t in 0..n_traits {
        let trait_id = TraitId(t);
        let mut snps: Vec<SnpId> = Vec::with_capacity(assoc_per_trait);
        // Share a prefix with the previous trait (none for the first).
        snps.extend_from_slice(&prev_snps[..shared_per_trait.min(prev_snps.len())]);
        while snps.len() < assoc_per_trait {
            snps.push(SnpId(next_free));
            next_free += 1;
        }
        for &s in &snps {
            let or = rng.gen_range(1.05..2.5);
            let raf = rng.gen_range(0.05..0.95);
            catalog.associate(s, trait_id, or, raf);
        }
        prev_snps = snps;
    }
}

/// A catalog whose structure keeps scaling past the per-trait association
/// cap. [`synthetic_catalog`] holds the Table 5.3 trait list fixed, so
/// once `assoc_per_trait` saturates a realistic cap (real panels associate
/// at most a few thousand loci per trait) the factor count stops growing
/// with the SNP pool — a 50 000- and a 100 000-locus sweep then exercise
/// the *same* graph. This builder instead grows the trait list:
///
/// * `assoc_per_trait = min(n_snps / 10, cap)` — the historical density,
///   saturating at `cap`;
/// * `n_traits = max(7, ⌈0.7·n_snps / cap⌉)` — once the cap binds, extra
///   synthetic traits keep ≈ 70 % of the pool catalogued, so the factor
///   count stays proportional to `n_snps` at every size while per-trait
///   degree stays bounded by `cap`.
///
/// Below the cap the parameters coincide with
/// `synthetic_catalog(n_snps, n_snps / 10, shared, seed)`. The first seven
/// traits are the Table 5.3 diseases; additional traits get synthetic
/// names and seeded prevalences in `[0.01, 0.5)`.
///
/// # Panics
/// Panics if the SNP pool is too small for the derived association count
/// (needs `cap ≤ 0.3·n_snps`, amply true at bench sizes).
pub fn scaled_catalog(
    n_snps: usize,
    cap: usize,
    shared_per_trait: usize,
    seed: u64,
) -> GwasCatalog {
    let assoc_per_trait = (n_snps / 10).min(cap).max(shared_per_trait + 1);
    let n_traits = (7 * n_snps).div_ceil(10 * cap).max(7);
    let mut catalog = GwasCatalog::with_table_5_3_traits(n_snps);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for t in catalog.n_traits()..n_traits {
        let prevalence = rng.gen_range(0.01..0.5);
        catalog.add_trait(format!("synthetic_trait_{t}"), prevalence);
    }
    assert!(
        n_traits * assoc_per_trait <= n_snps,
        "SNP pool too small: {n_snps} loci cannot hold {} associations",
        n_traits * assoc_per_trait
    );
    associate_chain(
        &mut catalog,
        n_traits,
        assoc_per_trait,
        shared_per_trait,
        &mut rng,
    );
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_expected_shape() {
        let c = synthetic_catalog(100, 5, 2, 42);
        assert_eq!(c.n_traits(), 7);
        assert_eq!(c.associations().len(), 7 * 5);
        for t in 0..7 {
            assert_eq!(c.associations_of_trait(TraitId(t)).count(), 5);
        }
    }

    #[test]
    fn consecutive_traits_share_snps() {
        let c = synthetic_catalog(100, 5, 2, 42);
        for t in 1..7 {
            let a: std::collections::BTreeSet<_> = c
                .associations_of_trait(TraitId(t - 1))
                .map(|x| x.snp)
                .collect();
            let b: std::collections::BTreeSet<_> =
                c.associations_of_trait(TraitId(t)).map(|x| x.snp).collect();
            assert_eq!(
                a.intersection(&b).count(),
                2,
                "traits {t}-1 and {t} share 2 SNPs"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            synthetic_catalog(60, 4, 1, 7),
            synthetic_catalog(60, 4, 1, 7)
        );
        assert_ne!(
            synthetic_catalog(60, 4, 1, 7),
            synthetic_catalog(60, 4, 1, 8)
        );
    }

    #[test]
    fn parameters_within_gwas_ranges() {
        let c = synthetic_catalog(100, 5, 2, 3);
        for a in c.associations() {
            assert!((1.05..2.5).contains(&a.odds_ratio));
            assert!((0.05..0.95).contains(&a.raf_control));
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn pool_size_checked() {
        synthetic_catalog(10, 5, 1, 1);
    }

    #[test]
    fn scaled_catalog_structure_grows_past_the_cap() {
        // The bench-scale regression this fixes: with the fixed 7-trait
        // list, 50 000 and 100 000 loci both capped out at 7 × 2 000
        // factors. The scaled builder must keep structure ∝ pool size.
        let a = scaled_catalog(50_000, 2_000, 2, 7);
        let b = scaled_catalog(100_000, 2_000, 2, 7);
        assert_eq!(a.n_traits(), 18, "⌈0.7·50 000 / 2 000⌉");
        assert_eq!(b.n_traits(), 35, "⌈0.7·100 000 / 2 000⌉");
        assert_eq!(a.associations().len(), 18 * 2_000);
        assert_eq!(b.associations().len(), 35 * 2_000);
        for t in 0..b.n_traits() {
            assert_eq!(b.associations_of_trait(TraitId(t)).count(), 2_000);
        }
    }

    #[test]
    fn scaled_catalog_matches_synthetic_below_the_cap() {
        // Under the cap no extra traits are added and no extra RNG draws
        // happen, so the scaled builder reproduces the historical catalog
        // bit-for-bit — earlier bench rows stay comparable.
        assert_eq!(
            scaled_catalog(10_000, 2_000, 2, 7),
            synthetic_catalog(10_000, 1_000, 2, 7)
        );
    }

    #[test]
    fn scaled_catalog_deterministic_per_seed() {
        assert_eq!(
            scaled_catalog(60_000, 2_000, 2, 7),
            scaled_catalog(60_000, 2_000, 2, 7)
        );
        assert_ne!(
            scaled_catalog(60_000, 2_000, 2, 7),
            scaled_catalog(60_000, 2_000, 2, 8)
        );
    }
}
