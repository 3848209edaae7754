//! The GWAS-Catalog model (§5.2.3, §5.3.1): traits with prevalence rates
//! and SNP-trait associations `C(T, s_i, r_i^j, O_i^j, f_i^{j,o})`.

use crate::model::{SnpId, TraitId};
use ppdp_errors::Result;

/// One catalogued trait: a name plus its population prevalence rate
/// `p(t_j)` (Table 5.3 supplies the dissertation's seven diseases).
#[derive(Debug, Clone, PartialEq)]
pub struct TraitInfo {
    /// Human-readable trait/disease name.
    pub name: String,
    /// Population prevalence `p(t_j) ∈ (0, 1)`.
    pub prevalence: f64,
}

/// One SNP-trait association as reported by the GWAS catalog: the risk
/// allele's odds ratio `O_i^j` and its control-group frequency `f_i^{j,o}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Association {
    /// The SNP.
    pub snp: SnpId,
    /// The associated trait.
    pub trait_id: TraitId,
    /// Odds ratio of the risk allele (> 0; > 1 means the allele raises
    /// susceptibility).
    pub odds_ratio: f64,
    /// Risk-allele frequency in the control group, `f^o ∈ (0, 1)`.
    pub raf_control: f64,
}

impl Association {
    /// Case-group risk-allele frequency `f^a` derived from `f^o` and the
    /// odds ratio (the derivation the dissertation cites from [49]):
    /// `odds_case = OR · odds_control` ⇒
    /// `f^a = OR·f^o / (1 − f^o + OR·f^o)`.
    pub fn raf_case(&self) -> f64 {
        let num = self.odds_ratio * self.raf_control;
        num / (1.0 - self.raf_control + num)
    }
}

/// The full catalog: traits, the number of catalogued SNPs, and the
/// association list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GwasCatalog {
    traits: Vec<TraitInfo>,
    n_snps: usize,
    associations: Vec<Association>,
}

impl GwasCatalog {
    /// Creates an empty catalog over `n_snps` SNP loci.
    pub fn new(n_snps: usize) -> Self {
        Self {
            traits: Vec::new(),
            n_snps,
            associations: Vec::new(),
        }
    }

    /// Registers a trait; returns its id.
    ///
    /// # Panics
    /// Panics if `prevalence ∉ (0, 1)`.
    pub fn add_trait(&mut self, name: impl Into<String>, prevalence: f64) -> TraitId {
        assert!(
            prevalence > 0.0 && prevalence < 1.0,
            "prevalence must lie strictly in (0,1)"
        );
        self.traits.push(TraitInfo {
            name: name.into(),
            prevalence,
        });
        TraitId(self.traits.len() - 1)
    }

    /// Registers an association.
    ///
    /// # Panics
    /// Panics on out-of-range ids, non-positive odds ratio, or `f^o`
    /// outside `(0, 1)`.
    pub fn associate(&mut self, snp: SnpId, trait_id: TraitId, odds_ratio: f64, raf_control: f64) {
        assert!(snp.0 < self.n_snps, "unknown SNP {snp}");
        assert!(trait_id.0 < self.traits.len(), "unknown trait {trait_id}");
        assert!(odds_ratio > 0.0, "odds ratio must be positive");
        assert!(
            raf_control > 0.0 && raf_control < 1.0,
            "f^o must lie in (0,1)"
        );
        self.associations.push(Association {
            snp,
            trait_id,
            odds_ratio,
            raf_control,
        });
    }

    /// Number of SNP loci.
    pub fn n_snps(&self) -> usize {
        self.n_snps
    }

    /// Number of traits.
    pub fn n_traits(&self) -> usize {
        self.traits.len()
    }

    /// Trait metadata.
    pub fn trait_info(&self, t: TraitId) -> &TraitInfo {
        &self.traits[t.0]
    }

    /// All traits with ids.
    pub fn traits(&self) -> impl Iterator<Item = (TraitId, &TraitInfo)> {
        self.traits.iter().enumerate().map(|(i, t)| (TraitId(i), t))
    }

    /// All associations.
    pub fn associations(&self) -> &[Association] {
        &self.associations
    }

    /// Associations involving SNP `s` (the factor neighbourhood of the SNP
    /// variable node).
    pub fn associations_of_snp(&self, s: SnpId) -> impl Iterator<Item = &Association> {
        self.associations.iter().filter(move |a| a.snp == s)
    }

    /// Associations involving trait `t` (`S_{t_j}` of §5.3.1).
    pub fn associations_of_trait(&self, t: TraitId) -> impl Iterator<Item = &Association> {
        self.associations.iter().filter(move |a| a.trait_id == t)
    }

    /// Re-checks every invariant the registration methods enforce, plus the
    /// NaN/Inf cases their comparisons only reject by accident. This is the
    /// boundary check [`crate::FactorGraph::build`] runs before compiling a
    /// graph, so catalogs corrupted *after* construction (deserialized,
    /// mutated through [`GwasCatalog::traits_mut`], …) surface as typed
    /// errors naming the offending record instead of downstream NaN
    /// marginals.
    ///
    /// # Errors
    /// [`ppdp_errors::PpdpError::InvalidInput`] naming the first offending
    /// trait or association.
    pub fn validate(&self) -> Result<()> {
        // Messages go through `format_args!`: they are formatted only for
        // the record that fails, not for every record that passes.
        for (j, t) in self.traits.iter().enumerate() {
            ppdp_errors::ensure_unit_open(
                format_args!("trait {j} ({:?}) prevalence", t.name),
                t.prevalence,
            )?;
        }
        for (i, a) in self.associations.iter().enumerate() {
            ppdp_errors::ensure(
                a.snp.0 < self.n_snps,
                format_args!(
                    "association {i}: SNP {} out of range (catalog has {} loci)",
                    a.snp, self.n_snps
                ),
            )?;
            ppdp_errors::ensure(
                a.trait_id.0 < self.traits.len(),
                format_args!(
                    "association {i}: trait {} out of range (catalog has {} traits)",
                    a.trait_id,
                    self.traits.len()
                ),
            )?;
            ppdp_errors::ensure_positive(
                format_args!("association {i} ({} ↔ {}) odds ratio", a.snp, a.trait_id),
                a.odds_ratio,
            )?;
            ppdp_errors::ensure_unit_open(
                format_args!("association {i} ({} ↔ {}) control RAF", a.snp, a.trait_id),
                a.raf_control,
            )?;
        }
        Ok(())
    }

    /// Raw mutable access to the trait list, bypassing the registration
    /// checks. Exists so fault-injection harnesses (`ppdp-datagen`'s chaos
    /// module) can corrupt a catalog the way a bad upstream feed would;
    /// production code should never need it — [`GwasCatalog::validate`]
    /// rejects whatever it broke.
    #[doc(hidden)]
    pub fn traits_mut(&mut self) -> &mut Vec<TraitInfo> {
        &mut self.traits
    }

    /// Raw mutable access to the association list; see
    /// [`GwasCatalog::traits_mut`].
    #[doc(hidden)]
    pub fn associations_mut(&mut self) -> &mut Vec<Association> {
        &mut self.associations
    }

    /// The dissertation's Table 5.3: seven popular diseases and their
    /// prevalence rates, pre-registered as traits of a fresh catalog.
    pub fn with_table_5_3_traits(n_snps: usize) -> Self {
        let mut c = Self::new(n_snps);
        for (name, p) in TABLE_5_3 {
            c.add_trait(*name, *p);
        }
        c
    }
}

/// Table 5.3 of the dissertation: disease → prevalence rate.
pub const TABLE_5_3: &[(&str, f64)] = &[
    ("Alzheimer's Disease", 0.0167),
    ("Celiac Disease", 0.0075),
    ("Heart Diseases", 0.115),
    ("Hypertensive disease", 0.29),
    ("Liver carcinoma", 0.000017),
    ("Osteoporosis", 0.103),
    ("Stomach Carcinoma", 0.00025),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raf_case_derivation() {
        // OR = 1 → cases and controls identical.
        let a = Association {
            snp: SnpId(0),
            trait_id: TraitId(0),
            odds_ratio: 1.0,
            raf_control: 0.3,
        };
        assert!((a.raf_case() - 0.3).abs() < 1e-12);
        // OR = 2, f^o = 0.5 → odds 1 → 2 → f^a = 2/3.
        let b = Association {
            odds_ratio: 2.0,
            raf_control: 0.5,
            ..a
        };
        assert!((b.raf_case() - 2.0 / 3.0).abs() < 1e-12);
        // Risk allele with OR > 1 is always enriched in cases.
        let c = Association {
            odds_ratio: 1.8,
            raf_control: 0.2,
            ..a
        };
        assert!(c.raf_case() > c.raf_control);
    }

    #[test]
    fn catalog_registration_and_lookup() {
        let mut c = GwasCatalog::new(5);
        let t0 = c.add_trait("lung cancer", 0.06);
        let t1 = c.add_trait("height>1.9m", 0.02);
        c.associate(SnpId(0), t0, 1.4, 0.3);
        c.associate(SnpId(1), t0, 1.2, 0.25);
        c.associate(SnpId(1), t1, 0.8, 0.4);
        assert_eq!(c.n_traits(), 2);
        assert_eq!(c.associations_of_trait(t0).count(), 2);
        assert_eq!(c.associations_of_snp(SnpId(1)).count(), 2);
        assert_eq!(c.trait_info(t1).name, "height>1.9m");
    }

    #[test]
    fn table_5_3_registered() {
        let c = GwasCatalog::with_table_5_3_traits(10);
        assert_eq!(c.n_traits(), 7);
        assert!((c.trait_info(TraitId(3)).prevalence - 0.29).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unknown SNP")]
    fn association_to_unknown_snp_rejected() {
        let mut c = GwasCatalog::new(1);
        let t = c.add_trait("x", 0.1);
        c.associate(SnpId(5), t, 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "prevalence")]
    fn bad_prevalence_rejected() {
        GwasCatalog::new(1).add_trait("x", 1.5);
    }

    #[test]
    fn validate_accepts_well_formed_catalogs() {
        assert!(figure_like_catalog().validate().is_ok());
    }

    fn figure_like_catalog() -> GwasCatalog {
        let mut c = GwasCatalog::new(3);
        let t = c.add_trait("x", 0.1);
        c.associate(SnpId(0), t, 1.5, 0.3);
        c.associate(SnpId(2), t, 1.2, 0.4);
        c
    }

    #[test]
    fn validate_names_the_corrupted_record() {
        // NaN prevalence injected past the registration checks.
        let mut c = figure_like_catalog();
        c.traits_mut()[0].prevalence = f64::NAN;
        let e = c.validate().unwrap_err();
        assert_eq!(e.kind(), "invalid_input");
        assert!(e.to_string().contains("trait 0"), "{e}");

        // Non-positive odds ratio.
        let mut c = figure_like_catalog();
        c.associations_mut()[1].odds_ratio = 0.0;
        let e = c.validate().unwrap_err();
        assert!(e.to_string().contains("association 1"), "{e}");

        // Dangling SNP reference.
        let mut c = figure_like_catalog();
        c.associations_mut()[0].snp = SnpId(99);
        let e = c.validate().unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");

        // Infinite control RAF.
        let mut c = figure_like_catalog();
        c.associations_mut()[0].raf_control = f64::INFINITY;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_messages_name_the_record_verbatim() {
        let msg = |c: &GwasCatalog| c.validate().unwrap_err().to_string();
        let mut c = figure_like_catalog();
        c.traits_mut()[0].prevalence = f64::NAN;
        assert_eq!(
            msg(&c),
            "invalid input: trait 0 (\"x\") prevalence must lie in (0, 1), got NaN"
        );
        let mut c = figure_like_catalog();
        c.associations_mut()[1].snp = SnpId(7);
        assert_eq!(
            msg(&c),
            "invalid input: association 1: SNP s7 out of range (catalog has 3 loci)"
        );
        let mut c = figure_like_catalog();
        c.associations_mut()[0].trait_id = TraitId(4);
        assert_eq!(
            msg(&c),
            "invalid input: association 0: trait t4 out of range (catalog has 1 traits)"
        );
        let mut c = figure_like_catalog();
        c.associations_mut()[1].odds_ratio = 0.0;
        assert_eq!(
            msg(&c),
            "invalid input: association 1 (s2 ↔ t0) odds ratio must be finite and > 0, got 0"
        );
        let mut c = figure_like_catalog();
        c.associations_mut()[0].raf_control = f64::INFINITY;
        assert_eq!(
            msg(&c),
            "invalid input: association 0 (s0 ↔ t0) control RAF must lie in (0, 1), got inf"
        );
    }
}
