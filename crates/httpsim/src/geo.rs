//! Geography: vantage-point regions and privacy regimes.
//!
//! The paper measures from eight AWS regions chosen to cover GDPR, CCPA,
//! LGPD, and unregulated jurisdictions. Servers in the simulated web vary
//! their behaviour on the *visitor's* region — exactly the geo-targeting
//! that produces the per-VP deltas in Table 1.

use std::fmt;

/// The eight measurement regions of the study (§3, "Vantage Points").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// Frankfurt, Germany (GDPR).
    Germany,
    /// Stockholm, Sweden (GDPR).
    Sweden,
    /// Ashburn, US East (no comprehensive federal law).
    UsEast,
    /// San Francisco, US West (CCPA).
    UsWest,
    /// São Paulo, Brazil (LGPD).
    Brazil,
    /// Cape Town, South Africa (POPIA, lightly enforced).
    SouthAfrica,
    /// Mumbai, India (no comprehensive law at measurement time).
    India,
    /// Sydney, Australia (Privacy Act, no consent mandate).
    Australia,
}

impl Region {
    /// All eight regions in the paper's Table 1 order.
    pub const ALL: [Region; 8] = [
        Region::UsEast,
        Region::UsWest,
        Region::Brazil,
        Region::Germany,
        Region::Sweden,
        Region::SouthAfrica,
        Region::India,
        Region::Australia,
    ];

    /// Is this vantage point inside the EU (GDPR territory)?
    pub fn is_eu(self) -> bool {
        matches!(self, Region::Germany | Region::Sweden)
    }

    /// The country-code TLD associated with the VP's country (Table 1's
    /// "ccTLD" column groups detections by this).
    pub fn cc_tld(self) -> &'static str {
        match self {
            Region::Germany => "de",
            Region::Sweden => "se",
            Region::UsEast | Region::UsWest => "us",
            Region::Brazil => "br",
            Region::SouthAfrica => "za",
            Region::India => "in",
            Region::Australia => "au",
        }
    }

    /// The most commonly spoken language in the VP's country, as an ISO 639
    /// code (Table 1's "Language" column groups detections by this).
    pub fn main_language(self) -> &'static str {
        match self {
            Region::Germany => "de",
            Region::Sweden => "sv",
            Region::UsEast | Region::UsWest => "en",
            Region::Brazil => "pt",
            Region::SouthAfrica => "en",
            Region::India => "en",
            Region::Australia => "en",
        }
    }

    /// Human-readable VP label, matching Table 1 rows.
    pub fn label(self) -> &'static str {
        match self {
            Region::UsEast => "US East",
            Region::UsWest => "US West",
            Region::Brazil => "Brazil",
            Region::Germany => "Germany",
            Region::Sweden => "Sweden",
            Region::SouthAfrica => "South Africa",
            Region::India => "India",
            Region::Australia => "Australia",
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_distinct_regions() {
        let mut labels: Vec<&str> = Region::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn eu_and_regimes() {
        assert!(Region::Germany.is_eu());
        assert!(Region::Sweden.is_eu());
        assert_eq!(
            Region::ALL.iter().filter(|r| r.is_eu()).count(),
            2,
            "exactly two EU vantage points"
        );
    }

    #[test]
    fn table1_metadata() {
        assert_eq!(Region::Germany.cc_tld(), "de");
        assert_eq!(Region::Germany.main_language(), "de");
        assert_eq!(Region::Australia.main_language(), "en");
        assert_eq!(Region::Sweden.main_language(), "sv");
    }
}
