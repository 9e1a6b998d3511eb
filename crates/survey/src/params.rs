//! Generator parameters and presets.
//!
//! The paper's survey: 593,160 names, 196 TLDs, 166,771 discovered
//! nameservers. [`TopologyParams::paper`] reproduces that scale;
//! [`TopologyParams::default_scaled`] is a proportionally scaled universe
//! that runs the full figure pipeline in seconds on a laptop;
//! [`TopologyParams::tiny`] is for tests and doctests.

use crate::topology::CRAWL_HOSTS;

/// All generator knobs.
#[derive(Debug, Clone)]
pub struct TopologyParams {
    /// RNG seed: same seed ⇒ bit-identical universe and figures.
    pub seed: u64,
    /// Number of surveyed web-server names to produce.
    pub names: usize,
    /// Number of country-code TLDs (the paper saw 196 TLDs total; 12 are
    /// modeled gTLDs, the rest ccTLDs).
    pub cctlds: usize,
    /// Number of hosting providers / registrar DNS operators.
    pub providers: usize,
    /// Zipf exponent for provider popularity (hosting concentration).
    pub provider_zipf: f64,
    /// Number of university / volunteer operators (the pool that hosts
    /// ccTLD slaves and each other's zones).
    pub universities: usize,
    /// Number of second-level domains to generate (names are sampled from
    /// these; several names can share a domain).
    pub domains: usize,
    /// Zipf exponent for name popularity (directory crawl bias; also
    /// drives the alexa-style top-500 subset).
    pub popularity_zipf: f64,
    /// Probability that a domain is self-hosted (in-bailiwick, glued NS).
    pub p_self_hosted: f64,
    /// Probability that a domain is provider-hosted.
    pub p_provider_hosted: f64,
    /// Probability that a domain is university/volunteer-hosted (the
    /// remainder after self/provider is mixed off-site hosting).
    pub p_university_hosted: f64,
    /// Fraction of *operators* running a vulnerable BIND (versions are
    /// per-operator, so vulnerability correlates within NS sets).
    ///
    /// Calibrated against the ISC Feb-2004 matrix marginals: with the
    /// fixed vulnerable pockets the generator plants (two giant
    /// registrars, `.ws`, slow-patching country registries, clustered
    /// university webs), 0.162 lands the *server*-level vulnerable
    /// fraction at the paper's 16.3% at default and paper scale.
    pub vulnerable_operator_fraction: f64,
    /// Extra off-site secondary NS count for popular domains (the paper's
    /// availability-vs-security dilemma: popular sites spread wider).
    pub popular_extra_secondaries: usize,
    /// How many of the worst ccTLDs form dense volunteer webs (ua, by, sm,
    /// … in Figure 4).
    pub messy_cctlds: usize,
    /// Fraction of second-level domains whose delegations have decayed:
    /// their NS sets (partially or entirely) name hosts under vanished
    /// branches of the namespace, so [`perils_core::ZombieDelegationMetric`]
    /// has signal on synthetic worlds. Drawn from a dedicated RNG stream,
    /// so `0.0` (every preset's default) produces **exactly** the same
    /// world as before the knob existed — goldens are unaffected.
    pub stale_delegation_fraction: f64,
}

impl TopologyParams {
    /// The scale names [`TopologyParams::preset`] accepts, as the CLIs'
    /// usage errors spell them.
    pub const PRESETS: &'static str = "tiny|default|paper";

    /// The preset a CLI `--scale`/`--world` value names: `tiny`,
    /// `default` ([`TopologyParams::default_scaled`]) or `paper`.
    pub fn preset(scale: &str, seed: u64) -> Option<TopologyParams> {
        match scale {
            "tiny" => Some(TopologyParams::tiny(seed)),
            "default" => Some(TopologyParams::default_scaled(seed)),
            "paper" => Some(TopologyParams::paper(seed)),
            _ => None,
        }
    }

    /// The paper's scale (593k names): the full `figures` run takes
    /// ≈10–13 s and ≈0.8 GiB (EXPERIMENTS.md), so use
    /// [`TopologyParams::default_scaled`] for interactive work.
    pub fn paper(seed: u64) -> TopologyParams {
        TopologyParams {
            seed,
            names: 593_160,
            cctlds: 184,
            providers: 1200,
            provider_zipf: 1.3,
            universities: 900,
            domains: 250_000,
            popularity_zipf: 0.95,
            p_self_hosted: 0.25,
            p_provider_hosted: 0.52,
            p_university_hosted: 0.07,
            vulnerable_operator_fraction: 0.162,
            popular_extra_secondaries: 3,
            messy_cctlds: 20,
            stale_delegation_fraction: 0.0,
        }
    }

    /// The default preset: ~1/10 the paper's scale, preserving all
    /// proportions. Runs the full pipeline in seconds.
    pub fn default_scaled(seed: u64) -> TopologyParams {
        TopologyParams {
            seed,
            names: 60_000,
            cctlds: 184,
            providers: 320,
            provider_zipf: 1.3,
            universities: 260,
            domains: 26_000,
            popularity_zipf: 0.95,
            p_self_hosted: 0.25,
            p_provider_hosted: 0.52,
            p_university_hosted: 0.07,
            vulnerable_operator_fraction: 0.162,
            popular_extra_secondaries: 3,
            messy_cctlds: 20,
            stale_delegation_fraction: 0.0,
        }
    }

    /// A miniature universe for tests and doctests (hundreds of names).
    pub fn tiny(seed: u64) -> TopologyParams {
        TopologyParams {
            seed,
            names: 400,
            cctlds: 12,
            providers: 12,
            provider_zipf: 1.3,
            universities: 10,
            domains: 220,
            popularity_zipf: 0.95,
            p_self_hosted: 0.25,
            p_provider_hosted: 0.52,
            p_university_hosted: 0.07,
            vulnerable_operator_fraction: 0.162,
            popular_extra_secondaries: 2,
            messy_cctlds: 3,
            stale_delegation_fraction: 0.0,
        }
    }

    /// Sanity-checks the parameter combination.
    ///
    /// # Panics
    ///
    /// Panics on impossible combinations (probabilities exceeding 1,
    /// zero-sized pools, more names than the domains have host slots).
    pub fn validate(&self) {
        let p = self.p_self_hosted + self.p_provider_hosted + self.p_university_hosted;
        assert!(p <= 1.0 + 1e-9, "hosting probabilities sum to {p} > 1");
        assert!(
            self.names > 0 && self.domains > 0,
            "names and domains must be positive"
        );
        let slots = self.domains * CRAWL_HOSTS.len();
        assert!(
            self.names <= slots,
            "{} names exceed the {slots} host slots of {} domains",
            self.names,
            self.domains
        );
        assert!(
            self.providers > 0 && self.universities > 0,
            "operator pools must be non-empty"
        );
        assert!(
            self.cctlds >= self.messy_cctlds,
            "messy ccTLDs exceed ccTLD count"
        );
        assert!(
            (0.0..=1.0).contains(&self.vulnerable_operator_fraction),
            "vulnerable fraction out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.stale_delegation_fraction),
            "stale-delegation fraction out of range"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        TopologyParams::paper(1).validate();
        TopologyParams::default_scaled(1).validate();
        TopologyParams::tiny(1).validate();
    }

    #[test]
    fn preset_names_exactly_the_three_scales() {
        let same = |a: Option<TopologyParams>, b: TopologyParams| {
            assert_eq!(format!("{a:?}"), format!("{:?}", Some(b)));
        };
        same(TopologyParams::preset("tiny", 7), TopologyParams::tiny(7));
        same(
            TopologyParams::preset("default", 7),
            TopologyParams::default_scaled(7),
        );
        same(TopologyParams::preset("paper", 7), TopologyParams::paper(7));
        for name in TopologyParams::PRESETS.split('|') {
            assert!(TopologyParams::preset(name, 7).is_some(), "{name}");
        }
        for other in ["", "Tiny", "default_scaled", "fbi", "tiny "] {
            assert!(TopologyParams::preset(other, 7).is_none(), "{other:?}");
        }
    }

    #[test]
    fn scaled_preserves_proportions() {
        let paper = TopologyParams::paper(1);
        let scaled = TopologyParams::default_scaled(1);
        let ratio = paper.names as f64 / scaled.names as f64;
        let domain_ratio = paper.domains as f64 / scaled.domains as f64;
        assert!(
            (ratio / domain_ratio - 1.0).abs() < 0.2,
            "domain scaling tracks name scaling"
        );
        assert_eq!(
            paper.vulnerable_operator_fraction,
            scaled.vulnerable_operator_fraction
        );
    }

    #[test]
    #[should_panic(expected = "exceed the 2200 host slots")]
    fn over_asked_crawl_rejected() {
        let mut p = TopologyParams::tiny(1);
        p.names = p.domains * CRAWL_HOSTS.len() + 1;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn invalid_probabilities_rejected() {
        let mut p = TopologyParams::tiny(1);
        p.p_self_hosted = 0.9;
        p.p_provider_hosted = 0.9;
        p.validate();
    }
}
