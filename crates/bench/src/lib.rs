//! Shared helpers for the Criterion benchmark harness.
//!
//! Benches run against a mid-scale world (a few thousand names) so one
//! `cargo bench` pass regenerates every figure's computation in minutes;
//! the `figures` binary covers the full default/paper scales.

#![forbid(unsafe_code)]

use perils_survey::driver::{run_survey, SurveyConfig, SurveyReport};
use perils_survey::params::TopologyParams;
use std::sync::OnceLock;

/// `default_scaled` proportions stretched to `names` surveyed names — the
/// one world-construction recipe every perf measurement shares
/// (`bench_smoke`, `benches/closure.rs` baseline and current paths), so a
/// generator change can never silently skew one side of a comparison.
pub fn scaled_params(seed: u64, names: usize) -> TopologyParams {
    let f = names as f64 / 60_000.0;
    let mut p = TopologyParams::default_scaled(seed);
    p.names = names;
    p.domains = ((26_000.0 * f) as usize).max(400);
    p.providers = ((320.0 * f) as usize).max(16);
    p.universities = ((260.0 * f) as usize).max(20);
    p
}

/// The bench-scale survey configuration: large enough for the figures'
/// shapes to be visible, small enough to iterate.
pub fn bench_config() -> SurveyConfig {
    let mut params = TopologyParams::default_scaled(20040722);
    params.names = 6_000;
    params.domains = 4_000;
    params.providers = 120;
    params.universities = 120;
    SurveyConfig {
        params,
        exact_hijack_sample: 0,
        threads: None,
    }
}

/// A lazily computed, shared survey report (the figure benches measure the
/// per-figure analysis, not world generation).
pub fn shared_report() -> &'static SurveyReport {
    static REPORT: OnceLock<SurveyReport> = OnceLock::new();
    REPORT.get_or_init(|| run_survey(&bench_config()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stretched recipes keep ~2.3 names a domain at every size, far
    /// inside the sampler's ten host slots a domain.
    #[test]
    fn stretched_params_validate() {
        for names in [1, 1_000, 10_000, 100_000, 593_160] {
            scaled_params(2005, names).validate();
        }
        bench_config().params.validate();
    }
}
