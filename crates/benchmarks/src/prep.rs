//! API preparation: run the analysis phase once per API (scenario capture
//! plus the Fig. 20 enrichment loop) and build engines for the main
//! configuration and the §7.2 granularity ablations.

use apiphany_core::Engine;
use apiphany_mining::{AnalyzeConfig, AnalyzeStats, Granularity, MiningConfig};
use apiphany_services::{Slack, Square, Stripe};
use apiphany_spec::{Library, Service, Witness};
use apiphany_ttn::BuildOptions;

use crate::defs::Api;

/// Creates a fresh sandboxed service.
pub fn make_service(api: Api) -> Box<dyn Service> {
    match api {
        Api::Slack => Box::new(Slack::new()),
        Api::Stripe => Box::new(Stripe::new()),
        Api::Square => Box::new(Square::new()),
    }
}

/// Runs the scripted "web UI" scenario for the API, producing `W0`.
pub fn scenario_witnesses(api: Api) -> Vec<Witness> {
    match api {
        Api::Slack => Slack::new().scenario(),
        Api::Stripe => Stripe::new().scenario(),
        Api::Square => Square::new().scenario(),
    }
}

/// A prepared API: mined engine plus everything needed to re-mine for the
/// ablation variants.
#[derive(Debug)]
pub struct Prepared {
    /// Which API this is.
    pub api: Api,
    /// The engine with fully mined semantic types (the "APIphany" row).
    pub engine: Engine,
    /// Analysis statistics (Table 1's `|W|` and `n_cov`).
    pub analysis: AnalyzeStats,
    /// The syntactic library (for variants).
    pub library: Library,
    /// The collected witness set (shared by all variants).
    pub witnesses: Vec<Witness>,
}

/// Default analysis budget used by the harness. The paper runs the loop to
/// a fixpoint over hours; this budget converges in seconds per API while
/// preserving the coverage shape of Table 1.
pub fn default_analyze_config() -> AnalyzeConfig {
    AnalyzeConfig { max_rounds: 3, attempts_per_subset: 2, ..AnalyzeConfig::default() }
}

/// Prepares one API: scenario capture, then the `AnalyzeAPI` loop. The
/// service keeps the state mutations performed by the scenario (a real
/// sandbox is not reset between capture and random testing either).
pub fn prepare_api(api: Api, analyze: &AnalyzeConfig) -> Prepared {
    match api {
        Api::Slack => {
            let mut svc = Slack::new();
            let w0 = svc.scenario();
            finish(api, &mut svc, &w0, analyze)
        }
        Api::Stripe => {
            let mut svc = Stripe::new();
            let w0 = svc.scenario();
            finish(api, &mut svc, &w0, analyze)
        }
        Api::Square => {
            let mut svc = Square::new();
            let w0 = svc.scenario();
            finish(api, &mut svc, &w0, analyze)
        }
    }
}

fn finish(
    api: Api,
    service: &mut dyn Service,
    w0: &[Witness],
    analyze: &AnalyzeConfig,
) -> Prepared {
    let library = service.library().clone();
    let engine = Engine::analyze(
        service,
        w0,
        &MiningConfig::default(),
        analyze,
        &BuildOptions::default(),
    );
    let analysis = engine.analysis_stats().expect("analysis ran").clone();
    let witnesses = engine.witnesses().to_vec();
    Prepared { api, engine, analysis, library, witnesses }
}

/// Builds an ablation variant over the same witness set: `APIphany-Syn`
/// (syntactic types) or `APIphany-Loc` (unmerged location types).
pub fn variant(prepared: &Prepared, granularity: Granularity) -> Engine {
    let mining = MiningConfig { granularity, ..MiningConfig::default() };
    Engine::from_witnesses_with(
        prepared.library.clone(),
        prepared.witnesses.clone(),
        &mining,
        &BuildOptions::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_witnesses_exist_for_all_apis() {
        for api in Api::ALL {
            let w = scenario_witnesses(api);
            assert!(w.len() >= 15, "{}: only {} scenario witnesses", api.name(), w.len());
        }
    }
}
