//! Uniform invocation of the DCCS algorithms through the session API.

use dccs::{DccsOptions, DccsParams, DccsResult, DccsSession};
use mlgraph::MultiLayerGraph;
use std::time::Duration;

pub use dccs::Algorithm;

/// One measured run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Which algorithm ran. When the query was submitted as
    /// [`Algorithm::Auto`] this is the *resolved* algorithm (pulled from
    /// [`dccs::SearchStats::algorithm`]).
    pub algorithm: Algorithm,
    /// The parameters of the run.
    pub params: DccsParams,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// `|Cov(R)|`.
    pub cover_size: usize,
    /// Number of candidate d-CCs whose core was computed.
    pub candidates: usize,
    /// Total core computations.
    pub dcc_calls: usize,
    /// Subtrees pruned.
    pub pruned: usize,
    /// The full result (cores etc.).
    pub result: DccsResult,
}

impl RunOutcome {
    /// Wall-clock seconds as a float.
    pub fn seconds(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }
}

/// Runs one algorithm with the given options and collects the outcome — a
/// one-shot [`DccsSession`] query.
///
/// The options' `threads` knob selects the shared executor's width for every
/// algorithm (see `dccs::engine`); results are identical at any thread
/// count, so bench sweeps can vary it freely without re-validating outputs.
///
/// # Panics
///
/// Panics when the query is invalid for the graph (the experiment harness
/// controls its own inputs, so an invalid spec is a harness bug).
pub fn run_algorithm(
    algorithm: Algorithm,
    g: &MultiLayerGraph,
    params: &DccsParams,
    opts: &DccsOptions,
) -> RunOutcome {
    let result = DccsSession::with_options(g, *opts)
        .query(*params)
        .algorithm(algorithm)
        .run()
        .unwrap_or_else(|err| panic!("bench query {params:?} failed: {err}"));
    RunOutcome {
        algorithm: result.stats.algorithm.unwrap_or(algorithm),
        params: *params,
        elapsed: result.elapsed,
        cover_size: result.cover_size(),
        candidates: result.stats.candidates_generated,
        dcc_calls: result.stats.dcc_calls,
        pruned: result.stats.subtrees_pruned,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{generate, DatasetId, Scale};

    #[test]
    fn algorithm_parsing_and_names() {
        assert_eq!(Algorithm::parse("bu"), Some(Algorithm::BottomUp));
        assert_eq!(Algorithm::parse("GD-DCCS"), Some(Algorithm::Greedy));
        assert_eq!(Algorithm::parse("topdown"), Some(Algorithm::TopDown));
        assert_eq!(Algorithm::parse("auto"), Some(Algorithm::Auto));
        assert_eq!(Algorithm::parse("x"), None);
        assert_eq!(Algorithm::BottomUp.name(), "BU-DCCS");
    }

    #[test]
    fn all_three_algorithms_run_on_a_tiny_dataset() {
        let ds = generate(DatasetId::Ppi, Scale::Tiny);
        let params = DccsParams::new(2, 2, 5);
        let opts = DccsOptions::default();
        let gd = run_algorithm(Algorithm::Greedy, &ds.graph, &params, &opts);
        let bu = run_algorithm(Algorithm::BottomUp, &ds.graph, &params, &opts);
        let td = run_algorithm(Algorithm::TopDown, &ds.graph, &params, &opts);
        assert!(gd.cover_size > 0);
        assert!(bu.cover_size > 0);
        assert!(td.cover_size > 0);
        // The approximation algorithms stay within the usual band of greedy.
        assert!(4 * bu.cover_size >= gd.cover_size);
        assert!(4 * td.cover_size >= gd.cover_size);
        assert!(gd.candidates >= bu.candidates);
    }

    #[test]
    fn auto_resolves_to_a_concrete_algorithm() {
        let ds = generate(DatasetId::Ppi, Scale::Tiny);
        let params = DccsParams::new(2, 2, 5);
        let auto = run_algorithm(Algorithm::Auto, &ds.graph, &params, &DccsOptions::default());
        assert_ne!(auto.algorithm, Algorithm::Auto);
        // The auto run is exactly one of the fixed runs.
        let fixed = run_algorithm(auto.algorithm, &ds.graph, &params, &DccsOptions::default());
        assert_eq!(auto.cover_size, fixed.cover_size);
        assert_eq!(auto.result.stats, fixed.result.stats);
    }

    #[test]
    fn threads_knob_does_not_change_any_outcome() {
        let ds = generate(DatasetId::Ppi, Scale::Tiny);
        let params = DccsParams::new(2, 2, 5);
        for algorithm in [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown] {
            let seq = run_algorithm(algorithm, &ds.graph, &params, &DccsOptions::default());
            let par = run_algorithm(algorithm, &ds.graph, &params, &DccsOptions::with_threads(3));
            assert_eq!(seq.cover_size, par.cover_size, "{}", algorithm.name());
            assert_eq!(seq.result.stats, par.result.stats, "{}", algorithm.name());
        }
    }
}
