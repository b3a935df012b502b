//! Problem parameters and algorithm options.

use crate::engine::IndexChoice;
use crate::error::DccsError;
use crate::limits::QueryLimits;
use crate::serve::Serve;

/// The three parameters of the DCCS problem (Section II of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DccsParams {
    /// Minimum degree threshold `d`: every vertex of a d-CC must have at
    /// least `d` neighbors inside the core on every chosen layer.
    pub d: u32,
    /// Minimum support threshold `s`: d-CCs are taken over layer subsets of
    /// size exactly `s`.
    pub s: usize,
    /// Number of diversified d-CCs to report.
    pub k: usize,
}

impl DccsParams {
    /// Creates a parameter set, the same way the paper writes `(d, s, k)`.
    pub fn new(d: u32, s: usize, k: usize) -> Self {
        DccsParams { d, s, k }
    }

    /// Validates the parameters against a graph with `num_layers` layers.
    /// Returns the typed [`DccsError`] describing why the combination is
    /// unusable (its `Display` form is the human-readable message).
    pub fn validate(&self, num_layers: usize) -> Result<(), DccsError> {
        if self.s == 0 {
            return Err(DccsError::SupportZero);
        }
        if self.s > num_layers {
            return Err(DccsError::SupportExceedsLayers { s: self.s, num_layers });
        }
        if self.k == 0 {
            return Err(DccsError::ResultSizeZero);
        }
        Ok(())
    }
}

/// Toggles for the preprocessing steps and pruning rules.
///
/// All options default to `true`; the Fig. 28 ablation experiment disables
/// them one at a time (`No-VD`, `No-SL`, `No-IR`, `No-Pre`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DccsOptions {
    /// Vertex deletion preprocessing (Section IV-C): iteratively drop
    /// vertices supported by fewer than `s` per-layer d-cores.
    pub vertex_deletion: bool,
    /// Layer sorting preprocessing: explore layers in decreasing (BU) or
    /// increasing (TD) order of per-layer d-core size.
    pub sort_layers: bool,
    /// `InitTopK` preprocessing: seed the temporary result set greedily so
    /// the pruning rules activate immediately.
    pub init_topk: bool,
    /// Order-based pruning (Lemma 3 for BU, Lemma 6 for TD).
    pub order_pruning: bool,
    /// Layer pruning (Lemma 4, BU only).
    pub layer_pruning: bool,
    /// Potential-set pruning (Lemma 7, TD only).
    pub potential_pruning: bool,
    /// Worker threads for the shared search executor (`crate::engine`).
    ///
    /// `1` means sequential (the driver thread does all the work) and `0`
    /// means **auto**: `std::thread::available_parallelism()`, via
    /// [`crate::auto_threads`] — one rule at every entry point. Results —
    /// cores, cover, and work counters — are identical at every thread
    /// count; only the wall-clock time changes.
    pub threads: usize,
    /// Dense-vs-CSR peeling representation override
    /// ([`crate::engine::IndexChoice`]; the CLI's `--index csr|dense|auto`)
    /// for GD's lattice walk and BU's and TD's search trees alike.
    /// `Auto` (the default) runs the [`crate::engine::plan_index`] cost
    /// model; forcing a representation changes wall-clock time only — both
    /// paths are bit-identical — and the per-run decision is recorded in
    /// [`crate::SearchStats::index_path`] either way.
    pub index: IndexChoice,
    /// Resource limits for the query: wall-clock deadline, candidate budget,
    /// dense-index memory ceiling, and the degradation ladder. Defaults to
    /// [`QueryLimits::none`] — unlimited queries skip the monitor entirely
    /// and pay no cancellation tax.
    pub limits: QueryLimits,
    /// How queries derive candidate cores ([`Serve`]): `Auto` (the default)
    /// answers from an attached [`crate::DccIndex`] when it covers the query
    /// and falls back to peeling, `Peel` never consults the index, `Index`
    /// fails with a typed error instead of re-peeling. The one-shot free
    /// functions run on a fresh session, which has no index attached.
    pub serve: Serve,
}

impl Default for DccsOptions {
    fn default() -> Self {
        DccsOptions {
            vertex_deletion: true,
            sort_layers: true,
            init_topk: true,
            order_pruning: true,
            layer_pruning: true,
            potential_pruning: true,
            threads: 1,
            index: IndexChoice::Auto,
            limits: QueryLimits::none(),
            serve: Serve::Auto,
        }
    }
}

impl DccsOptions {
    /// The `No-Pre` configuration of Fig. 28: every preprocessing method
    /// disabled, pruning rules left on.
    pub fn no_preprocessing() -> Self {
        DccsOptions {
            vertex_deletion: false,
            sort_layers: false,
            init_topk: false,
            ..DccsOptions::default()
        }
    }

    /// The `No-VD` configuration: vertex deletion disabled.
    pub fn no_vertex_deletion() -> Self {
        DccsOptions { vertex_deletion: false, ..DccsOptions::default() }
    }

    /// The `No-SL` configuration: layer sorting disabled.
    pub fn no_sort_layers() -> Self {
        DccsOptions { sort_layers: false, ..DccsOptions::default() }
    }

    /// The `No-IR` configuration: result initialization disabled.
    pub fn no_init_topk() -> Self {
        DccsOptions { init_topk: false, ..DccsOptions::default() }
    }

    /// Default options with the executor spread over `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        DccsOptions { threads, ..DccsOptions::default() }
    }

    /// Default options with query limits attached.
    pub fn with_limits(limits: QueryLimits) -> Self {
        DccsOptions { limits, ..DccsOptions::default() }
    }

    /// Default options with the serve mode overridden.
    pub fn with_serve(serve: Serve) -> Self {
        DccsOptions { serve, ..DccsOptions::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validate_ranges() {
        let p = DccsParams::new(3, 2, 5);
        assert!(p.validate(4).is_ok());
        assert!(p.validate(1).is_err());
        assert!(DccsParams::new(3, 0, 5).validate(4).is_err());
        assert!(DccsParams::new(3, 2, 0).validate(4).is_err());
    }

    #[test]
    fn default_options_enable_everything() {
        let o = DccsOptions::default();
        assert!(o.vertex_deletion && o.sort_layers && o.init_topk);
        assert!(o.order_pruning && o.layer_pruning && o.potential_pruning);
    }

    #[test]
    fn with_threads_sets_only_the_executor_width() {
        let o = DccsOptions::with_threads(4);
        assert_eq!(o.threads, 4);
        assert!(o.vertex_deletion && o.order_pruning);
        assert_eq!(DccsOptions::default().threads, 1);
    }

    #[test]
    fn default_limits_are_unlimited() {
        assert!(DccsOptions::default().limits.is_unlimited());
        let limited = DccsOptions::with_limits(QueryLimits::none().with_candidate_budget(100));
        assert!(!limited.limits.is_unlimited());
        assert_eq!(limited.limits.candidate_budget, Some(100));
        assert!(limited.vertex_deletion);
    }

    #[test]
    fn default_serve_mode_is_auto() {
        assert_eq!(DccsOptions::default().serve, Serve::Auto);
        let forced = DccsOptions::with_serve(Serve::Index);
        assert_eq!(forced.serve, Serve::Index);
        assert!(forced.vertex_deletion);
        assert_eq!(Serve::parse("peel"), Some(Serve::Peel));
        assert_eq!(Serve::parse("bogus"), None);
        assert_eq!(Serve::Index.name(), "index");
    }

    #[test]
    fn ablation_presets_disable_the_right_knob() {
        assert!(!DccsOptions::no_vertex_deletion().vertex_deletion);
        assert!(DccsOptions::no_vertex_deletion().sort_layers);
        assert!(!DccsOptions::no_sort_layers().sort_layers);
        assert!(!DccsOptions::no_init_topk().init_topk);
        let none = DccsOptions::no_preprocessing();
        assert!(!none.vertex_deletion && !none.sort_layers && !none.init_topk);
        assert!(none.order_pruning);
    }
}
