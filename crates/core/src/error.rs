//! Typed errors for the query API.
//!
//! Every failure a caller can provoke through the public query surface —
//! invalid `(d, s, k)` parameters, querying an empty graph, blowing a
//! candidate budget, tripping a query limit, or a panicking engine task —
//! is a [`DccsError`] variant, so [`crate::DccsSession::query`] returns
//! `Result` instead of aborting the process. The one-shot free functions
//! (`greedy_dccs` & co.) run one query on a fresh session and keep their
//! historical panic on invalid parameters: they `expect` the same
//! validation this module types.
//!
//! The limit variants ([`DccsError::DeadlineExceeded`],
//! [`DccsError::Cancelled`], [`DccsError::MemoryLimit`]) carry the
//! **best-so-far partial result** (its [`crate::SearchStats`] flagged
//! `complete: false`), so a caller that hits a limit degrades gracefully
//! instead of losing all work.

use crate::result::DccsResult;
use std::fmt;
use std::time::Duration;

/// Everything that can go wrong with a DCCS query: parameter validation,
/// mid-run resource limits, and engine faults.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum DccsError {
    /// The support threshold `s` was 0 — d-CCs are taken over layer subsets
    /// of size *exactly* `s`, so at least one layer must be requested.
    SupportZero,
    /// The support threshold `s` exceeds the graph's layer count: no layer
    /// subset of size `s` exists.
    SupportExceedsLayers {
        /// Requested support threshold.
        s: usize,
        /// Number of layers in the queried graph.
        num_layers: usize,
    },
    /// The result size `k` was 0 — the problem asks for `k ≥ 1` diversified
    /// cores.
    ResultSizeZero,
    /// The queried graph has no vertices or no layers; every query on it is
    /// vacuous, which the session reports instead of returning misleading
    /// empty covers.
    EmptyGraph {
        /// Vertex count of the graph.
        num_vertices: usize,
        /// Layer count of the graph.
        num_layers: usize,
    },
    /// The candidate enumeration exceeded its budget — the exact solver's
    /// built-in gate, or the general
    /// [`crate::QueryLimits::candidate_budget`] on any algorithm.
    BudgetExceeded {
        /// Non-empty candidate d-CCs found (a lower bound when the general
        /// budget stopped the search mid-run).
        candidates: usize,
        /// The candidate limit in force.
        limit: usize,
    },
    /// The query's wall-clock deadline
    /// ([`crate::QueryLimits::deadline`]) passed mid-run.
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
        /// Best-so-far partial result (`stats.complete == false`).
        partial: Box<DccsResult>,
    },
    /// The query's [`crate::CancelToken`] was tripped mid-run.
    Cancelled {
        /// Best-so-far partial result (`stats.complete == false`).
        partial: Box<DccsResult>,
    },
    /// A forced dense index exceeded the memory ceiling
    /// ([`crate::QueryLimits::max_dense_words`]). Under
    /// [`crate::IndexChoice::Auto`] the engine falls back to the CSR path
    /// instead of failing; this error fires only when the dense
    /// representation was explicitly forced.
    MemoryLimit {
        /// Words the dense index would have needed.
        required_words: usize,
        /// The ceiling that rejected it, in words.
        limit_words: usize,
        /// Partial result — empty: the query fails before searching.
        partial: Box<DccsResult>,
    },
    /// An engine task panicked mid-query. The worker crew survives (see the
    /// executor's panic isolation) and the session stays usable; the
    /// panic's message is preserved here.
    TaskPanicked {
        /// The panic payload's message, when it was a string.
        message: String,
    },
    /// A [`crate::DccIndex`] artifact failed to load: short or mangled
    /// frame header, wrong magic or format version, checksum mismatch,
    /// truncation, or a malformed payload body. Also covers I/O failures
    /// while reading the file, so loading is a single fallible step.
    IndexCorrupt {
        /// One-line description of what failed.
        message: String,
    },
    /// The query could not be served from the precomputed index even though
    /// [`crate::Serve::Index`] demanded it: no index attached to the graph
    /// version (a mutation commit drops the index it outdates), the index
    /// was built for a different graph, it has no entry for the requested
    /// `(d, s)`, or the query forces a non-greedy algorithm.
    IndexUnavailable {
        /// One-line description of why the index cannot serve the query.
        message: String,
    },
    /// A mutation batch submitted to [`crate::QueryService::commit`] (or
    /// `dccs apply`) failed validation — an out-of-range layer or vertex, a
    /// self loop, or one edge appearing in both the insert and delete lists
    /// of a layer. Nothing was committed; the published snapshot is
    /// unchanged.
    BatchInvalid {
        /// The underlying [`mlgraph::GraphError`] message.
        message: String,
    },
}

/// Equality ignores the `partial` payloads of the limit variants (a partial
/// result carries timing data and has no meaningful equality); every other
/// field is compared exactly. This keeps `assert_eq!` on validation errors
/// as strict as it always was.
impl PartialEq for DccsError {
    fn eq(&self, other: &Self) -> bool {
        use DccsError::*;
        match (self, other) {
            (SupportZero, SupportZero) | (ResultSizeZero, ResultSizeZero) => true,
            (
                SupportExceedsLayers { s: a, num_layers: b },
                SupportExceedsLayers { s: c, num_layers: d },
            ) => a == c && b == d,
            (
                EmptyGraph { num_vertices: a, num_layers: b },
                EmptyGraph { num_vertices: c, num_layers: d },
            ) => a == c && b == d,
            (
                BudgetExceeded { candidates: a, limit: b },
                BudgetExceeded { candidates: c, limit: d },
            ) => a == c && b == d,
            (DeadlineExceeded { deadline: a, .. }, DeadlineExceeded { deadline: b, .. }) => a == b,
            (Cancelled { .. }, Cancelled { .. }) => true,
            (
                MemoryLimit { required_words: a, limit_words: b, .. },
                MemoryLimit { required_words: c, limit_words: d, .. },
            ) => a == c && b == d,
            (TaskPanicked { message: a }, TaskPanicked { message: b })
            | (IndexCorrupt { message: a }, IndexCorrupt { message: b })
            | (IndexUnavailable { message: a }, IndexUnavailable { message: b })
            | (BatchInvalid { message: a }, BatchInvalid { message: b }) => a == b,
            _ => false,
        }
    }
}

impl Eq for DccsError {}

impl DccsError {
    /// The best-so-far partial result carried by the limit variants
    /// (`None` for validation and fault errors).
    pub fn partial(&self) -> Option<&DccsResult> {
        match self {
            DccsError::DeadlineExceeded { partial, .. }
            | DccsError::Cancelled { partial }
            | DccsError::MemoryLimit { partial, .. } => Some(partial),
            _ => None,
        }
    }

    /// Whether this error means a query **limit** fired (deadline, token,
    /// budget, memory ceiling) as opposed to bad input or an engine fault.
    /// The CLI maps limit errors to their own exit code.
    pub fn is_limit(&self) -> bool {
        matches!(
            self,
            DccsError::DeadlineExceeded { .. }
                | DccsError::Cancelled { .. }
                | DccsError::BudgetExceeded { .. }
                | DccsError::MemoryLimit { .. }
        )
    }
}

impl fmt::Display for DccsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DccsError::SupportZero => write!(f, "support threshold s must be at least 1"),
            DccsError::SupportExceedsLayers { s, num_layers } => {
                write!(f, "support threshold s={s} exceeds the number of layers {num_layers}")
            }
            DccsError::ResultSizeZero => write!(f, "result size k must be at least 1"),
            DccsError::EmptyGraph { num_vertices, num_layers } => {
                write!(
                    f,
                    "cannot query an empty graph ({num_vertices} vertices, {num_layers} layers)"
                )
            }
            DccsError::BudgetExceeded { candidates, limit } => {
                write!(
                    f,
                    "candidate budget exceeded: {candidates} candidate d-CCs \
                     (limit {limit}); use an approximation algorithm or raise the budget"
                )
            }
            DccsError::DeadlineExceeded { deadline, partial } => {
                write!(
                    f,
                    "deadline of {deadline:?} exceeded; partial result covers {} vertices \
                     with {} cores",
                    partial.cover_size(),
                    partial.num_cores()
                )
            }
            DccsError::Cancelled { partial } => {
                write!(
                    f,
                    "query cancelled; partial result covers {} vertices with {} cores",
                    partial.cover_size(),
                    partial.num_cores()
                )
            }
            DccsError::MemoryLimit { required_words, limit_words, .. } => {
                write!(
                    f,
                    "forced dense index needs {required_words} words, over the \
                     {limit_words}-word ceiling; use the CSR index or raise the limit"
                )
            }
            DccsError::TaskPanicked { message } => {
                write!(f, "an engine task panicked: {message}")
            }
            DccsError::IndexCorrupt { message } => {
                write!(f, "index artifact is unusable: {message}")
            }
            DccsError::IndexUnavailable { message } => {
                write!(f, "cannot serve the query from the index: {message}")
            }
            DccsError::BatchInvalid { message } => {
                write!(f, "mutation batch rejected: {message}")
            }
        }
    }
}

impl std::error::Error for DccsError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::SearchStats;

    fn partial() -> Box<DccsResult> {
        Box::new(DccsResult::from_cores(4, vec![], SearchStats::default(), Duration::ZERO))
    }

    #[test]
    fn display_messages_are_one_line() {
        let errors = [
            DccsError::SupportZero,
            DccsError::SupportExceedsLayers { s: 9, num_layers: 4 },
            DccsError::ResultSizeZero,
            DccsError::EmptyGraph { num_vertices: 0, num_layers: 3 },
            DccsError::BudgetExceeded { candidates: 99, limit: 24 },
            DccsError::DeadlineExceeded { deadline: Duration::from_millis(50), partial: partial() },
            DccsError::Cancelled { partial: partial() },
            DccsError::MemoryLimit { required_words: 4096, limit_words: 1024, partial: partial() },
            DccsError::TaskPanicked { message: "injected fault at bu.eval".into() },
            DccsError::IndexCorrupt { message: "checksum mismatch".into() },
            DccsError::IndexUnavailable { message: "no index attached".into() },
            DccsError::BatchInvalid { message: "vertex 99 out of range".into() },
        ];
        for err in errors {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(!text.contains('\n'), "error message must be one line: {text}");
        }
    }

    #[test]
    fn implements_std_error() {
        let err: Box<dyn std::error::Error> = Box::new(DccsError::SupportZero);
        assert_eq!(err.to_string(), "support threshold s must be at least 1");
    }

    #[test]
    fn limit_classification_and_partial_access() {
        assert!(!DccsError::SupportZero.is_limit());
        assert!(DccsError::BudgetExceeded { candidates: 9, limit: 4 }.is_limit());
        assert!(!DccsError::TaskPanicked { message: "x".into() }.is_limit());
        assert!(!DccsError::IndexCorrupt { message: "x".into() }.is_limit());
        assert!(!DccsError::IndexUnavailable { message: "x".into() }.is_limit());
        assert!(!DccsError::BatchInvalid { message: "x".into() }.is_limit());
        let err = DccsError::Cancelled { partial: partial() };
        assert!(err.is_limit());
        assert_eq!(err.partial().unwrap().num_cores(), 0);
        assert!(DccsError::SupportZero.partial().is_none());
    }

    #[test]
    fn equality_ignores_partial_payloads() {
        let a = DccsError::Cancelled { partial: partial() };
        let mut other = partial();
        other.stats.dcc_calls = 77;
        let b = DccsError::Cancelled { partial: other };
        assert_eq!(a, b);
        assert_ne!(a, DccsError::SupportZero);
        assert_eq!(
            DccsError::DeadlineExceeded { deadline: Duration::from_millis(5), partial: partial() },
            DccsError::DeadlineExceeded { deadline: Duration::from_millis(5), partial: partial() },
        );
        assert_ne!(
            DccsError::DeadlineExceeded { deadline: Duration::from_millis(5), partial: partial() },
            DccsError::DeadlineExceeded { deadline: Duration::from_millis(6), partial: partial() },
        );
    }
}
