//! The paper's Section VI evaluation (Figs. 12 and 14–32) as one recorded
//! group: `paper_figures` in `BENCH_dcc.json`.
//!
//! Every query row is one cold [`run_algorithm`] query at one executor
//! thread on a registry analogue at the recorded scale, holding the
//! figure it feeds, the dataset, algorithm and `(d, s, k)`, the
//! preprocess/search/select split with the total, the cover and the work
//! counters, and the figure's own columns:
//!
//! * `14/16`, `15/17` — time and cover against small `s` (English, Stack:
//!   GD vs BU) and large `s ∈ {l−4..l}` (GD vs BU vs TD);
//! * `18/20`, `19/21` — against `d` at `s = 3` (GD vs BU) and `s = l − 2`
//!   (GD vs TD), on German and English;
//! * `22/24`, `23/25` — against `k`, likewise, on Wiki and English;
//! * `26`, `27` — against the vertex fraction `p` (column `p`, `vertices`)
//!   and the layer fraction `q` (`q`, `layers`) of Stack;
//! * `28a`, `28b` — the preprocessing ablation (`variant`), BU at small
//!   `s` and TD at large `s`, on Wiki and English;
//! * `29-32` — the MiMAG quasi-clique baseline against BU at `s = l/2`, on
//!   PPI and Author: the cover's `precision`, `recall` and `f1` against
//!   MiMAG's, the Fig. 30 `containment` fractions, the Fig. 31
//!   `class_density`, and the share of planted complexes found.
//!
//! Fig. 12's rows hold each analogue's graph statistics beside the
//! paper's. A summary per figure ([`FigureSummary`]) divides BU's summed
//! time by GD's over the small-`s` rows, TD's by GD's over the large-`s`
//! rows, and each algorithm's summed cover by GD's over the same rows.

use crate::runner::{run_algorithm, Algorithm, RunOutcome};
use datasets::{all_datasets, generate, Dataset, DatasetId, Scale};
use dccs::{complexes_found, containment_distribution, CoverSimilarity, DccsOptions, DccsParams};
use mlgraph::algo::edge_density_within;
use mlgraph::sample::{sample_layers, sample_vertices};
use mlgraph::{GraphStats, MultiLayerGraph, VertexSet};
use quasiclique::{mimag_baseline, QcConfig};
use serde_json::Value;

/// The figures the group records, in row order.
pub const FIGURES: [&str; 12] =
    ["12", "14/16", "15/17", "18/20", "19/21", "22/24", "23/25", "26", "27", "28a", "28b", "29-32"];

/// Fig. 13's `k` values.
const K_VALUES: [usize; 5] = [5, 10, 15, 20, 25];
/// Fig. 13's `d` values.
const D_VALUES: [u32; 5] = [2, 3, 4, 5, 6];
/// Fig. 13's small-`s` values.
const SMALL_S: [usize; 5] = [1, 2, 3, 4, 5];
/// Fig. 13's vertex fractions `p` and layer fractions `q`.
const FRACTIONS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];
/// Fig. 13's default `k`.
const DEFAULT_K: usize = 10;
/// Fig. 13's default `d`.
const DEFAULT_D: u32 = 4;
/// Fig. 13's default small `s`.
const DEFAULT_SMALL_S: usize = 3;

/// Fig. 13's large-`s` values for a graph with `l` layers: `{l−4..l}`.
fn large_s(num_layers: usize) -> Vec<usize> {
    (0..5).rev().filter_map(|offset| num_layers.checked_sub(offset)).filter(|&s| s >= 1).collect()
}

/// Fig. 13's default large `s` for a graph with `l` layers: `l − 2`.
fn default_large_s(num_layers: usize) -> usize {
    num_layers.saturating_sub(2).max(1)
}

/// Seed of the Figs. 26–27 vertex and layer samples.
const SAMPLE_SEED: u64 = 0x5CA1E;
/// The quasi-clique density threshold of Figs. 29–32.
const GAMMA: f64 = 0.8;
/// Name of the quasi-clique baseline's rows.
const MIMAG: &str = "MiMAG";

/// One row of the group.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// The figure the row feeds, one of [`FIGURES`].
    pub figure: &'static str,
    /// Dataset analogue name.
    pub dataset: &'static str,
    /// The query and its measurements; `None` on Fig. 12's rows.
    pub query: Option<QueryRow>,
    /// The figure's own columns.
    pub columns: Vec<(&'static str, Value)>,
}

/// What one query row measured.
#[derive(Clone, Debug)]
pub struct QueryRow {
    /// `GD-DCCS`, `BU-DCCS`, `TD-DCCS` or `MiMAG`.
    pub algorithm: &'static str,
    /// Degree threshold (MiMAG's rows: its minimum size is `d + 1`).
    pub d: u32,
    /// Layer-subset size (MiMAG's minimum support).
    pub s: usize,
    /// Result budget.
    pub k: usize,
    /// Whether the row is in its figure's large-`s` half.
    pub large_s: bool,
    /// Preprocessing seconds.
    pub preprocess_secs: f64,
    /// Candidate-search seconds (all of MiMAG's time).
    pub search_secs: f64,
    /// Max-k-cover selection seconds.
    pub select_secs: f64,
    /// End-to-end seconds.
    pub total_secs: f64,
    /// `|Cov(R)|`.
    pub cover: usize,
    /// Candidate d-CCs generated (MiMAG: quasi-cliques recorded).
    pub candidates: usize,
    /// Core computations (0 for MiMAG).
    pub dcc_calls: usize,
    /// Subtrees pruned (0 for MiMAG).
    pub pruned: usize,
}

impl QueryRow {
    fn measured(outcome: &RunOutcome, large_s: bool) -> Self {
        let phase = &outcome.result.stats.phase;
        QueryRow {
            algorithm: outcome.algorithm.name(),
            d: outcome.params.d,
            s: outcome.params.s,
            k: outcome.params.k,
            large_s,
            preprocess_secs: phase.preprocess.as_secs_f64(),
            search_secs: phase.search.as_secs_f64(),
            select_secs: phase.select.as_secs_f64(),
            total_secs: outcome.seconds(),
            cover: outcome.cover_size,
            candidates: outcome.candidates,
            dcc_calls: outcome.dcc_calls,
            pruned: outcome.pruned,
        }
    }
}

impl FigureRow {
    /// Renders the row as one flat JSON object.
    pub fn to_json(&self) -> Value {
        let mut fields =
            vec![("figure", Value::from(self.figure)), ("dataset", Value::from(self.dataset))];
        if let Some(q) = &self.query {
            fields.extend([
                ("algorithm", Value::from(q.algorithm)),
                ("d", Value::from(q.d)),
                ("s", Value::from(q.s)),
                ("k", Value::from(q.k)),
                ("s_half", Value::from(if q.large_s { "large" } else { "small" })),
                ("preprocess_secs", Value::from(q.preprocess_secs)),
                ("search_secs", Value::from(q.search_secs)),
                ("select_secs", Value::from(q.select_secs)),
                ("total_secs", Value::from(q.total_secs)),
                ("cover", Value::from(q.cover)),
                ("candidates", Value::from(q.candidates)),
                ("dcc_calls", Value::from(q.dcc_calls)),
                ("subtrees_pruned", Value::from(q.pruned)),
            ]);
        }
        fields.extend(self.columns.iter().cloned());
        Value::object(fields)
    }
}

/// One figure's summary ratios, each a quotient of two sums over the
/// figure's query rows; absent where a side has no row or sums to 0.
#[derive(Clone, Debug, PartialEq)]
pub struct FigureSummary {
    /// The figure summarized.
    pub figure: &'static str,
    /// BU's summed `total_secs` ÷ GD's, over the small-`s` rows.
    pub bu_over_gd_secs: Option<f64>,
    /// TD's summed `total_secs` ÷ GD's, over the large-`s` rows.
    pub td_over_gd_secs: Option<f64>,
    /// Each other algorithm's summed cover ÷ GD's, over the halves (small-
    /// or large-`s`) that algorithm ran in.
    pub cover_over_gd: Vec<(&'static str, f64)>,
}

impl FigureSummary {
    /// Renders the summary as a JSON object.
    pub fn to_json(&self) -> Value {
        let ratio = |r: Option<f64>| r.map_or(Value::Null, Value::from);
        let covers = self.cover_over_gd.iter().map(|&(name, r)| (name, Value::from(r))).collect();
        Value::object(vec![
            ("figure", Value::from(self.figure)),
            ("bu_over_gd_secs", ratio(self.bu_over_gd_secs)),
            ("td_over_gd_secs", ratio(self.td_over_gd_secs)),
            ("cover_over_gd", Value::object(covers)),
        ])
    }
}

/// The recorded group: every row, at one scale.
#[derive(Clone, Debug)]
pub struct PaperFigures {
    /// Scale of the analogues.
    pub scale: Scale,
    /// Every row, in figure order.
    pub rows: Vec<FigureRow>,
}

impl PaperFigures {
    /// One summary per figure with query rows, in figure order.
    pub fn summaries(&self) -> Vec<FigureSummary> {
        FIGURES.iter().filter_map(|&figure| self.summarize(figure)).collect()
    }

    fn summarize(&self, figure: &'static str) -> Option<FigureSummary> {
        let rows: Vec<&QueryRow> = self
            .rows
            .iter()
            .filter(|r| r.figure == figure)
            .filter_map(|r| r.query.as_ref())
            .collect();
        if rows.is_empty() {
            return None;
        }
        // Σ `value` over `algorithm`'s rows in `halves` (`true` = large s),
        // ÷ the same sum over GD's rows there.
        let over_gd = |algorithm: &str, halves: &[bool], value: fn(&QueryRow) -> f64| {
            let sum = |name: &str| {
                let picked: Vec<f64> = rows
                    .iter()
                    .filter(|r| r.algorithm == name && halves.contains(&r.large_s))
                    .map(|r| value(r))
                    .collect();
                (!picked.is_empty()).then(|| picked.iter().sum::<f64>())
            };
            let (num, den) = (sum(algorithm)?, sum(GD.name())?);
            (den > 0.0).then(|| num / den)
        };
        let secs = |r: &QueryRow| r.total_secs;
        let mut cover_over_gd: Vec<(&'static str, f64)> = Vec::new();
        for r in &rows {
            if r.algorithm == GD.name() || cover_over_gd.iter().any(|&(n, _)| n == r.algorithm) {
                continue;
            }
            let halves: Vec<bool> =
                rows.iter().filter(|x| x.algorithm == r.algorithm).map(|x| x.large_s).collect();
            if let Some(ratio) = over_gd(r.algorithm, &halves, |r| r.cover as f64) {
                cover_over_gd.push((r.algorithm, ratio));
            }
        }
        Some(FigureSummary {
            figure,
            bu_over_gd_secs: over_gd(BU.name(), &[false], secs),
            td_over_gd_secs: over_gd(TD.name(), &[true], secs),
            cover_over_gd,
        })
    }

    /// Renders the group as a JSON object: its scale, rows and summaries.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("scale", Value::from(format!("{:?}", self.scale))),
            ("rows", Value::Array(self.rows.iter().map(FigureRow::to_json).collect())),
            (
                "summaries",
                Value::Array(self.summaries().iter().map(FigureSummary::to_json).collect()),
            ),
        ])
    }
}

/// Runs every figure's queries on the six analogues at `scale`.
pub fn paper_figures_suite(scale: Scale) -> PaperFigures {
    use DatasetId::{Author, English, German, Ppi, Stack, Wiki};
    let all: Vec<Dataset> = all_datasets().into_iter().map(|id| generate(id, scale)).collect();
    let ds = |id: DatasetId| all.iter().find(|d| d.id == id).expect("every analogue generated");
    let mut rows: Vec<FigureRow> = all.iter().map(dataset_row).collect();
    for id in [English, Stack] {
        vary_s(&mut rows, ds(id));
    }
    for Dataset { graph, spec, .. } in [ds(German), ds(English)] {
        for d in D_VALUES {
            small_and_large_s(&mut rows, ["18/20", "19/21"], spec.name, graph, d, DEFAULT_K);
        }
    }
    for Dataset { graph, spec, .. } in [ds(Wiki), ds(English)] {
        for k in K_VALUES {
            small_and_large_s(&mut rows, ["22/24", "23/25"], spec.name, graph, DEFAULT_D, k);
        }
    }
    scalability(&mut rows, ds(Stack));
    for fig in ["28a", "28b"] {
        for id in [Wiki, English] {
            ablation(&mut rows, fig, ds(id));
        }
    }
    for id in [Ppi, Author] {
        quasi_clique(&mut rows, ds(id));
    }
    // Rows in figure order; within a figure, in run order.
    rows.sort_by_key(|r| FIGURES.iter().position(|&f| f == r.figure));
    PaperFigures { scale, rows }
}

/// Fig. 12: the analogue's statistics beside the paper's.
fn dataset_row(ds: &Dataset) -> FigureRow {
    let stats = GraphStats::compute(&ds.graph);
    let paper = &ds.spec.paper;
    FigureRow {
        figure: "12",
        dataset: ds.spec.name,
        query: None,
        columns: vec![
            ("vertices", Value::from(stats.num_vertices)),
            ("total_edges", Value::from(stats.total_edges)),
            ("union_edges", Value::from(stats.union_edges)),
            ("layers", Value::from(stats.num_layers)),
            ("paper_vertices", Value::from(paper.num_vertices)),
            ("paper_total_edges", Value::from(paper.total_edges)),
            ("paper_union_edges", Value::from(paper.union_edges)),
            ("paper_layers", Value::from(paper.num_layers)),
            ("vertex_scale", Value::from(stats.num_vertices as f64 / paper.num_vertices as f64)),
        ],
    }
}

const GD: Algorithm = Algorithm::Greedy;
const BU: Algorithm = Algorithm::BottomUp;
const TD: Algorithm = Algorithm::TopDown;

/// One cold query of `algorithm` on `g`, as a row of `figure`.
fn run_row(
    figure: &'static str,
    dataset: &'static str,
    g: &MultiLayerGraph,
    algorithm: Algorithm,
    params: DccsParams,
    large_s: bool,
    opts: &DccsOptions,
) -> FigureRow {
    let outcome = run_algorithm(algorithm, g, &params, opts);
    FigureRow {
        figure,
        dataset,
        query: Some(QueryRow::measured(&outcome, large_s)),
        columns: Vec::new(),
    }
}

/// Figs. 14–17: small `s` (GD vs BU), then large `s` (GD vs BU vs TD).
fn vary_s(rows: &mut Vec<FigureRow>, ds: &Dataset) {
    let (g, opts) = (&ds.graph, DccsOptions::default());
    let l = g.num_layers();
    for s in SMALL_S.into_iter().filter(|&s| s <= l) {
        let params = DccsParams::new(DEFAULT_D, s, DEFAULT_K);
        for algorithm in [GD, BU] {
            rows.push(run_row("14/16", ds.spec.name, g, algorithm, params, false, &opts));
        }
    }
    for s in large_s(l) {
        let params = DccsParams::new(DEFAULT_D, s, DEFAULT_K);
        for algorithm in [GD, BU, TD] {
            rows.push(run_row("15/17", ds.spec.name, g, algorithm, params, true, &opts));
        }
    }
}

/// GD and BU at `s = 3` as rows of `figures[0]`, then GD and TD at
/// `s = l − 2` as rows of `figures[1]`, all at `(d, k)` on `g`.
fn small_and_large_s(
    rows: &mut Vec<FigureRow>,
    figures: [&'static str; 2],
    dataset: &'static str,
    g: &MultiLayerGraph,
    d: u32,
    k: usize,
) {
    let l = g.num_layers();
    let halves = [
        (figures[0], DEFAULT_SMALL_S.min(l), false, BU),
        (figures[1], default_large_s(l), true, TD),
    ];
    for (figure, s, large_s, tree) in halves {
        for algorithm in [GD, tree] {
            let params = DccsParams::new(d, s, k);
            rows.push(run_row(
                figure,
                dataset,
                g,
                algorithm,
                params,
                large_s,
                &DccsOptions::default(),
            ));
        }
    }
}

/// Figs. 26–27: the vertex fraction `p`, then the layer fraction `q`, of
/// `ds`, each at small and large `s`.
fn scalability(rows: &mut Vec<FigureRow>, ds: &Dataset) {
    for (figure, by_vertices) in [("26", true), ("27", false)] {
        for fraction in FRACTIONS {
            let sampled = if by_vertices {
                sample_vertices(&ds.graph, fraction, SAMPLE_SEED)
            } else {
                sample_layers(&ds.graph, fraction, SAMPLE_SEED)
            }
            .expect("Fig. 13's fractions lie in (0, 1]");
            let columns = if by_vertices {
                [("p", Value::from(fraction)), ("vertices", Value::from(sampled.num_vertices()))]
            } else {
                [("q", Value::from(fraction)), ("layers", Value::from(sampled.num_layers()))]
            };
            let start = rows.len();
            small_and_large_s(rows, [figure; 2], ds.spec.name, &sampled, DEFAULT_D, DEFAULT_K);
            for row in &mut rows[start..] {
                row.columns = columns.to_vec();
            }
        }
    }
}

/// Fig. 28: each preprocessing step switched off in turn, then all of
/// them — BU at small `s` (`28a`) or TD at large `s` (`28b`).
fn ablation(rows: &mut Vec<FigureRow>, figure: &'static str, ds: &Dataset) {
    let g = &ds.graph;
    let (algorithm, large_s, s) = if figure == "28a" {
        (BU, false, DEFAULT_SMALL_S.min(g.num_layers()))
    } else {
        (TD, true, default_large_s(g.num_layers()))
    };
    let params = DccsParams::new(DEFAULT_D, s, DEFAULT_K);
    for (variant, opts) in [
        ("Default", DccsOptions::default()),
        ("No-SL", DccsOptions::no_sort_layers()),
        ("No-IR", DccsOptions::no_init_topk()),
        ("No-VD", DccsOptions::no_vertex_deletion()),
        ("No-Pre", DccsOptions::no_preprocessing()),
    ] {
        let mut row = run_row(figure, ds.spec.name, g, algorithm, params, large_s, &opts);
        row.columns = vec![("variant", Value::from(variant))];
        rows.push(row);
    }
}

/// Figs. 29–32: the MiMAG baseline (γ = 0.8, minimum size `d + 1`) against
/// BU at `s = l/2`, `k = 10`, for `d ∈ {2, 3, 4}`.
fn quasi_clique(rows: &mut Vec<FigureRow>, ds: &Dataset) {
    let g = &ds.graph;
    let s = (g.num_layers() / 2).max(1);
    let union_graph = g.union_graph();
    for d in [2u32, 3, 4] {
        let bu = run_algorithm(BU, g, &DccsParams::new(d, s, DEFAULT_K), &DccsOptions::default());
        let qc = QcConfig {
            gamma: GAMMA,
            min_support: s,
            min_size: d as usize + 1,
            ..QcConfig::default()
        };
        let mimag = mimag_baseline(g, &qc, DEFAULT_K);
        let (bu_cover, qc_cover) = (&bu.result.cover, &mimag.cover);
        let found = |subgraphs: &[VertexSet]| {
            Value::from(complexes_found(&ds.ground_truth.modules, subgraphs))
        };
        let secs = mimag.elapsed.as_secs_f64();
        rows.push(FigureRow {
            figure: "29-32",
            dataset: ds.spec.name,
            query: Some(QueryRow {
                algorithm: MIMAG,
                d,
                s,
                k: DEFAULT_K,
                large_s: false,
                preprocess_secs: 0.0,
                search_secs: secs,
                select_secs: 0.0,
                total_secs: secs,
                cover: mimag.cover_size(),
                candidates: mimag.stats.raw_results,
                dcc_calls: 0,
                pruned: 0,
            }),
            columns: vec![("complexes_found", found(&mimag.quasi_cliques))],
        });

        let sim = CoverSimilarity::compute(qc_cover, bu_cover);
        let qcs: Vec<Vec<u32>> = mimag.quasi_cliques.iter().map(VertexSet::to_vec).collect();
        let containment = containment_distribution(&qcs, bu_cover)
            .into_iter()
            .map(|(size, fractions)| {
                Value::object(vec![
                    ("size", Value::from(size)),
                    ("fractions", Value::from(fractions)),
                ])
            })
            .collect();
        let class_density = [
            ("both", bu_cover.intersection(qc_cover)),
            ("dccs_only", bu_cover.difference(qc_cover)),
            ("mimag_only", qc_cover.difference(bu_cover)),
        ]
        .into_iter()
        .map(|(class, set)| {
            Value::object(vec![
                ("class", Value::from(class)),
                ("vertices", Value::from(set.len())),
                ("density", Value::from(edge_density_within(&union_graph, &set))),
            ])
        })
        .collect();
        let cores: Vec<VertexSet> = bu.result.cores.iter().map(|c| c.vertices.clone()).collect();
        rows.push(FigureRow {
            figure: "29-32",
            dataset: ds.spec.name,
            query: Some(QueryRow::measured(&bu, false)),
            columns: vec![
                ("precision", Value::from(sim.precision)),
                ("recall", Value::from(sim.recall)),
                ("f1", Value::from(sim.f1)),
                ("containment", Value::Array(containment)),
                ("class_density", Value::Array(class_density)),
                ("complexes_found", found(&cores)),
            ],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn defaults_match_fig13() {
        assert_eq!(K_VALUES, [5, 10, 15, 20, 25]);
        assert_eq!(D_VALUES, [2, 3, 4, 5, 6]);
        assert_eq!(SMALL_S, [1, 2, 3, 4, 5]);
        assert_eq!(FRACTIONS.len(), 5);
        assert_eq!((DEFAULT_K, DEFAULT_D, DEFAULT_SMALL_S), (10, 4, 3));
    }

    /// The whole group at tiny scale: every figure is present, rows that
    /// repeat a query agree on its cover and counters, and every summary
    /// ratio is the quotient its rows give.
    #[test]
    fn tiny_scale_group_is_complete_consistent_and_summarized() {
        let figures = paper_figures_suite(Scale::Tiny);
        let mut names: Vec<&str> = figures.rows.iter().map(|r| r.figure).collect();
        names.dedup();
        assert_eq!(names, FIGURES);

        // A query is its dataset, algorithm and (d, s, k), plus the sample
        // fraction or preprocessing variant where its figure varies one.
        let mut seen: HashMap<String, (usize, usize, usize, usize)> = HashMap::new();
        let mut query_rows = 0;
        for row in &figures.rows {
            let Some(q) = &row.query else {
                assert_eq!(row.figure, "12");
                continue;
            };
            query_rows += 1;
            let varied: Vec<String> = row
                .columns
                .iter()
                .filter(|(name, _)| matches!(*name, "p" | "q" | "variant"))
                .map(|(name, v)| format!("{name}={}", serde_json::to_string(v)))
                .collect();
            let key = format!("{} {} {} {} {} {varied:?}", row.dataset, q.algorithm, q.d, q.s, q.k);
            let counters = (q.cover, q.candidates, q.dcc_calls, q.pruned);
            assert_eq!(*seen.entry(key.clone()).or_insert(counters), counters, "{key}");
        }
        assert!(seen.len() < query_rows, "the figures repeat some queries");

        let summaries = figures.summaries();
        assert_eq!(summaries.len(), FIGURES.len() - 1, "every figure but Fig. 12 has queries");
        for summary in &summaries {
            let rows: Vec<&QueryRow> = figures
                .rows
                .iter()
                .filter(|r| r.figure == summary.figure)
                .filter_map(|r| r.query.as_ref())
                .collect();
            let total = |algorithm: &str, halves: &[bool], value: fn(&QueryRow) -> f64| {
                let values: Vec<f64> = rows
                    .iter()
                    .filter(|r| r.algorithm == algorithm && halves.contains(&r.large_s))
                    .map(|r| value(r))
                    .collect();
                (!values.is_empty()).then(|| values.iter().sum::<f64>())
            };
            let quotient = |num: Option<f64>, den: Option<f64>| {
                num.zip(den).filter(|&(_, den)| den > 0.0).map(|(num, den)| num / den)
            };
            let secs = |r: &QueryRow| r.total_secs;
            let (gd, bu, td) = ("GD-DCCS", "BU-DCCS", "TD-DCCS");
            let bu_secs = quotient(total(bu, &[false], secs), total(gd, &[false], secs));
            let td_secs = quotient(total(td, &[true], secs), total(gd, &[true], secs));
            assert_eq!(summary.bu_over_gd_secs, bu_secs, "{}", summary.figure);
            assert_eq!(summary.td_over_gd_secs, td_secs, "{}", summary.figure);
            let mut covers: Vec<(&str, f64)> = Vec::new();
            for name in ["BU-DCCS", "TD-DCCS", "MiMAG"] {
                let halves: Vec<bool> =
                    rows.iter().filter(|r| r.algorithm == name).map(|r| r.large_s).collect();
                let cover = |r: &QueryRow| r.cover as f64;
                if let Some(ratio) =
                    quotient(total(name, &halves, cover), total(gd, &halves, cover))
                {
                    covers.push((name, ratio));
                }
            }
            assert_eq!(summary.cover_over_gd, covers, "{}", summary.figure);
        }
        let vary_s = summaries.iter().find(|s| s.figure == "15/17").unwrap();
        let names: Vec<&str> = vary_s.cover_over_gd.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, ["BU-DCCS", "TD-DCCS"]);
        assert!(vary_s.td_over_gd_secs.is_some() && vary_s.bu_over_gd_secs.is_none());
    }

    #[test]
    fn large_s_ranges() {
        assert_eq!(large_s(24), vec![20, 21, 22, 23, 24]);
        assert_eq!(large_s(15), vec![11, 12, 13, 14, 15]);
        assert_eq!(default_large_s(24), 22);
        assert_eq!(default_large_s(3), 1);
        // Tiny layer counts stay valid.
        assert_eq!(large_s(3), vec![1, 2, 3]);
    }
}
