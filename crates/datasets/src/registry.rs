//! The dataset registry: one entry per paper dataset, generated on demand at
//! a chosen scale.

use crate::ground_truth::GroundTruth;
use crate::spec::{paper_stats, DatasetSpec};
use crate::synthetic::{module_graph, temporal_graph, ModuleGraphConfig, TemporalGraphConfig};
use mlgraph::MultiLayerGraph;

/// The six datasets of Fig. 12.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// STRING protein–protein interaction network (8 detection methods).
    Ppi,
    /// AMiner co-authorship network (10 years).
    Author,
    /// German Wikipedia interaction snapshots (14 years).
    German,
    /// Wiki talk snapshots (24 windows).
    Wiki,
    /// English Wikipedia interaction snapshots (15 years).
    English,
    /// Stack Overflow interaction snapshots (24 windows).
    Stack,
}

impl DatasetId {
    /// The paper's name for the dataset.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Ppi => "PPI",
            DatasetId::Author => "Author",
            DatasetId::German => "German",
            DatasetId::Wiki => "Wiki",
            DatasetId::English => "English",
            DatasetId::Stack => "Stack",
        }
    }

    /// Parses a dataset name (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "ppi" => Some(DatasetId::Ppi),
            "author" => Some(DatasetId::Author),
            "german" => Some(DatasetId::German),
            "wiki" => Some(DatasetId::Wiki),
            "english" => Some(DatasetId::English),
            "stack" => Some(DatasetId::Stack),
            _ => None,
        }
    }

    /// Whether the analogue ships ground-truth modules.
    pub fn has_ground_truth(self) -> bool {
        matches!(self, DatasetId::Ppi | DatasetId::Author)
    }

    /// The dataset specification (paper stats + analogue shape at
    /// [`Scale::Full`]).
    pub fn spec(self) -> DatasetSpec {
        let (synthetic_vertices, synthetic_edges_per_layer) = full_shape(self);
        let paper = paper_stats(self.name()).expect("paper stats exist for every dataset");
        DatasetSpec {
            name: self.name(),
            description: match self {
                DatasetId::Ppi => "protein interactions detected by 8 methods",
                DatasetId::Author => "co-authorship across 10 years",
                DatasetId::German => "German Wikipedia user interactions per year",
                DatasetId::Wiki => "wiki interactions per time window",
                DatasetId::English => "English Wikipedia user interactions per year",
                DatasetId::Stack => "Stack Overflow interactions per time window",
            },
            paper,
            synthetic_vertices,
            synthetic_layers: paper.num_layers,
            synthetic_edges_per_layer,
            has_ground_truth: self.has_ground_truth(),
            seed: seed_of(self),
        }
    }
}

/// All six dataset identifiers in Fig. 12 order.
pub fn all_datasets() -> [DatasetId; 6] {
    [
        DatasetId::Ppi,
        DatasetId::Author,
        DatasetId::German,
        DatasetId::Wiki,
        DatasetId::English,
        DatasetId::Stack,
    ]
}

/// How large an analogue to generate.
///
/// * `Large` — four times `Full`, for the large-scale bench tier (the
///   10^6-vertex runs additionally use the Chung–Lu generator directly,
///   which streams one layer at a time).
/// * `Full` — the default experiment scale (large datasets are scaled down
///   from the paper's millions of vertices to tens of thousands).
/// * `Small` — one quarter of `Full`, for quick experiment runs.
/// * `Tiny` — a few hundred vertices, for tests and smoke runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Four times the default scale.
    Large,
    /// Default experiment scale.
    Full,
    /// Quarter scale.
    Small,
    /// Test scale.
    Tiny,
}

impl Scale {
    /// Parses a scale name.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "large" => Some(Scale::Large),
            "full" => Some(Scale::Full),
            "small" => Some(Scale::Small),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    /// Applies the scale to a [`Scale::Full`] quantity (vertex counts,
    /// edge counts, module/story counts).
    fn scaled(self, value: usize) -> usize {
        match self {
            Scale::Large => value * 4,
            Scale::Full => value,
            Scale::Small => value / 4,
            Scale::Tiny => value / 16,
        }
    }
}

/// The temporal-generator shape sized by `scale`: the base graph and batch
/// stream behind `dccs apply --stream` and `bench_dcc`'s
/// `incremental_maintenance` group.
pub fn temporal_config(scale: Scale) -> mlgraph::generators::TemporalConfig {
    let (num_vertices, num_layers, edges_per_layer, core_size) = match scale {
        Scale::Tiny => (150, 4, 450, 24),
        Scale::Small => (600, 6, 2400, 48),
        Scale::Full => (2000, 8, 8000, 80),
        Scale::Large => (8000, 8, 32000, 160),
    };
    mlgraph::generators::TemporalConfig {
        num_vertices,
        num_layers,
        edges_per_layer,
        core_size,
        ..Default::default()
    }
}

/// A generated dataset: the graph, optional ground truth, and its spec.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Which dataset this is.
    pub id: DatasetId,
    /// The generated multi-layer graph.
    pub graph: MultiLayerGraph,
    /// Planted ground-truth modules (non-empty for PPI and Author).
    pub ground_truth: GroundTruth,
    /// The dataset specification.
    pub spec: DatasetSpec,
}

fn seed_of(id: DatasetId) -> u64 {
    match id {
        DatasetId::Ppi => 0xA11CE,
        DatasetId::Author => 0xB0B,
        DatasetId::German => 0xDE,
        DatasetId::Wiki => 0x91C1,
        DatasetId::English => 0xE17,
        DatasetId::Stack => 0x57AC,
    }
}

/// Full-scale analogue shape: (vertices, edges per layer).
fn full_shape(id: DatasetId) -> (usize, usize) {
    match id {
        DatasetId::Ppi => (328, 400),
        DatasetId::Author => (1_017, 1_100),
        DatasetId::German => (8_000, 9_000),
        DatasetId::Wiki => (12_000, 7_000),
        DatasetId::English => (15_000, 16_000),
        DatasetId::Stack => (20_000, 26_000),
    }
}

/// Generates a dataset analogue at the requested scale.
pub fn generate(id: DatasetId, scale: Scale) -> Dataset {
    let spec = id.spec();
    let n = scale.scaled(spec.synthetic_vertices).max(64);
    let epl = scale.scaled(spec.synthetic_edges_per_layer).max(64);
    let (graph, ground_truth) = match id {
        DatasetId::Ppi => module_graph(&ModuleGraphConfig {
            num_vertices: n,
            num_layers: spec.synthetic_layers,
            num_modules: scale.scaled(30).max(6),
            module_size: (4, 12.min(n / 4).max(5)),
            layers_per_module: 5,
            density: 0.9,
            background_edges_per_layer: epl,
            seed: spec.seed,
        }),
        DatasetId::Author => module_graph(&ModuleGraphConfig {
            num_vertices: n,
            num_layers: spec.synthetic_layers,
            num_modules: scale.scaled(60).max(8),
            module_size: (4, 16.min(n / 4).max(5)),
            layers_per_module: 5,
            density: 0.85,
            background_edges_per_layer: epl,
            seed: spec.seed,
        }),
        DatasetId::German | DatasetId::Wiki | DatasetId::English | DatasetId::Stack => {
            let layers_per_story = (spec.synthetic_layers / 2).max(3);
            temporal_graph(&TemporalGraphConfig {
                num_vertices: n,
                num_layers: spec.synthetic_layers,
                edges_per_layer: epl,
                retain: 0.55,
                core_size: (n / 40).max(16),
                core_bias: 0.3,
                num_stories: scale.scaled(24).max(6),
                story_size: (12, 30.min(n / 8).max(13)),
                layers_per_story: layers_per_story.min(spec.synthetic_layers),
                story_density: 0.8,
                seed: spec.seed,
            })
        }
    };
    Dataset { id, graph, ground_truth, spec }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for id in all_datasets() {
            assert_eq!(DatasetId::parse(id.name()), Some(id));
            assert_eq!(DatasetId::parse(&id.name().to_lowercase()), Some(id));
        }
        assert_eq!(DatasetId::parse("nope"), None);
    }

    #[test]
    fn specs_match_paper_layer_counts() {
        assert_eq!(DatasetId::Ppi.spec().synthetic_layers, 8);
        assert_eq!(DatasetId::Author.spec().synthetic_layers, 10);
        assert_eq!(DatasetId::German.spec().synthetic_layers, 14);
        assert_eq!(DatasetId::Wiki.spec().synthetic_layers, 24);
        assert_eq!(DatasetId::English.spec().synthetic_layers, 15);
        assert_eq!(DatasetId::Stack.spec().synthetic_layers, 24);
    }

    #[test]
    fn tiny_ppi_generates_quickly_with_ground_truth() {
        let ds = generate(DatasetId::Ppi, Scale::Tiny);
        assert_eq!(ds.graph.num_layers(), 8);
        assert!(ds.graph.num_vertices() >= 64);
        assert!(!ds.ground_truth.is_empty());
        assert!(ds.graph.validate());
    }

    #[test]
    fn tiny_temporal_datasets_generate_with_stories() {
        for id in [DatasetId::German, DatasetId::Wiki] {
            let ds = generate(id, Scale::Tiny);
            assert_eq!(ds.graph.num_layers(), ds.spec.synthetic_layers);
            assert!(!ds.ground_truth.is_empty());
            assert!(ds.graph.validate());
        }
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("Small"), Some(Scale::Small));
        assert_eq!(Scale::parse("TINY"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("large"), Some(Scale::Large));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn large_scale_quadruples_the_full_shape() {
        let ds = generate(DatasetId::Ppi, Scale::Large);
        assert_eq!(ds.graph.num_vertices(), 4 * 328);
        assert_eq!(ds.graph.num_layers(), 8);
        assert!(ds.graph.validate());
    }

    #[test]
    fn generation_is_deterministic_per_id_and_scale() {
        let a = generate(DatasetId::Ppi, Scale::Tiny);
        let b = generate(DatasetId::Ppi, Scale::Tiny);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.ground_truth.modules, b.ground_truth.modules);
    }

    #[test]
    fn full_ppi_matches_paper_vertex_count() {
        let ds = generate(DatasetId::Ppi, Scale::Full);
        assert_eq!(ds.graph.num_vertices(), 328);
        assert_eq!(ds.spec.paper.num_vertices, 328);
    }
}
