//! Laptop-scale analogs of the paper's Table 3 datasets.
//!
//! | Paper graph | Type | Real size | Analog generator |
//! |---|---|---|---|
//! | com-livejournal (LJ) | social | 4.0M / 35M | Chung–Lu γ=2.35 |
//! | com-orkut (OK) | social | 3.1M / 117M | Chung–Lu γ=2.25, dense |
//! | brain (BR) | biological | 784k / 268M | Erdős–Rényi, very dense |
//! | wiki-links (WI) | web | 12M / 378M | R-MAT weblike |
//! | it-2004 (IT) | web | 41M / 1.2B | community web |
//! | twitter-2010 (TW) | social | 42M / 1.5B | Chung–Lu γ=2.0 (extreme hubs) |
//! | com-friendster (FR) | social | 66M / 1.8B | Chung–Lu γ=2.6 (weak hubs) |
//! | uk-2007-05 (UK) | web | 106M / 3.7B | community web |
//! | gsh-2015 (GSH) | web | 988M / 33B | community web |
//! | wdc-2014 (WDC) | web | 1.7B / 64B | community web |
//!
//! Sizes are scaled down by ~10³–10⁵ (preserving |E|/|V| ratios approximately
//! and exactly preserving the small→large ordering) so the full Figure 8
//! suite completes in minutes. `scale` multiplies both |V| and |E|.

use crate::community::CommunityParams;
use crate::rmat::RmatParams;
use crate::spec::GraphSpec;
use hep_graph::EdgeList;

/// A named dataset analog.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Paper abbreviation (LJ, OK, ...).
    pub name: &'static str,
    /// social / web / biological, as in Table 3.
    pub kind: &'static str,
    /// Generator description.
    pub spec: GraphSpec,
    /// Per-dataset deterministic seed.
    pub seed: u64,
}

impl Dataset {
    /// Generates the dataset graph.
    ///
    /// Edges are sorted by `(src, dst)` to match the paper's input format:
    /// the published SNAP / WebGraph edge lists are source-ordered, which is
    /// the locality that chunked partitioners (SNE) and window-based
    /// streaming (ADWISE) rely on. The raw generators keep generation order.
    pub fn generate(&self) -> EdgeList {
        let mut g = self.spec.generate(self.seed);
        g.edges.sort_unstable();
        g
    }
}

fn s(v: u32, scale: u32) -> u32 {
    v * scale
}
fn se(v: u64, scale: u32) -> u64 {
    v * scale as u64
}

/// Dataset analog by paper name (case-insensitive). `scale >= 1`.
pub fn dataset(name: &str, scale: u32) -> Option<Dataset> {
    let scale = scale.max(1);
    let d = match name.to_ascii_uppercase().as_str() {
        // Social networks have community structure too (weaker and with
        // heavier global hubs than web crawls); modelling them as pure
        // Chung-Lu would unrealistically punish expansion-based partitioners.
        "LJ" => Dataset {
            name: "LJ",
            kind: "social",
            spec: GraphSpec::CommunityWeb(CommunityParams {
                n: s(4_000, scale),
                m: se(35_000, scale),
                mean_community: 32,
                intra_fraction: 0.65,
                gamma: 2.2,
            }),
            seed: 0x1501,
        },
        "OK" => Dataset {
            name: "OK",
            kind: "social",
            spec: GraphSpec::CommunityWeb(CommunityParams {
                n: s(3_100, scale),
                m: se(117_000, scale),
                mean_community: 48,
                intra_fraction: 0.62,
                gamma: 2.0,
            }),
            seed: 0x1502,
        },
        // BR is scaled less in |V| than the others: shrinking vertices and
        // edges by the same factor would make the analog near-complete.
        "BR" => Dataset {
            name: "BR",
            kind: "biological",
            spec: GraphSpec::ErdosRenyi { n: s(2_500, scale), m: se(180_000, scale) },
            seed: 0x1503,
        },
        "WI" => Dataset {
            name: "WI",
            kind: "web",
            spec: GraphSpec::Rmat {
                scale: 14 + scale.ilog2(),
                m: se(260_000, scale),
                params: RmatParams::weblike(),
            },
            seed: 0x1504,
        },
        "IT" => Dataset {
            name: "IT",
            kind: "web",
            spec: GraphSpec::CommunityWeb(CommunityParams::weblike(
                s(20_000, scale),
                se(300_000, scale),
            )),
            seed: 0x1505,
        },
        "TW" => Dataset {
            name: "TW",
            kind: "social",
            spec: GraphSpec::ChungLu { n: s(32_000, scale), m: se(380_000, scale), gamma: 2.0 },
            seed: 0x1506,
        },
        "FR" => Dataset {
            name: "FR",
            kind: "social",
            spec: GraphSpec::ChungLu { n: s(60_000, scale), m: se(450_000, scale), gamma: 2.6 },
            seed: 0x1507,
        },
        "UK" => Dataset {
            name: "UK",
            kind: "web",
            spec: GraphSpec::CommunityWeb(CommunityParams::weblike(
                s(50_000, scale),
                se(500_000, scale),
            )),
            seed: 0x1508,
        },
        "GSH" => Dataset {
            name: "GSH",
            kind: "web",
            spec: GraphSpec::CommunityWeb(CommunityParams::weblike(
                s(100_000, scale),
                se(800_000, scale),
            )),
            seed: 0x1509,
        },
        "WDC" => Dataset {
            name: "WDC",
            kind: "web",
            spec: GraphSpec::CommunityWeb(CommunityParams::weblike(
                s(130_000, scale),
                se(1_000_000, scale),
            )),
            seed: 0x150a,
        },
        _ => return None,
    };
    Some(d)
}

/// The names of the ten Table 3 analogs, in the paper's order (by edge
/// count); each is a key that [`dataset`] recognizes.
pub const TABLE3: [&str; 10] = ["LJ", "OK", "BR", "WI", "IT", "TW", "FR", "UK", "GSH", "WDC"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate_and_are_nonempty() {
        for name in TABLE3 {
            let d = dataset(name, 1).expect("Table 3 name");
            let g = d.generate();
            assert!(g.num_edges() > 1000, "{} too small: {}", d.name, g.num_edges());
            assert!(g.num_vertices > 100, "{}", d.name);
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(dataset("NOPE", 1).is_none());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(dataset("ok", 1).unwrap().name, "OK");
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = dataset("LJ", 1).unwrap().generate();
        let b = dataset("LJ", 1).unwrap().generate();
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn size_ordering_follows_paper() {
        // Table 3 orders LJ < OK < ... < WDC by edge count; the analogs
        // preserve that ordering.
        let sizes: Vec<u64> =
            TABLE3.iter().map(|n| dataset(n, 1).unwrap().generate().num_edges()).collect();
        for w in sizes.windows(2) {
            assert!(w[0] < w[1], "ordering violated: {sizes:?}");
        }
    }

    #[test]
    fn social_graphs_have_heavier_hub_mass_than_web() {
        // TW (γ=2.0) must have a heavier hub than FR (γ=2.6).
        let tw = dataset("TW", 1).unwrap().generate();
        let fr = dataset("FR", 1).unwrap().generate();
        let hub =
            |g: &hep_graph::EdgeList| *g.degrees().iter().max().unwrap() as f64 / g.mean_degree();
        assert!(hub(&tw) > hub(&fr), "tw {} fr {}", hub(&tw), hub(&fr));
    }

    #[test]
    fn scale_parameter_grows_datasets() {
        let s1 = dataset("LJ", 1).unwrap().generate();
        let s2 = dataset("LJ", 2).unwrap().generate();
        assert!(s2.num_edges() > s1.num_edges() * 3 / 2);
    }
}
