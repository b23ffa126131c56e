//! Community-structured web-crawl analogs.
//!
//! Web graphs (IT, UK, GSH, WDC in Table 3) are crawls whose link structure
//! is dominated by *sites*: dense intra-site linkage, sparse inter-site
//! links, and per-site hub pages. This block structure is exactly what lets
//! neighbourhood-expansion partitioners reach replication factors near 1.0
//! on web graphs (paper Figure 8: IT/UK/GSH/WDC) while streaming partitioners
//! cannot exploit it. The generator reproduces that mechanism directly.

use hep_ds::SplitMix64;
use hep_graph::EdgeList;

/// Parameters of the community web generator.
#[derive(Clone, Copy, Debug)]
pub struct CommunityParams {
    /// Number of vertices.
    pub n: u32,
    /// Target number of edges.
    pub m: u64,
    /// Mean community ("site") size; actual sizes are power-law distributed.
    pub mean_community: u32,
    /// Fraction of edges that stay inside their community.
    pub intra_fraction: f64,
    /// Degree-skew exponent used when drawing endpoints inside a community
    /// (models per-site hub pages; lower = heavier hubs).
    pub gamma: f64,
}

impl CommunityParams {
    /// A typical web-crawl configuration: large sites, 92% intra-site edges.
    pub fn weblike(n: u32, m: u64) -> Self {
        CommunityParams { n, m, mean_community: 64, intra_fraction: 0.92, gamma: 2.1 }
    }
}

/// Generates a community web graph. Communities partition `0..n` into
/// contiguous id ranges with power-law sizes; intra-community endpoints are
/// drawn with Zipf-like skew (hub pages); inter-community edges connect
/// community hubs preferentially.
#[expect(
    clippy::expect_used,
    reason = "the generator samples endpoints modulo n, so ids are in range"
)]
pub fn community_web(params: CommunityParams, seed: u64) -> EdgeList {
    let CommunityParams { n, m, mean_community, intra_fraction, gamma } = params;
    assert!(n >= 4, "need at least 4 vertices");
    assert!((0.0..=1.0).contains(&intra_fraction), "intra_fraction out of range");
    assert!(mean_community >= 2, "communities need at least 2 vertices");
    let mut rng = SplitMix64::new(seed);
    // Carve contiguous communities with Pareto-ish sizes around the mean.
    let mut boundaries = vec![0u32];
    let mut at = 0u32;
    while at < n {
        let u = rng.next_f64().max(1e-9);
        // Pareto with shape 1.5, scaled so the mean is ~mean_community.
        let size = ((mean_community as f64 / 3.0) * u.powf(-1.0 / 1.5)).ceil() as u32;
        at = at.saturating_add(size.clamp(2, n / 2).max(2)).min(n);
        boundaries.push(at);
    }
    let num_comm = boundaries.len() - 1;
    let alpha = 1.0 / (gamma - 1.0);
    // Draw a member of community c with Zipf skew toward its first ids
    // (which act as the site's hub pages).
    // Inverse-transform sampling of a Zipf weight (i+1)^(-alpha) over the
    // community: offsets ~ size * u^(1/(1-alpha)) concentrate near 0, making
    // a community's first ids its hub pages. Clamp alpha below 1 (γ > 2).
    // Cap the skew so small communities don't collapse onto 1-2 pages
    // (which would exhaust the distinct-edge budget).
    let expo = 1.0 / (1.0 - alpha.min(0.6));
    let draw_member = |rng: &mut SplitMix64, c: usize| -> u32 {
        let lo = boundaries[c];
        let size = boundaries[c + 1] - lo;
        let r = rng.next_f64().max(1e-12);
        let off = (size as f64 * r.powf(expo)).min(size as f64 - 1.0);
        lo + off as u32
    };
    let mut seen: hep_ds::FxHashSet<(u32, u32)> = hep_ds::FxHashSet::default();
    seen.reserve(m as usize);
    let mut pairs = Vec::with_capacity(m as usize);
    let budget = m.saturating_mul(10).max(1000);
    let mut attempts = 0u64;
    while (pairs.len() as u64) < m && attempts < budget {
        attempts += 1;
        let (u, v) = if rng.next_bool(intra_fraction) {
            let c = rng.next_below(num_comm as u64) as usize;
            (draw_member(&mut rng, c), draw_member(&mut rng, c))
        } else {
            let c1 = rng.next_below(num_comm as u64) as usize;
            let c2 = rng.next_below(num_comm as u64) as usize;
            (draw_member(&mut rng, c1), draw_member(&mut rng, c2))
        };
        if u == v {
            continue;
        }
        if seen.insert((u.min(v), u.max(v))) {
            pairs.push((u, v));
        }
    }
    EdgeList::with_vertices(n, pairs).expect("ids in range by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(n: u32, m: u64, seed: u64) -> EdgeList {
        community_web(CommunityParams::weblike(n, m), seed)
    }

    #[test]
    fn delivers_edges_and_is_simple() {
        let g = gen(10_000, 60_000, 1);
        assert!(g.num_edges() >= 55_000, "only {} edges", g.num_edges());
        let mut h = g.clone();
        h.canonicalize();
        assert_eq!(g.num_edges(), h.num_edges());
    }

    #[test]
    fn deterministic() {
        assert_eq!(gen(2000, 10_000, 4).edges, gen(2000, 10_000, 4).edges);
    }

    #[test]
    fn most_edges_are_short_range() {
        // Communities are contiguous id ranges, so intra-community edges have
        // small |u - v|; verify locality dominates.
        let g = gen(20_000, 100_000, 2);
        let short =
            g.edges.iter().filter(|e| (e.src as i64 - e.dst as i64).unsigned_abs() < 512).count();
        assert!(
            short as f64 > 0.8 * g.edges.len() as f64,
            "only {short}/{} edges are local",
            g.edges.len()
        );
    }

    #[test]
    fn has_hubs() {
        let g = gen(20_000, 100_000, 3);
        let deg = g.degrees();
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max > 10.0 * g.mean_degree(), "max {max} mean {}", g.mean_degree());
    }
}
