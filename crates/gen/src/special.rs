//! Deterministic structured graphs for tests and edge cases:
//! stars (Figure 1's motivating example), paths, cycles, complete graphs,
//! 2D grids and disconnected clique unions (which exercise NE's re-seeding).

use hep_graph::EdgeList;

/// Star: vertex 0 connected to `1..n` (Figure 1's example shape).
#[expect(
    clippy::expect_used,
    reason = "every generated id is < the vertex count passed alongside it"
)]
pub fn star(n: u32) -> EdgeList {
    assert!(n >= 2);
    EdgeList::with_vertices(n, (1..n).map(|v| (0, v))).expect("in range")
}

/// Path 0-1-2-...-(n-1).
#[expect(
    clippy::expect_used,
    reason = "every generated id is < the vertex count passed alongside it"
)]
pub fn path(n: u32) -> EdgeList {
    assert!(n >= 2);
    EdgeList::with_vertices(n, (0..n - 1).map(|v| (v, v + 1))).expect("in range")
}

/// Cycle over `n` vertices.
#[expect(
    clippy::expect_used,
    reason = "every generated id is < the vertex count passed alongside it"
)]
pub fn cycle(n: u32) -> EdgeList {
    assert!(n >= 3);
    EdgeList::with_vertices(n, (0..n).map(|v| (v, (v + 1) % n))).expect("in range")
}

/// Complete graph K_n.
#[expect(
    clippy::expect_used,
    reason = "every generated id is < the vertex count passed alongside it"
)]
pub fn complete(n: u32) -> EdgeList {
    assert!(n >= 2);
    let pairs = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)));
    EdgeList::with_vertices(n, pairs).expect("in range")
}

/// `rows x cols` 2D grid (4-neighbourhood).
#[expect(
    clippy::expect_used,
    reason = "every generated id is < the vertex count passed alongside it"
)]
pub fn grid2d(rows: u32, cols: u32) -> EdgeList {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2);
    let id = move |r: u32, c: u32| r * cols + c;
    let mut pairs = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                pairs.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                pairs.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    EdgeList::with_vertices(rows * cols, pairs).expect("in range")
}

/// Disjoint union of `count` cliques of `size` vertices each. NE must
/// re-seed once per exhausted component, exercising the initialization path
/// (§3.2.3 scenario 2).
#[expect(
    clippy::expect_used,
    reason = "every generated id is < the vertex count passed alongside it"
)]
pub fn disconnected_cliques(count: u32, size: u32) -> EdgeList {
    assert!(count >= 1 && size >= 2);
    let mut pairs = Vec::new();
    for k in 0..count {
        let base = k * size;
        for u in 0..size {
            for v in (u + 1)..size {
                pairs.push((base + u, base + v));
            }
        }
    }
    EdgeList::with_vertices(count * size, pairs).expect("in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degrees()[0], 6);
        assert!(g.degrees()[1..].iter().all(|&d| d == 1));
    }

    #[test]
    fn path_and_cycle_counts() {
        assert_eq!(path(10).num_edges(), 9);
        assert_eq!(cycle(10).num_edges(), 10);
        assert!(cycle(10).degrees().iter().all(|&d| d == 2));
    }

    #[test]
    fn complete_count() {
        assert_eq!(complete(6).num_edges(), 15);
        assert!(complete(6).degrees().iter().all(|&d| d == 5));
    }

    #[test]
    fn grid_counts() {
        let g = grid2d(3, 4);
        assert_eq!(g.num_vertices, 12);
        assert_eq!(g.num_edges(), (3 * 3 + 2 * 4) as u64);
    }

    #[test]
    fn cliques_are_disconnected() {
        let g = disconnected_cliques(3, 4);
        assert_eq!(g.num_vertices, 12);
        assert_eq!(g.num_edges(), 3 * 6);
        assert!(g.edges.iter().all(|e| e.src / 4 == e.dst / 4));
    }
}
