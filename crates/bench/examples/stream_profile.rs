//! Dev-loop harness for the phase-2 streaming engines, best-of-N timing so
//! the container's run-to-run noise doesn't swamp the comparison. Two
//! stream shapes reach the two regimes of the class-minimum search:
//!
//! * `hub` — the fig7 bench's hub-skewed stream over seeded hubs with
//!   near-equal loads: replica unions cover most parts while the loads sit
//!   in a few buckets (the bucket walk);
//! * `sparse` — uniform endpoints with one or two seeded replicas each
//!   and all-distinct seeded loads `p·37`: unions hold a few parts while
//!   there are many buckets (the union iteration).
//!
//! Usage: `cargo run --release -p hep-bench --example stream_profile
//! [edges] [reps]`.

use hep_core::{stream_h2h, stream_h2h_serial};
use hep_ds::{DenseBitset, SplitMix64};
use hep_graph::partitioner::CountingSink;
use hep_graph::Edge;
use std::time::Instant;

/// An h2h stream plus the NE++-like seed state it starts from.
struct Shape {
    name: &'static str,
    edges: Vec<Edge>,
    degrees: Vec<u32>,
    /// Seed replicas as `(vertex, part)` for a given k.
    seeds: fn(u32, u32) -> Vec<(u32, u32)>,
    /// Seed load of part `p`.
    load: fn(u64) -> u64,
}

fn stream(n: u32, m: usize, seed: u64, hub_skew: bool) -> (Vec<Edge>, Vec<u32>) {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(m);
    let mut degrees = vec![0u32; n as usize];
    for _ in 0..m {
        let a = if hub_skew {
            // Square the draw toward low ids: hub vertices recur constantly.
            (rng.next_below(n as u64) * rng.next_below(n as u64) / n as u64) as u32
        } else {
            rng.next_below(n as u64) as u32
        };
        let b = rng.next_below(n as u64) as u32;
        edges.push(Edge::new(a, b));
        degrees[a as usize] += 1;
        degrees[b as usize] += 1;
    }
    (edges, degrees)
}

fn main() {
    let m: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1_500_000);
    let reps: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(3);
    let (edges, degrees) = stream((m / 50).max(256) as u32, m, 99, true);
    let hub = Shape {
        name: "hub",
        edges,
        degrees,
        seeds: |n, k| (0..n / 4).map(|v| (v, v % k)).collect(),
        load: |p| p * 11,
    };
    let (edges, degrees) = stream((m / 2).max(256) as u32, m, 98, false);
    let sparse = Shape {
        name: "sparse",
        edges,
        degrees,
        seeds: |n, k| (0..n / 2).flat_map(|v| [(v, v % k), (v, v * 7 % k)]).collect(),
        load: |p| p * 37,
    };
    for shape in [hub, sparse] {
        let n = shape.degrees.len() as u32;
        for k in [32u32, 128] {
            let mut sets: Vec<DenseBitset> = (0..k).map(|_| DenseBitset::new(n as usize)).collect();
            for (v, p) in (shape.seeds)(n, k) {
                sets[p as usize].set(v);
            }
            let sizes: Vec<u64> = (0..k as u64).map(shape.load).collect();
            let mut best_serial = f64::MAX;
            for _ in 0..reps {
                let mut sink = CountingSink::default();
                let t = Instant::now();
                stream_h2h_serial(
                    shape.edges.iter().copied(),
                    &shape.degrees,
                    sets.clone(),
                    sizes.clone(),
                    2 * m as u64,
                    1.1,
                    1.05,
                    &mut sink,
                )
                .unwrap();
                best_serial = best_serial.min(t.elapsed().as_secs_f64());
            }
            let serial_eps = m as f64 / best_serial;
            let name = shape.name;
            println!("{name:6} k={k:3} serial {serial_eps:>9.0} e/s");
            let mut best = f64::MAX;
            for _ in 0..reps {
                let (rs, rz) = (sets.clone(), sizes.clone());
                let mut sink = CountingSink::default();
                let t = Instant::now();
                stream_h2h(
                    shape.edges.iter().copied(),
                    &shape.degrees,
                    rs,
                    rz,
                    2 * m as u64,
                    1.1,
                    1.05,
                    0,
                    &mut sink,
                )
                .unwrap();
                best = best.min(t.elapsed().as_secs_f64());
            }
            let eps = m as f64 / best;
            println!("{name:6} k={k:3} table  {eps:>9.0} e/s  {:.2}x", eps / serial_eps);
        }
    }
}
