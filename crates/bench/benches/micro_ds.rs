//! Criterion micro-benchmarks for the core data structures (§4.2): dense
//! bitsets, the indexed min-heap and Fx hashing — the structures on NE++'s
//! hot path. Emits `BENCH_micro_ds.json` with the raw measurements.

use criterion::{black_box, criterion_group, Criterion};
use hep_ds::{DenseBitset, FxHashMap, IndexedMinHeap, SplitMix64};
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

fn bench_bitset(c: &mut Criterion) {
    let mut rng = SplitMix64::new(1);
    let idx: Vec<u32> = (0..10_000).map(|_| rng.next_below(1 << 20) as u32).collect();
    c.bench_function("bitset_set_get_10k", |b| {
        b.iter(|| {
            let mut bs = DenseBitset::new(1 << 20);
            let mut hits = 0u32;
            for &i in &idx {
                bs.set(i);
                hits += bs.get(i ^ 1) as u32;
            }
            black_box(hits)
        })
    });
}

fn bench_heap(c: &mut Criterion) {
    let mut rng = SplitMix64::new(2);
    let keys: Vec<u64> = (0..10_000).map(|_| rng.next_below(1000)).collect();
    c.bench_function("minheap_insert_decrease_pop_10k", |b| {
        b.iter(|| {
            let mut h = IndexedMinHeap::new(10_000);
            for (id, &k) in keys.iter().enumerate() {
                h.insert(id as u32, k);
            }
            for id in 0..5_000u32 {
                h.decrease_key_by(id, 3);
            }
            let mut sum = 0u64;
            while let Some((k, _)) = h.pop_min() {
                sum += k;
            }
            black_box(sum)
        })
    });
}

fn bench_hash(c: &mut Criterion) {
    let mut rng = SplitMix64::new(3);
    let keys: Vec<u32> = (0..10_000).map(|_| rng.next_u64() as u32).collect();
    c.bench_function("fxhashmap_insert_lookup_10k", |b| {
        b.iter(|| {
            let mut m: FxHashMap<u32, u32> = FxHashMap::default();
            for &k in &keys {
                m.insert(k, k.wrapping_mul(3));
            }
            let mut acc = 0u64;
            for &k in &keys {
                acc += *m.get(&k).unwrap_or(&0) as u64;
            }
            black_box(acc)
        })
    });
    c.bench_function("std_hashmap_insert_lookup_10k", |b| {
        b.iter(|| {
            let mut m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
            for &k in &keys {
                m.insert(k, k.wrapping_mul(3));
            }
            let mut acc = 0u64;
            for &k in &keys {
                acc += *m.get(&k).unwrap_or(&0) as u64;
            }
            black_box(acc)
        })
    });
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_bitset, bench_heap, bench_hash
}

fn main() {
    benches();
    let mut report = hep_bench::report::Report::new("micro_ds");
    report.measurements(&criterion::take_measurements());
    report.write();
}
