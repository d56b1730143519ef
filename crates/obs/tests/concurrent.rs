//! Concurrent-recording property tests: a histogram hammered from many
//! threads loses no updates, and per-thread snapshots (one histogram
//! per worker thread) merge to exactly the union — saturating, never
//! wrapping.
//! Same class of bug the PR7 wire fuzzer existed to catch, now pinned
//! at the metrics layer.

use dynamis_obs::{bucket_index, Histogram, HistogramSnapshot, MetricsRegistry, NUM_BUCKETS};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;
use std::thread;

/// Latency-shaped draw: uniform exponent, so every octave gets traffic.
fn draw(rng: &mut SmallRng) -> u64 {
    let shift = rng.gen_range(0..40u32);
    rng.gen_range(0..u64::MAX) >> (63 - shift.min(63))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N threads record into ONE shared histogram; the final snapshot
    /// holds every value, bucket-exactly.
    #[test]
    fn shared_histogram_loses_no_updates(seed in 0u64..u64::MAX, threads in 2usize..6) {
        let hist = Arc::new(Histogram::new());
        let per_thread = 2_000usize;
        let mut expected = vec![0u64; NUM_BUCKETS];
        let mut expected_sum = 0u128;
        let mut handles = Vec::new();
        for t in 0..threads {
            let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9e37_79b9));
            let values: Vec<u64> = (0..per_thread).map(|_| draw(&mut rng)).collect();
            for &v in &values {
                expected[bucket_index(v)] += 1;
                expected_sum += v as u128;
            }
            let hist = Arc::clone(&hist);
            handles.push(thread::spawn(move || {
                for v in values {
                    hist.record(v);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count as usize, threads * per_thread);
        prop_assert_eq!(snap.sum as u128, expected_sum & u64::MAX as u128, "sum wraps mod 2^64 only");
        for (i, c) in snap.buckets {
            prop_assert_eq!(expected[i as usize], c, "bucket {}", i);
        }
        prop_assert_eq!(
            expected.iter().filter(|&&c| c > 0).count(),
            hist.snapshot().buckets.len()
        );
    }

    /// N threads record into their OWN histograms (the per-worker
    /// shape); merging the per-thread snapshots equals one histogram
    /// that saw every value.
    #[test]
    fn merged_cell_snapshots_equal_the_union(seed in 0u64..u64::MAX, threads in 2usize..6) {
        let per_thread = 1_000usize;
        let union = Histogram::new();
        let mut merged = HistogramSnapshot::default();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64) << 17);
                let values: Vec<u64> = (0..per_thread).map(|_| draw(&mut rng)).collect();
                thread::spawn(move || {
                    let cell = Histogram::new();
                    for v in &values {
                        cell.record(*v);
                    }
                    (cell.snapshot(), values)
                })
            })
            .collect();
        for h in handles {
            let (snap, values) = h.join().unwrap();
            merged.merge(&snap);
            for v in values {
                union.record(v);
            }
        }
        prop_assert_eq!(merged, union.snapshot());
    }

    /// Concurrent registration from many threads yields one shared
    /// metric per name, and the registry snapshot sees every increment.
    #[test]
    fn registry_is_race_free(seed in 0u64..u64::MAX, threads in 2usize..6) {
        let registry = Arc::new(MetricsRegistry::new());
        let rounds = 500u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let registry = Arc::clone(&registry);
                let mut rng = SmallRng::seed_from_u64(seed ^ t as u64);
                thread::spawn(move || {
                    let c = registry.counter("shared_total");
                    let h = registry.histogram("shared_ns");
                    for _ in 0..rounds {
                        c.inc();
                        h.record(rng.gen_range(0..1_000_000u64));
                        registry.events().record("tick", String::new());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = registry.snapshot();
        let total = threads as u64 * rounds;
        prop_assert_eq!(snap.counter("shared_total"), Some(total));
        prop_assert_eq!(snap.histogram("shared_ns").unwrap().count, total);
        prop_assert_eq!(
            snap.events.len() as u64 + snap.events_dropped,
            total,
            "every event is retained or counted as dropped, never lost silently"
        );
    }
}
