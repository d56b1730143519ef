//! Serving concurrent readers: the combining submitter maintains the
//! independent set over a live Chung–Lu update stream while several
//! query threads answer membership/size queries from their own
//! delta-fed mirrors — no engine lock anywhere.
//!
//! ```bash
//! cargo run --release --example concurrent_readers
//! ```

use dynamis::gen::powerlaw::chung_lu;
use dynamis::gen::{StreamConfig, UpdateStream};
use dynamis::serve::{MisService, ServeConfig};
use dynamis::EngineBuilder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

fn main() {
    let (n, updates, readers) = (20_000, 40_000, 3);
    let seed = 99;
    println!("building Chung-Lu graph (n = {n}) and a mixed update stream…");
    let base = chung_lu(n, 2.4, 8.0, seed);
    let ups =
        UpdateStream::new(&base, StreamConfig::default(), seed ^ 0xbeef).take_updates(updates);

    let cfg = ServeConfig {
        queue_updates: 512,
        burst: 256,
        log_window: 1024,
        first_seq: 0,
    };
    let (service, mut main_reader) =
        MisService::spawn(EngineBuilder::on(base).k(2), cfg).expect("engine construction");
    println!(
        "service up; bootstrap solution has {} vertices (seq {})",
        main_reader.len(),
        main_reader.seq()
    );

    // Query threads: each owns an independent ReaderHandle and hammers
    // point lookups, syncing lazily from the broadcast delta log.
    let stop = Arc::new(AtomicBool::new(false));
    let query_threads: Vec<_> = (0..readers)
        .map(|id| {
            let mut r = service.reader();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let (mut queries, mut members) = (0u64, 0u64);
                let mut v = id as u32;
                while !stop.load(Ordering::Relaxed) {
                    if r.contains(v % (n as u32)) {
                        members += 1;
                    }
                    v = v.wrapping_mul(2_654_435_761).wrapping_add(1);
                    queries += 1;
                }
                (id, queries, members, r.seq())
            })
        })
        .collect();

    // The write side: ingest of the whole stream without verdicts. A
    // lone feeder never builds a queue, so each call is a round of its
    // own: submit burst-sized chunks to keep the rounds full.
    let t = Instant::now();
    for chunk in ups.chunks(cfg.burst) {
        service
            .submit_batch_detached(chunk.to_vec())
            .expect("service alive");
    }
    let stats = service.stats();
    println!("ingest applied in {:?}; live stats: {}", t.elapsed(), stats);
    let report = service.shutdown();
    let elapsed = t.elapsed();
    stop.store(true, Ordering::Relaxed);

    println!(
        "applied {} updates in {:.2?} ({:.0} updates/s), mean batch {:.1}",
        report.stats.applied,
        elapsed,
        report.stats.applied as f64 / elapsed.as_secs_f64(),
        report.stats.mean_batch(),
    );
    for h in query_threads {
        let (id, queries, members, seq) = h.join().unwrap();
        println!(
            "reader {id}: {queries} point queries ({:.0}/s), {members} hits, synced to seq {seq}",
            queries as f64 / elapsed.as_secs_f64()
        );
    }
    // Quiesce check: a reader mirror is exactly the engine's solution.
    assert_eq!(main_reader.snapshot(), report.solution);
    println!(
        "final |I| = {} at seq {} — reader mirror ≡ engine solution ✓",
        report.solution.len(),
        report.head_seq
    );
}
