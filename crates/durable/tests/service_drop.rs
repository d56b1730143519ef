//! A durable service dropped without `shutdown` keeps every
//! acknowledged update. No thread of the service's own outlives its
//! handles: the engine — and with it the final WAL write-through and
//! sync in `Logged::drop` — goes with the last handle.

use dynamis_core::{DynamicMis, EngineBuilder};
use dynamis_durable::{prepare, DurableOptions, MemStorage, SyncPolicy, WalStorage};
use dynamis_gen::uniform::gnm;
use dynamis_gen::{StreamConfig, UpdateStream};
use dynamis_graph::DynamicGraph;
use dynamis_serve::{MisService, ServeConfig};
use std::sync::Arc;

#[test]
fn dropped_durable_service_keeps_every_acknowledged_update() {
    const K: u64 = 300;
    let storage: Arc<dyn WalStorage> = Arc::new(MemStorage::new());
    let opts = DurableOptions {
        sync: SyncPolicy::Group,
        ..DurableOptions::default()
    };
    let g = gnm(80, 200, 11);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 4).take_updates(K as usize);

    let mut prepared = prepare(Arc::clone(&storage), 2, opts).unwrap();
    let cfg = ServeConfig {
        first_seq: prepared.first_broadcast_seq(),
        ..ServeConfig::default()
    };
    let builder = prepared.resume_builder(EngineBuilder::on(g).k(2));
    let (service, mut reader) = MisService::spawn_with(
        move || {
            prepared
                .attach(builder.build()?)
                .map(|l| Box::new(l) as _)
                .map_err(|e| e.into_engine_error())
        },
        cfg,
    )
    .unwrap();
    let ingest = service.ingest();
    for u in ups {
        ingest.submit(u).unwrap().wait().unwrap();
    }
    let served = reader.snapshot();
    drop(service);
    drop(ingest);
    // `Logged` and its group-commit thread held the only other storage
    // handles; both are gone with the service's last handle.
    assert_eq!(
        Arc::strong_count(&storage),
        1,
        "the engine outlived the service's handles"
    );

    let mut prepared = prepare(Arc::clone(&storage), 2, opts).unwrap();
    assert_eq!(prepared.recovered_seq, K);
    let builder = prepared.resume_builder(EngineBuilder::on(DynamicGraph::from_edges(0, &[])).k(2));
    let recovered = prepared.attach(builder.build().unwrap()).unwrap();
    assert_eq!(recovered.solution(), served);
}
