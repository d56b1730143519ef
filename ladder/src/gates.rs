//! Correctness gates. A failed gate ends the run with an error; it is
//! never reported as a metric.

use dynamis_graph::{CsrGraph, DynamicGraph, Update};
use dynamis_static::{arw_local_search, certify_independent, certify_maximal, ArwConfig};

pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("gate failed: {}", what()))
    }
}

/// The graph every applied update leads to, rebuilt independently of
/// the served engine.
pub fn replay<'a>(
    initial: &DynamicGraph,
    applied: impl Iterator<Item = &'a Update>,
) -> Result<DynamicGraph, String> {
    let mut g = initial.clone();
    for (i, u) in applied.enumerate() {
        dynamis_gen::apply_update(&mut g, u)
            .map_err(|e| format!("gate failed: stream update {i} is invalid on replay: {e}"))?;
    }
    Ok(g)
}

/// Independence and maximality of `solution` on `g`.
pub fn certify(g: &DynamicGraph, solution: &[u32], what: &str) -> Result<(), String> {
    certify_independent(g, solution)
        .and_then(|()| certify_maximal(g, solution))
        .map_err(|v| format!("gate failed: {what}: {v}"))
}

/// Same live vertices with the same neighbourhoods.
pub fn same_graph(a: &DynamicGraph, b: &DynamicGraph, what: &str) -> Result<(), String> {
    let va: Vec<u32> = a.vertices().collect();
    let vb: Vec<u32> = b.vertices().collect();
    ensure(va == vb, || format!("{what}: live vertex sets differ"))?;
    ensure(a.num_edges() == b.num_edges(), || {
        format!("{what}: {} vs {} edges", a.num_edges(), b.num_edges())
    })?;
    for v in va {
        let mut na: Vec<u32> = a.neighbors(v).collect();
        let mut nb: Vec<u32> = b.neighbors(v).collect();
        na.sort_unstable();
        nb.sort_unstable();
        ensure(na == nb, || format!("{what}: neighbours of {v} differ"))?;
    }
    Ok(())
}

/// `size` over the ARW local-search reference (default budget and
/// seed) on `g` with dead vertex slots compacted away.
pub fn quality_ratio(g: &DynamicGraph, size: usize) -> f64 {
    let mut id = vec![u32::MAX; g.capacity()];
    let mut n = 0u32;
    for v in g.vertices() {
        id[v as usize] = n;
        n += 1;
    }
    let edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| (id[u as usize], id[v as usize]))
        .collect();
    let reference = arw_local_search(
        &CsrGraph::from_edges(n as usize, &edges),
        ArwConfig::default(),
    );
    size as f64 / reference.len() as f64
}
