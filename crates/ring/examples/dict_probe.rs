//! The node dictionary of a `RRPQM01` file, measured on its own: the bytes
//! `NODES` stores per name, what validating it adds to an open, and the
//! mapped form's `get` (a hit and a miss) and `name`, on 2^17 names of two
//! shapes — the benchmark's `<n{i}>` and Wikidata entity IRIs. Each file
//! holds a ring of one edge per node beside the dictionary, so that it
//! opens; the dictionary's share of an open is `open_index` less
//! `open_ring` on the same file (medians of 25 alternating opens). Lookup
//! times are the best of five rounds of 2^16 lookups in a pseudo-random
//! order. `crates/ring/README.md` records the table this prints.
//!
//! ```sh
//! cargo run --release --offline -p ring --example dict_probe
//! ```

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use ring::mapped::{open_index, open_ring, section_lens, write_index, OpenMode, SECTION_NAMES};
use ring::ring::RingOptions;
use ring::{Dict, Graph, Ring, Triple};

const NAMES: u64 = 1 << 17;
const LOOKUPS: u64 = 1 << 16;

/// The `k`-th of `LOOKUPS` ids spread over `0..NAMES` in a fixed
/// pseudo-random order.
fn spread(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 47
}

/// The fastest of five rounds of `op` over `0..LOOKUPS`, per call.
fn ns_per_op(mut op: impl FnMut(u64)) -> f64 {
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        (0..LOOKUPS).for_each(&mut op);
        best = best.min(t.elapsed());
    }
    best.as_nanos() as f64 / LOOKUPS as f64
}

/// Milliseconds `with` takes beyond `without`: the median of 25
/// alternating timings of each.
fn extra_ms(mut with: impl FnMut(), mut without: impl FnMut()) -> f64 {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e3
    };
    let (mut a, mut b): (Vec<f64>, Vec<f64>) = (0..25)
        .map(|_| (time(&mut with), time(&mut without)))
        .unzip();
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    a[12] - b[12]
}

fn probe(path: &Path, shape: &str, name_of: fn(u64) -> String) {
    let triples = (0..NAMES)
        .map(|v| Triple::new(v, 0, (v + 1) % NAMES))
        .collect();
    let ring = Ring::build(&Graph::new(triples, NAMES, 1), RingOptions::default());
    let mut nodes = Dict::new();
    for v in 0..NAMES {
        nodes.intern(&name_of(v));
    }
    let mut preds = Dict::new();
    preds.intern("<p>");
    write_index(path, &ring, &nodes, &preds).expect("a writable temp dir");

    let at = SECTION_NAMES.iter().position(|&s| s == "NODES").unwrap();
    let bytes = section_lens(path).unwrap()[at];
    let validate = extra_ms(
        || drop(black_box(open_index(path, OpenMode::Auto).unwrap())),
        || drop(black_box(open_ring(path, OpenMode::Auto).unwrap())),
    );

    let index = open_index(path, OpenMode::Auto).unwrap();
    let dict = &index.nodes;
    let hits: Vec<String> = (0..LOOKUPS).map(|k| name_of(spread(k))).collect();
    let misses: Vec<String> = (0..LOOKUPS).map(|k| name_of(NAMES + spread(k))).collect();
    for k in (0..LOOKUPS).step_by(997) {
        assert_eq!(dict.get(&hits[k as usize]), Some(spread(k)));
        assert_eq!(dict.get(&misses[k as usize]), None);
        assert_eq!(dict.name(spread(k)), hits[k as usize].as_str());
    }
    let hit = ns_per_op(|k| {
        black_box(dict.get(&hits[k as usize]));
    });
    let miss = ns_per_op(|k| {
        black_box(dict.get(&misses[k as usize]));
    });
    let name = ns_per_op(|k| {
        black_box(dict.name(spread(k)).len());
    });
    println!(
        "{shape:<40} {:>8.2} {:>14.2} {:>8.0} {:>8.0} {:>8.0}",
        bytes as f64 / NAMES as f64,
        validate,
        hit,
        miss,
        name,
    );
}

fn main() {
    let dir = std::env::temp_dir().join(format!("dict_probe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    println!(
        "{:<40} {:>8} {:>14} {:>8} {:>8} {:>8}",
        "2^17 names", "B/name", "validate ms", "hit ns", "miss ns", "name ns"
    );
    probe(&dir.join("n.rpqm"), "<n{i}>", |i| format!("<n{i}>"));
    probe(
        &dir.join("wikidata.rpqm"),
        "<http://www.wikidata.org/entity/Q{i}>",
        |i| format!("<http://www.wikidata.org/entity/Q{i}>"),
    );
    std::fs::remove_dir_all(&dir).ok();
}
