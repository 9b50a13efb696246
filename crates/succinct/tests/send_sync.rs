//! `Send + Sync` audit: every structure a query server shares across
//! worker threads must be free of interior mutability. The succinct
//! layer is the foundation — a `Ring` is built out of these.

use succinct::{BitVec, EliasFano, IntVec, RankSelect, WaveletMatrix};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_structures_are_send_sync() {
    assert_send_sync::<BitVec>();
    assert_send_sync::<RankSelect>();
    assert_send_sync::<IntVec>();
    assert_send_sync::<EliasFano>();
    assert_send_sync::<WaveletMatrix>();
}
