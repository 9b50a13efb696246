//! Binary persistence for graphs, dictionaries and the ring itself.
//!
//! The ring serializes its exact internal state (columns, boundaries,
//! alphabet metadata), so a saved index loads without re-sorting the
//! triples — the build-once/load-many workflow §5's 2.3-hour Wikidata
//! construction calls for.

use std::io::{self, Read, Write};

use succinct::io::{bad_data, read_len, read_u64, write_u64, Persist, FORMAT_VERSION};
use succinct::{RankSelect, WaveletMatrix};

use crate::{Boundaries, Dict, Graph, Ring, Triple};

const MAX_LEN: u64 = 1 << 40;

impl Persist for Boundaries {
    const MAGIC: [u8; 4] = *b"RCb1";

    fn write_payload(&self, w: &mut impl Write) -> io::Result<()> {
        match self {
            Boundaries::Dense(v) => {
                write_u64(w, 0)?;
                write_u64(w, v.len() as u64)?;
                for &x in v.iter() {
                    write_u64(w, x)?;
                }
                Ok(())
            }
            Boundaries::Sparse { bits, universe, n } => {
                write_u64(w, 1)?;
                write_u64(w, *universe)?;
                write_u64(w, *n as u64)?;
                bits.write_to(w)
            }
            Boundaries::EliasFano(ef) => {
                write_u64(w, 2)?;
                write_u64(w, ef.universe())?;
                write_u64(w, ef.len() as u64)?;
                for v in ef.iter() {
                    write_u64(w, v)?;
                }
                Ok(())
            }
        }
    }

    fn read_payload(r: &mut impl Read) -> io::Result<Self> {
        match read_u64(r)? {
            0 => {
                let n = read_len(r, MAX_LEN)?;
                let mut v = Vec::with_capacity(n.min(1 << 16));
                let mut prev = 0u64;
                for i in 0..n {
                    let x = read_u64(r)?;
                    if x < prev {
                        return Err(bad_data("boundary counts must be monotone"));
                    }
                    if i == 0 && x != 0 {
                        return Err(bad_data("boundaries must start at 0"));
                    }
                    prev = x;
                    v.push(x);
                }
                if v.is_empty() {
                    return Err(bad_data("empty dense boundaries"));
                }
                Ok(Boundaries::Dense(v.into()))
            }
            1 => {
                let universe = read_u64(r)?;
                let n = read_len(r, MAX_LEN)?;
                let bits = RankSelect::read_from(r)?;
                if bits.len() as u64 != universe + n as u64 {
                    return Err(bad_data("sparse boundary length mismatch"));
                }
                if bits.count_ones() as u64 != universe {
                    return Err(bad_data("sparse boundary ones-count mismatch"));
                }
                Ok(Boundaries::Sparse { bits, universe, n })
            }
            2 => {
                let universe = read_u64(r)?;
                let n = read_len(r, MAX_LEN)?;
                let mut values = Vec::with_capacity(n.min(1 << 16));
                let mut prev = 0u64;
                for i in 0..n {
                    let v = read_u64(r)?;
                    if v < prev || v >= universe {
                        return Err(bad_data("elias-fano values must be monotone and bounded"));
                    }
                    if i == 0 && v != 0 {
                        return Err(bad_data("boundaries must start at 0"));
                    }
                    prev = v;
                    values.push(v);
                }
                if values.is_empty() {
                    return Err(bad_data("empty elias-fano boundaries"));
                }
                Ok(Boundaries::EliasFano(succinct::EliasFano::new(
                    &values, universe,
                )))
            }
            t => Err(bad_data(format!("unknown boundaries tag {t}"))),
        }
    }
}

impl Persist for Graph {
    const MAGIC: [u8; 4] = *b"RGr1";

    fn write_payload(&self, w: &mut impl Write) -> io::Result<()> {
        write_u64(w, self.n_nodes())?;
        write_u64(w, self.n_preds())?;
        write_u64(w, self.len() as u64)?;
        for t in self.triples() {
            write_u64(w, t.s)?;
            write_u64(w, t.p)?;
            write_u64(w, t.o)?;
        }
        Ok(())
    }

    fn read_payload(r: &mut impl Read) -> io::Result<Self> {
        let n_nodes = read_u64(r)?;
        let n_preds = read_u64(r)?;
        let n = read_len(r, MAX_LEN)?;
        // Capped: a flipped length bit must not abort in the allocator.
        let mut triples = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let (s, p, o) = (read_u64(r)?, read_u64(r)?, read_u64(r)?);
            if s >= n_nodes || o >= n_nodes || p >= n_preds {
                return Err(bad_data("triple id out of universe"));
            }
            triples.push(Triple::new(s, p, o));
        }
        Ok(Graph::new(triples, n_nodes, n_preds))
    }
}

impl Persist for Dict {
    const MAGIC: [u8; 4] = *b"RDc1";

    fn write_payload(&self, w: &mut impl Write) -> io::Result<()> {
        write_u64(w, self.len() as u64)?;
        for (_, name) in self.iter() {
            write_u64(w, name.len() as u64)?;
            w.write_all(name.as_bytes())?;
        }
        Ok(())
    }

    fn read_payload(r: &mut impl Read) -> io::Result<Self> {
        let n = read_len(r, MAX_LEN)?;
        let mut d = Dict::new();
        let mut buf = Vec::new();
        for i in 0..n {
            let len = read_len(r, 1 << 24)?;
            buf.resize(len, 0);
            r.read_exact(&mut buf)?;
            let name =
                std::str::from_utf8(&buf).map_err(|_| bad_data("dictionary name is not UTF-8"))?;
            let id = d.intern(name);
            if id != i as u64 {
                return Err(bad_data("duplicate dictionary name"));
            }
        }
        Ok(d)
    }
}

impl Persist for Ring {
    const MAGIC: [u8; 4] = *b"RRg1";

    fn write_payload(&self, w: &mut impl Write) -> io::Result<()> {
        write_u64(w, self.n_triples() as u64)?;
        write_u64(w, self.n_nodes())?;
        write_u64(w, self.n_preds())?;
        write_u64(w, self.n_preds_base())?;
        write_u64(w, self.has_inverses() as u64)?;
        // The slot of the `(s, p, o)`-order column no ring has any more.
        WaveletMatrix::new(&[], 1).write_to(w)?;
        self.l_s().write_to(w)?;
        self.l_p().write_to(w)?;
        self.c_s_ref().write_to(w)?;
        self.c_p_ref().write_to(w)?;
        self.c_o_ref().write_to(w)
    }

    fn read_payload(r: &mut impl Read) -> io::Result<Self> {
        let n = read_len(r, MAX_LEN)?;
        let n_nodes = read_u64(r)?;
        let n_preds = read_u64(r)?;
        let n_preds_base = read_u64(r)?;
        let has_inverses = match read_u64(r)? {
            0 => false,
            1 => true,
            _ => return Err(bad_data("invalid has_inverses flag")),
        };
        // An empty ring's empty base alphabet is stored with the
        // wavelet-matrix sigma clamped to 1; with any triples present a
        // zero base alphabet is impossible, so keep the strict check.
        let doubled = n_preds_base
            .checked_mul(2)
            .ok_or_else(|| bad_data("base alphabet size overflows"))?;
        let expected_preds = if n == 0 { doubled.max(1) } else { doubled };
        if has_inverses && n_preds != expected_preds {
            return Err(bad_data("inverse alphabet size mismatch"));
        }
        // Empty in records written since the ring stopped storing that
        // column, `n` symbols in older ones; dropped either way.
        let l_o_len = WaveletMatrix::read_from(r)?.len();
        if l_o_len != 0 && l_o_len != n {
            return Err(bad_data("L_o length mismatch"));
        }
        let l_s = WaveletMatrix::read_from(r)?;
        let l_p = WaveletMatrix::read_from(r)?;
        let c_s = Boundaries::read_from(r)?;
        let c_p = Boundaries::read_from(r)?;
        let c_o = Boundaries::read_from(r)?;
        for (name, wm) in [("L_s", &l_s), ("L_p", &l_p)] {
            if wm.len() != n {
                return Err(bad_data(format!("{name} length mismatch")));
            }
        }
        if l_s.sigma() != n_nodes.max(1) || l_p.sigma() != n_preds.max(1) {
            return Err(bad_data("column alphabet mismatch"));
        }
        for (name, b, uni) in [
            ("C_s", &c_s, n_nodes),
            ("C_p", &c_p, n_preds),
            ("C_o", &c_o, n_nodes),
        ] {
            if b.universe() != uni {
                return Err(bad_data(format!("{name} universe mismatch")));
            }
            if b.get(uni) != n {
                return Err(bad_data(format!("{name} total mismatch")));
            }
        }
        Ok(Ring::from_raw_parts(
            l_s,
            l_p,
            c_s,
            c_p,
            c_o,
            n,
            n_nodes,
            n_preds,
            n_preds_base,
            has_inverses,
        ))
    }
}

/// Writes any [`Persist`] value to a file — atomically (temp file +
/// fsync + rename) and with a whole-file checksum footer, so a crash
/// mid-save preserves the previous contents and later corruption is
/// detected on load.
pub fn save_to_file<T: Persist>(value: &T, path: &std::path::Path) -> io::Result<()> {
    crate::durable::atomic_write(path, |w| {
        let mut cw = succinct::checksum::CrcWriter::new(w);
        value.write_to(&mut cw)?;
        crate::durable::finish_footer(&mut cw)
    })
    .map(|_| ())
}

/// Reads any [`Persist`] value from a file, verifying the checksum
/// footer. Files from before the durability layer (no footer, clean EOF
/// after the payload) still load, with a warning that they carry no
/// integrity protection.
pub fn load_from_file<T: Persist>(path: &std::path::Path) -> io::Result<T> {
    let file = crate::durable::FaultReader::new(std::fs::File::open(path)?);
    let mut r = succinct::checksum::CrcReader::new(io::BufReader::new(file));
    let value = T::read_from(&mut r)?;
    let context = path.display().to_string();
    if !crate::durable::verify_footer_or_legacy(&mut r, &context)? {
        eprintln!(
            "warning: {context} predates checksums (no integrity footer); re-save to upgrade"
        );
    }
    Ok(value)
}

/// Needed by [`Persist::read_payload`] consumers that also want to assert
/// the on-disk format version.
pub const RING_FORMAT_VERSION: u32 = FORMAT_VERSION;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingOptions;

    fn roundtrip<T: Persist>(x: &T) -> T {
        let mut buf = Vec::new();
        x.write_to(&mut buf).unwrap();
        T::read_from(&mut buf.as_slice()).unwrap()
    }

    fn sample_graph() -> Graph {
        Graph::from_triples(vec![
            Triple::new(0, 0, 1),
            Triple::new(1, 1, 2),
            Triple::new(2, 0, 0),
            Triple::new(3, 2, 1),
        ])
    }

    #[test]
    fn graph_roundtrip() {
        let g = sample_graph();
        let back = roundtrip(&g);
        assert_eq!(g.triples(), back.triples());
        assert_eq!(g.n_nodes(), back.n_nodes());
        assert_eq!(g.n_preds(), back.n_preds());
    }

    #[test]
    fn dict_roundtrip() {
        let mut d = Dict::new();
        for n in ["alpha", "βeta", "knows", ""] {
            d.intern(n);
        }
        let back = roundtrip(&d);
        assert_eq!(back.len(), 4);
        assert_eq!(back.get("βeta"), d.get("βeta"));
        assert_eq!(back.name(2), "knows");
    }

    #[test]
    fn boundaries_roundtrip() {
        for b in [
            Boundaries::dense_from_counts(&[3, 0, 2, 5]),
            Boundaries::sparse_from_counts(&[3, 0, 2, 5]),
        ] {
            let back = roundtrip(&b);
            for c in 0..=4 {
                assert_eq!(b.get(c), back.get(c), "C[{c}]");
            }
        }
    }

    #[test]
    fn ring_roundtrip_preserves_queries() {
        let g = sample_graph();
        for kind in [
            crate::ring::BoundaryKind::Dense,
            crate::ring::BoundaryKind::Sparse,
            crate::ring::BoundaryKind::EliasFano,
        ] {
            let ring = Ring::build(
                &g,
                RingOptions {
                    with_inverses: true,
                    node_boundaries: kind,
                },
            );
            let back = roundtrip(&ring);
            assert_eq!(back.n_triples(), ring.n_triples());
            assert_eq!(back.n_preds_base(), ring.n_preds_base());
            assert!(back.has_inverses());
            let all: Vec<_> = ring.iter_triples().collect();
            let all2: Vec<_> = back.iter_triples().collect();
            assert_eq!(all, all2);
            for i in 0..ring.n_triples() {
                assert_eq!(ring.lf_p(i), back.lf_p(i));
            }
        }
    }

    #[test]
    fn file_helpers_roundtrip() {
        let dir = std::env::temp_dir().join("ring_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.ring");
        let g = sample_graph();
        save_to_file(&g, &path).unwrap();
        let back: Graph = load_from_file(&path).unwrap();
        assert_eq!(g.triples(), back.triples());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_helpers_detect_corruption_and_accept_legacy() {
        use crate::durable::{durability_error, DurabilityError};
        let dir = std::env::temp_dir().join(format!("ring_io_crc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.ring");
        let g = sample_graph();
        save_to_file(&g, &path).unwrap();

        // A flipped payload bit is caught by the footer checksum.
        let good = std::fs::read(&path).unwrap();
        let mut bad = good.clone();
        bad[10] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        let err = load_from_file::<Graph>(&path).expect_err("must fail");
        assert!(
            matches!(
                durability_error(&err),
                Some(DurabilityError::ChecksumMismatch { .. })
            ) || err.kind() == io::ErrorKind::InvalidData,
            "unexpected error: {err}"
        );

        // A file cut inside the footer is a typed truncation.
        std::fs::write(&path, &good[..good.len() - 7]).unwrap();
        let err = load_from_file::<Graph>(&path).expect_err("must fail");
        assert!(
            matches!(
                durability_error(&err),
                Some(DurabilityError::TruncatedFile { .. })
            ),
            "unexpected error: {err}"
        );

        // A legacy file (payload with no footer) still loads.
        let mut legacy = Vec::new();
        g.write_to(&mut legacy).unwrap();
        std::fs::write(&path, &legacy).unwrap();
        let back: Graph = load_from_file(&path).unwrap();
        assert_eq!(g.triples(), back.triples());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_ring_rejected() {
        let ring = Ring::build(&sample_graph(), RingOptions::default());
        let mut buf = Vec::new();
        ring.write_to(&mut buf).unwrap();
        // Claim a different triple count.
        buf[8] ^= 0x01;
        assert!(Ring::read_from(&mut buf.as_slice()).is_err());
        // Truncated.
        let short = &buf[..buf.len() / 2];
        assert!(Ring::read_from(&mut &short[..]).is_err());
    }
}
