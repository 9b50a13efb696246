//! Streaming, chunk-parallel N-Triples ingest.
//!
//! [`load_ntriples_file`] reads a `.nt` file through a bounded window
//! instead of one giant `String`: the file is consumed in ~8 MiB chunks
//! cut at line boundaries, and a *wave* of chunks goes to the shared
//! helper pool ([`rpq_core::parallel`]) **as raw bytes** — the worker
//! that scans a chunk ([`ring::ntriples::parse_ntriples_chunk`]) is also
//! the one that checks its UTF-8 and counts its lines, in the same pass,
//! so the reading thread only reads. The chunk-local dictionaries are
//! merged **in chunk order**, which reproduces the exact ids a sequential
//! [`ring::ntriples::parse_ntriples`] pass would assign (first appearance
//! of a name is in its first chunk, in local first-appearance order).
//! Peak transient memory is therefore `O(wave × chunk)` for the text
//! plus the output triples — never the whole file — and the result is
//! bit-identical to the in-memory parse.
//!
//! The calling thread takes part in every phase, and
//! [`load_ntriples_file_timed`] reports where its time went
//! ([`IngestTimings`]): reading, scanning (on the pool), merging — the
//! one serial pass over every chunk's names, a block of them at a time
//! (`Dict::intern_many`) — and the final sort and deduplication
//! of the triples in [`Graph::new`].
//!
//! Errors keep absolute line numbers: a worker numbers its chunk's lines
//! from 1, and the merge — which is in chunk order and so knows how many
//! lines came before — shifts the number, so a malformed triple deep in
//! a multi-gigabyte file is reported exactly as the sequential parser
//! would.

use std::io::Read;
use std::path::Path;
use std::time::Instant;

use ring::ntriples::{merge_chunk, parse_ntriples_chunk, NtError};
use ring::{Dict, Graph, Id, Triple};
use rpq_core::parallel::{map_chunks_ordered, pool_capacity};

/// Target byte size of one parser chunk. Big enough that per-chunk
/// dictionary merging is negligible, small enough that a wave of them
/// keeps peak memory flat.
const CHUNK_BYTES: usize = 8 << 20;

/// Where one ingest spent its time, phase by phase (wall-clock seconds
/// of the calling thread, which takes part in every phase).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IngestTimings {
    /// Reading the input into chunks.
    pub read_s: f64,
    /// Scanning the chunks into chunk-local ids, on the pool.
    pub scan_s: f64,
    /// Folding the chunks' dictionaries and triples into the global
    /// ones, in chunk order.
    pub merge_s: f64,
    /// Sorting and deduplicating the triples ([`Graph::new`]).
    pub sort_s: f64,
    /// Threads the scans could use (the pool plus the caller).
    pub threads: usize,
}

/// The result of an ingest: the graph and its node and predicate
/// dictionaries.
type Parts = (Graph, Dict, Dict);

/// What an ingest accumulates, wave after wave.
struct Ingest {
    nodes: Dict,
    preds: Dict,
    triples: Vec<Triple>,
    /// The (1-based) number of the next chunk's first line.
    next_line: usize,
    timings: IngestTimings,
}

impl Ingest {
    /// Scans one wave of chunks concurrently and folds the results into
    /// the global dictionaries in chunk order. Stops at the first
    /// malformed chunk (pending speculative scans are discarded).
    fn flush_wave(&mut self, wave: &mut Vec<Vec<u8>>) -> Result<(), NtError> {
        let started = Instant::now();
        let mut merging = 0.0;
        let mut first_err: Option<NtError> = None;
        map_chunks_ordered(
            wave,
            1,
            pool_capacity(),
            |_, chunk| parse_ntriples_chunk(&chunk[0], 1),
            |scanned| {
                let started = Instant::now();
                let go_on = match scanned {
                    Ok(chunk) => {
                        merge_chunk(&chunk, &mut self.nodes, &mut self.preds, &mut self.triples);
                        self.next_line += chunk.lines;
                        true
                    }
                    Err(mut e) => {
                        e.line += self.next_line - 1;
                        first_err = Some(e);
                        false
                    }
                };
                merging += started.elapsed().as_secs_f64();
                go_on
            },
        );
        wave.clear();
        self.timings.merge_s += merging;
        self.timings.scan_s += started.elapsed().as_secs_f64() - merging;
        first_err.map_or(Ok(()), Err)
    }
}

/// Streams an N-Triples *reader* into a graph and its dictionaries.
/// See [`load_ntriples_file`]; split out so tests and callers holding
/// non-file sources (sockets, decompressors) can reuse the machinery.
pub fn load_ntriples_reader(input: impl Read) -> Result<(Graph, Dict, Dict), String> {
    stream_with(input, CHUNK_BYTES).map(|(parts, _)| parts)
}

fn stream_with(mut input: impl Read, chunk_bytes: usize) -> Result<(Parts, IngestTimings), String> {
    let mut ingest = Ingest {
        nodes: Dict::new(),
        preds: Dict::new(),
        triples: Vec::new(),
        next_line: 1,
        timings: IngestTimings {
            threads: pool_capacity() + 1,
            ..IngestTimings::default()
        },
    };
    // Waves sized to keep every helper busy while bounding resident
    // text at (wave × chunk) bytes.
    let wave_cap = (pool_capacity() + 1) * 2;
    let mut wave: Vec<Vec<u8>> = Vec::with_capacity(wave_cap);
    let mut carry: Vec<u8> = Vec::new();
    loop {
        // Refill: the carried partial line plus up to `chunk_bytes` more.
        let started = Instant::now();
        let mut chunk = std::mem::take(&mut carry);
        chunk.reserve(chunk_bytes);
        let got = input
            .by_ref()
            .take(chunk_bytes as u64)
            .read_to_end(&mut chunk)
            .map_err(|e| format!("reading input: {e}"))?;
        let eof = got < chunk_bytes;
        // Cut at the last newline (a line is never split between chunks,
        // so neither is a character nor an escape); the tail carries over
        // into the next read.
        let split = if eof {
            chunk.len()
        } else {
            // A line longer than the window: carry everything and keep
            // reading until its newline arrives.
            chunk.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
        };
        carry = chunk.split_off(split);
        if !chunk.is_empty() {
            wave.push(chunk);
        }
        ingest.timings.read_s += started.elapsed().as_secs_f64();
        if wave.len() >= wave_cap || (eof && !wave.is_empty()) {
            ingest.flush_wave(&mut wave).map_err(|e| e.to_string())?;
        }
        if eof {
            break;
        }
    }
    let Ingest {
        nodes,
        preds,
        triples,
        mut timings,
        ..
    } = ingest;
    let started = Instant::now();
    let graph = Graph::new(triples, nodes.len() as Id, preds.len() as Id);
    timings.sort_s = started.elapsed().as_secs_f64();
    Ok(((graph, nodes, preds), timings))
}

fn open(path: &Path) -> Result<std::fs::File, String> {
    std::fs::File::open(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Streams an N-Triples file into a graph and its dictionaries with
/// bounded memory and chunk-parallel parsing. Equivalent to
/// `ring::ntriples::parse_ntriples(&std::fs::read_to_string(path)?)` —
/// same graph, same ids, same error messages — without ever holding the
/// whole file in memory.
pub fn load_ntriples_file(path: &Path) -> Result<(Graph, Dict, Dict), String> {
    load_ntriples_reader(open(path)?)
}

/// [`load_ntriples_file`], also reporting where the time went.
pub fn load_ntriples_file_timed(
    path: &Path,
) -> Result<((Graph, Dict, Dict), IngestTimings), String> {
    stream_with(open(path)?, CHUNK_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(text: &[u8], chunk_bytes: usize) -> Result<Parts, String> {
        stream_with(text, chunk_bytes).map(|(parts, _)| parts)
    }

    fn nt_fixture(n: usize) -> String {
        let mut text = String::new();
        for i in 0..n {
            text.push_str(&format!(
                "<s{}> <p{}> <o{}> .\n",
                i % 97,
                i % 7,
                (i * 31) % 113
            ));
        }
        text
    }

    /// Holds the streamed parse of `text` under every window in
    /// `windows` to the in-memory parse: graph, and names in id order.
    fn assert_streams_like_the_in_memory_parse(text: &str, windows: &[usize]) {
        let (g1, n1, p1) = ring::ntriples::parse_ntriples(text).unwrap();
        for &chunk_bytes in windows {
            let (g2, n2, p2) = stream(text.as_bytes(), chunk_bytes).unwrap();
            assert_eq!(g1.triples(), g2.triples(), "chunk={chunk_bytes}");
            assert_eq!(g1.n_nodes(), g2.n_nodes());
            assert_eq!(g1.n_preds(), g2.n_preds());
            let names1: Vec<&str> = n1.iter().map(|(_, n)| n).collect();
            let names2: Vec<&str> = n2.iter().map(|(_, n)| n).collect();
            assert_eq!(names1, names2, "node ids must match the sequential parse");
            let preds1: Vec<&str> = p1.iter().map(|(_, n)| n).collect();
            let preds2: Vec<&str> = p2.iter().map(|(_, n)| n).collect();
            assert_eq!(preds1, preds2);
        }
    }

    #[test]
    fn streaming_matches_in_memory_parse() {
        // Tiny windows force many chunks, carried partial lines, and
        // multiple waves — the full streaming machinery.
        assert_streams_like_the_in_memory_parse(&nt_fixture(1000), &[64, 257, 4096, CHUNK_BYTES]);
    }

    #[test]
    fn windows_that_cut_inside_an_escape_or_a_character() {
        let line = "<s> <p> \"tab\\t quote\\\" größe → ∞\"@de .\n";
        let escape = line.find("\\t").unwrap() + 1; // between `\` and `t`
        let arrow = line.find('→').unwrap() + 1; // inside the 3-byte arrow
        let umlaut = line.find('ö').unwrap() + 1; // inside the 2-byte ö
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("<s{i}> <p> \"plain {i}\" .\n"));
            text.push_str(line);
        }
        // A first read that ends at each of the three places (and every
        // window near them), on the first line pair and, through the
        // carried tail, on later ones.
        let first = text.find(line).unwrap();
        let mut windows = vec![first + escape, first + arrow, first + umlaut];
        windows.extend(line.len() - 3..line.len() + 30);
        assert_streams_like_the_in_memory_parse(&text, &windows);
        let (g, n, _) = stream(text.as_bytes(), first + arrow).unwrap();
        assert_eq!(g.len(), 41); // the escaped line is one triple, 40 times
        assert!(n.get("\"tab\t quote\" größe → ∞\"@de").is_some());
    }

    #[test]
    fn line_longer_than_the_window_still_parses() {
        let long = format!("<s{}> <p> <o> .\n<a> <p> <b> .\n", "x".repeat(500));
        let (g, n, _) = stream(long.as_bytes(), 64).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(n.len(), 4);
    }

    #[test]
    fn errors_report_absolute_lines() {
        let mut text = nt_fixture(10);
        text.push_str("<s> <p> .\n"); // line 11: missing object
        for chunk_bytes in [64, CHUNK_BYTES] {
            let err = stream(text.as_bytes(), chunk_bytes).unwrap_err();
            assert!(err.contains("line 11"), "chunk={chunk_bytes}: {err}");
        }
        // Bytes that are no UTF-8 are an error of their line too, behind
        // any earlier one.
        let mut bytes = nt_fixture(10).into_bytes();
        bytes.extend_from_slice(b"<s> <p> \"\xFF\" .\n<s> <p> .\n");
        for chunk_bytes in [64, CHUNK_BYTES] {
            let err = stream(&bytes, chunk_bytes).unwrap_err();
            assert!(
                err.contains("line 11") && err.contains("not valid UTF-8"),
                "chunk={chunk_bytes}: {err}"
            );
        }
    }

    #[test]
    fn empty_input_is_an_empty_graph() {
        let (g, n, p) = load_ntriples_reader(&b""[..]).unwrap();
        assert!(g.is_empty());
        assert!(n.is_empty());
        assert!(p.is_empty());
    }
}
