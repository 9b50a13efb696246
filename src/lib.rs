#![warn(missing_docs)]

//! # ring-rpq — time- and space-efficient regular path queries on graphs
//!
//! A Rust implementation of *"Time- and Space-Efficient Regular Path
//! Queries on Graphs"* (Arroyuelo, Hogan, Navarro, Rojas-Ledesma;
//! arXiv:2111.04556): 2RPQ evaluation directly on the **ring**, a
//! BWT-based succinct graph index, by combining backward search, wavelet-
//! matrix range operations and the bit-parallel simulation of Glushkov
//! automata.
//!
//! This crate is the façade: it re-exports the workspace crates and offers
//! [`RpqDatabase`], a name-level convenience API. For id-level control use
//! the re-exported building blocks:
//!
//! * [`succinct`] — bit vectors, rank/select, the wavelet matrix;
//! * [`automata`] — path expressions, parsing, Glushkov bit-parallelism;
//! * [`ring`] — the succinct graph index (and a Leapfrog-TrieJoin);
//! * [`rpq_core`] — the RPQ engine itself;
//! * [`baselines`] — classical competitor engines;
//! * [`workload`] — synthetic Wikidata-like benchmarks.
//!
//! ## Quickstart
//!
//! ```
//! use ring_rpq::RpqDatabase;
//!
//! // One `subject predicate object` triple per line.
//! let db = RpqDatabase::from_text(
//!     "baquedano l5 bellas_artes
//!      bellas_artes l5 santa_ana
//!      santa_ana bus u_de_chile",
//! ).unwrap();
//!
//! // Stations reachable from Baquedano by l5+ then one bus hop:
//! let pairs = db.query("baquedano", "l5+/bus", "?y").unwrap();
//! assert_eq!(pairs, vec![("baquedano".to_string(), "u_de_chile".to_string())]);
//!
//! // Two-way expressions work too (^ inverts a step):
//! let back = db.query("?x", "^l5", "baquedano").unwrap();
//! assert_eq!(back, vec![("bellas_artes".to_string(), "baquedano".to_string())]);
//! ```

pub use automata;
pub use baselines;
pub use ring;
pub use rpq_core;
pub use rpq_server;
pub use succinct;
pub use workload;

pub mod ingest;
mod updatable;
pub use rpq_core::{LevelSample, QueryProfile};
pub use updatable::UpdatableDatabase;

use automata::parser::{self, LabelResolver};
use ring::mapped::{MappedIndex, OpenMode};
use ring::ring::RingOptions;
use ring::{Dict, Graph, Id, Ring};
use rpq_core::{EngineOptions, QueryOutput, RpqQuery, ScratchPool, SourceSnapshot, Term};
use std::sync::{Arc, OnceLock};
use succinct::ResidentMode;

/// Errors from the name-level API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// The graph text was malformed.
    Graph(String),
    /// The path expression failed to parse.
    Parse(parser::ParseError),
    /// An endpoint names an unknown node.
    UnknownNode(String),
    /// Query evaluation failed.
    Query(rpq_core::QueryError),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Graph(m) => write!(f, "graph error: {m}"),
            DbError::Parse(e) => write!(f, "expression error: {e}"),
            DbError::UnknownNode(n) => write!(f, "unknown node '{n}'"),
            DbError::Query(e) => write!(f, "query error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

/// A ready-to-query RPQ database: a ring index plus the dictionaries
/// mapping names to ids.
///
/// Endpoints are node names or variables (any token starting with `?`).
/// Path expressions use the SPARQL-property-path-flavoured syntax of
/// [`automata::parser`]: `/` concatenation, `|` alternation, `*`/`+`/`?`
/// closures, `^p` inverse steps, `!(p|q)` negated label sets.
pub struct RpqDatabase {
    /// Lazily materialized: a database opened from a mapped `RRPQM01`
    /// file reconstructs the base graph from the ring only if asked.
    graph: OnceLock<Graph>,
    /// What every query, plan and server job evaluates against: the one
    /// ring, or — opened from a sharded index — the shard set, across
    /// whose parts queries scatter-gather (its `ring` is the first part).
    source: SourceSnapshot,
    nodes: Dict,
    preds: Dict,
    open_info: OpenInfo,
    /// Mask tables reused from query to query (see
    /// [`rpq_core::scratch`]): queries take `&self`, so each checks a
    /// scratch out for its evaluation.
    scratch: ScratchPool,
}

/// How a database was brought into memory — cold-start observability
/// for [`RpqDatabase::open`] (exported by the server metrics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenInfo {
    /// Wall time of the open call, microseconds.
    pub open_us: u64,
    /// Whether the index payload lives in a kernel mapping or on the heap.
    pub resident: ResidentMode,
    /// Bytes held by the kernel mapping (0 in heap mode).
    pub mapped_bytes: u64,
}

impl Default for OpenInfo {
    fn default() -> Self {
        Self {
            open_us: 0,
            resident: ResidentMode::Heap,
            mapped_bytes: 0,
        }
    }
}

struct DictResolver<'a> {
    preds: &'a Dict,
    ring: &'a Ring,
}

impl LabelResolver for DictResolver<'_> {
    fn resolve(&self, name: &str) -> Option<Id> {
        self.preds.get(name)
    }

    fn inverse(&self, label: Id) -> Id {
        self.ring.inverse_label(label)
    }
}

impl RpqDatabase {
    /// Builds a database from whitespace triple text (see
    /// [`ring::Graph::parse_text`]).
    pub fn from_text(text: &str) -> Result<Self, DbError> {
        let (graph, nodes, preds) = Graph::parse_text(text).map_err(DbError::Graph)?;
        Ok(Self::from_parts(graph, nodes, preds))
    }

    /// Builds a database from N-Triples text (see [`ring::ntriples`]):
    /// `<s> <p> <o> .` lines, RDF literals and blank nodes included.
    /// Node names are the dictionary keys of the parsed terms, so IRIs
    /// keep their brackets: query with `"<alice>"`, not `"alice"`.
    pub fn from_ntriples(text: &str) -> Result<Self, DbError> {
        let (graph, nodes, preds) =
            ring::ntriples::parse_ntriples(text).map_err(|e| DbError::Graph(e.to_string()))?;
        Ok(Self::from_parts(graph, nodes, preds))
    }

    /// Reads a graph file, picking the parser by extension: `.nt` is
    /// N-Triples (streamed in bounded chunks and parsed chunk-parallel,
    /// see [`ingest`] — the file is never held in memory whole),
    /// everything else whitespace triple text.
    pub fn from_graph_file(path: &std::path::Path) -> Result<Self, DbError> {
        if path
            .extension()
            .is_some_and(|x| x.eq_ignore_ascii_case("nt"))
        {
            let (graph, nodes, preds) = ingest::load_ntriples_file(path).map_err(DbError::Graph)?;
            Ok(Self::from_parts(graph, nodes, preds))
        } else {
            let text = std::fs::read_to_string(path)
                .map_err(|e| DbError::Graph(format!("reading {}: {e}", path.display())))?;
            Self::from_text(&text)
        }
    }

    /// Builds a database from pre-encoded parts.
    pub fn from_parts(graph: Graph, nodes: Dict, preds: Dict) -> Self {
        let ring = Arc::new(Ring::build(&graph, RingOptions::default()));
        Self::from_built_parts(graph, ring, nodes, preds)
    }

    /// Converts this immutable database into an [`UpdatableDatabase`]
    /// accepting live inserts, deletes, commits and compactions.
    pub fn into_updatable(self) -> UpdatableDatabase {
        UpdatableDatabase::from_database(self)
    }

    /// The parts an updatable store is assembled from; the error is that
    /// of [`Self::decode_graph`], where the graph has to be decoded.
    pub(crate) fn into_raw_parts(mut self) -> Result<(Graph, Arc<Ring>, Dict, Dict), String> {
        let graph = match self.graph.take() {
            Some(graph) => graph,
            None => self.decode_graph()?,
        };
        let sharded = self.is_sharded();
        // Downstream mutators (the updatable store) intern names; hand
        // them the heap dictionary form up front. A sharded database
        // carries only per-shard rings, so the updatable store gets a
        // freshly built monolithic one.
        let ring = if sharded {
            Arc::new(Ring::build(&graph, RingOptions::default()))
        } else {
            self.source.ring
        };
        self.nodes.make_owned();
        self.preds.make_owned();
        Ok((graph, ring, self.nodes, self.preds))
    }

    pub(crate) fn from_built_parts(
        graph: Graph,
        ring: Arc<Ring>,
        nodes: Dict,
        preds: Dict,
    ) -> Self {
        Self {
            graph: OnceLock::from(graph),
            source: SourceSnapshot::immutable(ring),
            nodes,
            preds,
            open_info: OpenInfo::default(),
            scratch: ScratchPool::default(),
        }
    }

    /// The underlying ring index — of a sharded database, its **first
    /// part** only: the alphabet, the node universe and `inverse_label`
    /// are every part's, the triples and their cardinalities are not.
    /// Evaluate and plan through [`Self::query_with`] and
    /// [`Self::explain_plan`], which see the whole partition.
    pub fn ring(&self) -> &Ring {
        &self.source.ring
    }

    /// The underlying graph. A database opened from a file carries no
    /// graph payload; the first call decodes it from the ring in bulk
    /// ([`Ring::decode_triples`]: the ring stores `G↔`, the graph is its
    /// base-label triples).
    ///
    /// # Panics
    /// Panics if the file's columns and boundaries contradict each other
    /// (they are not checksummed on a mapped open: `rpq-cli verify` is).
    pub fn graph(&self) -> &Graph {
        self.graph.get_or_init(|| {
            self.decode_graph()
                .unwrap_or_else(|e| panic!("the index does not decode to a graph: {e}"))
        })
    }

    /// The base graph, decoded from the ring — and the other parts of a
    /// sharded database: shards partition the base triples, so their
    /// union is exact.
    fn decode_graph(&self) -> Result<Graph, String> {
        let ring = self.ring();
        let mut triples = ring.decode_triples(true)?;
        for part in self.source.shards.iter().skip(1) {
            triples.extend(part.ring.decode_triples(true)?);
        }
        Ok(Graph::new(triples, ring.n_nodes(), ring.n_preds_base()))
    }

    /// How this database was opened (wall time, heap vs mmap residency,
    /// mapped bytes). Databases built in memory report the default:
    /// heap-resident, zero mapped bytes.
    pub fn open_info(&self) -> OpenInfo {
        self.open_info
    }

    /// The node dictionary.
    pub fn nodes(&self) -> &Dict {
        &self.nodes
    }

    /// The predicate dictionary.
    pub fn preds(&self) -> &Dict {
        &self.preds
    }

    /// Parses endpoints and expression into an id-level [`RpqQuery`].
    pub fn parse_query(
        &self,
        subject: &str,
        expr: &str,
        object: &str,
    ) -> Result<RpqQuery, DbError> {
        let resolver = DictResolver {
            preds: &self.preds,
            ring: self.ring(),
        };
        let e = parser::parse(expr, &resolver).map_err(DbError::Parse)?;
        let term = |name: &str| -> Result<Term, DbError> {
            if name.starts_with('?') {
                Ok(Term::Var)
            } else {
                self.nodes
                    .get(name)
                    .map(Term::Const)
                    .ok_or_else(|| DbError::UnknownNode(name.to_string()))
            }
        };
        Ok(RpqQuery::new(term(subject)?, e, term(object)?))
    }

    /// Evaluates a query, returning name pairs sorted lexicographically.
    pub fn query(
        &self,
        subject: &str,
        expr: &str,
        object: &str,
    ) -> Result<Vec<(String, String)>, DbError> {
        let out = self.query_with(subject, expr, object, &EngineOptions::default())?;
        let mut named: Vec<(String, String)> = out
            .pairs
            .iter()
            .map(|&(s, o)| {
                (
                    self.nodes.name(s).to_string(),
                    self.nodes.name(o).to_string(),
                )
            })
            .collect();
        named.sort();
        Ok(named)
    }

    /// Evaluates with explicit options, returning the raw id-level output.
    pub fn query_with(
        &self,
        subject: &str,
        expr: &str,
        object: &str,
        opts: &EngineOptions,
    ) -> Result<QueryOutput, DbError> {
        let q = self.parse_query(subject, expr, object)?;
        self.scratch
            .with_engine(&self.source, |engine| engine.evaluate(&q, opts))
            .map_err(DbError::Query)
    }

    /// Explains the evaluation plan for a query (route, direction,
    /// cardinalities, split choice) without running it — the human-
    /// readable rendering of [`Self::explain_plan`].
    pub fn explain(&self, subject: &str, expr: &str, object: &str) -> Result<String, DbError> {
        self.explain_plan(subject, expr, object)
            .map(|plan| plan.to_string())
    }

    /// The structured plan behind [`Self::explain`]: the decision of the
    /// shared cost-based planner — exactly what [`Self::query`] will
    /// execute, since both consult `rpq_core::planner`. Render it with
    /// [`rpq_core::explain::QueryPlan::to_json`] for stable
    /// machine-readable output (the CLI's `--explain`).
    pub fn explain_plan(
        &self,
        subject: &str,
        expr: &str,
        object: &str,
    ) -> Result<rpq_core::explain::QueryPlan, DbError> {
        let q = self.parse_query(subject, expr, object)?;
        rpq_core::explain::explain(&self.source, &q).map_err(DbError::Query)
    }

    /// Evaluates many queries concurrently (`n_threads` workers, dynamic
    /// load balancing); results come back in input order.
    pub fn query_batch(
        &self,
        queries: &[rpq_core::RpqQuery],
        opts: &EngineOptions,
        n_threads: usize,
    ) -> Vec<Result<QueryOutput, rpq_core::QueryError>> {
        rpq_core::parallel::evaluate_batch(&self.source, queries, opts, n_threads)
    }

    /// Persists the database as an `RRPQM01` file — the one index file
    /// format (see [`ring::mapped`]): the ring's arrays as they are in
    /// memory, aligned, plus the dictionaries, written atomically (temp
    /// file + fsync + rename) with a CRC32C per section. The file is
    /// usable *in place*: [`Self::open`] maps it and answers queries
    /// without deserializing, so cold starts cost page faults instead of
    /// an index rebuild. Returns the total bytes written.
    pub fn save_mapped(&self, path: &std::path::Path) -> std::io::Result<u64> {
        ring::mapped::write_index(path, self.ring(), &self.nodes, &self.preds)
    }

    /// Opens a persisted database: an `RRPQM01` file
    /// ([`Self::save_mapped`], [`UpdatableDatabase::save`]) is mapped
    /// zero-copy, a sharded index directory ([`Self::save_sharded`]) shard
    /// by shard. [`Self::open_info`] reports how the index is resident and
    /// how long the open took. A file in a format this build no longer
    /// reads (the stream formats of earlier builds, checksum-less
    /// `RRPQM01`) is refused with [`std::io::ErrorKind::Unsupported`] and
    /// the command that rebuilds it.
    pub fn open(path: &std::path::Path) -> std::io::Result<Self> {
        Self::open_with(path, OpenMode::Auto)
    }

    /// [`Self::open`] with an explicit residency request:
    /// [`OpenMode::Mmap`] requires a real kernel mapping,
    /// [`OpenMode::Heap`] forces an aligned heap read (the differential-
    /// testing path).
    pub fn open_with(path: &std::path::Path, mode: OpenMode) -> std::io::Result<Self> {
        if ring::sharded::is_sharded_dir(path) {
            return Self::open_sharded(path, mode);
        }
        let started = std::time::Instant::now();
        let orphans = ring::durable::cleanup_orphans(path);
        if orphans > 0 {
            eprintln!(
                "recovery: removed {orphans} orphaned temp file(s) from an interrupted save of {}",
                path.display()
            );
        }
        let idx = ring::mapped::open_index(path, mode)?;
        Ok(Self::from_mapped(idx, started))
    }

    /// The database over an opened file, `started` being when its open
    /// began.
    pub(crate) fn from_mapped(idx: MappedIndex, started: std::time::Instant) -> Self {
        Self {
            graph: OnceLock::new(),
            source: SourceSnapshot::immutable(Arc::new(idx.ring)),
            nodes: idx.nodes,
            preds: idx.preds,
            open_info: OpenInfo {
                open_us: started.elapsed().as_micros() as u64,
                resident: idx.resident,
                mapped_bytes: idx.mapped_bytes,
            },
            scratch: ScratchPool::default(),
        }
    }

    /// Starts a concurrent query server over this database (see
    /// [`rpq_server::RpqServer`]): a worker pool sharing the ring, with
    /// plan/result caches, admission control and metrics.
    ///
    /// ```
    /// use ring_rpq::RpqDatabase;
    /// use ring_rpq::rpq_server::ServerConfig;
    ///
    /// let db = RpqDatabase::from_text("a p b\nb p c\n").unwrap();
    /// let server = db
    ///     .into_server(ServerConfig { workers: 2, ..ServerConfig::default() })
    ///     .unwrap();
    /// let answer = server.query_blocking("a", "p+", "?y").unwrap();
    /// assert_eq!(server.resolve_pairs(&answer), vec![
    ///     ("a".to_string(), "b".to_string()),
    ///     ("a".to_string(), "c".to_string()),
    /// ]);
    /// server.shutdown();
    /// ```
    pub fn into_server(
        self,
        config: rpq_server::ServerConfig,
    ) -> Result<rpq_server::RpqServer, rpq_server::RpqError> {
        rpq_server::RpqServer::start(std::sync::Arc::new(self), config)
    }

    /// Persists the database as a **sharded** index directory: the base
    /// graph is partitioned by predicate (subject ranges for skewed
    /// predicates, see [`ring::sharded`]) into `n_shards` sub-rings,
    /// each written as a mappable `RRPQM01` file — the first carrying the
    /// one copy of the dictionaries — next to a checksummed `MANIFEST`.
    /// Returns total bytes written.
    pub fn save_sharded(&self, dir: &std::path::Path, n_shards: usize) -> std::io::Result<u64> {
        let idx =
            ring::sharded::ShardedIndex::build(self.graph(), n_shards, RingOptions::default());
        idx.save_dir(dir, &self.nodes, &self.preds)
    }

    /// Opens a sharded index directory ([`Self::save_sharded`]); queries
    /// scatter-gather across the shards and return exactly what the
    /// unsharded index would. [`Self::open_with`] dispatches here for
    /// directory paths, so callers rarely need this directly.
    pub fn open_sharded(dir: &std::path::Path, mode: OpenMode) -> std::io::Result<Self> {
        let t0 = std::time::Instant::now();
        let opened = ring::sharded::open_dir(dir, mode)?;
        let orphans = ring::sharded::unnamed_files(dir, opened.rings.len()).orphan_tmps;
        let removed = orphans
            .iter()
            .filter(|tmp| std::fs::remove_file(tmp).is_ok())
            .count();
        if removed > 0 {
            eprintln!(
                "recovery: removed {removed} orphaned temp file(s) from an interrupted save of {}",
                dir.display()
            );
        }
        let rings = opened.rings.into_iter().map(Arc::new).collect();
        Ok(Self {
            graph: OnceLock::new(),
            source: rpq_core::ShardedSource::new(rings).snapshot(),
            nodes: opened.nodes,
            preds: opened.preds,
            open_info: OpenInfo {
                open_us: t0.elapsed().as_micros() as u64,
                resident: opened.resident,
                mapped_bytes: opened.mapped_bytes,
            },
            scratch: ScratchPool::default(),
        })
    }

    /// Whether this database scatter-gathers over a sharded index.
    pub fn is_sharded(&self) -> bool {
        !self.source.shards.is_empty()
    }

    /// Number of shards backing this database (1 when unsharded).
    pub fn n_shards(&self) -> usize {
        self.source.shards.len().max(1)
    }
}

/// An [`RpqDatabase`] is exactly what a server serves: the shared ring
/// plus the name dictionaries. All of it is immutable after
/// construction, so one instance backs any number of workers (every
/// snapshot is the same epoch-0 view).
impl rpq_server::QuerySource for RpqDatabase {
    fn snapshot(&self) -> SourceSnapshot {
        self.source.clone()
    }

    fn node_id(&self, name: &str) -> Option<Id> {
        self.nodes.get(name)
    }

    fn node_name(&self, id: Id) -> Option<String> {
        (id < self.nodes.len() as Id).then(|| self.nodes.name(id).to_string())
    }

    fn pred_id(&self, name: &str) -> Option<Id> {
        self.preds.get(name)
    }

    fn index_info(&self) -> Option<rpq_server::IndexStats> {
        Some(rpq_server::IndexStats {
            open_us: self.open_info.open_us,
            resident_mode: self.open_info.resident.as_str(),
            mapped_bytes: self.open_info.mapped_bytes,
        })
    }

    fn shard_stats(&self) -> Option<Vec<rpq_server::ShardStat>> {
        let rows = self.source.shards.iter().map(|p| rpq_server::ShardStat {
            triples: p.ring.n_triples(),
            bytes: p.ring.size_bytes(),
            probes: p.probe_count(),
        });
        self.is_sharded().then(|| rows.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_roundtrip() {
        let db = RpqDatabase::from_text("a p b\nb p c\nc q a\n").unwrap();
        let got = db.query("a", "p+", "?y").unwrap();
        assert_eq!(
            got,
            vec![
                ("a".to_string(), "b".to_string()),
                ("a".to_string(), "c".to_string())
            ]
        );
        let got = db.query("?x", "p/q", "?y").unwrap();
        assert_eq!(got, vec![("b".to_string(), "a".to_string())]);
    }

    /// The server owns an `Arc<RpqDatabase>`; the whole database must be
    /// shareable across worker threads.
    #[test]
    fn database_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RpqDatabase>();
    }

    /// `&self` queries from many threads share the scratch pool: every
    /// answer equals the single-threaded one, and the pool ends up with
    /// at most one scratch per thread that was ever in flight.
    #[test]
    fn concurrent_queries_reuse_pooled_scratches() {
        const THREADS: usize = 8;
        let mut text = String::new();
        for i in 0..150u32 {
            text.push_str(&format!("n{i} p n{}\n", (i * 7 + 1) % 150));
            text.push_str(&format!("n{i} q n{}\n", (i * 11 + 3) % 150));
            if i % 10 == 0 {
                text.push_str(&format!("n{i} r n{}\n", (i + 75) % 150));
            }
        }
        let db = RpqDatabase::from_text(&text).unwrap();
        let queries = [
            ("n0", "p+", "?y"),
            ("?x", "(p|q)*/r", "n75"),
            ("?x", "p*/r/q*", "?y"),
            ("?x", "^q/p", "?y"),
            ("n3", "p/q", "?y"),
            ("n9", "(p|^q)+", "n2"),
        ];
        let opts = EngineOptions::default();
        assert_eq!(db.scratch.pooled(), 0);
        let expected: Vec<Vec<(Id, Id)>> = queries
            .iter()
            .map(|(s, e, o)| db.query_with(s, e, o, &opts).unwrap().pairs)
            .collect();
        assert!(expected.iter().all(|pairs| !pairs.is_empty()));
        assert_eq!(db.scratch.pooled(), 1, "sequential queries share one");

        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (db, start, expected) = (&db, &start, &expected);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..20 {
                        let i = (t + round) % queries.len();
                        let (s, e, o) = queries[i];
                        let out = db.query_with(s, e, o, &opts).unwrap();
                        assert_eq!(out.pairs, expected[i], "thread {t}, {s} {e} {o}");
                    }
                });
            }
        });
        let pooled = db.scratch.pooled();
        assert!(
            (1..=THREADS).contains(&pooled),
            "{pooled} scratches pooled after {THREADS} concurrent threads"
        );
    }

    #[test]
    fn serves_queries_through_the_server_layer() {
        use rpq_server::ServerConfig;
        let db = RpqDatabase::from_text("a p b\nb p c\nc q a\n").unwrap();
        let server = db
            .into_server(ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            })
            .unwrap();
        let answer = server.query_blocking("a", "p+", "?y").unwrap();
        assert_eq!(
            server.resolve_pairs(&answer),
            vec![
                ("a".to_string(), "b".to_string()),
                ("a".to_string(), "c".to_string())
            ]
        );
        // Parse errors surface as the typed server error.
        assert!(matches!(
            server.query_blocking("a", "p/(", "?y"),
            Err(rpq_server::RpqError::Parse(_))
        ));
        server.shutdown();
    }

    #[test]
    fn mapped_save_open_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rpq-facade-mapped-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.rpqm");
        let db = RpqDatabase::from_text("a p b\nb p c\nc q a\n").unwrap();
        let bytes = db.save_mapped(&path).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        for mode in [OpenMode::Auto, OpenMode::Heap] {
            let back = RpqDatabase::open_with(&path, mode).unwrap();
            assert_eq!(
                back.query("a", "p+", "?y").unwrap(),
                db.query("a", "p+", "?y").unwrap(),
                "{mode:?}"
            );
            assert_eq!(
                back.query("?x", "^p/q", "?y").unwrap(),
                db.query("?x", "^p/q", "?y").unwrap()
            );
            // The lazily rebuilt graph matches the original.
            assert_eq!(back.graph().triples(), db.graph().triples());
            assert_eq!(back.open_info().mapped_bytes == 0, mode == OpenMode::Heap);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapped_database_converts_to_updatable() {
        let dir = std::env::temp_dir().join(format!("rpq-facade-upd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.rpqm");
        let db = RpqDatabase::from_text("a p b\nb p c\n").unwrap();
        db.save_mapped(&path).unwrap();
        let live = RpqDatabase::open(&path).unwrap().into_updatable();
        live.insert("c", "p", "d");
        live.commit();
        assert_eq!(
            live.query("a", "p+", "?y").unwrap(),
            vec![
                ("a".to_string(), "b".to_string()),
                ("a".to_string(), "c".to_string()),
                ("a".to_string(), "d".to_string()),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_save_open_matches_unsharded() {
        let dir = std::env::temp_dir().join(format!("rpq-facade-sharded-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut text = String::new();
        for i in 0..40u32 {
            text.push_str(&format!("n{i} p n{}\n", (i + 1) % 40));
            if i % 3 == 0 {
                text.push_str(&format!("n{i} q n{}\n", (i * 7 + 2) % 40));
            }
        }
        let db = RpqDatabase::from_text(&text).unwrap();
        db.save_sharded(&dir, 3).unwrap();

        let sharded = RpqDatabase::open(&dir).unwrap();
        assert!(sharded.is_sharded());
        assert_eq!(sharded.n_shards(), 3);
        for q in [("n0", "p+", "?y"), ("?x", "p/q", "?y"), ("?x", "^p", "n0")] {
            assert_eq!(
                sharded.query(q.0, q.1, q.2).unwrap(),
                db.query(q.0, q.1, q.2).unwrap(),
                "{q:?}"
            );
        }
        // The reconstructed graph is the exact base triple set.
        assert_eq!(sharded.graph().triples(), db.graph().triples());

        // Serving: the server scatter-gathers and exports per-shard rows.
        use rpq_server::{QuerySource, ServerConfig};
        let stats = QuerySource::shard_stats(&sharded).unwrap();
        assert_eq!(stats.len(), 3);
        assert_eq!(
            stats.iter().map(|s| s.triples).sum::<usize>(),
            2 * db.graph().len()
        );
        let server = sharded
            .into_server(ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            })
            .unwrap();
        let answer = server.query_blocking("n0", "p+", "?y").unwrap();
        assert_eq!(server.resolve_pairs(&answer).len(), 40);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Shard 0's file is a complete index of its partition; the others
    /// carry no dictionaries and say where the index is.
    #[test]
    fn a_dictionary_less_shard_is_not_a_database() {
        let dir = std::env::temp_dir().join(format!("rpq-facade-shardfile-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = RpqDatabase::from_text("a p b\nb p c\nc q a\nc r b\n").unwrap();
        db.save_sharded(&dir, 3).unwrap();
        for mode in [OpenMode::Auto, OpenMode::Heap] {
            let err = RpqDatabase::open_with(&dir.join("shard-001.rpqm"), mode)
                .err()
                .expect("shard 1 has no dictionaries");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("shard of a sharded index"), "{msg}");
            assert!(msg.contains(&format!("{} instead", dir.display())), "{msg}");
        }
        let first = RpqDatabase::open(&dir.join("shard-000.rpqm")).unwrap();
        assert!(!first.is_sharded());
        assert_eq!(first.nodes().len(), 3);
        assert!(!first.graph().is_empty() && first.graph().len() < db.graph().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_shard_directory_behaves_like_the_plain_index() {
        let dir = std::env::temp_dir().join(format!("rpq-facade-shard1-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = RpqDatabase::from_text("a p b\nb p c\nc q a\n").unwrap();
        db.save_sharded(&dir, 1).unwrap();
        let one = RpqDatabase::open(&dir).unwrap();
        assert!(one.is_sharded());
        assert_eq!(one.n_shards(), 1);
        assert_eq!(
            one.query("a", "p+", "?y").unwrap(),
            db.query("a", "p+", "?y").unwrap()
        );
        // Converting a sharded database to updatable rebuilds one ring.
        let live = one.into_updatable();
        live.insert("c", "p", "d");
        live.commit();
        assert!(live
            .query("a", "p+", "?y")
            .unwrap()
            .contains(&("a".to_string(), "d".to_string())));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn facade_errors() {
        let db = RpqDatabase::from_text("a p b\n").unwrap();
        assert!(matches!(
            db.query("zzz", "p", "?y"),
            Err(DbError::UnknownNode(_))
        ));
        assert!(matches!(db.query("a", "p/(", "?y"), Err(DbError::Parse(_))));
        assert!(matches!(
            db.query("a", "nosuchpred", "?y"),
            Err(DbError::Parse(_))
        ));
        assert!(RpqDatabase::from_text("a b").is_err());
    }
}
