//! The ring index, as the RPQ algorithm reads it: the two wavelet-matrix
//! columns `L_s` and `L_p` plus the three boundary arrays, supporting the
//! `L_p → L_s` LF-step, range backward search and triple decoding (§3.4
//! and §4 of the paper). The paper's third column — the objects in
//! `(s, p, o)` order — is never read by §4's traversal and is not built,
//! stored or written; see the crate docs for what that gives up.

use std::sync::OnceLock;
use std::time::Instant;

use succinct::{SpaceUsage, WaveletMatrix};

use crate::graph::scatter;
use crate::{Boundaries, Graph, Id, Triple};

/// Representation of the node boundary arrays `C_s`/`C_o`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BoundaryKind {
    /// Plain cumulative word array (fastest, `(|V|+1)·8` bytes).
    Dense,
    /// Unary bit vector with select (§5 uses this for `C_o`).
    #[default]
    Sparse,
    /// Elias–Fano (most compact for large node sets).
    EliasFano,
}

/// Construction options for [`Ring::build`].
#[derive(Clone, Copy, Debug)]
pub struct RingOptions {
    /// Complete the graph with inverse edges `(o, p̂, s)`, `p̂ = p + |P|`,
    /// before indexing — required to evaluate 2RPQs (§5 "Index
    /// construction"). Doubles edges and predicates.
    pub with_inverses: bool,
    /// Representation of the node boundary arrays `C_s`/`C_o` (§5 uses a
    /// plain bitvector for `C_o`; `C_p` is always a dense array).
    pub node_boundaries: BoundaryKind,
}

impl Default for RingOptions {
    fn default() -> Self {
        Self {
            with_inverses: true,
            node_boundaries: BoundaryKind::Sparse,
        }
    }
}

/// The ring index over a (possibly completed) graph.
///
/// ```
/// use ring::{Graph, Ring, Triple};
/// use ring::ring::RingOptions;
///
/// // 0 --0--> 1 --1--> 2
/// let g = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 1, 2)]);
/// let ring = Ring::build(&g, RingOptions::default());
///
/// // Inverse edges are indexed: |G↔| = 2·|G|.
/// assert_eq!(ring.n_triples(), 4);
/// assert!(ring.contains(1, 1, 2));
/// assert!(ring.contains(2, ring.inverse_label(1), 1));
///
/// // Backward search: who reaches node 2 by label 1?
/// let mut sources = Vec::new();
/// ring.subjects_for(1, 2, &mut |s| sources.push(s));
/// assert_eq!(sources, vec![1]);
/// ```
#[derive(Clone, Debug)]
pub struct Ring {
    /// Subjects in `(p, o, s)` order.
    l_s: WaveletMatrix,
    /// Predicates in `(o, s, p)` order.
    l_p: WaveletMatrix,
    /// `C_s[s]` = triples with subject `< s` (the `(s, p, o)` order's
    /// partition: which nodes are subjects, and of how many triples).
    c_s: Boundaries,
    /// `C_p[p]` = triples with predicate `< p` (partitions `L_s`).
    c_p: Boundaries,
    /// `C_o[o]` = triples with object `< o` (partitions `L_p`).
    c_o: Boundaries,
    n: usize,
    n_nodes: Id,
    /// Completed predicate alphabet size (2·base when inverses are on).
    n_preds: Id,
    /// Base (non-inverse) predicate count.
    n_preds_base: Id,
    has_inverses: bool,
}

/// Where one [`Ring::build_timed`] call spent its time, phase by phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BuildTimings {
    /// [`Graph::completed`] (0 without inverses).
    pub completed_s: f64,
    /// Counting the symbols and deriving the `osp` and `pos` orders.
    pub order_s: f64,
    /// The two [`WaveletMatrix`] builds, summed over the columns: with
    /// threads they overlap, so the sum can exceed the wall time.
    pub wavelet_s: f64,
    /// The three boundary arrays, summed like `wavelet_s`.
    pub boundaries_s: f64,
    /// Threads the columns were built on (1: inline).
    pub threads: usize,
}

/// Completed-graph size from which the two columns are built on two
/// threads; below it a build takes a few milliseconds and a thread spawn
/// is a measurable share of that.
const THREADED_BUILD_MIN_TRIPLES: usize = 1 << 16;

impl Ring {
    /// Builds the ring for `graph` with the given options.
    ///
    /// The paper constructs the BWT with a suffix array; sorting the triple
    /// list in the three circular orders yields the identical columns: row
    /// `i` of the BWT matrix of §3.2 is the `i`-th triple in one of those
    /// orders. The graph is `(s, p, o)`-sorted already, so a stable
    /// counting sort by object gives the `(o, s, p)` order and one more by
    /// predicate the `(p, o, s)` order: `O(n + |V| + |P|)`, no comparison
    /// sort.
    ///
    /// # Panics
    /// Panics if a universe exceeds 2³² ids: the columns are built from
    /// 32-bit symbols (the per-id count arrays alone would take 32 GiB
    /// there).
    pub fn build(graph: &Graph, options: RingOptions) -> Self {
        Self::build_timed(graph, options).0
    }

    /// [`Self::build`], also reporting where the time went.
    pub fn build_timed(graph: &Graph, options: RingOptions) -> (Self, BuildTimings) {
        let n = graph.len() * if options.with_inverses { 2 } else { 1 };
        Self::build_on(graph, options, n >= THREADED_BUILD_MIN_TRIPLES)
    }

    /// [`Self::build_timed`] with the choice between two threads and the
    /// calling one made by the caller; both give the same ring.
    fn build_on(graph: &Graph, options: RingOptions, threaded: bool) -> (Self, BuildTimings) {
        let started = Instant::now();
        let completed;
        let g = if options.with_inverses {
            completed = graph.completed();
            &completed
        } else {
            graph
        };
        let completed_s = started.elapsed().as_secs_f64();
        let n = g.len();
        let n_nodes = g.n_nodes().max(1);
        let n_preds = g.n_preds().max(1);
        assert!(
            n_nodes <= 1 << 32 && n_preds <= 1 << 32,
            "ring universes are limited to 2^32 ids ({n_nodes} nodes, {n_preds} predicates)"
        );

        let started = Instant::now();
        let spo = g.triples();
        let mut subj_counts = vec![0u64; n_nodes as usize];
        let mut obj_counts = vec![0u64; n_nodes as usize];
        let mut pred_counts = vec![0u64; n_preds as usize];
        for t in spo {
            subj_counts[t.s as usize] += 1;
            obj_counts[t.o as usize] += 1;
            pred_counts[t.p as usize] += 1;
        }
        // `(s, p)` in `(o, s, p)` order, then `s` in `(p, o, s)` order.
        let osp = scatter(
            &obj_counts,
            spo.iter().map(|t| (t.o, (t.s as u32, t.p as u32))),
        );
        let l_p_syms: Vec<u32> = osp.iter().map(|&(_, p)| p).collect();
        let l_s_syms = scatter(&pred_counts, osp.iter().map(|&(s, p)| (Id::from(p), s)));
        drop(osp);
        let order_s = started.elapsed().as_secs_f64();

        // Each part with the seconds it took.
        let column = |symbols: Vec<u32>, sigma: Id| {
            let started = Instant::now();
            let wm = WaveletMatrix::from_u32_symbols(symbols, sigma);
            (wm, started.elapsed().as_secs_f64())
        };
        let bounds = |counts: &[u64], kind: BoundaryKind| {
            let started = Instant::now();
            let bounds = match kind {
                BoundaryKind::Dense => Boundaries::dense_from_counts(counts),
                BoundaryKind::Sparse => Boundaries::sparse_from_counts(counts),
                BoundaryKind::EliasFano => Boundaries::elias_fano_from_counts(counts),
            };
            (bounds, started.elapsed().as_secs_f64())
        };
        let nodes = options.node_boundaries;
        // `L_s` has a level per bit of a node id, `L_p` one per bit of a
        // predicate id: the shorter column's thread takes both node
        // boundary arrays.
        let build_l_s = || {
            let (l_s, wavelet_s) = column(l_s_syms, n_nodes);
            let (c_p, boundaries_s) = bounds(&pred_counts, BoundaryKind::Dense);
            (l_s, c_p, wavelet_s, boundaries_s)
        };
        let build_l_p = || {
            let (l_p, wavelet_s) = column(l_p_syms, n_preds);
            let (c_o, c_o_s) = bounds(&obj_counts, nodes);
            let (c_s, c_s_s) = bounds(&subj_counts, nodes);
            (l_p, c_o, c_s, wavelet_s, c_o_s + c_s_s)
        };
        let (s_side, p_side) = if threaded {
            std::thread::scope(|scope| {
                let s = scope.spawn(build_l_s);
                let p = build_l_p();
                (s.join().expect("the L_s builder panicked"), p)
            })
        } else {
            (build_l_s(), build_l_p())
        };
        let (l_s, c_p, s_wavelet_s, s_boundaries_s) = s_side;
        let (l_p, c_o, c_s, p_wavelet_s, p_boundaries_s) = p_side;
        let timings = BuildTimings {
            completed_s,
            order_s,
            wavelet_s: s_wavelet_s + p_wavelet_s,
            boundaries_s: s_boundaries_s + p_boundaries_s,
            threads: if threaded { 2 } else { 1 },
        };
        let ring = Self {
            l_s,
            l_p,
            c_s,
            c_p,
            c_o,
            n,
            n_nodes,
            n_preds,
            n_preds_base: graph.n_preds(),
            has_inverses: options.with_inverses,
        };
        (ring, timings)
    }

    /// Number of indexed triples (after completion, if enabled).
    pub fn n_triples(&self) -> usize {
        self.n
    }

    /// Node universe size.
    pub fn n_nodes(&self) -> Id {
        self.n_nodes
    }

    /// Completed predicate alphabet size.
    pub fn n_preds(&self) -> Id {
        self.n_preds
    }

    /// Base (pre-completion) predicate count.
    pub fn n_preds_base(&self) -> Id {
        self.n_preds_base
    }

    /// Whether inverse edges are indexed.
    pub fn has_inverses(&self) -> bool {
        self.has_inverses
    }

    /// The inversion involution `p ↔ p̂` over the completed alphabet.
    ///
    /// # Panics
    /// Panics if the ring was built without inverses.
    #[inline]
    pub fn inverse_label(&self, p: Id) -> Id {
        assert!(self.has_inverses, "ring built without inverse edges");
        if p < self.n_preds_base {
            p + self.n_preds_base
        } else {
            p - self.n_preds_base
        }
    }

    /// The wavelet matrix of `L_p` (predicates in `(o, s)` order).
    pub fn l_p(&self) -> &WaveletMatrix {
        &self.l_p
    }

    /// The wavelet matrix of `L_s` (subjects in `(p, o)` order).
    pub fn l_s(&self) -> &WaveletMatrix {
        &self.l_s
    }

    /// The column this index does not have: an empty matrix, shared by
    /// every ring. Kept only because the benchmark driver, which a PR
    /// claiming a gain may not edit, sizes it for
    /// `ring.l_o_bytes_per_triple`; owed to the next `[benchmark]` PR,
    /// which deletes the row and this accessor (ROADMAP item 1).
    #[doc(hidden)]
    pub fn l_o(&self) -> &WaveletMatrix {
        static EMPTY: OnceLock<WaveletMatrix> = OnceLock::new();
        EMPTY.get_or_init(|| WaveletMatrix::new(&[], 1))
    }

    /// The boundary array `C_s` (for persistence).
    pub fn c_s_ref(&self) -> &Boundaries {
        &self.c_s
    }

    /// The boundary array `C_p` (for persistence).
    pub fn c_p_ref(&self) -> &Boundaries {
        &self.c_p
    }

    /// The boundary array `C_o` (for persistence).
    pub fn c_o_ref(&self) -> &Boundaries {
        &self.c_o
    }

    /// Reassembles a ring from persisted parts. Intended for
    /// [`crate::mapped`]; the caller is responsible for consistency (the
    /// loader validates lengths, alphabets and totals).
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        l_s: WaveletMatrix,
        l_p: WaveletMatrix,
        c_s: Boundaries,
        c_p: Boundaries,
        c_o: Boundaries,
        n: usize,
        n_nodes: Id,
        n_preds: Id,
        n_preds_base: Id,
        has_inverses: bool,
    ) -> Self {
        Self {
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
        }
    }

    /// The block of object `o` in `L_p` — the starting range of the RPQ
    /// traversal (§4).
    #[inline]
    pub fn object_range(&self, o: Id) -> (usize, usize) {
        self.c_o.block(o)
    }

    /// The block of subject `s` in the `(s, p, o)` order: empty exactly
    /// when `s` is the subject of no triple.
    #[inline]
    pub fn subject_range(&self, s: Id) -> (usize, usize) {
        self.c_s.block(s)
    }

    /// The block of predicate `p` in `L_s`.
    #[inline]
    pub fn pred_range(&self, p: Id) -> (usize, usize) {
        self.c_p.block(p)
    }

    /// The whole of `L_p`: every triple, i.e. every object — the starting
    /// range of variable-to-variable queries (§4.4).
    #[inline]
    pub fn full_range(&self) -> (usize, usize) {
        (0, self.n)
    }

    /// The object owning position `i` of `L_p`.
    #[inline]
    pub fn object_of_lp_position(&self, i: usize) -> Id {
        self.c_o.owner(i)
    }

    /// `C_o[o]` (needed by part three of the traversal, §4.3).
    #[inline]
    pub fn c_o_get(&self, o: Id) -> usize {
        self.c_o.get(o)
    }

    /// Backward-search step by predicate (Eqs. 4–5): maps a range of `L_p`
    /// (triples grouped by object) to the range of `L_s` holding the
    /// subjects of those triples that carry predicate `p`.
    #[inline]
    pub fn backward_step_by_pred(&self, (b, e): (usize, usize), p: Id) -> (usize, usize) {
        let base = self.c_p.get(p);
        (base + self.l_p.rank(p, b), base + self.l_p.rank(p, e))
    }

    /// Batched [`Self::backward_step_by_pred`]: maps every range of
    /// `ranges` (over `L_p`) to its subject range in `L_s` in one pass,
    /// appending to `out`. All the ranges step by the *same* predicate, so
    /// the per-level node-start chain of the wavelet rank is shared across
    /// the batch ([`WaveletMatrix::rank_batch`]) — the LF-walk/backward-step
    /// helper the batched frontier expansion uses.
    pub fn backward_step_by_pred_multi(
        &self,
        ranges: &[(usize, usize)],
        p: Id,
        out: &mut Vec<(usize, usize)>,
    ) {
        let base = self.c_p.get(p);
        let mut pos: Vec<usize> = Vec::with_capacity(ranges.len() * 2);
        for &(b, e) in ranges {
            pos.push(b);
            pos.push(e);
        }
        self.l_p.rank_batch(p, &mut pos);
        out.extend(pos.chunks_exact(2).map(|c| (base + c[0], base + c[1])));
    }

    /// Backward-search step by subject: maps a range of `L_s` to the range
    /// of the `(s, p, o)` order holding those of its triples with subject
    /// `s`. No column is stored in that order, so nothing in this
    /// workspace takes the step; the benchmark driver times it
    /// (`ring.backward_step_subject_ns`), and the method goes when that
    /// row does (ROADMAP item 1).
    #[doc(hidden)]
    #[inline]
    pub fn backward_step_by_subject(&self, (b, e): (usize, usize), s: Id) -> (usize, usize) {
        let base = self.c_s.get(s);
        (base + self.l_s.rank(s, b), base + self.l_s.rank(s, e))
    }

    /// LF-step on `L_p` (Eq. 3): position of the triple at `L_p[i]` in `L_s`.
    #[inline]
    pub fn lf_p(&self, i: usize) -> usize {
        let c = self.l_p.access(i);
        self.c_p.get(c) + self.l_p.rank(c, i)
    }

    /// Decodes the triple referenced by position `i` of `L_p`, walking the
    /// ring as in the §3.4 example.
    pub fn triple_at_lp(&self, i: usize) -> Triple {
        let p = self.l_p.access(i);
        let o = self.c_o.owner(i);
        let s = self.l_s.access(self.lf_p(i));
        Triple::new(s, p, o)
    }

    /// Iterates all indexed triples (by scanning `L_p`; `O(n log σ)`,
    /// three cold root-to-leaf walks per triple). The per-position form
    /// of [`Self::decode_triples`], and the oracle its tests compare with.
    pub fn iter_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        (0..self.n).map(move |i| self.triple_at_lp(i))
    }

    /// Every indexed triple in `L_p` position order — what
    /// [`Self::iter_triples`] yields — or, with `base_only`, those with a
    /// base label (the graph the ring was built from, without its
    /// completion). Both columns are decoded in bulk
    /// ([`WaveletMatrix::decode_all`]); the object of a position is the
    /// `C_o` block it falls in, and its LF-step the next unread `L_s`
    /// position of its label's `C_p` block: a running counter per label,
    /// no rank.
    ///
    /// The arrays may come from a file: an error names the first way they
    /// contradict each other (a symbol outside its alphabet, a label with
    /// more occurrences than its block has room for).
    pub fn decode_triples(&self, base_only: bool) -> Result<Vec<Triple>, &'static str> {
        let l_p = self.l_p.decode_all();
        let l_s = self.l_s.decode_all();
        // Label `p` owns `L_s[bounds[p]..bounds[p + 1]]`; `next[p]` is the
        // first position of it not yet handed out.
        let bounds: Vec<usize> = (0..=self.n_preds).map(|p| self.c_p.get(p)).collect();
        let mut next = bounds.clone();
        let kept = if base_only && self.has_inverses {
            self.n_preds_base
        } else {
            self.n_preds
        };
        let mut triples = Vec::with_capacity(if kept < self.n_preds {
            self.n / 2
        } else {
            self.n
        });
        let mut i = 0;
        for o in 0..self.n_nodes {
            let end = self.c_o.get(o + 1).min(self.n);
            while i < end {
                let p = l_p[i];
                i += 1;
                if p >= self.n_preds {
                    return Err("L_p holds a label outside the alphabet");
                }
                let slot = &mut next[p as usize];
                if *slot >= bounds[p as usize + 1] {
                    return Err("a label occurs more often in L_p than C_p allows");
                }
                let s = l_s[*slot];
                *slot += 1;
                if s >= self.n_nodes {
                    return Err("L_s holds a node outside the universe");
                }
                if p < kept {
                    triples.push(Triple::new(s, p, o));
                }
            }
        }
        if i < self.n {
            return Err("C_o does not cover L_p");
        }
        Ok(triples)
    }

    /// Whether `(s, p, o)` is indexed: one backward step from `o`'s block
    /// by `p`, then whether `s` occurs in the subjects it reaches.
    pub fn contains(&self, s: Id, p: Id, o: Id) -> bool {
        if s >= self.n_nodes || p >= self.n_preds || o >= self.n_nodes {
            return false;
        }
        let (b, e) = self.backward_step_by_pred(self.object_range(o), p);
        self.l_s.rank(s, e) > self.l_s.rank(s, b)
    }

    /// Calls `f(s)` for each distinct subject with an edge `s --p--> o`.
    pub fn subjects_for(&self, p: Id, o: Id, f: &mut impl FnMut(Id)) {
        let r = self.backward_step_by_pred(self.object_range(o), p);
        self.l_s.range_distinct(r.0, r.1, &mut |s, _, _| f(s));
    }

    /// Number of edges labeled `p` (predicate cardinality; drives the
    /// query-planning heuristic of §5 "we choose to start from the end
    /// whose predicate has the smallest cardinality").
    #[inline]
    pub fn pred_cardinality(&self, p: Id) -> usize {
        let (b, e) = self.pred_range(p);
        e - b
    }

    /// Index size in bytes (Table 2 accounting), the same whether the
    /// arrays are on the heap or in a mapped file.
    pub fn size_bytes(&self) -> usize {
        self.l_s.size_bytes()
            + self.l_p.size_bytes()
            + self.c_s.size_bytes()
            + self.c_p.size_bytes()
            + self.c_o.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapped::stored_bytes;
    use succinct::util::BitSet;

    /// The paper's running example (Figs. 1 and 3), 0-based:
    /// nodes SA=0, UCh=1, LH=2, BA=3, Baq=4;
    /// predicates l1=0, l2=1, l5=2, bus=3, ^bus=4.
    /// The graph is pre-completed exactly as the paper does it (metro lines
    /// bidirectional as explicit edges; only `bus` gets `^bus` inverses).
    pub(crate) fn paper_graph() -> Graph {
        const SA: Id = 0;
        const UCH: Id = 1;
        const LH: Id = 2;
        const BA: Id = 3;
        const BAQ: Id = 4;
        const L1: Id = 0;
        const L2: Id = 1;
        const L5: Id = 2;
        const BUS: Id = 3;
        const BUSI: Id = 4;
        let t = |s, p, o| Triple::new(s, p, o);
        Graph::new(
            vec![
                // l1: Baq<->UCh, UCh<->LH
                t(BAQ, L1, UCH),
                t(UCH, L1, BAQ),
                t(UCH, L1, LH),
                t(LH, L1, UCH),
                // l2: LH<->SA
                t(LH, L2, SA),
                t(SA, L2, LH),
                // l5: SA<->BA, BA<->Baq
                t(SA, L5, BA),
                t(BA, L5, SA),
                t(BA, L5, BAQ),
                t(BAQ, L5, BA),
                // bus: SA->UCh, UCh->BA, BA->SA, with explicit inverses
                t(SA, BUS, UCH),
                t(UCH, BUS, BA),
                t(BA, BUS, SA),
                t(UCH, BUSI, SA),
                t(BA, BUSI, UCH),
                t(SA, BUSI, BA),
            ],
            5,
            5,
        )
    }

    fn paper_ring() -> Ring {
        Ring::build(
            &paper_graph(),
            RingOptions {
                with_inverses: false, // the fixture is already completed
                node_boundaries: BoundaryKind::Sparse,
            },
        )
    }

    /// Fig. 3: the exact contents of the two stored columns (converted to
    /// 0-based ids).
    #[test]
    fn fig3_columns() {
        let r = paper_ring();
        assert_eq!(r.n_triples(), 16);
        let col = |wm: &WaveletMatrix| (0..16).map(|i| wm.access(i)).collect::<Vec<_>>();
        // L_s (subjects in pos order).
        assert_eq!(
            col(r.l_s()),
            vec![2, 4, 1, 1, 2, 0, 3, 0, 4, 3, 3, 0, 1, 1, 3, 0]
        );
        // L_p (predicates in osp order).
        assert_eq!(
            col(r.l_p()),
            vec![4, 1, 2, 3, 3, 0, 4, 0, 1, 0, 2, 4, 3, 2, 0, 2]
        );
    }

    /// Fig. 3's C_o and the §3.4 worked example: the triple at (1-based)
    /// L_p[16] is BA --l5--> Baq, with LF_p(16) = 10.
    #[test]
    fn fig3_lf_walk() {
        let r = paper_ring();
        // C_o = [0,4,8,10,14,16]
        for (c, expected) in [0usize, 4, 8, 10, 14, 16].into_iter().enumerate() {
            assert_eq!(r.c_o_get(c as Id), expected, "C_o[{c}]");
        }
        // 0-based: position 15 of L_p.
        assert_eq!(r.l_p().access(15), 2); // l5
        assert_eq!(r.object_of_lp_position(15), 4); // Baq
        assert_eq!(r.lf_p(15), 9); // paper: LF_p(16) = 10
        assert_eq!(r.l_s().access(9), 3); // BA
        assert_eq!(r.triple_at_lp(15), Triple::new(3, 2, 4)); // BA --l5--> Baq
    }

    /// The §3.4 backward-search example: from L_p[11..14] (object BA,
    /// 1-based) by l5 we reach L_s[8..9] = ⟨SA, Baq⟩.
    #[test]
    fn fig3_backward_search() {
        let r = paper_ring();
        let ba_range = r.object_range(3);
        assert_eq!(ba_range, (10, 14)); // 1-based [11..14]
        let l5_sources = r.backward_step_by_pred(ba_range, 2);
        assert_eq!(l5_sources, (7, 9)); // 1-based [8..9]
        assert_eq!(r.l_s().access(7), 0); // SA
        assert_eq!(r.l_s().access(8), 4); // Baq
                                          // And by ^bus we reach L_s[16..16] = ⟨SA⟩.
        let busi_sources = r.backward_step_by_pred(ba_range, 4);
        assert_eq!(busi_sources, (15, 16));
        assert_eq!(r.l_s().access(15), 0); // SA
    }

    /// Fig. 4's worked example: on the wavelet structure of `L_p`,
    /// `rank_bus(L_p, 5) = 2` (1-based) and `C_p[bus] + 2 = LF_p(5) = 12`.
    #[test]
    fn fig4_wavelet_rank_walk() {
        let r = paper_ring();
        // 0-based: symbol 3 = bus (paper id 4), prefix of length 5.
        assert_eq!(r.l_p().rank(3, 5), 2);
        // C_p[bus] = 10 (l1:4 + l2:2 + l5:4); the tracked position is
        // LF_p(5) = 12, i.e. 0-based lf_p(4) = 11.
        assert_eq!(r.pred_range(3).0, 10);
        assert_eq!(r.l_p().access(4), 3);
        assert_eq!(r.lf_p(4), 11);
    }

    #[test]
    fn roundtrip_all_triples() {
        let g = paper_graph();
        let r = paper_ring();
        let mut decoded: Vec<Triple> = r.iter_triples().collect();
        decoded.sort_unstable();
        assert_eq!(decoded, g.triples());
        for t in g.triples() {
            assert!(r.contains(t.s, t.p, t.o), "{t}");
        }
        assert!(!r.contains(0, 0, 0));
        assert!(!r.contains(99, 0, 0));
    }

    /// The LF cycle, two columns long: from `L_p[i]` the LF-step lands on
    /// the triple's subject in `L_s`, inside the range the backward step
    /// from the triple's object by its predicate reaches — and on a
    /// different position for every `i`.
    #[test]
    fn lf_cycle_is_identity() {
        let r = paper_ring();
        let mut reached = BitSet::new(r.n_triples());
        for i in 0..r.n_triples() {
            let t = r.triple_at_lp(i);
            let j = r.lf_p(i);
            let (b, e) = r.backward_step_by_pred(r.object_range(t.o), t.p);
            assert!(b <= j && j < e, "LF from L_p position {i}");
            assert_eq!(r.l_s().access(j), t.s);
            assert!(!reached.get(j), "L_s position {j} reached twice");
            reached.set(j);
        }
    }

    /// The bulk decode on arrays that contradict each other — what a file
    /// with valid checksums may still hold — is an error, not a panic.
    #[test]
    fn bulk_decode_refuses_inconsistent_arrays() {
        let r = paper_ring();
        assert!(r
            .decode_triples(false)
            .unwrap()
            .into_iter()
            .eq(r.iter_triples()));
        // The same 16 triples, four labels' worth of room taken from `l1`.
        let shifted = Boundaries::dense_from_counts(&[0, 6, 4, 3, 3]);
        let bad = Ring::from_raw_parts(
            r.l_s.clone(),
            r.l_p.clone(),
            r.c_s.clone(),
            shifted,
            r.c_o.clone(),
            16,
            5,
            5,
            5,
            false,
        );
        let err = bad.decode_triples(false).unwrap_err();
        assert!(err.contains("more often"), "{err}");
        // An alphabet smaller than the symbols `L_p` holds.
        let narrow = Ring::from_raw_parts(
            r.l_s.clone(),
            r.l_p.clone(),
            r.c_s.clone(),
            Boundaries::dense_from_counts(&[4, 2, 4, 6]),
            r.c_o.clone(),
            16,
            5,
            4,
            4,
            false,
        );
        let err = narrow.decode_triples(false).unwrap_err();
        assert!(err.contains("outside the alphabet"), "{err}");
    }

    #[test]
    fn automatic_completion_inverse_labels() {
        let g = Graph::from_triples(vec![Triple::new(0, 0, 1), Triple::new(1, 1, 2)]);
        let r = Ring::build(&g, RingOptions::default());
        assert_eq!(r.n_triples(), 4);
        assert_eq!(r.n_preds(), 4);
        assert_eq!(r.n_preds_base(), 2);
        assert_eq!(r.inverse_label(0), 2);
        assert_eq!(r.inverse_label(3), 1);
        assert!(r.contains(1, 2, 0));
        assert!(r.contains(2, 3, 1));
    }

    #[test]
    fn batched_backward_steps_match_single() {
        let r = paper_ring();
        let ranges: Vec<(usize, usize)> = (0..5).map(|o| r.object_range(o)).collect();
        for p in 0..5 {
            let mut batched = Vec::new();
            r.backward_step_by_pred_multi(&ranges, p, &mut batched);
            let single: Vec<(usize, usize)> = ranges
                .iter()
                .map(|&rg| r.backward_step_by_pred(rg, p))
                .collect();
            assert_eq!(batched, single, "pred {p}");
        }
    }

    #[test]
    fn pattern_enumeration() {
        let r = paper_ring();
        // Subjects reaching BA (3) by l5 (2): SA (0) and Baq (4).
        let mut subs = Vec::new();
        r.subjects_for(2, 3, &mut |s| subs.push(s));
        assert_eq!(subs, vec![0, 4]);
        // Objects from UCh (1) by bus (3), through the inverse label ^bus
        // (4): BA (3).
        let mut objs = Vec::new();
        r.subjects_for(4, 1, &mut |o| objs.push(o));
        assert_eq!(objs, vec![3]);
        // Cardinalities: l1 has 4 edges, bus has 3.
        assert_eq!(r.pred_cardinality(0), 4);
        assert_eq!(r.pred_cardinality(3), 3);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_triples(vec![]);
        let r = Ring::build(&g, RingOptions::default());
        assert_eq!(r.n_triples(), 0);
        assert_eq!(r.full_range(), (0, 0));
        assert_eq!(r.iter_triples().count(), 0);
        assert!(!r.contains(0, 0, 0));
    }

    /// The builder this crate shipped before the counting sorts: the
    /// completion re-sorted, `pos` and `osp` by comparison sorts, the
    /// columns from 64-bit symbols.
    fn build_reference(graph: &Graph, options: RingOptions) -> Ring {
        let completed;
        let g = if options.with_inverses {
            let np = graph.n_preds();
            let mut all = graph.triples().to_vec();
            all.extend(
                graph
                    .triples()
                    .iter()
                    .map(|t| Triple::new(t.o, t.p + np, t.s)),
            );
            completed = Graph::new(all, graph.n_nodes(), np * 2);
            &completed
        } else {
            graph
        };
        let (n_nodes, n_preds) = (g.n_nodes().max(1), g.n_preds().max(1));
        let spo = g.triples();
        let mut pos = spo.to_vec();
        pos.sort_unstable_by_key(Triple::pos_key);
        let mut osp = spo.to_vec();
        osp.sort_unstable_by_key(Triple::osp_key);
        let column = |ts: &[Triple], sym: fn(&Triple) -> Id, sigma: Id| {
            WaveletMatrix::new(&ts.iter().map(sym).collect::<Vec<_>>(), sigma)
        };
        let bounds = |kind: BoundaryKind, universe: Id, sym: fn(&Triple) -> Id| {
            let mut counts = vec![0u64; universe as usize];
            for t in spo {
                counts[sym(t) as usize] += 1;
            }
            match kind {
                BoundaryKind::Dense => Boundaries::dense_from_counts(&counts),
                BoundaryKind::Sparse => Boundaries::sparse_from_counts(&counts),
                BoundaryKind::EliasFano => Boundaries::elias_fano_from_counts(&counts),
            }
        };
        Ring::from_raw_parts(
            column(&pos, |t| t.s, n_nodes),
            column(&osp, |t| t.p, n_preds),
            bounds(options.node_boundaries, n_nodes, |t| t.s),
            bounds(BoundaryKind::Dense, n_preds, |t| t.p),
            bounds(options.node_boundaries, n_nodes, |t| t.o),
            g.len(),
            n_nodes,
            n_preds,
            graph.n_preds(),
            options.with_inverses,
        )
    }

    /// Threaded or inline, the build writes the file the comparison-sort
    /// builder wrote, for every boundary kind with and without inverses.
    #[test]
    fn every_build_path_saves_the_reference_bytes() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        // 300 nodes (some isolated), 7 predicates of which one unused.
        let triples: Vec<Triple> = (0..4000)
            .map(|_| Triple::new(next(290), next(6), next(290) / (1 + next(3))))
            .collect();
        let graphs = [
            Graph::new(triples, 300, 7),
            Graph::new(vec![Triple::new(2, 0, 2)], 3, 1),
            Graph::from_triples(vec![]),
        ];
        for (g, graph) in graphs.iter().enumerate() {
            for kind in [
                BoundaryKind::Dense,
                BoundaryKind::Sparse,
                BoundaryKind::EliasFano,
            ] {
                for with_inverses in [false, true] {
                    let options = RingOptions {
                        with_inverses,
                        node_boundaries: kind,
                    };
                    let reference = stored_bytes(&build_reference(graph, options));
                    for threaded in [false, true] {
                        let (ring, timings) = Ring::build_on(graph, options, threaded);
                        assert_eq!(timings.threads, if threaded { 2 } else { 1 });
                        assert!(
                            stored_bytes(&ring) == reference,
                            "graph {g}, {kind:?}, inverses {with_inverses}, threaded {threaded}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dense_and_sparse_boundaries_agree() {
        let g = paper_graph();
        let sparse = paper_ring();
        for kind in [BoundaryKind::Dense, BoundaryKind::EliasFano] {
            let other = Ring::build(
                &g,
                RingOptions {
                    with_inverses: false,
                    node_boundaries: kind,
                },
            );
            for o in 0..=5 {
                assert_eq!(other.c_o_get(o), sparse.c_o_get(o), "{kind:?}");
            }
            for i in 0..16 {
                assert_eq!(
                    other.object_of_lp_position(i),
                    sparse.object_of_lp_position(i)
                );
                assert_eq!(other.lf_p(i), sparse.lf_p(i));
            }
        }
    }
}
