//! A pragmatic N-Triples reader/writer, so RDF dumps (the paper's input
//! format: Wikidata truthy dumps) load directly.
//!
//! Supported per line: `<subject-iri> <predicate-iri> <object> .` where
//! the object is an IRI, a blank node (`_:label`), or a literal
//! (`"lexical"`, `"lexical"@lang`, `"lexical"^^<datatype>`), with the
//! standard `\" \\ \n \t \r` escapes inside literals. Comments (`#`) and
//! blank lines are skipped. This is the fragment Wikidata truthy dumps
//! use; full W3C conformance (UCHAR escapes et al.) is out of scope and
//! rejected with a clear error rather than mis-parsed.
//!
//! # One scanner over borrowed bytes
//!
//! Text becomes ids in one pass over a chunk's `&[u8]` (`scan`): a line
//! is found, checked to be UTF-8, and cut into three terms, and a term's
//! dictionary key — `<iri>`, `_:label`, `"lexical"`, `"lexical"@lang`,
//! `"lexical"^^<datatype>` — *is* the span of the line that holds it,
//! handed to the dictionary as it lies there. Only a literal with a
//! backslash is copied, unescaped, into a buffer the scan reuses. Nothing
//! is allocated per term or per line. Node names are looked up a block
//! of lines at a time (`Dict::intern_many`: the table slots of a block
//! are fetched side by side, not one cache miss after another), in line
//! order, so ids are those of interning term by term.
//!
//! [`parse_ntriples`] scans into the dictionaries it returns;
//! [`parse_ntriples_chunk`] scans into the chunk-local dictionaries of
//! an [`NtChunk`], which [`merge_chunk`] folds into global ones, again a
//! block of names at a time — the unit of the chunk-parallel loader.
//!
//! The accepted language, the error texts and their line numbers are
//! those of the term-by-term `String` parser this replaced, which
//! survives as the `#[cfg(test)]` reference the scanner is held to.

use crate::{Dict, Graph, Id, Triple};

/// A parse failure with its line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NtError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for NtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N-Triples error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for NtError {}

/// The scan of one slice of an N-Triples document, with **chunk-local**
/// dictionaries: the triples' ids index `nodes`/`preds`, which hold the
/// dictionary keys in first-appearance order within the chunk.
///
/// Chunks are the unit of parse parallelism: workers scan disjoint
/// line ranges independently, and [`merge_chunk`] folds the results into
/// global dictionaries **in chunk order** — because each name's global
/// id is assigned at its first appearance, and that appearance lives in
/// the first chunk mentioning it (where it also appears first in the
/// local order), the merged ids are bit-identical to a sequential parse
/// of the whole document.
#[derive(Debug, Default)]
pub struct NtChunk {
    /// Parsed triples as `(subject, predicate, object)` local ids.
    pub triples: Vec<(u32, u32, u32)>,
    /// Node dictionary of the chunk.
    pub nodes: Dict,
    /// Predicate dictionary of the chunk.
    pub preds: Dict,
    /// Lines the slice holds, a last one without its newline included:
    /// where the next chunk's line numbers start.
    pub lines: usize,
}

/// Scans a slice of an N-Triples document whose first line is line
/// `first_line` (1-based) of the whole document, so errors carry
/// absolute positions even when the document is streamed in chunks.
/// The slice need not be UTF-8: a line that is not is an error at that
/// line, like any other.
pub fn parse_ntriples_chunk(bytes: &[u8], first_line: usize) -> Result<NtChunk, NtError> {
    let mut chunk = NtChunk::default();
    chunk.lines = scan(
        bytes,
        first_line,
        &mut chunk.nodes,
        &mut chunk.preds,
        // A chunk's ids fit: a dictionary holds at most 2^31 names.
        |s, p, o| chunk.triples.push((s as u32, p as u32, o as u32)),
    )?;
    Ok(chunk)
}

/// Folds one chunk into the global dictionaries and triple list. Chunks
/// must be merged in document order for the id assignment to match a
/// sequential parse (see [`NtChunk`]).
pub fn merge_chunk(chunk: &NtChunk, nodes: &mut Dict, preds: &mut Dict, out: &mut Vec<Triple>) {
    let node_ids = nodes.intern_all(&chunk.nodes);
    let pred_ids = preds.intern_all(&chunk.preds);
    out.extend(chunk.triples.iter().map(|&(s, p, o)| {
        Triple::new(
            node_ids[s as usize],
            pred_ids[p as usize],
            node_ids[o as usize],
        )
    }));
}

/// Parses an N-Triples document into a graph plus node and predicate
/// dictionaries (keys in N-Triples syntax, a literal's lexical form
/// unescaped; IRIs keep their brackets so they cannot collide with
/// literals or blanks).
pub fn parse_ntriples(text: &str) -> Result<(Graph, Dict, Dict), NtError> {
    let mut nodes = Dict::new();
    let mut preds = Dict::new();
    let mut triples = Vec::new();
    scan(text.as_bytes(), 1, &mut nodes, &mut preds, |s, p, o| {
        triples.push(Triple::new(s, p, o))
    })?;
    let g = Graph::new(triples, nodes.len() as Id, preds.len() as Id);
    Ok((g, nodes, preds))
}

/// Serializes a graph back to N-Triples using the dictionaries.
/// Dictionary keys are in N-Triples syntax except for a literal's
/// lexical form, which they hold unescaped: `\" \\ \n \t \r` are put
/// back inside the quotes, so the output parses to the same names.
pub fn to_ntriples(graph: &Graph, nodes: &Dict, preds: &Dict) -> String {
    let mut out = String::new();
    for t in graph.triples() {
        push_term(&mut out, nodes.name(t.s));
        out.push(' ');
        push_term(&mut out, preds.name(t.p));
        out.push(' ');
        push_term(&mut out, nodes.name(t.o));
        out.push_str(" .\n");
    }
    out
}

/// Whether `suffix` is what may follow a literal's closing quote: nothing,
/// `@lang` or `^^<datatype>`, as [`Cursor::term`] reads them.
fn is_literal_suffix(suffix: &str) -> bool {
    if let Some(lang) = suffix.strip_prefix('@') {
        !lang.is_empty() && !lang.contains(char::is_whitespace)
    } else if let Some(rest) = suffix.strip_prefix("^^<") {
        rest.find('>').is_some_and(|at| at + 1 == rest.len())
    } else {
        suffix.is_empty()
    }
}

/// Appends the dictionary key `key` as N-Triples text.
fn push_term(out: &mut String, key: &str) {
    // A literal's key is `"` lexical `"` suffix. The lexical form may hold
    // quotes itself: its closing quote is the last one with a suffix
    // behind it (any such split reads back as this key).
    let close = key.strip_prefix('"').and_then(|body| {
        body.rmatch_indices('"')
            .map(|(at, _)| at)
            .find(|&at| is_literal_suffix(&body[at + 1..]))
    });
    let Some(close) = close else {
        out.push_str(key);
        return;
    };
    let (lexical, rest) = key[1..].split_at(close);
    out.push('"');
    for c in lexical.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push_str(rest);
}

/// Index of the first `needle` in `hay`, eight bytes a step.
fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut words = hay.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        // A byte of `x` is zero where `word` holds the needle; the test
        // flags every zero byte and, above the lowest one only, possibly
        // others.
        let x = word ^ (LOW * needle as u64);
        let zeros = x.wrapping_sub(LOW) & !x & HIGH;
        if zeros != 0 {
            return Some(at + (zeros.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    let rest = words.remainder();
    rest.iter().position(|&b| b == needle).map(|i| at + i)
}

/// `char::is_whitespace` on an ASCII byte.
fn is_ascii_ws(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Length of the stretch of `s` before its first whitespace character.
fn until_ws(s: &str) -> usize {
    s.find(char::is_whitespace).unwrap_or(s.len())
}

/// What kind of RDF term a scanned term is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Iri,
    Blank,
    Literal,
}

/// One scanned term: its kind and the span of the line it takes. The
/// span is its dictionary key too, unless it is a literal that held a
/// backslash (`escaped`): that key is in the unescape buffer.
struct Term {
    kind: Kind,
    span: std::ops::Range<usize>,
    escaped: bool,
}

/// The scanner's place in one (trimmed, non-empty) line.
struct Cursor<'a> {
    line: &'a str,
    pos: usize,
    lineno: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, msg: impl Into<String>) -> NtError {
        NtError {
            line: self.lineno,
            msg: msg.into(),
        }
    }

    /// Skips whitespace (`char::is_whitespace`, like `str::trim_start`).
    fn skip_ws(&mut self) {
        let bytes = self.line.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if is_ascii_ws(b) {
                self.pos += 1;
            } else if b < 0x80 {
                return;
            } else {
                let rest = &self.line[self.pos..];
                self.pos += rest.len() - rest.trim_start().len();
                return;
            }
        }
    }

    /// Scans the term at the cursor. The key of a literal that holds an
    /// escape is left in `unescaped` (overwriting what was there).
    fn term(&mut self, unescaped: &mut String) -> Result<Term, NtError> {
        self.skip_ws();
        let start = self.pos;
        let rest = &self.line[start..];
        let bytes = rest.as_bytes();
        let (kind, len) = match bytes.first() {
            None => return Err(self.err("unexpected end of line")),
            Some(b'<') => {
                let end = find_byte(bytes, b'>').ok_or_else(|| self.err("unterminated IRI"))?;
                if bytes[1..end].contains(&b' ') {
                    return Err(self.err("IRI contains whitespace"));
                }
                (Kind::Iri, end + 1)
            }
            Some(b'_') => {
                if bytes.get(1) != Some(&b':') {
                    return Err(self.err("blank node must start with '_:'"));
                }
                let label = until_ws(&rest[2..]);
                if label == 0 {
                    return Err(self.err("empty blank node label"));
                }
                (Kind::Blank, 2 + label)
            }
            Some(b'"') => return self.literal(unescaped),
            Some(_) => {
                let c = rest.chars().next().expect("the rest is not empty");
                return Err(self.err(format!("unexpected character '{c}'")));
            }
        };
        self.pos = start + len;
        Ok(Term {
            kind,
            span: start..self.pos,
            escaped: false,
        })
    }

    /// Scans the literal whose opening quote the cursor is at.
    fn literal(&mut self, unescaped: &mut String) -> Result<Term, NtError> {
        let start = self.pos;
        let bytes = self.line.as_bytes();
        // Where the stretch not yet copied to `unescaped` begins, once an
        // escape has been seen. (`"` and `\` are ASCII, so a byte scan
        // cannot stop inside a multi-byte character.)
        let mut pending: Option<usize> = None;
        let mut i = start + 1;
        loop {
            match bytes.get(i) {
                None => return Err(self.err("unterminated literal")),
                Some(b'"') => break,
                Some(b'\\') => {
                    let from = pending.unwrap_or_else(|| {
                        unescaped.clear();
                        start
                    });
                    unescaped.push_str(&self.line[from..i]);
                    unescaped.push(match bytes.get(i + 1) {
                        None => return Err(self.err("dangling escape")),
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(_) => {
                            let other = self.line[i + 1..]
                                .chars()
                                .next()
                                .expect("a byte follows the backslash");
                            return Err(self.err(format!("unsupported escape '\\{other}'")));
                        }
                    });
                    i += 2;
                    pending = Some(i);
                }
                Some(_) => i += 1,
            }
        }
        // Optional @lang or ^^<datatype> behind the closing quote.
        let after = &self.line[i + 1..];
        let suffix = if let Some(lang) = after.strip_prefix('@') {
            let end = until_ws(lang);
            if end == 0 {
                return Err(self.err("empty language tag"));
            }
            1 + end
        } else if let Some(datatype) = after.strip_prefix("^^<") {
            let end = datatype
                .find('>')
                .ok_or_else(|| self.err("unterminated datatype IRI"))?;
            3 + end + 1
        } else {
            0
        };
        self.pos = i + 1 + suffix;
        if let Some(from) = pending {
            unescaped.push_str(&self.line[from..self.pos]);
        }
        Ok(Term {
            kind: Kind::Literal,
            span: start..self.pos,
            escaped: pending.is_some(),
        })
    }
}

/// Triples whose node names wait to be interned. Looking names up a block
/// at a time ([`Dict::intern_many`]) lets the cache misses of a block
/// overlap; ids still go out in line order, so they are those of
/// interning term by term.
#[derive(Default)]
struct Pending<'a> {
    /// The node names of the waiting lines, in line order: subject (unless
    /// it is the subject of the line before), then object.
    names: Vec<&'a str>,
    /// Per waiting line: its subject's place in `names`, its predicate's
    /// id, its object's place in `names`.
    triples: Vec<(usize, Id, usize)>,
    /// The ids of `names` as of the last [`Self::flush`].
    ids: Vec<Id>,
}

impl Pending<'_> {
    /// Names that make a block.
    const BLOCK: usize = 256;

    /// Interns the waiting names and emits the waiting triples.
    fn flush(&mut self, nodes: &mut Dict, emit: &mut impl FnMut(Id, Id, Id)) {
        self.ids.clear();
        nodes.intern_many(&self.names, &mut self.ids);
        for &(s, p, o) in &self.triples {
            emit(self.ids[s], p, self.ids[o]);
        }
        self.names.clear();
        self.triples.clear();
    }
}

/// The one scanner: walks `bytes` line by line, interns every triple's
/// terms into `nodes`/`preds` and hands the three ids to `emit`; returns
/// the number of lines walked. `first_line` is the (1-based) number of
/// the first line, for error positions.
fn scan(
    bytes: &[u8],
    first_line: usize,
    nodes: &mut Dict,
    preds: &mut Dict,
    mut emit: impl FnMut(Id, Id, Id),
) -> Result<usize, NtError> {
    let mut unescaped = String::new();
    let mut pending = Pending::default();
    let mut lines = 0;
    let mut rest = bytes;
    while !rest.is_empty() {
        let (raw, tail) = match find_byte(rest, b'\n') {
            Some(end) => (&rest[..end], &rest[end + 1..]),
            None => (rest, &rest[rest.len()..]),
        };
        rest = tail;
        let lineno = first_line + lines;
        lines += 1;
        let line = std::str::from_utf8(raw)
            .map_err(|_| NtError {
                line: lineno,
                msg: "input is not valid UTF-8".into(),
            })?
            .trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cur = Cursor {
            line,
            pos: 0,
            lineno,
        };
        let s = cur.term(&mut unescaped)?;
        let p = cur.term(&mut unescaped)?;
        let o = cur.term(&mut unescaped)?;
        cur.skip_ws();
        if line.as_bytes().get(cur.pos) != Some(&b'.') {
            return Err(cur.err("expected terminating '.'"));
        }
        cur.pos += 1;
        cur.skip_ws();
        if cur.pos != line.len() {
            return Err(cur.err("trailing content after '.'"));
        }
        if s.kind == Kind::Literal {
            return Err(cur.err("literal in subject position"));
        }
        if p.kind != Kind::Iri {
            return Err(cur.err("predicate must be an IRI"));
        }
        // A dump lists a subject's triples together: a line with the
        // subject of the waiting line before it shares that line's name.
        let subject = &line[s.span];
        let s_at = match pending.triples.last() {
            Some(&(at, ..)) if pending.names[at] == subject => at,
            _ => {
                pending.names.push(subject);
                pending.names.len() - 1
            }
        };
        let p_id = preds.intern(&line[p.span]);
        if o.escaped {
            // Subject and predicate are no literals, so the buffer holds
            // the object's key; it is interned behind all that waits.
            pending.flush(nodes, &mut emit);
            emit(pending.ids[s_at], p_id, nodes.intern(&unescaped));
            continue;
        }
        pending.names.push(&line[o.span]);
        pending.triples.push((s_at, p_id, pending.names.len() - 1));
        if pending.names.len() >= Pending::BLOCK {
            pending.flush(nodes, &mut emit);
        }
    }
    pending.flush(nodes, &mut emit);
    Ok(lines)
}

/// The term-by-term `String` parser the scanner replaced, kept as the
/// reference [`scan`] is held to: same triples, same names in the same
/// id order, or the same error at the same line.
#[cfg(test)]
mod reference {
    use super::NtError;
    use std::collections::HashMap;

    /// One parsed RDF term, still as text.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum NtTerm {
        /// `<iri>` (stored without the brackets).
        Iri(String),
        /// `_:label`.
        Blank(String),
        /// A literal with optional language tag or datatype IRI.
        Literal {
            /// The unescaped lexical form.
            lexical: String,
            /// `@lang`, if present.
            lang: Option<String>,
            /// `^^<datatype>`, if present.
            datatype: Option<String>,
        },
    }

    impl NtTerm {
        /// A canonical dictionary key for the term (IRIs keep brackets so
        /// they cannot collide with literals or blanks).
        pub fn dict_key(&self) -> String {
            match self {
                NtTerm::Iri(i) => format!("<{i}>"),
                NtTerm::Blank(b) => format!("_:{b}"),
                NtTerm::Literal {
                    lexical,
                    lang,
                    datatype,
                } => {
                    let mut s = format!("\"{lexical}\"");
                    if let Some(l) = lang {
                        s.push('@');
                        s.push_str(l);
                    } else if let Some(d) = datatype {
                        s.push_str("^^<");
                        s.push_str(d);
                        s.push('>');
                    }
                    s
                }
            }
        }
    }

    /// Triples over first-appearance ids, then the node and the predicate
    /// keys in id order.
    pub type Parsed = (Vec<(u32, u32, u32)>, Vec<String>, Vec<String>);

    fn intern_local(map: &mut HashMap<String, u32>, names: &mut Vec<String>, key: String) -> u32 {
        if let Some(&id) = map.get(&key) {
            return id;
        }
        let id = names.len() as u32;
        names.push(key.clone());
        map.insert(key, id);
        id
    }

    pub fn parse(text: &str, first_line: usize) -> Result<Parsed, NtError> {
        let (mut triples, mut nodes, mut preds) = Parsed::default();
        let mut node_map = HashMap::new();
        let mut pred_map = HashMap::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = first_line + i;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut p = Cursor { rest: line, lineno };
            let s = p.term()?;
            let pr = p.term()?;
            let o = p.term()?;
            p.skip_ws();
            if !p.rest.starts_with('.') {
                return Err(p.err("expected terminating '.'"));
            }
            p.rest = &p.rest[1..];
            p.skip_ws();
            if !p.rest.is_empty() {
                return Err(p.err("trailing content after '.'"));
            }
            if matches!(s, NtTerm::Literal { .. }) {
                return Err(p.err("literal in subject position"));
            }
            let NtTerm::Iri(_) = pr else {
                return Err(p.err("predicate must be an IRI"));
            };
            triples.push((
                intern_local(&mut node_map, &mut nodes, s.dict_key()),
                intern_local(&mut pred_map, &mut preds, pr.dict_key()),
                intern_local(&mut node_map, &mut nodes, o.dict_key()),
            ));
        }
        Ok((triples, nodes, preds))
    }

    struct Cursor<'a> {
        rest: &'a str,
        lineno: usize,
    }

    impl Cursor<'_> {
        fn err(&self, msg: impl Into<String>) -> NtError {
            NtError {
                line: self.lineno,
                msg: msg.into(),
            }
        }

        fn skip_ws(&mut self) {
            self.rest = self.rest.trim_start();
        }

        fn term(&mut self) -> Result<NtTerm, NtError> {
            self.skip_ws();
            let mut chars = self.rest.chars();
            match chars.next() {
                Some('<') => {
                    let end = self
                        .rest
                        .find('>')
                        .ok_or_else(|| self.err("unterminated IRI"))?;
                    let iri = self.rest[1..end].to_string();
                    if iri.contains(' ') {
                        return Err(self.err("IRI contains whitespace"));
                    }
                    self.rest = &self.rest[end + 1..];
                    Ok(NtTerm::Iri(iri))
                }
                Some('_') => {
                    if !self.rest.starts_with("_:") {
                        return Err(self.err("blank node must start with '_:'"));
                    }
                    let body = &self.rest[2..];
                    let end = body.find(|c: char| c.is_whitespace()).unwrap_or(body.len());
                    if end == 0 {
                        return Err(self.err("empty blank node label"));
                    }
                    let label = body[..end].to_string();
                    self.rest = &body[end..];
                    Ok(NtTerm::Blank(label))
                }
                Some('"') => {
                    let (lexical, consumed) = self.unescape_literal()?;
                    self.rest = &self.rest[consumed..];
                    // Optional @lang or ^^<datatype>.
                    if let Some(stripped) = self.rest.strip_prefix('@') {
                        let end = stripped
                            .find(|c: char| c.is_whitespace())
                            .unwrap_or(stripped.len());
                        if end == 0 {
                            return Err(self.err("empty language tag"));
                        }
                        let lang = stripped[..end].to_string();
                        self.rest = &stripped[end..];
                        Ok(NtTerm::Literal {
                            lexical,
                            lang: Some(lang),
                            datatype: None,
                        })
                    } else if let Some(stripped) = self.rest.strip_prefix("^^<") {
                        let end = stripped
                            .find('>')
                            .ok_or_else(|| self.err("unterminated datatype IRI"))?;
                        let dt = stripped[..end].to_string();
                        self.rest = &stripped[end + 1..];
                        Ok(NtTerm::Literal {
                            lexical,
                            lang: None,
                            datatype: Some(dt),
                        })
                    } else {
                        Ok(NtTerm::Literal {
                            lexical,
                            lang: None,
                            datatype: None,
                        })
                    }
                }
                Some(c) => Err(self.err(format!("unexpected character '{c}'"))),
                None => Err(self.err("unexpected end of line")),
            }
        }

        /// Unescapes the quoted literal at the start of `rest` (which
        /// begins with `"`); returns the lexical form and bytes consumed.
        fn unescape_literal(&self) -> Result<(String, usize), NtError> {
            let bytes = self.rest.as_bytes();
            debug_assert_eq!(bytes[0], b'"');
            let mut out = String::new();
            let mut i = 1;
            let chars: Vec<char> = self.rest.chars().collect();
            let mut byte_pos = 1;
            while i < chars.len() {
                let c = chars[i];
                match c {
                    '"' => return Ok((out, byte_pos + 1)),
                    '\\' => {
                        let esc = chars
                            .get(i + 1)
                            .ok_or_else(|| self.err("dangling escape"))?;
                        let decoded = match esc {
                            '"' => '"',
                            '\\' => '\\',
                            'n' => '\n',
                            't' => '\t',
                            'r' => '\r',
                            other => {
                                return Err(self.err(format!("unsupported escape '\\{other}'")))
                            }
                        };
                        out.push(decoded);
                        byte_pos += c.len_utf8() + esc.len_utf8();
                        i += 2;
                    }
                    _ => {
                        out.push(c);
                        byte_pos += c.len_utf8();
                        i += 1;
                    }
                }
            }
            Err(self.err("unterminated literal"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_wikidata_like_lines() {
        let text = r#"
# a comment
<http://wd/Q42> <http://wd/P31> <http://wd/Q5> .
<http://wd/Q42> <http://wd/label> "Douglas Adams"@en .
<http://wd/Q42> <http://wd/P569> "1952-03-11"^^<http://www.w3.org/2001/XMLSchema#date> .
_:b0 <http://wd/P31> <http://wd/Q5> .
"#;
        let (g, nodes, preds) = parse_ntriples(text).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(preds.len(), 3);
        assert!(nodes.get("<http://wd/Q42>").is_some());
        assert!(nodes.get("\"Douglas Adams\"@en").is_some());
        assert!(nodes.get("_:b0").is_some());
        assert!(nodes
            .get("\"1952-03-11\"^^<http://www.w3.org/2001/XMLSchema#date>")
            .is_some());
    }

    #[test]
    fn escapes_roundtrip() {
        let text = r#"<a> <p> "line\nbreak \"quoted\" tab\t" ."#;
        let (g, nodes, _) = parse_ntriples(text).unwrap();
        assert_eq!(g.len(), 1);
        let key = nodes.name(g.triples()[0].o);
        assert!(key.contains('\n'), "{key:?}");
        assert!(key.contains("\"quoted\""), "{key:?}");
    }

    #[test]
    fn serialization_roundtrips() {
        let text = concat!(
            "<a> <p> <b> .\n<b> <q> \"x\"@fr .\n",
            r#"<a> <p> "line\nbreak \"quoted\" tab\t" ."#,
            "\n",
            r#"<a> <p> "back\\slash and \r"@en-GB ."#,
            "\n",
            r#"<a> <q> "1952-03-11"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
            "\n",
            r#"_:b0 <q> "say \"hi\""^^<http://example.org/quoted> ."#,
            "\n",
            // Quotes behind the closing quote: the writer must not take
            // them for it.
            r#"<a> <q> "x"@en"y ."#,
            "\n",
            r#"<a> <q> "x"^^<d"t> ."#,
            "\n",
        );
        let (g, nodes, preds) = parse_ntriples(text).unwrap();
        assert_eq!(g.len(), 8);
        let out = to_ntriples(&g, &nodes, &preds);
        let (g2, nodes2, preds2) = parse_ntriples(&out).unwrap();
        // Same triples under the same names (ids follow the output's
        // order, which is the graph's, not the input's).
        let named = |g: &Graph, nodes: &Dict, preds: &Dict| -> Vec<(String, String, String)> {
            g.triples()
                .iter()
                .map(|t| {
                    (
                        nodes.name(t.s).to_string(),
                        preds.name(t.p).to_string(),
                        nodes.name(t.o).to_string(),
                    )
                })
                .collect()
        };
        let mut before = named(&g, &nodes, &preds);
        let mut after = named(&g2, &nodes2, &preds2);
        before.sort();
        after.sort();
        assert_eq!(before, after);
        assert_eq!((nodes.len(), preds.len()), (nodes2.len(), preds2.len()));
        assert!(nodes2.get("\"line\nbreak \"quoted\" tab\t\"").is_some());
        // A key that is no literal the parser could have produced is
        // written as it is.
        let mut out = String::new();
        push_term(&mut out, "\"no closing quote");
        push_term(&mut out, "\"x\"^^<");
        assert_eq!(out, "\"no closing quote\"x\"^^<");
    }

    /// Malformed documents and the line their error is on.
    const MALFORMED: [(usize, &str); 7] = [
        (1, "<a> <p> <b>"),                 // missing dot
        (1, "<a> <p> ."),                   // missing object
        (1, "\"lit\" <p> <b> ."),           // literal subject
        (1, "<a> _:b <c> ."),               // blank predicate
        (1, "<a> <p> \"unterminated ."),    // bad literal
        (1, "<a> <p> \"bad\\x\" ."),        // bad escape
        (2, "<a> <p> <b> .\n<a> <p <b> ."), // unterminated IRI
    ];

    #[test]
    fn malformed_lines_rejected_with_position() {
        for (line, text) in MALFORMED {
            let err = parse_ntriples(text).unwrap_err();
            assert_eq!(err.line, line, "for {text:?}: {err}");
        }
    }

    #[test]
    fn queryable_end_to_end() {
        use crate::ring::RingOptions;
        let text = "<a> <p> <b> .\n<b> <p> <c> .\n";
        let (g, nodes, preds) = parse_ntriples(text).unwrap();
        let ring = crate::Ring::build(&g, RingOptions::default());
        let p = preds.get("<p>").unwrap();
        let a = nodes.get("<a>").unwrap();
        let mut objs = Vec::new();
        ring.subjects_for(ring.inverse_label(p), a, &mut |o| objs.push(o));
        assert_eq!(objs, vec![nodes.get("<b>").unwrap()]);
    }

    // ---- the scanner against the parser it replaced ----

    /// What a parse comes to: triples over first-appearance ids plus the
    /// node and predicate names in id order, or the error's line and text.
    type Outcome = Result<reference::Parsed, (usize, String)>;

    fn scanned(bytes: &[u8], first_line: usize) -> Outcome {
        let names = |d: &Dict| d.iter().map(|(_, n)| n.to_string()).collect::<Vec<_>>();
        match parse_ntriples_chunk(bytes, first_line) {
            Ok(chunk) => {
                if let Ok(text) = std::str::from_utf8(bytes) {
                    assert_eq!(chunk.lines, text.lines().count(), "lines of {text:?}");
                }
                Ok((chunk.triples, names(&chunk.nodes), names(&chunk.preds)))
            }
            Err(e) => Err((e.line, e.msg)),
        }
    }

    /// Holds the scanner to the reference on `text`, and `parse_ntriples`
    /// (the same scan, into the dictionaries it returns) to both.
    fn assert_same(text: &str, first_line: usize) {
        let expected: Outcome = reference::parse(text, first_line).map_err(|e| (e.line, e.msg));
        assert_eq!(
            scanned(text.as_bytes(), first_line),
            expected,
            "on {text:?}"
        );
        if first_line != 1 {
            return;
        }
        match (parse_ntriples(text), expected) {
            (Ok((g, nodes, preds)), Ok((triples, node_names, pred_names))) => {
                let mut triples: Vec<Triple> = triples
                    .iter()
                    .map(|&(s, p, o)| Triple::new(s as Id, p as Id, o as Id))
                    .collect();
                triples.sort_unstable();
                triples.dedup();
                assert_eq!(g.triples(), triples, "on {text:?}");
                let listed = |d: &Dict| d.iter().map(|(_, n)| n.to_string()).collect::<Vec<_>>();
                // What the writer puts out reads back as the same names.
                let (g2, nodes2, preds2) = parse_ntriples(&to_ntriples(&g, &nodes, &preds))
                    .unwrap_or_else(|e| panic!("own output of {text:?}: {e}"));
                assert_eq!(g2.len(), g.len());
                let sorted = |d: &Dict| {
                    let mut names = listed(d);
                    names.sort();
                    names
                };
                assert_eq!(
                    (sorted(&nodes), sorted(&preds)),
                    (sorted(&nodes2), sorted(&preds2))
                );
                assert_eq!((listed(&nodes), listed(&preds)), (node_names, pred_names));
            }
            (Err(e), Err(expected)) => assert_eq!((e.line, e.msg), expected, "on {text:?}"),
            (got, expected) => panic!("on {text:?}: {:?} against {expected:?}", got.err()),
        }
    }

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % n as u64) as usize
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    /// Whitespace between terms: ASCII, and two of the non-ASCII
    /// characters `char::is_whitespace` also accepts.
    const GAPS: [&str; 7] = [" ", " ", "  ", "\t", " \t ", "\u{a0}", "\u{2003} "];

    fn gen_iri(rng: &mut Rng) -> String {
        let stem = rng.pick(&["http://ex.org/", "urn:x:", "é/ü#", "", "tab\there/"]);
        format!("<{stem}n{}>", rng.below(12))
    }

    fn gen_blank(rng: &mut Rng) -> String {
        format!("_:{}{}", rng.pick(&["b", "bé", "x.y", "_"]), rng.below(6))
    }

    fn gen_literal(rng: &mut Rng) -> String {
        let mut out = String::from("\"");
        for _ in 0..rng.below(4) {
            out.push_str(rng.pick(&[
                "plain",
                "two words",
                "größe → ∞",
                "\\n",
                "q\\\"q",
                "b\\\\s",
                "\\t\\r",
                "# no comment",
                "a.b .",
                "<x>",
                "_:y",
                "@z",
                "^^<",
                "\r",
            ]));
        }
        out.push('"');
        out.push_str(rng.pick(&[
            "",
            "",
            "@en",
            "@de-CH",
            "@é",
            "^^<http://www.w3.org/2001/XMLSchema#date>",
            "^^<d t>",
            "^^<>",
        ]));
        out
    }

    /// Lines that are wrong in one way each; the last two lose their dot
    /// to a blank label and a language tag.
    const BROKEN: [&str; 26] = [
        "<a> <p> <b>",
        "<a> <p> .",
        "<a> <p>",
        "<a>",
        "\"lit\" <p> <b> .",
        "\"l\\nit\" <p> <b> .",
        "<a> _:b <c> .",
        "<a> \"p\" <c> .",
        "<a> <p> \"unterminated .",
        "<a> <p> \"bad\\x\" .",
        "<a> <p> \"bad\\é\" .",
        "<a> <p> \"dangling\\",
        "<a> <p <b> .",
        "<a b> <p> <c> .",
        "<a> <p> <b c> .",
        "<a> <p> _b .",
        "<a> <p> _: .",
        "<a> <p> \"x\"@ .",
        "<a> <p> \"x\"^^<dt .",
        "<a> <p> \"x\"^^dt .",
        "<a> <p> <b> . <c>",
        "<a> <p> <b> . # no trailing comments",
        "a <p> <b> .",
        "é <p> <b> .",
        "<a> <p> _:b.",
        "<a> <p> \"x\"@en.",
    ];

    fn gen_line(rng: &mut Rng, broken_one_in: usize) -> String {
        if rng.below(broken_one_in) == 0 {
            return rng.pick(&BROKEN).to_string();
        }
        match rng.below(10) {
            0 => rng
                .pick(&["# a comment", "   # indented", "#", "#<a> <p> <b> ."])
                .to_string(),
            1 => rng.pick(&["", "   ", "\t", "\u{a0}"]).to_string(),
            _ => {
                let s = if rng.below(4) == 0 {
                    gen_blank(rng)
                } else {
                    gen_iri(rng)
                };
                let p = gen_iri(rng);
                let o = match rng.below(4) {
                    0 => gen_blank(rng),
                    1 | 2 => gen_literal(rng),
                    _ => gen_iri(rng),
                };
                let lead = rng.pick(&["", "", "", " ", "\t", "\u{a0}"]);
                let (g1, g2) = (rng.pick(&GAPS), rng.pick(&GAPS));
                // No gap before the dot is legal after an IRI or a bare
                // literal; a blank label or a language tag swallows it.
                let mut g3 = rng.pick(&[" ", " ", " ", "", "\t", "\u{2003}"]);
                if !o.ends_with(['>', '"']) && g3.is_empty() {
                    g3 = " ";
                }
                let trail = rng.pick(&["", "", "", " ", " \t"]);
                format!("{lead}{s}{g1}{p}{g2}{o}{g3}.{trail}")
            }
        }
    }

    fn gen_document(rng: &mut Rng, lines: usize, broken_one_in: usize) -> String {
        let mut text = String::new();
        for i in 0..lines {
            text.push_str(&gen_line(rng, broken_one_in));
            if i + 1 < lines || rng.below(2) == 0 {
                text.push_str(rng.pick(&["\n", "\n", "\r\n"]));
            }
        }
        text
    }

    fn seeds() -> Vec<u64> {
        let mut seeds = vec![1, 2, 3, 4, 5];
        if let Ok(s) = std::env::var("RPQ_TEST_SEED") {
            seeds.push(s.parse().expect("RPQ_TEST_SEED is a decimal u64"));
        }
        seeds
    }

    #[test]
    fn scanner_matches_the_reference_on_the_bundled_files() {
        for file in ["metro", "foaf", "team"] {
            let path = format!("{}/../../data/{file}.nt", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(reference::parse(&text, 1).is_ok(), "{path}");
            assert_same(&text, 1);
        }
    }

    #[test]
    fn scanner_matches_the_reference_on_every_malformed_line() {
        for text in MALFORMED.iter().map(|&(_, text)| text).chain(BROKEN) {
            assert_same(text, 1);
            assert_same(&format!("<a> <p> <b> .\r\n\n{text}\n<c> <p> <d> .\n"), 40);
        }
        assert!(BROKEN.iter().all(|text| reference::parse(text, 1).is_err()));
    }

    #[test]
    fn scanner_matches_the_reference_on_generated_documents() {
        for seed in seeds() {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let (mut parsed, mut failed) = (0, 0);
            for round in 0..400 {
                let lines = rng.below(40);
                // Most documents are clean, so whole parses are compared;
                // the rest stop at their first broken line.
                let broken_one_in = if round % 4 == 0 { 12 } else { 100_000 };
                let text = gen_document(&mut rng, lines, broken_one_in);
                match reference::parse(&text, 1) {
                    Ok(_) => parsed += 1,
                    Err(_) => failed += 1,
                }
                assert_same(&text, 1 + rng.below(3) * 1000);
                assert_same(&text, 1);
            }
            assert!(
                parsed > 200 && failed > 30,
                "seed {seed}: {parsed} / {failed}"
            );
            // Long enough that names are interned in several blocks, with
            // escaped literals flushing some of them early.
            for _ in 0..3 {
                assert_same(&gen_document(&mut rng, 900, 100_000), 1);
            }
        }
    }

    #[test]
    fn scanner_matches_the_reference_under_mutation() {
        const SPLICE: [&str; 20] = [
            "<", ">", "\"", "\\", "_", ":", "@", "^", ".", " ", "\t", "#", "\u{a0}", "é", "\r",
            "\n", "n", "x", "\\\"", "^^<",
        ];
        for seed in seeds() {
            let mut rng = Rng(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1);
            for _ in 0..1500 {
                let lines = 1 + rng.below(4);
                let mut text = gen_document(&mut rng, lines, 100_000);
                let cuts: Vec<usize> = text
                    .char_indices()
                    .map(|(at, _)| at)
                    .chain([text.len()])
                    .collect();
                let at = cuts[rng.below(cuts.len())];
                match rng.below(3) {
                    0 => text.insert_str(at, rng.pick(&SPLICE)),
                    1 if at < text.len() => {
                        text.remove(at);
                    }
                    _ if at < text.len() => {
                        text.remove(at);
                        text.insert_str(at, rng.pick(&SPLICE));
                    }
                    _ => {}
                }
                assert_same(&text, 1);
            }
        }
    }

    #[test]
    fn a_line_that_is_not_utf8_is_an_error_at_that_line() {
        let mut bytes = b"<a> <p> <b> .\n# fine\n<a> <p> \"caf".to_vec();
        bytes.extend_from_slice(&[0xC3, 0x28]); // a lead byte without its continuation
        bytes.extend_from_slice(b"\" .\n<a> <p .\n");
        assert_eq!(
            scanned(&bytes, 10),
            Err((12, "input is not valid UTF-8".to_string()))
        );
        // An earlier malformed line is reported first, as a sequential
        // reader would.
        let mut later = b"<a> <p .\n".to_vec();
        later.extend_from_slice(&bytes);
        assert_eq!(scanned(&later, 1), Err((1, "unterminated IRI".to_string())));
        // Valid multi-byte text is no error.
        assert!(scanned("<é> <p> \"→\"@é .".as_bytes(), 1).is_ok());
    }

    #[test]
    fn find_byte_agrees_with_a_byte_loop() {
        let mut rng = Rng(7);
        for len in 0..70 {
            for _ in 0..20 {
                let hay: Vec<u8> = (0..len)
                    .map(|_| [b'\n', b'\n' ^ 0x80, 0x0B, 0x09, b'a', 0, 0xFF, b'>'][rng.below(8)])
                    .collect();
                for needle in [b'\n', b'>', 0, 0xFF] {
                    assert_eq!(
                        find_byte(&hay, needle),
                        hay.iter().position(|&b| b == needle),
                        "{needle} in {hay:?}"
                    );
                }
            }
        }
    }
}
