//! Graph I/O: plain edge-list text format and two binary snapshot layouts.
//!
//! The text format is the de-facto standard of SNAP downloads (one
//! `u v` pair per line, `#` comments), so real datasets drop in unchanged if
//! they become available. The binary snapshots serialize the CSR arrays:
//!
//! * **v1** — the compact layout (`LIGHTCSR` + version 1): a 28-byte
//!   header, per-vertex *degrees*, then neighbors. Read-only: no writer
//!   here emits it, and decoding rebuilds the offset array on the heap.
//!   `light convert` upgrades a v1 file to v2.
//! * **v2** — the out-of-core layout (version 2, DESIGN.md §14): a 64-byte
//!   header followed by the raw offset and neighbor arrays, each placed at
//!   a page-aligned (and therefore 64-byte-aligned) file offset in
//!   little-endian machine layout. A v2 file can be **mmap'd and used in
//!   place** ([`map_snapshot`]) — zero-copy open, resident set tracks what
//!   queries touch — or decoded onto the heap ([`from_snapshot`] handles
//!   both versions). Every writer here emits v2.
//!
//! ## Robustness contract
//!
//! All loaders treat their input as untrusted: malformed, truncated, or
//! non-UTF-8 bytes always surface as a typed [`GraphIoError`] carrying the
//! line number and byte offset of the offence — never a panic and never an
//! unbounded allocation driven by a corrupt length field. For v2 the whole
//! header is bounds-checked against the *actual file length before any
//! array access*, so a truncated or hostile file is a typed error, never a
//! `SIGBUS`. The property tests in `tests/proptest_loader.rs` fuzz this
//! contract for every format.
//!
//! ## Normalization contract
//!
//! Loaders handle duplicate edges and self-loops in exactly two ways,
//! never a third (pinned by `tests/proptest_normalize.rs`):
//!
//! * **normalizing** — the text edge-list reader feeds every pair through
//!   [`GraphBuilder`], which drops loops and dedups (real SNAP dumps
//!   contain both). Arbitrary input loads; the result is always clean.
//! * **verifying** — the heap snapshot decoders run the full
//!   [`CsrGraph::validate`] and *reject* unnormalized adjacency as corrupt
//!   (a binary snapshot is machine output; dups in it mean a broken
//!   writer, and silently repairing would mask that). The zero-copy
//!   [`map_snapshot`] path checks header + offset structure only and
//!   trusts the O(m) neighbor invariants to `light convert`'s writer —
//!   the price of not faulting every page at open.
//!
//! Downstream consumers (set-intersection kernels, symmetry breaking, the
//! delta-CSR overlay's merge) assume deduped sorted simple adjacency on
//! the strength of this contract.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::mmap::Mmap;
use crate::types::VertexId;

/// Magic bytes identifying the binary snapshot format.
const MAGIC: &[u8; 8] = b"LIGHTCSR";
/// Snapshot format version (compact degree-list layout; read-only).
const VERSION_V1: u32 = 1;
/// Snapshot format version (page-aligned mmap-able layout).
const VERSION_V2: u32 = 2;
/// v2 header length in bytes (fixed; the arrays start beyond it at
/// [`V2_ALIGN`]-aligned offsets).
pub const V2_HEADER_LEN: usize = 64;
/// Alignment of the v2 CSR arrays on disk. Page alignment means an mmap
/// of the file (itself page-aligned in memory) yields naturally aligned
/// `u64`/`u32` slices, and each array starts on its own page — also
/// satisfying the 64-byte cache-line alignment the SIMD kernels like.
pub const V2_ALIGN: u64 = 4096;
/// How many leading bytes [`open_any`] reads to classify a file: magic
/// plus the version word.
const SNIFF_LEN: usize = 12;

/// Largest vertex id the text loader accepts: 2^28 - 1. A single corrupt
/// line like `4000000000 1` would otherwise make the builder allocate a
/// multi-gigabyte degree array; graphs beyond this bound exceed the
/// paper's single-machine setting anyway.
pub const MAX_EDGE_LIST_VERTEX_ID: u64 = (1 << 28) - 1;

/// Keep error snippets bounded — a corrupt "line" can be megabytes.
const SNIPPET_LEN: usize = 64;

/// Why graph input could not be loaded. Text-format variants carry the
/// 1-based line number and the byte offset of the start of that line.
#[derive(Debug)]
pub enum GraphIoError {
    /// The underlying reader failed.
    Io(io::Error),
    /// An edge-list line had fewer than two tokens.
    MalformedLine {
        /// 1-based line number.
        line: u64,
        /// Byte offset of the start of the line.
        offset: u64,
        /// The offending line (truncated).
        content: String,
    },
    /// A token was not a vertex id in `0..=`[`MAX_EDGE_LIST_VERTEX_ID`].
    BadVertexId {
        /// 1-based line number.
        line: u64,
        /// Byte offset of the start of the line.
        offset: u64,
        /// The offending token (truncated).
        token: String,
        /// Parser diagnostic.
        reason: String,
    },
    /// A line was not valid UTF-8.
    NonUtf8 {
        /// 1-based line number.
        line: u64,
        /// Byte offset of the start of the line.
        offset: u64,
    },
    /// A binary snapshot ended before its header/payload said it would.
    SnapshotTruncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// A binary snapshot header or payload failed a structural check
    /// (magic, version, degree sums, CSR validation).
    SnapshotInvalid(String),
    /// An error injected by the `io::read_edge_list` failpoint (chaos
    /// tests only; never constructed in production builds).
    Injected(String),
}

impl std::fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "i/o error: {e}"),
            GraphIoError::MalformedLine {
                line,
                offset,
                content,
            } => write!(
                f,
                "line {line} (byte offset {offset}): expected `u v`, got {content:?}"
            ),
            GraphIoError::BadVertexId {
                line,
                offset,
                token,
                reason,
            } => write!(
                f,
                "line {line} (byte offset {offset}): bad vertex id {token:?}: {reason}"
            ),
            GraphIoError::NonUtf8 { line, offset } => {
                write!(f, "line {line} (byte offset {offset}): not valid UTF-8")
            }
            GraphIoError::SnapshotTruncated { expected, got } => {
                write!(
                    f,
                    "snapshot truncated: header promises {expected} bytes, {got} present"
                )
            }
            GraphIoError::SnapshotInvalid(msg) => write!(f, "invalid snapshot: {msg}"),
            GraphIoError::Injected(msg) => write!(f, "injected failure: {msg}"),
        }
    }
}

impl std::error::Error for GraphIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphIoError {
    fn from(e: io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

impl From<GraphIoError> for io::Error {
    fn from(e: GraphIoError) -> Self {
        match e {
            GraphIoError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

fn snippet(s: &str) -> String {
    if s.len() <= SNIPPET_LEN {
        s.to_string()
    } else {
        let mut end = SNIPPET_LEN;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// Parse a SNAP-style edge list from a reader.
///
/// * lines starting with `#` or `%` are comments;
/// * blank lines are skipped;
/// * each data line holds two whitespace-separated vertex IDs (extra
///   trailing tokens — e.g. edge weights — are ignored);
/// * self-loops and duplicates are cleaned by the builder.
///
/// Malformed input returns a [`GraphIoError`] locating the offence; this
/// function never panics on bad bytes.
pub fn read_edge_list<R: Read>(r: R) -> Result<CsrGraph, GraphIoError> {
    light_failpoint::fail_point!("io::read_edge_list", |m| Err(GraphIoError::Injected(m)));
    let mut reader = BufReader::new(r);
    let mut b = GraphBuilder::new();
    let mut buf = Vec::new();
    let mut line_no = 0u64;
    let mut next_offset = 0u64;
    loop {
        buf.clear();
        // read_until, not read_line: non-UTF-8 bytes must become a typed
        // error with a location, not a bare InvalidData from the reader.
        let read = reader.read_until(b'\n', &mut buf)?;
        if read == 0 {
            break;
        }
        line_no += 1;
        let offset = next_offset;
        next_offset += read as u64;
        let Ok(line) = std::str::from_utf8(&buf) else {
            return Err(GraphIoError::NonUtf8 {
                line: line_no,
                offset,
            });
        };
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let (a, c) = match (it.next(), it.next()) {
            (Some(a), Some(c)) => (a, c),
            _ => {
                return Err(GraphIoError::MalformedLine {
                    line: line_no,
                    offset,
                    content: snippet(t),
                })
            }
        };
        let parse = |s: &str| -> Result<VertexId, GraphIoError> {
            let bad = |reason: String| GraphIoError::BadVertexId {
                line: line_no,
                offset,
                token: snippet(s),
                reason,
            };
            let id = s.parse::<u64>().map_err(|e| bad(e.to_string()))?;
            if id > MAX_EDGE_LIST_VERTEX_ID {
                return Err(bad(format!(
                    "exceeds maximum supported id {MAX_EDGE_LIST_VERTEX_ID}"
                )));
            }
            Ok(id as VertexId)
        };
        b.add_edge(parse(a)?, parse(c)?);
    }
    Ok(b.build())
}

/// Load an edge-list file from disk.
pub fn load_edge_list(path: impl AsRef<Path>) -> Result<CsrGraph, GraphIoError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Write the graph as an edge list (each undirected edge once, `u < v`).
pub fn write_edge_list<W: Write>(g: &CsrGraph, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(
        w,
        "# light-graph edge list: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Deserialize a binary snapshot: a v1 file or one produced by
/// [`to_snapshot_v2`] — the version word picks the decoder; both paths
/// produce a heap-backed graph.
///
/// Every length field is treated as hostile: the payload size is computed
/// with checked arithmetic and verified against the actual byte count
/// *before* any allocation, so a corrupt header cannot trigger an
/// overflow panic or a multi-gigabyte allocation.
pub fn from_snapshot(data: &[u8]) -> Result<CsrGraph, GraphIoError> {
    if data.len() < 12 {
        return Err(GraphIoError::SnapshotTruncated {
            expected: 28,
            got: data.len() as u64,
        });
    }
    if &data[..8] != MAGIC {
        return Err(GraphIoError::SnapshotInvalid("bad magic".into()));
    }
    match u32::from_le_bytes(data[8..12].try_into().unwrap()) {
        VERSION_V1 => from_snapshot_v1(data),
        VERSION_V2 => from_snapshot_v2(data),
        version => Err(GraphIoError::SnapshotInvalid(format!(
            "unsupported version {version}"
        ))),
    }
}

/// Decode the v1 (compact degree-list) body. `data` still includes the
/// magic and version words, which were validated by [`from_snapshot`].
fn from_snapshot_v1(data: &[u8]) -> Result<CsrGraph, GraphIoError> {
    let bad = |msg: String| GraphIoError::SnapshotInvalid(msg);
    if data.len() < 28 {
        return Err(GraphIoError::SnapshotTruncated {
            expected: 28,
            got: data.len() as u64,
        });
    }
    let u64_at = |i: usize| u64::from_le_bytes(data[i..i + 8].try_into().unwrap());
    let n = u64_at(12);
    let directed = u64_at(20);
    let body = &data[28..];
    // Checked: a corrupt header with n or directed near u64::MAX must not
    // wrap the size computation into a small number (debug panic or, in
    // release, a bogus bounds check followed by huge allocations).
    let need = n
        .checked_mul(8)
        .and_then(|deg| directed.checked_mul(4).map(|nbr| (deg, nbr)))
        .and_then(|(deg, nbr)| deg.checked_add(nbr))
        .ok_or_else(|| bad(format!("header overflows: n={n}, directed={directed}")))?;
    if (body.len() as u64) < need {
        return Err(GraphIoError::SnapshotTruncated {
            expected: need + 28,
            got: data.len() as u64,
        });
    }
    // The bounds check above caps n and directed by the actual payload
    // size, so these capacities are trustworthy.
    let (n, directed) = (n as usize, directed as usize);
    let (degrees, body) = body.split_at(n * 8);
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    let mut acc = 0u64;
    for d in degrees.chunks_exact(8) {
        acc = acc
            .checked_add(u64::from_le_bytes(d.try_into().unwrap()))
            .ok_or_else(|| bad("degree sum overflows u64".into()))?;
        offsets.push(acc);
    }
    if acc as usize != directed {
        return Err(bad(format!(
            "degree sum {acc} does not match directed edge count {directed}"
        )));
    }
    let neighbors = body[..directed * 4]
        .chunks_exact(4)
        .map(|b| VertexId::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let g = CsrGraph::from_parts(offsets, neighbors);
    g.validate().map_err(bad)?;
    Ok(g)
}

/// The parsed, fully bounds-checked v2 header. Constructing one proves
/// every byte range the arrays occupy lies inside the actual file.
#[derive(Debug, Clone, Copy)]
struct V2Header {
    n: usize,
    directed: usize,
    offsets_pos: usize,
    neighbors_pos: usize,
}

/// Validate a v2 header against the actual byte count `actual_len`
/// (mapped length or in-memory length) *before any array access*. Every
/// field is hostile: positions, counts, and the recorded total length are
/// checked with overflow-safe arithmetic, so a truncated or corrupt file
/// is a typed [`GraphIoError`] — never a `SIGBUS`, panic, or huge
/// allocation.
fn parse_v2_header(data: &[u8], actual_len: u64) -> Result<V2Header, GraphIoError> {
    let bad = |msg: String| GraphIoError::SnapshotInvalid(msg);
    if data.len() < V2_HEADER_LEN {
        return Err(GraphIoError::SnapshotTruncated {
            expected: V2_HEADER_LEN as u64,
            got: data.len() as u64,
        });
    }
    let u32_at = |i: usize| u32::from_le_bytes(data[i..i + 4].try_into().unwrap());
    let u64_at = |i: usize| u64::from_le_bytes(data[i..i + 8].try_into().unwrap());
    debug_assert_eq!(&data[..8], MAGIC);
    debug_assert_eq!(u32_at(8), VERSION_V2);
    let flags = u32_at(12);
    if flags != 0 {
        return Err(bad(format!("unknown v2 flags {flags:#x}")));
    }
    let n = u64_at(16);
    let directed = u64_at(24);
    let offsets_pos = u64_at(32);
    let neighbors_pos = u64_at(40);
    let recorded_len = u64_at(48);

    // Alignment first: mmap bases are page-aligned, so file-offset
    // alignment is what guarantees aligned u64/u32 slices in memory.
    if offsets_pos < V2_HEADER_LEN as u64 || offsets_pos % 64 != 0 || neighbors_pos % 64 != 0 {
        return Err(bad(format!(
            "misaligned v2 sections: offsets at {offsets_pos}, neighbors at {neighbors_pos}"
        )));
    }
    // Checked arithmetic end-to-end: a header with n or directed near
    // u64::MAX must not wrap into a small bound.
    let offsets_bytes = n
        .checked_add(1)
        .and_then(|c| c.checked_mul(8))
        .ok_or_else(|| bad(format!("header overflows: n={n}")))?;
    let offsets_end = offsets_pos
        .checked_add(offsets_bytes)
        .ok_or_else(|| bad(format!("header overflows: n={n}")))?;
    let neighbors_bytes = directed
        .checked_mul(4)
        .ok_or_else(|| bad(format!("header overflows: directed={directed}")))?;
    let neighbors_end = neighbors_pos
        .checked_add(neighbors_bytes)
        .ok_or_else(|| bad(format!("header overflows: directed={directed}")))?;
    if neighbors_pos < offsets_end {
        return Err(bad(format!(
            "v2 sections overlap: offsets end {offsets_end}, neighbors start {neighbors_pos}"
        )));
    }
    if recorded_len != neighbors_end {
        return Err(bad(format!(
            "v2 length field {recorded_len} does not match section end {neighbors_end}"
        )));
    }
    if actual_len < neighbors_end {
        return Err(GraphIoError::SnapshotTruncated {
            expected: neighbors_end,
            got: actual_len,
        });
    }
    // actual_len bounds every range, and actual_len fits in the address
    // space (the caller read or mapped it), so usize conversions hold.
    Ok(V2Header {
        n: n as usize,
        directed: directed as usize,
        offsets_pos: offsets_pos as usize,
        neighbors_pos: neighbors_pos as usize,
    })
}

/// Round `x` up to the next multiple of [`V2_ALIGN`].
fn align_v2(x: u64) -> u64 {
    x.div_ceil(V2_ALIGN) * V2_ALIGN
}

/// Serialize to the v2 (page-aligned, mmap-able) snapshot layout:
///
/// ```text
/// byte 0        8      12     16   24        32          40            48         56..64
///      | LIGHTCSR | ver=2 | flags | n | directed | offsets_pos | neighbors_pos | total_len | reserved |
///      |---- zero padding to offsets_pos (page-aligned) ----|
///      | offsets: (n+1) x u64 LE |---- zero padding ----|
///      | neighbors: directed x u32 LE |
/// ```
///
/// Both arrays sit at [`V2_ALIGN`]-aligned offsets in exactly the
/// little-endian layout [`CsrGraph`] uses in memory, which is what lets
/// [`map_snapshot`] serve them zero-copy.
pub fn to_snapshot_v2(g: &CsrGraph) -> Vec<u8> {
    let offsets = g.offs();
    let neighbors = g.nbrs();
    let offsets_pos = align_v2(V2_HEADER_LEN as u64);
    let neighbors_pos = align_v2(offsets_pos + offsets.len() as u64 * 8);
    let total = neighbors_pos as usize + neighbors.len() * 4;

    let mut buf = vec![0u8; total];
    buf[..8].copy_from_slice(MAGIC);
    buf[8..12].copy_from_slice(&VERSION_V2.to_le_bytes());
    // flags (12..16) and reserved (56..64) stay zero.
    buf[16..24].copy_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    buf[24..32].copy_from_slice(&(neighbors.len() as u64).to_le_bytes());
    buf[32..40].copy_from_slice(&offsets_pos.to_le_bytes());
    buf[40..48].copy_from_slice(&neighbors_pos.to_le_bytes());
    buf[48..56].copy_from_slice(&(total as u64).to_le_bytes());

    let mut at = offsets_pos as usize;
    for &o in offsets {
        buf[at..at + 8].copy_from_slice(&o.to_le_bytes());
        at += 8;
    }
    let mut at = neighbors_pos as usize;
    for &v in neighbors {
        buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
        at += 4;
    }
    buf
}

/// Scan a v2 offset array for structural validity: starts at 0, monotone
/// non-decreasing, ends exactly at `directed`. O(n) over the offsets only
/// — the neighbor pages stay untouched, which is what keeps the mmap open
/// path's resident set small.
fn check_v2_offsets(offsets: &[u64], directed: u64) -> Result<(), GraphIoError> {
    let bad = |msg: String| GraphIoError::SnapshotInvalid(msg);
    if offsets[0] != 0 {
        return Err(bad("offsets must start at 0".into()));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad("offsets must be non-decreasing".into()));
    }
    let last = *offsets.last().unwrap();
    if last != directed {
        return Err(bad(format!(
            "offset sum {last} does not match directed edge count {directed}"
        )));
    }
    Ok(())
}

/// Decode a v2 snapshot onto the heap (the portable path; also the
/// differential reference for the mmap path). Runs the full
/// [`CsrGraph::validate`] pass like the v1 decoder.
fn from_snapshot_v2(data: &[u8]) -> Result<CsrGraph, GraphIoError> {
    let h = parse_v2_header(data, data.len() as u64)?;
    let mut offsets = Vec::with_capacity(h.n + 1);
    let mut at = h.offsets_pos;
    for _ in 0..=h.n {
        offsets.push(u64::from_le_bytes(data[at..at + 8].try_into().unwrap()));
        at += 8;
    }
    check_v2_offsets(&offsets, h.directed as u64)?;
    let mut neighbors = Vec::with_capacity(h.directed);
    let mut at = h.neighbors_pos;
    for _ in 0..h.directed {
        neighbors.push(VertexId::from_le_bytes(
            data[at..at + 4].try_into().unwrap(),
        ));
        at += 4;
    }
    let g = CsrGraph::from_parts(offsets, neighbors);
    g.validate().map_err(GraphIoError::SnapshotInvalid)?;
    Ok(g)
}

/// Open a v2 snapshot zero-copy: validate the header against the file
/// length, mmap the file, structurally check the offset array in place,
/// and return a [`CsrGraph`] whose slices point straight into the
/// mapping.
///
/// * A v1 file silently falls back to the heap loader (correct, just not
///   zero-copy); so does any platform without mmap or with big-endian
///   layout.
/// * The in-place check covers the offset array only (O(#vertices),
///   touching no neighbor pages). Neighbor *values* are trusted the same
///   way the engine trusts them at query time: an out-of-range id can
///   only produce a safe bounds panic on the offset slice, never
///   undefined behavior, and [`CsrGraph::validate`] remains available for
///   callers that want the full O(M log d) audit.
pub fn map_snapshot(path: impl AsRef<Path>) -> Result<CsrGraph, GraphIoError> {
    let path = path.as_ref();
    #[cfg(not(all(target_os = "linux", target_endian = "little")))]
    {
        return load_snapshot(path);
    }
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    {
        let f = File::open(path)?;
        let file_len = f.metadata()?.len();
        let mut head = [0u8; V2_HEADER_LEN];
        let got = read_prefix(&mut (&f), &mut head)?;
        if got < SNIFF_LEN || &head[..8] != MAGIC {
            return Err(GraphIoError::SnapshotInvalid("bad magic".into()));
        }
        match u32::from_le_bytes(head[8..12].try_into().unwrap()) {
            VERSION_V2 => {}
            // v1 (and anything else from_snapshot knows how to reject with
            // a precise error) goes through the heap loader.
            _ => return load_snapshot(path),
        }
        let h = parse_v2_header(&head[..got], file_len)?;
        let map = Arc::new(Mmap::map_file(&f).map_err(GraphIoError::Io)?);
        // The mapping can only be shorter than the fstat'd length if the
        // file changed between the two syscalls; re-check before slicing.
        if (map.len() as u64) < file_len {
            return Err(GraphIoError::SnapshotTruncated {
                expected: file_len,
                got: map.len() as u64,
            });
        }
        let off_bytes = &map.as_slice()[h.offsets_pos..h.offsets_pos + (h.n + 1) * 8];
        // SAFETY: in-bounds (parse_v2_header proved it against the mapped
        // length) and 8-aligned (page-aligned base + 64-aligned offset).
        let offsets: &[u64] =
            unsafe { std::slice::from_raw_parts(off_bytes.as_ptr() as *const u64, h.n + 1) };
        check_v2_offsets(offsets, h.directed as u64)?;
        Ok(CsrGraph::from_mapped(
            map,
            h.offsets_pos,
            h.n + 1,
            h.neighbors_pos,
            h.directed,
        ))
    }
}

/// Identity + size fingerprint of a snapshot's backing file.
///
/// Long-lived mmap consumers (the serve catalog) record this at map time
/// and re-stat before trusting the mapping: a *shrunk* file (same inode,
/// smaller length) means reads of the vanished pages would raise SIGBUS —
/// the documented hazard in [`mmap`](crate::mmap) — and a *replaced* file
/// (different inode, the `write_atomic` rename path) means the mapping is
/// still safe to read but permanently stale. Either way the consumer
/// should stop serving from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStamp {
    /// File length in bytes.
    pub len: u64,
    /// Modification time as (seconds, nanos) since the Unix epoch;
    /// `(0, 0)` when the filesystem does not report one.
    pub mtime: (u64, u32),
    /// Inode number (0 on non-Unix hosts) — detects replace-by-rename.
    pub ino: u64,
}

impl FileStamp {
    /// Stat `path` and record its fingerprint.
    pub fn of(path: impl AsRef<Path>) -> io::Result<FileStamp> {
        let md = std::fs::metadata(path)?;
        let mtime = md
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map(|d| (d.as_secs(), d.subsec_nanos()))
            .unwrap_or((0, 0));
        #[cfg(unix)]
        let ino = {
            use std::os::unix::fs::MetadataExt;
            md.ino()
        };
        #[cfg(not(unix))]
        let ino = 0;
        Ok(FileStamp {
            len: md.len(),
            mtime,
            ino,
        })
    }

    /// Whether a mapping recorded at `self` is still safe *and* current
    /// given a fresh stamp of the same path. Shrunk (SIGBUS on read),
    /// replaced (stale data), or touched (contents unknown) all fail.
    pub fn still_valid(&self, fresh: &FileStamp) -> bool {
        fresh.ino == self.ino && fresh.len >= self.len && fresh.mtime == self.mtime
    }
}

/// Write `data` to `path` atomically: a temp file in the same directory,
/// fsync'd, then renamed into place. A crash mid-write leaves either the
/// old file or nothing — never a truncated snapshot for the catalog to
/// reject later.
fn write_atomic(path: &Path, data: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let stem = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        stem.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(data)?;
        // Durability before visibility: the rename must never publish a
        // name whose bytes are still in flight.
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Save a v2 (mmap-able) snapshot to disk (atomic temp-file + rename).
pub fn save_snapshot_v2(g: &CsrGraph, path: impl AsRef<Path>) -> io::Result<()> {
    write_atomic(path.as_ref(), &to_snapshot_v2(g))
}

/// Load a binary snapshot (either version) from disk onto the heap.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<CsrGraph, GraphIoError> {
    from_snapshot(&std::fs::read(path)?)
}

/// The on-disk format [`load_any`] detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFormat {
    /// `LIGHTCSR` binary snapshot ([`to_snapshot_v2`], or a legacy v1 file).
    Snapshot,
    /// SNAP-style text edge list ([`read_edge_list`]).
    EdgeList,
}

impl GraphFormat {
    /// Human-readable format name (`"snapshot"` / `"edge-list"`).
    pub fn name(self) -> &'static str {
        match self {
            GraphFormat::Snapshot => "snapshot",
            GraphFormat::EdgeList => "edge-list",
        }
    }
}

/// Detect the format of an in-memory graph file by its magic bytes.
///
/// Anything that does not start with the 8-byte `LIGHTCSR` magic is
/// treated as a text edge list — including files shorter than the magic.
pub fn detect_format(data: &[u8]) -> GraphFormat {
    if data.len() >= MAGIC.len() && &data[..MAGIC.len()] == MAGIC {
        GraphFormat::Snapshot
    } else {
        GraphFormat::EdgeList
    }
}

/// Fill `buf` from `r` as far as the stream allows; returns the byte
/// count (short only at end-of-stream).
fn read_prefix<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..])? {
            0 => break,
            k => got += k,
        }
    }
    Ok(got)
}

/// Load a graph file in either supported format, auto-detected by magic
/// bytes, returning the graph and the format found. Always heap-backed;
/// [`open_any`] is the variant that may return an mmap-backed graph.
///
/// This is the shared load path of `light count --graph`, `light convert`,
/// and the serve catalog: a snapshot produced by `light convert` and the
/// text edge list it came from load to the same graph through here.
///
/// Detection reads only a [`SNIFF_LEN`]-byte prefix — sniffing a multi-GB
/// file is O(1) — and edge lists stream through the parser without ever
/// materializing the whole file in memory.
pub fn load_any(path: impl AsRef<Path>) -> Result<(CsrGraph, GraphFormat), GraphIoError> {
    open_any(path, false)
}

/// [`load_any`] with a backend choice: with `prefer_mmap`, a v2 snapshot
/// opens zero-copy through [`map_snapshot`] (falling back to the heap on
/// platforms without mmap); everything else — v1 snapshots, edge lists —
/// loads onto the heap. Inspect `graph.backend()` for what happened.
pub fn open_any(
    path: impl AsRef<Path>,
    prefer_mmap: bool,
) -> Result<(CsrGraph, GraphFormat), GraphIoError> {
    let path = path.as_ref();
    let mut f = File::open(path)?;
    let mut prefix = [0u8; SNIFF_LEN];
    let got = read_prefix(&mut f, &mut prefix)?;
    match detect_format(&prefix[..got]) {
        GraphFormat::Snapshot => {
            let version = if got >= SNIFF_LEN {
                u32::from_le_bytes(prefix[8..12].try_into().unwrap())
            } else {
                0 // shorter than the version word: from_snapshot will say "truncated"
            };
            let g = if prefer_mmap && version == VERSION_V2 {
                drop(f);
                map_snapshot(path)?
            } else {
                let mut data = prefix[..got].to_vec();
                f.read_to_end(&mut data)?;
                from_snapshot(&data)?
            };
            Ok((g, GraphFormat::Snapshot))
        }
        GraphFormat::EdgeList => {
            let g = read_edge_list((&prefix[..got]).chain(f))?;
            Ok((g, GraphFormat::EdgeList))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// The v1 layout, encoded here only to keep the read path covered.
    fn to_snapshot_v1(g: &CsrGraph) -> Vec<u8> {
        let degrees: Vec<u64> = g.vertices().map(|v| g.degree(v) as u64).collect();
        let mut buf = MAGIC.to_vec();
        buf.extend(VERSION_V1.to_le_bytes());
        buf.extend((degrees.len() as u64).to_le_bytes());
        buf.extend(degrees.iter().sum::<u64>().to_le_bytes());
        buf.extend(degrees.iter().flat_map(|d| d.to_le_bytes()));
        buf.extend(
            g.vertices()
                .flat_map(|v| g.neighbors(v))
                .flat_map(|u| u.to_le_bytes()),
        );
        buf
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = generators::erdos_renyi(50, 120, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn edge_list_parses_comments_and_blanks() {
        let text = "# comment\n% other comment\n\n0 1\n1 2\n2 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn edge_list_rejects_garbage_with_location() {
        match read_edge_list("0 1\n2\n".as_bytes()) {
            Err(GraphIoError::MalformedLine { line, offset, .. }) => {
                assert_eq!(line, 2);
                assert_eq!(offset, 4);
            }
            other => panic!("expected MalformedLine, got {other:?}"),
        }
        match read_edge_list("a b\n".as_bytes()) {
            Err(GraphIoError::BadVertexId { line, token, .. }) => {
                assert_eq!(line, 1);
                assert_eq!(token, "a");
            }
            other => panic!("expected BadVertexId, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_rejects_non_utf8_with_location() {
        let bytes = b"0 1\n\xff\xfe bogus\n";
        match read_edge_list(&bytes[..]) {
            Err(GraphIoError::NonUtf8 { line, offset }) => {
                assert_eq!(line, 2);
                assert_eq!(offset, 4);
            }
            other => panic!("expected NonUtf8, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_rejects_oversized_ids() {
        let text = format!("{} 1\n", MAX_EDGE_LIST_VERTEX_ID + 1);
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(GraphIoError::BadVertexId { .. })
        ));
        // The bound itself is representable but allocates a huge builder;
        // just check a comfortably large id parses.
        let g = read_edge_list("100000 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 100_001);
    }

    #[test]
    fn edge_list_ignores_trailing_tokens() {
        // SNAP weighted lists carry a third column; it is ignored.
        let g = read_edge_list("0 1 0.5\n1 2 3\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn snapshot_roundtrip() {
        let g = generators::barabasi_albert(200, 3, 11);
        let h = from_snapshot(&to_snapshot_v1(&g)).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let g = generators::complete(5);
        let snap = to_snapshot_v1(&g);
        assert!(from_snapshot(&snap[..10]).is_err());
        let mut corrupted = snap;
        corrupted[0] = b'X';
        assert!(from_snapshot(&corrupted).is_err());
    }

    #[test]
    fn snapshot_rejects_overflowing_header() {
        // n * 8 used to wrap: u64::MAX vertices passed the bounds check in
        // release builds and panicked the debug ones.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&VERSION_V1.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // directed
        buf.extend_from_slice(&0u64.to_le_bytes());
        match from_snapshot(&buf) {
            Err(GraphIoError::SnapshotInvalid(msg)) => {
                assert!(msg.contains("overflows"), "{msg}")
            }
            other => panic!("expected SnapshotInvalid, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_truncation_reports_sizes() {
        let g = generators::complete(5);
        let snap = to_snapshot_v1(&g);
        match from_snapshot(&snap[..snap.len() - 3]) {
            Err(GraphIoError::SnapshotTruncated { expected, got }) => {
                assert!(got < expected);
            }
            other => panic!("expected SnapshotTruncated, got {other:?}"),
        }
    }

    #[test]
    fn errors_convert_to_io_error() {
        let e = read_edge_list("nope\n".as_bytes()).unwrap_err();
        let io_err: io::Error = e.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert!(io_err.to_string().contains("line 1"));
    }

    #[test]
    fn load_any_autodetects_both_formats() {
        let g = generators::barabasi_albert(80, 3, 5);
        let dir = std::env::temp_dir().join("light_graph_io_load_any");
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("g.txt");
        let bin = dir.join("g.bin");
        write_edge_list(&g, std::fs::File::create(&text).unwrap()).unwrap();
        std::fs::write(&bin, to_snapshot_v1(&g)).unwrap();

        let (gt, ft) = load_any(&text).unwrap();
        let (gb, fb) = load_any(&bin).unwrap();
        assert_eq!(ft, GraphFormat::EdgeList);
        assert_eq!(fb, GraphFormat::Snapshot);
        assert_eq!(gt, g);
        assert_eq!(gb, g);

        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&bin).ok();
    }

    #[test]
    fn detect_format_edge_cases() {
        assert_eq!(detect_format(b""), GraphFormat::EdgeList);
        assert_eq!(detect_format(b"LIGHT"), GraphFormat::EdgeList); // shorter than magic
        assert_eq!(detect_format(b"LIGHTCSR"), GraphFormat::Snapshot);
        assert_eq!(detect_format(b"0 1\n1 2\n"), GraphFormat::EdgeList);
        // A text file that *begins* with the magic would be misdetected;
        // no valid edge list can, since 'L' is not a digit/comment char.
        assert_eq!(GraphFormat::Snapshot.name(), "snapshot");
        assert_eq!(GraphFormat::EdgeList.name(), "edge-list");
    }

    #[test]
    fn load_any_surfaces_typed_errors() {
        let dir = std::env::temp_dir().join("light_graph_io_load_any_err");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("trunc.bin");
        let g = generators::complete(6);
        let snap = to_snapshot_v1(&g);
        std::fs::write(&p, &snap[..snap.len() - 2]).unwrap();
        assert!(matches!(
            load_any(&p),
            Err(GraphIoError::SnapshotTruncated { .. })
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn snapshot_disk_roundtrip() {
        let g = generators::cycle(10);
        let dir = std::env::temp_dir().join("light_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("c10.bin");
        save_snapshot_v2(&g, &p).unwrap();
        assert_eq!(load_snapshot(&p).unwrap(), g);
        std::fs::remove_file(&p).ok();
    }

    fn v2dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("light_graph_io_v2_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_v2_layout_is_aligned() {
        let g = generators::barabasi_albert(300, 3, 17);
        let bytes = to_snapshot_v2(&g);
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
        let offsets_pos = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
        let neighbors_pos = u64::from_le_bytes(bytes[40..48].try_into().unwrap());
        let total = u64::from_le_bytes(bytes[48..56].try_into().unwrap());
        assert_eq!(offsets_pos % V2_ALIGN, 0);
        assert_eq!(neighbors_pos % V2_ALIGN, 0);
        assert_eq!(total, bytes.len() as u64);
    }

    #[test]
    fn snapshot_v2_heap_roundtrip() {
        let g = generators::barabasi_albert(200, 3, 11);
        let h = from_snapshot(&to_snapshot_v2(&g)).unwrap();
        assert_eq!(g, h);
        // Empty graph round-trips too.
        let e = CsrGraph::from_parts(vec![0], vec![]);
        assert_eq!(from_snapshot(&to_snapshot_v2(&e)).unwrap(), e);
    }

    #[test]
    fn snapshot_v2_mmap_roundtrip_and_backend() {
        let g = generators::barabasi_albert(250, 3, 23);
        let dir = v2dir("roundtrip");
        let p = dir.join("g.v2");
        save_snapshot_v2(&g, &p).unwrap();
        let m = map_snapshot(&p).unwrap();
        assert_eq!(m, g, "mapped load must equal the heap original");
        #[cfg(all(target_os = "linux", target_endian = "little"))]
        {
            assert_eq!(m.backend(), crate::csr::StorageBackend::Mapped);
            assert_eq!(m.resident_bytes(), 0);
            m.advise_willneed();
            // Clones share the mapping and stay equal.
            let c = m.clone();
            assert_eq!(c.backend(), crate::csr::StorageBackend::Mapped);
            assert_eq!(c, g);
        }
        m.validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_v2_truncations_are_typed_errors() {
        let g = generators::barabasi_albert(150, 3, 5);
        let bytes = to_snapshot_v2(&g);
        let dir = v2dir("trunc");
        // Mid-magic, mid-header, end of header, mid-offsets, mid-neighbors,
        // one byte short. (A 0-byte cut is excluded: an empty file is an
        // empty *edge list* to `load_any`'s sniffer, not a bad snapshot.)
        for cut in [7, 11, 40, 63, 64, 4100, 8200, bytes.len() - 1] {
            let cut = cut.min(bytes.len() - 1);
            assert!(
                from_snapshot(&bytes[..cut]).is_err(),
                "heap decode accepted a {cut}-byte truncation"
            );
            let p = dir.join(format!("cut{cut}.v2"));
            std::fs::write(&p, &bytes[..cut]).unwrap();
            assert!(
                map_snapshot(&p).is_err(),
                "mmap open accepted a {cut}-byte truncation"
            );
            assert!(
                load_any(&p).is_err(),
                "load_any accepted a {cut}-byte truncation"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_v2_rejects_hostile_headers() {
        let g = generators::complete(6);
        let base = to_snapshot_v2(&g);

        // Unknown flags.
        let mut b = base.clone();
        b[12] = 0xff;
        assert!(matches!(
            from_snapshot(&b),
            Err(GraphIoError::SnapshotInvalid(_))
        ));

        // Overflowing counts must not wrap the bounds computation.
        let mut b = base.clone();
        b[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        b[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        match from_snapshot(&b) {
            Err(GraphIoError::SnapshotInvalid(msg)) => assert!(msg.contains("overflows"), "{msg}"),
            other => panic!("expected SnapshotInvalid, got {other:?}"),
        }

        // Misaligned section pointer.
        let mut b = base.clone();
        b[32..40].copy_from_slice(&4097u64.to_le_bytes());
        assert!(matches!(
            from_snapshot(&b),
            Err(GraphIoError::SnapshotInvalid(_))
        ));

        // Length field that disagrees with the sections.
        let mut b = base.clone();
        let total = u64::from_le_bytes(base[48..56].try_into().unwrap());
        b[48..56].copy_from_slice(&(total + 64).to_le_bytes());
        assert!(matches!(
            from_snapshot(&b),
            Err(GraphIoError::SnapshotInvalid(_))
        ));

        // Non-monotone offsets (first data offset made huge).
        let mut b = base;
        b[4096 + 8..4096 + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(from_snapshot(&b).is_err());
    }

    #[test]
    fn open_any_picks_backend_per_version() {
        let g = generators::barabasi_albert(120, 3, 41);
        let dir = v2dir("open_any");
        let v1 = dir.join("g.v1");
        let v2 = dir.join("g.v2");
        std::fs::write(&v1, to_snapshot_v1(&g)).unwrap();
        save_snapshot_v2(&g, &v2).unwrap();

        let (g1, f1) = open_any(&v1, true).unwrap();
        let (g2, f2) = open_any(&v2, true).unwrap();
        let (g3, f3) = open_any(&v2, false).unwrap();
        assert_eq!(f1, GraphFormat::Snapshot);
        assert_eq!(f2, GraphFormat::Snapshot);
        assert_eq!(f3, GraphFormat::Snapshot);
        assert_eq!(g1, g);
        assert_eq!(g2, g);
        assert_eq!(g3, g);
        // v1 and the no-mmap path always stay on the heap.
        assert_eq!(g1.backend(), crate::csr::StorageBackend::Heap);
        assert_eq!(g3.backend(), crate::csr::StorageBackend::Heap);
        #[cfg(all(target_os = "linux", target_endian = "little"))]
        assert_eq!(g2.backend(), crate::csr::StorageBackend::Mapped);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_save_leaves_no_temp_droppings() {
        let g = generators::cycle(12);
        let dir = v2dir("atomic");
        let p = dir.join("g.bin");
        save_snapshot_v2(&g, &p).unwrap();
        save_snapshot_v2(&g, &p).unwrap(); // overwrite in place is fine
        assert_eq!(load_snapshot(&p).unwrap(), g);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
