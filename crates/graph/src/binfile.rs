//! Headered on-disk binary edge lists with zero-copy streaming ingestion.
//!
//! The raw pair format of [`EdgeList::write_binary`] carries no vertex
//! count, so a consumer must materialize every edge before it can size a
//! single array. This module adds a self-describing container so HEP can
//! run its degree pass and CSR construction as **streaming passes over the
//! file** — the `EdgeList` never exists in memory (§4.1's "the graph
//! building phase reads the edge list twice", applied to disk). The same
//! container carries HEP's h2h spill: [`EdgeFileWriter`] appends edges as
//! the CSR build discovers them, and phase 2 reads the spill back through
//! an ordinary checksummed pass.
//!
//! # On-disk layout
//!
//! One format, version 2 (written by [`EdgeFileWriter`] and
//! [`BinaryEdgeFile::write`]):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HEPB"
//! 4       4     format version (little-endian u32, always 2)
//! 8       4     num_vertices     (little-endian u32)
//! 12      8     num_edges        (little-endian u64)
//! 20      8     header checksum  (XXH64 of bytes 0..20, seed HEADER_CHECKSUM_SEED)
//! 28      8     payload checksum (XXH64 of the edge bytes, seed PAYLOAD_CHECKSUM_SEED)
//! 36      8·m   edges: (src: u32, dst: u32) little-endian pairs
//! ```
//!
//! Any other version (including the retired, checksum-free version 1) is
//! rejected at open. The payload offset is a multiple of 4, so an mmap'd
//! payload is always `u32`-aligned.
//!
//! The checksums are computed with the workspace's own XXH64
//! ([`hep_ds::hasher`]) under distinct section seeds. The header checksum
//! is verified at [`BinaryEdgeFile::open`] **before** `num_vertices` /
//! `num_edges` are trusted, so a forged count can never reach an
//! allocation. The payload checksum is verified incrementally during every
//! complete pass and reported as the final item of the pass iterator —
//! corruption that still decodes as in-range pairs (payload bit flips) is
//! caught the first time the bytes are actually read.
//!
//! # Pass backends
//!
//! A pass reads through one of two private backends: buffered reads
//! (`BufReader` `fill_buf`/`consume`) or a private read-only file mapping
//! (the OS pages edge data in and out, so a pass over a file much larger
//! than RAM needs no heap proportional to the file). A file's [`IoMode`]
//! picks the backend for its own [`BinaryEdgeFile::pass`] calls: `Mmap`
//! by default, changed per file with [`BinaryEdgeFile::with_io_mode`].
//! A mapped pass falls back to buffered reads whenever mapping is
//! unavailable (non-unix hosts, mapping failure). A HEP run does not read
//! the mode of the file it is handed: it applies its own
//! `HepConfig::io_mode` (in `hep-core`) to the input and to its h2h spill.
//! Both backends feed the same decoder, [`EdgePass`], which decodes up to
//! 4096 records per refill into a reused buffer, so yielding
//! an edge is an index bump; the two backends are bit-identical in output
//! and in error behavior.

use crate::degrees::DegreeStats;
use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::types::Edge;
use hep_ds::hasher::{hash64, Hasher64};
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The 4-byte magic opening every headered edge file.
pub const MAGIC: [u8; 4] = *b"HEPB";

/// The format version, the only one [`BinaryEdgeFile::open`] accepts.
pub const VERSION: u32 = 2;

/// Header length in bytes (also the payload offset).
pub const HEADER_LEN: u64 = 36;

/// Length of the header prefix the header checksum covers (magic,
/// version, `num_vertices`, `num_edges`).
const CHECKED_HEADER_LEN: usize = 20;

/// Seed of the header-section checksum. Distinct from the payload seed so
/// a header digest can never validate a payload (and vice versa).
pub const HEADER_CHECKSUM_SEED: u64 = 0x4845_5042_0000_0002;

/// Seed of the payload-section checksum.
pub const PAYLOAD_CHECKSUM_SEED: u64 = 0x4845_5042_0000_0003;

/// Read-buffer capacity of a buffered streaming pass. One `fill_buf`
/// amortizes the syscall over ~128k edges.
const PASS_BUF: usize = 1 << 20;

/// Most records an [`EdgePass`] decodes per refill (32 KiB of decoded
/// edges): large enough that the per-refill `dyn PassSource` calls and
/// checksum update vanish next to the per-edge work, small enough to stay
/// in L1/L2 between decode and use.
const DECODE_BLOCK: usize = 4096;

/// Payload bytes an [`EdgeFileWriter`] hashes and writes at a time.
const WRITE_BLOCK: usize = 1 << 16;

/// How passes read the file. A file opens with the default, [`IoMode::Mmap`];
/// [`BinaryEdgeFile::with_io_mode`] changes it for that file's passes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IoMode {
    /// Always use buffered reads.
    Buffered,
    /// Request a memory-mapped pass; falls back to buffered reads when
    /// mapping is unavailable (non-unix hosts, mapping failure).
    #[default]
    Mmap,
}

/// Which backend a pass actually ended up on (after fallback).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoBackend {
    /// `BufReader` over the file.
    Buffered,
    /// Read-only private memory mapping.
    Mmap,
}

/// A source of payload bytes for one pass. `fill` exposes the next chunk
/// of unread bytes (empty at end of data); `consume` marks a prefix of
/// that chunk as read. The contract mirrors [`BufRead`], which lets the
/// decoder work zero-copy against either backend.
trait PassSource: std::fmt::Debug + Send {
    /// The next chunk of unread payload bytes. An empty slice means no
    /// more data.
    fn fill(&mut self) -> std::io::Result<&[u8]>;

    /// Marks `n` bytes of the chunk last returned by `fill` as consumed.
    fn consume(&mut self, n: usize);

    /// Which backend this is (tests and reports).
    fn backend(&self) -> IoBackend;
}

/// Buffered [`PassSource`]: a `BufReader` positioned past the header.
#[derive(Debug)]
struct BufferedSource {
    reader: BufReader<File>,
}

impl BufferedSource {
    fn new(mut file: File, payload_offset: u64) -> std::io::Result<BufferedSource> {
        file.seek(SeekFrom::Start(payload_offset))?;
        Ok(BufferedSource { reader: BufReader::with_capacity(PASS_BUF, file) })
    }
}

impl PassSource for BufferedSource {
    fn fill(&mut self) -> std::io::Result<&[u8]> {
        self.reader.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        self.reader.consume(n);
    }

    fn backend(&self) -> IoBackend {
        IoBackend::Buffered
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod mmap_impl {
    //! A minimal read-only private file mapping. The workspace vendors no
    //! `libc` crate, but `std` already links the platform C library, so the
    //! two syscall wrappers are declared directly. Gated to 64-bit unix:
    //! there `off_t` is 64-bit and `size_t` matches `usize`, which the
    //! declarations below assume.
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, length: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// An owned read-only mapping of a file's first `len` bytes.
    #[derive(Debug)]
    pub struct MmapRegion {
        ptr: std::ptr::NonNull<u8>,
        len: usize,
    }

    // SAFETY: the mapping is read-only and private; the region owns it
    // exclusively and nothing mutates through it, so moving it to another
    // thread is sound.
    unsafe impl Send for MmapRegion {}
    // SAFETY: all access is through `&self` over immutable PROT_READ
    // pages (a private mapping, so no other process writes them either);
    // concurrent readers cannot observe a data race.
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        /// Maps `len` bytes of `file` read-only. `None` when the kernel
        /// refuses (the caller falls back to buffered reads).
        pub fn map(file: &File, len: usize) -> Option<MmapRegion> {
            if len == 0 {
                return None;
            }
            // SAFETY: a fresh anonymous-address read-only private mapping
            // of an open fd; the result is checked against MAP_FAILED
            // before use.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as isize == -1 {
                return None;
            }
            Some(MmapRegion { ptr: std::ptr::NonNull::new(ptr.cast())?, len })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, unmapped only in Drop.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are the exact values returned by mmap.
            unsafe {
                munmap(self.ptr.as_ptr().cast(), self.len);
            }
        }
    }
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
mod mmap_impl {
    //! Stub for hosts without the mapping path: `map` always declines, so
    //! every pass falls back to buffered reads.
    use std::fs::File;

    /// Uninhabited: no mapping ever exists on this host.
    #[derive(Debug)]
    pub enum MmapRegion {}

    impl MmapRegion {
        pub fn map(_file: &File, _len: usize) -> Option<MmapRegion> {
            None
        }

        pub fn bytes(&self) -> &[u8] {
            match *self {}
        }
    }
}

/// Memory-mapped [`PassSource`]: the whole file is mapped read-only and
/// `fill` exposes the unread payload suffix as one contiguous slice. The
/// OS faults pages in on demand and may evict them behind the read cursor,
/// so a pass needs no heap proportional to the file.
#[derive(Debug)]
struct MmapSource {
    region: mmap_impl::MmapRegion,
    pos: usize,
}

impl MmapSource {
    /// Maps `file` (of current length `len`) and positions the cursor at
    /// `payload_offset`. `None` when mapping is unavailable.
    fn map(file: &File, len: u64, payload_offset: u64) -> Option<MmapSource> {
        let len = usize::try_from(len).ok()?;
        let region = mmap_impl::MmapRegion::map(file, len)?;
        let pos = usize::try_from(payload_offset).ok()?.min(len);
        Some(MmapSource { region, pos })
    }
}

impl PassSource for MmapSource {
    fn fill(&mut self) -> std::io::Result<&[u8]> {
        Ok(&self.region.bytes()[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.region.bytes().len());
    }

    fn backend(&self) -> IoBackend {
        IoBackend::Mmap
    }
}

/// A zero-copy view of `bytes` as little-endian `u32` words, available
/// only when the slice is 4-aligned and the host is little-endian (the
/// file format is little-endian, so on such hosts the words need no
/// byte-swapping). Returns `None` otherwise — callers must keep a byte
/// decoder fallback, which is what makes the view safe to use
/// opportunistically: mmap'd payloads are page-aligned and both header
/// lengths are multiples of 4, so the fast path is the common one.
fn u32_word_view(bytes: &[u8]) -> Option<&[u32]> {
    if cfg!(target_endian = "big") {
        return None;
    }
    // SAFETY: u32 has no invalid bit patterns and `align_to` guarantees
    // the middle slice is correctly aligned.
    let (prefix, words, _tail) = unsafe { bytes.align_to::<u32>() };
    if prefix.is_empty() {
        Some(words)
    } else {
        None
    }
}

/// A validated, headered binary edge file on disk. Opening checks the
/// magic, version, header checksum and that the payload length matches
/// `num_edges`; passes over the edges are streaming, repeatable and
/// checksum-verified.
#[derive(Clone, Debug)]
pub struct BinaryEdgeFile {
    path: PathBuf,
    num_vertices: u32,
    num_edges: u64,
    /// The payload checksum recorded in the header.
    payload_checksum: u64,
    io_mode: IoMode,
}

impl BinaryEdgeFile {
    /// Writes `graph` to `path` in the current (v2, checksummed) format.
    pub fn write(path: impl AsRef<Path>, graph: &EdgeList) -> Result<BinaryEdgeFile, GraphError> {
        let mut writer = EdgeFileWriter::create(path, graph.num_vertices)?;
        for &e in &graph.edges {
            writer.push(e);
        }
        Ok(writer.finish()?)
    }

    /// Opens and validates a headered edge file.
    pub fn open(path: impl AsRef<Path>) -> Result<BinaryEdgeFile, GraphError> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut r = BufReader::new(file);
        let mut header = [0u8; HEADER_LEN as usize];
        let read_to = |r: &mut BufReader<File>, buf: &mut [u8]| {
            std::io::Read::read_exact(r, buf)
                .map_err(|_| GraphError::BadHeader(format!("file too short ({len} bytes)")))
        };
        read_to(&mut r, &mut header[..8])?;
        if header[0..4] != MAGIC {
            return Err(GraphError::BadHeader("missing HEPB magic".into()));
        }
        let version = hep_ds::bytes::u32_le_at(&header, 4);
        if version != VERSION {
            return Err(GraphError::BadHeader(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        read_to(&mut r, &mut header[8..])?;
        // Verify the header checksum before trusting a single field: a
        // forged num_edges must never reach the length arithmetic below,
        // let alone an allocation.
        let expected = hep_ds::bytes::u64_le_at(&header, CHECKED_HEADER_LEN);
        let actual = hash64(&header[..CHECKED_HEADER_LEN], HEADER_CHECKSUM_SEED);
        if actual != expected {
            return Err(GraphError::ChecksumMismatch { section: "header", expected, actual });
        }
        let payload_checksum = hep_ds::bytes::u64_le_at(&header, 28);
        let num_vertices = hep_ds::bytes::u32_le_at(&header, 8);
        let num_edges = hep_ds::bytes::u64_le_at(&header, 12);
        // Checked arithmetic: a forged `num_edges` near `u64::MAX / 8`
        // with a re-fitted header checksum would otherwise wrap the
        // expected length around to match a tiny file, and the huge count
        // would then reach `Vec::with_capacity` in
        // [`BinaryEdgeFile::load`].
        let expected = num_edges
            .checked_mul(8)
            .and_then(|payload| payload.checked_add(HEADER_LEN))
            .ok_or_else(|| {
                GraphError::BadHeader(format!(
                    "implausible num_edges {num_edges}: implied payload overflows u64"
                ))
            })?;
        if len != expected {
            return Err(GraphError::BadHeader(format!(
                "payload length mismatch: {len} bytes on disk, header implies {expected}"
            )));
        }
        Ok(BinaryEdgeFile {
            path: path.to_path_buf(),
            num_vertices,
            num_edges,
            payload_checksum,
            io_mode: IoMode::default(),
        })
    }

    /// Declared vertex-id space (vertex ids are `0..num_vertices`).
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Declared edge count.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// The on-disk path.
    #[inline]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The payload checksum recorded in the header.
    #[inline]
    pub fn payload_checksum(&self) -> u64 {
        self.payload_checksum
    }

    /// Sets the pass IO mode of this file's own [`BinaryEdgeFile::pass`]
    /// calls.
    #[must_use]
    pub fn with_io_mode(mut self, mode: IoMode) -> BinaryEdgeFile {
        self.io_mode = mode;
        self
    }

    /// Starts a streaming pass over the edges. Each call reopens the file,
    /// so passes are repeatable (HEP's graph build takes two: degrees, then
    /// one insertion pass). The pass verifies the payload
    /// checksum as it reads; the mismatch, if any, is the final item the
    /// iterator yields.
    pub fn pass(&self) -> Result<EdgePass, GraphError> {
        let file = File::open(&self.path)?;
        let len = file.metadata()?.len();
        // Validated at open time; a shorter file now means it shrank
        // underneath us. Below the header that is a header error (matching
        // open's behavior); mid-payload the pass starts and ends in
        // `TruncatedBinary`, identically on both backends.
        if len < HEADER_LEN {
            return Err(GraphError::BadHeader(
                "file truncated below header size since open".into(),
            ));
        }
        let source: Box<dyn PassSource> = if self.io_mode == IoMode::Buffered {
            Box::new(BufferedSource::new(file, HEADER_LEN)?)
        } else {
            match MmapSource::map(&file, len, HEADER_LEN) {
                Some(s) => Box::new(s),
                None => Box::new(BufferedSource::new(file, HEADER_LEN)?),
            }
        };
        Ok(EdgePass::new(source, self.num_edges, self.payload_checksum))
    }

    /// One streaming pass computing [`DegreeStats`] at threshold factor
    /// `tau`, without materializing the edges. Out-of-range vertex ids are
    /// rejected (the header's `num_vertices` is a contract).
    pub fn degree_stats(&self, tau: f64) -> Result<DegreeStats, GraphError> {
        let n = self.num_vertices;
        let mut degrees = vec![0u32; n as usize];
        for e in self.pass()? {
            let e = e?;
            let m = e.src.max(e.dst);
            if m >= n {
                return Err(GraphError::VertexOutOfRange { vertex: m, num_vertices: n });
            }
            degrees[e.src as usize] += 1;
            degrees[e.dst as usize] += 1;
        }
        let mean = if n == 0 { 0.0 } else { 2.0 * self.num_edges as f64 / n as f64 };
        Ok(DegreeStats::from_degrees(degrees, mean, tau))
    }

    /// Materializes the whole file as an [`EdgeList`] (tests, diagnostics
    /// and consumers that need random access).
    pub fn load(&self) -> Result<EdgeList, GraphError> {
        let mut edges = Vec::with_capacity(self.num_edges as usize);
        for e in self.pass()? {
            edges.push(e?);
        }
        EdgeList::with_vertices(self.num_vertices, edges.into_iter().map(|e| (e.src, e.dst)))
    }
}

/// The v2 header of a file with the given counts and payload checksum.
fn v2_header(
    num_vertices: u32,
    num_edges: u64,
    payload_checksum: u64,
) -> [u8; HEADER_LEN as usize] {
    let mut head = [0u8; HEADER_LEN as usize];
    head[0..4].copy_from_slice(&MAGIC);
    head[4..8].copy_from_slice(&VERSION.to_le_bytes());
    head[8..12].copy_from_slice(&num_vertices.to_le_bytes());
    head[12..20].copy_from_slice(&num_edges.to_le_bytes());
    let header_checksum = hash64(&head[..CHECKED_HEADER_LEN], HEADER_CHECKSUM_SEED);
    head[20..28].copy_from_slice(&header_checksum.to_le_bytes());
    head[28..36].copy_from_slice(&payload_checksum.to_le_bytes());
    head
}

/// A streaming HEPB v2 writer for edges that arrive one at a time (HEP's
/// h2h spill, discovered during the CSR build). The payload is hashed and
/// written in 64 KiB blocks behind a placeholder header, which
/// [`EdgeFileWriter::finish`] patches with the edge count and both
/// checksums — so the written bytes equal [`BinaryEdgeFile::write`]'s for
/// the same edges. The first IO error is kept, later pushes are dropped,
/// and `finish` reports it: a push never fails mid-build.
#[derive(Debug)]
pub struct EdgeFileWriter {
    file: File,
    path: PathBuf,
    num_vertices: u32,
    num_edges: u64,
    block: Vec<u8>,
    hasher: Hasher64,
    error: Option<std::io::Error>,
}

impl EdgeFileWriter {
    /// Creates (truncates) `path` for a file over vertex ids
    /// `0..num_vertices`.
    pub fn create(path: impl AsRef<Path>, num_vertices: u32) -> std::io::Result<EdgeFileWriter> {
        let path = path.as_ref();
        let mut file = File::create(path)?;
        file.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(EdgeFileWriter {
            file,
            path: path.to_path_buf(),
            num_vertices,
            num_edges: 0,
            block: Vec::with_capacity(WRITE_BLOCK),
            hasher: Hasher64::with_seed(PAYLOAD_CHECKSUM_SEED),
            error: None,
        })
    }

    /// Appends one edge.
    #[inline]
    pub fn push(&mut self, e: Edge) {
        self.block.extend_from_slice(&e.src.to_le_bytes());
        self.block.extend_from_slice(&e.dst.to_le_bytes());
        self.num_edges += 1;
        if self.block.len() >= WRITE_BLOCK {
            self.write_block();
        }
    }

    /// Hashes and writes the buffered block (dropped after an IO error).
    fn write_block(&mut self) {
        if self.error.is_none() {
            self.hasher.write(&self.block);
            if let Err(err) = self.file.write_all(&self.block) {
                self.error = Some(err);
            }
        }
        self.block.clear();
    }

    /// Writes the last block and the final header; returns the first IO
    /// error of the whole write, if any.
    pub fn finish(mut self) -> std::io::Result<BinaryEdgeFile> {
        self.write_block();
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        let payload_checksum = self.hasher.finish();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&v2_header(self.num_vertices, self.num_edges, payload_checksum))?;
        Ok(BinaryEdgeFile {
            path: self.path,
            num_vertices: self.num_vertices,
            num_edges: self.num_edges,
            payload_checksum,
            io_mode: IoMode::default(),
        })
    }
}

/// A streaming pass over a [`BinaryEdgeFile`]. Each refill decodes up to
/// 4096 whole records from the backend's buffer (or mapping)
/// into a reused block — through the aligned zero-copy `u32_word_view`
/// when available, byte by byte otherwise — and hashes their bytes once;
/// `next()` then only bumps an index. A record split across two buffer
/// fills is reassembled in an 8-byte carry. The digest is checked against
/// the header after the last edge.
#[derive(Debug)]
pub struct EdgePass {
    source: Box<dyn PassSource>,
    /// Records not yet decoded.
    remaining: u64,
    /// The decoded block and the index of its next edge.
    block: Vec<Edge>,
    pos: usize,
    carry: Vec<u8>,
    /// Running payload hash.
    hasher: Hasher64,
    /// The header's payload checksum, `take`n once verified (or once the
    /// pass dies — a failed pass must not also report a bogus mismatch).
    expected_checksum: Option<u64>,
}

impl EdgePass {
    /// A pass over `num_edges` records read from `source`, verified
    /// against `payload_checksum`.
    fn new(source: Box<dyn PassSource>, num_edges: u64, payload_checksum: u64) -> Self {
        EdgePass {
            source,
            remaining: num_edges,
            block: Vec::with_capacity(num_edges.min(DECODE_BLOCK as u64) as usize),
            pos: 0,
            carry: Vec::new(),
            hasher: Hasher64::with_seed(PAYLOAD_CHECKSUM_SEED),
            expected_checksum: Some(payload_checksum),
        }
    }

    /// Which backend this pass reads through (after any fallback).
    pub fn backend(&self) -> IoBackend {
        self.source.backend()
    }

    /// Ends the pass: verifies the payload checksum if one is pending.
    /// Returns the mismatch error at most once.
    fn finish_checksum(&mut self) -> Option<GraphError> {
        let expected = self.expected_checksum.take()?;
        let actual = self.hasher.finish();
        if actual != expected {
            return Some(GraphError::ChecksumMismatch { section: "payload", expected, actual });
        }
        None
    }

    /// Fuses the pass after a terminal error: no further edges, and no
    /// spurious checksum verdict from a partial hash.
    fn fuse(&mut self) {
        self.remaining = 0;
        self.expected_checksum = None;
    }

    /// The slow path of `next()`: the block is used up, so decode the next
    /// one (or reassemble a straddling record, or end the pass).
    #[inline(never)]
    fn refill(&mut self) -> Option<Result<Edge, GraphError>> {
        self.block.clear();
        self.pos = 0;
        if self.remaining == 0 {
            // The edges are all out; what may remain is the checksum
            // verdict, reported at most once.
            return self.finish_checksum().map(Err);
        }
        loop {
            let buf = match self.source.fill() {
                Ok(b) => b,
                Err(e) => {
                    // Fuse: an errored pass is dead. Without this, a
                    // consumer draining the iterator (`for`, `last`, ...)
                    // would receive the error forever and never terminate.
                    self.fuse();
                    return Some(Err(GraphError::Io(e)));
                }
            };
            if buf.is_empty() {
                // Validated length at open time; hitting EOF early means the
                // file changed underneath us. Fused for the same reason as
                // the IO arm: EOF is permanent.
                let bytes = self.carry.len();
                self.fuse();
                return Some(Err(GraphError::TruncatedBinary { bytes }));
            }
            if self.carry.is_empty() && buf.len() >= 8 {
                let records =
                    ((buf.len() / 8).min(DECODE_BLOCK) as u64).min(self.remaining) as usize;
                let bytes = &buf[..records * 8];
                self.hasher.write(bytes);
                match u32_word_view(bytes) {
                    Some(words) => self
                        .block
                        .extend(words.chunks_exact(2).map(|pair| Edge::new(pair[0], pair[1]))),
                    None => self.block.extend(bytes.chunks_exact(8).map(|rec| {
                        Edge::new(
                            hep_ds::bytes::u32_le_at(rec, 0),
                            hep_ds::bytes::u32_le_at(rec, 4),
                        )
                    })),
                }
                self.source.consume(records * 8);
                self.remaining -= records as u64;
                self.pos = 1;
                return self.block.first().map(|&e| Ok(e));
            }
            // Slow path: buffer boundary splits the record.
            let take = (8 - self.carry.len()).min(buf.len());
            self.carry.extend_from_slice(&buf[..take]);
            self.hasher.write(&buf[..take]);
            self.source.consume(take);
            if self.carry.len() == 8 {
                let e = Edge::new(
                    hep_ds::bytes::u32_le_at(&self.carry, 0),
                    hep_ds::bytes::u32_le_at(&self.carry, 4),
                );
                self.carry.clear();
                self.remaining -= 1;
                return Some(Ok(e));
            }
        }
    }
}

impl Iterator for EdgePass {
    type Item = Result<Edge, GraphError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self.block.get(self.pos) {
            Some(&e) => {
                self.pos += 1;
                Some(Ok(e))
            }
            None => self.refill(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hep_binfile_test_{}_{}", std::process::id(), name));
        p
    }

    fn sample() -> EdgeList {
        EdgeList::with_vertices(12, [(0u32, 5u32), (3, 4), (11, 2), (7, 7), (0, 1)]).unwrap()
    }

    /// Writes a forged file whose header claims `num_vertices` and
    /// `num_edges` over `payload`, with both checksums recomputed so it
    /// passes every integrity check: only the semantic guards are left to
    /// catch the forgery.
    fn forge(p: &Path, num_vertices: u32, num_edges: u64, payload: &[u8]) {
        let mut bytes =
            v2_header(num_vertices, num_edges, hash64(payload, PAYLOAD_CHECKSUM_SEED)).to_vec();
        bytes.extend_from_slice(payload);
        std::fs::write(p, bytes).unwrap();
    }

    #[test]
    fn roundtrip_preserves_header_and_edges() {
        let g = sample();
        let p = tmp("roundtrip");
        BinaryEdgeFile::write(&p, &g).unwrap();
        let f = BinaryEdgeFile::open(&p).unwrap();
        assert_eq!(f.num_vertices(), 12);
        assert_eq!(f.num_edges(), 5);
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!(
            f.payload_checksum(),
            hash64(&bytes[HEADER_LEN as usize..], PAYLOAD_CHECKSUM_SEED)
        );
        let back = f.load().unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(back, g);
    }

    #[test]
    fn version_1_header_is_unsupported() {
        // The retired checksum-free layout: magic, version 1, counts, then
        // the payload straight after a 20-byte header.
        let p = tmp("v1");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&12u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0, 5, 0, 0, 0]);
        std::fs::write(&p, bytes).unwrap();
        let err = BinaryEdgeFile::open(&p).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(
            matches!(&err, GraphError::BadHeader(m) if m.contains("unsupported version 1")),
            "got {err}"
        );
    }

    #[test]
    fn passes_are_repeatable() {
        let g = sample();
        let p = tmp("repeat");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        let a: Vec<Edge> = f.pass().unwrap().collect::<Result<_, _>>().unwrap();
        let b: Vec<Edge> = f.pass().unwrap().collect::<Result<_, _>>().unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(a, g.edges);
        assert_eq!(a, b);
    }

    #[test]
    fn mmap_and_buffered_backends_agree() {
        let g = sample();
        let p = tmp("backends");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        let buffered = f.clone().with_io_mode(IoMode::Buffered);
        let mapped = f.clone().with_io_mode(IoMode::Mmap);
        assert_eq!(buffered.pass().unwrap().backend(), IoBackend::Buffered);
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert_eq!(mapped.pass().unwrap().backend(), IoBackend::Mmap);
        let a: Vec<Edge> = buffered.pass().unwrap().collect::<Result<_, _>>().unwrap();
        let b: Vec<Edge> = mapped.pass().unwrap().collect::<Result<_, _>>().unwrap();
        let da = buffered.degree_stats(2.0).unwrap();
        let db = mapped.degree_stats(2.0).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(a, b);
        assert_eq!(da, db);
    }

    /// A test-only source that hands the payload out in chunks of 1..=13
    /// bytes (cycling), so records straddle chunk boundaries and the carry
    /// path runs — the file backends never split a record.
    #[derive(Debug)]
    struct ChunkedSource {
        bytes: Vec<u8>,
        pos: usize,
        chunks: usize,
    }

    impl PassSource for ChunkedSource {
        fn fill(&mut self) -> std::io::Result<&[u8]> {
            let end = (self.pos + self.chunks % 13 + 1).min(self.bytes.len());
            Ok(&self.bytes[self.pos..end])
        }

        fn consume(&mut self, n: usize) {
            self.pos += n;
            self.chunks += 1;
        }

        fn backend(&self) -> IoBackend {
            IoBackend::Buffered
        }
    }

    /// Drains a pass into its edges and its terminal error, if any.
    fn drain(pass: EdgePass) -> (Vec<Edge>, Option<String>) {
        let mut edges = Vec::new();
        for item in pass {
            match item {
                Ok(e) => edges.push(e),
                Err(err) => return (edges, Some(format!("{err:?}"))),
            }
        }
        (edges, None)
    }

    /// A larger pseudo-random graph: several decode blocks and write blocks.
    fn many_edges() -> EdgeList {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let pairs = (0..20_000).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 3000) as u32, (state >> 32) as u32 % 3000)
        });
        EdgeList::with_vertices(3000, pairs).unwrap()
    }

    #[test]
    fn chunked_source_decodes_like_the_buffered_backend() {
        for (name, g) in [("sample", sample()), ("many", many_edges())] {
            let p = tmp(&format!("chunked_{name}"));
            let f = BinaryEdgeFile::write(&p, &g).unwrap().with_io_mode(IoMode::Buffered);
            let pristine = std::fs::read(&p).unwrap();
            let header = HEADER_LEN as usize;
            let chunked = |bytes: &[u8]| {
                let source = ChunkedSource { bytes: bytes[header..].to_vec(), pos: 0, chunks: 0 };
                drain(EdgePass::new(Box::new(source), f.num_edges(), f.payload_checksum()))
            };
            // Pristine: the same edges, no error.
            let want = drain(f.pass().unwrap());
            assert_eq!(want, (g.edges.clone(), None), "{name}: buffered pass");
            assert_eq!(chunked(&pristine), want, "{name}: pristine");
            // A flipped payload byte: the same edges up to the same
            // payload ChecksumMismatch.
            let mut flipped = pristine.clone();
            flipped[header + 8 * (g.edges.len() / 2) + 1] ^= 0x10;
            std::fs::write(&p, &flipped).unwrap();
            let want = drain(f.pass().unwrap());
            assert!(want.1.as_deref().is_some_and(|e| e.contains("ChecksumMismatch")), "{want:?}");
            assert_eq!(chunked(&flipped), want, "{name}: flipped byte");
            // A short payload: the same TruncatedBinary, carry included.
            let short = &pristine[..header + 8 * 3 + 5];
            std::fs::write(&p, short).unwrap();
            let want = drain(f.pass().unwrap());
            assert_eq!(want.1.as_deref(), Some("TruncatedBinary { bytes: 5 }"), "{name}");
            assert_eq!(chunked(short), want, "{name}: short payload");
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn streaming_writer_bytes_equal_the_file_format() {
        for (name, g) in [("sample", sample()), ("many", many_edges())] {
            // The expected bytes, assembled independently of the writer:
            // the header fields, then the payload, hashed in one shot.
            let payload: Vec<u8> = g
                .edges
                .iter()
                .flat_map(|e| e.src.to_le_bytes().into_iter().chain(e.dst.to_le_bytes()))
                .collect();
            let mut want = Vec::new();
            want.extend_from_slice(&MAGIC);
            want.extend_from_slice(&VERSION.to_le_bytes());
            want.extend_from_slice(&g.num_vertices.to_le_bytes());
            want.extend_from_slice(&g.num_edges().to_le_bytes());
            want.extend_from_slice(&hash64(&want, HEADER_CHECKSUM_SEED).to_le_bytes());
            want.extend_from_slice(&hash64(&payload, PAYLOAD_CHECKSUM_SEED).to_le_bytes());
            want.extend_from_slice(&payload);

            let p = tmp(&format!("writer_{name}"));
            let mut w = EdgeFileWriter::create(&p, g.num_vertices).unwrap();
            for &e in &g.edges {
                w.push(e);
            }
            let streamed = w.finish().unwrap();
            assert_eq!(std::fs::read(&p).unwrap(), want, "{name}: streaming writer");
            assert_eq!(streamed.num_edges(), g.num_edges());
            BinaryEdgeFile::write(&p, &g).unwrap();
            assert_eq!(std::fs::read(&p).unwrap(), want, "{name}: BinaryEdgeFile::write");
            assert_eq!(BinaryEdgeFile::open(&p).unwrap().load().unwrap(), g);
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn written_spill_with_a_flipped_byte_fails_its_pass() {
        let g = many_edges();
        let p = tmp("spill_flip");
        let mut w = EdgeFileWriter::create(&p, g.num_vertices).unwrap();
        for &e in &g.edges {
            w.push(e);
        }
        let spill = w.finish().unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        for mode in [IoMode::Buffered, IoMode::Mmap] {
            let (edges, err) = drain(spill.clone().with_io_mode(mode).pass().unwrap());
            assert_eq!(edges.len(), g.edges.len(), "{mode:?}: every edge decodes");
            let err = err.unwrap_or_default();
            assert!(err.contains("ChecksumMismatch") && err.contains("payload"), "{mode:?}: {err}");
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn degree_stats_match_in_memory_pass() {
        let g = sample();
        let p = tmp("degrees");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        let from_file = f.degree_stats(2.0).unwrap();
        std::fs::remove_file(&p).ok();
        let in_memory = DegreeStats::new(&g, 2.0);
        assert_eq!(from_file, in_memory);
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_mismatch() {
        let g = sample();
        let p = tmp("payload_flip");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip a low bit of the first edge's src: still an in-range pair,
        // so only the checksum can catch it.
        bytes[HEADER_LEN as usize] ^= 1;
        std::fs::write(&p, &bytes).unwrap();
        let collected: Result<Vec<Edge>, GraphError> = f.pass().unwrap().collect();
        let err = collected.unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(
            matches!(err, GraphError::ChecksumMismatch { section: "payload", .. }),
            "got {err}"
        );
    }

    #[test]
    fn header_field_flip_is_a_checksum_mismatch() {
        let g = sample();
        let p = tmp("header_flip");
        BinaryEdgeFile::write(&p, &g).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip the high bit of num_edges: the header checksum rejects it
        // before the length check ever sees the count.
        bytes[19] ^= 0x80;
        std::fs::write(&p, &bytes).unwrap();
        let err = BinaryEdgeFile::open(&p).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(matches!(err, GraphError::ChecksumMismatch { section: "header", .. }), "got {err}");
    }

    #[test]
    fn u32_word_view_requires_alignment() {
        let buf = [0u8; 16];
        let (aligned, rest) = if (buf.as_ptr() as usize).is_multiple_of(4) {
            (&buf[..8], &buf[1..9])
        } else {
            (&buf[3..11], &buf[..8])
        };
        if cfg!(target_endian = "little") {
            assert_eq!(u32_word_view(aligned), Some(&[0u32, 0][..]));
            // The misaligned slice must be declined, never mis-read.
            assert_eq!(u32_word_view(rest), None);
        } else {
            assert_eq!(u32_word_view(aligned), None);
        }
    }

    #[test]
    fn rejects_bad_magic_version_and_length() {
        let p = tmp("badmagic");
        std::fs::write(&p, b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")
            .unwrap();
        assert!(matches!(BinaryEdgeFile::open(&p), Err(GraphError::BadHeader(_))));
        std::fs::remove_file(&p).ok();

        let p = tmp("badversion");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        std::fs::write(&p, bytes).unwrap();
        let err = BinaryEdgeFile::open(&p).unwrap_err();
        assert!(matches!(&err, GraphError::BadHeader(m) if m.contains("version")), "got {err}");
        std::fs::remove_file(&p).ok();

        let p = tmp("badlen");
        let g = sample();
        BinaryEdgeFile::write(&p, &g).unwrap();
        // Append a stray byte: payload no longer matches the header.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
            f.write_all(&[0u8]).unwrap();
        }
        assert!(matches!(BinaryEdgeFile::open(&p), Err(GraphError::BadHeader(_))));
        std::fs::remove_file(&p).ok();

        let p = tmp("short");
        std::fs::write(&p, b"HE").unwrap();
        assert!(matches!(BinaryEdgeFile::open(&p), Err(GraphError::BadHeader(_))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn forged_overflowing_edge_count_is_rejected() {
        // num_edges = 2^61 makes `8 * num_edges` wrap to 0, so an
        // unchecked length check would accept a header-only file and
        // `load()` would attempt a 2^61-element allocation. The header
        // checksum is recomputed over the forged count, so only the
        // checked arithmetic stands in the way.
        let p = tmp("forged");
        forge(&p, 4, 1u64 << 61, &[]);
        let err = BinaryEdgeFile::open(&p).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(matches!(err, GraphError::BadHeader(_)), "got {err}");
        assert!(err.to_string().contains("overflow"), "got {err}");

        // The same forgery without recomputing the checksum dies earlier,
        // at header verification.
        let p = tmp("forged_unfitted");
        let g = sample();
        BinaryEdgeFile::write(&p, &g).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[12..20].copy_from_slice(&(1u64 << 61).to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let err = BinaryEdgeFile::open(&p).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(matches!(err, GraphError::ChecksumMismatch { section: "header", .. }), "got {err}");
    }

    #[test]
    fn shrunk_file_fails_passes_with_typed_errors() {
        let g = sample();
        let p = tmp("shrunk");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        // Shrink below the header: starting a pass reports the bad header.
        let handle = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        handle.set_len(10).unwrap();
        assert!(matches!(f.pass().unwrap_err(), GraphError::BadHeader(_)));
        // Shrink mid-payload: the pass starts but ends in TruncatedBinary.
        BinaryEdgeFile::write(&p, &g).unwrap();
        let handle = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        handle.set_len(HEADER_LEN + 8 * 2 + 3).unwrap();
        // `last()` drains the iterator: the error must fuse the pass (one
        // Err, then None), or this would loop forever. Buffered backend
        // forced — with mmap the shrink-after-map race is OS-level.
        let last = f.clone().with_io_mode(IoMode::Buffered).pass().unwrap().last().unwrap();
        std::fs::remove_file(&p).ok();
        assert!(matches!(last, Err(GraphError::TruncatedBinary { bytes: 3 })), "got {last:?}");
    }

    #[test]
    fn out_of_range_vertex_fails_degree_pass() {
        let p = tmp("oor");
        // A checksum-valid file whose header claims 3 vertices but holds
        // edge (0, 9).
        forge(&p, 3, 1, &[0, 0, 0, 0, 9, 0, 0, 0]);
        let f = BinaryEdgeFile::open(&p).unwrap();
        let err = f.degree_stats(1.0).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: 9, .. }));
    }

    #[test]
    fn empty_graph_file_is_fine() {
        let g = EdgeList::with_vertices(4, std::iter::empty()).unwrap();
        let p = tmp("empty");
        let f = BinaryEdgeFile::write(&p, &g).unwrap();
        assert_eq!(f.pass().unwrap().count(), 0);
        let stats = f.degree_stats(1.0).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(stats.degrees, vec![0; 4]);
    }
}
