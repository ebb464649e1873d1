//! The on-disk container: header, CRC-framed blocks, footer index.
//!
//! ```text
//! offset 0   header    magic "OSLTRC01" (8) | version u16 | flags u16 |
//!                      block_events u32                        (16 bytes)
//! ...        blocks    payload_len u32 | event_count u32 |
//!                      payload bytes   | crc32(payload) u32
//! ...        footer    block_count u64 |
//!                      { offset u64, payload_len u32, event_count u32,
//!                        crc u32 } per block |
//!                      total_events u64 | os_blocks u64 | app_blocks u64 |
//!                      invocations[4] u64
//! EOF-24     trailer   footer_offset u64 | footer_len u32 |
//!                      crc32(footer) u32 | end magic "OSLTREND" (8)
//! ```
//!
//! All integers are little-endian. Each block payload decodes with no
//! outside state (the codec resets at block boundaries), so a reader can
//! seek to any [`BlockEntry`], CRC-check it, and decode it independently —
//! that is what `trace verify --threads N` fans out over.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use oslay_model::Domain;
use oslay_trace::{TraceEvent, TraceSink};

use crate::codec::{decode_payload_into, BlockEncoder};
use crate::crc32::crc32;

/// Leading file magic; the trailing two bytes version the container.
pub const MAGIC: [u8; 8] = *b"OSLTRC01";
/// Magic closing the trailer; its absence means a truncated file.
pub const END_MAGIC: [u8; 8] = *b"OSLTREND";
const VERSION: u16 = 1;
const HEADER_LEN: u64 = 16;
const TRAILER_LEN: u64 = 24;
const INDEX_ENTRY_LEN: usize = 20;
/// Bytes a fixed-width encoding needs per event: a one-byte kind
/// discriminant plus the widest payload (a `u32` block id).
/// Compression ratios are quoted against this, not against the 8-byte
/// in-memory `TraceEvent`, so they do not flatter the codec.
pub const RAW_EVENT_BYTES: u64 = 5;

/// Default events per block: big enough to amortize framing to noise,
/// small enough that a shard or a corruption report stays fine-grained.
pub const DEFAULT_BLOCK_EVENTS: u32 = 1 << 16;

/// Everything that can go wrong opening, verifying, or decoding a store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The leading magic is wrong: not a trace store.
    BadMagic {
        /// The bytes found where [`MAGIC`] belongs.
        found: Vec<u8>,
    },
    /// The container version is newer than this reader.
    BadVersion(u16),
    /// The file ends before its structure does (missing or cut trailer).
    Truncated {
        /// What was being read when the bytes ran out.
        detail: String,
    },
    /// The footer index fails its CRC or does not parse.
    CorruptFooter {
        /// What disagreed.
        detail: String,
    },
    /// One block fails its CRC or does not decode. Names the block so a
    /// damaged archive can be triaged from the index alone.
    CorruptBlock {
        /// Zero-based index of the offending block.
        block: usize,
        /// Total blocks in the file.
        of: usize,
        /// What disagreed.
        detail: String,
    },
    /// Decoded stream totals disagree with the footer's counters.
    CountMismatch {
        /// What disagreed.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?}: not an oslay trace store")
            }
            StoreError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            StoreError::Truncated { detail } => write!(f, "truncated store: {detail}"),
            StoreError::CorruptFooter { detail } => write!(f, "corrupt footer: {detail}"),
            StoreError::CorruptBlock { block, of, detail } => {
                write!(f, "corrupt block {block} of {of}: {detail}")
            }
            StoreError::CountMismatch { detail } => write!(f, "count mismatch: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One row of the footer index: where a block lives and what it holds.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct BlockEntry {
    /// Byte offset of the block frame from the start of the file.
    pub offset: u64,
    /// Encoded payload length in bytes.
    pub payload_len: u32,
    /// Events the payload decodes to.
    pub events: u32,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
}

/// Event counters carried in the footer, mirroring
/// [`oslay_trace::Trace`]'s summary counters so `trace inspect` answers
/// without decoding.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct StreamTotals {
    /// Total events of any kind.
    pub events: u64,
    /// OS block executions.
    pub os_blocks: u64,
    /// Application block executions.
    pub app_blocks: u64,
    /// OS invocations per [`oslay_model::SeedKind`] index.
    pub invocations: [u64; 4],
}

impl StreamTotals {
    /// Adds another shard's counters into this one. Sharded verification
    /// counts disjoint block ranges independently and merges them before
    /// comparing against the footer.
    pub fn merge(&mut self, other: &StreamTotals) {
        self.events += other.events;
        self.os_blocks += other.os_blocks;
        self.app_blocks += other.app_blocks;
        for (slot, n) in self.invocations.iter_mut().zip(other.invocations) {
            *slot += n;
        }
    }

    /// Counts a run of events. The per-event counts accumulate in
    /// scalar locals, so a long slice is counted in registers rather
    /// than through memory.
    fn note(&mut self, events: &[TraceEvent]) {
        let (mut os_blocks, mut app_blocks) = (0u64, 0u64);
        for &event in events {
            match event {
                TraceEvent::Block { domain, .. } => match domain {
                    Domain::Os => os_blocks += 1,
                    Domain::App => app_blocks += 1,
                },
                TraceEvent::OsEnter(kind) => self.invocations[kind.index()] += 1,
                TraceEvent::OsExit => {}
            }
        }
        self.events += events.len() as u64;
        self.os_blocks += os_blocks;
        self.app_blocks += app_blocks;
    }
}

/// A [`TraceSink`] that only counts, for verification passes that need to
/// decode without keeping events.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// The totals accumulated so far.
    pub totals: StreamTotals,
}

impl TraceSink for CountingSink {
    fn event(&mut self, event: TraceEvent) {
        self.totals.note(std::slice::from_ref(&event));
    }

    fn events(&mut self, events: &[TraceEvent]) {
        self.totals.note(events);
    }
}

/// What a finished write (or a full verify) measured.
#[derive(Copy, Clone, Debug)]
pub struct StoreSummary {
    /// Blocks written.
    pub blocks: usize,
    /// Stream totals (events, os/app blocks, invocations).
    pub totals: StreamTotals,
    /// Encoded payload bytes, excluding framing.
    pub payload_bytes: u64,
    /// Total file size including header, framing, footer and trailer.
    pub file_bytes: u64,
}

impl StoreSummary {
    /// Bytes the same stream takes in the fixed-width reference encoding
    /// ([`RAW_EVENT_BYTES`] per event).
    #[must_use]
    pub fn raw_fixed_bytes(&self) -> u64 {
        self.totals.events * RAW_EVENT_BYTES
    }

    /// Compression ratio of the whole file (framing and footer included)
    /// over the fixed-width reference encoding.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.file_bytes == 0 {
            return 0.0;
        }
        self.raw_fixed_bytes() as f64 / self.file_bytes as f64
    }

    /// Mean encoded bytes per event, framing included.
    #[must_use]
    pub fn bytes_per_event(&self) -> f64 {
        if self.totals.events == 0 {
            return 0.0;
        }
        self.file_bytes as f64 / self.totals.events as f64
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(bytes.get(*pos..*pos + 4)?.try_into().ok()?);
    *pos += 4;
    Some(v)
}

fn read_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let v = u64::from_le_bytes(bytes.get(*pos..*pos + 8)?.try_into().ok()?);
    *pos += 8;
    Some(v)
}

/// Streams [`TraceEvent`]s into the compressed container.
///
/// Implements [`TraceSink`], so it can sit directly under the trace
/// engine during a live run. Sink delivery cannot surface errors, so I/O
/// failures are held and re-raised by [`TraceWriter::finish`] — nothing
/// is silently dropped.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    inner: W,
    encoder: BlockEncoder,
    index: Vec<BlockEntry>,
    totals: StreamTotals,
    offset: u64,
    payload_bytes: u64,
    block_events: u32,
    deferred_error: Option<std::io::Error>,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates a store at `path` (truncating any existing file).
    ///
    /// # Errors
    ///
    /// Returns any error from creating or writing the file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Self::new(BufWriter::new(File::create(path)?))
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `inner`, writing the container header immediately.
    ///
    /// # Errors
    ///
    /// Returns any error from writing the header.
    pub fn new(inner: W) -> std::io::Result<Self> {
        Self::with_block_events(inner, DEFAULT_BLOCK_EVENTS)
    }

    /// Like [`TraceWriter::new`] with a custom block capacity (events per
    /// block). Small capacities are only useful to exercise multi-block
    /// paths in tests.
    ///
    /// # Errors
    ///
    /// Returns any error from writing the header.
    ///
    /// # Panics
    ///
    /// Panics if `block_events` is zero.
    pub fn with_block_events(mut inner: W, block_events: u32) -> std::io::Result<Self> {
        assert!(block_events > 0, "block capacity must be positive");
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes());
        push_u32(&mut header, block_events);
        inner.write_all(&header)?;
        Ok(Self {
            inner,
            encoder: BlockEncoder::default(),
            index: Vec::new(),
            totals: StreamTotals::default(),
            offset: HEADER_LEN,
            payload_bytes: 0,
            block_events,
            deferred_error: None,
        })
    }

    fn flush_block(&mut self) -> std::io::Result<()> {
        let (payload, events) = self.encoder.take_payload();
        if events == 0 {
            return Ok(());
        }
        let _g = oslay_observe::span_with_args(
            "tracestore.encode.block",
            &[("events", f64::from(events))],
        );
        let crc = crc32(&payload);
        let len = u32::try_from(payload.len()).expect("block payload fits u32");
        self.inner.write_all(&len.to_le_bytes())?;
        self.inner.write_all(&events.to_le_bytes())?;
        self.inner.write_all(&payload)?;
        self.inner.write_all(&crc.to_le_bytes())?;
        self.index.push(BlockEntry {
            offset: self.offset,
            payload_len: len,
            events,
            crc,
        });
        self.offset += 8 + u64::from(len) + 4;
        self.payload_bytes += u64::from(len);
        Ok(())
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// Returns any error from flushing a filled block to the underlying
    /// writer.
    pub fn push(&mut self, event: TraceEvent) -> std::io::Result<()> {
        self.totals.note(std::slice::from_ref(&event));
        self.encoder.push(event);
        if self.encoder.events() >= self.block_events {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Flushes the tail block, writes the footer index and trailer, and
    /// returns the underlying writer with the write summary.
    ///
    /// # Errors
    ///
    /// Re-raises any I/O error deferred from sink-path delivery, then any
    /// error from writing the tail.
    pub fn finish(mut self) -> std::io::Result<(W, StoreSummary)> {
        if let Some(e) = self.deferred_error.take() {
            return Err(e);
        }
        self.flush_block()?;
        let mut footer = Vec::with_capacity(8 + self.index.len() * INDEX_ENTRY_LEN + 56);
        push_u64(&mut footer, self.index.len() as u64);
        for entry in &self.index {
            push_u64(&mut footer, entry.offset);
            push_u32(&mut footer, entry.payload_len);
            push_u32(&mut footer, entry.events);
            push_u32(&mut footer, entry.crc);
        }
        push_u64(&mut footer, self.totals.events);
        push_u64(&mut footer, self.totals.os_blocks);
        push_u64(&mut footer, self.totals.app_blocks);
        for &n in &self.totals.invocations {
            push_u64(&mut footer, n);
        }
        self.inner.write_all(&footer)?;
        let mut trailer = Vec::with_capacity(TRAILER_LEN as usize);
        push_u64(&mut trailer, self.offset);
        push_u32(
            &mut trailer,
            u32::try_from(footer.len()).expect("footer fits u32"),
        );
        push_u32(&mut trailer, crc32(&footer));
        trailer.extend_from_slice(&END_MAGIC);
        self.inner.write_all(&trailer)?;
        self.inner.flush()?;
        let summary = StoreSummary {
            blocks: self.index.len(),
            totals: self.totals,
            payload_bytes: self.payload_bytes,
            file_bytes: self.offset + footer.len() as u64 + TRAILER_LEN,
        };
        Ok((self.inner, summary))
    }
}

impl<W: Write> TraceSink for TraceWriter<W> {
    fn event(&mut self, event: TraceEvent) {
        if self.deferred_error.is_some() {
            return;
        }
        if let Err(e) = self.push(event) {
            self.deferred_error = Some(e);
        }
    }
}

/// Reads a store: parses the footer index up front, then decodes blocks
/// on demand (in order for a replay, or individually for a sharded
/// verify).
#[derive(Debug)]
pub struct TraceReader<R> {
    inner: R,
    index: Vec<BlockEntry>,
    totals: StreamTotals,
    file_bytes: u64,
    /// Payload buffer reused across blocks; grown only to a length the
    /// frame header and the index agree on.
    payload: Vec<u8>,
}

impl TraceReader<BufReader<File>> {
    /// Opens the store at `path` and verifies its header, trailer, and
    /// footer index.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] naming what failed to parse or verify.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Wraps any seekable byte source holding a store.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] naming what failed to parse or verify.
    pub fn new(mut inner: R) -> Result<Self, StoreError> {
        let file_bytes = inner.seek(SeekFrom::End(0))?;
        if file_bytes < HEADER_LEN + TRAILER_LEN {
            return Err(StoreError::Truncated {
                detail: format!("file is {file_bytes} bytes, smaller than header + trailer"),
            });
        }
        inner.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; HEADER_LEN as usize];
        inner.read_exact(&mut header)?;
        if header[..8] != MAGIC {
            return Err(StoreError::BadMagic {
                found: header[..8].to_vec(),
            });
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }

        inner.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        inner.read_exact(&mut trailer)?;
        if trailer[16..24] != END_MAGIC {
            return Err(StoreError::Truncated {
                detail: "end magic missing (file cut before the trailer)".to_owned(),
            });
        }
        let mut pos = 0usize;
        let footer_offset = read_u64(&trailer, &mut pos).expect("trailer is 24 bytes");
        let footer_len = read_u32(&trailer, &mut pos).expect("trailer is 24 bytes");
        let footer_crc = read_u32(&trailer, &mut pos).expect("trailer is 24 bytes");
        let footer_fits = footer_offset >= HEADER_LEN
            && footer_offset
                .checked_add(u64::from(footer_len))
                .and_then(|end| end.checked_add(TRAILER_LEN))
                == Some(file_bytes);
        if !footer_fits {
            return Err(StoreError::CorruptFooter {
                detail: format!(
                    "footer span {footer_offset}+{footer_len} does not fit the {file_bytes}-byte file"
                ),
            });
        }
        inner.seek(SeekFrom::Start(footer_offset))?;
        let mut footer = vec![0u8; footer_len as usize];
        inner.read_exact(&mut footer)?;
        let computed = crc32(&footer);
        if computed != footer_crc {
            return Err(StoreError::CorruptFooter {
                detail: format!("CRC stored {footer_crc:#010x}, computed {computed:#010x}"),
            });
        }
        let bad_footer = |what: &str| StoreError::CorruptFooter {
            detail: format!("footer ends inside {what}"),
        };
        let mut pos = 0usize;
        let block_count = read_u64(&footer, &mut pos).ok_or_else(|| bad_footer("block count"))?;
        let block_count = usize::try_from(block_count).map_err(|_| bad_footer("block count"))?;
        // A hostile count must not size the allocation: the footer bytes
        // bound how many entries can follow.
        let mut index = Vec::with_capacity(block_count.min(footer.len() / INDEX_ENTRY_LEN));
        for _ in 0..block_count {
            let offset = read_u64(&footer, &mut pos).ok_or_else(|| bad_footer("block index"))?;
            let payload_len =
                read_u32(&footer, &mut pos).ok_or_else(|| bad_footer("block index"))?;
            let events = read_u32(&footer, &mut pos).ok_or_else(|| bad_footer("block index"))?;
            let crc = read_u32(&footer, &mut pos).ok_or_else(|| bad_footer("block index"))?;
            let end = offset.checked_add(8 + u64::from(payload_len) + 4);
            if end.is_none_or(|end| end > footer_offset) {
                return Err(StoreError::CorruptFooter {
                    detail: format!(
                        "block {} claims bytes past the footer at {footer_offset}",
                        index.len()
                    ),
                });
            }
            index.push(BlockEntry {
                offset,
                payload_len,
                events,
                crc,
            });
        }
        let mut totals = StreamTotals {
            events: read_u64(&footer, &mut pos).ok_or_else(|| bad_footer("totals"))?,
            os_blocks: read_u64(&footer, &mut pos).ok_or_else(|| bad_footer("totals"))?,
            app_blocks: read_u64(&footer, &mut pos).ok_or_else(|| bad_footer("totals"))?,
            invocations: [0; 4],
        };
        for slot in &mut totals.invocations {
            *slot = read_u64(&footer, &mut pos).ok_or_else(|| bad_footer("totals"))?;
        }
        if pos != footer.len() {
            return Err(StoreError::CorruptFooter {
                detail: format!("{} trailing footer bytes", footer.len() - pos),
            });
        }
        let indexed: u64 = index.iter().map(|e| u64::from(e.events)).sum();
        if indexed != totals.events {
            return Err(StoreError::CorruptFooter {
                detail: format!(
                    "index sums to {indexed} events, totals claim {}",
                    totals.events
                ),
            });
        }
        Ok(Self {
            inner,
            index,
            totals,
            file_bytes,
            payload: Vec::new(),
        })
    }

    /// The footer's block index.
    #[must_use]
    pub fn entries(&self) -> &[BlockEntry] {
        &self.index
    }

    /// Number of blocks in the store.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Total events across all blocks, per the footer.
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.totals.events
    }

    /// The footer's stream totals.
    #[must_use]
    pub fn totals(&self) -> StreamTotals {
        self.totals
    }

    /// Total file size in bytes.
    #[must_use]
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// The store's summary as recorded in the footer — what the writer's
    /// [`TraceWriter::finish`] returned, reconstructed without decoding
    /// any payload (`trace inspect` answers from this alone).
    #[must_use]
    pub fn summary(&self) -> StoreSummary {
        StoreSummary {
            blocks: self.index.len(),
            totals: self.totals,
            payload_bytes: self.index.iter().map(|e| u64::from(e.payload_len)).sum(),
            file_bytes: self.file_bytes,
        }
    }

    /// Seeks to block `block`, verifies its frame and CRC against the
    /// index, decodes it, and streams its events into `sink`. Returns the
    /// number of events decoded.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptBlock`] naming `block` on any frame,
    /// CRC, or codec violation.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn decode_block_into<S: TraceSink + ?Sized>(
        &mut self,
        block: usize,
        sink: &mut S,
    ) -> Result<u32, StoreError> {
        let entry = self.index[block];
        let of = self.index.len();
        let _g = oslay_observe::span_with_args(
            "tracestore.decode.block",
            &[("block", block as f64), ("events", f64::from(entry.events))],
        );
        let corrupt = |detail: String| StoreError::CorruptBlock { block, of, detail };
        self.inner.seek(SeekFrom::Start(entry.offset))?;
        let mut frame = [0u8; 8];
        self.inner.read_exact(&mut frame)?;
        let payload_len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        let events = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        if payload_len != entry.payload_len || events != entry.events {
            return Err(corrupt(format!(
                "frame header ({payload_len} bytes, {events} events) disagrees with the index \
                 ({} bytes, {} events)",
                entry.payload_len, entry.events
            )));
        }
        self.payload.resize(payload_len as usize, 0);
        let payload = &mut self.payload[..];
        self.inner.read_exact(payload)?;
        let mut stored = [0u8; 4];
        self.inner.read_exact(&mut stored)?;
        let stored = u32::from_le_bytes(stored);
        let computed = crc32(payload);
        if stored != entry.crc || computed != entry.crc {
            return Err(corrupt(format!(
                "CRC stored {stored:#010x}, computed {computed:#010x}, index {:#010x}",
                entry.crc
            )));
        }
        decode_payload_into(payload, events, sink).map_err(corrupt)?;
        Ok(events)
    }

    /// Decodes every block in order into `sink` — the re-replay path.
    /// Returns the total events streamed.
    ///
    /// # Errors
    ///
    /// Returns the first [`StoreError`] hit, naming the offending block.
    pub fn replay_into<S: TraceSink + ?Sized>(&mut self, sink: &mut S) -> Result<u64, StoreError> {
        let _span = oslay_observe::span("store.replay");
        let mut events = 0u64;
        for block in 0..self.index.len() {
            events += u64::from(self.decode_block_into(block, sink)?);
        }
        Ok(events)
    }

    /// Fully verifies the store: every block's CRC and codec, then the
    /// decoded totals against the footer's counters.
    ///
    /// # Errors
    ///
    /// Returns the first violation, naming the offending block where one
    /// is at fault.
    pub fn verify(&mut self) -> Result<StoreSummary, StoreError> {
        let mut sink = CountingSink::default();
        self.replay_into(&mut sink)?;
        if sink.totals != self.totals {
            return Err(StoreError::CountMismatch {
                detail: format!(
                    "decoded totals {:?} disagree with footer totals {:?}",
                    sink.totals, self.totals
                ),
            });
        }
        Ok(StoreSummary {
            blocks: self.index.len(),
            totals: self.totals,
            payload_bytes: self.index.iter().map(|e| u64::from(e.payload_len)).sum(),
            file_bytes: self.file_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_model::{BlockId, SeedKind};
    use std::io::Cursor;

    fn sample_events(n: usize) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match i % 7 {
                0 => out.push(TraceEvent::OsEnter(SeedKind::from_index(i % 4))),
                6 => out.push(TraceEvent::OsExit),
                3 => out.push(TraceEvent::Block {
                    id: BlockId::new((i * 31) % 911),
                    domain: Domain::App,
                }),
                _ => out.push(TraceEvent::Block {
                    id: BlockId::new((i * 17) % 499),
                    domain: Domain::Os,
                }),
            }
        }
        out
    }

    fn write_store(events: &[TraceEvent], block_events: u32) -> (Vec<u8>, StoreSummary) {
        let mut w = TraceWriter::with_block_events(Vec::new(), block_events).unwrap();
        for &e in events {
            w.push(e).unwrap();
        }
        let (bytes, summary) = w.finish().unwrap();
        (bytes, summary)
    }

    struct Collect(Vec<TraceEvent>);
    impl TraceSink for Collect {
        fn event(&mut self, event: TraceEvent) {
            self.0.push(event);
        }
    }

    #[test]
    fn round_trips_across_multiple_blocks() {
        let events = sample_events(10_000);
        let (bytes, summary) = write_store(&events, 256);
        assert_eq!(summary.totals.events, events.len() as u64);
        assert!(summary.blocks >= 39, "blocks {}", summary.blocks);
        assert_eq!(summary.file_bytes, bytes.len() as u64);
        let mut reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.event_count(), events.len() as u64);
        let mut sink = Collect(Vec::new());
        let n = reader.replay_into(&mut sink).unwrap();
        assert_eq!(n, events.len() as u64);
        assert_eq!(sink.0, events);
        reader.verify().unwrap();
    }

    #[test]
    fn empty_store_round_trips() {
        let (bytes, summary) = write_store(&[], 64);
        assert_eq!(summary.blocks, 0);
        let mut reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.block_count(), 0);
        assert_eq!(reader.verify().unwrap().totals.events, 0);
    }

    #[test]
    fn body_bit_flip_names_the_block() {
        let events = sample_events(4_000);
        let (mut bytes, _) = write_store(&events, 256);
        let reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        let target = reader.entries()[5];
        let victim = target.offset as usize + 8 + target.payload_len as usize / 2;
        drop(reader);
        bytes[victim] ^= 0x40;
        let mut reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        let err = reader.verify().unwrap_err();
        match err {
            StoreError::CorruptBlock { block, .. } => assert_eq!(block, 5),
            other => panic!("expected CorruptBlock, got {other}"),
        }
        assert!(err.to_string().contains("block 5"), "{err}");
    }

    #[test]
    fn truncated_trailer_is_detected() {
        let (bytes, _) = write_store(&sample_events(500), 64);
        let cut = &bytes[..bytes.len() - 9];
        let err = TraceReader::new(Cursor::new(cut)).unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
    }

    #[test]
    fn bad_magic_is_detected() {
        let (mut bytes, _) = write_store(&sample_events(500), 64);
        bytes[0] = b'X';
        let err = TraceReader::new(Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, StoreError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn footer_corruption_is_detected() {
        let (bytes, _) = write_store(&sample_events(500), 64);
        let footer_offset = {
            let trailer = &bytes[bytes.len() - 24..];
            u64::from_le_bytes(trailer[..8].try_into().unwrap()) as usize
        };
        let mut corrupted = bytes.clone();
        corrupted[footer_offset + 3] ^= 0x01;
        let err = TraceReader::new(Cursor::new(&corrupted)).unwrap_err();
        assert!(matches!(err, StoreError::CorruptFooter { .. }), "{err}");
    }

    #[test]
    fn compression_beats_fixed_width_on_sequential_walks() {
        // A loopy, mostly-sequential walk — the shape real traces have.
        let mut events = Vec::new();
        for lap in 0..200 {
            events.push(TraceEvent::OsEnter(SeedKind::SysCall));
            for i in 0..50usize {
                events.push(TraceEvent::Block {
                    id: BlockId::new(100 + (i + lap % 3)),
                    domain: Domain::Os,
                });
            }
            events.push(TraceEvent::OsExit);
        }
        let (_, summary) = write_store(&events, DEFAULT_BLOCK_EVENTS);
        assert!(
            summary.compression_ratio() > 3.0,
            "ratio {:.2}",
            summary.compression_ratio()
        );
    }

    #[test]
    fn sink_path_defers_write_errors_to_finish() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("disk full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = TraceWriter::with_block_events(FailAfter(1), 4).unwrap();
        for _ in 0..64 {
            TraceSink::event(&mut w, TraceEvent::OsExit);
        }
        assert!(w.finish().is_err());
    }
}
