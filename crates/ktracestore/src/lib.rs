//! Compressed on-disk trace store for the `oslay` reproduction.
//!
//! PR 3 made replay streaming and allocation-free, but every run still
//! regenerated its trace from the engine's seed. This crate gives traces a
//! durable form: a block-based container with a delta/varint codec
//! (LEB128 block-id deltas per domain, run-length coding of repeated
//! fetches, a one-byte opcode dictionary over [`oslay_trace::TraceEvent`]
//! variants), per-block CRC-32 checksums, and a
//! footer index of event counts and byte offsets — so readers can seek,
//! verify, and shard an archive without decoding the whole file.
//!
//! Profile-guided layout pipelines live and die by reusable, verifiable
//! profiles; a stored trace turns one-shot simulations into an
//! archive-and-re-analyze workflow where every candidate layout replays
//! the *identical* event stream, bit for bit.
//!
//! The two halves:
//!
//! - [`TraceWriter`] implements [`oslay_trace::TraceSink`], so a case's
//!   buffered trace writes straight to disk (`archive::record_archive`
//!   in `oslay-bench`); the tests pin those bytes to a store fed by a
//!   regenerated engine walk (`Study::stream_case` in `core`).
//! - [`TraceReader`] decodes blocks back into any sink — the cache
//!   replayer in `core`, a [`CountingSink`] for verification — handing
//!   it slices of at most 4,096 events, and its [`BlockEntry`] index is
//!   the shard boundary for parallel verify.
//!
//! Corruption robustness: a flipped bit in a block body, a truncated
//! footer, a spliced block or a foreign file all surface as a typed
//! [`StoreError`] naming the offending block; nothing decodes silently
//! wrong (`tests/hostile.rs` feeds seeded damage through the reader).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod codec;
pub mod crc32;
mod format;
pub mod varint;

pub use format::{
    BlockEntry, CountingSink, StoreError, StoreSummary, StreamTotals, TraceReader, TraceWriter,
    DEFAULT_BLOCK_EVENTS, END_MAGIC, MAGIC, RAW_EVENT_BYTES,
};

/// The store's checksum, re-exported at the crate root so every consumer
/// shares the single table-driven implementation in [`mod@crc32`]
/// rather than growing private copies.
///
/// ```
/// // The canonical CRC-32 check value.
/// assert_eq!(oslay_tracestore::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub use crc32::crc32;
