//! The block payload codec: a one-byte opcode dictionary over
//! [`TraceEvent`] variants, zigzag/LEB128 block-id deltas, and run-length
//! coding of immediately repeated block fetches.
//!
//! Every opcode byte packs a 3-bit event tag with a 5-bit inline argument;
//! argument 31 escapes to a trailing LEB128 varint. Block-id deltas are
//! taken against the previous block id *of the same domain*, so an OS
//! invocation interleaved into an application burst does not destroy the
//! application walk's locality. All codec state resets at payload
//! boundaries: a payload decodes with no context but the bytes themselves,
//! which is what lets readers verify and shard blocks independently.

use oslay_model::{BlockId, Domain, SeedKind};
use oslay_trace::{TraceEvent, TraceSink};

use crate::varint::{read_leb, unzigzag, write_leb, zigzag};

const TAG_BLOCK_OS: u8 = 0;
const TAG_BLOCK_APP: u8 = 1;
const TAG_OS_ENTER: u8 = 2;
const TAG_OS_EXIT: u8 = 3;
// Tag 4 is unassigned: the decoder rejects it as an unknown tag.
const TAG_REPEAT: u8 = 5;
/// Inline-argument value that escapes to a trailing LEB128 varint.
const ARG_ESCAPE: u8 = 31;

fn op(tag: u8, arg: u8) -> u8 {
    debug_assert!(tag < 8 && arg < 32);
    (arg << 3) | tag
}

/// Emits `tag` with `value` inline when it fits the 5-bit argument,
/// otherwise escaped into a varint.
fn push_op(out: &mut Vec<u8>, tag: u8, value: u64) {
    if value < u64::from(ARG_ESCAPE) {
        out.push(op(tag, value as u8));
    } else {
        out.push(op(tag, ARG_ESCAPE));
        write_leb(out, value);
    }
}

/// Encodes one stream of events into self-contained block payloads.
///
/// Feed events with [`BlockEncoder::push`]; cut a payload with
/// [`BlockEncoder::take_payload`] whenever [`BlockEncoder::events`]
/// reaches the writer's block capacity.
#[derive(Debug, Default)]
pub(crate) struct BlockEncoder {
    buf: Vec<u8>,
    events: u32,
    prev_os: i64,
    prev_app: i64,
    last_block: Option<(BlockId, Domain)>,
    pending_repeats: u64,
}

impl BlockEncoder {
    /// Events encoded into the current payload so far.
    pub(crate) fn events(&self) -> u32 {
        self.events
    }

    fn flush_repeats(&mut self) {
        if self.pending_repeats > 0 {
            push_op(&mut self.buf, TAG_REPEAT, self.pending_repeats);
            self.pending_repeats = 0;
        }
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.events += 1;
        match event {
            TraceEvent::Block { id, domain } => {
                if self.last_block == Some((id, domain)) {
                    self.pending_repeats += 1;
                    return;
                }
                self.flush_repeats();
                let (tag, prev) = match domain {
                    Domain::Os => (TAG_BLOCK_OS, &mut self.prev_os),
                    Domain::App => (TAG_BLOCK_APP, &mut self.prev_app),
                };
                let id_i64 = id.index() as i64;
                push_op(&mut self.buf, tag, zigzag(id_i64 - *prev));
                *prev = id_i64;
                self.last_block = Some((id, domain));
            }
            TraceEvent::OsEnter(kind) => {
                self.flush_repeats();
                self.last_block = None;
                self.buf.push(op(TAG_OS_ENTER, kind.index() as u8));
            }
            TraceEvent::OsExit => {
                self.flush_repeats();
                self.last_block = None;
                self.buf.push(op(TAG_OS_EXIT, 0));
            }
        }
    }

    /// Finishes the current payload, returning it with its event count,
    /// and resets all codec state for the next block.
    pub(crate) fn take_payload(&mut self) -> (Vec<u8>, u32) {
        self.flush_repeats();
        let payload = std::mem::take(&mut self.buf);
        let events = self.events;
        *self = Self::default();
        (payload, events)
    }
}

/// Events a decoder hands to its sink per [`TraceSink::events`] call:
/// one dynamic call covers this many events, and the chunk buffer lives
/// on the stack (32 KiB), never growing with the block.
const CHUNK_EVENTS: usize = 4096;

/// Decodes one self-contained payload, streaming every event into `sink`
/// in chunks of at most [`CHUNK_EVENTS`]. On an error the events of the
/// unfinished chunk are dropped, never delivered.
///
/// # Errors
///
/// Returns a description of the first malformed construct: truncated or
/// overlong varints, unknown tags, out-of-range seed kinds or block ids,
/// a repeat with no preceding block fetch, or an event count that
/// disagrees with `expect_events`.
pub(crate) fn decode_payload_into<S: TraceSink + ?Sized>(
    payload: &[u8],
    expect_events: u32,
    sink: &mut S,
) -> Result<(), String> {
    let mut decoder = PayloadDecoder {
        payload,
        pos: 0,
        prev_os: 0,
        prev_app: 0,
        last_block: None,
        repeats_left: 0,
        emitted: 0,
        expect: u64::from(expect_events),
    };
    let mut chunk = [TraceEvent::OsExit; CHUNK_EVENTS];
    loop {
        let len = decoder.fill(&mut chunk)?;
        if len > 0 {
            sink.events(&chunk[..len]);
        }
        if len < CHUNK_EVENTS {
            break;
        }
    }
    let (emitted, expect) = (decoder.emitted, decoder.expect);
    if emitted != expect {
        return Err(format!(
            "decoded {emitted} events, block header promises {expect}"
        ));
    }
    Ok(())
}

/// The codec state of one payload, carried from one chunk fill to the
/// next. The decode loop knows nothing of the sink, so it compiles once
/// and keeps its state in registers.
struct PayloadDecoder<'p> {
    payload: &'p [u8],
    pos: usize,
    prev_os: i64,
    prev_app: i64,
    last_block: Option<TraceEvent>,
    /// Events of a repeat run still to emit (a run may straddle chunks).
    repeats_left: u64,
    emitted: u64,
    expect: u64,
}

impl PayloadDecoder<'_> {
    /// Decodes into `chunk` from its start until it is full or the
    /// payload ends; returns the events written. After an error the
    /// decoder is left mid-payload and must not be used again.
    fn fill(&mut self, chunk: &mut [TraceEvent; CHUNK_EVENTS]) -> Result<usize, String> {
        let payload = self.payload;
        let (mut pos, mut prev_os, mut prev_app) = (self.pos, self.prev_os, self.prev_app);
        let (mut last_block, mut repeats_left) = (self.last_block, self.repeats_left);
        let (mut emitted, expect) = (self.emitted, self.expect);
        let mut len = 0usize;
        loop {
            if repeats_left > 0 {
                let repeated = last_block.expect("a repeat run follows a block");
                // `repeats_left` is at most `expect`, a `u32`.
                let run = (repeats_left as usize).min(CHUNK_EVENTS - len);
                chunk[len..len + run].fill(repeated);
                len += run;
                repeats_left -= run as u64;
            }
            if len == CHUNK_EVENTS || pos >= payload.len() {
                break;
            }
            let byte = payload[pos];
            pos += 1;
            let (tag, arg) = (byte & 0x07, byte >> 3);
            let value =
                if arg == ARG_ESCAPE && matches!(tag, TAG_BLOCK_OS | TAG_BLOCK_APP | TAG_REPEAT) {
                    read_leb(payload, &mut pos).map_err(|e| format!("at byte {pos}: {e}"))?
                } else {
                    u64::from(arg)
                };
            let event = match tag {
                TAG_BLOCK_OS | TAG_BLOCK_APP => {
                    let (prev, domain) = if tag == TAG_BLOCK_OS {
                        (&mut prev_os, Domain::Os)
                    } else {
                        (&mut prev_app, Domain::App)
                    };
                    let id = prev
                        .checked_add(unzigzag(value))
                        .filter(|&v| (0..=i64::from(u32::MAX)).contains(&v))
                        .ok_or_else(|| format!("at byte {pos}: block-id delta out of range"))?;
                    *prev = id;
                    let event = TraceEvent::Block {
                        id: BlockId::new(id as usize),
                        domain,
                    };
                    last_block = Some(event);
                    event
                }
                TAG_OS_ENTER => {
                    if value >= 4 {
                        return Err(format!("at byte {pos}: seed kind {value} out of range"));
                    }
                    last_block = None;
                    TraceEvent::OsEnter(SeedKind::from_index(value as usize))
                }
                TAG_OS_EXIT => {
                    if arg != 0 {
                        return Err(format!("at byte {pos}: OsExit carries argument {arg}"));
                    }
                    last_block = None;
                    TraceEvent::OsExit
                }
                TAG_REPEAT => {
                    if last_block.is_none() {
                        return Err(format!("at byte {pos}: repeat with no block"));
                    }
                    if value == 0 {
                        return Err(format!("at byte {pos}: empty repeat run"));
                    }
                    // Saturating: a hostile run length must fail the check
                    // below, not wrap past it.
                    emitted = emitted.saturating_add(value);
                    if emitted > expect {
                        return Err(format!(
                            "decoded {emitted} events, block header promises {expect}"
                        ));
                    }
                    repeats_left = value;
                    continue;
                }
                other => return Err(format!("at byte {pos}: unknown event tag {other}")),
            };
            emitted += 1;
            if emitted > expect {
                return Err(format!(
                    "decoded {emitted} events, block header promises {expect}"
                ));
            }
            chunk[len] = event;
            len += 1;
        }
        (self.pos, self.prev_os, self.prev_app) = (pos, prev_os, prev_app);
        (self.last_block, self.repeats_left) = (last_block, repeats_left);
        self.emitted = emitted;
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(id: usize, domain: Domain) -> TraceEvent {
        TraceEvent::Block {
            id: BlockId::new(id),
            domain,
        }
    }

    fn round_trip(events: &[TraceEvent]) -> Vec<u8> {
        let mut enc = BlockEncoder::default();
        for &e in events {
            enc.push(e);
        }
        let (payload, n) = enc.take_payload();
        assert_eq!(n as usize, events.len());
        let mut out = Vec::new();
        decode_payload_into(&payload, n, &mut Collect(&mut out)).expect("decodes");
        assert_eq!(out, events);
        payload
    }

    struct Collect<'a>(&'a mut Vec<TraceEvent>);
    impl TraceSink for Collect<'_> {
        fn event(&mut self, event: TraceEvent) {
            self.0.push(event);
        }
    }

    #[test]
    fn mixed_stream_round_trips() {
        round_trip(&[
            TraceEvent::OsEnter(SeedKind::SysCall),
            block(10, Domain::Os),
            block(11, Domain::Os),
            block(9, Domain::Os),
            TraceEvent::OsExit,
            block(70_000, Domain::App),
            block(70_000, Domain::App),
            block(70_000, Domain::App),
            TraceEvent::OsEnter(SeedKind::Interrupt),
            block(4_000_000, Domain::Os),
            TraceEvent::OsExit,
            block(70_001, Domain::App),
        ]);
    }

    #[test]
    fn repeats_collapse_to_two_bytes() {
        let mut events = vec![block(5, Domain::Os)];
        events.extend(std::iter::repeat_n(block(5, Domain::Os), 25));
        let payload = round_trip(&events);
        // One block op + one repeat op.
        assert_eq!(payload.len(), 2);
    }

    #[test]
    fn long_repeat_runs_escape_to_varints() {
        let mut events = vec![block(5, Domain::Os)];
        events.extend(std::iter::repeat_n(block(5, Domain::Os), 1000));
        round_trip(&events);
    }

    #[test]
    fn per_domain_deltas_survive_interleaving() {
        // The OS invocation in the middle must not disturb the app delta
        // chain (and vice versa).
        round_trip(&[
            block(1000, Domain::App),
            block(1001, Domain::App),
            TraceEvent::OsEnter(SeedKind::PageFault),
            block(7, Domain::Os),
            block(8, Domain::Os),
            TraceEvent::OsExit,
            block(1002, Domain::App),
        ]);
    }

    #[test]
    fn sequential_blocks_encode_one_byte_each() {
        let events: Vec<TraceEvent> = (100..150).map(|i| block(i, Domain::Os)).collect();
        let mut enc = BlockEncoder::default();
        for &e in &events {
            enc.push(e);
        }
        let (payload, _) = enc.take_payload();
        // First delta needs an escape varint; the rest are +1 inline.
        assert!(payload.len() <= events.len() + 2, "len {}", payload.len());
    }

    /// Records the size of every slice it is handed.
    #[derive(Default)]
    struct Slices {
        events: Vec<TraceEvent>,
        sizes: Vec<usize>,
    }
    impl TraceSink for Slices {
        fn event(&mut self, event: TraceEvent) {
            self.events(std::slice::from_ref(&event));
        }
        fn events(&mut self, events: &[TraceEvent]) {
            self.events.extend_from_slice(events);
            self.sizes.push(events.len());
        }
    }

    #[test]
    fn payloads_decode_in_full_chunks() {
        // Distinct blocks up to just short of a chunk, then a repeat run
        // straddling two chunk boundaries, then a partial tail.
        let mut events: Vec<TraceEvent> = (0..CHUNK_EVENTS - 3)
            .map(|i| block(i % 700, Domain::Os))
            .collect();
        events.extend(std::iter::repeat_n(
            block(9, Domain::App),
            CHUNK_EVENTS + 10,
        ));
        events.push(TraceEvent::OsExit);
        let mut enc = BlockEncoder::default();
        for &e in &events {
            enc.push(e);
        }
        let (payload, n) = enc.take_payload();
        let mut sink = Slices::default();
        decode_payload_into(&payload, n, &mut sink).expect("decodes");
        assert_eq!(sink.events, events);
        assert_eq!(sink.sizes, [CHUNK_EVENTS, CHUNK_EVENTS, 8]);

        // An empty payload hands over nothing, not an empty slice.
        let mut empty = Slices::default();
        decode_payload_into(&[], 0, &mut empty).expect("decodes");
        assert!(empty.sizes.is_empty());
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        let mut sink = Vec::new();
        // Unknown tag 7, and the unassigned tag 4.
        assert!(decode_payload_into(&[0x07], 1, &mut Collect(&mut sink)).is_err());
        let err = decode_payload_into(&[op(4, 3)], 1, &mut Collect(&mut sink)).unwrap_err();
        assert_eq!(err, "at byte 1: unknown event tag 4");
        // Repeat with no preceding block.
        assert!(decode_payload_into(&[op(TAG_REPEAT, 3)], 3, &mut Collect(&mut sink)).is_err());
        // Seed kind out of range.
        assert!(decode_payload_into(&[op(TAG_OS_ENTER, 9)], 1, &mut Collect(&mut sink)).is_err());
        // Event count mismatch (payload holds one event, header says two).
        assert!(decode_payload_into(&[op(TAG_OS_EXIT, 0)], 2, &mut Collect(&mut sink)).is_err());
        // Truncated escape varint.
        assert!(decode_payload_into(
            &[op(TAG_BLOCK_OS, ARG_ESCAPE), 0x80],
            1,
            &mut Collect(&mut sink)
        )
        .is_err());
    }
}
