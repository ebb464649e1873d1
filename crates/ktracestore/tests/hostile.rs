//! Hostile-input tests for the `.otr` reader: seeded truncations, bit
//! flips, block splices and re-checksummed edits of a recorded archive.
//! Opening, verifying and replaying a damaged store must end in a typed
//! [`StoreError`] or in the original event stream — never a panic, never
//! a hang, never a different stream that passes verification.
//!
//! `cargo test` runs a small budget; the `#[ignore]`d test runs a larger
//! one (`cargo test --release -p oslay-tracestore --test hostile --
//! --ignored`).

use std::io::Cursor;
use std::sync::OnceLock;

use oslay::{Study, StudyConfig};
use oslay_model::rng::Rng;
use oslay_model::{BlockId, Domain};
use oslay_trace::{Trace, TraceEvent};
use oslay_tracestore::crc32::crc32;
use oslay_tracestore::{StoreError, TraceReader, TraceWriter};

/// A recorded tiny archive (the first workload, small blocks so the file
/// has many of them) and the live stream it holds.
fn archive() -> &'static (Vec<u8>, Trace) {
    static ARCHIVE: OnceLock<(Vec<u8>, Trace)> = OnceLock::new();
    ARCHIVE.get_or_init(|| {
        let study = Study::generate(&StudyConfig::tiny().with_os_blocks(3_000));
        let case = &study.cases()[0];
        let mut writer = TraceWriter::with_block_events(Vec::new(), 512).expect("header");
        study.stream_case(case, &mut writer);
        let (bytes, summary) = writer.finish().expect("in-memory store");
        assert!(summary.blocks > 4, "want a multi-block archive");
        let mut live = Trace::default();
        study.stream_case(case, &mut live);
        (bytes, live)
    })
}

/// Opens, verifies and replays `bytes`. `Err` carries the typed error;
/// `Ok` the replayed stream of a store that passed verification.
fn read(bytes: &[u8]) -> Result<Trace, StoreError> {
    let mut reader = TraceReader::new(Cursor::new(bytes))?;
    reader.verify()?;
    let mut events = Trace::default();
    reader.replay_into(&mut events)?;
    Ok(events)
}

/// Recomputes every block CRC (frame and index) and the footer CRC, so an
/// edit reaches the decoder instead of failing a checksum. Block frames
/// are found through the footer index of `bytes` itself.
fn reseal(bytes: &mut [u8]) {
    let trailer = bytes.len() - 24;
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let footer = u64_at(bytes, trailer) as usize;
    let footer_len = u32_at(bytes, trailer + 8) as usize;
    for block in 0..u64_at(bytes, footer) as usize {
        let entry = footer + 8 + block * 20;
        let offset = u64_at(bytes, entry) as usize;
        let len = u32_at(bytes, entry + 8) as usize;
        let crc = crc32(&bytes[offset + 8..offset + 8 + len]).to_le_bytes();
        bytes[offset + 8 + len..offset + 12 + len].copy_from_slice(&crc);
        bytes[entry + 16..entry + 20].copy_from_slice(&crc);
    }
    let crc = crc32(&bytes[footer..footer + footer_len]).to_le_bytes();
    bytes[trailer + 12..trailer + 16].copy_from_slice(&crc);
}

/// Block frames of the intact archive as `(offset, frame length)`.
fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let reader = TraceReader::new(Cursor::new(bytes)).expect("intact archive opens");
    reader
        .entries()
        .iter()
        .map(|e| (e.offset as usize, 8 + e.payload_len as usize + 4))
        .collect()
}

/// One seeded damage of the archive: a truncation, one to three bit
/// flips, or a block frame copied over (or into) another.
fn damage(rng: &mut Rng, bytes: &[u8], frames: &[(usize, usize)]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.gen_range(0..4u32) {
        0 => out.truncate(rng.gen_range(0..bytes.len())),
        1 => {
            for _ in 0..rng.gen_range(1..=3u32) {
                let at = rng.gen_range(0..out.len());
                out[at] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        2 => {
            let (from, len) = frames[rng.gen_range(0..frames.len())];
            let (to, _) = frames[rng.gen_range(0..frames.len())];
            let end = (to + len).min(out.len());
            out[to..end].copy_from_slice(&bytes[from..from + (end - to)]);
        }
        _ => {
            let (from, len) = frames[rng.gen_range(0..frames.len())];
            let (to, _) = frames[rng.gen_range(0..frames.len())];
            let frame = bytes[from..from + len].to_vec();
            out.splice(to..to, frame);
        }
    }
    out
}

/// Runs `budget` seeded damages; returns how many were rejected.
fn damaged_archives_fail_typed_or_replay_intact(seed: u64, budget: usize) -> usize {
    let (bytes, live) = archive();
    let frames = frames(bytes);
    let mut rng = Rng::seed_from_u64(seed);
    let mut rejected = 0;
    for i in 0..budget {
        let damaged = damage(&mut rng, bytes, &frames);
        match read(&damaged) {
            Err(err) => {
                assert!(!err.to_string().is_empty(), "damage {i}: empty error");
                rejected += 1;
            }
            Ok(events) => assert_eq!(&events, live, "damage {i} replayed a different stream"),
        }
    }
    rejected
}

#[test]
fn damaged_archives_fail_typed_or_replay_intact_small_budget() {
    let rejected = damaged_archives_fail_typed_or_replay_intact(0x07A, 300);
    assert!(rejected > 250, "only {rejected} of 300 damages rejected");
}

#[test]
#[ignore = "large budget; run with --ignored (ci.sh does, in release)"]
fn damaged_archives_fail_typed_or_replay_intact_large_budget() {
    let rejected = damaged_archives_fail_typed_or_replay_intact(0x07B, 20_000);
    assert!(
        rejected > 16_000,
        "only {rejected} of 20000 damages rejected"
    );
}

/// Edits that keep every checksum valid reach the decoder and the index
/// parser directly. A payload edit may decode to another valid stream
/// (no checksum can tell), so these only have to end without a panic;
/// an index edit must still end in an error or the original stream.
#[test]
fn resealed_edits_never_panic() {
    let (bytes, live) = archive();
    let frames = frames(bytes);
    let footer = u64::from_le_bytes(bytes[bytes.len() - 24..][..8].try_into().unwrap()) as usize;
    let mut rng = Rng::seed_from_u64(0x5EA1);
    for i in 0..300 {
        let mut edited = bytes.clone();
        let (offset, len) = frames[rng.gen_range(0..frames.len())];
        let at = offset + 8 + rng.gen_range(0..len - 12);
        edited[at] = rng.gen_range(0..256u32) as u8;
        reseal(&mut edited);
        let _ = read(&edited);

        let mut edited = bytes.clone();
        let at = footer + rng.gen_range(0..bytes.len() - 24 - footer);
        edited[at] ^= 1 << rng.gen_range(0..8u32);
        let crc = crc32(&edited[footer..bytes.len() - 24]).to_le_bytes();
        let trailer = edited.len() - 24;
        edited[trailer + 12..trailer + 16].copy_from_slice(&crc);
        if let Ok(events) = read(&edited) {
            assert_eq!(&events, live, "index edit {i} replayed a different stream");
        }
    }
}

/// A footer index claiming 2^60 blocks, or a block at offset 2^64 - 5,
/// under a valid CRC is a corrupt footer: no allocation of 2^60 entries,
/// no overflowing offset arithmetic.
#[test]
fn resealed_hostile_index_is_a_corrupt_footer() {
    let (bytes, _) = archive();
    let trailer = bytes.len() - 24;
    let footer = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
    for (at, value) in [(footer, 1u64 << 60), (footer + 8, u64::MAX - 4)] {
        let mut edited = bytes.clone();
        edited[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let crc = crc32(&edited[footer..trailer]).to_le_bytes();
        edited[trailer + 12..trailer + 16].copy_from_slice(&crc);
        let err = TraceReader::new(Cursor::new(&edited)).unwrap_err();
        assert!(matches!(err, StoreError::CorruptFooter { .. }), "{err}");
    }
}

/// A one-block store of `n` OS block fetches with ids 1, 2, ... (one
/// opcode byte each), its payload replaced by `payload` (at most `n`
/// bytes, zero-padded) under valid checksums. Returns the decode error.
fn decode_error_of(n: usize, payload: &[u8]) -> (usize, String) {
    let mut writer = TraceWriter::new(Vec::new()).expect("header");
    for id in 1..=n {
        let id = BlockId::new(id);
        writer
            .push(TraceEvent::Block {
                id,
                domain: Domain::Os,
            })
            .expect("in-memory write");
    }
    let (mut bytes, _) = writer.finish().expect("in-memory store");
    let (offset, len) = frames(&bytes)[0];
    assert_eq!(len, 12 + n, "one byte per fetch");
    bytes[offset + 8..offset + 8 + n].fill(0);
    bytes[offset + 8..offset + 8 + payload.len()].copy_from_slice(payload);
    reseal(&mut bytes);
    let mut reader = TraceReader::new(Cursor::new(&bytes)).expect("index intact");
    match reader.verify().unwrap_err() {
        StoreError::CorruptBlock { block, detail, .. } => (block, detail),
        other => panic!("expected CorruptBlock, got {other}"),
    }
}

/// Tag 4 is unassigned. A block carrying it under a valid CRC fails
/// decoding with an unknown-tag error naming the byte.
#[test]
fn unassigned_tag_four_is_an_unknown_tag() {
    // Block id +1, then tag 4 with inline argument 0.
    let err = decode_error_of(3, &[0x10, 0x04]);
    assert_eq!(err, (0, "at byte 2: unknown event tag 4".to_owned()));
}

/// A repeat run of 2^64 - 1 under a valid CRC is a corrupt block, not an
/// overflowing event count (or a run that never ends).
#[test]
fn huge_repeat_run_is_a_corrupt_block() {
    // Block id +1, then repeat (tag 5) escaped to a 10-byte varint.
    let mut payload = vec![0x10, (31 << 3) | 5];
    payload.extend([0xff; 9]);
    payload.push(0x01);
    let (block, detail) = decode_error_of(12, &payload);
    assert_eq!(block, 0);
    assert!(detail.contains("block header promises 12"), "{detail}");
}
