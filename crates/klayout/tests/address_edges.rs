//! Edge cases of the block→fetch mapping (`Layout::addr` and
//! `Layout::fetch_words`, split into lines by `CacheConfig::line_runs`):
//! zero-word and minimal blocks, spans abutting a logical-cache boundary,
//! and blocks whose final chunk is a partial word.

use oslay_cache::CacheConfig;
use oslay_layout::{Layout, LayoutBuilder};
use oslay_model::{BlockId, Domain, Program, ProgramBuilder, SeedKind, Terminator, WORD_BYTES};

const LOGICAL_CACHE: u64 = 8192;

/// A minimal valid OS program: one 16-byte routine per seed kind, then one
/// extra routine holding Return-terminated blocks of the given sizes.
fn sized_program(sizes: &[u32]) -> (Program, Vec<BlockId>) {
    let mut b = ProgramBuilder::new(Domain::Os);
    let mut seeds = Vec::new();
    for kind in SeedKind::ALL {
        let r = b.begin_routine(format!("seed_{kind}"));
        let entry = b.add_block(16);
        b.terminate(entry, Terminator::Return);
        b.end_routine();
        seeds.push((kind, r));
    }
    b.begin_routine("edge_blocks");
    let mut ids = Vec::new();
    for &size in sizes {
        // No fallthrough: these blocks are placed at explicit addresses,
        // and a fallthrough would earn a stretch word that shifts them.
        let blk = b.add_block_no_fallthrough(size);
        b.terminate(blk, Terminator::Return);
        ids.push(blk);
    }
    b.end_routine();
    for (kind, r) in seeds {
        b.set_seed(kind, r);
    }
    (b.build().expect("valid edge program"), ids)
}

/// Places the seed blocks sequentially from 0, then each edge block at the
/// caller's explicit address.
fn layout_at(program: &Program, placed: &[(BlockId, u64)]) -> Layout {
    let mut b = LayoutBuilder::new(program, "edges", 0);
    let explicit: Vec<BlockId> = placed.iter().map(|&(id, _)| id).collect();
    for (id, _) in program.blocks() {
        if !explicit.contains(&id) {
            b.place(id);
        }
    }
    for &(id, addr) in placed {
        b.place_at(id, addr);
    }
    b.finish().expect("edge layout places every block")
}

/// The word-fetch addresses of executing `blocks` in order. With
/// one-word lines every line run is exactly one fetch word, so this is
/// the fetch stream as the line splitter sees it.
fn fetches(layout: &Layout, blocks: &[BlockId]) -> Vec<u64> {
    let word_lines = CacheConfig::new(LOGICAL_CACHE as u32, WORD_BYTES, 1);
    blocks
        .iter()
        .flat_map(|&id| word_lines.line_runs(layout.addr(id), layout.fetch_words(id)))
        .map(|(addr, run)| {
            assert_eq!(run, 1, "a one-word line holds one fetch");
            addr
        })
        .collect()
}

#[test]
fn zero_words_fetch_nothing_and_one_byte_fetches_one_word() {
    // Zero-size blocks cannot exist: the model builder rejects them, so
    // the zero-word case lives entirely in `fetch_words` (and zero-size
    // *spans* in hand-built views are kverify's KV008). The smallest
    // placeable block is one byte, which still costs one full word fetch.
    assert_eq!(oslay_model::fetch_words(0), 0);
    assert_eq!(CacheConfig::paper_default().line_runs(4096, 0).count(), 0);
    let (program, ids) = sized_program(&[1, 8]);
    let layout = layout_at(&program, &[(ids[0], 4096), (ids[1], 4200)]);
    let fetches = fetches(&layout, &ids);
    assert_eq!(fetches.len(), 3, "one word for the 1-byte block, two for 8");
    assert_eq!(fetches[0], 4096);
    assert_eq!(fetches[1], 4200);
    assert_eq!(fetches[2], 4200 + u64::from(WORD_BYTES));
    assert_eq!(layout.fetch_words(ids[0]), 1);
    let runs: Vec<(u64, u32)> = CacheConfig::paper_default()
        .line_runs(layout.addr(ids[0]), layout.fetch_words(ids[0]))
        .collect();
    assert_eq!(runs, vec![(4096, 1)]);
}

#[test]
fn final_partial_word_fetches_exactly_once() {
    // 21 bytes = 5 full words + one 1-byte tail: six fetches, the last at
    // byte offset 20, never a seventh touching bytes past the block.
    let (program, ids) = sized_program(&[21]);
    let base = 4096u64;
    let layout = layout_at(&program, &[(ids[0], base)]);
    let fetches = fetches(&layout, &ids);
    assert_eq!(fetches.len(), 6);
    assert_eq!(*fetches.last().unwrap(), base + 20);
    assert!(fetches.iter().all(|&a| a < base + 24));
    // The line splitter and the layout's own per-block view must agree.
    let direct: Vec<u64> = (0..layout.fetch_words(ids[0]))
        .map(|w| layout.addr(ids[0]) + u64::from(w * WORD_BYTES))
        .collect();
    assert_eq!(fetches, direct);
    // At 32-byte lines the whole block is one run of six words.
    let runs: Vec<(u64, u32)> = CacheConfig::paper_default()
        .line_runs(base, layout.fetch_words(ids[0]))
        .collect();
    assert_eq!(runs, vec![(base, 6)]);
}

#[test]
fn span_abutting_logical_cache_boundary_stays_inside_it() {
    // Block A ends exactly at the logical-cache boundary; block B starts
    // exactly on it. No fetch of A may cross into the next logical cache,
    // and B's first fetch lands on set 0 of the next one.
    let (program, ids) = sized_program(&[32, 32]);
    let layout = layout_at(
        &program,
        &[(ids[0], LOGICAL_CACHE - 32), (ids[1], LOGICAL_CACHE)],
    );
    let fetches = fetches(&layout, &ids);
    assert_eq!(fetches.len(), 16);
    let (a, b) = fetches.split_at(8);
    assert!(a.iter().all(|&addr| addr < LOGICAL_CACHE));
    assert_eq!(*a.last().unwrap(), LOGICAL_CACHE - u64::from(WORD_BYTES));
    assert_eq!(b[0], LOGICAL_CACHE);
    assert_eq!(b[0] % LOGICAL_CACHE, 0, "first word of B maps to set 0");
    // Abutting is not overlapping: the two spans share no address.
    assert!(a.iter().all(|addr| !b.contains(addr)));
    // Each block is exactly one 32-byte line, on either side of the
    // boundary.
    let cfg = CacheConfig::paper_default();
    let line_of = |id: BlockId| -> Vec<(u64, u32)> {
        cfg.line_runs(layout.addr(id), layout.fetch_words(id))
            .collect()
    };
    assert_eq!(line_of(ids[0]), vec![(LOGICAL_CACHE - 32, 8)]);
    assert_eq!(line_of(ids[1]), vec![(LOGICAL_CACHE, 8)]);
    assert_eq!(cfg.set_of(LOGICAL_CACHE), 0);
}
