//! Interop between layouts and the cache crate's attribution engine.
//!
//! The attribution engine (`oslay-cache`) explains misses in terms of
//! [`CodeRef`]s — which block, routine, and Figure 13 placement class an
//! address belongs to. Only the layout crate knows that mapping, so this
//! module builds the engine's [`AddressMap`] from a [`Layout`], and turns
//! a measured [`ConflictMatrix`] back into the routine ranking the
//! Section 4.4 `Call` optimization wants: instead of inferring conflict
//! candidates from static call-graph structure, rank routines by the
//! conflicts they actually caused and suffered.

use oslay_cache::{AddressMap, CodeClass, CodeRef, ConflictMatrix};
use oslay_model::{BlockId, Domain, Program, RoutineId};

use crate::{BlockClass, Layout};

/// The attribution-engine class corresponding to a layout block class.
#[must_use]
pub fn code_class(class: BlockClass) -> CodeClass {
    match class {
        BlockClass::SelfConfFree => CodeClass::SelfConfFree,
        BlockClass::MainSeq => CodeClass::MainSeq,
        BlockClass::OtherSeq => CodeClass::OtherSeq,
        BlockClass::Loop => CodeClass::Loop,
        BlockClass::Cold => CodeClass::Cold,
    }
}

/// The address spans of `layout`, one per block, tagged with the block's
/// [`CodeRef`].
///
/// `classes` carries the per-block Figure 13 classes of an optimized
/// layout (`OptLayout::classes`); pass `None` for unclassified layouts
/// (Base, Chang-Hwu), whose blocks all report [`CodeClass::MainSeq`] —
/// they are laid out as one main sequence.
///
/// Span lengths use the block's *effective* size (block plus stretch
/// padding), which `Layout::finish` guarantees non-overlapping, so every
/// fetch address of the block resolves to it.
#[must_use]
pub fn layout_spans(
    program: &Program,
    layout: &Layout,
    domain: Domain,
    classes: Option<&[BlockClass]>,
) -> Vec<(u64, u64, CodeRef)> {
    if let Some(classes) = classes {
        assert_eq!(
            classes.len(),
            layout.num_blocks(),
            "one class per layout block"
        );
    }
    (0..layout.num_blocks())
        .map(|i| {
            let id = BlockId::new(i);
            let class = classes.map_or(CodeClass::MainSeq, |c| code_class(c[i]));
            let code = CodeRef {
                domain,
                block: u32::try_from(i).expect("block index fits u32"),
                routine: u32::try_from(program.block(id).routine().index())
                    .expect("routine index fits u32"),
                class,
            };
            (layout.addr(id), u64::from(layout.effective_size(id)), code)
        })
        .collect()
}

/// Builds an [`AddressMap`] for a single layout. For a workload with an
/// application, chain the OS and app [`layout_spans`] into one
/// [`AddressMap::build`] call instead (the address spaces are disjoint).
#[must_use]
pub fn address_map(
    program: &Program,
    layout: &Layout,
    domain: Domain,
    classes: Option<&[BlockClass]>,
) -> AddressMap {
    AddressMap::build(layout_spans(program, layout, domain, classes))
}

/// Ranks `domain`'s routines by measured conflict involvement: the sum of
/// conflicts each routine suffered (victim row) and caused (evictor row),
/// heaviest first, zero-involvement routines omitted.
///
/// This is the measured counterpart of the static loop×routine matrix the
/// `Call` optimization builds from the call graph: feed the top of this
/// ranking to [`CallOptParams`](crate::CallOptParams) candidate selection
/// to target the conflicts a real trace exhibited.
#[must_use]
pub fn measured_conflict_ranking(matrix: &ConflictMatrix, domain: Domain) -> Vec<(RoutineId, u64)> {
    let mut involvement: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for (evictor, victim, count) in matrix.entries() {
        if evictor.0 == domain {
            *involvement.entry(evictor.1).or_insert(0) += count;
        }
        if victim.0 == domain {
            *involvement.entry(victim.1).or_insert(0) += count;
        }
    }
    let mut ranked: Vec<(RoutineId, u64)> = involvement
        .into_iter()
        .map(|(r, c)| (RoutineId::new(r as usize), c))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_layout;
    use oslay_model::synth::{generate_kernel, KernelParams, Scale};

    #[test]
    fn base_layout_map_covers_every_fetch_address() {
        let kernel = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 7));
        let layout = base_layout(&kernel.program, 0);
        let map = address_map(&kernel.program, &layout, Domain::Os, None);
        assert_eq!(map.len(), layout.num_blocks());
        for i in 0..layout.num_blocks() {
            let id = BlockId::new(i);
            for w in 0..layout.fetch_words(id) {
                let addr = layout.addr(id) + u64::from(w * oslay_model::WORD_BYTES);
                let code = map.lookup(addr).expect("fetch address is mapped");
                assert_eq!(code.block as usize, i);
                assert_eq!(code.domain, Domain::Os);
                assert_eq!(code.class, CodeClass::MainSeq);
                assert_eq!(
                    code.routine as usize,
                    kernel.program.block(id).routine().index()
                );
            }
        }
    }

    #[test]
    fn classes_flow_through_to_code_refs() {
        let kernel = generate_kernel(&KernelParams::at_scale(Scale::Tiny, 7));
        let layout = base_layout(&kernel.program, 0);
        let classes = vec![BlockClass::Cold; layout.num_blocks()];
        let map = address_map(&kernel.program, &layout, Domain::Os, Some(&classes));
        let id = BlockId::new(0);
        assert_eq!(map.lookup(layout.addr(id)).unwrap().class, CodeClass::Cold);
    }

    #[test]
    fn ranking_orders_routines_by_involvement() {
        let mut m = ConflictMatrix::default();
        m.add((Domain::Os, 0), (Domain::Os, 1), 10); // 0 causes 10, 1 suffers 10
        m.add((Domain::Os, 1), (Domain::Os, 0), 4);
        m.add((Domain::Os, 2), (Domain::Os, 1), 1);
        m.add((Domain::App, 9), (Domain::App, 9), 99); // other domain: ignored
        let ranked = measured_conflict_ranking(&m, Domain::Os);
        let as_u32: Vec<(usize, u64)> = ranked.iter().map(|&(r, c)| (r.index(), c)).collect();
        // Routine 1: 10+4+1 = 15; routine 0: 10+4 = 14; routine 2: 1.
        assert_eq!(as_u32, vec![(1, 15), (0, 14), (2, 1)]);
    }
}
