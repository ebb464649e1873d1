//! Trace events and the trace container.

use oslay_model::{BlockId, Domain, SeedKind};

/// One event in a block-level execution trace.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum TraceEvent {
    /// The operating system was entered through the given seed class.
    OsEnter(SeedKind),
    /// An operating-system invocation completed and control returned to the
    /// application (or the idle loop).
    OsExit,
    /// A basic block was executed.
    Block {
        /// The executed block. OS blocks index the kernel program; app
        /// blocks index the application program.
        id: BlockId,
        /// Which program the block belongs to.
        domain: Domain,
    },
}

/// A consumer of trace events.
///
/// The engine's streaming path ([`crate::Engine::run_into`]) feeds events
/// to a sink as they are generated, so paper-scale workloads never
/// materialize the full event vector. [`Trace`] itself is a sink — the
/// buffered [`crate::Engine::run`] path is just `run_into` with a `Trace`
/// as the sink — and so is the cache replayer in `core`.
///
/// A producer holding a run of events at once (a buffered trace, a
/// decoded archive chunk) hands it over with [`TraceSink::events`], so a
/// sink behind `dyn` pays one dynamic call per slice, not per event.
pub trait TraceSink {
    /// Receives the next event of the stream, in execution order.
    fn event(&mut self, event: TraceEvent);

    /// Receives the next `events` of the stream, in execution order.
    /// Exactly equivalent to calling [`TraceSink::event`] once per event
    /// (and this default does just that), however the stream is split.
    fn events(&mut self, events: &[TraceEvent]) {
        for &event in events {
            self.event(event);
        }
    }
}

impl TraceSink for Trace {
    fn event(&mut self, event: TraceEvent) {
        self.push(event);
    }
}

/// A complete block-level trace plus summary counters.
///
/// Produced by [`crate::Engine::run`]. The event stream is the ground truth
/// consumed by the profiler (`oslay-profile`) and, after address mapping
/// through a layout, by the cache simulator (`oslay-cache`).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    os_blocks: u64,
    app_blocks: u64,
    invocations: [u64; 4],
}

impl Trace {
    pub(crate) fn push(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::OsEnter(kind) => self.invocations[kind.index()] += 1,
            TraceEvent::Block { domain, .. } => match domain {
                Domain::Os => self.os_blocks += 1,
                Domain::App => self.app_blocks += 1,
            },
            TraceEvent::OsExit => {}
        }
        self.events.push(event);
    }

    /// The raw event stream.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of operating-system block executions.
    #[must_use]
    pub fn os_blocks(&self) -> u64 {
        self.os_blocks
    }

    /// Number of application block executions.
    #[must_use]
    pub fn app_blocks(&self) -> u64 {
        self.app_blocks
    }

    /// Total block executions.
    #[must_use]
    pub fn total_blocks(&self) -> u64 {
        self.os_blocks + self.app_blocks
    }

    /// Number of operating-system invocations of the given class.
    #[must_use]
    pub fn invocations(&self, kind: SeedKind) -> u64 {
        self.invocations[kind.index()]
    }

    /// Total operating-system invocations.
    #[must_use]
    pub fn total_invocations(&self) -> u64 {
        self.invocations.iter().sum()
    }

    /// Fraction of invocations in each class (the paper's Table 1 rows
    /// "Interrupt/Page Fault/SysCall/Other Invoc.").
    #[must_use]
    pub fn invocation_mix(&self) -> [f64; 4] {
        let total = self.total_invocations().max(1) as f64;
        let mut out = [0.0; 4];
        for (slot, &n) in out.iter_mut().zip(&self.invocations) {
            *slot = n as f64 / total;
        }
        out
    }

    /// True if the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events (blocks plus boundary markers).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Lengths (in blocks) of each operating-system invocation, in trace
    /// order. Together with [`Trace::invocation_mix`] this characterizes
    /// how the workload drives the kernel.
    #[must_use]
    pub fn invocation_lengths(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut current: Option<u32> = None;
        for event in &self.events {
            match event {
                TraceEvent::OsEnter(_) => current = Some(0),
                TraceEvent::OsExit => {
                    if let Some(n) = current.take() {
                        out.push(n);
                    }
                }
                TraceEvent::Block { domain, .. } => {
                    if *domain == Domain::Os {
                        if let Some(n) = current.as_mut() {
                            *n += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// Mean OS invocation length in blocks (0 for an empty trace).
    #[must_use]
    pub fn mean_invocation_length(&self) -> f64 {
        let lengths = self.invocation_lengths();
        if lengths.is_empty() {
            return 0.0;
        }
        lengths.iter().map(|&n| f64::from(n)).sum::<f64>() / lengths.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_events() {
        let mut t = Trace::default();
        t.push(TraceEvent::OsEnter(SeedKind::SysCall));
        t.push(TraceEvent::Block {
            id: BlockId::new(1),
            domain: Domain::Os,
        });
        t.push(TraceEvent::Block {
            id: BlockId::new(2),
            domain: Domain::Os,
        });
        t.push(TraceEvent::OsExit);
        t.push(TraceEvent::Block {
            id: BlockId::new(0),
            domain: Domain::App,
        });
        assert_eq!(t.os_blocks(), 2);
        assert_eq!(t.app_blocks(), 1);
        assert_eq!(t.total_blocks(), 3);
        assert_eq!(t.invocations(SeedKind::SysCall), 1);
        assert_eq!(t.total_invocations(), 1);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn invocation_mix_sums_to_one() {
        let mut t = Trace::default();
        for kind in [SeedKind::Interrupt, SeedKind::Interrupt, SeedKind::Other] {
            t.push(TraceEvent::OsEnter(kind));
        }
        let mix = t.invocation_mix();
        assert!((mix.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((mix[SeedKind::Interrupt.index()] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn invocation_lengths_count_os_blocks_per_invocation() {
        let mut t = Trace::default();
        t.push(TraceEvent::OsEnter(SeedKind::Interrupt));
        t.push(TraceEvent::Block {
            id: BlockId::new(0),
            domain: Domain::Os,
        });
        t.push(TraceEvent::Block {
            id: BlockId::new(1),
            domain: Domain::Os,
        });
        t.push(TraceEvent::OsExit);
        t.push(TraceEvent::Block {
            id: BlockId::new(9),
            domain: Domain::App,
        });
        t.push(TraceEvent::OsEnter(SeedKind::SysCall));
        t.push(TraceEvent::Block {
            id: BlockId::new(2),
            domain: Domain::Os,
        });
        t.push(TraceEvent::OsExit);
        assert_eq!(t.invocation_lengths(), vec![2, 1]);
        assert!((t.mean_invocation_length() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_mix_is_zero() {
        let t = Trace::default();
        assert_eq!(t.invocation_mix(), [0.0; 4]);
        assert!(t.is_empty());
        assert!(t.invocation_lengths().is_empty());
        assert_eq!(t.mean_invocation_length(), 0.0);
    }
}
