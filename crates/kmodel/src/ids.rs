//! Typed indices for program entities.
//!
//! Newtypes ([`BlockId`], [`RoutineId`], [`DispatchId`]) keep the many
//! `usize` indices flowing through the profiler, layout algorithms, and
//! simulator statically distinct (C-NEWTYPE).

use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a dense index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            #[must_use]
            pub fn new(index: usize) -> Self {
                Self(u32::try_from(index).expect("id index overflows u32"))
            }

            /// Returns the dense index backing this id.
            #[inline]
            #[must_use]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id!(
    /// Identifies a [`crate::BasicBlock`] within a [`crate::Program`].
    ///
    /// Ids are dense: `0..program.num_blocks()`.
    BlockId,
    "b"
);

define_id!(
    /// Identifies a [`crate::Routine`] within a [`crate::Program`].
    ///
    /// Ids are dense: `0..program.num_routines()`.
    RoutineId,
    "r"
);

define_id!(
    /// Identifies a workload-controlled dispatch table.
    ///
    /// Blocks terminated by [`crate::Terminator::Dispatch`] select their
    /// successor using per-workload weights supplied at trace time, which
    /// models how different workloads exercise different kernel services
    /// (e.g. distinct system calls) through the same dispatcher code.
    DispatchId,
    "d"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_index() {
        let id = BlockId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(usize::from(id), 42);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(BlockId::new(7).to_string(), "b7");
        assert_eq!(RoutineId::new(3).to_string(), "r3");
        assert_eq!(DispatchId::new(0).to_string(), "d0");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(BlockId::new(1) < BlockId::new(2));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn new_panics_on_overflow() {
        let _ = BlockId::new(usize::MAX);
    }
}
