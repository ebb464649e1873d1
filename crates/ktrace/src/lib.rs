//! Trace generation for the `oslay` reproduction.
//!
//! This crate turns a [`oslay_model::Program`] pair (kernel + optional
//! application) into a **block-level execution trace**: the sequence of
//! basic blocks a processor executes, annotated with operating-system
//! invocation boundaries and their entry class.
//!
//! The paper gathered equivalent data with a hardware performance monitor
//! attached to the four processors of an Alliant FX/8 (Section 2.1); the
//! [`TraceBuffer`] type models that monitor's capture substrate (a ~1M-entry
//! buffer that halts the machine and drains to disk when nearly full), and
//! the [`Engine`] replaces the real machine with a stochastic walk of the
//! program's control-flow graph, driven by per-arc probabilities and
//! per-workload dispatch weights.
//!
//! Traces are **layout-independent**: events name basic blocks, not
//! addresses. Each candidate code layout maps the *same* trace to a
//! different address stream (see `oslay-layout`), exactly as the paper
//! evaluates many layouts against one set of hardware traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
mod engine;
mod event;
mod workload;

pub use buffer::{TraceBuffer, TraceRecord};
pub use engine::{Engine, EngineConfig};
pub use event::{Trace, TraceEvent, TraceSink};
pub use workload::{standard_workloads, StandardWorkload, SyscallProfile, WorkloadSpec};
