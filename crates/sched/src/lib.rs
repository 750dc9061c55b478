//! EPR-distribution scheduling for the QLA interconnect.
//!
//! Section 5 of the paper argues that teleportation-based communication can be
//! completely hidden behind error correction provided the EPR pairs a gate
//! needs are delivered while its operand qubits are being error corrected, and
//! demonstrates this with a greedy scheduler achieving ~23% aggregate
//! bandwidth utilisation at channel bandwidth 2. This crate reproduces that
//! machinery:
//!
//! * [`mesh`] — the channel mesh between logical-qubit tiles and its
//!   per-window bandwidth capacity.
//! * [`scheduler`] — the greedy path-grabbing scheduler with back-off and
//!   multi-window spill-over.
//! * [`traffic`] — workload generators (fault-tolerant Toffoli traffic) and
//!   the overlap-with-error-correction criterion.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mesh;
pub mod scheduler;
pub mod traffic;

pub use mesh::{Edge, Mesh, Node, PathSearch, Route};
pub use scheduler::{CommRequest, GreedyScheduler, RoutedBatch, ScheduleResult};
pub use traffic::{
    random_toffoli_sites, schedule_toffoli_traffic, ToffoliScheduleReport, ToffoliSite,
    PAIRS_PER_LOGICAL_TELEPORT, TOFFOLI_ANCILLA_QUBITS,
};
