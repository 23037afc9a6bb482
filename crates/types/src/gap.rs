//! A missing audio range of one origin node.

use crate::{NodeId, SimDuration, SimTime};
use serde::Serialize;

/// One missing audio range of one origin node.
///
/// The basestation archive finds these as holes in an origin's coverage;
/// the protocol layer batches them into spanning-tree re-request queries.
/// Both sides name this one type, so it lives in the shared vocabulary
/// crate rather than in either of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GapRange {
    /// The node whose audio is missing.
    pub origin: NodeId,
    /// Missing range start (end of the chunk before the hole).
    pub t0: SimTime,
    /// Missing range end (start of the chunk after the hole).
    pub t1: SimTime,
}

impl GapRange {
    /// The missing span.
    #[must_use]
    pub fn span(&self) -> SimDuration {
        self.t1.saturating_since(self.t0)
    }
}
