//! The node's chunk store, wrapped with trace emission and energy
//! accounting.
//!
//! Every mutation of local storage flows through here so that the
//! simulation trace reconstructs the network-wide stored-audio multiset
//! exactly (the redundancy and contour figures depend on it) and every
//! flash write is charged to the battery. Reads need neither, so the
//! wrapper dereferences to the [`ChunkStore`] for them; it implements no
//! `DerefMut`, so no mutation can bypass the trace.

use enviromic_flash::{Chunk, ChunkStore, StoreError};
use enviromic_runtime::{Runtime, TraceEvent};

/// A [`ChunkStore`] whose mutations are traced and metered.
#[derive(Debug)]
pub(crate) struct TracedStore {
    store: ChunkStore,
    /// Payload bytes recorded locally since the last rate update (input to
    /// the EWMA acquisition rate, §II-B).
    bytes_since_rate_update: u64,
}

impl core::ops::Deref for TracedStore {
    type Target = ChunkStore;

    fn deref(&self) -> &ChunkStore {
        &self.store
    }
}

impl TracedStore {
    /// Wraps `store`: a fresh one, or one rebuilt by crash recovery
    /// ([`ChunkStore::recover`]) so a rebooted node resumes with its flash
    /// contents intact (§VI: data outlives the node's RAM state).
    pub fn new(store: ChunkStore) -> Self {
        TracedStore {
            store,
            bytes_since_rate_update: 0,
        }
    }

    /// The underlying store, for recovery after a reboot.
    pub fn into_inner(self) -> ChunkStore {
        self.store
    }

    /// Returns and resets the locally recorded byte counter.
    pub fn take_rate_bytes(&mut self) -> u64 {
        core::mem::take(&mut self.bytes_since_rate_update)
    }

    /// Stores a chunk, tracing and charging the flash write.
    ///
    /// `counts_as_inflow` marks chunks that feed the acquisition-rate
    /// estimate: locally recorded audio and migrated-in data both do;
    /// re-pushes of already-counted chunks (prelude retagging) do not.
    ///
    /// # Errors
    ///
    /// [`StoreError::Full`] when no slot is free.
    pub fn push(
        &mut self,
        ctx: &mut dyn Runtime,
        chunk: Chunk,
        counts_as_inflow: bool,
    ) -> Result<(), StoreError> {
        let bytes = chunk.payload.len() as u32;
        let meta = chunk.meta;
        let t_end = chunk.t_end();
        self.store.push_back(chunk)?;
        ctx.charge_flash_write(1);
        if counts_as_inflow {
            self.bytes_since_rate_update += u64::from(bytes);
        }
        ctx.trace(TraceEvent::ChunkStored {
            node: ctx.node_id(),
            origin: meta.origin,
            event: meta.event,
            audio_t0: meta.t_start,
            audio_t1: t_end,
            bytes,
            t: ctx.now(),
        });
        Ok(())
    }

    /// Removes the oldest chunk, tracing the removal.
    pub fn pop_front(&mut self, ctx: &mut dyn Runtime) -> Option<Chunk> {
        let chunk = self.store.pop_front().ok().flatten()?;
        trace_removal(ctx, &chunk);
        Some(chunk)
    }

    /// Removes the newest chunk (prelude erasure), tracing the removal.
    pub fn pop_back(&mut self, ctx: &mut dyn Runtime) -> Option<Chunk> {
        let chunk = self.store.pop_back().ok().flatten()?;
        trace_removal(ctx, &chunk);
        Some(chunk)
    }

    /// Marks a flash block bad: further writes to it fail and are remapped
    /// to the next good slot by the store.
    pub fn mark_bad_block(&mut self, index: u32) {
        self.store.mark_bad_block(index);
    }
}

/// Traces that this node no longer holds `chunk`.
fn trace_removal(ctx: &mut dyn Runtime, chunk: &Chunk) {
    ctx.trace(TraceEvent::ChunkRemoved {
        node: ctx.node_id(),
        origin: chunk.meta.origin,
        audio_t0: chunk.meta.t_start,
        audio_t1: chunk.t_end(),
        t: ctx.now(),
    });
}
