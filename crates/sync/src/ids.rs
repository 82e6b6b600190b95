//! Handler-id assignments for the coordination protocols.
//!
//! User applications must avoid the `0x0100..0x01FF` range, which this
//! crate reserves.

/// Lock acquire request, sent to the lock's manager (REQUEST).
pub const H_LOCK_ACQ: u32 = 0x0100;
/// Lock request forwarded by the manager to the previous queue tail.
pub const H_LOCK_PASS: u32 = 0x0101;
/// Lock grant (RELEASE) from the previous holder to the next.
pub const H_LOCK_GRANT: u32 = 0x0102;

/// Barrier arrival (RELEASE or RELEASE_NT), client to manager.
pub const H_BARRIER_ARRIVE: u32 = 0x0110;
/// Barrier departure (RELEASE), manager to clients.
pub const H_BARRIER_DEPART: u32 = 0x0111;

/// Work-queue enqueue (typically RELEASE), producer to manager.
pub const H_Q_ENQ: u32 = 0x0120;
/// Work-queue dequeue request (typically REQUEST), consumer to manager.
pub const H_Q_DEQ: u32 = 0x0121;
/// Work item delivery (forwarded enqueue), manager to consumer.
pub const H_Q_ITEM: u32 = 0x0122;
/// Queue-closed notification (NONE), manager to consumer.
pub const H_Q_EMPTY: u32 = 0x0123;
/// Queue close command (NONE), any node to manager.
pub const H_Q_CLOSE: u32 = 0x0124;

