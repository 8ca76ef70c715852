//! Counting-allocator pin on the wire decoder: a count field read off the
//! wire cannot reserve more records than the frame's payload holds. Any
//! client can send the server a frame of any type, so a 48-byte
//! `UpdateBatch` claiming 65535 updates, one of which claims 65535
//! targets, must fail having reserved kilobytes, not megabytes; so must a
//! `WorldUpdate` claiming 65535 tracks.
//!
//! This file is its own test binary on purpose: a global counting
//! allocator sees every thread in the process, so the measurement must
//! not share a process with concurrently-running tests.

// Only the byte counter is used here, not the shared sweep generator.
#[allow(dead_code)]
mod counting_alloc;

use counting_alloc::requested_bytes;
use witrack_core::FrameReport;
use witrack_fuse::WorldFrame;
use witrack_serve::wire::{self, Message, UpdateBatch, WireError, WorldUpdateMsg, HEADER_LEN};

/// Reservations a hostile frame may cause before it is refused.
const BUDGET: u64 = 64 << 10;

/// Decodes `frame`, expecting `BadPayload`, and returns the bytes the
/// attempt requested from the allocator.
fn bytes_requested_refusing(frame: &[u8]) -> u64 {
    let before = requested_bytes();
    let result = wire::decode(frame);
    let requested = requested_bytes() - before;
    assert!(
        matches!(result, Err(WireError::BadPayload(_))),
        "hostile frame must be refused: {result:?}"
    );
    requested
}

fn patch_u16(frame: &mut [u8], payload_at: usize, value: u16) {
    let at = HEADER_LEN + payload_at;
    frame[at..at + 2].copy_from_slice(&value.to_le_bytes());
}

#[test]
fn hostile_record_counts_reserve_no_more_than_the_payload_holds() {
    // One update with no targets: a 16-byte batch header plus one 20-byte
    // update header, 48 bytes on the wire. Then claim 65535 updates and
    // 65535 targets for the one update present.
    let mut update_batch = wire::encode(&Message::UpdateBatch(UpdateBatch {
        sensor_id: 1,
        seq: 0,
        updates: vec![FrameReport {
            frame_index: 0,
            time_s: 0.0,
            targets: Vec::new(),
        }],
    }));
    assert_eq!(update_batch.len(), 48);
    patch_u16(&mut update_batch, 12, u16::MAX); // n_updates
    patch_u16(&mut update_batch, 16 + 16, u16::MAX); // n_targets
    let requested = bytes_requested_refusing(&update_batch);
    assert!(
        requested < BUDGET,
        "a 48-byte UpdateBatch reserved {requested} bytes"
    );

    // A world update with no tracks, claiming 65535.
    let mut world_update = wire::encode(&Message::WorldUpdate(WorldUpdateMsg {
        room_id: 1,
        seq: 0,
        frame: WorldFrame {
            epoch: 0,
            time_s: 0.0,
            tracks: Vec::new(),
            events: Vec::new(),
        },
    }));
    patch_u16(&mut world_update, 28, u16::MAX); // n_tracks
    let requested = bytes_requested_refusing(&world_update);
    assert!(
        requested < BUDGET,
        "a {}-byte WorldUpdate reserved {requested} bytes",
        world_update.len()
    );
}
