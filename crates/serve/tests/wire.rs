//! Wire-codec coverage: round trips (in memory and over a real loopback
//! socket), malformed headers, truncated frames, and the engine-level
//! refusals (unknown sensor, out-of-order sequence).

use witrack_core::{FrameReport, TargetReport, WiTrackConfig};
use witrack_fmcw::SweepConfig;
use witrack_fuse::{WorldEvent, WorldFrame, WorldTrackId, WorldTrackSnapshot};
use witrack_geom::Vec3;
use witrack_serve::engine::ShardedEngine;
use witrack_serve::factory::{hello_for, witrack_factory};
use witrack_serve::transport::{TcpTransport, Transport, TransportRx, TransportTx};
use witrack_serve::wire::{
    self, EventMsg, Hello, Message, PipelineKind, Reject, RejectCode, SweepBatchQ, Teardown,
    UpdateBatch, WireError, WorldUpdateMsg, HEADER_LEN, MAGIC,
};
use witrack_serve::SubscriptionBuilder;

fn reduced_base() -> WiTrackConfig {
    WiTrackConfig {
        sweep: SweepConfig {
            start_freq_hz: 5.56e8,
            bandwidth_hz: 1.69e8,
            sweep_duration_s: 1e-3,
            sample_rate_hz: 100e3,
            sweeps_per_frame: 5,
            transmit_power_w: 1e-3,
        },
        max_round_trip_m: 40.0,
        ..WiTrackConfig::witrack_default()
    }
}

fn sample_messages() -> Vec<Message> {
    vec![
        Message::Hello(Hello {
            sensor_id: 42,
            kind: PipelineKind::MultiTarget,
            n_rx: 3,
            samples_per_sweep: 100,
            sweeps_per_frame: 5,
            quantized: true,
        }),
        Message::SweepBatchQ(SweepBatchQ::from_sweeps(
            42,
            7,
            &[
                vec![vec![0.5, -1.25], vec![3.0, 4.0]],
                vec![vec![9.0, 10.0], vec![-11.0, 12.5]],
            ],
        )),
        Message::Teardown(Teardown { sensor_id: 42 }),
        Message::UpdateBatch(UpdateBatch {
            sensor_id: 42,
            seq: 3,
            updates: vec![FrameReport {
                frame_index: 12,
                time_s: 0.15,
                targets: vec![
                    TargetReport {
                        id: Some(5),
                        position: Vec3::new(1.0, 4.5, 1.2),
                        velocity: Some(Vec3::new(-0.5, 0.25, 0.0)),
                        held: false,
                        pos_var: None,
                        innovation: None,
                    },
                    TargetReport {
                        id: None,
                        position: Vec3::new(-2.0, 6.0, 0.9),
                        velocity: None,
                        held: true,
                        pos_var: None,
                        innovation: None,
                    },
                ],
            }],
        }),
        Message::Reject(Reject {
            sensor_id: 42,
            code: RejectCode::UnknownSensor,
        }),
        Message::SubscribeV3(SubscriptionBuilder::room(3).id(1).no_events().build()),
        Message::WorldUpdate(WorldUpdateMsg {
            room_id: 3,
            seq: 11,
            frame: WorldFrame {
                epoch: 480,
                time_s: 6.0,
                tracks: vec![
                    WorldTrackSnapshot {
                        id: WorldTrackId(2),
                        position: Vec3::new(1.0, 4.0, 1.1),
                        velocity: Vec3::new(0.5, -0.25, 0.0),
                        pos_var: Vec3::new(0.01, 0.02, 0.08),
                        coasting: false,
                        contributors: 2,
                        primary_sensor: Some(7),
                    },
                    WorldTrackSnapshot {
                        id: WorldTrackId(5),
                        position: Vec3::new(-2.0, 8.0, 0.9),
                        velocity: Vec3::ZERO,
                        pos_var: Vec3::new(0.5, 0.5, 0.5),
                        coasting: true,
                        contributors: 0,
                        primary_sensor: None,
                    },
                ],
                // Events travel as separate frames; the codec drops them.
                events: Vec::new(),
            },
        }),
        Message::Event(EventMsg {
            room_id: 3,
            event: WorldEvent::Fall {
                track: WorldTrackId(2),
                time_s: 6.0,
                from_z: 1.1,
                to_z: 0.15,
            },
        }),
        Message::Event(EventMsg {
            room_id: 3,
            event: WorldEvent::Handoff {
                track: WorldTrackId(2),
                from_sensor: 7,
                to_sensor: 9,
                time_s: 6.0,
            },
        }),
    ]
}

/// One of every event kind, for exhaustive codec coverage.
fn all_event_kinds() -> Vec<WorldEvent> {
    let track = WorldTrackId(4);
    let p = Vec3::new(0.5, 6.5, 1.0);
    vec![
        WorldEvent::TrackBorn {
            track,
            time_s: 1.0,
            position: p,
        },
        WorldEvent::TrackLost {
            track,
            time_s: 2.0,
            position: p,
        },
        WorldEvent::Fall {
            track,
            time_s: 3.0,
            from_z: 1.0,
            to_z: 0.1,
        },
        WorldEvent::ZoneEntered {
            track,
            zone: 9,
            time_s: 4.0,
        },
        WorldEvent::ZoneExited {
            track,
            zone: 9,
            time_s: 5.0,
        },
        WorldEvent::OccupancyChanged {
            zone: 9,
            count: 3,
            time_s: 6.0,
        },
        WorldEvent::Handoff {
            track,
            from_sensor: 0,
            to_sensor: 1,
            time_s: 7.0,
        },
        WorldEvent::Pointing {
            track: Some(track),
            sensor: 1,
            time_s: 8.0,
            direction: Vec3::new(0.0, -1.0, 0.0),
        },
        WorldEvent::Pointing {
            track: None,
            sensor: 1,
            time_s: 9.0,
            direction: Vec3::new(1.0, 0.0, 0.0),
        },
    ]
}

#[test]
fn every_message_type_round_trips_in_memory() {
    for msg in sample_messages() {
        let frame = wire::encode(&msg);
        let (decoded, used) = wire::decode(&frame).expect("decodes");
        assert_eq!(used, frame.len(), "whole frame consumed");
        assert_eq!(decoded, msg);
    }
}

#[test]
fn concatenated_frames_decode_one_at_a_time() {
    let msgs = sample_messages();
    let mut stream = Vec::new();
    for m in &msgs {
        wire::encode_into(m, &mut stream);
    }
    let mut at = 0;
    for expected in &msgs {
        let (got, used) = wire::decode(&stream[at..]).expect("decodes mid-stream");
        assert_eq!(&got, expected);
        at += used;
    }
    assert_eq!(at, stream.len());
}

#[test]
fn loopback_socket_round_trips_a_sweep_batch() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Echo peer: receive messages, send them straight back.
    let echo = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let (mut tx, mut rx) = TcpTransport::new(stream).split().unwrap();
        while let Some(msg) = rx.recv_msg().unwrap() {
            tx.send_msg(&msg).unwrap();
        }
    });
    let (mut tx, mut rx) = TcpTransport::connect(addr).unwrap().split().unwrap();
    for msg in sample_messages() {
        tx.send_msg(&msg).unwrap();
        let back = rx.recv_msg().unwrap().expect("echoed");
        assert_eq!(back, msg);
    }
    tx.finish().unwrap();
    assert!(
        rx.recv_msg().unwrap().is_none(),
        "echo closes after our EOF"
    );
    echo.join().unwrap();
}

#[test]
fn malformed_headers_are_rejected() {
    let good = wire::encode(&Message::Teardown(Teardown { sensor_id: 1 }));

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        wire::decode(&bad_magic),
        Err(WireError::BadMagic(_))
    ));

    let mut bad_version = good.clone();
    bad_version[4] = 99;
    assert_eq!(
        wire::decode(&bad_version),
        Err(WireError::UnsupportedVersion(99))
    );

    let mut bad_type = good.clone();
    bad_type[5] = 200;
    assert_eq!(wire::decode(&bad_type), Err(WireError::UnknownType(200)));

    let mut huge = good.clone();
    huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        wire::decode(&huge),
        Err(WireError::PayloadTooLarge(_))
    ));
}

#[test]
fn truncated_frames_ask_for_more_bytes() {
    let frame = wire::encode(&Message::SweepBatchQ(SweepBatchQ::from_sweeps(
        3,
        0,
        &[vec![vec![1.0, 2.0, 3.0]; 3]],
    )));
    // Too short for even a header: the decoder asks for the header.
    assert_eq!(
        wire::decode(&frame[..5]),
        Err(WireError::Incomplete { needed: HEADER_LEN })
    );
    // Header present but payload cut off: it names the full frame length.
    assert_eq!(
        wire::decode(&frame[..HEADER_LEN + 3]),
        Err(WireError::Incomplete {
            needed: frame.len()
        })
    );
    // A frame whose *declared* length lies about its contents is corrupt,
    // not incomplete.
    let mut lying = frame.clone();
    let shorter = (frame.len() - HEADER_LEN - 8) as u32;
    lying[8..12].copy_from_slice(&shorter.to_le_bytes());
    lying.truncate(HEADER_LEN + shorter as usize);
    assert!(matches!(
        wire::decode(&lying),
        Err(WireError::BadPayload(_))
    ));
    // Sanity: the untouched frame still decodes.
    assert_eq!(wire::decode(&frame).unwrap().1, frame.len());
    // And the spec's promise holds: the first four bytes on the wire read
    // "WTRK" in ASCII.
    assert_eq!(&MAGIC.to_le_bytes(), b"WTRK");
    assert_eq!(&frame[..4], b"WTRK");
}

#[test]
fn every_event_kind_round_trips() {
    for event in all_event_kinds() {
        let msg = Message::Event(EventMsg { room_id: 12, event });
        let frame = wire::encode(&msg);
        let (decoded, used) = wire::decode(&frame).expect("decodes");
        assert_eq!(used, frame.len());
        assert_eq!(decoded, msg, "event {event:?}");
    }
}

#[test]
fn truncated_world_update_asks_for_more_bytes() {
    let msg = sample_messages()
        .into_iter()
        .find(|m| matches!(m, Message::WorldUpdate(_)))
        .unwrap();
    let frame = wire::encode(&msg);
    for cut in [1, HEADER_LEN, frame.len() - 1] {
        match wire::decode(&frame[..cut]) {
            Err(WireError::Incomplete { needed }) => {
                assert!(needed <= frame.len());
                assert!(needed > cut);
            }
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
    // A payload length that lies (shorter than the track records claim)
    // is a fatal BadPayload, not incomplete.
    let mut lying = frame.clone();
    let shorter = (frame.len() - HEADER_LEN - 16) as u32;
    lying[8..12].copy_from_slice(&shorter.to_le_bytes());
    lying.truncate(HEADER_LEN + shorter as usize);
    assert!(matches!(
        wire::decode(&lying),
        Err(WireError::BadPayload(_))
    ));
}

#[test]
fn unknown_event_kind_is_a_bad_payload() {
    let msg = Message::Event(EventMsg {
        room_id: 1,
        event: WorldEvent::TrackBorn {
            track: WorldTrackId(0),
            time_s: 0.0,
            position: Vec3::ZERO,
        },
    });
    let mut frame = wire::encode(&msg);
    // The kind field sits right after the 4-byte room id in the payload.
    frame[HEADER_LEN + 4..HEADER_LEN + 6].copy_from_slice(&999u16.to_le_bytes());
    assert_eq!(
        wire::decode(&frame),
        Err(WireError::BadPayload("unknown event kind"))
    );
}

fn silent_frame_batch(base: &WiTrackConfig, sensor_id: u32, seq: u64) -> SweepBatchQ {
    let n = base.sweep.samples_per_sweep();
    let sweeps = vec![vec![vec![0.0; n]; 3]; base.sweep.sweeps_per_frame];
    SweepBatchQ::from_sweeps(sensor_id, seq, &sweeps)
}

#[test]
fn unknown_sensor_id_is_rejected_with_a_notice() {
    let base = reduced_base();
    let engine = ShardedEngine::builder(witrack_factory(base)).start();
    let handle = engine.handle();
    let (conn, outbox) = handle.open_connection();
    // No Hello for sensor 9: its batch must bounce.
    let batch = silent_frame_batch(&base, 9, 0);
    handle.submit(Message::SweepBatchQ(batch), &conn).unwrap();
    match wire::decode(&outbox.recv().unwrap()).unwrap().0 {
        Message::Reject(r) => {
            assert_eq!(r.sensor_id, 9);
            assert_eq!(r.code, RejectCode::UnknownSensor);
        }
        other => panic!("expected reject, got {other:?}"),
    }
    let m = engine.shutdown();
    assert_eq!(m.unknown_sensor, 1);
    assert_eq!(m.frames_emitted, 0);
    assert_eq!(m.updates_dropped, 0);
}

#[test]
fn out_of_order_and_gapped_sequences_are_accounted() {
    let base = reduced_base();
    let engine = ShardedEngine::builder(witrack_factory(base)).start();
    let handle = engine.handle();
    let (conn, outbox) = handle.open_connection();
    let hello = hello_for(&base, 4, PipelineKind::SingleTarget);
    handle.submit(Message::Hello(hello), &conn).unwrap();
    // seq 0 processes; a replayed seq 0 is stale; seq 3 implies a gap of 2.
    for seq in [0, 0, 3] {
        let batch = silent_frame_batch(&base, 4, seq);
        handle.submit(Message::SweepBatchQ(batch), &conn).unwrap();
    }
    let mut stale_rejects = 0;
    let mut frames = 0;
    for _ in 0..3 {
        match wire::decode(&outbox.recv().unwrap()).unwrap().0 {
            Message::Reject(r) => {
                assert_eq!(r.code, RejectCode::StaleSequence);
                stale_rejects += 1;
            }
            Message::UpdateBatch(u) => frames += u.updates.len(),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(stale_rejects, 1, "the replayed batch bounced");
    assert_eq!(frames, 2, "both fresh batches processed");
    let m = engine.shutdown();
    assert_eq!(m.seq_out_of_order, 1);
    assert_eq!(m.seq_gaps, 2);
    assert_eq!(m.updates_dropped, 0);
}
