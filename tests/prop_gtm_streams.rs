//! Property tests of the version-2 GTM stream layer: fragmenting any mix
//! of messages, interleaving their packets in any order, and reassembling
//! through [`StreamAssembler`] must be the identity — for arbitrary block
//! contents, MTUs, flags, and interleave schedules.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mad_util::prop::{self, Config};
use mad_util::{prop_assert, prop_assert_eq, prop_require};
use madeleine::conduit::{BufferMode, Conduit, DriverCaps, StaticBuf};
use madeleine::gtm::{
    self, GtmHeader, GtmPartDesc, GtmWriter, StreamAssembler, StreamItem, StreamTag,
};
use madeleine::runtime::RtEvent;
use madeleine::{
    Channel, ChannelId, MadError, NetworkId, NodeId, RecvMode, Runtime, SendMode, StdRuntime,
};

/// One generated stream: tag fields, MTU, direct flag, and its blocks
/// (bytes plus flag selectors).
type GenStream = (u32, u32, u32, bool, Vec<(Vec<u8>, u32, u32)>);

/// A case: streams plus an interleave schedule (consumed round-robin-ish).
type GenCase = (Vec<GenStream>, Vec<u32>);

fn send_mode(sel: u32) -> SendMode {
    match sel % 3 {
        0 => SendMode::Safer,
        1 => SendMode::Later,
        _ => SendMode::Cheaper,
    }
}

fn recv_mode(sel: u32) -> RecvMode {
    match sel % 2 {
        0 => RecvMode::Express,
        _ => RecvMode::Cheaper,
    }
}

/// Encode a stream packet by packet — the sequence `GtmWriter`'s wire
/// output must split back into.
fn encode_stream(
    tag: &StreamTag,
    mtu: u32,
    direct: bool,
    blocks: &[(Vec<u8>, u32, u32)],
) -> Vec<Vec<u8>> {
    let mut pkts = vec![gtm::encode_header(&GtmHeader::new(*tag, mtu, direct))];
    for (data, s, r) in blocks {
        pkts.push(gtm::encode_part(
            tag,
            &GtmPartDesc {
                len: data.len() as u64,
                send: send_mode(*s),
                recv: recv_mode(*r),
            },
        ));
        for chunk in data.chunks(mtu as usize) {
            let mut frag = gtm::frag_prelude(tag).to_vec();
            frag.extend_from_slice(chunk);
            pkts.push(frag);
        }
    }
    pkts.push(gtm::encode_end(tag));
    pkts
}

fn interleave_identity(case: &GenCase) -> Result<(), String> {
    let (streams, schedule) = case;
    // Stream keys must be distinct or the mix is ill-formed by contract.
    let mut keys: Vec<_> = streams
        .iter()
        .map(|(src, _dest, msg_id, ..)| (*src, *msg_id))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    prop_require!(keys.len() == streams.len());

    let tags: Vec<StreamTag> = streams
        .iter()
        .map(|&(src, dest, msg_id, ..)| StreamTag {
            src: NodeId(src),
            dest: NodeId(dest),
            msg_id,
        })
        .collect();
    let mut queues: Vec<std::collections::VecDeque<Vec<u8>>> = streams
        .iter()
        .zip(&tags)
        .map(|((_, _, _, direct, blocks), tag)| {
            let mtu = 1 + (tag.msg_id % 64); // small MTUs stress chunking
            encode_stream(tag, mtu, *direct, blocks).into()
        })
        .collect();

    // Interleave: each schedule entry picks among the still-nonempty
    // queues; leftovers drain in stream order.
    let mut asm = StreamAssembler::new();
    let feed = |pkt: Vec<u8>, asm: &mut StreamAssembler| -> Result<(), String> {
        asm.push_packet(pkt).map(|_| ()).map_err(|e| e.to_string())
    };
    for &pick in schedule {
        let nonempty: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        if nonempty.is_empty() {
            break;
        }
        let q = nonempty[pick as usize % nonempty.len()];
        let pkt = queues[q].pop_front().unwrap();
        feed(pkt, &mut asm)?;
    }
    for q in &mut queues {
        while let Some(pkt) = q.pop_front() {
            feed(pkt, &mut asm)?;
        }
    }

    // Reassemble each stream and compare with the original.
    let mut reassembled = 0usize;
    while let Some(key) = asm.pop_ready() {
        let idx = tags.iter().position(|t| t.key() == key).unwrap();
        reassembled += 1;
        let (_, _, _, direct, blocks) = &streams[idx];
        let header = asm.header(key).expect("ready stream has a header");
        prop_assert_eq!(header.tag, tags[idx]);
        prop_assert_eq!(header.direct, *direct);
        for (data, s, r) in blocks {
            match asm.next_item(key) {
                Some(StreamItem::Part(d)) => {
                    prop_assert_eq!(d.len, data.len() as u64);
                    prop_assert_eq!(d.send, send_mode(*s));
                    prop_assert_eq!(d.recv, recv_mode(*r));
                }
                other => return Err(format!("expected part, got {other:?}")),
            }
            let mut got = Vec::new();
            while got.len() < data.len() {
                match asm.next_item(key) {
                    Some(StreamItem::Frag(pkt)) => got.extend_from_slice(gtm::frag_payload(&pkt)),
                    other => return Err(format!("expected fragment, got {other:?}")),
                }
            }
            prop_assert_eq!(&got, data, "block bytes survive interleaving");
        }
        prop_assert_eq!(asm.next_item(key), Some(StreamItem::End));
        prop_assert_eq!(asm.next_item(key), None);
        asm.finish(key);
    }
    prop_assert!(asm.is_idle(), "no stream state left behind");
    prop_assert_eq!(reassembled, streams.len(), "every stream came back");
    Ok(())
}

#[test]
fn fragment_interleave_reassemble_is_identity() {
    prop::check(
        "fragment_interleave_reassemble_is_identity",
        &Config::default(),
        |rng| {
            let n = rng.gen_range(1usize..5);
            let streams = (0..n)
                .map(|i| {
                    (
                        rng.gen_range(0u32..4),
                        rng.gen_range(0u32..4),
                        // Distinct-by-construction most of the time; the
                        // property discards the rare colliding mixes.
                        i as u32 * 8 + rng.gen_range(0u32..8),
                        rng.gen_range(0u32..2) == 1,
                        prop::vec_of(rng, 0..4, |r| {
                            (prop::bytes(r, 0..200), r.next_u32(), r.next_u32())
                        }),
                    )
                })
                .collect();
            let schedule = prop::vec_of(rng, 0..400, |r| r.next_u32());
            (streams, schedule)
        },
        interleave_identity,
    );
}

/// Re-frame an arbitrary packet sequence into batch trains the way a
/// gateway's forwarding thread does: consecutive runs of `1 + sizes[i] % 5`
/// packets; a run of one stays a plain packet, longer runs become one
/// batch frame.
fn frame_trains(seq: &[Vec<u8>], sizes: &[u32]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut i = 0usize;
    let mut pick = 0usize;
    while i < seq.len() {
        let n = if sizes.is_empty() {
            1
        } else {
            1 + (sizes[pick % sizes.len()] as usize % 5)
        };
        pick += 1;
        let train: Vec<&[u8]> = seq[i..seq.len().min(i + n)]
            .iter()
            .map(|p| p.as_slice())
            .collect();
        if train.len() == 1 {
            frames.push(train[0].to_vec());
        } else {
            frames.push(gtm::encode_batch(&train));
        }
        i += train.len();
    }
    frames
}

/// Drain an assembler completely into comparable per-stream transcripts.
fn drain(mut asm: StreamAssembler) -> Vec<(gtm::StreamKey, GtmHeader, Vec<StreamItem>)> {
    let mut out = Vec::new();
    while let Some(key) = asm.pop_ready() {
        let header = asm.header(key).expect("ready stream has a header");
        let mut items = Vec::new();
        while let Some(item) = asm.next_item(key) {
            items.push(item);
        }
        asm.finish(key);
        out.push((key, header, items));
    }
    out
}

/// The tentpole equivalence: any packet sequence — headers, parts,
/// fragments, ends, cancels, and (wire-level) credits, interleaved across
/// streams — means exactly the same thing after being re-framed into
/// batch trains of arbitrary sizes.
#[test]
fn batched_trains_equal_unbatched_sequence() {
    type Case = (Vec<GenStream>, Vec<u32>, Vec<u32>, Vec<u32>);
    prop::check(
        "batched_trains_equal_unbatched_sequence",
        &Config::default(),
        |rng| -> Case {
            let n = rng.gen_range(1usize..5);
            let streams = (0..n)
                .map(|i| {
                    (
                        rng.gen_range(0u32..4),
                        rng.gen_range(0u32..4),
                        i as u32 * 8 + rng.gen_range(0u32..8),
                        rng.gen_range(0u32..2) == 1, // reused as: cancel at end
                        prop::vec_of(rng, 0..4, |r| {
                            (prop::bytes(r, 0..120), r.next_u32(), r.next_u32())
                        }),
                    )
                })
                .collect();
            let schedule = prop::vec_of(rng, 0..300, |r| r.next_u32());
            let sizes = prop::vec_of(rng, 1..40, |r| r.next_u32());
            let credit_at = prop::vec_of(rng, 0..6, |r| r.next_u32());
            (streams, schedule, sizes, credit_at)
        },
        |case: &Case| -> Result<(), String> {
            let (streams, schedule, sizes, credit_at) = case;
            let mut keys: Vec<_> = streams
                .iter()
                .map(|(src, _dest, msg_id, ..)| (*src, *msg_id))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            prop_require!(keys.len() == streams.len());

            // Encode each stream, ending half of them with a cancel.
            let tags: Vec<StreamTag> = streams
                .iter()
                .map(|&(src, dest, msg_id, ..)| StreamTag {
                    src: NodeId(src),
                    dest: NodeId(dest),
                    msg_id,
                })
                .collect();
            let mut queues: Vec<std::collections::VecDeque<Vec<u8>>> = streams
                .iter()
                .zip(&tags)
                .map(|((_, _, _, cancel, blocks), tag)| {
                    let mtu = 1 + (tag.msg_id % 64);
                    let mut pkts = encode_stream(tag, mtu, false, blocks);
                    if *cancel {
                        pkts.pop();
                        pkts.push(gtm::encode_cancel(tag, gtm::CancelReason::PeerUnreachable));
                    }
                    pkts.into()
                })
                .collect();
            let mut seq: Vec<Vec<u8>> = Vec::new();
            for &pick in schedule {
                let nonempty: Vec<usize> = (0..queues.len())
                    .filter(|&i| !queues[i].is_empty())
                    .collect();
                if nonempty.is_empty() {
                    break;
                }
                let q = nonempty[pick as usize % nonempty.len()];
                seq.push(queues[q].pop_front().unwrap());
            }
            for q in &mut queues {
                while let Some(pkt) = q.pop_front() {
                    seq.push(pkt);
                }
            }

            // Wire-level equivalence, with hop-local credit packets mixed
            // in: splitting the framed trains recovers the exact byte
            // sequence, packet for packet.
            let mut wire_seq = seq.clone();
            for (i, &at) in credit_at.iter().enumerate() {
                let tag = &tags[i % tags.len()];
                let pos = at as usize % (wire_seq.len() + 1);
                wire_seq.insert(pos, gtm::encode_credit(tag, 1 + at % 7));
            }
            let mut recovered: Vec<Vec<u8>> = Vec::new();
            for frame in frame_trains(&wire_seq, sizes) {
                let (_, body) = gtm::decode_packet(&frame).map_err(|e| e.to_string())?;
                if matches!(body, gtm::PacketBody::Batch) {
                    for sub in gtm::batch_packets(&frame).map_err(|e| e.to_string())? {
                        recovered.push(sub.to_vec());
                    }
                } else {
                    recovered.push(frame);
                }
            }
            prop_assert_eq!(
                &recovered,
                &wire_seq,
                "trains split back to the same packets"
            );

            // Assembler-level equivalence (credits never reach an
            // assembler in real routing): plain feed and batched feed
            // leave identical stream transcripts.
            let mut plain = StreamAssembler::new();
            for pkt in &seq {
                plain.push_packet(pkt.clone()).map_err(|e| e.to_string())?;
            }
            let mut batched = StreamAssembler::new();
            for frame in frame_trains(&seq, sizes) {
                batched.push_packet(frame).map_err(|e| e.to_string())?;
            }
            let (a, b) = (drain(plain), drain(batched));
            prop_assert_eq!(a.len(), b.len(), "same stream count both ways");
            for ((ka, ha, ia), (kb, hb, ib)) in a.iter().zip(&b) {
                prop_assert_eq!(ka, kb);
                prop_assert_eq!(ha.tag, hb.tag);
                prop_assert_eq!(ha.mtu, hb.mtu);
                prop_assert_eq!(ia, ib, "identical item transcripts");
            }
            Ok(())
        },
    );
}

/// A degenerate but important pin: a single maximal interleave (strict
/// round-robin of three streams, MTU 1) is the identity too.
#[test]
fn strict_round_robin_three_streams() {
    let streams: Vec<GenStream> = (0..3u32)
        .map(|i| {
            (
                i,
                9,
                i,
                false,
                vec![(
                    (0..50u8).map(|b| b.wrapping_mul(3 + i as u8)).collect(),
                    i,
                    i,
                )],
            )
        })
        .collect();
    let schedule: Vec<u32> = (0..400).map(|i| i % 3).collect();
    interleave_identity(&(streams, schedule)).unwrap();
}

/// A first hop that only records: every wire packet, and the widest
/// gather list it was sent with.
struct Capture {
    caps: DriverCaps,
    wire: Arc<Mutex<Vec<Vec<u8>>>>,
    widest_gather: Arc<Mutex<usize>>,
    event: Arc<dyn RtEvent>,
}

impl Conduit for Capture {
    fn caps(&self) -> DriverCaps {
        self.caps
    }
    fn send(&mut self, parts: &[&[u8]]) -> madeleine::Result<()> {
        let mut widest = self.widest_gather.lock().unwrap();
        *widest = (*widest).max(parts.len());
        self.wire.lock().unwrap().push(parts.concat());
        Ok(())
    }
    fn send_static(&mut self, buf: StaticBuf) -> madeleine::Result<()> {
        self.wire.lock().unwrap().push(buf.into_vec());
        Ok(())
    }
    fn alloc_static(&mut self, _len: usize) -> Option<StaticBuf> {
        None
    }
    fn recv_into(&mut self, _dst: &mut [u8]) -> madeleine::Result<usize> {
        Err(MadError::Disconnected)
    }
    fn recv_owned(&mut self) -> madeleine::Result<Vec<u8>> {
        Err(MadError::Disconnected)
    }
    fn ready(&self) -> bool {
        false
    }
    fn closed(&self) -> bool {
        true
    }
    fn recv_event(&self) -> Arc<dyn RtEvent> {
        self.event.clone()
    }
}

/// The writer stages, the wire carries trains — and nothing else changes:
/// for any blocks, flags, MTU and first-hop capabilities, splitting the
/// frames on the wire gives back exactly the packet sequence of the
/// stream, every frame respects the driver's preferred size and gather
/// limit, and the flags' "receiver needs it now" is honoured — a block
/// that flushes is wholly on the wire when its `pack` returns.
#[test]
fn writer_trains_split_back_into_the_stream() {
    /// MTU, preferred packet size, gather limit, blocks.
    type Case = (u32, u32, u32, Vec<(Vec<u8>, u32, u32)>);
    prop::check(
        "writer_trains_split_back_into_the_stream",
        &Config::default(),
        |rng| -> Case {
            (
                rng.gen_range(1u32..300),
                rng.gen_range(1u32..700),
                rng.gen_range(0u32..12),
                prop::vec_of(rng, 0..6, |r| {
                    (prop::bytes(r, 0..500), r.next_u32(), r.next_u32())
                }),
            )
        },
        |(mtu, preferred, gather, blocks): &Case| -> Result<(), String> {
            prop_require!(*mtu > 0 && *preferred > 0); // shrinking reaches 0
            let caps = DriverCaps {
                name: "capture",
                mode: BufferMode::Dynamic,
                // 0 and 1 stand for "no limit": a bulk fragment leaves as
                // a two-segment gather, so two is the least a first hop
                // can offer.
                max_gather: match *gather {
                    0 | 1 => usize::MAX,
                    g => g as usize,
                },
                max_packet: 1024,
                preferred_mtu: *preferred as usize,
                queued_send: false,
            };
            let rt: Arc<dyn Runtime> = StdRuntime::shared();
            let wire = Arc::new(Mutex::new(Vec::new()));
            let widest_gather = Arc::new(Mutex::new(0));
            let conduit: Box<dyn Conduit> = Box::new(Capture {
                caps,
                wire: wire.clone(),
                widest_gather: widest_gather.clone(),
                event: rt.event(),
            });
            let channel = Channel::assemble(
                ChannelId(0),
                "capture",
                NetworkId(0),
                NodeId(0),
                caps,
                BTreeMap::from([(NodeId(1), conduit)]),
                rt.event(),
                rt.clone(),
            );
            let tag = StreamTag {
                src: NodeId(0),
                dest: NodeId(2),
                msg_id: 3,
            };
            let expected = encode_stream(&tag, *mtu, false, blocks);
            let split = |wire: &[Vec<u8>]| -> Result<Vec<Vec<u8>>, String> {
                let mut packets = Vec::new();
                for frame in wire {
                    match gtm::decode_packet(frame).map_err(|e| e.to_string())?.1 {
                        gtm::PacketBody::Batch => packets.extend(
                            gtm::batch_packets(frame)
                                .map_err(|e| e.to_string())?
                                .map(<[u8]>::to_vec),
                        ),
                        _ => packets.push(frame.clone()),
                    }
                }
                Ok(packets)
            };

            let err = |e: MadError| e.to_string();
            let mut w = GtmWriter::begin(&channel, NodeId(1), tag, *mtu as usize, false, None)
                .map_err(err)?;
            // Packets the stream holds once each block is packed.
            let mut so_far = 1;
            for (data, s, r) in blocks {
                let (send, recv) = (send_mode(*s), recv_mode(*r));
                w.pack(data, send, recv).map_err(err)?;
                so_far += 1 + data.len().div_ceil(*mtu as usize);
                if madeleine::plan::flush_after(send, recv) {
                    let on_wire = split(&wire.lock().unwrap())?;
                    prop_assert_eq!(
                        &on_wire[..],
                        &expected[..so_far],
                        "a flushing block is on the wire when pack returns"
                    );
                }
            }
            w.end_packing().map_err(err)?;

            let wire = wire.lock().unwrap();
            prop_assert_eq!(&split(&wire)?, &expected, "the trains carry the stream");
            let budget = caps.preferred_mtu.min(caps.max_packet);
            for frame in wire.iter() {
                prop_assert!(frame.len() <= caps.max_packet);
                if let Ok(members) = gtm::batch_packets(frame) {
                    let n = members.count();
                    prop_assert!(n >= 2, "a train of one leaves unframed");
                    prop_assert!(frame.len() <= budget, "frame over the preferred size");
                    // A gathered frame is the prelude, then a length prefix
                    // and a body per packet.
                    prop_assert!(
                        2 * n < caps.max_gather,
                        "a relay could not re-gather a train of {n}"
                    );
                }
            }
            prop_assert!(*widest_gather.lock().unwrap() <= caps.max_gather);
            Ok(())
        },
    );
}
