//! Application-level forwarding baseline (paper §1).
//!
//! Nexus-style multi-device systems leave routing to the application: a
//! relay process receives a whole message with ordinary `unpack` calls into
//! a temporary buffer and re-sends it with ordinary `pack` calls. The paper
//! names the two costs this incurs — extra copies through temporary buffers
//! and the impossibility of pipelining (the relay stores the full message
//! before forwarding) — and the benchmarks quantify both against the GTM
//! gateway. This module implements that baseline faithfully so the
//! comparison is against a real contender, not a strawman.
//!
//! Because plain Madeleine messages are not self-described, the baseline
//! needs its own application protocol: each message is preceded by an
//! express header carrying the payload length and final destination.

use madeleine::{Channel, MadError, NodeId, RecvMode, Result, SendMode};

/// Send `payload` to `dest` through an application-level relay chain: the
/// message goes to `next` (the first relay) with a self-made header.
pub fn send_via_relay(channel: &Channel, next: NodeId, dest: NodeId, payload: &[u8]) -> Result<()> {
    let header = encode_header(dest, payload.len());
    let mut msg = channel.begin_packing(next)?;
    msg.pack(&header, SendMode::Safer, RecvMode::Express)?;
    msg.pack(payload, SendMode::Later, RecvMode::Cheaper)?;
    msg.end_packing()
}

/// Receive one relayed message addressed to this node: returns the
/// original payload. The caller must be the `dest` of the send.
pub fn recv_via_relay(channel: &Channel, rank: NodeId) -> Result<Vec<u8>> {
    let mut msg = channel.begin_unpacking()?;
    let mut header = [0u8; 12];
    msg.unpack(&mut header, SendMode::Safer, RecvMode::Express)?;
    let (dest, len) = decode_header(&header)?;
    if dest != rank {
        return Err(MadError::Protocol(format!(
            "relayed message for {dest} arrived at {rank}"
        )));
    }
    let mut payload = vec![0u8; len];
    msg.unpack(&mut payload, SendMode::Later, RecvMode::Cheaper)?;
    msg.end_unpacking()?;
    Ok(payload)
}

/// Run a relay node: receive messages on `input`, store each one fully in a
/// temporary buffer, then re-send it on `output` toward its destination
/// (`route` maps a final destination to the next hop on `output`).
/// Returns the number of messages relayed, once `input` disconnects.
///
/// This is the paper's strawman-by-necessity: no pipelining (store and
/// forward), one extra pass through a temporary buffer per hop, and relay
/// logic written into the application.
pub fn run_relay(
    input: &Channel,
    output: &Channel,
    route: impl Fn(NodeId) -> Option<NodeId>,
) -> Result<usize> {
    let mut relayed = 0;
    loop {
        let mut msg = match input.begin_unpacking() {
            Ok(m) => m,
            Err(MadError::Disconnected) => return Ok(relayed),
            Err(e) => return Err(e),
        };
        let mut header = [0u8; 12];
        msg.unpack(&mut header, SendMode::Safer, RecvMode::Express)?;
        let (dest, len) = decode_header(&header)?;
        // The whole message lands in a temporary buffer before anything is
        // retransmitted — the defining non-feature of this baseline.
        let mut tmp = vec![0u8; len];
        msg.unpack(&mut tmp, SendMode::Later, RecvMode::Cheaper)?;
        msg.end_unpacking()?;
        input.runtime().charge_copy(len);

        let next = route(dest).ok_or(MadError::Unroutable(dest))?;
        let mut out = output.begin_packing(next)?;
        out.pack(&header, SendMode::Safer, RecvMode::Express)?;
        out.pack(&tmp, SendMode::Later, RecvMode::Cheaper)?;
        out.end_packing()?;
        relayed += 1;
    }
}

fn encode_header(dest: NodeId, len: usize) -> [u8; 12] {
    let mut h = [0u8; 12];
    h[0..4].copy_from_slice(&dest.0.to_le_bytes());
    h[4..12].copy_from_slice(&(len as u64).to_le_bytes());
    h
}

fn decode_header(h: &[u8; 12]) -> Result<(NodeId, usize)> {
    let dest = u32::from_le_bytes(h[0..4].try_into().unwrap());
    let len = u64::from_le_bytes(h[4..12].try_into().unwrap());
    Ok((NodeId(dest), len as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let h = encode_header(NodeId(9), 123456);
        assert_eq!(decode_header(&h).unwrap(), (NodeId(9), 123456));
    }
}
