//! Plain snapshots of a [`crate::Registry`] and their compact wire
//! encoding (the payload of Madeleine's kind-10 metrics packets).

use crate::HistSnapshot;

/// Wire format version of [`Snapshot::encode_into`].
const WIRE_VERSION: u8 = 1;

/// A point-in-time copy of one node's instruments, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, count)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value, peak)` per gauge.
    pub gauges: Vec<(String, i64, i64)>,
    /// `(name, buckets)` per histogram.
    pub hists: Vec<(String, HistSnapshot)>,
    /// True when an encode dropped entries to fit its byte budget (or
    /// the decoded wire image said so).
    pub truncated: bool,
}

/// Why a wire image failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The image is shorter than its own length fields claim.
    Truncated,
    /// Unknown wire version byte.
    Version(u8),
    /// A name is not UTF-8.
    BadName,
    /// A histogram bucket index is out of range.
    BadBucket(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "metrics image shorter than its length fields"),
            DecodeError::Version(v) => write!(f, "unknown metrics wire version {v}"),
            DecodeError::BadName => write!(f, "metrics name is not UTF-8"),
            DecodeError::BadBucket(i) => write!(f, "histogram bucket index {i} out of range"),
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    put_u16(out, len as u16);
    out.extend_from_slice(&bytes[..len]);
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.at.checked_add(n).ok_or(DecodeError::Truncated)?;
        let s = self.buf.get(self.at..end).ok_or(DecodeError::Truncated)?;
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn name(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| DecodeError::BadName)
    }
}

impl Snapshot {
    /// Encode into `out` (cleared first), dropping whole trailing
    /// entries rather than exceed `budget` bytes; a drop sets the
    /// `truncated` flag in the image. Histograms ship only their
    /// non-zero buckets, so a quiet histogram costs its name plus 17
    /// bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>, budget: usize) {
        out.clear();
        out.push(WIRE_VERSION);
        out.push(0); // truncated flag, patched below
        let mut truncated = self.truncated;
        let mut scratch = Vec::new();

        // Three u16 section counts are accounted up front so a section
        // never loses its header to an earlier section's entries.
        let reserved = 3 * 2usize;
        let fits = |out: &Vec<u8>, extra: usize, headers_left: usize| {
            out.len() + extra + headers_left <= budget
        };

        let count_at = out.len();
        put_u16(out, 0);
        let mut n = 0u16;
        for (name, v) in &self.counters {
            scratch.clear();
            put_name(&mut scratch, name);
            put_u64(&mut scratch, *v);
            if !fits(out, scratch.len(), reserved - 2) || n == u16::MAX {
                truncated = true;
                break;
            }
            out.extend_from_slice(&scratch);
            n += 1;
        }
        out[count_at..count_at + 2].copy_from_slice(&n.to_le_bytes());

        let count_at = out.len();
        put_u16(out, 0);
        let mut n = 0u16;
        for (name, v, peak) in &self.gauges {
            scratch.clear();
            put_name(&mut scratch, name);
            put_u64(&mut scratch, *v as u64);
            put_u64(&mut scratch, *peak as u64);
            if !fits(out, scratch.len(), reserved - 4) || n == u16::MAX {
                truncated = true;
                break;
            }
            out.extend_from_slice(&scratch);
            n += 1;
        }
        out[count_at..count_at + 2].copy_from_slice(&n.to_le_bytes());

        let count_at = out.len();
        put_u16(out, 0);
        let mut n = 0u16;
        for (name, h) in &self.hists {
            scratch.clear();
            put_name(&mut scratch, name);
            put_u64(&mut scratch, h.sum);
            put_u64(&mut scratch, h.max);
            let nonzero: Vec<(u8, u64)> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| (i as u8, c))
                .collect();
            scratch.push(nonzero.len() as u8);
            for (i, c) in nonzero {
                scratch.push(i);
                put_u64(&mut scratch, c);
            }
            if !fits(out, scratch.len(), 0) || n == u16::MAX {
                truncated = true;
                break;
            }
            out.extend_from_slice(&scratch);
            n += 1;
        }
        out[count_at..count_at + 2].copy_from_slice(&n.to_le_bytes());

        if truncated {
            out[1] = 1;
        }
    }

    /// Decode a wire image produced by [`Snapshot::encode_into`].
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, DecodeError> {
        let mut c = Cursor { buf: bytes, at: 0 };
        let version = c.u8()?;
        if version != WIRE_VERSION {
            return Err(DecodeError::Version(version));
        }
        let truncated = c.u8()? != 0;

        let n = c.u16()?;
        let mut counters = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let name = c.name()?;
            counters.push((name, c.u64()?));
        }

        let n = c.u16()?;
        let mut gauges = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let name = c.name()?;
            let v = c.u64()? as i64;
            let peak = c.u64()? as i64;
            gauges.push((name, v, peak));
        }

        let n = c.u16()?;
        let mut hists = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let name = c.name()?;
            let mut h = HistSnapshot {
                sum: c.u64()?,
                max: c.u64()?,
                ..Default::default()
            };
            let nonzero = c.u8()?;
            for _ in 0..nonzero {
                let idx = c.u8()?;
                let count = c.u64()?;
                *h.buckets
                    .get_mut(idx as usize)
                    .ok_or(DecodeError::BadBucket(idx))? = count;
            }
            hists.push((name, h));
        }

        Ok(Snapshot {
            counters,
            gauges,
            hists,
            truncated,
        })
    }

    /// Look a counter up by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look a gauge up by name: `(value, peak)`.
    pub fn gauge(&self, name: &str) -> Option<(i64, i64)> {
        self.gauges
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, p)| (v, p))
    }

    /// Look a histogram up by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_roundtrips() {
        let s = Snapshot::default();
        let mut wire = Vec::new();
        s.encode_into(&mut wire, 64);
        assert_eq!(Snapshot::decode(&wire).unwrap(), s);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Snapshot::decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(Snapshot::decode(&[9, 0]), Err(DecodeError::Version(9)));
        // A counter section claiming an entry the image doesn't have.
        assert_eq!(Snapshot::decode(&[1, 0, 5, 0]), Err(DecodeError::Truncated));
    }
}
