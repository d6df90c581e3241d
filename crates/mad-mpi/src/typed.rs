//! Safe typed views over byte payloads (`f64`/`u64` vectors), plus typed
//! collective helpers.

use madeleine::error::Result;

use crate::comm::Communicator;

/// Encode a slice of `f64` as little-endian bytes.
pub fn f64s_to_bytes(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Decode little-endian bytes into `f64`s. Panics on ragged input.
pub fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    assert!(
        b.len().is_multiple_of(8),
        "payload is not a whole number of f64"
    );
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Encode a slice of `u64` as little-endian bytes.
pub fn u64s_to_bytes(v: &[u64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Decode little-endian bytes into `u64`s. Panics on ragged input.
pub fn bytes_to_u64s(b: &[u8]) -> Vec<u64> {
    assert!(
        b.len().is_multiple_of(8),
        "payload is not a whole number of u64"
    );
    b.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Element-wise combine of two little-endian `f64` byte buffers.
fn combine_f64(op: impl Fn(f64, f64) -> f64 + Copy) -> impl Fn(&mut [u8], &[u8]) + Copy {
    move |acc, other| {
        for (a, o) in acc.chunks_exact_mut(8).zip(other.chunks_exact(8)) {
            let x = f64::from_le_bytes(a.try_into().unwrap());
            let y = f64::from_le_bytes(o.try_into().unwrap());
            a.copy_from_slice(&op(x, y).to_le_bytes());
        }
    }
}

impl Communicator {
    /// Element-wise `f64` allreduce (every rank ends with the result).
    pub fn allreduce_f64(
        &self,
        data: &mut Vec<f64>,
        op: impl Fn(f64, f64) -> f64 + Copy,
    ) -> Result<()> {
        let mut bytes = f64s_to_bytes(data);
        self.allreduce(&mut bytes, combine_f64(op))?;
        *data = bytes_to_f64s(&bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trip() {
        let v = vec![1.5, -2.25, f64::MIN_POSITIVE, 0.0];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&v)), v);
    }

    #[test]
    fn u64_round_trip() {
        let v = vec![0, 1, u64::MAX, 42];
        assert_eq!(bytes_to_u64s(&u64s_to_bytes(&v)), v);
    }

    #[test]
    fn combine_applies_elementwise() {
        let mut a = f64s_to_bytes(&[1.0, 2.0]);
        let b = f64s_to_bytes(&[10.0, 20.0]);
        combine_f64(|x, y| x + y)(&mut a, &b);
        assert_eq!(bytes_to_f64s(&a), vec![11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "whole number of f64")]
    fn ragged_input_rejected() {
        bytes_to_f64s(&[1, 2, 3]);
    }
}
