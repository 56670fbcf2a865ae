//! `body` — the vocabulary every layer shares: one simulation particle
//! ([`Body`], with its 72-byte row) and the Morton key that sorts it
//! ([`morton`]).
//!
//! The crate has no dependencies, so the snapshot store can name a body
//! without compiling the treecode, and the treecode can one day read and
//! write through the store without a cycle. `hot` re-exports both, so
//! `hot::Body` and `hot::morton` are these. The message layer's
//! `FixedWire` and `BitEq` impls for [`Body`] live in `msg`, which owns
//! the traits.

pub mod morton;

/// One simulation particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    pub pos: [f64; 3],
    pub vel: [f64; 3],
    pub mass: f64,
    /// Stable identifier (survives sorting and migration).
    pub id: u64,
    /// Work estimate from the previous traversal, for load balancing.
    pub work: f64,
}

impl Body {
    pub fn at(pos: [f64; 3], mass: f64) -> Body {
        Body {
            pos,
            vel: [0.0; 3],
            mass,
            id: 0,
            work: 1.0,
        }
    }

    /// Size of one row of [`Body::write_row`]: pos, vel, mass, id and
    /// work, eight bytes each. Also a body's size on the message wire.
    pub const ROW_BYTES: usize = 72;

    /// Append this body as one fixed-width little-endian row: pos, vel,
    /// mass, id, work, floats as raw IEEE-754 bits so NaN payloads,
    /// signed zeros and subnormals survive. The one on-disk body row:
    /// `cluster::chaos`'s whole-state frame and the `outofcore` page file.
    pub fn write_row(&self, out: &mut Vec<u8>) {
        for v in self.pos.iter().chain(&self.vel).chain([&self.mass]) {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.work.to_bits().to_le_bytes());
    }

    /// Decode one row written by [`Body::write_row`].
    pub fn read_row(row: &[u8; Self::ROW_BYTES]) -> Body {
        let w = |i: usize| u64::from_le_bytes(row[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let f = |i: usize| f64::from_bits(w(i));
        Body {
            pos: [f(0), f(1), f(2)],
            vel: [f(3), f(4), f(5)],
            mass: f(6),
            id: w(7),
            work: f(8),
        }
    }
}
