//! Wire-size accounting for message payloads.
//!
//! Messages travel in-process as `Box<dyn Any>`, so nothing is actually
//! serialized — but the virtual-time model needs to know how many bytes
//! the message *would* occupy on the wire. [`Payload`] supplies that.
//!
//! Downstream crates ship `Vec<TheirStruct>` batches; the orphan rule
//! keeps them from implementing `Payload for Vec<TheirStruct>` directly,
//! so they implement [`FixedWire`] for the element instead and the blanket
//! impl here covers the vector.

use body::Body;
use std::any::Any;
use std::mem;

/// A value that can be sent through [`crate::Comm`]: it must be sendable
/// between threads and know its size on the wire. `Clone` is required so
/// the reliable-delivery transport can keep a retransmit copy of every
/// unacknowledged message (all payloads are plain data, so this is free).
pub trait Payload: Send + Clone + 'static {
    /// Bytes this value would occupy in an MPI message.
    fn wire_bytes(&self) -> usize;
}

/// Object-safe view of a payload: what the transport stores in packets and
/// retransmit queues. `clone_box` duplicates the value without knowing its
/// concrete type; `into_any` recovers it for the typed `recv`.
pub(crate) trait AnyPayload: Send {
    fn clone_box(&self) -> Box<dyn AnyPayload>;
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;
}

impl<T: Payload> AnyPayload for T {
    fn clone_box(&self) -> Box<dyn AnyPayload> {
        Box::new(self.clone())
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

/// A fixed-size element type; `Vec<T: FixedWire>` is automatically a
/// [`Payload`].
pub trait FixedWire: Copy + Send + 'static {
    /// Wire bytes per element.
    const WIRE: usize;
}

impl<T: FixedWire> Payload for Vec<T> {
    fn wire_bytes(&self) -> usize {
        self.len() * T::WIRE
    }
}

macro_rules! scalar_payload {
    ($($t:ty),*) => {
        $(
            impl Payload for $t {
                fn wire_bytes(&self) -> usize {
                    mem::size_of::<$t>()
                }
            }
            impl FixedWire for $t {
                const WIRE: usize = mem::size_of::<$t>();
            }
        )*
    };
}

scalar_payload!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

impl Payload for () {
    fn wire_bytes(&self) -> usize {
        0
    }
}

impl Payload for String {
    fn wire_bytes(&self) -> usize {
        self.len()
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn wire_bytes(&self) -> usize {
        self.0.wire_bytes() + self.1.wire_bytes()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn wire_bytes(&self) -> usize {
        self.0.wire_bytes() + self.1.wire_bytes() + self.2.wire_bytes()
    }
}

impl<const N: usize> Payload for [f64; N] {
    fn wire_bytes(&self) -> usize {
        N * 8
    }
}

impl<const N: usize> FixedWire for [f64; N] {
    const WIRE: usize = N * 8;
}

impl FixedWire for (u64, u64) {
    const WIRE: usize = 16;
}

impl FixedWire for (f64, f64) {
    const WIRE: usize = 16;
}

/// A body travels as its row: [`Body::ROW_BYTES`], the one place its
/// byte layout is written down.
impl FixedWire for Body {
    const WIRE: usize = Body::ROW_BYTES;
}

impl<T: Payload> Payload for Option<T> {
    fn wire_bytes(&self) -> usize {
        1 + self.as_ref().map_or(0, Payload::wire_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(3.25f64.wire_bytes(), 8);
        assert_eq!(7u32.wire_bytes(), 4);
        assert_eq!(true.wire_bytes(), 1);
        assert_eq!(().wire_bytes(), 0);
    }

    #[test]
    fn vec_sizes() {
        assert_eq!(vec![1.0f64; 10].wire_bytes(), 80);
        assert_eq!(vec![1u8; 3].wire_bytes(), 3);
        assert_eq!(Vec::<u64>::new().wire_bytes(), 0);
    }

    #[test]
    fn composite_sizes() {
        assert_eq!((1u64, 2.0f64).wire_bytes(), 16);
        assert_eq!([0.0f64; 3].wire_bytes(), 24);
        assert_eq!(vec![[0.0f64; 3]; 4].wire_bytes(), 96);
        assert_eq!(Some(5u64).wire_bytes(), 9);
        assert_eq!(None::<u64>.wire_bytes(), 1);
        assert_eq!("abc".to_string().wire_bytes(), 3);
        assert_eq!(vec![(1u64, 2u64); 3].wire_bytes(), 48);
    }

    #[test]
    fn fixed_wire_blanket_covers_custom_types() {
        #[derive(Clone, Copy)]
        struct P {
            _x: f64,
            _k: u64,
        }
        impl FixedWire for P {
            const WIRE: usize = 16;
        }
        let v = vec![P { _x: 0.0, _k: 1 }; 5];
        assert_eq!(v.wire_bytes(), 80);
    }
}
