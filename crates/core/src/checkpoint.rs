//! Wire encodings ([`ckpt::Pack`]) for the N-body integrator state.
//!
//! These are the building blocks of the checkpoint/restart path in
//! [`crate::integrate`]: every field travels as fixed-width little-endian
//! bytes (floats as raw IEEE-754 bits), so a restored simulation is
//! bit-for-bit the one that was saved.

use crate::gravity::{Accel, GravityConfig, MacKind};
use crate::traverse::TraverseStats;
use crate::tree::Body;
use ckpt::{CkptError, Pack, Reader};

impl Pack for Body {
    fn pack(&self, out: &mut Vec<u8>) {
        self.pos.pack(out);
        self.vel.pack(out);
        self.mass.pack(out);
        self.id.pack(out);
        self.work.pack(out);
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        Ok(Body {
            pos: Pack::unpack(r)?,
            vel: Pack::unpack(r)?,
            mass: Pack::unpack(r)?,
            id: Pack::unpack(r)?,
            work: Pack::unpack(r)?,
        })
    }
}

impl Pack for Accel {
    fn pack(&self, out: &mut Vec<u8>) {
        self.acc.pack(out);
        self.pot.pack(out);
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        Ok(Accel {
            acc: Pack::unpack(r)?,
            pot: Pack::unpack(r)?,
        })
    }
}

impl Pack for MacKind {
    fn pack(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MacKind::BarnesHut => 0,
            MacKind::BmaxMac => 1,
        });
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        match u8::unpack(r)? {
            0 => Ok(MacKind::BarnesHut),
            1 => Ok(MacKind::BmaxMac),
            _ => Err(CkptError::BadEncoding("MacKind")),
        }
    }
}

impl Pack for GravityConfig {
    fn pack(&self, out: &mut Vec<u8>) {
        self.theta.pack(out);
        self.eps.pack(out);
        self.leaf_max.pack(out);
        self.quadrupole.pack(out);
        self.mac.pack(out);
        self.periodic.pack(out);
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        Ok(GravityConfig {
            theta: Pack::unpack(r)?,
            eps: Pack::unpack(r)?,
            leaf_max: Pack::unpack(r)?,
            quadrupole: Pack::unpack(r)?,
            mac: Pack::unpack(r)?,
            periodic: Pack::unpack(r)?,
        })
    }
}

impl Pack for TraverseStats {
    fn pack(&self, out: &mut Vec<u8>) {
        self.p2p.pack(out);
        self.m2p.pack(out);
        self.opened.pack(out);
        self.group_fallback.pack(out);
    }
    fn unpack(r: &mut Reader) -> Result<Self, CkptError> {
        Ok(TraverseStats {
            p2p: Pack::unpack(r)?,
            m2p: Pack::unpack(r)?,
            opened: Pack::unpack(r)?,
            group_fallback: Pack::unpack(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_and_accel_roundtrip_bit_exact() {
        let mut b = Body::at([0.1, -2.5e-17, 3.0], 1.5);
        b.vel = [-0.0, f64::MIN_POSITIVE / 4.0, 9.9];
        b.id = u64::MAX - 3;
        b.work = 17.25;
        let back: Body = ckpt::load(&ckpt::save(&b)).expect("body");
        assert_eq!(back.id, b.id);
        for d in 0..3 {
            assert_eq!(back.pos[d].to_bits(), b.pos[d].to_bits());
            assert_eq!(back.vel[d].to_bits(), b.vel[d].to_bits());
        }
        assert_eq!(back.mass.to_bits(), b.mass.to_bits());
        assert_eq!(back.work.to_bits(), b.work.to_bits());

        let a = Accel {
            acc: [1.0, 2.0, -3.0],
            pot: -7.5,
        };
        let back: Accel = ckpt::load(&ckpt::save(&a)).expect("accel");
        assert_eq!(back.pot.to_bits(), a.pot.to_bits());
    }

    #[test]
    fn gravity_config_roundtrips_all_variants() {
        for cfg in [
            GravityConfig::default(),
            GravityConfig {
                theta: 0.3,
                eps: 0.01,
                leaf_max: 16,
                quadrupole: false,
                mac: MacKind::BmaxMac,
                periodic: Some(2.0),
            },
        ] {
            let back: GravityConfig = ckpt::load(&ckpt::save(&cfg)).expect("cfg");
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn bad_mac_discriminant_is_rejected() {
        let bytes = ckpt::frame(|out| out.push(9)); // not a MacKind
        assert_eq!(
            ckpt::load::<MacKind>(&bytes),
            Err(CkptError::BadEncoding("MacKind"))
        );
    }
}
