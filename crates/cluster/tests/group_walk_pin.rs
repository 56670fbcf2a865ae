//! Bit-identity pin of the serial group walk on the golden ICs — the
//! bodies every `tests/golden/*` snapshot and `BENCH_report.json` row is
//! computed from. `hot` pins the Plummer cases and `cosmo` the standard
//! problem; see `hot::traverse::group_walk_digest`.

use cluster::ics::golden_ics;
use hot::gravity::{GravityConfig, MacKind};
use hot::traverse::group_walk_digest;
use hot::tree::Tree;

#[test]
fn shared_group_walk_reproduces_per_leaf_walk_bit_for_bit() {
    // Recorded at the last commit whose group walk descended once per
    // leaf (95239a7), before the engine was touched.
    let pins = [
        (
            MacKind::BarnesHut,
            false,
            (0xd2b8_ddf5_d45b_67c7, 310_595, 359_969, 23_974),
        ),
        (
            MacKind::BarnesHut,
            true,
            (0x3d54_c0c3_a3da_4c55, 310_595, 359_969, 23_974),
        ),
        (
            MacKind::BmaxMac,
            false,
            (0x03e9_4746_4334_1d65, 407_943, 691_144, 42_989),
        ),
        (
            MacKind::BmaxMac,
            true,
            (0x962e_af47_13af_21a2, 407_943, 691_144, 42_989),
        ),
    ];
    let tree = Tree::build(golden_ics(2048, 5), 8);
    for (mac, quadrupole, want) in pins {
        let cfg = GravityConfig {
            theta: 0.6,
            eps: 0.05,
            quadrupole,
            mac,
            ..Default::default()
        };
        let got = group_walk_digest(&tree, &cfg);
        assert_eq!(got, want, "{mac:?} quad {quadrupole}");
    }
}
