//! Bit-identity pin of the serial group walk on the paper's standard
//! problem (Table 6's workload, the near-lattice whose leaves mostly
//! hold one to three bodies). `hot` pins the Plummer cases and `cluster`
//! the golden ICs; see `hot::traverse::group_walk_digest`.

use cosmo::sphere::standard_problem;
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
            (0x486d_6858_3841_4da7, 201_439, 332_521, 23_711),
        ),
        (
            MacKind::BarnesHut,
            true,
            (0xe2ee_c8ce_e2f9_e4a6, 201_439, 332_521, 23_711),
        ),
        (
            MacKind::BmaxMac,
            false,
            (0x3313_9b60_f8f9_90bb, 227_502, 661_828, 42_894),
        ),
        (
            MacKind::BmaxMac,
            true,
            (0xbb3c_9411_6ac6_7f38, 227_502, 661_828, 42_894),
        ),
    ];
    let tree = Tree::build(standard_problem(2000, 0.35, 3), 8);
    for (mac, quadrupole, want) in pins {
        let cfg = GravityConfig {
            theta: 0.7,
            eps: 0.01,
            quadrupole,
            mac,
            ..Default::default()
        };
        let got = group_walk_digest(&tree, &cfg);
        assert_eq!(got, want, "{mac:?} quad {quadrupole}");
    }
}
