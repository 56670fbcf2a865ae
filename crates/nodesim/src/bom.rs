//! Bill-of-materials pricing (Table 1, Table 7) and price/performance.
//!
//! The paper's headline claim is economic: the Space Simulator was the
//! first TOP500 machine to beat one dollar per Linpack Mflop/s (63.9
//! cents). This module encodes the two published bills of materials and the
//! arithmetic behind every price/performance figure in the paper:
//!
//! * $483,855 total, $1,646/node, with the network 44% of the per-node cost;
//! * $639 per Linpack Gflop/s at 757.1 Gflop/s;
//! * $1.20 per unit of SPECfp for an $888 node (network excluded);
//! * the Loki comparison (1996): $51,379, $3,211/node, and the
//!   Moore's-law-beating component-price ratios of §5.

/// One line item of a bill of materials.
#[derive(Debug, Clone, PartialEq)]
pub struct BomItem {
    /// Quantity; 0 means a lump-sum line (cables, shelving...).
    pub qty: u32,
    /// Unit price in dollars; for lump-sum lines this is the total.
    pub unit_price: f64,
    pub description: &'static str,
    /// True if the item belongs to the network (NICs, switches, cables).
    pub network: bool,
}

impl BomItem {
    pub fn extended(&self) -> f64 {
        if self.qty == 0 {
            self.unit_price
        } else {
            self.qty as f64 * self.unit_price
        }
    }
}

/// A machine's bill of materials.
#[derive(Debug, Clone, PartialEq)]
pub struct Bom {
    pub label: &'static str,
    pub year: u32,
    pub nodes: u32,
    /// Theoretical peak per node, flop/s.
    pub peak_per_node: f64,
    pub items: Vec<BomItem>,
}

impl Bom {
    /// Table 1: the Space Simulator, September 2002.
    pub fn space_simulator() -> Self {
        Bom {
            label: "Space Simulator",
            year: 2002,
            nodes: 294,
            peak_per_node: 5.06e9,
            items: vec![
                BomItem {
                    qty: 294,
                    unit_price: 280.0,
                    description: "Shuttle SS51G mini system (bare)",
                    network: false,
                },
                BomItem {
                    qty: 294,
                    unit_price: 254.0,
                    description: "Intel P4/2.53GHz, 533MHz FSB, 512k cache",
                    network: false,
                },
                BomItem {
                    qty: 588,
                    unit_price: 118.0,
                    description: "512Mb DDR333 SDRAM (1024Mb per node)",
                    network: false,
                },
                BomItem {
                    qty: 294,
                    unit_price: 95.0,
                    description: "3com 3c996B-T Gigabit Ethernet PCI card",
                    network: true,
                },
                BomItem {
                    qty: 294,
                    unit_price: 83.0,
                    description: "Maxtor 4K080H4 80Gb 5400rpm Hard Disk",
                    network: false,
                },
                BomItem {
                    qty: 294,
                    unit_price: 35.0,
                    description: "Assembly Labor/Extended Warranty",
                    network: false,
                },
                BomItem {
                    qty: 0,
                    unit_price: 4000.0,
                    description: "Cat6 Ethernet cables",
                    network: true,
                },
                BomItem {
                    qty: 0,
                    unit_price: 3300.0,
                    description: "Wire shelving/switch rack",
                    network: false,
                },
                BomItem {
                    qty: 0,
                    unit_price: 1378.0,
                    description: "Power strips",
                    network: false,
                },
                BomItem {
                    qty: 1,
                    unit_price: 186_175.0,
                    description: "Foundry FastIron 1500+800, 304 Gigabit ports",
                    network: true,
                },
            ],
        }
    }

    /// Table 7: Loki, September 1996.
    pub fn loki() -> Self {
        Bom {
            label: "Loki",
            year: 1996,
            nodes: 16,
            peak_per_node: 200.0e6,
            items: vec![
                BomItem {
                    qty: 16,
                    unit_price: 595.0,
                    description: "Intel Pentium Pro 200 Mhz CPU/256k cache",
                    network: false,
                },
                BomItem {
                    qty: 16,
                    unit_price: 15.0,
                    description: "Heat Sink and Fan",
                    network: false,
                },
                BomItem {
                    qty: 16,
                    unit_price: 295.0,
                    description: "Intel VS440FX (Venus) motherboard",
                    network: false,
                },
                BomItem {
                    qty: 64,
                    unit_price: 235.0,
                    description: "8x36 60ns parity FPM SIMMS (128 Mb per node)",
                    network: false,
                },
                BomItem {
                    qty: 16,
                    unit_price: 359.0,
                    description: "Quantum Fireball 3240 Mbyte IDE Hard Drive",
                    network: false,
                },
                BomItem {
                    qty: 16,
                    unit_price: 85.0,
                    description: "D-Link DFE-500TX 100 Mb Fast Ethernet PCI Card",
                    network: true,
                },
                BomItem {
                    qty: 16,
                    unit_price: 129.0,
                    description: "SMC EtherPower 10/100 Fast Ethernet PCI Card",
                    network: true,
                },
                BomItem {
                    qty: 16,
                    unit_price: 59.0,
                    description: "S3 Trio-64 1Mb PCI Video Card",
                    network: false,
                },
                BomItem {
                    qty: 16,
                    unit_price: 119.0,
                    description: "ATX Case",
                    network: false,
                },
                BomItem {
                    qty: 2,
                    unit_price: 4794.0,
                    description: "3Com SuperStack II Switch 3000, 8-port Fast Ethernet",
                    network: true,
                },
                BomItem {
                    qty: 0,
                    unit_price: 255.0,
                    description: "Ethernet cables",
                    network: true,
                },
            ],
        }
    }

    /// Total system price, dollars.
    pub fn total(&self) -> f64 {
        self.items.iter().map(BomItem::extended).sum()
    }

    /// Average cost per node, dollars.
    pub fn per_node(&self) -> f64 {
        self.total() / self.nodes as f64
    }

    /// Per-node cost of NICs and switches only — the paper's "$728 (44%)"
    /// definition, which excludes cables.
    pub fn nic_and_switch_per_node(&self) -> f64 {
        let net: f64 = self
            .items
            .iter()
            .filter(|i| i.network && !i.description.contains("cable"))
            .map(BomItem::extended)
            .sum();
        net / self.nodes as f64
    }

    /// Theoretical peak of the whole machine, flop/s.
    pub fn peak(&self) -> f64 {
        self.peak_per_node * self.nodes as f64
    }

    /// Dollars per Mflop/s for a given achieved Linpack performance.
    pub fn dollars_per_mflops(&self, linpack_flops: f64) -> f64 {
        self.total() / (linpack_flops / 1.0e6)
    }
}

/// §5's Moore's-law comparison between two machines `years` apart:
/// expected improvement is `2^(years/1.5)` (18-month doublings).
pub fn moores_law_factor(years: f64) -> f64 {
    2.0f64.powf(years / 1.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_simulator_totals_match_table1() {
        let b = Bom::space_simulator();
        assert!((b.total() - 483_855.0).abs() < 0.5, "total {}", b.total());
        assert!(
            (b.per_node() - 1645.76).abs() < 0.5,
            "per node {}",
            b.per_node()
        );
    }

    #[test]
    fn network_is_44_percent_of_node_cost() {
        let b = Bom::space_simulator();
        // Paper: "$728 (44%) of that figure representing the Network
        // Interface Cards and Ethernet switches."
        let nic_switch = b.nic_and_switch_per_node();
        let frac = nic_switch / b.per_node();
        assert!((nic_switch - 728.0).abs() < 1.0, "net/node {nic_switch}");
        assert!((frac - 0.44).abs() < 0.005, "fraction {frac}");
    }

    #[test]
    fn loki_totals_match_table7() {
        let b = Bom::loki();
        assert!((b.total() - 51_379.0).abs() < 0.5, "total {}", b.total());
        assert!(
            (b.per_node() - 3211.0).abs() < 1.0,
            "per node {}",
            b.per_node()
        );
    }

    #[test]
    fn price_performance_beats_a_dollar_per_mflops() {
        let b = Bom::space_simulator();
        // 757.1 Linpack Gflop/s → 63.9 cents per Mflop/s.
        let dpm = b.dollars_per_mflops(757.1e9);
        assert!((dpm - 0.639).abs() < 0.002, "got {dpm}");
        assert!(dpm < 1.0);
        // The October 2002 run (665.1 Gflop/s) also beats $1/Mflops.
        assert!(b.dollars_per_mflops(665.1e9) < 1.0);
    }

    #[test]
    fn peak_is_just_below_1_5_teraflops() {
        let b = Bom::space_simulator();
        assert!(b.peak() > 1.45e12 && b.peak() < 1.5e12, "peak {}", b.peak());
    }

    #[test]
    fn disk_price_per_gb_beats_moores_law() {
        // §5: Loki's disks cost $111/GB; the SS's close to $1/GB — a factor
        // ~7 beyond the factor 16 Moore's law dictates over six years.
        let loki_per_gb = 359.0 / 3.240;
        let ss_per_gb = 83.0 / 80.0;
        let improvement = loki_per_gb / ss_per_gb;
        let moore = moores_law_factor(6.0);
        assert!((moore - 16.0).abs() < 0.01);
        assert!(improvement / moore > 6.0, "improvement {improvement}");
    }

    #[test]
    fn memory_price_beats_moores_law_by_2x() {
        // §5: $7.35/MB (Loki) → $0.23/MB (SS), 2x beyond Moore's law.
        let loki_per_mb: f64 = 235.0 * 64.0 / (16.0 * 128.0);
        let ss_per_mb: f64 = 118.0 * 588.0 / (294.0 * 1024.0);
        assert!((loki_per_mb - 7.34).abs() < 0.02, "loki {loki_per_mb}");
        assert!((ss_per_mb - 0.2305).abs() < 0.001, "ss {ss_per_mb}");
        let ratio = (loki_per_mb / ss_per_mb) / moores_law_factor(6.0);
        assert!(ratio > 1.8 && ratio < 2.2, "ratio {ratio}");
    }

    #[test]
    fn lump_sum_items_ignore_qty() {
        let i = BomItem {
            qty: 0,
            unit_price: 4000.0,
            description: "cables",
            network: true,
        };
        assert_eq!(i.extended(), 4000.0);
    }
}
