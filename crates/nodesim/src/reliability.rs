//! Component failure model calibrated to §2.1 of the paper.
//!
//! The paper reports two failure tallies for the 294-node cluster:
//!
//! * **burn-in** (installation + first Linpack runs): 3 power supplies,
//!   6 disk drives, 4 motherboards, 6 DRAM sticks, 1 ethernet card;
//! * **nine months of operation**: 2 power supplies, 16 disk drives,
//!   1 motherboard, 3 DRAM sticks, 1 loose fan — plus <10 soft node
//!   errors and 4 soft switch-port failures (cured by a firmware upgrade).
//!
//! Notably *zero CPU-fan failures*: the Shuttle chassis's heat pipe
//! eliminates the component the authors found most failure-prone in
//! earlier clusters. We model burn-in as per-component defect
//! probabilities and operation as per-component-month Poisson rates, both
//! calibrated so the expected tallies match the paper.

use rand::Rng;

/// The classes of hardware the paper tracks. The explicit discriminants
/// index [`FailureTally::counts`] (and match `ALL` order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ComponentClass {
    PowerSupply = 0,
    DiskDrive = 1,
    Motherboard = 2,
    DramStick = 3,
    EthernetCard = 4,
    CaseFan = 5,
    SwitchPort = 6,
}

impl ComponentClass {
    pub const ALL: [ComponentClass; 7] = [
        ComponentClass::PowerSupply,
        ComponentClass::DiskDrive,
        ComponentClass::Motherboard,
        ComponentClass::DramStick,
        ComponentClass::EthernetCard,
        ComponentClass::CaseFan,
        ComponentClass::SwitchPort,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            ComponentClass::PowerSupply => "power supply",
            ComponentClass::DiskDrive => "disk drive",
            ComponentClass::Motherboard => "motherboard",
            ComponentClass::DramStick => "DRAM stick",
            ComponentClass::EthernetCard => "ethernet card",
            ComponentClass::CaseFan => "case fan",
            ComponentClass::SwitchPort => "switch port (soft)",
        }
    }
}

/// Failure counts per component class, in `ComponentClass::ALL` order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureTally {
    pub counts: [u32; 7],
}

impl FailureTally {
    pub fn get(&self, c: ComponentClass) -> u32 {
        self.counts[c as usize]
    }

    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }
}

/// One component population with its defect and wear-out rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentModel {
    pub class: ComponentClass,
    /// How many of this component the cluster contains.
    pub population: u32,
    /// Probability a unit is dead-on-arrival / fails during burn-in.
    pub burn_in_defect_prob: f64,
    /// Failures per unit-month during steady operation.
    pub monthly_rate: f64,
}

/// The full cluster reliability model.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityModel {
    pub components: Vec<ComponentModel>,
    /// Fraction of disk failures predictable via SMART monitoring; the
    /// paper "believe\[s\] that a majority of the drive failures can be
    /// predicted".
    pub smart_predictable_fraction: f64,
}

/// Sample a Binomial(n, p) count by geometric skips between successes
/// (exact; O(np) expected work instead of O(n) Bernoulli draws — the
/// §2.1 rates are ≪ 1, so this is ~population/failures times faster).
fn sample_binomial<R: Rng>(rng: &mut R, n: u64, p: f64) -> u32 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n as u32;
    }
    let log_q = (1.0 - p).ln();
    let mut count = 0u32;
    let mut i = 0u64;
    loop {
        // Number of failures before the next success ~ Geometric(p).
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        i += (u.ln() / log_q).floor() as u64 + 1;
        if i > n {
            return count;
        }
        count += 1;
    }
}

impl ReliabilityModel {
    /// Calibrated to the Space Simulator's §2.1 tallies: 294 nodes,
    /// 588 DIMMs, a ~300-port switch, and one chassis fan per node
    /// (the PSU fan; there is no CPU fan).
    pub fn space_simulator() -> Self {
        let c = |class, population: u32, burn_in: u32, nine_months: f64| ComponentModel {
            class,
            population,
            burn_in_defect_prob: burn_in as f64 / population as f64,
            monthly_rate: nine_months / (population as f64 * 9.0),
        };
        ReliabilityModel {
            components: vec![
                c(ComponentClass::PowerSupply, 294, 3, 2.0),
                c(ComponentClass::DiskDrive, 294, 6, 16.0),
                c(ComponentClass::Motherboard, 294, 4, 1.0),
                c(ComponentClass::DramStick, 588, 6, 3.0),
                c(ComponentClass::EthernetCard, 294, 1, 0.0),
                // One loose fan in nine months; no CPU fans exist to fail.
                c(ComponentClass::CaseFan, 294, 0, 1.0),
                c(ComponentClass::SwitchPort, 304, 0, 4.0),
            ],
            smart_predictable_fraction: 0.7,
        }
    }

    /// Expected burn-in defects per class (analytic).
    pub fn expected_burn_in(&self) -> Vec<(ComponentClass, f64)> {
        self.components
            .iter()
            .map(|c| (c.class, c.population as f64 * c.burn_in_defect_prob))
            .collect()
    }

    /// Expected failures per class over `months` of operation (analytic).
    pub fn expected_operational(&self, months: f64) -> Vec<(ComponentClass, f64)> {
        self.components
            .iter()
            .map(|c| (c.class, c.population as f64 * c.monthly_rate * months))
            .collect()
    }

    /// Monte-Carlo burn-in: each unit independently defective with its
    /// class probability, sampled as one binomial count per class.
    pub fn simulate_burn_in<R: Rng>(&self, rng: &mut R) -> FailureTally {
        let mut tally = FailureTally::default();
        for c in &self.components {
            tally.counts[c.class as usize] =
                sample_binomial(rng, c.population as u64, c.burn_in_defect_prob);
        }
        tally
    }

    /// Monte-Carlo operation for `months`: per-unit-month Bernoulli
    /// failures, sampled as one Binomial(population·months, rate) count
    /// per class — same distribution as the per-unit loop, without the
    /// O(population × months) draws.
    pub fn simulate_operation<R: Rng>(&self, rng: &mut R, months: u32) -> FailureTally {
        let mut tally = FailureTally::default();
        for c in &self.components {
            let trials = c.population as u64 * months as u64;
            tally.counts[c.class as usize] = sample_binomial(rng, trials, c.monthly_rate);
        }
        tally
    }

    /// Fraction of disk failures predictable via SMART monitoring.
    pub fn smart_predictable_fraction(&self) -> f64 {
        self.smart_predictable_fraction
    }

    /// Cluster-wide availability estimate for `months`, counting the three
    /// whole-cluster outages the paper reports (one 3-day PDU failure and
    /// two power outages, ~1 day each assumed).
    pub fn availability(&self, months: f64) -> f64 {
        let days = months * 30.44;
        let outage_days = 3.0 + 1.0 + 1.0;
        1.0 - outage_days / days
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn expected_burn_in_matches_paper() {
        let m = ReliabilityModel::space_simulator();
        let expect = m.expected_burn_in();
        let get = |c| {
            expect
                .iter()
                .find(|(cls, _)| *cls == c)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!((get(ComponentClass::PowerSupply) - 3.0).abs() < 1e-9);
        assert!((get(ComponentClass::DiskDrive) - 6.0).abs() < 1e-9);
        assert!((get(ComponentClass::Motherboard) - 4.0).abs() < 1e-9);
        assert!((get(ComponentClass::DramStick) - 6.0).abs() < 1e-9);
        assert!((get(ComponentClass::EthernetCard) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expected_nine_month_failures_match_paper() {
        let m = ReliabilityModel::space_simulator();
        let expect = m.expected_operational(9.0);
        let get = |c| {
            expect
                .iter()
                .find(|(cls, _)| *cls == c)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!((get(ComponentClass::DiskDrive) - 16.0).abs() < 1e-9);
        assert!((get(ComponentClass::PowerSupply) - 2.0).abs() < 1e-9);
        assert!((get(ComponentClass::SwitchPort) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn disks_dominate_operational_failures() {
        let m = ReliabilityModel::space_simulator();
        let expect = m.expected_operational(9.0);
        let disk = expect
            .iter()
            .find(|(c, _)| *c == ComponentClass::DiskDrive)
            .unwrap()
            .1;
        let others: f64 = expect
            .iter()
            .filter(|(c, _)| *c != ComponentClass::DiskDrive)
            .map(|(_, v)| v)
            .sum();
        assert!(disk > others, "disk {disk} vs others {others}");
    }

    #[test]
    fn monte_carlo_tracks_expectation() {
        let m = ReliabilityModel::space_simulator();
        let mut rng = SmallRng::seed_from_u64(42);
        let trials = 200;
        let mut total_disk = 0u32;
        for _ in 0..trials {
            let t = m.simulate_operation(&mut rng, 9);
            total_disk += t.get(ComponentClass::DiskDrive);
        }
        let mean = total_disk as f64 / trials as f64;
        // Expectation is 16; allow generous Monte-Carlo slack.
        assert!((mean - 16.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn binomial_sampling_means_match_paper_tallies() {
        // Regression for the fast per-class sampler: over many trials the
        // mean simulated nine-month tally must match the §2.1 expectation
        // for every class (the sampler is exact-binomial, so only
        // Monte-Carlo noise separates them).
        let m = ReliabilityModel::space_simulator();
        let mut rng = SmallRng::seed_from_u64(1234);
        let trials = 400;
        let mut sums = [0.0f64; 7];
        for _ in 0..trials {
            let t = m.simulate_operation(&mut rng, 9);
            for c in ComponentClass::ALL {
                sums[c as usize] += t.get(c) as f64;
            }
        }
        for (c, expect) in m.expected_operational(9.0) {
            let mean = sums[c as usize] / trials as f64;
            // 5-sigma band on the mean of `trials` binomials.
            let sigma = (expect.max(0.05) / trials as f64).sqrt();
            assert!(
                (mean - expect).abs() < 5.0 * sigma + 0.05,
                "{}: mean {mean} vs expected {expect}",
                c.name()
            );
        }
    }

    #[test]
    fn binomial_sampler_extremes() {
        let mut rng = SmallRng::seed_from_u64(9);
        assert_eq!(super::sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(super::sample_binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(super::sample_binomial(&mut rng, 10, 1.0), 10);
        let n = super::sample_binomial(&mut rng, 100, 0.5);
        assert!(n > 20 && n < 80, "implausible Binomial(100, 0.5) = {n}");
    }

    #[test]
    fn smart_fraction_is_a_model_field() {
        let mut m = ReliabilityModel::space_simulator();
        assert!((m.smart_predictable_fraction() - 0.7).abs() < 1e-12);
        m.smart_predictable_fraction = 0.9;
        assert!((m.smart_predictable_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn no_cpu_fan_failures_at_burn_in() {
        let m = ReliabilityModel::space_simulator();
        let mut rng = SmallRng::seed_from_u64(7);
        let t = m.simulate_burn_in(&mut rng);
        assert_eq!(t.get(ComponentClass::CaseFan), 0);
    }

    #[test]
    fn availability_is_high_but_not_perfect() {
        let m = ReliabilityModel::space_simulator();
        let a = m.availability(9.0);
        assert!(a > 0.97 && a < 1.0, "got {a}");
    }

    #[test]
    fn tally_total_sums_counts() {
        let t = FailureTally {
            counts: [1, 2, 3, 0, 0, 1, 0],
        };
        assert_eq!(t.total(), 7);
    }
}
