//! Integration: the distributed treecode and message-passing layer
//! running on the simulated Space Simulator fabric.

use space_simulator::hot::models::plummer;
use space_simulator::hot::parallel::{parallel_accelerations, ParallelConfig};
use space_simulator::hot::traverse::tree_accelerations;
use space_simulator::hot::tree::{Body, Tree};
use space_simulator::msg;
use space_simulator::netsim::LibraryProfile;

fn split(bodies: &[Body], nranks: usize, rank: usize) -> Vec<Body> {
    bodies
        .iter()
        .enumerate()
        .filter(|(i, _)| i % nranks == rank)
        .map(|(_, b)| *b)
        .collect()
}

#[test]
fn parallel_forces_match_serial_on_the_ss_fabric() {
    let all = plummer(400, 33);
    let cfg = ParallelConfig::default();
    // Serial reference.
    let tree = Tree::build(all.clone(), cfg.gravity.leaf_max);
    let (ser_acc, _) = tree_accelerations(&tree, &cfg.gravity);
    let mut serial: Vec<(u64, [f64; 3])> = tree
        .bodies
        .iter()
        .zip(&ser_acc)
        .map(|(b, a)| (b.id, a.acc))
        .collect();
    serial.sort_by_key(|x| x.0);

    for ranks in [2usize, 5] {
        let machine = msg::Machine::space_simulator(LibraryProfile::lam_homogeneous());
        let shards = msg::run_with(machine, ranks, |c| {
            let mine = split(&all, c.size(), c.rank());
            let r = parallel_accelerations(c, mine, &cfg);
            r.bodies
                .iter()
                .map(|b| b.id)
                .zip(r.accel.iter().map(|a| a.acc))
                .collect::<Vec<_>>()
        });
        let mut par: Vec<(u64, [f64; 3])> = shards.into_iter().flatten().collect();
        par.sort_by_key(|x| x.0);
        assert_eq!(par.len(), serial.len());
        let mut num = 0.0;
        let mut den = 0.0;
        for ((_, p), (_, s)) in par.iter().zip(&serial) {
            for d in 0..3 {
                num += (p[d] - s[d]).powi(2);
                den += s[d] * s[d];
            }
        }
        let err = (num / den).sqrt();
        assert!(err < 1e-3, "{ranks} ranks: rms {err}");
    }
}

#[test]
fn virtual_time_reflects_network_quality() {
    // The same computation over mpich-1 (large-message cliff) must cost
    // at least as much virtual time as over plain TCP. One run's virtual
    // time is not a function of the model alone: the contended fabric
    // grants links in wall-clock arrival order, and when a rank serves
    // the other ranks' requests between its walks is host order, even on
    // an uncontended machine (ROADMAP item 1). So a change that only
    // makes the host walk faster can move it with no modelled cost
    // moving, and one run carries scheduling noise of a few percent; the
    // claim is about the profiles, so compare the median of five runs
    // each.
    let all = plummer(600, 9);
    let time_with = |profile: LibraryProfile| -> f64 {
        let mut runs: Vec<f64> = (0..5)
            .map(|_| {
                let machine = msg::Machine::space_simulator(profile);
                let times = msg::run_with(machine, 4, |c| {
                    let mine = split(&all, c.size(), c.rank());
                    parallel_accelerations(c, mine, &ParallelConfig::default()).vtime
                });
                times.into_iter().fold(0.0, f64::max)
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        runs[2]
    };
    let tcp = time_with(LibraryProfile::tcp());
    let mpich = time_with(LibraryProfile::mpich1());
    assert!(
        mpich >= tcp * 0.98,
        "mpich {mpich} should not beat TCP {tcp}"
    );
}

#[test]
fn collectives_work_on_the_ss_fabric_at_scale() {
    // 16 ranks spread across switch modules: correctness under the
    // contention model.
    let machine = msg::Machine::space_simulator(LibraryProfile::lam_homogeneous());
    let out = msg::run_with(machine, 16, |c| {
        let sum = c.allreduce(c.rank() as u64 + 1, |a, b| a + b);
        let gathered = c.allgather(c.rank() as u32);
        c.barrier();
        (sum, gathered.len())
    });
    for (sum, len) in out {
        assert_eq!(sum, (1..=16).sum::<u64>());
        assert_eq!(len, 16);
    }
}

#[test]
fn work_weighted_decomposition_rebalances() {
    // After one force pass, bodies carry work estimates; a second
    // decomposition should balance interactions, not counts.
    let all = plummer(600, 21);
    let interactions = msg::run(3, |c| {
        let mine = split(&all, c.size(), c.rank());
        let cfg = ParallelConfig::default();
        let r1 = parallel_accelerations(c, mine, &cfg);
        // Feed measured per-rank work back as uniform per-body weight.
        let mut bodies = r1.bodies;
        let w = r1.stats.interactions() as f64 / bodies.len().max(1) as f64;
        for b in &mut bodies {
            b.work = w;
        }
        let r2 = parallel_accelerations(c, bodies, &cfg);
        r2.stats.interactions()
    });
    let max = *interactions.iter().max().unwrap() as f64;
    let min = *interactions.iter().min().unwrap() as f64;
    assert!(
        max / min < 2.0,
        "imbalance after rebalancing: {interactions:?}"
    );
}
