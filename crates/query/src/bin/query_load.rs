//! `query_load` — drive the interactive query engine with a seeded
//! open-loop client fleet and print service-level stats.
//!
//! ```text
//! cargo run --release -p query --bin query_load -- \
//!     --ranks 16 --bodies 512 --steps 6 --per-rank 64 --seed 42
//! ```

use msg::machine::Machine;
use query::{run, EngineConfig, FleetConfig};

fn arg(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ranks = arg(&args, "--ranks").unwrap_or(16) as usize;
    let bodies = arg(&args, "--bodies").unwrap_or(256) as usize;
    let steps = arg(&args, "--steps").unwrap_or(6);
    let per_rank = arg(&args, "--per-rank").unwrap_or(48);
    let seed = arg(&args, "--seed").unwrap_or(42);

    let cfg = EngineConfig {
        steps,
        fleet: FleetConfig {
            seed,
            per_rank,
            ..FleetConfig::default()
        },
        ..EngineConfig::default()
    };
    let ics = hot::models::plummer(bodies, seed);

    let outs = msg::comm::run_with(Machine::space_simulator_lam(), ranks, {
        let ics = ics.clone();
        move |comm| run(comm, ics.clone(), &cfg)
    });

    let mut issued = 0u64;
    let mut answered = 0u64;
    let mut forwarded = 0u64;
    let mut late = 0u64;
    let mut not_found = 0u64;
    let mut end_s = 0.0f64;
    let mut lats: Vec<f64> = Vec::new();
    for o in &outs {
        issued += o.stats.issued;
        answered += o.stats.answered;
        forwarded += o.stats.forwarded;
        late += o.stats.late;
        not_found += o.stats.not_found;
        end_s = end_s.max(o.end_s);
        lats.extend(o.replies.iter().map(|r| r.done_s - r.at_s));
        assert_eq!(o.stats.dup_replies, 0, "protocol bug: duplicate replies");
        assert_eq!(o.stats.unanswered, 0, "protocol bug: dropped queries");
    }
    lats.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| -> f64 {
        if lats.is_empty() {
            return 0.0;
        }
        lats[((lats.len() - 1) as f64 * p) as usize]
    };

    println!("{{");
    println!("  \"ranks\": {ranks}, \"bodies\": {bodies}, \"steps\": {steps},");
    println!("  \"issued\": {issued}, \"answered\": {answered}, \"forwarded\": {forwarded},");
    println!("  \"late\": {late}, \"not_found\": {not_found},");
    println!("  \"end_vtime_s\": {end_s:.6},");
    println!("  \"queries_per_s\": {:.1},", answered as f64 / end_s);
    println!(
        "  \"latency_s\": {{ \"p50\": {:.6}, \"p95\": {:.6}, \"p99\": {:.6} }}",
        q(0.50),
        q(0.95),
        q(0.99)
    );
    println!("}}");
}
