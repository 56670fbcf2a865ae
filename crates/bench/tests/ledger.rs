//! The ledger's public seams (ISSUE 15): the JSON round trip over
//! arbitrary rows, the committed baseline as a schema-5 file, and the
//! one `--floor` operand parser both report binaries share.

use bench::report::{
    from_json, parse_floor, summary_table, to_json, BenchReport, Scenario, METRICS, SCHEMA_VERSION,
};

#[test]
fn json_round_trips_random_rows() {
    // Strings drawn from an alphabet that needs every escape the
    // writer knows (quote, backslash, newline, other controls) plus
    // multi-byte scalars; metrics are random subsets of the table.
    const ALPHABET: [char; 12] = [
        'a', 'Z', '_', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é', '∑', '🚀',
    ];
    let mut rng = msg::SplitMix64(7);
    let string = |rng: &mut msg::SplitMix64| -> String {
        (0..rng.next_u64() % 9)
            .map(|_| ALPHABET[(rng.next_u64() % 12) as usize])
            .collect()
    };
    for case in 0..200 {
        let mut rows = Vec::new();
        for _ in 0..rng.next_u64() % 4 {
            let mut s = Scenario::new(&string(&mut rng));
            s.deterministic = rng.next_u64() % 2 == 1;
            s.tags.clear();
            for _ in 0..rng.next_u64() % 4 {
                let (k, v) = (string(&mut rng), string(&mut rng));
                s.set_tag(&k, &v);
            }
            // Case 0 keeps every metrics map empty.
            for &(name, ..) in METRICS.iter().filter(|_| case > 0) {
                match rng.next_u64() % 6 {
                    0 => s.set(name, 0.0),
                    1 => s.set(name, rng.sym() * 1e300),
                    2 => s.set(name, rng.sym() * 1e-300),
                    3 => s.set(name, (rng.next_u64() % 100_000) as f64),
                    _ => {}
                }
            }
            rows.push(s);
        }
        let r = BenchReport::new(rows);
        let text = to_json(&r);
        let back = from_json(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(r, back, "case {case}:\n{text}");
        assert_eq!(text, to_json(&back));
    }
}

#[test]
fn committed_baseline_is_schema_current() {
    let text = include_str!("../../../BENCH_report.json");
    let r = from_json(text).unwrap();
    assert_eq!(r.schema_version, SCHEMA_VERSION);
    // Written by this writer: every cell prints the digits we parse.
    assert_eq!(to_json(&r), text);
    let names: Vec<&str> = r.scenarios.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "treecode16",
            "chaos16",
            "chaos_degraded16",
            "bisection288_trunk",
            "bisection288_xbar",
            "queries16",
            "store_bench"
        ]
    );
    let tc = r.scenario("treecode16").unwrap();
    assert_eq!(tc.metric("interactions"), Some(94640.0));
    // No claim, no cell: the query and store families are absent,
    // while a measured zero stays.
    assert_eq!(tc.metric("queries_per_s"), None);
    assert_eq!(tc.metric("incremental_ratio"), None);
    assert_eq!(tc.metric("cp_wait_s"), Some(0.0));
    // store_bench has no trace behind it: its own family plus the three
    // cells every row shares, nothing else.
    let store = r.scenario("store_bench").unwrap();
    let carried: Vec<&str> = (METRICS.iter())
        .map(|&(name, ..)| name)
        .filter(|name| store.metric(name).is_some())
        .collect();
    assert_eq!(
        carried,
        [
            "ranks",
            "end_vtime_s",
            "availability",
            "store_write_mb_s",
            "store_read_mb_s",
            "incremental_ratio"
        ]
    );
}

#[test]
fn floor_operands_parse() {
    let ok = parse_floor("treecode16:parallel_efficiency:0.12").unwrap();
    assert_eq!(
        ok,
        (
            "treecode16".to_string(),
            "parallel_efficiency".to_string(),
            0.12
        )
    );
    assert_eq!(
        parse_floor("store_bench:incremental_ratio:1.3").unwrap().2,
        1.3
    );
    for bad in ["", "a:b", "a:b:c", "a:b:1:2"] {
        assert!(parse_floor(bad).is_err(), "{bad:?}");
    }
}

#[test]
fn summary_shows_only_claimed_headlines() {
    let mut s = Scenario::new("treecode16");
    s.set("parallel_efficiency", 0.06);
    s.set("cp_work_s", 6.5e-4);
    let t = summary_table("T", &BenchReport::new(vec![s]));
    // Directional metrics some row carries, and nothing else.
    assert!(t.contains("parallel_efficiency") && t.contains("0.060000"));
    assert!(!t.contains("queries_per_s") && !t.contains("cp_work_s"));
}
