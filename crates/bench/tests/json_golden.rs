//! Byte-identity golden for sweep rows written as JSON lines.
//!
//! The fixture was written by the original `Value`-tree serializer; the
//! streaming serializer must reproduce it byte for byte.

use rto_bench::report::write_json_lines;
use rto_bench::sweep::{run, SweepRow};

const GOLDEN_ROWS: &str = include_str!("golden_sweep_rows.jsonl");

#[test]
fn sweep_rows_match_golden_bytes() {
    let rows = run(&[0.0, 0.95], 1, 3, 2014).expect("sweep runs");
    let mut out = Vec::new();
    write_json_lines(&rows, &mut out).expect("rows serialize");
    assert_eq!(String::from_utf8(out).unwrap(), GOLDEN_ROWS);
    let back: Vec<SweepRow> = GOLDEN_ROWS
        .lines()
        .map(|line| serde_json::from_str(line).expect("row parses"))
        .collect();
    assert_eq!(back, rows);
}
