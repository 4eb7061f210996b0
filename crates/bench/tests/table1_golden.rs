//! Bit-identity golden for the regenerated Table 1 written as JSON lines.
//!
//! `results/table1.txt` prints four decimals, which cannot pin the f64
//! bits of the PSNR column. The fixture holds full-precision rows written
//! by the per-pixel imaging code that predates the separable resize; the
//! current imaging layer must reproduce it byte for byte.

use rto_bench::report::write_json_lines;
use rto_bench::table1::{run, Table1Row};

const GOLDEN_ROWS: &str = include_str!("golden_table1_rows.jsonl");

#[test]
fn table1_rows_match_golden_bytes() {
    let rows = run(2014, 2, 20).expect("table1 runs");
    let mut out = Vec::new();
    write_json_lines(&rows, &mut out).expect("rows serialize");
    assert_eq!(String::from_utf8(out).unwrap(), GOLDEN_ROWS);
    let back: Vec<Table1Row> = GOLDEN_ROWS
        .lines()
        .map(|line| serde_json::from_str(line).expect("row parses"))
        .collect();
    assert_eq!(back, rows);
}
