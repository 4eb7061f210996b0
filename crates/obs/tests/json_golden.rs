//! Byte-identity goldens for metrics exports.
//!
//! The fixtures were written by the original `Value`-tree serializer;
//! the streaming serializer must reproduce them byte for byte. The
//! registry below exercises every `skip_serializing_if` in the crate:
//! an empty histogram drops its `Option` quantiles, and a registry with
//! no series drops the `series` key of both the snapshot and the shard.

use rto_obs::{MetricsRegistry, MetricsShard, MetricsSnapshot};

const GOLDEN_SNAPSHOT: &str = include_str!("golden_metrics_snapshot.json");
const GOLDEN_SNAPSHOT_PRETTY: &str = include_str!("golden_metrics_snapshot_pretty.json");
const GOLDEN_NO_SERIES: &str = include_str!("golden_metrics_snapshot_no_series.json");
const GOLDEN_SHARD: &str = include_str!("golden_metrics_shard.json");

fn registry(with_series: bool) -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    reg.counter("sim.jobs").add(4_321);
    reg.counter("sim.misses").add(0);
    reg.counter("server.bytes").add(u64::MAX);
    reg.gauge("sim.util").set(0.375);
    reg.gauge("sim.headroom").set(-1.5e-9);
    reg.gauge("sim.whole").set(2.0);
    let h = reg.histogram("sim.response_ns");
    for v in [0, 7, 1_500, 2_000_000, 65_536, 12] {
        h.record(v);
    }
    let _ = reg.histogram("sim.empty_ns");
    if with_series {
        let s = reg.series("server.backlog", 1_000);
        s.record(100, 3);
        s.record(2_500, 7);
        s.record(2_999, 1);
        let _ = reg.series("server.idle", 500);
    }
    reg
}

#[test]
fn snapshot_with_series_matches_golden_bytes() {
    let snap = registry(true).snapshot();
    assert!(!snap.series.is_empty());
    assert_eq!(serde_json::to_string(&snap).unwrap(), GOLDEN_SNAPSHOT);
    let back: MetricsSnapshot = serde_json::from_str(GOLDEN_SNAPSHOT).unwrap();
    assert_eq!(back, snap);
}

#[test]
fn snapshot_pretty_matches_golden_bytes() {
    let reg = registry(true);
    assert_eq!(reg.render_json(), GOLDEN_SNAPSHOT_PRETTY);
}

#[test]
fn snapshot_without_series_matches_golden_bytes() {
    let snap = registry(false).snapshot();
    assert!(snap.series.is_empty());
    assert_eq!(serde_json::to_string(&snap).unwrap(), GOLDEN_NO_SERIES);
}

#[test]
fn shard_matches_golden_bytes() {
    let shard = registry(true).shard();
    assert_eq!(shard.to_json(), GOLDEN_SHARD);
    let back: MetricsShard = serde_json::from_str(GOLDEN_SHARD).unwrap();
    assert_eq!(back, shard);
    let bare = registry(false).shard().to_json();
    assert!(!bare.contains("\"series\""), "{bare}");
}
