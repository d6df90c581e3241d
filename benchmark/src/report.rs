//! The metric tables (names, units, directions, bounds — `BENCHMARK.json`
//! lists exactly these, which a unit test checks) and the arithmetic that
//! turns a run's sessions into one value per metric.

use std::collections::BTreeMap;

use mad_metrics::{HistSnapshot, Snapshot};

use crate::refkernel::{Control, Sample};
use crate::session::{count, round_kinds, Counts, Outcome, SliceKind};
use crate::stats::{median, percentile, percentile_sorted, quartiles, sorted};
use crate::workload::Workload;

/// One row of a metric table.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// The end-to-end metrics: what a user of the library sees, at reference
/// speed.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("goodput_MBps", "MB/s", "higher", 0.10),
    e2e("msg_rate_kps", "kmsg/s", "higher", 0.10),
    e2e("rtt_p50_us", "us", "lower", 0.10),
    e2e("rtt_p90_us", "us", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.15),
];

/// The per-layer metrics; a name's prefix is the layer (module or crate).
pub const PER_LAYER: [MetricDef; 64] = [
    layer("session.build_ms", "ms", "lower"),
    layer("session.first_rtt_ms", "ms", "lower"),
    layer("session.teardown_ms", "ms", "lower"),
    layer("session.threads_spawned", "count", "lower"),
    layer("vchannel.send_ns_p50", "ns", "lower"),
    layer("vchannel.recv_wait_ns_p50", "ns", "lower"),
    layer("vchannel.unpack_ns_p50", "ns", "lower"),
    layer("vchannel.rtt_p99_us", "us", "lower"),
    layer("vchannel.rtt_p999_us", "us", "lower"),
    layer("plan.packetize_ns", "ns", "lower"),
    layer("gtm.encode_ns_per_pkt", "ns", "lower"),
    layer("gtm.decode_ns_per_pkt", "ns", "lower"),
    layer("gtm.assemble_ns_per_frag", "ns", "lower"),
    layer("gtm.pkts_per_msg", "count", "lower"),
    layer("gtm.wire_overhead_ratio", "ratio", "lower"),
    layer("mad-shm.send_recv_ns_64B", "ns", "lower"),
    layer("mad-shm.send_recv_ns_64KiB", "ns", "lower"),
    layer("mad-shm.xthread_rtt_us_64B", "us", "lower"),
    layer("mad-shm.raw_MBps_64KiB", "MB/s", "higher"),
    layer("mad-tcp.send_recv_ns_64B", "ns", "lower"),
    layer("mad-tcp.send_recv_ns_64KiB", "ns", "lower"),
    layer("mad-tcp.xthread_rtt_us_64B", "us", "lower"),
    layer("mad-tcp.raw_MBps_64KiB", "MB/s", "higher"),
    layer("pool.get_put_ns_64KiB", "ns", "lower"),
    layer("pool.gets_per_msg", "count", "lower"),
    layer("pool.miss_share", "ratio", "lower"),
    layer("credit.take_deposit_ns", "ns", "lower"),
    layer("credit.grants_per_frag", "count", "lower"),
    layer("credit.wait_ns_p50", "ns", "lower"),
    layer("credit.wait_ns_p99", "ns", "lower"),
    layer("credit.timeouts", "count", "lower"),
    layer("gateway.frags_per_msg", "count", "lower"),
    layer("gateway.switches_per_frag", "count", "lower"),
    layer("gateway.stalls_per_frag", "count", "lower"),
    layer("gateway.copies_per_frag", "count", "lower"),
    layer("gateway.peak_held_KiB", "KiB", "lower"),
    layer("gateway.forward_ns_p50", "ns", "lower"),
    layer("gateway.forward_ns_p99", "ns", "lower"),
    layer("gateway.queue_depth_peak", "count", "lower"),
    layer("gateway.errors", "count", "lower"),
    layer("gateway.cancelled", "count", "lower"),
    layer("gateway.threads_spawned", "count", "lower"),
    layer("gateway.goodput_over_raw", "ratio", "higher"),
    layer("gateway.added_oneway_us", "us", "lower"),
    layer("mad-trace.channelstats_ns", "ns", "lower"),
    layer("mad-trace.channelstats_contended_ns", "ns", "lower"),
    layer("process.cpu_us_per_msg", "us", "lower"),
    layer("process.alloc_calls_per_msg", "count", "lower"),
    layer("process.alloc_bytes_per_msg", "B", "lower"),
    layer("process.vcsw_per_msg", "count", "lower"),
    layer("process.ivcsw_per_msg", "count", "lower"),
    layer("process.cpu_util_cores", "cores", "higher"),
    layer("process.rss_peak_MB", "MB", "lower"),
    layer("process.trace_overhead_ratio", "ratio", "higher"),
    layer("ref.copy_ns_per_MiB", "ns/MiB", "lower"),
    layer("ref.handoff_ns", "ns", "lower"),
    layer("ref.slowness_p50", "ratio", "lower"),
    layer("ref.slowness_iqr", "ratio", "lower"),
    layer("ref.in_session_ratio", "ratio", "lower"),
    layer("raw.goodput_MBps", "MB/s", "higher"),
    layer("raw.msg_rate_kps", "kmsg/s", "higher"),
    layer("raw.rtt_p50_us", "us", "lower"),
    layer("raw.rtt_p90_us", "us", "lower"),
    layer("raw.setup_s", "s", "lower"),
];

/// Is the per-layer metric `name` absent on `w` whatever the library does?
/// No gateway: nothing forwards or grants. One gateway: its outbound side
/// is the last hop, which takes no credit, so the registry's
/// `credit_wait_ns` stays empty. Any other metric absent from a traced run
/// is a counter the library stopped exposing.
pub fn absent_by_design(w: &Workload, name: &str) -> bool {
    match w.topology.gateways() {
        0 => {
            name.starts_with("gateway.")
                || (name.starts_with("credit.") && name != "credit.take_deposit_ns")
        }
        1 => name.starts_with("credit.wait_ns_"),
        _ => false,
    }
}

/// One session of the run, with the between-session reference samples
/// around it.
pub struct SessionRec {
    /// What the session produced.
    pub outcome: Outcome,
    /// True for a session with rounds (false: set-up only).
    pub traffic: bool,
    /// True when it ran traced.
    pub traced: bool,
    /// The last sample before the session started.
    pub before: Sample,
    /// The sample after its teardown.
    pub after: Sample,
}

/// Everything a run collected.
pub struct RunData<'a> {
    /// The workload that ran.
    pub workload: &'a Workload,
    /// The first between-session sample (the others are in `sessions`).
    pub first_sample: Sample,
    /// Every session, in order.
    pub sessions: &'a [SessionRec],
    /// Traced runs: the same traffic on the gateway-less topology.
    pub baseline: Option<&'a Outcome>,
    /// Traced runs: the probe results.
    pub probes: &'a [(&'static str, f64)],
    /// Peak resident set of the process, KiB.
    pub maxrss_kib: u64,
}

/// A computed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its table row.
    pub def: MetricDef,
    /// The reported value (a median wherever there are samples); `None`
    /// prints `absent` — the counter does not exist on this workload or in
    /// this library.
    pub value: Option<f64>,
    /// Samples behind the value.
    pub n: usize,
    /// Quartiles of the samples, where there are at least two.
    pub quartiles: Option<[f64; 3]>,
    /// End-to-end and `raw.*`: every sample with its slice's slowness.
    pub samples: Vec<Flanked>,
}

impl Metric {
    fn scalar(def: MetricDef, value: Option<f64>) -> Metric {
        Metric {
            def,
            value: value.filter(|v| v.is_finite()),
            n: usize::from(value.is_some()),
            quartiles: None,
            samples: Vec::new(),
        }
    }

    fn of_samples(def: MetricDef, samples: Vec<Flanked>) -> Metric {
        let values: Vec<f64> = samples.iter().map(|s| s.0).collect();
        Metric {
            def,
            value: median(&values),
            n: values.len(),
            quartiles: quartiles(&values),
            samples,
        }
    }

    fn of_values(def: MetricDef, values: &[f64]) -> Metric {
        Metric {
            def,
            value: median(values),
            n: values.len(),
            quartiles: quartiles(values),
            samples: Vec::new(),
        }
    }
}

/// A per-slice value at reference speed with `[s, c, h]`: the slowness `s`
/// it was divided by, then that of `ref.copy` and of `ref.handoff` alone,
/// so that `result.json` lets a run be divided again by another control.
/// The raw value is `v / s` for a rate and `v × s` for a time.
pub type Flanked = (f64, [f64; 3]);

fn flanks(control: Control, before: &Sample, after: &Sample) -> [f64; 3] {
    [control, Control::Copy, Control::Handoff].map(|c| c.between(before, after))
}

/// Per-slice values of a set of sessions.
#[derive(Default)]
struct Series {
    goodput: Vec<Flanked>,
    rate: Vec<Flanked>,
    p50: Vec<Flanked>,
    p90: Vec<Flanked>,
    /// Every round trip, calibrated, µs.
    rtts_us: Vec<f64>,
    /// Fewest round trips in any ping-pong slice.
    min_round_trips: Option<usize>,
    /// Counter sums over the stream slices, with their messages and wall ns.
    counts: Counts,
    msgs: u64,
    wall_ns: f64,
}

fn series<'a>(control: Control, outcomes: impl Iterator<Item = &'a Outcome>) -> Series {
    let mut out = Series::default();
    for o in outcomes {
        for (i, slice) in o.slices.iter().enumerate() {
            let (Some(a), Some(b)) = (o.samples.get(i), o.samples.get(i + 1)) else {
                continue;
            };
            let f = flanks(control, a, b);
            let s = f[0];
            let cal_ns = slice.wall_ns / s;
            if slice.kind != SliceKind::PingPong && slice.msgs > 0 {
                out.goodput.push((slice.bytes as f64 * 1e3 / cal_ns, f));
                out.rate.push((slice.msgs as f64 * 1e6 / cal_ns, f));
                for (sum, c) in out.counts.iter_mut().zip(slice.counts) {
                    *sum += c;
                }
                out.msgs += slice.msgs;
                out.wall_ns += slice.wall_ns;
            }
            if slice.kind != SliceKind::Stream && !slice.rtts_ns.is_empty() {
                let sorted = sorted(&slice.rtts_ns);
                let at = |q| percentile_sorted(&sorted, q).expect("non-empty") / s / 1e3;
                out.p50.push((at(0.5), f));
                out.p90.push((at(0.9), f));
                out.rtts_us.extend(sorted.iter().map(|r| r / s / 1e3));
                let fewest = out
                    .min_round_trips
                    .map_or(sorted.len(), |m| m.min(sorted.len()));
                out.min_round_trips = Some(fewest);
            }
        }
    }
    out
}

fn uncalibrated(samples: &[Flanked], is_rate: bool) -> Vec<Flanked> {
    samples
        .iter()
        .map(|&(v, f)| (if is_rate { v / f[0] } else { v * f[0] }, f))
        .collect()
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// The median duration of one span name on one load thread in one phase
/// of the traced sessions.
pub struct SpanPhase {
    /// `lead` (rank 0) or `tail` (the last rank).
    pub thread: &'static str,
    /// Span name.
    pub name: &'static str,
    /// `stream`, `pingpong` or `exchange`.
    pub phase: &'static str,
    /// Spans behind the median.
    pub n: usize,
    /// Median duration, ns.
    pub p50_ns: f64,
}

fn span_phases(sessions: &[SessionRec]) -> Vec<SpanPhase> {
    let mut groups: BTreeMap<(&str, &str, &str), Vec<f64>> = BTreeMap::new();
    for (thread, buf) in sessions.iter().flat_map(|r| r.outcome.spans.iter()) {
        for s in buf.spans() {
            let durations = groups.entry((*thread, s.name, s.phase)).or_default();
            durations.push((s.end - s.start) as f64);
        }
    }
    groups
        .into_iter()
        .map(|((thread, name, phase), d)| SpanPhase {
            thread,
            name,
            phase,
            n: d.len(),
            p50_ns: median(&d).expect("a group holds at least one span"),
        })
        .collect()
}

fn merged_hist(snaps: &[&Snapshot], name: &str) -> Option<HistSnapshot> {
    let mut merged: Option<HistSnapshot> = None;
    for h in snaps.iter().filter_map(|s| s.hist(name)) {
        merged.get_or_insert_with(HistSnapshot::default).merge(h);
    }
    merged.filter(|h| !h.is_empty())
}

/// The computed run: both tables plus what the checks need.
pub struct Report {
    /// The five end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// The 64 per-layer metrics (probe- and trace-based ones are `absent`
    /// on an untraced run).
    pub per_layer: Vec<Metric>,
    /// Fewest round trips seen in one ping-pong slice.
    pub min_round_trips: Option<usize>,
    /// Traced runs: span medians per load thread, name and phase.
    pub span_phases: Vec<SpanPhase>,
}

/// Turn a run's sessions into metrics.
pub fn compute(run: &RunData) -> Report {
    let w = run.workload;
    let gateways = w.topology.gateways() as u64;
    let traffic = |traced: bool| {
        run.sessions
            .iter()
            .filter(move |r| r.traffic && r.traced == traced)
            .map(|r| &r.outcome)
    };
    let plain = series(w.control, traffic(false));
    let traced = series(w.control, traffic(true));

    // Set-up: every untraced session, flanked by the sample before it and
    // the first one after its warm-up.
    let untraced: Vec<&SessionRec> = run.sessions.iter().filter(|r| !r.traced).collect();
    let setup: Vec<Flanked> = untraced
        .iter()
        .map(|r| {
            let after = r.outcome.samples.first().unwrap_or(&r.after);
            let f = flanks(Control::Both, &r.before, after);
            (r.outcome.setup_wall_s / f[0], f)
        })
        .collect();

    let e2e_samples = [&plain.goodput, &plain.rate, &plain.p50, &plain.p90, &setup];
    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .zip(e2e_samples)
        .map(|(&def, s)| Metric::of_samples(def, s.clone()))
        .collect();

    // Every reference sample of the run, in time order.
    let all: Vec<Sample> = std::iter::once(run.first_sample)
        .chain(run.sessions.iter().flat_map(|r| {
            r.outcome
                .samples
                .iter()
                .copied()
                .chain(std::iter::once(r.after))
        }))
        .collect();
    let slow = |v: &[Sample]| {
        v.iter()
            .map(|s| w.control.slowness(s))
            .collect::<Vec<f64>>()
    };
    let slow_all = slow(&all);
    let slow_q = quartiles(&slow_all);
    // Per traffic session, its own samples against the two taken just
    // outside it — paired, because the machine switches speed between
    // sessions more than within one.
    let in_session_ratio = median(
        &run.sessions
            .iter()
            .filter(|r| r.traffic)
            .filter_map(|r| {
                let outside = w.control.between(&r.before, &r.after);
                median(&slow(&r.outcome.samples)).map(|inside| inside / outside)
            })
            .collect::<Vec<f64>>(),
    );

    // Library registries of the traced sessions, and the load threads' spans.
    let snaps: Vec<&Snapshot> = run
        .sessions
        .iter()
        .flat_map(|r| r.outcome.snapshots.iter())
        .collect();
    let hist_q = |name: &str, q: f64| merged_hist(&snaps, name).map(|h| h.quantile(q) as f64);
    // The busy side of the rate slices (stream, or exchange on the duplex
    // mix); the ping-pong phase is printed beside them, see `span_phases`.
    let rate_phase = round_kinds(w.traffic)[0].name();
    let span_phases = span_phases(run.sessions);
    let span_p50 = |thread: &str, name: &str| {
        span_phases
            .iter()
            .find(|p| (p.thread, p.name, p.phase) == (thread, name, rate_phase))
            .map(|p| p.p50_ns)
    };

    let c = &plain.counts;
    let frags = c[count::GW_FRAGS];
    let has_gw = gateways > 0;
    let gw_totals = || run.sessions.iter().flat_map(|r| r.outcome.gateways.iter());
    let gw_sum = |f: fn(&madeleine::gateway::GatewayTotals) -> u64| {
        has_gw.then(|| gw_totals().map(f).sum::<u64>() as f64)
    };
    let probe = |name: &str| run.probes.iter().find(|p| p.0 == name).map(|p| p.1);
    let median_of = |f: fn(&Outcome) -> f64| {
        median(&untraced.iter().map(|r| f(&r.outcome)).collect::<Vec<f64>>())
    };
    let base = run.baseline.map(|o| series(w.control, std::iter::once(o)));
    let base_median = |pick: fn(&Series) -> &Vec<Flanked>| {
        base.as_ref()
            .and_then(|b| median(&pick(b).iter().map(|s| s.0).collect::<Vec<f64>>()))
    };
    let e2e_value = |i: usize| end_to_end[i].value;

    let per_layer = PER_LAYER
        .iter()
        .map(|&def| {
            let scalar = |v: Option<f64>| Metric::scalar(def, v);
            match def.name {
                "session.build_ms" => scalar(median_of(|o| o.build_ms)),
                "session.first_rtt_ms" => scalar(median_of(|o| o.first_rtt_ms)),
                "session.teardown_ms" => scalar(median_of(|o| o.teardown_ms)),
                "session.threads_spawned" => scalar(median_of(|o| o.threads_spawned as f64)),
                "vchannel.send_ns_p50" => scalar(span_p50("lead", "vchannel.send")),
                "vchannel.recv_wait_ns_p50" => scalar(span_p50("tail", "vchannel.recv_wait")),
                "vchannel.unpack_ns_p50" => scalar(span_p50("tail", "vchannel.unpack")),
                "vchannel.rtt_p99_us" => scalar(percentile(&plain.rtts_us, 0.99)),
                "vchannel.rtt_p999_us" => scalar(percentile(&plain.rtts_us, 0.999)),
                "pool.gets_per_msg" => scalar(ratio(c[count::POOL_GETS], plain.msgs)),
                "pool.miss_share" => scalar(ratio(c[count::POOL_MISSES], c[count::POOL_GETS])),
                "credit.grants_per_frag" => scalar(ratio(c[count::GW_CREDITS], frags)),
                "credit.wait_ns_p50" => scalar(hist_q("credit_wait_ns", 0.5)),
                "credit.wait_ns_p99" => scalar(hist_q("credit_wait_ns", 0.99)),
                "credit.timeouts" => scalar(gw_sum(|t| t.credit_timeouts)),
                "gateway.frags_per_msg" => {
                    scalar(ratio(frags, plain.msgs * gateways).filter(|_| has_gw))
                }
                "gateway.switches_per_frag" => scalar(ratio(c[count::GW_SWITCHES], frags)),
                "gateway.stalls_per_frag" => scalar(ratio(c[count::GW_STALLS], frags)),
                "gateway.copies_per_frag" => scalar(ratio(c[count::GW_COPIES], frags)),
                "gateway.peak_held_KiB" => scalar(
                    gw_totals()
                        .map(|t| t.peak_held_bytes)
                        .max()
                        .map(|b| b as f64 / 1024.0),
                ),
                "gateway.forward_ns_p50" => scalar(hist_q("gw_forward_ns", 0.5)),
                "gateway.forward_ns_p99" => scalar(hist_q("gw_forward_ns", 0.99)),
                "gateway.queue_depth_peak" => scalar(
                    snaps
                        .iter()
                        .filter_map(|s| s.gauge("queue_depth"))
                        .map(|(_, peak)| peak as f64)
                        .reduce(f64::max)
                        .filter(|_| has_gw),
                ),
                "gateway.errors" => scalar(gw_sum(|t| t.errors)),
                "gateway.cancelled" => scalar(gw_sum(|t| t.cancelled)),
                "gateway.threads_spawned" => scalar(
                    median_of(|o| o.gateways.iter().map(|t| t.threads_spawned).sum::<u64>() as f64)
                        .filter(|_| has_gw),
                ),
                "gateway.goodput_over_raw" => scalar(
                    e2e_value(0)
                        .zip(base_median(|b| &b.goodput))
                        .map(|(g, b)| g / b)
                        .filter(|_| has_gw),
                ),
                "gateway.added_oneway_us" => scalar(
                    e2e_value(2)
                        .zip(base_median(|b| &b.p50))
                        .map(|(r, b)| (r - b) / 2.0)
                        .filter(|_| has_gw),
                ),
                "process.cpu_us_per_msg" => scalar(ratio(c[count::CPU_US], plain.msgs)),
                "process.vcsw_per_msg" => scalar(ratio(c[count::VCSW], plain.msgs)),
                "process.ivcsw_per_msg" => scalar(ratio(c[count::IVCSW], plain.msgs)),
                "process.cpu_util_cores" => scalar(
                    (plain.wall_ns > 0.0).then(|| c[count::CPU_US] as f64 * 1e3 / plain.wall_ns),
                ),
                "process.alloc_calls_per_msg" => {
                    scalar(ratio(traced.counts[count::ALLOC_CALLS], traced.msgs))
                }
                "process.alloc_bytes_per_msg" => {
                    scalar(ratio(traced.counts[count::ALLOC_BYTES], traced.msgs))
                }
                "process.rss_peak_MB" => scalar(Some(run.maxrss_kib as f64 / 1024.0)),
                "process.trace_overhead_ratio" => scalar(
                    median(&traced.rate.iter().map(|s| s.0).collect::<Vec<f64>>())
                        .zip(e2e_value(1))
                        .map(|(t, u)| t / u),
                ),
                "ref.copy_ns_per_MiB" => Metric::of_values(
                    def,
                    &all.iter().map(|s| s.copy_ns_per_mib).collect::<Vec<f64>>(),
                ),
                "ref.handoff_ns" => {
                    Metric::of_values(def, &all.iter().map(|s| s.handoff_ns).collect::<Vec<f64>>())
                }
                "ref.slowness_p50" => Metric::of_values(def, &slow_all),
                "ref.slowness_iqr" => scalar(slow_q.map(|q| q[2] - q[0])),
                "ref.in_session_ratio" => scalar(in_session_ratio),
                "raw.goodput_MBps" => Metric::of_samples(def, uncalibrated(&plain.goodput, true)),
                "raw.msg_rate_kps" => Metric::of_samples(def, uncalibrated(&plain.rate, true)),
                "raw.rtt_p50_us" => Metric::of_samples(def, uncalibrated(&plain.p50, false)),
                "raw.rtt_p90_us" => Metric::of_samples(def, uncalibrated(&plain.p90, false)),
                "raw.setup_s" => Metric::of_samples(def, uncalibrated(&setup, false)),
                // Everything else is a probe.
                name => scalar(probe(name)),
            }
        })
        .collect();

    Report {
        end_to_end,
        per_layer,
        min_round_trips: plain.min_round_trips,
        span_phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workload::WORKLOADS;

    #[test]
    fn tables_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn only_gatewayless_and_last_hop_metrics_are_absent_by_design() {
        let [direct, fwd, _, chain] = &WORKLOADS;
        assert!(absent_by_design(direct, "gateway.errors"));
        assert!(absent_by_design(direct, "credit.grants_per_frag"));
        assert!(!absent_by_design(direct, "credit.take_deposit_ns"));
        assert!(!absent_by_design(direct, "pool.miss_share"));
        assert!(absent_by_design(fwd, "credit.wait_ns_p99"));
        assert!(!absent_by_design(fwd, "gateway.forward_ns_p50"));
        assert!(PER_LAYER.iter().all(|m| !absent_by_design(chain, m.name)));
    }

    /// `BENCHMARK.json` (one directory up) lists exactly the workloads and
    /// metrics of the binary's tables, with the same units, directions and
    /// bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| doc.get(key).and_then(json::Value::arr).expect(key).to_vec();
        let field =
            |v: &json::Value, k: &str| v.get(k).and_then(json::Value::str).map(str::to_string);

        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|v| (field(v, "name").unwrap(), field(v, "why").unwrap()))
            .collect();
        let table: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, table);

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = rows(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (v, d) in listed.iter().zip(defs) {
                assert_eq!(field(v, "name").as_deref(), Some(d.name));
                assert_eq!(field(v, "unit").as_deref(), Some(d.unit), "{}", d.name);
                assert_eq!(field(v, "better").as_deref(), Some(d.better), "{}", d.name);
                if key == "end_to_end" {
                    assert_eq!(v.get("bound").and_then(json::Value::num), Some(d.bound));
                }
            }
        }
        let paths = rows("paths");
        assert_eq!(paths, [json::Value::Str("benchmark".into())]);
    }
}
