//! Turning a measured run into the printed metrics.

use std::fmt::Write as _;
use std::time::Instant;

use crate::client::{Sample, Tally};
use crate::server::Metrics;
use crate::stats;

/// Request kinds every workload numbers its requests with.
pub const MAIN: usize = 0;
/// The workload's second request kind.
pub const SIDE: usize = 1;
/// Clean-up requests (`DELETE /sessions/:id`): counted, not reported.
pub const OTHER: usize = 2;

/// Starts the message of a failure that a known fault of the program
/// causes on every pass, on inputs that do not depend on the seed. It is
/// counted in `failed` but leaves `correct` true.
pub const KNOWN_FAULT_TAG: &str = "known fault: ";

/// The highest percentile `op_tail_ms` may stand at.
const TAIL_CAP_PCT: f64 = 99.0;
/// Shortest window of whole rounds, in seconds. Every round holds the
/// same operations, so a window's rate needs no floor on its count.
const WINDOW_S: f64 = 1.0;
/// Fewest windows for the calm-decile estimates; with fewer, the whole
/// run is used.
const MIN_WINDOWS: usize = 4;

/// One printed metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// What a workload measured in one run.
pub struct Measured {
    /// Set-up times (spawn → ready with the worlds loaded), seconds.
    pub setup_s: Vec<f64>,
    /// Server `VmHWM` at the end of the run.
    pub peak_rss_mb: f64,
    /// When the measured phase began.
    pub start: Instant,
    /// When each round (or pass) of the measured phase began.
    pub round_starts: Vec<Instant>,
    /// The measured phase's replies.
    pub tally: Tally,
    /// Each completed user operation (a whole session, or one request),
    /// in completion order.
    pub ops: Vec<Sample>,
    /// Requests that make up one operation.
    pub requests_per_op: f64,
}

/// Everything a run prints.
pub struct Report {
    /// Operations attempted (requests, over warm-up and measured phase).
    pub attempted: u64,
    /// Failed operations, with the reason for each.
    pub failures: Vec<String>,
    end_to_end: Vec<Metric>,
    layers: Vec<Metric>,
}

impl Report {
    /// A report over `m`, with the failures and attempts of the whole run.
    pub fn new(m: &Measured, attempted: u64, failures: Vec<String>) -> Report {
        let mut r = Report {
            attempted,
            failures,
            end_to_end: Vec::new(),
            layers: Vec::new(),
        };
        let ops = m.ops.len();
        let requests = m.tally.replies.len();
        // The measured phase ends with its last reply: whole rounds.
        let end = m.tally.replies.last().map_or(m.start, |o| o.at);
        let wall_s = end.duration_since(m.start).as_secs_f64();
        let windows = round_windows(&m.round_starts, end);
        let ms: Vec<f64> = m.ops.iter().map(|o| o.ms).collect();
        r.e2e(
            "setup_s",
            stats::median(&m.setup_s),
            "s",
            format!(
                "median of {} set-ups; quartiles {:.4} {:.4} s",
                m.setup_s.len(),
                stats::quantile(&m.setup_s, 0.25),
                stats::quantile(&m.setup_s, 0.75)
            ),
        );
        r.e2e("peak_rss_mb", m.peak_rss_mb, "MB", "server VmHWM".into());
        r.e2e(
            "ops_per_s",
            calm_rate(&m.ops, &windows, wall_s),
            "1/s",
            format!(
                "{ops} ops in {wall_s:.2} s ({:.2}/s over the whole run), {} windows",
                ops as f64 / wall_s,
                windows.len()
            ),
        );
        r.e2e(
            "op_iqm_ms",
            stats::iqm(&ms),
            "ms",
            format!(
                "{ops} samples; p25 {:.4}, median {:.4}, p75 {:.4} ms",
                stats::quantile(&ms, 0.25),
                stats::median(&ms),
                stats::quantile(&ms, 0.75)
            ),
        );
        let (tail, pct) = calm_tail(&m.ops, &windows).unwrap_or((stats::median(&ms), 50.0));
        let uncapped = stats::tail(&ms, 100.0).map_or(String::new(), |(v, p)| {
            format!("; p{p:.3} over the whole run is {v:.4} ms")
        });
        r.e2e(
            "op_tail_ms",
            tail,
            "ms",
            format!("p{pct:.2} of {ops} samples{uncapped}"),
        );
        r.e2e(
            "requests_per_s",
            calm_rate(&m.tally.replies, &windows, wall_s),
            "1/s",
            format!(
                "{requests} requests ({:.2}/s over the whole run)",
                requests as f64 / wall_s
            ),
        );
        for (name, kind) in [("main_iqm_ms", MAIN), ("side_iqm_ms", SIDE)] {
            let v: Vec<f64> = m.tally.of_kind(kind).iter().map(|s| s.ms).collect();
            r.e2e(
                name,
                stats::iqm(&v),
                "ms",
                format!("{} samples, median {:.4} ms", v.len(), stats::median(&v)),
            );
        }
        r.e2e("requests_per_op", m.requests_per_op, "count", String::new());
        r
    }

    fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    /// The value of an end-to-end metric (NaN if there is none).
    pub fn end_to_end(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Whether every operation passed its checks, apart from those a
    /// known fault fails.
    pub fn correct(&self) -> bool {
        self.failures.iter().all(|f| f.starts_with(KNOWN_FAULT_TAG))
    }

    /// Human-readable lines on standard error.
    pub fn print_summary(&self) {
        for f in self.failures.iter().take(10) {
            eprintln!("FAILED: {f}");
        }
        if self.failures.len() > 10 {
            eprintln!("FAILED: … {} more", self.failures.len() - 10);
        }
        for m in self.end_to_end.iter().chain(&self.layers) {
            eprintln!("{:<36} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        eprintln!(
            "attempted {} failed {}",
            self.attempted,
            self.failures.len()
        );
    }

    /// The result line: end-to-end metrics, or per-layer ones when
    /// `trace`.
    pub fn json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.layers
        } else {
            &self.end_to_end
        };
        let mut s = String::new();
        let correct = self.correct() && metrics.iter().all(|m| m.value.is_finite());
        let _ = write!(
            s,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted,
            self.failures.len()
        );
        for (i, m) in metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Consecutive whole rounds grouped into windows of at least
/// [`WINDOW_S`]; a shorter group at the end is left out.
fn round_windows(starts: &[Instant], end: Instant) -> Vec<(Instant, Instant)> {
    let mut out = Vec::new();
    let Some(&first) = starts.first() else {
        return out;
    };
    let mut from = first;
    for &to in starts[1..].iter().chain([end].iter()) {
        if to.duration_since(from).as_secs_f64() >= WINDOW_S {
            out.push((from, to));
            from = to;
        }
    }
    out
}

fn within(v: &[Sample], (from, to): (Instant, Instant)) -> Vec<Sample> {
    v.iter()
        .copied()
        .filter(|s| s.at >= from && s.at < to)
        .collect()
}

/// Completions per second in the calm decile of the run's windows: host
/// interference on a shared machine comes in bursts of seconds (one run
/// of ~10⁴ small requests per second read 1,500 to 9,500 requests in
/// different seconds), and the best tenth of the windows shows the
/// program's own rate. With too few windows, the whole run's rate.
fn calm_rate(v: &[Sample], windows: &[(Instant, Instant)], wall_s: f64) -> f64 {
    if windows.len() < MIN_WINDOWS {
        return v.len() as f64 / wall_s;
    }
    let rates: Vec<f64> = windows
        .iter()
        .map(|&w| within(v, w).len() as f64 / w.1.duration_since(w.0).as_secs_f64())
        .collect();
    stats::quantile(&rates, 0.9)
}

/// The tail, capped at p99, with its percentile: the calm decile of
/// the windows' tails (each the highest percentile up to p99 with ten
/// samples beyond it in its window), else the whole run's. `None` below
/// forty samples.
fn calm_tail(v: &[Sample], windows: &[(Instant, Instant)]) -> Option<(f64, f64)> {
    let ms = |v: &[Sample]| v.iter().map(|s| s.ms).collect::<Vec<f64>>();
    let tails: Vec<(f64, f64)> = windows
        .iter()
        .filter_map(|&w| stats::tail(&ms(&within(v, w)), TAIL_CAP_PCT))
        .collect();
    if tails.len() < MIN_WINDOWS {
        return stats::tail(&ms(v), TAIL_CAP_PCT);
    }
    let values: Vec<f64> = tails.iter().map(|t| t.0).collect();
    let pcts: Vec<f64> = tails.iter().map(|t| t.1).collect();
    Some((stats::quantile(&values, 0.1), stats::median(&pcts)))
}

/// The server-side per-layer metrics of a traced run, from `/metrics`
/// scraped before and after the measured phase.
pub struct ServerView<'a> {
    /// After minus before.
    pub delta: &'a Metrics,
    /// The scrape after the run (for gauges).
    pub after: &'a Metrics,
    /// Client-side latencies and sizes of the same phase.
    pub tally: &'a Tally,
    /// Route labels of the `MAIN` and `SIDE` request kinds.
    pub routes: [&'a str; 2],
    /// Sessions completed in the phase (0 when the workload runs none).
    pub sessions: f64,
    /// Results returned by `/eval` in the phase.
    pub eval_results: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl ServerView<'_> {
    /// Adds the `server.*`, `log.*`, `trace.*`, `telemetry.*`, `core.*`,
    /// `engine.*` counter and `graph.versions_open` metrics.
    pub fn add_to(&self, r: &mut Report) {
        let d = self.delta;
        for (role, kind, route) in [
            ("main", MAIN, self.routes[0]),
            ("side", SIDE, self.routes[1]),
        ] {
            let count = d.get(&format!(
                "questpro_route_duration_ns_count{{route=\"{route}\"}}"
            ));
            let sum = d.get(&format!(
                "questpro_route_duration_ns_sum{{route=\"{route}\"}}"
            ));
            let handler = ratio(sum, count) / 1e6;
            let replies = self.tally.of_kind(kind);
            let client: Vec<f64> = replies.iter().map(|s| s.ms).collect();
            let bytes: f64 = replies.iter().map(|s| s.bytes as f64).sum();
            r.layer(
                &format!("server.handler_ms.{role}"),
                handler,
                "ms",
                format!("{route}, {count} requests"),
            );
            r.layer(
                &format!("server.residual_ms.{role}"),
                stats::mean(&client) - handler,
                "ms",
                format!(
                    "client mean {:.4} ms minus handler mean",
                    stats::mean(&client)
                ),
            );
            r.layer(
                &format!("server.response_kb.{role}"),
                ratio(bytes, client.len() as f64) / 1024.0,
                "KiB",
                route,
            );
        }
        let requests = d.get("questpro_http_requests_total");
        r.layer(
            "log.events_per_request",
            ratio(d.get("questpro_log_events_total"), requests),
            "count",
            format!("over {requests} requests"),
        );
        let spans = d.family_sum("questpro_stage_duration_ns_count")
            - d.get("questpro_stage_duration_ns_count{stage=\"request\"}");
        r.layer(
            "trace.spans_per_request",
            ratio(spans, requests),
            "count",
            format!("{spans} spans"),
        );
        r.layer(
            "telemetry.records",
            d.get("questpro_session_records_total"),
            "count",
            format!("{} sessions", self.sessions),
        );
        let stage =
            |s: &str| d.get(&format!("questpro_stage_duration_ns_sum{{stage=\"{s}\"}}")) / 1e6;
        let merge = stage("infer.merge_candidates");
        let consistency = stage("infer.consistency");
        let round_self = stage("infer.round") - merge - consistency;
        let per = format!("per session, {} sessions", self.sessions);
        r.layer(
            "core.merge_ms",
            ratio(merge, self.sessions),
            "ms",
            per.clone(),
        );
        r.layer(
            "core.consistency_ms",
            ratio(consistency, self.sessions),
            "ms",
            per.clone(),
        );
        r.layer(
            "core.round_ms",
            ratio(round_self, self.sessions),
            "ms",
            format!("self time {per}"),
        );
        let (hits, lookups) = (
            d.get("questpro_consistency_hits_total"),
            d.get("questpro_consistency_lookups_total"),
        );
        r.layer(
            "core.consistency_hit_ratio",
            ratio(hits, lookups),
            "ratio",
            format!("{hits} hits of {lookups} lookups"),
        );
        let (hits, lookups) = (
            d.family_sum("questpro_session_merge_hits_total"),
            d.family_sum("questpro_session_merge_lookups_total"),
        );
        r.layer(
            "core.merge_hit_ratio",
            ratio(hits, lookups),
            "ratio",
            format!("{hits} hits of {lookups} lookups"),
        );
        r.layer(
            "core.states_examined",
            ratio(
                d.get("questpro_inference_states_examined_total"),
                self.sessions,
            ),
            "count",
            per,
        );
        let searches = d.get("questpro_engine_searches_total");
        r.layer(
            "engine.searches_per_request",
            ratio(searches, requests),
            "count",
            format!("{searches} searches"),
        );
        let expanded = d.get("questpro_engine_nodes_expanded_total");
        r.layer(
            "engine.nodes_expanded_per_result",
            ratio(expanded, self.eval_results),
            "count",
            format!("{expanded} nodes over {} /eval results", self.eval_results),
        );
        r.layer(
            "graph.versions_open",
            self.after.get("questpro_ontology_versions_open"),
            "count",
            "at the end of the run",
        );
    }
}
