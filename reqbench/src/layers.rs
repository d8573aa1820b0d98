//! Per-layer metrics of a traced run, derived from its spans and from
//! counts taken at the same call boundaries. Every workload reports
//! every metric; a layer the workload does not exercise reads 0.

use crate::report::Metric;
use crate::stats::{mean, median, summarize};
use crate::sut::Done;
use crate::trace::Tracer;
use paragram_core::memo::MemoCounters;
use paragram_driver::ServiceStats;

/// Per-request numbers kept from a traced request's [`Done`].
#[derive(Debug, Clone, Copy)]
pub struct ReqStats {
    /// Pool evaluation time (`TreeOutput::elapsed`), ms.
    pub eval_ms: f64,
    /// Enqueue → first region dispatched, ms (includes the synchronous
    /// decomposition inside `submit`).
    pub dispatch_wait_ms: f64,
    /// Dispatch → assembled, minus evaluation, ms.
    pub assemble_ms: f64,
    /// Assembled → taken by the client, ms.
    pub harvest_lag_ms: f64,
    /// Regions the tree was split into.
    pub regions: f64,
    /// Boundary attribute values sent between regions.
    pub attrs_sent: f64,
    /// Bytes of those values.
    pub bytes_sent: f64,
    /// Rule applications.
    pub rules: f64,
    /// Abstract rule cost units.
    pub cost_units: f64,
}

impl ReqStats {
    /// The numbers of one completed request.
    pub fn of(done: &Done) -> ReqStats {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let t = &done.times;
        let dispatched = t.dispatched.expect("completed request was dispatched");
        let assembled = t.assembled.expect("completed request was assembled");
        ReqStats {
            eval_ms: ms(done.eval),
            dispatch_wait_ms: ms(dispatched - t.enqueued),
            assemble_ms: ms(assembled - dispatched) - ms(done.eval),
            harvest_lag_ms: ms(done.taken.saturating_duration_since(assembled)),
            regions: done.regions as f64,
            attrs_sent: done.stats.attrs_sent as f64,
            bytes_sent: done.stats.bytes_sent as f64,
            rules: done.stats.total_applied() as f64,
            cost_units: done.stats.rule_cost_units as f64,
        }
    }
}

/// The simulator's numbers for combined mode at five machines.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimLayer {
    /// Activity, message and fault records in the run's trace.
    pub trace_records: f64,
    /// Virtual evaluation time, s.
    pub virtual_eval_s: f64,
    /// Virtual time at one machine over virtual time at five.
    pub virtual_speedup: f64,
}

/// The overhead ladder on the same trees, ms per tree (medians).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ladder {
    /// Sequential `static_eval` over the compiled visit programs.
    pub static_eval_ms: f64,
    /// The service with a one-worker pool, offer → completed.
    pub pool1_ms: f64,
    /// The service as configured, offer → completed.
    pub pool_ms: f64,
}

/// Everything a traced run measured besides its spans.
#[derive(Default)]
pub struct LayerData {
    /// Traced requests attempted.
    pub requests: u64,
    /// Per-request numbers of the traced requests that completed.
    pub reqs: Vec<ReqStats>,
    /// Service counters over the traced windows.
    pub shed: u64,
    /// The service's waiting-room high-water mark.
    pub max_waiting: u64,
    /// Memo activity over the traced windows.
    pub memo: MemoCounters,
    /// Steals over the traced windows.
    pub steals: u64,
    /// Allocations and bytes over the traced windows.
    pub allocs: (u64, u64),
    /// Process CPU seconds over the traced windows.
    pub cpu_s: f64,
    /// Wall seconds of the traced windows.
    pub wall_s: f64,
    /// Reference `decompose_granular` times, ms.
    pub decompose_ms: Vec<f64>,
    /// Simulator numbers (`fig5_sim` only).
    pub sim: SimLayer,
    /// Overhead ladder (`huge_single` only).
    pub ladder: Ladder,
    /// Latency medians of the traced and untraced requests, ms.
    pub traced_p50_ms: f64,
    /// See `traced_p50_ms`.
    pub untraced_p50_ms: f64,
}

impl LayerData {
    /// Adds the service's counter movement between two snapshots.
    pub fn add_service_delta(&mut self, before: &ServiceStats, after: &ServiceStats) {
        self.shed += (after.shed - before.shed) as u64;
        self.max_waiting = self.max_waiting.max(after.max_waiting as u64);
        let m = after.memo.since(&before.memo);
        self.memo.hits += m.hits;
        self.memo.misses += m.misses;
        self.memo.inserts += m.inserts;
        self.memo.evictions += m.evictions;
        self.memo.deferred += m.deferred;
        self.steals += after.sched.steals - before.sched.steals;
    }
}

/// Tracks process CPU, wall time and allocations over traced windows.
pub struct Window {
    start: std::time::Instant,
    cpu: f64,
    allocs: (u64, u64),
}

impl Window {
    /// Opens a window and switches allocation counting on.
    pub fn open() -> Window {
        crate::sys::count_allocations(true);
        Window {
            start: std::time::Instant::now(),
            cpu: crate::sys::cpu_seconds().unwrap_or(0.0),
            allocs: crate::sys::allocations(),
        }
    }

    /// Closes the window into `data`.
    pub fn close(self, data: &mut LayerData) {
        crate::sys::count_allocations(false);
        let (n, b) = crate::sys::allocations();
        data.allocs.0 += n - self.allocs.0;
        data.allocs.1 += b - self.allocs.1;
        data.cpu_s += crate::sys::cpu_seconds().unwrap_or(self.cpu) - self.cpu;
        data.wall_s += self.start.elapsed().as_secs_f64();
    }
}

/// Every per-layer metric, in a fixed order.
pub fn metrics(tr: &Tracer, d: &LayerData) -> Vec<Metric> {
    let p50 = |name: &str| median(&tr.durations_ms(name));
    let per_req = |total: f64| {
        if d.requests == 0 {
            0.0
        } else {
            total / d.requests as f64
        }
    };
    let per_done = |f: fn(&ReqStats) -> f64| mean(&d.reqs.iter().map(f).collect::<Vec<_>>());
    let p50_of = |f: fn(&ReqStats) -> f64| median(&d.reqs.iter().map(f).collect::<Vec<_>>());
    let rate = |name: &str, scale: f64| {
        let (ms, count) = tr.totals(name);
        if ms == 0.0 {
            0.0
        } else {
            count as f64 / scale / ms
        }
    };
    let waits: Vec<f64> = d.reqs.iter().map(|r| r.dispatch_wait_ms).collect();
    let wait_tail = if waits.is_empty() {
        0.0
    } else {
        summarize(&waits).tail
    };
    let probes = d.memo.hits + d.memo.misses;
    let per_kreq = |n: u64| per_req(n as f64 * 1e3);
    let pump_ms = tr.totals("service.pump").0 + tr.totals("service.drain").0;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let m = Metric::new;
    vec![
        m("parser.p50_ms", p50("parser.parse"), "ms"),
        // bytes / ms / 1e3 = MB/s
        m("parser.mb_s", rate("parser.parse", 1e3), "MB/s"),
        m("agtree.p50_ms", p50("agtree.build_tree"), "ms"),
        m(
            "agtree.knodes_ms",
            rate("agtree.build_tree", 1e3),
            "knodes/ms",
        ),
        m("service.offer_p50_us", p50("service.offer") * 1e3, "us"),
        m("service.dispatch_wait_p50_ms", median(&waits), "ms"),
        m("service.dispatch_wait_tail_ms", wait_tail, "ms"),
        m("service.max_waiting", d.max_waiting as f64, "count"),
        m("service.shed", d.shed as f64, "count"),
        m(
            "service.pump_share",
            ratio(pump_ms, d.wall_s * 1e3),
            "share",
        ),
        m("split.decompose_ms", median(&d.decompose_ms), "ms"),
        m("pool.eval_p50_ms", p50_of(|r| r.eval_ms), "ms"),
        m("pool.assemble_p50_ms", p50_of(|r| r.assemble_ms), "ms"),
        m("pool.regions_per_req", per_done(|r| r.regions), "count"),
        m(
            "pool.attrs_sent_per_req",
            per_done(|r| r.attrs_sent),
            "count",
        ),
        m(
            "pool.kb_sent_per_req",
            per_done(|r| r.bytes_sent) / 1e3,
            "KB",
        ),
        m("pool.steals", d.steals as f64, "count"),
        m("pool.cpu_util", ratio(d.cpu_s, d.wall_s), "ratio"),
        m("eval.rules_per_req", per_done(|r| r.rules), "count"),
        m(
            "eval.cost_units_per_req",
            per_done(|r| r.cost_units),
            "count",
        ),
        m(
            "memo.hit_ratio",
            ratio(d.memo.hits as f64, probes as f64),
            "ratio",
        ),
        m("memo.inserts_per_kreq", per_kreq(d.memo.inserts), "count"),
        m(
            "memo.evictions_per_kreq",
            per_kreq(d.memo.evictions),
            "count",
        ),
        m("memo.deferred_per_kreq", per_kreq(d.memo.deferred), "count"),
        m("output.p50_ms", p50("output.extract"), "ms"),
        m("teardown.ast_ms", p50("teardown.ast"), "ms"),
        m("teardown.output_ms", p50("teardown.output"), "ms"),
        m("teardown.tree_ms", p50("teardown.tree"), "ms"),
        m("alloc.count_per_req", per_req(d.allocs.0 as f64), "count"),
        m("alloc.mb_per_req", per_req(d.allocs.1 as f64) / 1e6, "MB"),
        m(
            "client.harvest_lag_p50_ms",
            p50_of(|r| r.harvest_lag_ms),
            "ms",
        ),
        m("sim.call_p50_ms", p50("sim.run_sim"), "ms"),
        m("sim.trace_records", d.sim.trace_records, "count"),
        m("sim.virtual_eval_s", d.sim.virtual_eval_s, "s"),
        m("sim.virtual_speedup", d.sim.virtual_speedup, "ratio"),
        m("ladder.static_eval_ms", d.ladder.static_eval_ms, "ms"),
        m("ladder.pool1_ms", d.ladder.pool1_ms, "ms"),
        m("ladder.pool_ms", d.ladder.pool_ms, "ms"),
        m(
            "ladder.pool1_over_static",
            ratio(d.ladder.pool1_ms, d.ladder.static_eval_ms),
            "ratio",
        ),
        m(
            "ladder.pool_over_static",
            ratio(d.ladder.pool_ms, d.ladder.static_eval_ms),
            "ratio",
        ),
        m(
            "trace.unexplained_share",
            tr.unexplained_share(&["service.drain"]),
            "share",
        ),
        m(
            "trace.overhead",
            ratio(d.traced_p50_ms, d.untraced_p50_ms),
            "ratio",
        ),
    ]
}
