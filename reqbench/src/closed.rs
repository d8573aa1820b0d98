//! The workloads, all closed loops with one client: `huge_single`
//! (distinct huge programs, one at a time), `dup_closed` (projects of
//! small programs, nine in ten of them sent before, so the memo
//! answers) and
//! `fig5_sim` (sweeps of the simulator over the paper's Figure 5
//! configurations).
//!
//! A closed loop sends the next request when the previous one is done,
//! so it has one load level and its latency is reported once. A run
//! measures `--seconds` of request time; input generation and
//! verification between requests are not counted. In a traced run, odd
//! requests are traced and even ones are not; the two medians give
//! `trace.overhead`.

use crate::layers::{self, Ladder, LayerData, ReqStats, SimLayer, Window};
use crate::oracle::Oracle;
use crate::report::Outcome;
use crate::stats::{median, summarize};
use crate::sut::{self, Sut};
use crate::trace::Tracer;
use crate::{e2e_metrics, inputs, Args};
use paragram_bench::pascal_sim_config;
use paragram_core::eval::{static_eval_with_programs, MachineMode};
use paragram_core::parallel::sim::run_sim;
use paragram_core::parallel::ResultPropagation;
use paragram_core::tree::ParseTree;
use paragram_driver::{CompilationPlan, ServiceConfig, ServiceQueue};
use paragram_pascal::{Compiler, PVal};
use std::sync::Arc;
use std::time::Instant;

/// Set-up probes before the first request.
const SETUP_START: usize = 3;

/// Further set-up probes, at even steps of the measured time.
const SETUP_SPREAD: usize = 10;

/// Huge trees the traced run's overhead ladder is measured on.
const LADDER_TREES: u64 = 3;

/// The set-up times of an untraced run. Each is measured in a process
/// of its own (this binary with `--setup-probe 1`), so the systems it
/// sets up neither share this process's heap nor add to its peak RSS,
/// which the benchmark reports. [`SETUP_START`] probes run before the
/// first request and one more each time the measured time passes
/// another of [`SETUP_SPREAD`] even steps: `setup_s`, their median,
/// samples the whole run rather than the machine's state in its first
/// second.
pub struct Setups {
    times: Vec<f64>,
    args: Args,
}

impl Setups {
    fn new(args: &Args) -> Self {
        Setups {
            times: Vec::new(),
            args: args.clone(),
        }
    }

    /// Runs the probes due after `busy` measured seconds.
    fn probe_due(&mut self, busy: f64) {
        if self.args.trace {
            return;
        }
        loop {
            let spread = self.times.len().saturating_sub(SETUP_START);
            let step = self.args.seconds * (spread + 1) as f64 / (SETUP_SPREAD + 1) as f64;
            if self.times.len() >= SETUP_START && (spread >= SETUP_SPREAD || busy < step) {
                return;
            }
            self.times.push(self.probe());
        }
    }

    /// One set-up, timed in a child process.
    fn probe(&self) -> f64 {
        let exe = std::env::current_exe().expect("path of the running binary");
        let out = std::process::Command::new(exe)
            .args(["--workload", &self.args.workload])
            .args(["--seed", &self.args.seed.to_string()])
            .args(["--setup-probe", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("set-up probe starts");
        let text = String::from_utf8_lossy(&out.stdout);
        match (out.status.success(), text.trim().parse::<f64>()) {
            (true, Ok(secs)) => secs,
            _ => panic!("set-up probe failed: {} {text:?}", out.status),
        }
    }
}

/// Times one set-up of `args.workload`'s system, s (the body of a
/// set-up probe). Its inputs are generated before the clock starts and
/// the system is torn down after it stops.
pub fn time_set_up(args: &Args) -> f64 {
    fn timed<T>(make: impl FnOnce() -> T) -> f64 {
        let t = Instant::now();
        let system = make();
        let secs = t.elapsed().as_secs_f64();
        drop(system);
        secs
    }
    if args.workload == "fig5_sim" {
        let src = inputs::paper_program();
        return timed(|| fig5_system(&src));
    }
    let warm = inputs::paper_shaped(args.seed);
    let fill = if args.workload == "dup_closed" {
        project_templates()
    } else {
        Vec::new()
    };
    timed(|| set_up(&warm, &fill))
}

/// One set-up of the system: construction, pool spin-up and warm-up:
/// `warm` compiled twice, one request each, then `fill` as one request,
/// twice (with second-touch installs, that puts `fill` in the memo).
/// The warm-up is a paper-sized program rather than many small ones so
/// that set-up time is mostly compilation, not thread wake-ups, whose
/// latency follows the machine's steal time.
fn set_up(warm: &str, fill: &[String]) -> Sut {
    let mut sut = Sut::new(sut::workers());
    let mut tr = Tracer::new(false);
    let warm = [warm.to_string()];
    let requests = std::iter::repeat_n(&warm[..], 2);
    let fills = std::iter::repeat_n(fill, if fill.is_empty() { 0 } else { 2 });
    for (i, srcs) in requests.chain(fills).enumerate() {
        for res in sut.closed_request(&mut tr, i as u64, srcs) {
            if let Err(e) = res {
                panic!("warm-up request {i} failed: {e:?}");
            }
        }
    }
    sut
}

/// The unchanged units of the `dup_closed` project.
fn project_templates() -> Vec<String> {
    (0..inputs::PROJECT_UNITS)
        .map(inputs::template_program)
        .collect()
}

/// A closed loop of service requests, one client: request `i` sends the
/// programs `programs(i)` returns, each with its oracle key if it is
/// sent more than once. Runs until `--seconds` of request time are
/// measured. In a traced run, odd requests are traced and even ones
/// are not. `attempted` and `failed` count programs; latency is per
/// request, per-layer figures per program.
struct ServiceLoop {
    sut: Sut,
    setups: Setups,
    out: Outcome,
    tr: Tracer,
    data: LayerData,
    latencies: Vec<f64>,
    cpu_s: f64,
}

impl ServiceLoop {
    fn run(
        args: &Args,
        mut sut: Sut,
        mut programs: impl FnMut(u64) -> Vec<(Option<u64>, String)>,
    ) -> Self {
        let mut setups = Setups::new(args);
        setups.probe_due(0.0);
        let mut out = Outcome::default();
        let mut tr = Tracer::new(false);
        let mut data = LayerData::default();
        let mut oracle = Oracle::default();
        let (mut latencies, mut traced_lat, mut untraced_lat) =
            (Vec::new(), Vec::new(), Vec::new());
        let (mut busy, mut cpu_s) = (0.0, 0.0);
        let mut i = 0u64;
        while busy < args.seconds {
            setups.probe_due(busy);
            let (keys, srcs): (Vec<_>, Vec<_>) = programs(i).into_iter().unzip();
            let traced = args.trace && i % 2 == 1;
            tr.set(traced);
            let before = sut.queue.stats();
            let window = traced.then(Window::open);
            let cpu0 = crate::sys::cpu_seconds().unwrap_or(0.0);
            let t0 = Instant::now();
            let results = sut.closed_request(&mut tr, i + 1, &srcs);
            let secs = t0.elapsed().as_secs_f64();
            cpu_s += crate::sys::cpu_seconds().unwrap_or(cpu0) - cpu0;
            if let Some(w) = window {
                w.close(&mut data);
                data.requests += srcs.len() as u64;
                data.add_service_delta(&before, &sut.queue.stats());
            }
            tr.set(false);
            busy += secs;
            let mut complete = true;
            for ((key, src), res) in keys.into_iter().zip(&srcs).zip(results) {
                out.attempted += 1;
                match res {
                    Ok(done) => {
                        if traced {
                            data.reqs.push(ReqStats::of(&done));
                        }
                        if let Some(why) = oracle.check(key, src, &done.asm, done.errs_empty) {
                            out.wrong += 1;
                            out.failed += 1;
                            out.notes.push(format!("request {i}: {why}"));
                        }
                    }
                    Err(e) => {
                        complete = false;
                        out.failed += 1;
                        out.notes.push(format!("request {i} failed: {e:?}"));
                    }
                }
            }
            if complete {
                latencies.push(secs * 1e3);
                if traced {
                    traced_lat.push(secs * 1e3);
                } else {
                    untraced_lat.push(secs * 1e3);
                }
            }
            i += 1;
        }
        data.traced_p50_ms = median(&traced_lat);
        data.untraced_p50_ms = median(&untraced_lat);
        ServiceLoop {
            sut,
            setups,
            out,
            tr,
            data,
            latencies,
            cpu_s,
        }
    }

    /// The run's outcome: per-layer metrics if traced, end-to-end ones
    /// if not.
    fn finish(mut self, args: &Args) -> Outcome {
        let peak = crate::sys::peak_rss_mb().unwrap_or(0.0);
        if args.trace {
            self.out.metrics = layers::metrics(&self.tr, &self.data);
            crate::write_trace(&self.tr, args);
        } else if !self.latencies.is_empty() {
            let s = summarize(&self.latencies);
            self.out.notes.push(crate::tail_note("latency", &s));
            let setups = &self.setups.times;
            self.out.notes.push(crate::setup_note(setups));
            self.out.metrics = e2e_metrics(setups, peak, &self.latencies, self.cpu_s);
        }
        self.out
    }
}

/// `huge_single`: closed loop, one client, distinct huge programs.
pub fn huge_single(args: &Args) -> Outcome {
    let mut lp = ServiceLoop::run(args, set_up(&inputs::paper_shaped(args.seed), &[]), |i| {
        vec![(None, inputs::huge_program(args.seed, i))]
    });
    if args.trace {
        let (ladder, decompose) = overhead_ladder(&lp.sut.compiler, args.seed);
        lp.data.ladder = ladder;
        lp.data.decompose_ms = decompose;
    }
    lp.finish(args)
}

/// `dup_closed`: closed loop, one client; a request is a project of
/// [`inputs::PROJECT_UNITS`] small programs, nine in ten of them
/// unchanged since the last build (the unit's fixed template) and one in
/// ten edited (a distinct program). Set-up ends with two builds of the
/// unchanged project, which install every template in the memo (second-
/// touch installs), so unchanged units hit.
pub fn dup_closed(args: &Args) -> Outcome {
    let templates = project_templates();
    let lp = ServiceLoop::run(
        args,
        set_up(&inputs::paper_shaped(args.seed), &templates),
        |i| {
            (0..inputs::PROJECT_UNITS)
                .map(|j| match inputs::dup_pick(args.seed, i, j) {
                    inputs::DupPick::Template => (Some(j as u64), templates[j].clone()),
                    inputs::DupPick::Distinct(s) => (None, inputs::distinct_program(j, s)),
                })
                .collect()
        },
    );
    lp.finish(args)
}

/// The overhead ladder of the traced `huge_single` run, on its first
/// trees: sequential `static_eval`, the service over a one-worker pool,
/// the service as configured, and the reference `decompose_granular`
/// call. Medians over the trees, ms.
fn overhead_ladder(compiler: &Compiler, seed: u64) -> (Ladder, Vec<f64>) {
    let plan = compiler.evals.plan();
    let plans = plan.plans().expect("the Pascal grammar is ordered");
    let programs = plan.programs().expect("ordered grammars have programs");
    let queue = |workers| {
        ServiceQueue::new(
            &CompilationPlan::from_plan(plan, sut::driver_config(workers)),
            ServiceConfig::fifo(sut::CAPACITY),
        )
    };
    let (mut pool1, mut pool) = (queue(1), queue(sut::workers()));
    let time_service = |q: &mut ServiceQueue<PVal>, tree: &Arc<ParseTree<PVal>>| {
        let t = Instant::now();
        q.offer(tree, 0);
        q.drain();
        let done = q.take_completed().expect("ladder tree compiles");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(done);
        ms
    };
    let (mut st, mut p1, mut pn, mut dec) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..LADDER_TREES {
        let tree = compiler
            .tree_from_source(&inputs::huge_program(seed, i))
            .expect("generated program parses");
        let t = Instant::now();
        let result = static_eval_with_programs(&tree, plans, programs);
        st.push(t.elapsed().as_secs_f64() * 1e3);
        drop(result.expect("static evaluation succeeds"));
        p1.push(time_service(&mut pool1, &tree));
        pn.push(time_service(&mut pool, &tree));
        dec.push(sut::decompose_ms(compiler, &tree));
    }
    let ladder = Ladder {
        static_eval_ms: median(&st),
        pool1_ms: median(&p1),
        pool_ms: median(&pn),
    };
    (ladder, dec)
}

/// The Figure 5 sweep: both evaluator modes on 1–8 machines.
fn fig5_configs() -> Vec<(MachineMode, usize)> {
    [MachineMode::Dynamic, MachineMode::Combined]
        .into_iter()
        .flat_map(|m| (1..=8).map(move |k| (m, k)))
        .collect()
}

/// The `fig5_sim` system: compiler construction, the tree of the
/// measurement program `src` and a warm-up simulation of both modes on
/// 1 and 5 machines.
fn fig5_system(src: &str) -> (Compiler, Arc<ParseTree<PVal>>) {
    let compiler = Compiler::new();
    let tree = compiler
        .tree_from_source(src)
        .expect("generated program parses");
    for mode in [MachineMode::Dynamic, MachineMode::Combined] {
        for machines in [1, 5] {
            let cfg = pascal_sim_config(machines, mode, ResultPropagation::Librarian);
            drop(run_sim(&tree, compiler.evals.plans(), &cfg));
        }
    }
    (compiler, tree)
}

/// `fig5_sim`: closed loop over the Figure 5 sweep of `run_sim` on the
/// paper's measurement program. One request is one whole sweep (16
/// calls), in an order drawn from the seed: per-call times mix
/// configurations whose costs differ by 2×, and simulator cost differs
/// by ~20% between seeded paper-shaped programs, so either would let
/// the seed rather than the code set the figure. Each configuration's
/// virtual time must repeat exactly, whatever the order.
pub fn fig5_sim(args: &Args) -> Outcome {
    let src = inputs::paper_program();
    let configs = fig5_configs();
    let (compiler, tree) = fig5_system(&src);
    let mut setups = Setups::new(args);
    setups.probe_due(0.0);
    let plans = compiler.evals.plans();
    let (s_code, s_errs) = (compiler.pg.s_code, compiler.pg.s_errs);

    let mut out = Outcome::default();
    let mut tr = Tracer::new(false);
    let mut data = LayerData::default();
    let mut oracle = Oracle::default();
    let mut virtual_time: Vec<Option<u64>> = vec![None; configs.len()];
    let (mut all, mut traced_lat, mut untraced_lat) = (Vec::new(), Vec::new(), Vec::new());
    let (mut busy, mut cpu) = (0.0, 0.0);
    let mut sweep = 0u64;
    while busy < args.seconds {
        setups.probe_due(busy);
        let traced = args.trace && sweep % 2 == 1;
        let req = sweep + 1;
        let order = inputs::permutation(args.seed, sweep << 8, configs.len());
        tr.set(traced);
        let window = traced.then(Window::open);
        let cpu0 = crate::sys::cpu_seconds().unwrap_or(0.0);
        let t0 = Instant::now();
        let results = tr.span("request", req, |tr| {
            order
                .iter()
                .map(|&c| {
                    let (mode, machines) = configs[c];
                    let cfg = pascal_sim_config(machines, mode, ResultPropagation::Librarian);
                    let report = tr.span("sim.run_sim", req, |_| run_sim(&tree, plans, &cfg));
                    let extracted = tr.span("output.extract", req, |_| {
                        let root = |a| {
                            report
                                .root_values
                                .iter()
                                .find(|(x, _)| *x == a)
                                .map(|(_, v)| v)
                        };
                        SimResult {
                            code: root(s_code)
                                .map(|v| v.code().to_string())
                                .unwrap_or_default(),
                            errs_empty: root(s_errs).is_some_and(|v| v.as_errs().is_empty()),
                            eval_time: report.eval_time,
                            records: report.trace.activities.len()
                                + report.trace.messages.len()
                                + report.trace.faults.len(),
                        }
                    });
                    tr.span("teardown.output", req, |_| drop(report));
                    (c, extracted)
                })
                .collect::<Vec<_>>()
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        cpu += crate::sys::cpu_seconds().unwrap_or(cpu0) - cpu0;
        if let Some(w) = window {
            w.close(&mut data);
            data.requests += 1;
        }
        tr.set(false);
        busy += ms / 1e3;
        out.attempted += 1;
        all.push(ms);
        if traced {
            traced_lat.push(ms);
        } else {
            untraced_lat.push(ms);
        }
        let mut wrong = false;
        for (c, r) in &results {
            let (c, (mode, machines)) = (*c, configs[*c]);
            let mut why = oracle.check(Some(0), &src, &r.code, r.errs_empty);
            match virtual_time[c] {
                None => virtual_time[c] = Some(r.eval_time),
                Some(v) if v != r.eval_time => {
                    why = Some(format!("virtual time {} µs, earlier {v} µs", r.eval_time));
                }
                Some(_) => {}
            }
            if let Some(why) = why {
                wrong = true;
                out.notes.push(format!(
                    "sweep {sweep}, {mode:?} on {machines} machines: {why}"
                ));
            }
            if (mode, machines) == (MachineMode::Combined, 5) {
                data.sim.trace_records = r.records as f64;
            }
        }
        if wrong {
            out.wrong += 1;
            out.failed += 1;
        }
        sweep += 1;
    }
    let peak = crate::sys::peak_rss_mb().unwrap_or(0.0);
    let combined = |k: usize| {
        let c = configs
            .iter()
            .position(|&x| x == (MachineMode::Combined, k))
            .expect("configuration in the sweep");
        virtual_time[c].unwrap_or(0) as f64
    };
    data.sim = SimLayer {
        virtual_eval_s: combined(5) / 1e6,
        virtual_speedup: combined(1) / combined(5),
        ..data.sim
    };
    out.notes.push(format!(
        "{sweep} sweeps of {} configurations; combined on 5 machines: {:.4} s virtual, {:.4}x over 1",
        configs.len(),
        data.sim.virtual_eval_s,
        data.sim.virtual_speedup
    ));
    if args.trace {
        data.traced_p50_ms = median(&traced_lat);
        data.untraced_p50_ms = median(&untraced_lat);
        data.decompose_ms.push(sut::decompose_ms(&compiler, &tree));
        out.metrics = layers::metrics(&tr, &data);
        crate::write_trace(&tr, args);
    } else {
        let s = summarize(&all);
        out.notes.push(crate::tail_note("latency", &s));
        out.notes.push(crate::setup_note(&setups.times));
        out.metrics = e2e_metrics(&setups.times, peak, &all, cpu);
    }
    out
}

/// What the client keeps of one simulator call.
struct SimResult {
    code: String,
    errs_empty: bool,
    eval_time: u64,
    records: usize,
}
