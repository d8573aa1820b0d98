//! The system under test and the client's calls into it.
//!
//! One [`ServiceQueue`] with the library defaults, except `workers` =
//! the machine's available parallelism and the memo cache on (second-
//! touch installs, a fixed byte budget). A request enters as source
//! text: the client thread parses it, builds the attributed tree, drops
//! the AST and offers the tree; once the service completes it, the
//! client extracts the root `code` attribute as a `String` and drops the
//! output and the tree. The service takes trees, not text, so front-end
//! cost lands on the client thread and counts toward latency, as it
//! would in a real front end.

use crate::trace::Tracer;
use paragram_core::memo::InstallPolicy;
use paragram_core::split::{decompose_granular, SplitTable};
use paragram_core::stats::EvalStats;
use paragram_core::tree::ParseTree;
use paragram_driver::{
    Admission, CompilationPlan, DriverConfig, RequestTimes, ServiceConfig, ServiceOutput,
    ServiceQueue,
};
use paragram_pascal::{agtree, parser, Compiler, PVal};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Waiting-room bound of the service.
pub const CAPACITY: usize = 64;

/// Memo cache byte budget.
pub const MEMO_BYTES: usize = 64 << 20;

/// Evaluator threads: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `DriverConfig` of the system under test, with `workers`
/// evaluator threads.
pub fn driver_config(workers: usize) -> DriverConfig {
    DriverConfig::workers(workers)
        .with_memo_capacity(MEMO_BYTES)
        .with_memo_install(InstallPolicy::SecondTouch)
}

/// Times one reference `decompose_granular` call on `tree`, with the
/// split table and granularity the system under test uses, in ms.
pub fn decompose_ms(compiler: &Compiler, tree: &Arc<ParseTree<PVal>>) -> f64 {
    let plan = compiler.evals.plan();
    let cfg = driver_config(workers());
    let split = SplitTable::new(plan.grammar(), cfg.min_size_scale);
    let t = Instant::now();
    let d = decompose_granular(tree, &split, plan.work_table(), cfg.effective_granularity());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    drop(d);
    ms
}

/// The compiler and the service in front of its worker pool.
pub struct Sut {
    /// Grammar, plan and front end.
    pub compiler: Compiler,
    /// The service queue (owns the worker pool).
    pub queue: ServiceQueue<PVal>,
}

/// What the client keeps of one completed request.
pub struct Done {
    /// The root `code` attribute.
    pub asm: String,
    /// Whether the root `errs` attribute was empty.
    pub errs_empty: bool,
    /// The service's milestones for the request.
    pub times: RequestTimes,
    /// `TreeOutput::elapsed`: the pool's evaluation time.
    pub eval: Duration,
    /// Regions the tree was decomposed into.
    pub regions: usize,
    /// Evaluation statistics over all regions.
    pub stats: EvalStats,
    /// When the client took the output from the service.
    pub taken: Instant,
}

/// Records inside the `service.drain` span `drain` the intervals the
/// service and the pool reported for the requests it completed: each
/// one's wait for dispatch (it includes the synchronous decomposition)
/// and its pool evaluation time, placed from dispatch on. Overlapping
/// intervals of pipelined requests count once. What else the drain
/// took, the program does not account for.
fn report_milestones<'a>(tr: &mut Tracer, drain: usize, done: impl Iterator<Item = &'a Done>) {
    let mut intervals = Vec::new();
    for d in done {
        let t = &d.times;
        if let (Some(dispatched), Some(assembled)) = (t.dispatched, t.assembled) {
            intervals.push(("service.dispatch_wait", t.enqueued, dispatched));
            let eval_end = (dispatched + d.eval).min(assembled);
            intervals.push(("pool.eval", dispatched, eval_end));
        }
    }
    intervals.sort_by_key(|&(_, start, _)| start);
    for (name, start, end) in intervals {
        tr.reported(drain, name, start, end);
    }
}

/// A request that did not complete.
pub enum Failure {
    /// Parse or tree-build error on the client thread.
    FrontEnd(String),
    /// The waiting room was full.
    Shed,
    /// The service gave up on it.
    Service(String),
}

impl std::fmt::Debug for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::FrontEnd(e) => write!(f, "front end: {e}"),
            Failure::Shed => write!(f, "shed"),
            Failure::Service(e) => write!(f, "service: {e}"),
        }
    }
}

impl Sut {
    /// Builds the compiler and spins up the service's pool.
    pub fn new(workers: usize) -> Sut {
        let compiler = Compiler::new();
        let plan = CompilationPlan::from_plan(compiler.evals.plan(), driver_config(workers));
        let queue = ServiceQueue::new(&plan, ServiceConfig::fifo(CAPACITY));
        Sut { compiler, queue }
    }

    /// Client front end: parse, build the tree, drop the AST, offer.
    /// Returns the service's request id and the tree, which the client
    /// holds until the request completes.
    pub fn submit(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        src: &str,
    ) -> Result<(u64, Arc<ParseTree<PVal>>), Failure> {
        let ast = tr
            .span("parser.parse", req, |_| parser::parse(src))
            .map_err(|e| Failure::FrontEnd(e.to_string()))?;
        tr.count_last(src.len() as u64);
        let tree = tr
            .span("agtree.build_tree", req, |_| {
                agtree::build_tree(&self.compiler.pg, &ast)
            })
            .map_err(|e| Failure::FrontEnd(e.to_string()))?;
        tr.count_last(tree.len() as u64);
        tr.span("teardown.ast", req, |_| drop(ast));
        match tr.span("service.offer", req, |_| self.queue.offer(&tree, 0)) {
            Admission::Admitted { id } => Ok((id, tree)),
            Admission::Shed | Admission::DeadlineShed => Err(Failure::Shed),
        }
    }

    /// Client back end for a completed request: extract the asm, drop
    /// the output, drop the tree.
    pub fn finish(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        out: ServiceOutput<PVal>,
        tree: Arc<ParseTree<PVal>>,
    ) -> Done {
        let taken = Instant::now();
        let (s_code, s_errs) = (self.compiler.pg.s_code, self.compiler.pg.s_errs);
        let done = tr.span("output.extract", req, |_| {
            let asm = out
                .output
                .root_value(s_code)
                .map(|v| v.code().to_string())
                .unwrap_or_default();
            Done {
                asm,
                errs_empty: out
                    .output
                    .root_value(s_errs)
                    .is_some_and(|v| v.as_errs().is_empty()),
                times: *self
                    .queue
                    .times(out.id)
                    .expect("completed request has times"),
                eval: out.output.elapsed,
                regions: out.output.regions,
                stats: out.output.stats,
                taken,
            }
        });
        tr.span("teardown.output", req, |_| drop(out));
        tr.span("teardown.tree", req, |_| drop(tree));
        done
    }

    /// One closed-loop request, source texts to asm strings, under a
    /// `request` span: every program is submitted, the service drains,
    /// and each output is taken and finished. One result per program,
    /// in order.
    pub fn closed_request(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        srcs: &[String],
    ) -> Vec<Result<Done, Failure>> {
        tr.span("request", req, |tr| {
            let sent: Vec<_> = srcs.iter().map(|src| self.submit(tr, req, src)).collect();
            tr.span("service.drain", req, |_| self.queue.drain());
            let drain = tr.last_closed();
            let mut outs = HashMap::new();
            while let Some(out) = tr.span("service.take_completed", req, |_| {
                self.queue.take_completed()
            }) {
                outs.insert(out.id, out);
            }
            let done: Vec<_> = sent
                .into_iter()
                .map(|s| {
                    let (id, tree) = s?;
                    match outs.remove(&id) {
                        Some(out) => Ok(self.finish(tr, req, out, tree)),
                        None => Err(self.failure()),
                    }
                })
                .collect();
            if let Some(drain) = drain {
                report_milestones(tr, drain, done.iter().flatten());
            }
            done
        })
    }

    /// The service's most recent give-up, as a failure.
    pub fn failure(&mut self) -> Failure {
        match self.queue.take_failed() {
            Some(f) => Failure::Service(format!("{:?}", f.reason)),
            None => Failure::Service("request neither completed nor failed".into()),
        }
    }
}
