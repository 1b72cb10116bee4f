//! The traced run: replays a workload's requests in process through the
//! public entry points of each layer, in the order the server calls
//! them, with a span around every call. Spans are kept in memory and
//! written out when the replay ends; nothing inside the program is
//! instrumented.

use crate::oracle::{self, Expected};
use crate::server::runtime_config;
use crate::stats::{mean, median};
use crate::workload::{Device, ReqType, Workload};
use mdh_backend::cpu::CpuExecutor;
use mdh_backend::gpu::GpuSim;
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_dist::{DevicePool, DistExecutor, FaultPlan, HealPolicy, RetryPolicy};
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::heuristics::mdh_default_schedule;
use mdh_lowering::plan::ExecutionPlan;
use mdh_mem::MemPool;
use mdh_runtime::server::{checksum, compile_any, deterministic_inputs};
use mdh_runtime::{CompiledPlan, PlanCache, PlanKey, PlanSource, Request, Runtime};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request the span belongs to (`u64::MAX` for per-run probes).
    pub req: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// When false only root spans are recorded: the untraced half of
    /// the replay, which prices the tracing itself.
    detail: bool,
}

pub const PROBE: u64 = u64::MAX;

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            detail: true,
        }
    }

    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.detail && !self.stack.is_empty() {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Duration of each span minus the part its children cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns - c) as f64 / 1e6)
            .collect()
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tname\treq\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let req = if s.req == PROBE {
                "-".into()
            } else {
                s.req.to_string()
            };
            let parent = s.parent.map_or("-".into(), |p| p.to_string());
            writeln!(
                f,
                "{i}\t{}\t{req}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// Per-layer self time over the traced requests.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub calls: usize,
    /// Self time of each call, ms.
    pub self_ms: Vec<f64>,
}

pub struct TraceOut {
    pub layers: BTreeMap<&'static str, Layer>,
    /// Root span per request: (request type, traced half?, ms).
    pub roots: Vec<(usize, bool, f64)>,
    /// Requests whose root span was traced.
    pub traced_requests: usize,
    /// Simulated (modelled) times reported by the device layers.
    pub modelled: BTreeMap<&'static str, Vec<f64>>,
    /// `mdh-mem` residency hits and misses seen by the traced pool.
    pub mem_hits: u64,
    pub mem_misses: u64,
    /// Requests served in process for `runtime.*` and the count
    /// `Runtime::stats()` was priced at.
    pub runtime_served: usize,
    /// Computed per-program kernel figures (`dense_kernels`):
    /// (program, threads, GFLOP/s, flops per byte).
    pub kernel_rates: Vec<(String, usize, f64, f64)>,
    pub compile_by_front: BTreeMap<&'static str, Vec<f64>>,
    pub adjoint_paths: Vec<String>,
    pub mismatches: Vec<String>,
}

/// What the server's front-end memo does: keyed by source and sorted
/// bindings, cleared whole when it reaches its cap of 64.
const MEMO_CAP: usize = 64;
const PLAN_CACHE_CAP: usize = 64;

type Compiled = Arc<(DslProgram, Vec<Buffer>)>;

struct Layers {
    exec: CpuExecutor,
    sim: GpuSim,
    dist: Option<DistExecutor>,
    plans: PlanCache,
    memo: HashMap<ReqTypeKey, Compiled>,
    /// Simulated times the device layers report, by metric name.
    modelled: BTreeMap<&'static str, Vec<f64>>,
    /// `mdh-mem` residency hits and misses of the device pool.
    mem: (u64, u64),
}

type ReqTypeKey = (&'static str, Vec<(&'static str, i64)>);

fn device_kind(d: Device) -> DeviceKind {
    match d {
        Device::Cpu => DeviceKind::Cpu,
        Device::Gpu => DeviceKind::Gpu,
    }
}

impl Layers {
    fn new(w: Workload) -> Layers {
        let cfg = runtime_config(w);
        let exec = CpuExecutor::new(cfg.exec_threads).expect("thread pool");
        let sim = GpuSim::a100_with_pool(exec.pool(), cfg.exec_threads);
        let dist = (cfg.devices > 1).then(|| {
            DistExecutor::with_faults_policy_and_pool(
                DevicePool::gpus(cfg.devices),
                FaultPlan::none(),
                RetryPolicy::default(),
                exec.pool(),
            )
            .expect("device pool")
            .with_mem(Arc::new(MemPool::new(cfg.devices, cfg.mem_budget_bytes)))
            .with_healing(HealPolicy {
                hedge_ms: cfg.hedge_ms,
                probe_every: cfg.probe_every,
                reinstate_after: cfg.reinstate_after,
            })
        });
        Layers {
            exec,
            sim,
            dist,
            plans: PlanCache::new(PLAN_CACHE_CAP),
            memo: HashMap::new(),
            modelled: BTreeMap::new(),
            mem: (0, 0),
        }
    }

    /// Plan lookup, lowering on a miss, then the device layer.
    fn execute(
        &mut self,
        t: &mut Tracer,
        req: u64,
        prog: &DslProgram,
        device: Device,
        inputs: &[Buffer],
        cpu_span: &'static str,
    ) -> Vec<Buffer> {
        let kind = device_kind(device);
        let key = PlanKey::of(prog, kind);
        let plans = &mut self.plans;
        let units = match kind {
            DeviceKind::Cpu => self.exec.threads,
            DeviceKind::Gpu => self.sim.params.num_sms * 32,
        };
        let plan = t.span("runtime.plan_lookup", req, |t| match plans.get(&key) {
            Some(p) => p,
            None => {
                let compiled = t.span("lowering.plan", req, |_| {
                    let schedule = mdh_default_schedule(prog, kind, units);
                    let plan = ExecutionPlan::build(prog, &schedule).expect("plan builds");
                    CompiledPlan {
                        prog: prog.clone(),
                        schedule,
                        plan,
                        source: PlanSource::Heuristic,
                        cost: None,
                        epoch: 0,
                    }
                });
                plans.insert(key.clone(), compiled)
            }
        });
        match device {
            Device::Cpu => t.span(cpu_span, req, |_| {
                self.exec
                    .run_planned(prog, &plan.schedule, &plan.plan, inputs)
                    .expect("cpu run")
            }),
            Device::Gpu => match &self.dist {
                Some(dist) => {
                    let (outs, report) = t.span("dist.host", req, |_| {
                        dist.run(prog, inputs).expect("dist run")
                    });
                    self.modelled
                        .entry("dist.modelled_hot_ms")
                        .or_default()
                        .push(report.hot_ms);
                    self.modelled
                        .entry("dist.modelled_h2d_ms")
                        .or_default()
                        .push(report.h2d_ms);
                    if let Some(m) = &report.mem {
                        self.mem.0 += m.hits;
                        self.mem.1 += m.misses;
                    }
                    outs
                }
                None => {
                    let (outs, report) = t.span("gpu.host", req, |_| {
                        self.sim.run(prog, &plan.schedule, inputs).expect("gpu run")
                    });
                    self.modelled
                        .entry("gpu.modelled_ms")
                        .or_default()
                        .push(report.time_ms);
                    outs
                }
            },
        }
    }
}

fn reply_token(outs: &[Buffer]) -> String {
    let sums: Vec<String> = outs
        .iter()
        .map(|b| format!("{}={:.6}", b.name, checksum(b)))
        .collect();
    format!("checksum={}", sums.join(","))
}

/// Replay `seq` (indices into `types`) through the layers, alternating
/// traced and untraced requests; then serve it through an in-process
/// [`Runtime`], and price one tuning search and (`dense_kernels`) the
/// kernels at one and two threads.
pub fn replay(
    w: Workload,
    types: &[ReqType],
    exp: &[Expected],
    seq: &[usize],
    spans_out: &Path,
) -> TraceOut {
    let mut out = TraceOut {
        layers: BTreeMap::new(),
        roots: Vec::new(),
        traced_requests: 0,
        modelled: BTreeMap::new(),
        mem_hits: 0,
        mem_misses: 0,
        runtime_served: 0,
        kernel_rates: Vec::new(),
        compile_by_front: BTreeMap::new(),
        adjoint_paths: Vec::new(),
        mismatches: Vec::new(),
    };
    let mut t = Tracer::new();
    let mut layers = Layers::new(w);
    let mut roots = Vec::new();
    for (i, &ty) in seq.iter().enumerate() {
        let rt = &types[ty];
        let req = i as u64;
        t.detail = i % 2 == 0;
        roots.push((ty, t.spans.len(), t.detail));
        let (outs, grads) = t.span("request", req, |t| {
            let key: ReqTypeKey = (rt.kernel.source(), rt.bindings.clone());
            let compiled = match layers.memo.get(&key) {
                Some(c) => Arc::clone(c),
                None => {
                    let prog = t.span("directive.compile", req, |_| {
                        compile_any(rt.kernel.source(), &oracle::env(rt)).expect("compiles")
                    });
                    let inputs = t.span("server.inputs", req, |_| {
                        deterministic_inputs(&prog).expect("inputs")
                    });
                    if layers.memo.len() >= MEMO_CAP {
                        layers.memo.clear();
                    }
                    let c = Arc::new((prog, inputs));
                    layers.memo.insert(key, Arc::clone(&c));
                    c
                }
            };
            let prog = &compiled.0;
            let inputs = t.span("core.input_clone", req, |_| compiled.1.clone());
            if !rt.grad {
                let outs = layers.execute(t, req, prog, rt.device, &inputs, "backend.run_planned");
                return (t.span("server.reply", req, |_| reply_token(&outs)), None);
            }
            let (gp, parts) = t.span("ad.grad", req, |_| {
                let gp = mdh_ad::grad_all(prog).expect("gradient program");
                let shape = prog.output_shapes().expect("shapes").remove(0);
                let decl = &prog.out_view.buffers[0];
                let mut cot = Buffer::zeros(
                    format!("{}_bar", decl.name),
                    decl.ty.clone(),
                    mdh_core::shape::Shape::new(shape),
                );
                cot.fill_with(|_| 1.0);
                let parts: Vec<Vec<Buffer>> = gp
                    .parts
                    .iter()
                    .map(|p| mdh_ad::part_inputs(p, &cot, &inputs))
                    .collect();
                (gp, parts)
            });
            let fwd = layers.execute(t, req, prog, rt.device, &inputs, "backend.run_planned");
            let mut accs: Vec<(usize, Buffer)> = gp
                .wrt
                .iter()
                .map(|&wi| (wi, mdh_ad::zero_grad(&gp.forward, wi).expect("zero grad")))
                .collect();
            for (part, pin) in gp.parts.iter().zip(&parts) {
                if out.adjoint_paths.len() < gp.parts.len() {
                    out.adjoint_paths
                        .push(format!("{:?}", layers.exec.path_for(&part.program)));
                }
                let pout = layers.execute(t, req, &part.program, rt.device, pin, "backend.scatter");
                let acc = accs
                    .iter_mut()
                    .find(|(wi, _)| *wi == part.wrt)
                    .expect("wrt");
                t.span("ad.accumulate", req, |_| {
                    mdh_ad::accumulate(&mut acc.1, &pout[0])
                })
                .expect("accumulate");
            }
            let grads: Vec<Buffer> = accs.into_iter().map(|(_, b)| b).collect();
            t.span("server.reply", req, |_| {
                (
                    reply_token(&fwd),
                    Some(reply_token(&grads).replacen("checksum=", "grad_checksum=", 1)),
                )
            })
        });
        if !exp[ty].accepts(&outs) || grads != exp[ty].grad_checksum {
            out.mismatches.push(format!(
                "traced request {i} {rt}: expected {} {:?} got {outs} {grads:?}",
                exp[ty].checksum, exp[ty].grad_checksum
            ));
        }
    }
    t.detail = true;
    out.modelled = std::mem::take(&mut layers.modelled);
    (out.mem_hits, out.mem_misses) = layers.mem;

    // path selection, priced outside the request spans (the server
    // calls it inside run_planned)
    for &ty in seq.iter().take(64) {
        let rt = &types[ty];
        if rt.device == Device::Cpu {
            let key: ReqTypeKey = (rt.kernel.source(), rt.bindings.clone());
            if let Some(c) = layers.memo.get(&key).cloned() {
                t.span("backend.path_for", PROBE, |_| layers.exec.path_for(&c.0));
            }
        }
    }

    // the runtime, in process: submit -> wait per request, then stats()
    {
        let rt_inst = Runtime::new(runtime_config(w)).expect("runtime");
        let mut compiled: HashMap<usize, (DslProgram, Vec<Buffer>)> = HashMap::new();
        for (i, &ty) in seq.iter().enumerate() {
            let rt = &types[ty];
            let (prog, inputs) = compiled.entry(ty).or_insert_with(|| {
                let p = oracle::compile(rt);
                let inp = deterministic_inputs(&p).expect("inputs");
                (p, inp)
            });
            let req = Request::new(prog.clone(), device_kind(rt.device), inputs.clone());
            let ok = t.span("runtime.submit_wait", PROBE, |_| {
                if rt.grad {
                    rt_inst
                        .submit_grad(req, None, None)
                        .and_then(|h| h.wait())
                        .is_ok()
                } else {
                    rt_inst.submit(req).wait().is_ok()
                }
            });
            if !ok {
                out.mismatches
                    .push(format!("in-process runtime failed request {i} {rt}"));
            }
        }
        out.runtime_served = seq.len();
        t.span("runtime.stats", PROBE, |_| rt_inst.stats());
    }

    // one background search at the server's budget, on the first CPU
    // request type
    if w.tuning() {
        if let Some(ty) = seq
            .iter()
            .copied()
            .find(|&ty| types[ty].device == Device::Cpu)
        {
            let prog = oracle::compile(&types[ty]);
            let inputs = deterministic_inputs(&prog).expect("inputs");
            let budget = runtime_config(w).tune.budget_evals;
            t.span("tune.search", PROBE, |_| {
                mdh_tuner::tune_cpu(
                    &layers.exec,
                    &prog,
                    &inputs,
                    mdh_tuner::Technique::HillClimb,
                    mdh_tuner::Budget::evals(budget),
                )
            });
        }
    }

    // computed kernel rates at one and two threads
    if w == Workload::DenseKernels {
        for rt in types {
            let prog = oracle::compile(rt);
            let inputs = deterministic_inputs(&prog).expect("inputs");
            for threads in [1usize, 2] {
                let exec = CpuExecutor::new(threads).expect("thread pool");
                let schedule = mdh_default_schedule(&prog, DeviceKind::Cpu, threads);
                let plan = ExecutionPlan::build(&prog, &schedule).expect("plan");
                let mut ms = Vec::new();
                for _ in 0..3 {
                    let t0 = Instant::now();
                    std::hint::black_box(
                        exec.run_planned(&prog, &schedule, &plan, &inputs)
                            .expect("run"),
                    );
                    ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                let gflops = rt.flops() / (median(&ms) * 1e6);
                out.kernel_rates
                    .push((rt.to_string(), threads, gflops, rt.flops() / rt.bytes()));
            }
        }
    }

    let self_ms = t.self_ms();
    for (i, s) in t.spans.iter().enumerate() {
        if s.name == "request" {
            continue;
        }
        let l = out.layers.entry(s.name).or_default();
        l.calls += 1;
        l.self_ms.push(self_ms[i]);
        if s.name == "directive.compile" {
            let front = types[seq[s.req as usize]].kernel.front_end();
            out.compile_by_front
                .entry(front)
                .or_default()
                .push(self_ms[i]);
        }
    }
    for (ty, idx, traced) in roots {
        let s = &t.spans[idx];
        out.roots
            .push((ty, traced, (s.end_ns - s.start_ns) as f64 / 1e6));
        out.traced_requests += traced as usize;
    }
    if let Err(e) = t.write(spans_out) {
        eprintln!(
            "perfbench: cannot write spans to {}: {e}",
            spans_out.display()
        );
    }
    out
}

impl TraceOut {
    /// Spans priced outside the request spans.
    pub fn is_probe(name: &str) -> bool {
        matches!(
            name,
            "backend.path_for" | "runtime.submit_wait" | "runtime.stats" | "tune.search"
        )
    }

    /// Median self time per call of `layer`, ms (0 when never called).
    pub fn p50(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |l| median(&l.self_ms))
    }

    /// Mean self time of `layer` per traced request, ms.
    pub fn per_request(&self, layer: &str) -> f64 {
        let total: f64 = self
            .layers
            .get(layer)
            .map_or(0.0, |l| l.self_ms.iter().sum());
        total / self.traced_requests.max(1) as f64
    }

    pub fn calls(&self, layer: &str) -> usize {
        self.layers.get(layer).map_or(0, |l| l.calls)
    }

    /// Root span durations of the traced half.
    pub fn traced_roots(&self) -> Vec<f64> {
        self.roots.iter().filter(|r| r.1).map(|r| r.2).collect()
    }

    /// Tracing cost: per request type, traced minus untraced median root
    /// span, weighted by the type's share of the requests, over the same
    /// weighting of untraced medians. Comparing within a type keeps a
    /// mix of cheap and costly requests from passing for overhead.
    /// Returns (ratio, traced ms, untraced ms).
    pub fn overhead(&self) -> (f64, f64, f64) {
        let (mut traced, mut untraced) = (0.0, 0.0);
        let types: std::collections::BTreeSet<usize> = self.roots.iter().map(|r| r.0).collect();
        for ty in types {
            let of = |half: bool| -> Vec<f64> {
                self.roots
                    .iter()
                    .filter(|r| r.0 == ty && r.1 == half)
                    .map(|r| r.2)
                    .collect()
            };
            let (on, off) = (of(true), of(false));
            if on.is_empty() || off.is_empty() {
                continue;
            }
            let n = (on.len() + off.len()) as f64;
            traced += n * median(&on);
            untraced += n * median(&off);
        }
        let total = self.roots.len().max(1) as f64;
        (
            (traced - untraced) / untraced,
            traced / total,
            untraced / total,
        )
    }

    pub fn modelled_mean(&self, name: &str) -> Option<f64> {
        self.modelled.get(name).map(|v| mean(v))
    }
}
