//! What a run prints: metrics with unit and label, the stage table, the
//! traced-replay table, the purpose checks and the result line.

use crate::load::Sample;
use crate::stats::{mean, median};
use crate::trace::TraceOut;
use crate::workload::{Device, ReqType, Workload};

/// A metric with its unit and whether it is `measured`, `modelled`
/// (simulated device time) or `computed` (derived from sizes).
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub label: &'static str,
    pub note: String,
}

pub fn m(
    name: &str,
    value: f64,
    unit: &'static str,
    label: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        label,
        note: note.into(),
    }
}

pub fn fmt_list(v: &[f64], prec: usize) -> String {
    v.iter()
        .map(|x| format!("{x:.prec$}"))
        .collect::<Vec<_>>()
        .join(", ")
}

pub fn print_metric(x: &Metric) {
    println!(
        "  {:<34} {:>14.6} {:<8} [{}]  {}",
        x.name, x.value, x.unit, x.label, x.note
    );
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Stage medians of one group of replies beside their end-to-end median.
pub struct StageRow {
    pub name: String,
    pub n: usize,
    pub lat: f64,
    pub stages: String,
    pub sum: f64,
}

/// One row per request type (per device for `cold_mix`'s hundred size
/// bindings). CPU replies split into edge, queue and exec; a GPU
/// reply's exec_ms is simulated, so its wall time after the edge stays
/// one `device wall` stage.
pub fn stage_rows(ok: &[&Sample], types: &[ReqType]) -> Vec<StageRow> {
    let groups: Vec<(String, Vec<&Sample>)> = if types.len() > 6 {
        [Device::Cpu, Device::Gpu]
            .into_iter()
            .map(|d| {
                let v = ok
                    .iter()
                    .copied()
                    .filter(|s| types[s.ty].device == d)
                    .collect();
                (format!("all {} requests", d.wire()), v)
            })
            .collect()
    } else {
        types
            .iter()
            .enumerate()
            .map(|(i, t)| {
                (
                    t.to_string(),
                    ok.iter().copied().filter(|s| s.ty == i).collect(),
                )
            })
            .collect()
    };
    groups
        .into_iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(name, v)| {
            let p50 =
                |f: &dyn Fn(&Sample) -> f64| median(&v.iter().map(|s| f(s)).collect::<Vec<_>>());
            let edge = p50(&|s| s.lat_ms - s.total_ms);
            let (stages, sum) = if types[v[0].ty].device == Device::Cpu {
                let (q, x) = (p50(&|s| s.total_ms - s.exec_ms), p50(&|s| s.exec_ms));
                (
                    format!("edge {edge:.4} + queue {q:.4} + exec {x:.4}"),
                    edge + q + x,
                )
            } else {
                let dev = p50(&|s| s.total_ms);
                (format!("edge {edge:.4} + device wall {dev:.4}"), edge + dev)
            };
            StageRow {
                n: v.len(),
                lat: p50(&|s| s.lat_ms),
                name,
                stages,
                sum,
            }
        })
        .collect()
}

pub fn print_stages(rows: &[StageRow]) {
    println!("-- stage medians (ms; edge = latency - total_ms, queue = total_ms - exec_ms) --");
    for r in rows {
        println!(
            "  {:<44} n={:<6} {} = {:.4} vs end-to-end p50 {:.4} (unexplained {:+.4})",
            r.name,
            r.n,
            r.stages,
            r.sum,
            r.lat,
            r.lat - r.sum
        );
    }
}

/// The traced per-layer metrics every workload reports.
pub fn traced_metrics(tr: &TraceOut, served: f64) -> Vec<Metric> {
    let p50_of = |span: &str, what: &str| format!("traced {what}, p50 of {} calls", tr.calls(span));
    let (overhead, on_ms, off_ms) = tr.overhead();
    vec![
        m("server.inputs_ms", tr.p50("server.inputs"), "ms", "measured", p50_of("server.inputs", "deterministic_inputs")),
        m("core.input_clone_ms", tr.per_request("core.input_clone"), "ms", "measured", format!("traced Vec<Buffer>::clone, mean per traced request ({} calls)", tr.calls("core.input_clone"))),
        m("directive.compile_us", tr.p50("directive.compile") * 1e3, "us", "measured", p50_of("directive.compile", "compile_any")),
        m("lowering.plan_us", tr.p50("lowering.plan") * 1e3, "us", "measured", p50_of("lowering.plan", "mdh_default_schedule + ExecutionPlan::build")),
        m("runtime.submit_wait_us", tr.p50("runtime.submit_wait") * 1e3, "us", "measured", p50_of("runtime.submit_wait", "Runtime::submit -> Handle::wait")),
        m("runtime.stats_ms", tr.p50("runtime.stats"), "ms", "measured", format!("traced Runtime::stats() after {} in-process requests (the first measured server served {served})", tr.runtime_served)),
        m("backend.kernel_ms", tr.per_request("backend.run_planned"), "ms", "measured", format!("traced CpuExecutor::run_planned, mean per traced request ({} calls)", tr.calls("backend.run_planned"))),
        m("backend.path_for_us", tr.p50("backend.path_for") * 1e3, "us", "measured", p50_of("backend.path_for", "CpuExecutor::path_for")),
        m("bench.trace_overhead", overhead, "ratio", "measured", format!("per-type p50 traced {on_ms:.4} ms vs untraced {off_ms:.4} ms per replayed request")),
    ]
}

/// Traced figures only some workloads produce: printed, not in the
/// result line.
pub fn traced_extras(tr: &TraceOut) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, span) in [
        ("ad.grad_ms", "ad.grad"),
        ("backend.scatter_ms", "backend.scatter"),
        ("dist.host_ms", "dist.host"),
        ("gpu.host_ms", "gpu.host"),
        ("tune.search_ms", "tune.search"),
    ] {
        if tr.calls(span) > 0 {
            out.push(m(
                name,
                tr.p50(span),
                "ms",
                "measured",
                format!("traced, p50 of {} calls", tr.calls(span)),
            ));
        }
    }
    for name in [
        "dist.modelled_hot_ms",
        "dist.modelled_h2d_ms",
        "gpu.modelled_ms",
    ] {
        if let Some(v) = tr.modelled_mean(name) {
            out.push(m(
                &format!("{name}(traced)"),
                v,
                "ms",
                "modelled",
                "mean over traced launches; never added to wall time",
            ));
        }
    }
    if tr.mem_hits + tr.mem_misses > 0 {
        let base = tr.mem_hits + tr.mem_misses;
        out.push(m(
            "mem.hit_ratio(traced)",
            tr.mem_hits as f64 / base as f64,
            "ratio",
            "measured",
            format!("of {base} lookups in the traced pool"),
        ));
    }
    for (front, v) in &tr.compile_by_front {
        out.push(m(
            &format!("directive.compile_us[{front}]"),
            median(v) * 1e3,
            "us",
            "measured",
            format!("p50 of {} calls", v.len()),
        ));
    }
    for (prog, threads, gf, fpb) in &tr.kernel_rates {
        out.push(m(
            &format!("backend.gflops[{prog}, {threads}t]"),
            *gf,
            "GFLOP/s",
            "computed",
            "computed flops over measured run_planned time",
        ));
        if *threads == 1 {
            out.push(m(
                &format!("backend.flops_per_byte[{prog}]"),
                *fpb,
                "flop/B",
                "computed",
                "flops over fp32 input+output bytes",
            ));
        }
    }
    out
}

pub fn print_trace_table(tr: &TraceOut) {
    if !tr.adjoint_paths.is_empty() {
        println!(
            "adjoint parts run on CPU path(s): {}",
            tr.adjoint_paths.join(", ")
        );
    }
    let roots = tr.traced_roots();
    let root_mean = mean(&roots);
    println!(
        "-- traced replay: self time per layer ({} traced requests, root p50 {:.4} ms, mean {:.4} ms) --",
        tr.traced_requests,
        median(&roots),
        root_mean
    );
    println!(
        "  {:<22} {:>8} {:>12} {:>14} {:>8}",
        "layer", "calls", "p50/call ms", "ms/request", "share"
    );
    let mut in_request = 0.0;
    for (name, l) in &tr.layers {
        let (per_req, share) = if TraceOut::is_probe(name) {
            ("-".to_string(), "probe".to_string())
        } else {
            let v = tr.per_request(name);
            in_request += v;
            (format!("{v:.5}"), format!("{:.1}%", 100.0 * v / root_mean))
        };
        println!(
            "  {:<22} {:>8} {:>12.5} {:>14} {:>8}",
            name,
            l.calls,
            median(&l.self_ms),
            per_req,
            share
        );
    }
    println!(
        "  sum of per-request layer self times {:.4} ms vs traced request mean {:.4} ms (unexplained {:+.4} ms)",
        in_request,
        root_mean,
        root_mean - in_request
    );
}

/// Whether the layer shares match the workload's stated purpose.
#[allow(clippy::too_many_arguments)]
pub fn print_purpose(
    w: Workload,
    tr: &TraceOut,
    edge: &[f64],
    queue: &[f64],
    exec: &[f64],
    ok: &[&Sample],
    types: &[ReqType],
    mem_base: f64,
) {
    let holds = |b: bool| if b { "holds" } else { "DOES NOT HOLD" };
    match w {
        Workload::DotPipe => {
            let (e, q, x) = (median(edge), median(queue), median(exec));
            println!(
                "purpose: edge + queue ({:.4} ms) outweigh backend.exec_ms ({x:.4} ms): {}",
                e + q,
                holds(e + q > x)
            );
        }
        Workload::DenseKernels => {
            // the server clones inputs before it submits, so the edge
            // (latency - total_ms) contains the clone
            let clone = tr.per_request("core.input_clone");
            let (e, q, x) = (mean(edge), mean(queue), mean(exec));
            println!(
                "purpose: kernel + input clone ({:.4} ms) outweigh edge - clone + queue ({:.4} ms) [means per request]: {}",
                x + clone,
                e - clone + q,
                holds(x + clone > e - clone + q)
            );
        }
        Workload::ColdMix => {
            let (c, l, s) = (
                tr.calls("directive.compile"),
                tr.calls("lowering.plan"),
                tr.calls("runtime.stats"),
            );
            println!("purpose: compile ({c} calls), lowering ({l} calls) and stats ({s} calls) appear: {}", holds(c > 0 && l > 0 && s > 0));
        }
        Workload::GradDevices => {
            let (g, dh) = (tr.calls("ad.grad"), tr.calls("dist.host"));
            let grads = ok.iter().filter(|s| types[s.ty].grad).count();
            println!(
                "purpose: ad ({g} traced, {grads} served), dist ({dh} traced) and mem ({mem_base} residency lookups served) appear: {}",
                holds(g > 0 && dh > 0 && mem_base > 0.0)
            );
        }
    }
}
