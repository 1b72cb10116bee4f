//! One benchmark run: reference checksums, repeated set-up, the timed
//! phases against fresh servers, counters, and (with `--trace 1`) the
//! in-process traced replay. Prints the report and the result line.

use crate::client::stats_json;
use crate::load::{self, PhaseOut, Rung, Sample};
use crate::oracle::{self, expected, Expected};
use crate::report::{self, m, Metric};
use crate::server::Server;
use crate::stats::{median, percentile, tail};
use crate::trace;
use crate::workload::{self, Device, Kernel, ReqType, Rng, Workload};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Servers started per run to time set-up (measured ones included): at
/// least `SETUP_MIN`, and more, up to `SETUP_MAX`, while the set-ups
/// have taken less than `SETUP_BUDGET_S` (a `dot_pipe` set-up takes a
/// few ms, so its median then spans a second of the host's state).
const SETUP_MIN: usize = 15;
const SETUP_MAX: usize = 64;
const SETUP_BUDGET_S: f64 = 1.5;
/// `cold_mix` measures this many fresh servers and reports the median:
/// its requests vary widely in cost, so one server's figures spread.
const COLD_REPS: usize = 3;
/// `cold_mix` one-shot clients running at once.
const COLD_CLIENTS: usize = 2;

/// `dot_pipe` closed loop: frames each of the two connections keeps in
/// flight.
const DOT_WINDOW: usize = 8;
/// Share of `--seconds` the closed loop gets; the ladder has the rest.
const DOT_CLOSED_SHARE: f64 = 0.75;
/// `dot_pipe` open-loop ladder (requests/s) and its latency limit on
/// the tail percentile. Fixed once; the ladder stops at the first rate
/// that misses the limit or ends with a backlog above it.
const DOT_LADDER: [f64; 12] = [
    2000.0, 4000.0, 6000.0, 8000.0, 10000.0, 12000.0, 14000.0, 16000.0, 18000.0, 20000.0, 22000.0,
    24000.0,
];
const DOT_SLO_MS: f64 = 2.0;

/// Requests the traced replay runs (`cold_mix` replays the sequence of
/// its first measured server).
const TRACE_DOT: usize = 20_000;
const TRACE_DENSE: usize = 24;
const TRACE_GRAD: usize = 120;

/// Windows a time-bounded phase is cut into for the throughput median.
const WINDOWS: usize = 5;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub run_dir: PathBuf,
}

/// The request types of a workload, the warm subset, and the type
/// sequence each connection (time-bounded) or measured server
/// (`cold_mix`, count-bounded) sends.
struct Plan {
    types: Vec<ReqType>,
    warm: Vec<usize>,
    seqs: Vec<Vec<usize>>,
}

fn plan(a: &Args) -> Plan {
    match a.workload {
        Workload::DotPipe => Plan {
            types: vec![workload::dot()],
            warm: vec![0],
            seqs: vec![vec![0], vec![0]],
        },
        Workload::DenseKernels => {
            let first = (a.seed % 3) as usize;
            Plan {
                types: workload::dense_programs(),
                warm: vec![0, 1, 2],
                seqs: vec![(0..3).map(|i| (first + i) % 3).collect()],
            }
        }
        Workload::GradDevices => Plan {
            types: workload::grad_programs(),
            warm: vec![0, 1, 2],
            seqs: vec![workload::grad_sequence(a.seed, 10_000)],
        },
        Workload::ColdMix => {
            let count = workload::COLD_PER_SECOND * a.seconds as usize / COLD_REPS;
            let reqs: Vec<Vec<ReqType>> = (0..COLD_REPS as u64)
                .map(|r| workload::cold_sequence(a.seed, r, count))
                .collect();
            let mut types: Vec<ReqType> = reqs.iter().flatten().cloned().collect();
            types.sort();
            types.dedup();
            let seqs = reqs
                .iter()
                .map(|seq| {
                    seq.iter()
                        .map(|r| types.binary_search(r).expect("type listed"))
                        .collect()
                })
                .collect();
            Plan {
                types,
                warm: Vec::new(),
                seqs,
            }
        }
    }
}

/// One measured server: its timed phase, the ladder (`dot_pipe`), its
/// counters before and after, and its peak memory.
struct Rep {
    main: PhaseOut,
    ladder: PhaseOut,
    rungs: Vec<Rung>,
    before: BTreeMap<String, f64>,
    after: BTreeMap<String, f64>,
    rss_mb: f64,
}

impl Rep {
    fn delta(&self, k: &str) -> f64 {
        self.after.get(k).copied().unwrap_or(0.0) - self.before.get(k).copied().unwrap_or(0.0)
    }

    fn ok(&self) -> Vec<&Sample> {
        self.main.samples.iter().filter(|s| s.ok).collect()
    }
}

/// Start a server and warm it: each warm request type answered once
/// and, where tuning is on, background tuning caught up. Returns the
/// server, the set-up time and any wrong warm-up checksums.
fn start(
    sock: &Path,
    log: &Path,
    w: Workload,
    p: &Plan,
    exp: &[Expected],
) -> io::Result<(Server, f64, Vec<String>)> {
    let t = Instant::now();
    let srv = Server::start(sock, w, log)?;
    let wrong = load::warm(sock, &p.types, exp, &p.warm)?;
    if w.tuning() {
        load::wait_tunes(sock, Duration::from_secs(60))?;
    }
    Ok((srv, t.elapsed().as_secs_f64(), wrong))
}

fn measure(
    a: &Args,
    sock: &Path,
    p: &Plan,
    exp: &[Expected],
    rep: usize,
) -> io::Result<(PhaseOut, PhaseOut, Vec<Rung>)> {
    let secs = a.seconds as f64;
    let mut ladder = PhaseOut::default();
    let mut rungs = Vec::new();
    let main = match a.workload {
        Workload::DotPipe => {
            let closed = Duration::from_secs_f64(secs * DOT_CLOSED_SHARE);
            let main = load::closed_pipe(sock, DOT_WINDOW, closed, &p.seqs, &p.types, exp)?;
            let rung_dur =
                Duration::from_secs_f64(secs * (1.0 - DOT_CLOSED_SHARE) / DOT_LADDER.len() as f64);
            let mut arrivals = Rng::new(a.seed, 11);
            for rate in DOT_LADDER {
                let (rung, out) =
                    load::open_rung(sock, rate, rung_dur, &mut arrivals, 0, &p.types, exp)?;
                ladder.merge(out);
                let pass = rung_passes(&rung);
                rungs.push(rung);
                if !pass {
                    break;
                }
            }
            main
        }
        Workload::DenseKernels | Workload::GradDevices => load::closed_pipe(
            sock,
            1,
            Duration::from_secs_f64(secs),
            &p.seqs,
            &p.types,
            exp,
        )?,
        Workload::ColdMix => load::one_shot_loop(sock, COLD_CLIENTS, &p.seqs[rep], &p.types, exp)?,
    };
    Ok((main, ladder, rungs))
}

pub fn run(a: &Args) -> io::Result<i32> {
    let w = a.workload;
    let p = plan(a);
    std::fs::create_dir_all(&a.run_dir)?;
    let sock = a.run_dir.join(format!("{}.sock", w.name()));
    let log = a.run_dir.join(format!("{}-server.log", w.name()));

    // reference checksums first: not part of set-up
    let t0 = Instant::now();
    let exp: Vec<Expected> = p.types.iter().map(expected).collect();
    let mut wrong = Vec::new();
    if p.types.iter().any(|t| t.kernel == Kernel::JacobiF90)
        && !oracle::jacobi_agrees_with_reference()
    {
        wrong.push("Jacobi1D reference loop no longer matches evaluate_recursive".to_string());
    }
    let oracle_s = t0.elapsed().as_secs_f64();

    let reps_n = if w == Workload::ColdMix { COLD_REPS } else { 1 };
    let mut setups = Vec::new();
    let t_setup = Instant::now();
    while setups.len() + reps_n < SETUP_MIN
        || (setups.len() + reps_n < SETUP_MAX && t_setup.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let (srv, s, bad) = start(&sock, &log, w, &p, &exp)?;
        if setups.is_empty() {
            wrong.extend(bad);
        }
        setups.push(s);
        srv.stop()?;
    }
    let mut reps = Vec::new();
    for rep in 0..reps_n {
        let (srv, s, bad) = start(&sock, &log, w, &p, &exp)?;
        if setups.is_empty() {
            wrong.extend(bad);
        }
        setups.push(s);
        let before = stats_json(&sock)?;
        let (main, ladder, rungs) = measure(a, &sock, &p, &exp, rep)?;
        let after = stats_json(&sock)?;
        let rss_mb = srv.peak_rss_mb()?;
        srv.stop()?;
        reps.push(Rep {
            main,
            ladder,
            rungs,
            before,
            after,
            rss_mb,
        });
    }

    let attempted: usize = reps
        .iter()
        .map(|r| r.main.attempted + r.ladder.attempted)
        .sum();
    let ok_total = reps
        .iter()
        .flat_map(|r| r.main.samples.iter().chain(&r.ladder.samples))
        .filter(|s| s.ok)
        .count();
    let failed = attempted - ok_total;
    wrong.extend(
        reps.iter()
            .flat_map(|r| r.main.mismatches.iter().chain(&r.ladder.mismatches))
            .cloned(),
    );

    // end to end: per measured server, then the median across servers
    let mut per: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut rate_note = String::new();
    let mut tail_note = String::new();
    for r in &reps {
        let ok = r.ok();
        let lat: Vec<f64> = ok.iter().map(|s| s.lat_ms).collect();
        let time_bound = (w != Workload::ColdMix).then_some(r.main.elapsed_s);
        let (rps, gflops, note) = windowed_rates(&ok, &p.types, time_bound, r.main.elapsed_s);
        rate_note = note;
        let tv = match time_bound.and_then(|t| windowed_p99(&ok, t)) {
            Some(tails) => {
                tail_note = format!(
                    "median of {WINDOWS} windows' p99 [{}] ms, each with at least 10 samples beyond it, of {}",
                    report::fmt_list(&tails, 4),
                    lat.len()
                );
                median(&tails)
            }
            None => {
                let (tv, tq, tn) = tail(&lat);
                tail_note = format!("p{tq}, {tn} samples beyond it, of {}", lat.len());
                tv
            }
        };
        let p50 = match time_bound {
            Some(_) => typed_p50(&ok),
            None => median(&lat),
        };
        for (k, v) in [
            ("rps", rps),
            ("gflops", gflops),
            ("p50", p50),
            ("tail", tv),
            ("rss", r.rss_mb),
        ] {
            per.entry(k).or_default().push(v);
        }
    }
    let across = |k: &str| median(&per[k]);
    let servers = |k: &str| {
        if reps_n > 1 {
            format!(
                "; median of {reps_n} servers: {}",
                report::fmt_list(&per[k], 4)
            )
        } else {
            String::new()
        }
    };
    let e2e = vec![
        m(
            "setup_s",
            median(&setups),
            "s",
            "measured",
            format!(
                "median of {} fresh servers: {}",
                setups.len(),
                report::fmt_list(&setups, 4)
            ),
        ),
        m(
            "throughput_rps",
            across("rps"),
            "req/s",
            "measured",
            format!("{rate_note}{}", servers("rps")),
        ),
        m(
            "latency_p50_ms",
            across("p50"),
            "ms",
            "measured",
            format!(
                "client send to done line{}{}",
                if w == Workload::ColdMix {
                    ""
                } else {
                    "; per-type p50s weighted by count"
                },
                servers("p50")
            ),
        ),
        m(
            "gflops_computed",
            across("gflops"),
            "GFLOP/s",
            "computed",
            "algorithmic flops of ok replies per wall second, windowed as throughput_rps",
        ),
        m(
            "ok_frac",
            ok_total as f64 / attempted.max(1) as f64,
            "ratio",
            "measured",
            format!(
                "{ok_total} ok of {attempted} attempted; fail_frac {:.6}",
                failed as f64 / attempted.max(1) as f64
            ),
        ),
    ];
    let tail_ms = m(
        "latency_tail_ms",
        across("tail"),
        "ms",
        "measured",
        format!("{tail_note}{}", servers("tail")),
    );
    let rss = m(
        "server.rss_mb",
        across("rss"),
        "MB",
        "measured",
        format!("VmHWM of the server process{}", servers("rss")),
    );

    println!(
        "== perfbench {} seed={} seconds={} trace={}",
        w.name(),
        a.seed,
        a.seconds,
        a.trace as u8
    );
    println!(
        "reference checksums: {} request types in {oracle_s:.3} s (before set-up, not timed)",
        p.types.len()
    );
    println!("-- end to end (tracing off) --");
    for x in &e2e {
        report::print_metric(x);
    }
    if w == Workload::DotPipe {
        print_ladder(&reps[0].rungs);
    }

    // per layer: every measured server's replies and counters pooled
    let ok: Vec<&Sample> = reps.iter().flat_map(|r| r.ok()).collect();
    let is_cpu = |s: &Sample| p.types[s.ty].device == Device::Cpu;
    let cpu: Vec<&Sample> = ok.iter().copied().filter(|s| is_cpu(s)).collect();
    let edge: Vec<f64> = ok.iter().map(|s| s.lat_ms - s.total_ms).collect();
    let queue: Vec<f64> = cpu.iter().map(|s| s.total_ms - s.exec_ms).collect();
    let exec: Vec<f64> = cpu.iter().map(|s| s.exec_ms).collect();
    let mut connect: Vec<f64> = ok.iter().filter_map(|s| s.connect_ms).collect();
    if connect.is_empty() {
        connect = reps
            .iter()
            .flat_map(|r| r.main.connect_ms.iter().copied())
            .collect();
    }
    let d = |k: &str| reps.iter().map(|r| r.delta(k)).sum::<f64>();
    let plan_base = d("plan_hits") + d("plan_misses");
    let kernel_base = d("kernel_hits") + d("kernel_fallbacks");
    let mem_base = d("mem_hits") + d("mem_misses");
    let backlogs: Vec<f64> = reps
        .iter()
        .map(|r| {
            r.after.get("plan_misses").copied().unwrap_or(0.0)
                - r.after.get("tunes_done").copied().unwrap_or(0.0)
        })
        .collect();
    let stages = report::stage_rows(&ok, &p.types);
    let remainder = stages
        .iter()
        .map(|r| r.n as f64 * (r.lat - r.sum))
        .sum::<f64>()
        / ok.len().max(1) as f64;
    let mut layer = vec![
        m(
            "server.edge_ms",
            median(&edge),
            "ms",
            "measured",
            format!(
                "p50 of client latency minus reply total_ms, {} replies",
                edge.len()
            ),
        ),
        m(
            "server.connect_ms",
            median(&connect),
            "ms",
            "measured",
            format!(
                "p50 of {} connects (one-shot: plus header write)",
                connect.len()
            ),
        ),
        tail_ms,
        rss,
        m(
            "runtime.queue_ms",
            median(&queue),
            "ms",
            "measured",
            format!(
                "p50 of reply total_ms - exec_ms, {} CPU replies",
                queue.len()
            ),
        ),
        m(
            "backend.exec_ms",
            median(&exec),
            "ms",
            "measured",
            format!("p50 of reply exec_ms, {} CPU replies", exec.len()),
        ),
        m(
            "runtime.mean_batch",
            d("completed") / d("batches").max(1.0),
            "count",
            "measured",
            format!(
                "{} completed in {} batches (STATS json delta)",
                d("completed"),
                d("batches")
            ),
        ),
        m(
            "runtime.plan_hit_ratio",
            d("plan_hits") / plan_base.max(1.0),
            "ratio",
            "measured",
            format!("of {plan_base} lookups"),
        ),
        m(
            "runtime.plan_evictions",
            d("plan_evictions"),
            "count",
            "measured",
            "STATS json delta",
        ),
        m(
            "tune.backlog",
            if w.tuning() { median(&backlogs) } else { 0.0 },
            "count",
            "measured",
            if w.tuning() {
                "plan_misses - tunes_done when the timed phase ends"
            } else {
                "tuning off"
            },
        ),
        m(
            "backend.kernel_hit_ratio",
            d("kernel_hits") / kernel_base.max(1.0),
            "ratio",
            "measured",
            format!("of {kernel_base} CPU runs; process-wide, so tuning runs count too"),
        ),
        m(
            "bench.stage_remainder_ms",
            remainder,
            "ms",
            "measured",
            "end-to-end p50 minus the sum of stage p50s, per request type, weighted by count",
        ),
    ];
    let mut report_only = vec![m(
        "mem.hit_ratio",
        d("mem_hits") / mem_base.max(1.0),
        "ratio",
        "measured",
        format!("of {mem_base} residency lookups (STATS json delta)"),
    )];
    let gpu: Vec<f64> = ok
        .iter()
        .filter(|s| !is_cpu(s))
        .map(|s| s.exec_ms)
        .collect();
    if !gpu.is_empty() {
        let name = if w.devices() > 1 {
            "dist.modelled_hot_ms"
        } else {
            "gpu.modelled_ms"
        };
        report_only.push(m(
            name,
            median(&gpu),
            "ms",
            "modelled",
            format!(
                "p50 of GPU reply exec_ms (simulated), {} replies",
                gpu.len()
            ),
        ));
    }
    if p.types.len() <= 3 {
        for (i, t) in p.types.iter().enumerate() {
            let ex: Vec<f64> = cpu
                .iter()
                .filter(|s| s.ty == i)
                .map(|s| s.exec_ms)
                .collect();
            if !ex.is_empty() {
                report_only.push(m(
                    &format!("backend.exec_ms[{t}]"),
                    median(&ex),
                    "ms",
                    "measured",
                    format!("{} replies", ex.len()),
                ));
            }
        }
    }

    let mut traced = None;
    if a.trace {
        let seq: Vec<usize> = match w {
            Workload::ColdMix => p.seqs[0].clone(),
            Workload::DotPipe => vec![0; TRACE_DOT],
            Workload::DenseKernels => p.seqs[0]
                .iter()
                .copied()
                .cycle()
                .take(TRACE_DENSE)
                .collect(),
            Workload::GradDevices => p.seqs[0].iter().copied().take(TRACE_GRAD).collect(),
        };
        let spans = a
            .run_dir
            .join(format!("{}-seed{}-spans.tsv", w.name(), a.seed));
        let tr = trace::replay(w, &p.types, &exp, &seq, &spans);
        wrong.extend(tr.mismatches.iter().cloned());
        layer.extend(report::traced_metrics(&tr, reps[0].delta("completed")));
        report_only.extend(report::traced_extras(&tr));
        traced = Some(tr);
    }

    println!(
        "-- per layer (server replies and STATS json deltas over the timed phase{}) --",
        if a.trace { "; traced replay" } else { "" }
    );
    for x in layer.iter().chain(&report_only) {
        report::print_metric(x);
    }
    report::print_stages(&stages);
    if let Some(tr) = &traced {
        report::print_trace_table(tr);
        report::print_purpose(w, tr, &edge, &queue, &exec, &ok, &p.types, mem_base);
    }

    let legacy = p
        .types
        .iter()
        .zip(&exp)
        .find_map(|(t, e)| e.legacy_map.as_ref().map(|l| (t, &e.checksum, l)));
    if let Some((t, program, l)) = legacy {
        println!(
            "note: {} Jacobi1D replies carried the legacy Map kernel's fp32-reassociated \
             checksum instead of the program-order one (for {t}: {l} vs {program})",
            oracle::legacy_map_replies(),
        );
    }
    let correct = wrong.is_empty();
    for x in wrong.iter().take(10) {
        println!("WRONG CHECKSUM: {x}");
    }
    if wrong.len() > 10 {
        println!("... {} more wrong checksums", wrong.len() - 10);
    }
    let shown: &[Metric] = if a.trace { &layer } else { &e2e };
    println!("{}", report::result_line(correct, attempted, failed, shown));
    Ok(if correct { 0 } else { 1 })
}

fn print_ladder(rungs: &[Rung]) {
    println!("-- dot_pipe open-loop ladder (limit: tail <= {DOT_SLO_MS} ms, backlog <= {DOT_SLO_MS} ms) --");
    for r in rungs {
        let (tv, tq, tn) = tail(&r.lat_ms);
        println!(
            "  rate {:>6.0}/s  n={:<6} p50 {:.4} ms  p{tq} {:.4} ms ({tn} beyond)  backlog {:.3} ms  gen late p99 {:.4} ms  failed {}  {}",
            r.rate,
            r.lat_ms.len(),
            median(&r.lat_ms),
            tv,
            r.backlog_ms,
            percentile(&r.late_ms, 99.0),
            r.failed,
            if rung_passes(r) { "pass" } else { "FAIL" }
        );
    }
    let max_rps = rungs
        .iter()
        .take_while(|r| rung_passes(r))
        .last()
        .map_or(0.0, |r| r.rate);
    report::print_metric(&m(
        "max_rps_at_slo",
        max_rps,
        "req/s",
        "measured",
        "highest passing rate below the first failing one; report only (see README)",
    ));
    let late: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    report::print_metric(&m(
        "bench.gen_lateness_ms",
        percentile(&late, 99.0),
        "ms",
        "measured",
        format!("p99 of {} open-loop sends", late.len()),
    ));
}

/// Ok replies and algorithmic GFLOP/s per second. A time-bounded phase
/// (`Some(seconds)`) reports the median over [`WINDOWS`] equal spans of
/// time, which a passing stall on the shared host moves less than the
/// mean; the count-bounded `cold_mix` slows as its stats lines grow, so
/// it reports the whole phase.
fn windowed_rates(
    ok: &[&Sample],
    types: &[ReqType],
    time_bound: Option<f64>,
    elapsed_s: f64,
) -> (f64, f64, String) {
    let flops = |v: &mut dyn Iterator<Item = &&Sample>| v.map(|s| types[s.ty].flops()).sum::<f64>();
    let Some(phase_s) = time_bound else {
        let note = format!(
            "{} ok replies over the whole {elapsed_s:.3} s phase",
            ok.len()
        );
        return (
            ok.len() as f64 / elapsed_s,
            flops(&mut ok.iter()) / elapsed_s / 1e9,
            note,
        );
    };
    // Within a window, the rate is the replies after its first over the
    // time from the first to the last: unlike a count over the fixed
    // span, it is not quantised to 1/span (about 30 replies per window
    // on `dense_kernels`).
    let span = phase_s / WINDOWS as f64;
    let (mut rps, mut gflops) = (Vec::new(), Vec::new());
    for w in 0..WINDOWS {
        let (lo, hi) = (span * w as f64, span * (w + 1) as f64);
        let mut inside: Vec<&&Sample> = ok.iter().filter(|s| s.at_s > lo && s.at_s <= hi).collect();
        inside.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        let (Some(first), Some(last)) = (inside.first(), inside.last()) else {
            continue;
        };
        let dt = last.at_s - first.at_s;
        if dt <= 0.0 {
            continue;
        }
        rps.push((inside.len() - 1) as f64 / dt);
        gflops.push(flops(&mut inside[1..].iter().copied()) / dt / 1e9);
    }
    let note = format!(
        "median of {WINDOWS} windows [{}] req/s",
        report::fmt_list(&rps, 1)
    );
    (median(&rps), median(&gflops), note)
}

/// The p50 latency of each request type, weighted by its count. A
/// time-bounded workload sends a few types of very different cost in
/// fixed shares, so a pooled p50 falls where two types' latencies
/// overlap and jumps between them as the host's speed shifts.
fn typed_p50(ok: &[&Sample]) -> f64 {
    let mut by_ty: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in ok {
        by_ty.entry(s.ty).or_default().push(s.lat_ms);
    }
    by_ty
        .values()
        .map(|v| median(v) * v.len() as f64)
        .sum::<f64>()
        / ok.len().max(1) as f64
}

/// The p99 latency of each of [`WINDOWS`] equal spans of a time-bounded
/// phase, when every span has at least ten samples beyond its p99: a
/// stall of the shared host then moves one window, not the median.
fn windowed_p99(ok: &[&Sample], phase_s: f64) -> Option<Vec<f64>> {
    let span = phase_s / WINDOWS as f64;
    (0..WINDOWS)
        .map(|w| {
            let (lo, hi) = (span * w as f64, span * (w + 1) as f64);
            let lat: Vec<f64> = ok
                .iter()
                .filter(|s| s.at_s > lo && s.at_s <= hi)
                .map(|s| s.lat_ms)
                .collect();
            match tail(&lat) {
                (v, 99, _) => Some(v),
                _ => None,
            }
        })
        .collect()
}

fn rung_passes(r: &Rung) -> bool {
    r.failed == 0
        && !r.lat_ms.is_empty()
        && tail(&r.lat_ms).0 <= DOT_SLO_MS
        && r.backlog_ms <= DOT_SLO_MS
}
