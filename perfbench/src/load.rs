//! The load generator's phases. All of them run in the generator
//! process, on at most two connections to the server.

use crate::client::{self, field, frame, one_shot, open_pipe};
use crate::oracle::{check, Expected};
use crate::workload::{ReqType, Rng};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the workload's request types.
    pub ty: usize,
    /// Client-side latency: from send (open loop: from the due time) to
    /// the frame's `done` line.
    pub lat_ms: f64,
    pub ok: bool,
    /// Reply `exec_ms` (wall time on CPU, simulated time on GPU).
    pub exec_ms: f64,
    /// Reply `total_ms` (runtime submit to reply).
    pub total_ms: f64,
    /// One-shot connect plus header write.
    pub connect_ms: Option<f64>,
    /// When the reply completed, seconds since the phase started.
    pub at_s: f64,
}

#[derive(Debug, Default)]
pub struct PhaseOut {
    pub samples: Vec<Sample>,
    pub elapsed_s: f64,
    pub attempted: usize,
    pub mismatches: Vec<String>,
    /// `PIPE` connect-and-switch times.
    pub connect_ms: Vec<f64>,
}

impl PhaseOut {
    pub fn merge(&mut self, other: PhaseOut) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.mismatches.extend(other.mismatches);
        self.connect_ms.extend(other.connect_ms);
    }
}

fn sample(
    ty: usize,
    lat: Duration,
    reply: &Result<String, String>,
    exp: &Expected,
    what: impl FnOnce() -> String,
    mismatches: &mut Vec<String>,
) -> Sample {
    let (ok, exec_ms, total_ms) = match reply {
        Ok(line) => {
            if let Some(m) = check(line, exp) {
                mismatches.push(format!("{}: {m}", what()));
            }
            (
                true,
                field(line, "exec_ms").unwrap_or(f64::NAN),
                field(line, "total_ms").unwrap_or(f64::NAN),
            )
        }
        Err(_) => (false, f64::NAN, f64::NAN),
    };
    Sample {
        ty,
        lat_ms: lat.as_secs_f64() * 1e3,
        ok,
        exec_ms,
        total_ms,
        connect_ms: None,
        at_s: 0.0,
    }
}

/// Send each warm request type once (one-shot) and check its reply;
/// returns the wrong checksums seen.
pub fn warm(
    sock: &Path,
    types: &[ReqType],
    exp: &[Expected],
    warm: &[usize],
) -> io::Result<Vec<String>> {
    let mut wrong = Vec::new();
    for &ty in warm {
        match one_shot(sock, &frame(&types[ty], None))?.reply {
            Ok(line) => {
                if let Some(m) = check(&line, &exp[ty]) {
                    wrong.push(format!("warm-up {}: {m}", types[ty]));
                }
            }
            Err(e) => return Err(io::Error::other(format!("warm-up {}: {e}", types[ty]))),
        }
    }
    Ok(wrong)
}

/// Closed loop over `seqs.len()` pipelined connections: each keeps
/// `window` frames in flight and sends its next frame (type
/// `seq[i % len]`) when one completes, until `dur` has passed.
pub fn closed_pipe(
    sock: &Path,
    window: usize,
    dur: Duration,
    seqs: &[Vec<usize>],
    types: &[ReqType],
    exp: &[Expected],
) -> io::Result<PhaseOut> {
    let start = Instant::now();
    let end = start + dur;
    let outs: Vec<io::Result<PhaseOut>> = std::thread::scope(|s| {
        let handles: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                s.spawn(move || -> io::Result<PhaseOut> {
                    let (mut tx, mut rx, took) = open_pipe(sock)?;
                    let mut out = PhaseOut {
                        connect_ms: vec![took.as_secs_f64() * 1e3],
                        ..PhaseOut::default()
                    };
                    let mut sent: HashMap<u64, (Instant, usize)> = HashMap::new();
                    let mut next = 0u64;
                    let mut send = |sent: &mut HashMap<u64, (Instant, usize)>| {
                        let ty = seq[next as usize % seq.len()];
                        next += 1;
                        let t = Instant::now();
                        sent.insert(next, (t, ty));
                        tx.send(&frame(&types[ty], Some(next)))
                    };
                    while sent.len() < window && Instant::now() < end {
                        send(&mut sent)?;
                    }
                    while !sent.is_empty() {
                        let (id, reply) = rx.recv()?;
                        let now = Instant::now();
                        let (t, ty) = sent.remove(&id).ok_or_else(|| {
                            io::Error::other(format!("reply for unknown frame {id}"))
                        })?;
                        let mut smp = sample(
                            ty,
                            now - t,
                            &reply,
                            &exp[ty],
                            || format!("conn {c} frame {id} {}", types[ty]),
                            &mut out.mismatches,
                        );
                        smp.at_s = (now - start).as_secs_f64();
                        out.samples.push(smp);
                        if now < end {
                            send(&mut sent)?;
                        }
                    }
                    out.attempted = next as usize;
                    tx.finish()?;
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut all = PhaseOut::default();
    for o in outs {
        all.merge(o?);
    }
    all.elapsed_s = dur.as_secs_f64();
    Ok(all)
}

/// One rate of the open-loop ladder.
#[derive(Debug)]
pub struct Rung {
    pub rate: f64,
    pub lat_ms: Vec<f64>,
    pub failed: usize,
    /// Last completion minus last due time: how far behind the server
    /// ended the rung.
    pub backlog_ms: f64,
    /// How late the generator sent, per frame.
    pub late_ms: Vec<f64>,
}

/// One open-loop connection's latencies, send lateness, replies and
/// final backlog (ms).
type ConnOut = (Vec<f64>, Vec<f64>, PhaseOut, f64);

/// Open loop at `rate` requests/s for `dur`, split over two pipelined
/// connections, with seeded exponential inter-arrival times. Latency
/// counts from each frame's due time, so a stall charges every request
/// queued behind it.
pub fn open_rung(
    sock: &Path,
    rate: f64,
    dur: Duration,
    rng: &mut Rng,
    ty: usize,
    types: &[ReqType],
    exp: &[Expected],
) -> io::Result<(Rung, PhaseOut)> {
    const CONNS: usize = 2;
    let dues: Vec<Vec<f64>> = (0..CONNS)
        .map(|_| {
            let per_conn = rate / CONNS as f64;
            let mut t = 0.0;
            let mut v = Vec::new();
            loop {
                t += -(1.0 - rng.next_f64()).ln() / per_conn;
                if t >= dur.as_secs_f64() {
                    break v;
                }
                v.push(t);
            }
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(2);
    let bytes = |id: u64| frame(&types[ty], Some(id));
    let results: Vec<io::Result<ConnOut>> = std::thread::scope(|s| {
        let hs: Vec<_> = dues
            .iter()
            .map(|due| {
                s.spawn(move || {
                    let (mut tx, mut rx, took) = open_pipe(sock)?;
                    let mut out = PhaseOut {
                        connect_ms: vec![took.as_secs_f64() * 1e3],
                        attempted: due.len(),
                        ..PhaseOut::default()
                    };
                    std::thread::scope(|inner| -> io::Result<ConnOut> {
                        let sender = inner.spawn(move || -> io::Result<Vec<f64>> {
                            let mut late = Vec::with_capacity(due.len());
                            for (i, d) in due.iter().enumerate() {
                                let target = start + Duration::from_secs_f64(*d);
                                let now = Instant::now();
                                if target > now + Duration::from_micros(50) {
                                    std::thread::sleep(target - now);
                                }
                                let now = Instant::now();
                                late.push(
                                    now.saturating_duration_since(target).as_secs_f64() * 1e3,
                                );
                                tx.send(&bytes(i as u64 + 1))?;
                            }
                            tx.finish()?;
                            Ok(late)
                        });
                        let mut lat = Vec::with_capacity(due.len());
                        let mut last_done = start;
                        let mut err = None;
                        for _ in 0..due.len() {
                            match rx.recv() {
                                Ok((id, reply)) => {
                                    let now = Instant::now();
                                    last_done = now;
                                    let Some(d) =
                                        (id as usize).checked_sub(1).and_then(|i| due.get(i))
                                    else {
                                        err = Some(io::Error::other(format!(
                                            "reply for unknown frame {id}"
                                        )));
                                        break;
                                    };
                                    let target = start + Duration::from_secs_f64(*d);
                                    let smp = sample(
                                        ty,
                                        now.saturating_duration_since(target),
                                        &reply,
                                        &exp[ty],
                                        || format!("open-loop {rate}/s frame {id} {}", types[ty]),
                                        &mut out.mismatches,
                                    );
                                    if smp.ok {
                                        lat.push(smp.lat_ms);
                                    }
                                    out.samples.push(smp);
                                }
                                Err(e) => {
                                    err = Some(e);
                                    break;
                                }
                            }
                        }
                        let late = sender.join().expect("sender thread panicked")?;
                        if let Some(e) = err {
                            return Err(e);
                        }
                        let last_due =
                            start + Duration::from_secs_f64(due.last().copied().unwrap_or(0.0));
                        let backlog =
                            last_done.saturating_duration_since(last_due).as_secs_f64() * 1e3;
                        Ok((lat, late, out, backlog))
                    })
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut rung = Rung {
        rate,
        lat_ms: Vec::new(),
        failed: 0,
        backlog_ms: 0.0,
        late_ms: Vec::new(),
    };
    let mut all = PhaseOut::default();
    for r in results {
        let (lat, late, out, backlog) = r?;
        rung.lat_ms.extend(lat);
        rung.late_ms.extend(late);
        rung.backlog_ms = rung.backlog_ms.max(backlog);
        all.merge(out);
    }
    rung.failed = all.attempted - rung.lat_ms.len();
    all.elapsed_s = dur.as_secs_f64();
    Ok((rung, all))
}

/// Closed loop of one-shot connections (connect, SUBMIT, read, close):
/// `clients` threads take the next request of `seq` until it is used up.
pub fn one_shot_loop(
    sock: &Path,
    clients: usize,
    seq: &[usize],
    types: &[ReqType],
    exp: &[Expected],
) -> io::Result<PhaseOut> {
    let frames: Vec<Vec<u8>> = types.iter().map(|t| frame(t, None)).collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let outs: Vec<io::Result<PhaseOut>> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| -> io::Result<PhaseOut> {
                    let mut out = PhaseOut::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&ty) = seq.get(i) else { break };
                        out.attempted += 1;
                        let r = one_shot(sock, &frames[ty])?;
                        let mut smp = sample(
                            ty,
                            r.done,
                            &r.reply,
                            &exp[ty],
                            || format!("request {i} {}", types[ty]),
                            &mut out.mismatches,
                        );
                        smp.connect_ms = Some(r.connect.as_secs_f64() * 1e3);
                        smp.at_s = start.elapsed().as_secs_f64();
                        out.samples.push(smp);
                    }
                    Ok(out)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = PhaseOut::default();
    for o in outs {
        all.merge(o?);
    }
    all.elapsed_s = start.elapsed().as_secs_f64();
    Ok(all)
}

/// Poll `STATS json` until background tuning has caught up with every
/// plan miss (or `timeout` passes).
pub fn wait_tunes(sock: &Path, timeout: Duration) -> io::Result<()> {
    let deadline = Instant::now() + timeout;
    loop {
        let s = client::stats_json(sock)?;
        let get = |k: &str| s.get(k).copied().unwrap_or(0.0);
        if get("tunes_done") >= get("plan_misses") {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(io::Error::other("background tuning did not catch up"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}
