//! Wire-protocol client: pipelined (`PIPE`) connections, one-shot
//! SUBMITs, `STATS json` and `SHUTDOWN`, all over the server's unix
//! socket.

use crate::workload::ReqType;
use std::collections::{BTreeMap, HashSet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// No reply within this long means the server is wedged: fail the run
/// instead of hanging past the benchmark's time limit.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn connect(path: &Path) -> io::Result<UnixStream> {
    let s = UnixStream::connect(path)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(s)
}

/// A SUBMIT frame: header line plus directive source, sent in one write.
pub fn frame(rt: &ReqType, id: Option<u64>) -> Vec<u8> {
    let mut f = rt.header(id).into_bytes();
    f.push(b'\n');
    f.extend_from_slice(rt.kernel.source().as_bytes());
    f
}

/// Field `name=<f64>` of an `ok` reply line.
pub fn field(line: &str, name: &str) -> Option<f64> {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
}

/// The send half of a pipelined connection.
pub struct PipeTx(UnixStream);

impl PipeTx {
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all(bytes)
    }

    /// Half-close: the server drains in-flight frames, then closes.
    pub fn finish(&self) -> io::Result<()> {
        self.0.shutdown(std::net::Shutdown::Write)
    }
}

/// The receive half of a pipelined connection.
pub struct PipeRx {
    r: BufReader<UnixStream>,
    pending_ok: Option<(u64, String)>,
    answered: HashSet<u64>,
}

impl PipeRx {
    /// Next completed frame: `(id, Ok(ok line) | Err(err line))`. A
    /// frame completes at its `done` line, or at its `err` line when the
    /// frame failed as a whole (which has no `done`).
    pub fn recv(&mut self) -> io::Result<(u64, Result<String, String>)> {
        loop {
            let mut line = String::new();
            if self.r.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the pipelined connection",
                ));
            }
            let line = line.trim_end();
            let Some(rest) = line.strip_prefix("id=") else {
                return Err(io::Error::other(format!("terminal reply: {line}")));
            };
            let (id, body) = rest.split_once(' ').unwrap_or((rest, ""));
            let id: u64 = id
                .parse()
                .map_err(|_| io::Error::other(format!("bad reply id: {line}")))?;
            if body.starts_with("ok ") {
                self.pending_ok = Some((id, body.to_string()));
            } else if body.starts_with("err ") {
                self.answered.insert(id);
                return Ok((id, Err(body.to_string())));
            } else if body.starts_with("done ") {
                if self.answered.remove(&id) {
                    continue;
                }
                return match self.pending_ok.take() {
                    Some((oid, ok)) if oid == id => Ok((id, Ok(ok))),
                    _ => Ok((id, Err(format!("frame {id} done without a reply")))),
                };
            } else {
                return Err(io::Error::other(format!("unexpected reply: {line}")));
            }
        }
    }
}

/// Open a `PIPE` connection; returns both halves and the time spent
/// connecting and switching the framing.
pub fn open_pipe(path: &Path) -> io::Result<(PipeTx, PipeRx, Duration)> {
    let t0 = Instant::now();
    let mut s = connect(path)?;
    s.write_all(b"PIPE\n")?;
    let mut r = BufReader::new(s.try_clone()?);
    let mut line = String::new();
    r.read_line(&mut line)?;
    if !line.starts_with("ok pipelined") {
        return Err(io::Error::other(format!(
            "PIPE refused: {}",
            line.trim_end()
        )));
    }
    let took = t0.elapsed();
    Ok((
        PipeTx(s),
        PipeRx {
            r,
            pending_ok: None,
            answered: HashSet::new(),
        },
        took,
    ))
}

/// Timings of one one-shot SUBMIT, all from just before `connect`.
pub struct OneShot {
    /// Connect plus header-and-source write.
    pub connect: Duration,
    /// Until the `done` (or `err`) line arrived.
    pub done: Duration,
    pub reply: Result<String, String>,
}

/// Connect, SUBMIT one launch, read its reply and the trailing `stats`
/// line, close.
pub fn one_shot(path: &Path, bytes: &[u8]) -> io::Result<OneShot> {
    let t0 = Instant::now();
    let mut s = connect(path)?;
    s.write_all(bytes)?;
    let connect_t = t0.elapsed();
    let mut r = BufReader::new(s);
    let mut ok = None;
    let reply = loop {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            break Err("connection closed before a reply".to_string());
        }
        let line = line.trim_end();
        if line.starts_with("ok ") {
            ok = Some(line.to_string());
        } else if line.starts_with("err ") {
            break Err(line.to_string());
        } else if line.starts_with("done ") {
            break ok.take().ok_or_else(|| line.to_string());
        }
    };
    let done = t0.elapsed();
    // the `stats` line follows; drain to EOF so the server closes first
    let mut rest = Vec::new();
    let _ = r.read_to_end(&mut rest);
    Ok(OneShot {
        connect: connect_t,
        done,
        reply,
    })
}

/// Top-level numeric fields of the server's `STATS json` reply.
pub fn stats_json(path: &Path) -> io::Result<BTreeMap<String, f64>> {
    let mut s = connect(path)?;
    s.write_all(b"STATS json\n")?;
    let mut line = String::new();
    BufReader::new(s).read_line(&mut line)?;
    let body = line
        .trim_end()
        .strip_prefix("stats-json ")
        .ok_or_else(|| io::Error::other(format!("bad STATS reply: {line}")))?;
    Ok(flat_numbers(body))
}

/// `"key":<number>` pairs at the top level of a JSON object; nested
/// objects and strings are skipped.
fn flat_numbers(json: &str) -> BTreeMap<String, f64> {
    let b = json.as_bytes();
    let mut out = BTreeMap::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                let key = &json[start..j.min(b.len())];
                i = j + 1;
                if depth == 1 && b.get(i) == Some(&b':') {
                    let vstart = i + 1;
                    let mut k = vstart;
                    while k < b.len()
                        && !matches!(b[k], b',' | b'}')
                        && b[k] != b'{'
                        && b[k] != b'"'
                    {
                        k += 1;
                    }
                    if let Ok(v) = json[vstart..k].trim().parse::<f64>() {
                        out.insert(key.to_string(), v);
                    }
                    i = k;
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Ask the server to drain and exit.
pub fn shutdown(path: &Path) -> io::Result<()> {
    let mut s = connect(path)?;
    s.write_all(b"SHUTDOWN\n")?;
    let mut line = String::new();
    BufReader::new(s).read_line(&mut line)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_numbers_skips_nested_objects() {
        let m = flat_numbers(r#"{"a":1,"d":{"x":5},"s":"q","b":2.5,"n":null}"#);
        assert_eq!(m.get("a"), Some(&1.0));
        assert_eq!(m.get("b"), Some(&2.5));
        assert!(!m.contains_key("x"));
        assert!(!m.contains_key("n"));
    }

    #[test]
    fn field_reads_reply_numbers() {
        let l = "ok hit=true source=heuristic epoch=0 batch=2 exec_ms=0.0100 total_ms=0.2500 checksum=res=1.000000";
        assert_eq!(field(l, "exec_ms"), Some(0.01));
        assert_eq!(field(l, "total_ms"), Some(0.25));
        assert_eq!(field(l, "batch"), Some(2.0));
    }
}
