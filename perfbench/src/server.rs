//! The server under test, in its own process: spawn, readiness, peak
//! memory, shutdown.

use crate::client;
use crate::workload::Workload;
use mdh_runtime::RuntimeConfig;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `perfbench serve`: the server process body. The same
/// `serve_opts` entry point `mdhc serve` calls, with the runtime's
/// default configuration except for the benchmark's fixed pool sizes
/// (`workers = 2`, `exec_threads = 2`), the device count and, for
/// `dense_kernels`, tuning switched off.
pub fn serve(socket: &Path, w: Workload) -> io::Result<()> {
    let opts = mdh_runtime::ServeOptions {
        unix: Some(socket.to_path_buf()),
        ..mdh_runtime::ServeOptions::default()
    };
    mdh_runtime::server::serve_opts(opts, runtime_config(w))
}

/// The runtime configuration of the benchmark's server for `w` (also
/// used by the in-process replay of the traced run).
pub fn runtime_config(w: Workload) -> RuntimeConfig {
    let mut c = RuntimeConfig {
        workers: 2,
        exec_threads: 2,
        devices: w.devices(),
        ..RuntimeConfig::default()
    };
    c.tune.enabled = w.tuning();
    c
}

pub struct Server {
    child: Option<Child>,
    pub socket: PathBuf,
}

impl Server {
    /// Spawn the server and wait until its socket accepts.
    pub fn start(socket: &Path, w: Workload, log: &Path) -> io::Result<Server> {
        let exe = std::env::current_exe()?;
        let child = Command::new(exe)
            .arg("serve")
            .arg("--workload")
            .arg(w.name())
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(log)?)
            .spawn()?;
        let mut srv = Server {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if UnixStream::connect(socket).is_ok() {
                return Ok(srv);
            }
            if let Some(status) = srv.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(io::Error::other(format!(
                    "server exited during start-up ({status}); see {}",
                    log.display()
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server did not accept within 30 s"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Peak resident set (VmHWM) of the server process, MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let pid = self.child.as_ref().map(|c| c.id()).unwrap_or(0);
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// SHUTDOWN, then wait for the process to exit (killing it if it
    /// does not drain in time).
    pub fn stop(mut self) -> io::Result<()> {
        let sent = client::shutdown(&self.socket);
        let mut child = self.child.take().expect("running server");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = child.try_wait()? {
                sent?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("server did not drain within 30 s; killed"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}
