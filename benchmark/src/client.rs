//! The `light serve` daemon as users drive it: spawned with default
//! flags, spoken to in newline-delimited JSON over its Unix socket.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::proc::{Exit, Proc};

/// A request that outlives this is counted as failed, not waited for.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection; the reactor allows one in-flight request on it.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    line: String,
}

impl Conn {
    pub fn connect(socket: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Send one request line and block for its full response line.
    pub fn request(&mut self, request: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("no response: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        Json::parse(self.line.trim_end()).map_err(|e| format!("malformed response: {e}"))
    }
}

/// `{"op":"query",...}` for a catalog pattern on graph `g`.
pub fn query_line(pattern: &str, id: u64) -> String {
    format!(r#"{{"op":"query","pattern":"{pattern}","graph":"g","id":{id}}}"#)
}

/// The match count of a complete, successful query response.
pub fn ok_matches(resp: &Json) -> Option<u64> {
    let ok = resp.get("status").and_then(Json::as_str) == Some("ok")
        && resp.get("outcome").and_then(Json::as_str) == Some("complete");
    ok.then(|| resp.get("matches").and_then(Json::as_u64))
        .flatten()
}

/// A running daemon serving one snapshot as graph `g`.
pub struct Daemon {
    proc: Proc,
    socket: PathBuf,
    /// Process spawn until `health` reported `ready`.
    pub start_to_ready: Duration,
}

impl Daemon {
    /// `light serve --graphs g=<snapshot> --socket <socket>
    /// --max-concurrent <executors> --threads 1`, nothing else: no
    /// kill-switch flag and no `LIGHT_*` variable is ever set.
    pub fn start(
        light: &Path,
        snapshot: &Path,
        socket: &Path,
        executors: usize,
    ) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let t0 = Instant::now();
        let mut proc = Proc::spawn(
            Command::new(light)
                .arg("serve")
                .arg("--graphs")
                .arg(format!("g={}", snapshot.display()))
                .arg("--socket")
                .arg(socket)
                .args(["--max-concurrent", &executors.to_string()])
                .args(["--threads", "1"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
        )
        .map_err(|e| format!("cannot spawn {}: {e}", light.display()))?;
        loop {
            if let Ok(mut c) = Conn::connect(socket) {
                let health = c.request(r#"{"op":"health"}"#)?;
                if health.get("ready").and_then(Json::as_bool) == Some(true) {
                    break;
                }
            }
            if let Ok(Some(status)) = proc.child_mut().try_wait() {
                return Err(format!("daemon exited before it was ready: {status}"));
            }
            if t0.elapsed() > READY_TIMEOUT {
                return Err("daemon not ready within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Daemon {
            proc,
            socket: socket.to_path_buf(),
            start_to_ready: t0.elapsed(),
        })
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.socket).map_err(|e| format!("cannot connect: {e}"))
    }

    /// Graceful drain through the `shutdown` op; returns the daemon's exit
    /// status and resource usage (its `ru_maxrss` is the peak RSS).
    pub fn shutdown(self) -> Result<Exit, String> {
        self.connect()?.request(r#"{"op":"shutdown"}"#)?;
        let exit = self
            .proc
            .wait()
            .map_err(|e| format!("cannot reap the daemon: {e}"))?;
        if !exit.success() {
            return Err(format!("daemon exited with {:?}", exit.code));
        }
        let _ = std::fs::remove_file(&self.socket);
        Ok(exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_matches_needs_a_complete_ok_response() {
        let ok = Json::parse(r#"{"status":"ok","outcome":"complete","matches":12}"#).unwrap();
        assert_eq!(ok_matches(&ok), Some(12));
        for bad in [
            r#"{"status":"partial","outcome":"timeout","matches":3}"#,
            r#"{"status":"overloaded","error":"queue full"}"#,
            r#"{"status":"error","code":"bad_pattern"}"#,
        ] {
            assert_eq!(ok_matches(&Json::parse(bad).unwrap()), None);
        }
        assert_eq!(
            query_line("P2", 9),
            r#"{"op":"query","pattern":"P2","graph":"g","id":9}"#
        );
    }
}
