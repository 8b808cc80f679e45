//! Child processes with their resource usage. `std` reaps children with
//! `waitpid`, which throws the kernel's `rusage` away; peak RSS is an
//! end-to-end metric here, so children are reaped through `wait4` declared
//! by hand (the workspace's no-libc idiom).

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a child ended and what it cost.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code; `None` when a signal ended it.
    pub code: Option<i32>,
    pub max_rss_kib: u64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// A spawned child that is killed and reaped on drop unless `wait` ran, so
/// an error path never leaves a daemon behind.
pub struct Proc {
    child: Child,
    reaped: bool,
}

impl Proc {
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Proc> {
        Ok(Proc {
            child: cmd.spawn()?,
            reaped: false,
        })
    }

    pub fn child_mut(&mut self) -> &mut Child {
        &mut self.child
    }

    /// Block until the child exits; returns its status and `rusage`.
    pub fn wait(mut self) -> std::io::Result<Exit> {
        let mut status = 0i32;
        let mut ru = Rusage::default();
        let pid = self.child.id() as i32;
        loop {
            // SAFETY: `status` and `ru` are valid for writes for the call's
            // duration and `Rusage` has the kernel's layout; `pid` is our
            // own unreaped child, so the pid cannot have been recycled.
            let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
            if r == pid {
                break;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        self.reaped = true;
        let exited = status & 0x7f == 0;
        Ok(Exit {
            code: exited.then_some((status >> 8) & 0xff),
            max_rss_kib: ru.maxrss.max(0) as u64,
            cpu_s: (ru.utime.sec + ru.stime.sec) as f64
                + (ru.utime.usec + ru.stime.usec) as f64 / 1e6,
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// This process's own peak RSS in KiB (`VmHWM`), 0 where `/proc` has none.
/// Every child starts with it as its `ru_maxrss`.
pub fn own_peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One finished run of a short-lived command.
#[derive(Debug)]
pub struct Captured {
    pub exit: Exit,
    pub stdout: String,
    pub stderr: String,
    /// Spawn to reaped.
    pub wall: Duration,
}

/// Run `cmd` to completion with stdin closed, capturing its (small)
/// output. The clock covers process spawn to exit.
pub fn run_capture(cmd: &mut Command) -> std::io::Result<Captured> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let t0 = Instant::now();
    let mut p = Proc::spawn(cmd)?;
    let (mut stdout, mut stderr) = (String::new(), String::new());
    // The commands run here print a few hundred bytes, far below the pipe
    // buffer, so draining the pipes one after the other cannot block.
    if let Some(mut o) = p.child_mut().stdout.take() {
        o.read_to_string(&mut stdout)?;
    }
    if let Some(mut e) = p.child_mut().stderr.take() {
        e.read_to_string(&mut stderr)?;
    }
    let exit = p.wait()?;
    Ok(Captured {
        exit,
        stdout,
        stderr,
        wall: t0.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_output_status_and_rusage() {
        let c =
            run_capture(Command::new("sh").args(["-c", "echo out; echo err >&2; exit 3"])).unwrap();
        assert_eq!(c.exit.code, Some(3));
        assert!(!c.exit.success());
        assert_eq!(c.stdout, "out\n");
        assert_eq!(c.stderr, "err\n");
        assert!(c.exit.max_rss_kib > 0);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(own_peak_rss_kib() > 0);
    }

    #[test]
    fn drop_kills_an_unwaited_child() {
        let p = Proc::spawn(Command::new("sleep").arg("30")).unwrap();
        let pid = p.child.id();
        drop(p);
        // Reaped, so the pid no longer names a process of ours.
        assert!(!std::path::Path::new(&format!("/proc/{pid}/stat")).exists());
    }
}
