//! Run one child process and read its wall time, CPU time and peak RSS.
//!
//! The child runs under a launcher (this binary in `--measure-child` mode)
//! so that its peak RSS is its own; see [`measure`].
//!
//! The workspace has no libc crate, so `wait4` is declared by hand. The
//! `rusage` layout below is the Linux one for 64-bit targets (two `timeval`s
//! followed by fourteen `long`s, `ru_maxrss` first and in KiB).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads per-child rusage through the 64-bit Linux wait4 ABI");

use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn secs(&self) -> f64 {
        self.sec as f64 + self.usec as f64 * 1e-6
    }
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What the kernel accounted to one child process.
pub struct Usage {
    /// Spawn to exit.
    pub wall_s: f64,
    /// User plus system CPU of the child and the threads it joined.
    pub cpu_s: f64,
    pub max_rss_mib: f64,
    pub status: ExitStatus,
}

/// Spawn `cmd` and reap it with `wait4`; the calling thread stays blocked
/// for the whole run.
///
/// `ru_maxrss` is only the child's own peak when the caller is small: at
/// `exec` the kernel folds the peak of the address space the child was
/// spawned from into the child's high-water mark. The harness holds whole
/// datasets, so it measures through [`run`], never directly.
pub fn measure(cmd: &mut Command) -> std::io::Result<Usage> {
    let start = Instant::now();
    let child = cmd.spawn()?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as the
    // kernel expects (see the module comment); the pid is a child of this
    // process that nothing else reaps, because `child` is never waited on
    // through `std`.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(Usage {
        wall_s,
        cpu_s: usage.utime.secs() + usage.stime.secs(),
        max_rss_mib: usage.maxrss_kib as f64 / 1024.0,
        status: ExitStatus::from_raw(status),
    })
}

/// First argument of the launcher mode of this binary.
pub const LAUNCH_FLAG: &str = "--measure-child";
/// Starts the line the launcher appends to the child's standard output.
const TRAILER: &str = "\n@usage ";

/// The launcher: a process that holds nothing, so that the child it spawns
/// (`argv` = program and arguments, standard output inherited) is charged
/// with its own peak RSS only. Appends the usage to standard output.
pub fn launcher(argv: &[String]) -> std::io::Result<()> {
    let (program, args) = argv
        .split_first()
        .ok_or_else(|| std::io::Error::other("launcher needs a program"))?;
    let usage = measure(Command::new(program).args(args).stdin(Stdio::null()))?;
    println!(
        "{TRAILER}{} {} {} {}",
        usage.wall_s,
        usage.cpu_s,
        usage.max_rss_mib,
        usage.status.into_raw()
    );
    Ok(())
}

pub struct ChildRun {
    pub usage: Usage,
    pub stdout: String,
}

/// Run `program` under the launcher and return its usage and its standard
/// output, drained to the end (the CLI panics on a closed pipe). One client,
/// closed loop: the caller is blocked until the child has exited.
pub fn run(program: &Path, args: &[String]) -> std::io::Result<ChildRun> {
    let out = Command::new(std::env::current_exe()?)
        .arg(LAUNCH_FLAG)
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    parse_launcher_output(&text).ok_or_else(|| {
        std::io::Error::other(format!(
            "launcher for {} reported no usage: {}",
            program.display(),
            String::from_utf8_lossy(&out.stderr)
        ))
    })
}

fn parse_launcher_output(text: &str) -> Option<ChildRun> {
    let (stdout, trailer) = text.rsplit_once(TRAILER)?;
    let mut fields = trailer.split_whitespace();
    let mut number = || fields.next()?.parse::<f64>().ok();
    let usage = Usage {
        wall_s: number()?,
        cpu_s: number()?,
        max_rss_mib: number()?,
        status: ExitStatus::from_raw(number()? as i32),
    };
    Some(ChildRun {
        usage,
        stdout: stdout.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_exit_status_and_usage() {
        let ok = measure(Command::new("sh").args(["-c", "true"])).unwrap();
        assert!(ok.status.success());
        assert!(ok.wall_s > 0.0 && ok.max_rss_mib > 0.0 && ok.cpu_s >= 0.0);
        let bad = measure(Command::new("sh").args(["-c", "exit 3"])).unwrap();
        assert_eq!(bad.status.code(), Some(3));
    }

    #[test]
    fn launcher_output_splits_into_child_output_and_usage() {
        let run = parse_launcher_output("line 1\nline 2\n\n@usage 0.5 0.75 25.5 768\n").unwrap();
        assert_eq!(run.stdout, "line 1\nline 2\n");
        assert_eq!(
            (run.usage.wall_s, run.usage.cpu_s, run.usage.max_rss_mib),
            (0.5, 0.75, 25.5)
        );
        assert_eq!(run.usage.status.code(), Some(3));
        assert!(parse_launcher_output("no trailer\n").is_none());
    }
}
