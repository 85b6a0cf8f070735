//! The environment block printed with every result.

use std::path::Path;
use std::process::Command;

pub struct Env {
    pub nproc: usize,
    pub git_sha: String,
    pub rustc: String,
    pub kernel: String,
    pub durable_fs: String,
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Some(text.lines().next()?.trim().to_string()).filter(|s| !s.is_empty())
}

/// The file system type of the mount holding `dir` (longest matching
/// mount point in `/proc/self/mountinfo`).
fn fs_type(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let (left, right) = line.split_once(" - ")?;
        let mount_point = left.split(' ').nth(4)?;
        let fstype = right.split(' ').next()?;
        if dir.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
}

pub fn collect(durable_dir: &Path) -> Env {
    Env {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_sha: first_line("git", &["rev-parse", "HEAD"])
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
        rustc: first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        durable_fs: fs_type(durable_dir).unwrap_or_else(|| "unknown".to_string()),
    }
}
