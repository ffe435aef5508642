//! The run header: where and on what the numbers were taken, stamped
//! at run time (never baked in at build time, so a stale stamp cannot
//! outlive the commit it was taken at).

use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type and mount point holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), format!("{fs} at {mount}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// `<short sha>` plus `-dirty` when the tree has uncommitted changes;
/// `unknown` outside a git checkout.
fn commit(repo: &Path) -> String {
    match command_line("git", &["rev-parse", "--short", "HEAD"], repo) {
        Some(sha) if !sha.is_empty() => {
            let dirty = command_line("git", &["status", "--porcelain"], repo)
                .is_some_and(|s| !s.is_empty());
            format!("{sha}{}", if dirty { "-dirty" } else { "" })
        }
        _ => "unknown".into(),
    }
}

/// The header lines, each prefixed `# `.
pub fn header(scratch: &Path) -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let rustc = command_line("rustc", &["-V"], &repo).unwrap_or_else(|| "unknown".into());
    format!(
        "# nproc {nproc} | cpu {} | {rustc}\n# scratch filesystem {} | commit {}\n",
        cpu_model(),
        filesystem_of(scratch),
        commit(&repo)
    )
}
