//! Load-path correctness: `load_any` magic-byte auto-detection, the
//! `light convert` round trip, `light count --graph` accepting both text
//! edge lists and binary snapshots with identical results, and the
//! read-only upgrade path for legacy v1 snapshots.
//!
//! Lives in the root package so the CI failpoint leg re-runs it with fault
//! injection compiled in.

use std::process::Command;

use light::core::{run_query, EngineConfig};
use light::graph::io::{detect_format, load_any, save_snapshot_v2, write_edge_list, GraphFormat};
use light::graph::CsrGraph;
use light::pattern::Query;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_light"))
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("light_autodetect_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_graph() -> CsrGraph {
    light::graph::generators::barabasi_albert(500, 3, 99)
}

/// The legacy v1 layout (`LIGHTCSR`, version 1, n, directed, degrees,
/// neighbors). The library reads it but has no writer for it.
fn forge_v1(g: &CsrGraph) -> Vec<u8> {
    let degrees: Vec<u64> = g.vertices().map(|v| g.degree(v) as u64).collect();
    let mut buf = b"LIGHTCSR".to_vec();
    buf.extend(1u32.to_le_bytes());
    buf.extend((degrees.len() as u64).to_le_bytes());
    buf.extend(degrees.iter().sum::<u64>().to_le_bytes());
    buf.extend(degrees.iter().flat_map(|d| d.to_le_bytes()));
    buf.extend(
        g.vertices()
            .flat_map(|v| g.neighbors(v))
            .flat_map(|u| u.to_le_bytes()),
    );
    buf
}

/// Run the CLI and return its stdout, failing the test on a non-zero exit.
fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("run light");
    assert!(
        out.status.success(),
        "light {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// The `matches:` count `light count --pattern triangle` prints for `path`.
fn cli_triangles(path: &std::path::Path) -> u64 {
    let stdout = run_ok(&[
        "count",
        "--pattern",
        "triangle",
        "--graph",
        path.to_str().unwrap(),
    ]);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("matches:"))
        .unwrap_or_else(|| panic!("no matches line in {stdout}"))
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn load_any_roundtrips_both_formats() {
    let dir = tmpdir("roundtrip");
    let g = sample_graph();
    let text = dir.join("g.txt");
    let snap = dir.join("g.bin");
    write_edge_list(&g, std::fs::File::create(&text).unwrap()).unwrap();
    save_snapshot_v2(&g, &snap).unwrap();

    let (gt, ft) = load_any(&text).unwrap();
    let (gs, fs) = load_any(&snap).unwrap();
    assert_eq!(ft, GraphFormat::EdgeList);
    assert_eq!(fs, GraphFormat::Snapshot);
    assert_eq!(gs, g, "snapshot load is exact");
    assert_eq!(gt.num_edges(), g.num_edges());

    assert_eq!(
        detect_format(&std::fs::read(&text).unwrap()),
        GraphFormat::EdgeList
    );
    assert_eq!(
        detect_format(&std::fs::read(&snap).unwrap()),
        GraphFormat::Snapshot
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn count_cli_agrees_across_formats() {
    let dir = tmpdir("cli");
    let g = sample_graph();
    let text = dir.join("g.txt");
    write_edge_list(&g, std::fs::File::create(&text).unwrap()).unwrap();

    // Convert through the CLI (text → snapshot), then count on both.
    let snap = dir.join("g.bin");
    let out = bin()
        .args(["convert", text.to_str().unwrap(), snap.to_str().unwrap()])
        .output()
        .expect("run convert");
    assert!(
        out.status.success(),
        "convert failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        detect_format(&std::fs::read(&snap).unwrap()),
        GraphFormat::Snapshot
    );

    let count = |path: &std::path::Path| -> String {
        let out = bin()
            .args([
                "count",
                "--pattern",
                "triangle",
                "--graph",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("run count");
        assert!(
            out.status.success(),
            "count on {} failed: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        stdout
            .lines()
            .find(|l| l.starts_with("matches:"))
            .unwrap_or_else(|| panic!("no matches line in {stdout}"))
            .to_string()
    };
    assert_eq!(
        count(&text),
        count(&snap),
        "text and snapshot loads must count identically"
    );

    // Snapshot → edge list conversion round-trips the count as well.
    let back = dir.join("back.txt");
    let out = bin()
        .args([
            "convert",
            snap.to_str().unwrap(),
            back.to_str().unwrap(),
            "--to",
            "edge-list",
        ])
        .output()
        .expect("run convert back");
    assert!(out.status.success());
    assert_eq!(
        detect_format(&std::fs::read(&back).unwrap()),
        GraphFormat::EdgeList
    );
    assert_eq!(count(&back), count(&snap));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_any_surfaces_typed_errors() {
    let dir = tmpdir("errors");

    // Missing file: the io error comes through, not a silent fallback.
    let missing = dir.join("nope.bin");
    assert!(load_any(&missing).is_err());

    // Truncated snapshot: magic matches, body doesn't — must be a typed
    // snapshot error, not a misparse as an edge list.
    let trunc = dir.join("trunc.bin");
    std::fs::write(&trunc, b"LIGHTCSR").unwrap();
    let err = load_any(&trunc).unwrap_err();
    let msg = err.to_string();
    assert!(
        !msg.is_empty() && !msg.contains("line"),
        "truncated snapshot must fail as a snapshot, got: {msg}"
    );

    // Garbage text: fails as an edge list with a line diagnostic.
    let garbage = dir.join("garbage.txt");
    std::fs::write(&garbage, "this is not\nan edge list\n").unwrap();
    assert!(load_any(&garbage).is_err());

    // The CLI surfaces these as load errors (exit 1), never a crash.
    let out = bin()
        .args([
            "count",
            "--pattern",
            "triangle",
            "--graph",
            trunc.to_str().unwrap(),
        ])
        .output()
        .expect("run count");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot load"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_to_v2_roundtrips_counts_on_both_backends() {
    let dir = tmpdir("v2cli");
    let g = sample_graph();
    let text = dir.join("g.txt");
    write_edge_list(&g, std::fs::File::create(&text).unwrap()).unwrap();

    let v2 = dir.join("g.v2");
    let out = bin()
        .args([
            "convert",
            text.to_str().unwrap(),
            v2.to_str().unwrap(),
            "--to",
            "snapshot-v2",
        ])
        .output()
        .expect("run convert");
    assert!(
        out.status.success(),
        "convert --to snapshot-v2 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        detect_format(&std::fs::read(&v2).unwrap()),
        GraphFormat::Snapshot
    );

    let count = |extra: &[&str]| -> String {
        let mut args = vec!["count", "--pattern", "triangle", "--graph"];
        args.push(v2.to_str().unwrap());
        args.extend_from_slice(extra);
        let out = bin().args(&args).output().expect("run count");
        assert!(
            out.status.success(),
            "count {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("matches:"))
            .expect("matches line")
            .to_string()
    };
    // mmap-backed (default) and heap-backed (--no-mmap) loads agree.
    assert_eq!(count(&[]), count(&["--no-mmap"]));

    // stats reports the storage backend it ended up on.
    let out = bin()
        .args(["stats", "--graph", v2.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("backend:"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_refuses_to_clobber_its_input() {
    let dir = tmpdir("clobber");
    let g = sample_graph();
    let snap = dir.join("g.bin");
    save_snapshot_v2(&g, &snap).unwrap();
    let before = std::fs::read(&snap).unwrap();

    // Same path twice: typed error, input untouched.
    let out = bin()
        .args(["convert", snap.to_str().unwrap(), snap.to_str().unwrap()])
        .output()
        .expect("run convert");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("input file"));
    assert_eq!(std::fs::read(&snap).unwrap(), before, "input was modified");

    // A relative-path alias of the same file is caught too.
    let aliased = format!(
        "{}/./{}",
        dir.display(),
        snap.file_name().unwrap().to_str().unwrap()
    );
    let out = bin()
        .args(["convert", snap.to_str().unwrap(), &aliased])
        .output()
        .expect("run convert");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(std::fs::read(&snap).unwrap(), before, "input was modified");

    // Overwriting a different existing file succeeds but warns.
    let other = dir.join("other.bin");
    std::fs::write(&other, b"old contents").unwrap();
    let out = bin()
        .args(["convert", snap.to_str().unwrap(), other.to_str().unwrap()])
        .output()
        .expect("run convert");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("overwriting"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_snapshots_load_everywhere_and_convert_upgrades_them() {
    let dir = tmpdir("v1upgrade");
    let g = sample_graph();
    let text = dir.join("g.txt");
    write_edge_list(&g, std::fs::File::create(&text).unwrap()).unwrap();
    let v1 = dir.join("g.v1");
    std::fs::write(&v1, forge_v1(&g)).unwrap();

    // `light count --graph` reads the v1 file like its text source.
    let want = cli_triangles(&text);
    assert!(want > 0);
    assert_eq!(cli_triangles(&v1), want, "v1 count differs from text");

    // So does the serve catalog.
    let mut catalog = light::serve::GraphCatalog::new();
    catalog.load_spec(&format!("old={}", v1.display())).unwrap();
    let entry = catalog.get("old").unwrap();
    assert_eq!(entry.format, "snapshot");
    assert_eq!(entry.backend(), "heap");
    let served = run_query(
        &Query::Triangle.pattern(),
        &entry.graph(),
        &EngineConfig::light(),
    );
    assert_eq!(served.matches, want, "catalog count differs from text");

    // `light convert` with no `--to` upgrades it to v2 ...
    let up = dir.join("g.v2");
    run_ok(&["convert", v1.to_str().unwrap(), up.to_str().unwrap()]);
    let bytes = std::fs::read(&up).unwrap();
    assert_eq!(&bytes[..8], b"LIGHTCSR");
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
    assert_eq!(cli_triangles(&up), want);

    // ... which opens zero-copy.
    let stats = run_ok(&["stats", "--graph", up.to_str().unwrap()]);
    let backend = stats
        .lines()
        .find_map(|l| l.strip_prefix("backend:"))
        .unwrap_or_else(|| panic!("no backend line in {stats}"))
        .trim();
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    assert_eq!(backend, "mmap", "{stats}");
    #[cfg(not(all(target_os = "linux", target_endian = "little")))]
    assert_eq!(backend, "heap", "{stats}");

    std::fs::remove_dir_all(&dir).ok();
}
