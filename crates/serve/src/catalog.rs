//! The graph catalog: named data graphs, loaded once, shared by every
//! query for the lifetime of the daemon — and, since the dynamic-graph
//! work, *mutable* through batched edge updates.
//!
//! This is the amortization the paper's serving story assumes — load and
//! preprocess the data graph once, answer many queries against it. Each
//! entry holds its serving state behind a read/write lock: a
//! [`DeltaGraph`] overlay (immutable base CSR plus pending edge buffers),
//! the materialized merged view workers borrow concurrently, the
//! [`GraphStats`] of that view (one full pass at load, then maintained
//! incrementally by every commit), and a monotone **generation** counter
//! that bumps on every successful update. The generation is the
//! cache-invalidation contract: plan-cache keys embed it, so a mutation
//! can never serve a stale plan (see DESIGN.md §17).
//!
//! Entries come from three sources:
//!
//! * binary `LIGHTCSR` snapshots (`light convert` output) — the fast path;
//! * SNAP-style text edge lists — parsed and relabeled on load;
//! * `dataset:<name>[@scale]` specs — the built-in simulated datasets.
//!
//! Every graph is normalized to the degree-ordered ID space on the way in
//! (symmetry breaking relies on it, see `light_graph::ordered`): text
//! lists are always relabeled; snapshots are trusted but verified, and
//! relabeled with a warning if they fail the check. Mutated graphs are
//! *not* re-normalized — the engine only needs a fixed total vertex order
//! for symmetry breaking, and relabeling live IDs would break clients.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use light_graph::datasets::Dataset;
use light_graph::delta::{ApplyReport, DeltaGraph};
use light_graph::io::{FileStamp, GraphFormat};
use light_graph::stats::{compute_stats, GraphStats};
use light_graph::{CsrGraph, VertexId};
use light_parallel::{compute_stats_parallel, ParallelConfig};

/// The mutable serving state of one entry, swapped atomically under the
/// entry's write lock on every committed update.
#[derive(Debug)]
struct LiveState {
    /// Base CSR plus pending insert/delete buffers.
    delta: DeltaGraph,
    /// The materialized current view (`delta.merged_arc()`, cached).
    /// Clean overlays alias the base `Arc` — zero copy.
    graph: Arc<CsrGraph>,
    /// Stats of `graph`: the full pass ran once, at load; every commit
    /// since stepped them with [`GraphStats::after_update`].
    stats: GraphStats,
    /// Storage backend of the *base* (`"heap"` or `"mmap"`).
    backend: &'static str,
    /// SIGBUS guard for mmap-backed bases: the backing file's fingerprint
    /// at map time. Heap-backed state carries `None`.
    stamp: Option<FileStamp>,
    /// Monotone update counter. Starts at 0 on load; every committed
    /// update (including pure compactions) increments it.
    generation: u64,
}

/// One generation of an entry, read under one lock: the merged view, the
/// generation it belongs to, and that view's stats. A query takes one at
/// its start, so its plan-cache key, planning statistics, aux-store stamp
/// and execution graph can never straddle an update.
#[derive(Debug, Clone)]
pub struct GraphView {
    /// The merged view workers enumerate.
    pub graph: Arc<CsrGraph>,
    /// The entry generation `graph` is (0 until the first update commits).
    pub generation: u64,
    /// The stats of `graph`.
    pub stats: GraphStats,
}

/// The result of one committed [`CatalogEntry::apply_update`] batch.
#[derive(Debug)]
pub struct UpdateOutcome {
    /// The entry's generation *after* the commit.
    pub generation: u64,
    /// Normalized edges whose presence actually changed.
    pub report: ApplyReport,
    /// The merged view before the batch (for delta counting).
    pub pre: Arc<CsrGraph>,
    /// The merged view after the batch.
    pub post: Arc<CsrGraph>,
    /// Pending overlay edges after the batch (0 if compacted).
    pub pending: usize,
    /// Whether this update folded the overlay into a fresh base (and, for
    /// snapshot-backed entries, rewrote + re-stamped the snapshot file).
    pub compacted: bool,
}

/// One named graph resident in the daemon.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Catalog name clients address the graph by.
    pub name: String,
    /// Where the graph came from (path or dataset spec).
    pub source: String,
    /// Source format (`"snapshot"`, `"edge-list"`, `"dataset"`, `"memory"`).
    pub format: &'static str,
    /// Wall-clock load + normalization + stats time, milliseconds.
    pub load_ms: f64,
    /// Sticky health flag, shared across clones. Flips to `false` the
    /// first time [`CatalogEntry::check_health`] sees the backing file
    /// shrunk, replaced, or modified — and flips back **only** when the
    /// entry itself replaces the file (compaction rewrites the snapshot
    /// and re-stamps; an external replacement stays fatal).
    pub healthy: Arc<AtomicBool>,
    /// Serving state, shared across clones.
    live: Arc<RwLock<LiveState>>,
    /// Serializes writers: updates are prepared off-lock and committed
    /// under `live`'s write lock, so only one batch may be in flight.
    update_lock: Arc<Mutex<()>>,
    /// Whether compaction re-opens rewritten snapshots through mmap.
    prefer_mmap: bool,
}

/// Read-lock with poison recovery: a writer that panicked *before* the
/// commit left the previous consistent state in place (see
/// [`CatalogEntry::apply_update`]), so serving through poison is safe.
fn read_recover<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

fn write_recover<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

impl CatalogEntry {
    /// The current merged view. Cheap: one read lock + `Arc` clone.
    pub fn graph(&self) -> Arc<CsrGraph> {
        Arc::clone(&read_recover(&self.live).graph)
    }

    /// The current generation: view, generation number and stats, read
    /// under one lock. The only way to the entry's stats — the planner and
    /// the `catalog` op read the same value.
    pub fn view(&self) -> GraphView {
        let st = read_recover(&self.live);
        GraphView {
            graph: Arc::clone(&st.graph),
            generation: st.generation,
            stats: st.stats,
        }
    }

    /// Storage backend of the current base (`"heap"` or `"mmap"`).
    pub fn backend(&self) -> &'static str {
        read_recover(&self.live).backend
    }

    /// The entry's update generation (0 until the first update commits).
    pub fn generation(&self) -> u64 {
        read_recover(&self.live).generation
    }

    /// Pending overlay edges not yet folded into the base.
    pub fn pending_edges(&self) -> usize {
        read_recover(&self.live).delta.pending_edges()
    }

    /// Apply one batch of edge deletes-then-inserts, commit it
    /// transactionally, and bump the generation.
    ///
    /// The batch is prepared on a *clone* of the overlay while readers
    /// keep serving the old state; nothing is published until the final
    /// commit under the write lock. A panic anywhere before the commit
    /// (the `serve::update_apply` failpoint sits between preparation and
    /// commit) leaves the old generation, graph, and stats fully intact.
    ///
    /// The new stats are stepped from the old ones over the changed edges
    /// only, so a commit costs `O(|V| + Σ_{changed e} (d(u) + d(v)))` on
    /// top of the `O(|V| + |E|)` merged-CSR copy.
    ///
    /// Compaction runs when `force_compact` is set or the post-batch
    /// overlay holds at least `compact_threshold` pending edges: the
    /// buffers fold into a fresh base and, for snapshot-backed entries,
    /// the v2 snapshot is atomically rewritten at `source`, re-opened
    /// (mmap when preferred), and re-stamped — after which the sticky
    /// health flag is deliberately reset, because *this* replacement is
    /// ours (the bugfix for treating every replaced file as fatal).
    ///
    /// # Errors
    /// On compaction I/O failure the whole batch is rejected and the old
    /// state stays live.
    pub fn apply_update(
        &self,
        deletes: &[(VertexId, VertexId)],
        inserts: &[(VertexId, VertexId)],
        compact_threshold: Option<usize>,
        force_compact: bool,
    ) -> Result<UpdateOutcome, String> {
        // One writer at a time; poison means a previous writer panicked
        // pre-commit, which left `live` consistent — recover and proceed.
        let _writer = self.update_lock.lock().unwrap_or_else(|p| p.into_inner());

        // Snapshot the current state under a short read lock.
        let (mut delta, pre, pre_stats) = {
            let st = read_recover(&self.live);
            (st.delta.clone(), Arc::clone(&st.graph), st.stats)
        };

        let report = delta.apply(deletes, inserts);
        let post = delta.merged_arc();
        let stats = pre_stats.after_update(&pre, &post, &report.deleted, &report.inserted);
        debug_assert_eq!(stats, compute_stats(&post));

        let compact =
            force_compact || compact_threshold.is_some_and(|t| t > 0 && delta.pending_edges() >= t);
        let mut new_stamp = None;
        let mut new_backend = None;
        if compact && delta.is_dirty() {
            delta.compact();
            if self.format == GraphFormat::Snapshot.name() {
                // Durable compaction: atomically rewrite the snapshot the
                // entry was loaded from, re-open (zero-copy when mmap is
                // preferred), and swap the fresh mapping in as the base.
                light_graph::io::save_snapshot_v2(&post, &self.source)
                    .map_err(|e| format!("compaction: cannot rewrite {}: {e}", self.source))?;
                let (reopened, _) = light_graph::io::open_any(&self.source, self.prefer_mmap)
                    .map_err(|e| format!("compaction: cannot reopen {}: {e}", self.source))?;
                let backend = reopened.backend().name();
                delta.rebase(Arc::new(reopened))?;
                new_stamp = Some(if backend == "mmap" {
                    FileStamp::of(&self.source).ok()
                } else {
                    None
                });
                new_backend = Some(backend);
            }
        }

        // Everything is computed; a panic up to here (this is the chaos
        // harness's injection site) must leave the old generation live.
        light_failpoint::fail_point!("serve::update_apply");

        let generation = {
            let mut st = write_recover(&self.live);
            st.generation += 1;
            st.graph = if compact {
                // Serve through the (possibly re-mapped) compacted base.
                Arc::clone(delta.base())
            } else {
                Arc::clone(&post)
            };
            st.stats = stats;
            if let Some(stamp) = new_stamp {
                st.stamp = stamp;
            }
            if let Some(backend) = new_backend {
                st.backend = backend;
            }
            let pending = delta.pending_edges();
            debug_assert!(!compact || pending == 0);
            st.delta = delta;
            st.generation
        };
        if compact && self.format == GraphFormat::Snapshot.name() {
            // We replaced the file ourselves and re-stamped against the
            // new inode: the entry is healthy again by construction.
            self.healthy.store(true, Ordering::Relaxed);
        }
        let pending = self.pending_edges();
        Ok(UpdateOutcome {
            generation,
            report,
            pre,
            post,
            pending,
            compacted: compact,
        })
    }

    /// Re-stat the backing file of an mmap-backed entry and return whether
    /// it is still safe to serve from. Cheap (one `stat`), called on the
    /// `health`/`catalog` ops and before every query. Unhealthy is sticky
    /// against *external* file changes; only the entry's own compaction
    /// (which re-maps and re-stamps) resets it.
    pub fn check_health(&self) -> bool {
        if !self.healthy.load(Ordering::Relaxed) {
            return false;
        }
        let Some(recorded) = read_recover(&self.live).stamp else {
            return true;
        };
        // A stat failure means the file is gone (unlinked without a
        // replacement): the mapping is still readable per POSIX, but the
        // graph can never be reloaded — treat it like a replacement.
        let ok = match FileStamp::of(&self.source) {
            Ok(fresh) => recorded.still_valid(&fresh),
            Err(_) => false,
        };
        if !ok {
            self.healthy.store(false, Ordering::Relaxed);
        }
        ok
    }
}

/// The set of graphs a daemon serves, addressed by name.
#[derive(Debug)]
pub struct GraphCatalog {
    entries: Vec<CatalogEntry>,
    prefer_mmap: bool,
    load_threads: usize,
}

impl Default for GraphCatalog {
    fn default() -> Self {
        GraphCatalog {
            entries: Vec::new(),
            // Zero-copy open is the daemon's whole value proposition for
            // v2 snapshots; opt out per-daemon with `--no-mmap`.
            prefer_mmap: true,
            load_threads: 1,
        }
    }
}

impl GraphCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        GraphCatalog::default()
    }

    /// Whether v2 snapshots open zero-copy through mmap (default) or are
    /// decoded onto the heap. Affects entries loaded *after* the call.
    pub fn set_prefer_mmap(&mut self, prefer: bool) {
        self.prefer_mmap = prefer;
    }

    /// Threads the load-time stats pass of each entry runs on (default 1;
    /// the daemon passes its threads-per-query). Affects entries loaded
    /// *after* the call.
    pub fn set_load_threads(&mut self, threads: usize) {
        self.load_threads = threads.max(1);
    }

    /// Wrap a normalized graph as an entry: the one full stats pass of the
    /// entry's lifetime runs here.
    fn new_entry(
        &self,
        name: &str,
        source: &str,
        format: &'static str,
        graph: CsrGraph,
        stamp: Option<FileStamp>,
        load_started: Instant,
    ) -> CatalogEntry {
        // Warm hint for mapped graphs: start readahead on the CSR arrays
        // now so the stats pass below (and the first query) fault fewer
        // cold pages. Advice only — the pages stay evictable.
        graph.advise_willneed();
        let stats = compute_stats_parallel(&graph, &ParallelConfig::new(self.load_threads));
        let backend = graph.backend().name();
        let graph = Arc::new(graph);
        CatalogEntry {
            name: name.to_string(),
            source: source.to_string(),
            format,
            load_ms: load_started.elapsed().as_secs_f64() * 1e3,
            healthy: Arc::new(AtomicBool::new(true)),
            live: Arc::new(RwLock::new(LiveState {
                delta: DeltaGraph::new(Arc::clone(&graph)),
                graph,
                stats,
                backend,
                stamp,
                generation: 0,
            })),
            update_lock: Arc::new(Mutex::new(())),
            prefer_mmap: self.prefer_mmap,
        }
    }

    /// Load a comma-separated catalog spec: `name=path` entries where the
    /// path is a snapshot or edge list (auto-detected by magic bytes), or
    /// `name=dataset:<ds>[@scale]` for a built-in simulated dataset
    /// (default scale 0.1). Duplicate names are an error.
    pub fn load_spec(&mut self, spec: &str) -> Result<(), String> {
        for item in spec.split(',').filter(|s| !s.is_empty()) {
            let (name, source) = item
                .split_once('=')
                .ok_or_else(|| format!("catalog entry {item:?}: expected name=path"))?;
            self.load_entry(name, source)?;
        }
        Ok(())
    }

    /// Load one `name = source` catalog entry (see [`Self::load_spec`]).
    pub fn load_entry(&mut self, name: &str, source: &str) -> Result<(), String> {
        if name.is_empty() {
            return Err(format!("catalog entry for {source:?}: empty name"));
        }
        if self.get(name).is_some() {
            return Err(format!("duplicate catalog name {name:?}"));
        }
        let start = Instant::now();
        let (raw, format) = if let Some(spec) = source.strip_prefix("dataset:") {
            let (ds_name, scale) = match spec.split_once('@') {
                Some((d, s)) => (
                    d,
                    s.parse::<f64>()
                        .map_err(|e| format!("catalog entry {name:?}: bad scale {s:?}: {e}"))?,
                ),
                None => (spec, 0.1),
            };
            let ds = Dataset::ALL
                .into_iter()
                .find(|d| d.name() == ds_name)
                .ok_or_else(|| format!("catalog entry {name:?}: unknown dataset {ds_name:?}"))?;
            (ds.build_scaled(scale), "dataset")
        } else {
            let (g, f) = light_graph::io::open_any(source, self.prefer_mmap)
                .map_err(|e| format!("catalog entry {name:?}: cannot load {source}: {e}"))?;
            (g, f.name())
        };
        // Normalize to the degree-ordered ID space symmetry breaking needs.
        // Datasets are built ordered and snapshots are written ordered by
        // `light convert`, so the relabel is usually a no-op check.
        let graph = if light_graph::ordered::is_degree_ordered(&raw) {
            raw
        } else {
            if format == GraphFormat::Snapshot.name() {
                eprintln!(
                    "warning: snapshot {source} is not degree-ordered; relabeling \
                     (regenerate it with `light convert` to skip this)"
                );
            }
            light_graph::ordered::into_degree_ordered(&raw).0
        };
        // Only mmap-backed graphs can SIGBUS on file truncation; stamp
        // them at map time so health checks can catch it first.
        let stamp = if graph.backend().name() == "mmap" {
            FileStamp::of(source).ok()
        } else {
            None
        };
        let entry = self.new_entry(name, source, format, graph, stamp, start);
        self.entries.push(entry);
        Ok(())
    }

    /// Insert an already-built graph (tests, embedding). The graph is
    /// relabeled if it is not degree-ordered.
    pub fn insert(&mut self, name: &str, g: CsrGraph) -> Result<(), String> {
        if self.get(name).is_some() {
            return Err(format!("duplicate catalog name {name:?}"));
        }
        let start = Instant::now();
        let graph = if light_graph::ordered::is_degree_ordered(&g) {
            g
        } else {
            light_graph::ordered::into_degree_ordered(&g).0
        };
        let entry = self.new_entry(name, "<memory>", "memory", graph, None, start);
        self.entries.push(entry);
        Ok(())
    }

    /// Look up an entry by name.
    pub fn get(&self, name: &str) -> Option<&CatalogEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The sole entry, when the catalog has exactly one — lets clients
    /// omit `"graph"` on single-graph daemons.
    pub fn sole_entry(&self) -> Option<&CatalogEntry> {
        match self.entries.as_slice() {
            [one] => Some(one),
            _ => None,
        }
    }

    /// All entries in load order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Number of resident graphs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Re-check every entry's backing file (the mmap SIGBUS guard) and
    /// return `(healthy, total)`. Entries that fail stay unhealthy.
    pub fn check_health(&self) -> (usize, usize) {
        let healthy = self.entries.iter().filter(|e| e.check_health()).count();
        (healthy, self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use light_graph::generators;

    #[test]
    fn loads_both_file_formats_and_normalizes() {
        let dir = std::env::temp_dir().join("light_serve_catalog_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = generators::barabasi_albert(120, 3, 9);
        let text = dir.join("g.txt");
        let bin = dir.join("g.bin");
        light_graph::io::write_edge_list(&g, std::fs::File::create(&text).unwrap()).unwrap();
        light_graph::io::save_snapshot(&g, &bin).unwrap();

        let mut cat = GraphCatalog::new();
        cat.load_spec(&format!("t={},b={}", text.display(), bin.display()))
            .unwrap();
        assert_eq!(cat.len(), 2);
        let t = cat.get("t").unwrap();
        let b = cat.get("b").unwrap();
        assert_eq!(t.format, "edge-list");
        assert_eq!(b.format, "snapshot");
        // Both normalize to degree-ordered form with identical stats.
        assert!(light_graph::ordered::is_degree_ordered(&t.graph()));
        assert!(light_graph::ordered::is_degree_ordered(&b.graph()));
        assert_eq!(t.view().stats.num_edges, b.view().stats.num_edges);
        assert_eq!(t.view().stats.triangles, b.view().stats.triangles);
        assert!(cat.sole_entry().is_none());
        // v1 snapshots and text lists always decode onto the heap.
        assert_eq!(t.backend(), "heap");
        assert_eq!(b.backend(), "heap");
        // Fresh entries start at generation 0 with a clean overlay.
        assert_eq!(t.generation(), 0);
        assert_eq!(t.pending_edges(), 0);

        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&bin).ok();
    }

    #[test]
    fn v2_snapshot_opens_zero_copy_and_matches_heap() {
        let dir = std::env::temp_dir().join(format!("light_serve_cat_v2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = generators::barabasi_albert(200, 3, 7);
        // Write degree-ordered so the mapped graph is served as-is.
        let (ordered, _) = light_graph::ordered::into_degree_ordered(&g);
        let v2 = dir.join("g.v2");
        light_graph::io::save_snapshot_v2(&ordered, &v2).unwrap();

        let mut mapped = GraphCatalog::new();
        mapped.load_entry("m", v2.to_str().unwrap()).unwrap();
        let mut heap = GraphCatalog::new();
        heap.set_prefer_mmap(false);
        heap.load_entry("h", v2.to_str().unwrap()).unwrap();

        let m = mapped.get("m").unwrap();
        let h = heap.get("h").unwrap();
        assert_eq!(h.backend(), "heap");
        #[cfg(all(target_os = "linux", target_endian = "little"))]
        {
            assert_eq!(m.backend(), "mmap");
            assert_eq!(m.graph().resident_bytes(), 0);
        }
        assert_eq!(*m.graph(), *h.graph());
        assert_eq!(m.view().stats.triangles, h.view().stats.triangles);

        // A truncated v2 file must come back as a typed load error.
        let bytes = std::fs::read(&v2).unwrap();
        let cut = dir.join("cut.v2");
        std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
        let err = GraphCatalog::new()
            .load_entry("c", cut.to_str().unwrap())
            .unwrap_err();
        assert!(err.contains("cannot load"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataset_spec_and_duplicates() {
        let mut cat = GraphCatalog::new();
        cat.load_spec("y=dataset:yt@0.02").unwrap();
        assert_eq!(cat.get("y").unwrap().format, "dataset");
        assert!(cat.sole_entry().is_some());
        assert!(cat
            .load_spec("y=dataset:yt@0.02")
            .unwrap_err()
            .contains("duplicate"));
        assert!(cat
            .load_spec("z=dataset:nope")
            .unwrap_err()
            .contains("unknown dataset"));
        assert!(cat
            .load_spec("justapath")
            .unwrap_err()
            .contains("name=path"));
        assert!(cat
            .load_spec("w=dataset:yt@x")
            .unwrap_err()
            .contains("bad scale"));
    }

    #[test]
    fn health_flips_sticky_on_shrunk_or_replaced_snapshot() {
        let dir = std::env::temp_dir().join(format!("light_serve_cat_hp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = generators::barabasi_albert(150, 3, 11);
        let (ordered, _) = light_graph::ordered::into_degree_ordered(&g);
        let v2 = dir.join("h.v2");
        light_graph::io::save_snapshot_v2(&ordered, &v2).unwrap();

        let mut cat = GraphCatalog::new();
        cat.load_entry("h", v2.to_str().unwrap()).unwrap();
        let entry = cat.get("h").unwrap().clone();

        if entry.backend() == "mmap" {
            assert!(entry.check_health());
            assert_eq!(cat.check_health(), (1, 1));

            // Shrink the backing file in place: the classic SIGBUS setup.
            let len = std::fs::metadata(&v2).unwrap().len();
            let f = std::fs::OpenOptions::new().write(true).open(&v2).unwrap();
            f.set_len(len / 2).unwrap();
            drop(f);
            assert!(!entry.check_health(), "shrunk file must flip unhealthy");
            assert_eq!(cat.check_health(), (0, 1));

            // Restoring the file does not help: the mapping is still the
            // truncated inode. Unhealthy is sticky against external writes.
            light_graph::io::save_snapshot_v2(&ordered, &v2).unwrap();
            assert!(!entry.check_health());
            // The clone inside the catalog shares the flag.
            assert!(!cat.get("h").unwrap().check_health());
        } else {
            // Heap fallback hosts: no stamp, always healthy, even after
            // the file disappears — the graph owns its bytes.
            std::fs::remove_file(&v2).ok();
            assert!(entry.check_health());
            assert_eq!(cat.check_health(), (1, 1));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replaced_snapshot_goes_unhealthy() {
        let dir = std::env::temp_dir().join(format!("light_serve_cat_rp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = generators::barabasi_albert(150, 3, 13);
        let (ordered, _) = light_graph::ordered::into_degree_ordered(&g);
        let v2 = dir.join("r.v2");
        light_graph::io::save_snapshot_v2(&ordered, &v2).unwrap();

        let mut cat = GraphCatalog::new();
        cat.load_entry("r", v2.to_str().unwrap()).unwrap();
        if cat.get("r").unwrap().backend() == "mmap" {
            // Replace by rename (the write_atomic idiom): new inode at the
            // same path. Reading the old mapping is safe but stale.
            let tmp = dir.join("r.v2.tmp");
            light_graph::io::save_snapshot_v2(&ordered, &tmp).unwrap();
            std::fs::rename(&tmp, &v2).unwrap();
            assert!(!cat.get("r").unwrap().check_health());
            assert_eq!(cat.check_health(), (0, 1));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_normalizes() {
        // A cycle is degree-regular, so already "ordered"; use a star with
        // shuffled ids via a path graph variant instead: grid is fine.
        let g = generators::grid(5, 5);
        let mut cat = GraphCatalog::new();
        cat.insert("g", g.clone()).unwrap();
        assert!(light_graph::ordered::is_degree_ordered(
            &cat.get("g").unwrap().graph()
        ));
        assert_eq!(cat.get("g").unwrap().view().stats.num_edges, g.num_edges());
    }

    #[test]
    fn apply_update_bumps_generation_and_serves_new_view() {
        let mut cat = GraphCatalog::new();
        cat.insert("g", generators::path(6)).unwrap();
        let e = cat.get("g").unwrap();
        let GraphView {
            graph: g0,
            generation: gen0,
            ..
        } = e.view();
        assert_eq!(gen0, 0);
        let t0 = e.view().stats.triangles;
        assert_eq!(t0, 0);

        // Close a triangle on the path: find an interior vertex (IDs were
        // relabeled by degree ordering) and connect its two neighbors.
        let u = (0..g0.num_vertices() as u32)
            .find(|&v| g0.neighbors(v).len() >= 2)
            .expect("a path of 6 has interior vertices");
        let nbrs: Vec<u32> = g0.neighbors(u).to_vec();
        let out = e
            .apply_update(&[], &[(nbrs[0], nbrs[1])], None, false)
            .unwrap();
        assert_eq!(out.generation, 1);
        assert_eq!(e.generation(), 1);
        assert_eq!(out.report.inserted.len(), 1);
        assert!(!out.compacted);
        assert_eq!(out.pending, 1);
        assert_eq!(e.view().stats.triangles, t0 + 1);
        assert_eq!(e.graph().num_edges(), g0.num_edges() + 1);
        // The pre/post views bracket the batch.
        assert_eq!(out.pre.num_edges(), g0.num_edges());
        assert_eq!(out.post.num_edges(), g0.num_edges() + 1);

        // Idempotent re-insert: still bumps the generation (the catalog
        // cannot know the caller's intent), changes nothing else.
        let out2 = e
            .apply_update(&[], &[(nbrs[0], nbrs[1])], None, false)
            .unwrap();
        assert_eq!(out2.generation, 2);
        assert!(out2.report.inserted.is_empty());
        assert_eq!(out2.report.dup_inserts, 1);

        // Threshold compaction folds the overlay (memory entry: no file).
        // Deleting a *base* edge keeps the overlay dirty (deleting the
        // overlay-added chord would cancel back to clean), and breaks the
        // triangle just as well.
        let out3 = e
            .apply_update(&[(u, nbrs[0])], &[], Some(1), false)
            .unwrap();
        assert!(out3.compacted);
        assert_eq!(out3.pending, 0);
        assert_eq!(e.pending_edges(), 0);
        assert_eq!(e.view().stats.triangles, 0);
        assert_eq!(e.generation(), 3);
    }

    #[test]
    fn compaction_rewrites_snapshot_and_stays_healthy() {
        let dir = std::env::temp_dir().join(format!("light_serve_cat_cp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = generators::barabasi_albert(150, 3, 17);
        let (ordered, _) = light_graph::ordered::into_degree_ordered(&g);
        let v2 = dir.join("c.v2");
        light_graph::io::save_snapshot_v2(&ordered, &v2).unwrap();

        let mut cat = GraphCatalog::new();
        cat.load_entry("c", v2.to_str().unwrap()).unwrap();
        let e = cat.get("c").unwrap();
        let n = e.graph().num_vertices() as u32;
        let edges0 = e.graph().num_edges();

        // Mutate, then force a durable compaction.
        let out = e
            .apply_update(&[], &[(0, n - 1), (1, n - 1)], None, true)
            .unwrap();
        assert!(out.compacted);
        assert_eq!(out.pending, 0);
        // The snapshot on disk was replaced by the entry itself: the
        // entry re-stamped and must remain healthy (the sticky-unhealthy
        // bugfix), and the rewritten file reloads to the mutated graph.
        assert!(e.check_health(), "self-compaction must not poison health");
        assert_eq!(cat.check_health(), (1, 1));
        let (reloaded, _) = light_graph::io::load_any(v2.to_str().unwrap()).unwrap();
        let served = e.graph();
        assert_eq!(reloaded.num_edges(), served.num_edges());
        assert!(served.num_edges() >= edges0);
        #[cfg(all(target_os = "linux", target_endian = "little"))]
        assert_eq!(e.backend(), "mmap", "compaction re-opens zero-copy");

        // A subsequent *external* replacement is still fatal.
        light_graph::io::save_snapshot_v2(&ordered, &v2).unwrap();
        if e.backend() == "mmap" {
            assert!(!e.check_health());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_readers_see_consistent_views_during_updates() {
        let mut cat = GraphCatalog::new();
        cat.insert("g", generators::barabasi_albert(300, 3, 23))
            .unwrap();
        let e = cat.get("g").unwrap().clone();
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let e = e.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // The served view is always a valid simple graph.
                        assert!(e.view().graph.validate().is_ok());
                    }
                })
            })
            .collect();
        let n = e.graph().num_vertices() as u32;
        for i in 0..40u32 {
            let (a, b) = (i % n, (i * 7 + 1) % n);
            if a != b {
                e.apply_update(&[], &[(a, b)], Some(16), false).unwrap();
                e.apply_update(&[(a, b)], &[], Some(16), false).unwrap();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(e.generation() > 0);
    }
}
