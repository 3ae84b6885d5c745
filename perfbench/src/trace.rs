//! In-memory span tracing around calls into the library's layers.
//!
//! A span records a layer name, a start, an end and the span that caused
//! it (the span open on the same thread when it began).  Tracing is off
//! unless [`set_enabled`] turns it on: then [`span`] costs one relaxed atomic load
//! and nothing else, so the untraced run measures the program alone.
//!
//! Each thread keeps its own tracer.  Closing a span adds its duration to
//! its parent's child time, so a layer's *self time* (its duration minus
//! the part its child spans cover) is exact without a post-pass.  Every
//! span feeds the per-layer totals; the first [`RAW_SPAN_CAP`] spans of each
//! layer and thread are also kept whole and written out by [`write_jsonl`].

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Spans of one layer kept whole per thread; later ones only feed the
/// totals (so idle pumps cannot crowd rarer layers out of the file).
pub const RAW_SPAN_CAP: usize = 10_000;

/// The layer boundaries the benchmark traces, named `layer.call`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The measured phase of a serving workload (driving thread).
    ServePhase,
    /// One design iteration of `fusion-design` (jobs a, b and c).
    DesignIteration,
    /// `ClientHandle::try_push` on the generator thread.
    IngestPush,
    /// `IngestPipeline::pump`, dispatch excluded by self time.
    IngestPump,
    /// `IngestPipeline::mark_up_replay`: the diverted backlog replay.
    IngestBacklogReplay,
    /// `IngestPipeline::kill_server`.
    IngestKill,
    /// `ServerGroup::apply_batch` / `apply_batch_to` (channel hop).
    ParallelDispatch,
    /// `ParallelServerGroup::request_reports`.
    ParallelMarker,
    /// `ParallelServerGroup::try_recv_report`.
    ParallelReply,
    /// `ServerGroup::try_collect_reports`.
    ParallelCollect,
    /// `ServerGroup::restart_process` (snapshot + WAL replay).
    RecoveryRestart,
    /// `ServerGroup::resync`.
    RecoveryResync,
    /// `FusedSystem::recover_external` (Algorithm 3 decode).
    SystemDecode,
    /// `FusionSession::build_product`.
    ProductBuild,
    /// `FusionSession::generate_fusion` / `generate_top_fusion`.
    GenerateSearch,
    /// `FusionSession::update_top`.
    DeltaUpdate,
    /// `FaultGraph::from_partitions`.
    FaultGraphBuild,
    /// `FaultGraph::weakest_edges`.
    FaultGraphWeakest,
    /// `FaultGraph::speculate`.
    FaultGraphSpeculate,
    /// `ClosureKernel::close_merged`.
    ClosedCloseMerged,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 20;

impl Layer {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ServePhase => "serve.phase",
            Layer::DesignIteration => "design.iteration",
            Layer::IngestPush => "ingest.push",
            Layer::IngestPump => "ingest.pump",
            Layer::IngestBacklogReplay => "ingest.backlog_replay",
            Layer::IngestKill => "ingest.kill",
            Layer::ParallelDispatch => "parallel.dispatch",
            Layer::ParallelMarker => "parallel.marker",
            Layer::ParallelReply => "parallel.reply",
            Layer::ParallelCollect => "parallel.collect",
            Layer::RecoveryRestart => "recovery.restart",
            Layer::RecoveryResync => "recovery.resync",
            Layer::SystemDecode => "system.decode",
            Layer::ProductBuild => "product.build",
            Layer::GenerateSearch => "generate.search",
            Layer::DeltaUpdate => "delta.update",
            Layer::FaultGraphBuild => "fault_graph.build",
            Layer::FaultGraphWeakest => "fault_graph.weakest_edges",
            Layer::FaultGraphSpeculate => "fault_graph.speculate",
            Layer::ClosedCloseMerged => "closed.close_merged",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-layer totals: calls, summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times (duration minus child-span cover).
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per span, in nanoseconds (0 without spans).
    pub fn mean_total_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean self time per span, in nanoseconds (0 without spans).
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// One closed span as written out.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Trace-wide span id.
    pub id: u64,
    /// Id of the span that was open on this thread when this one began
    /// (0 for a root span).
    pub parent: u64,
    /// The layer boundary.
    pub layer: Layer,
    /// Start, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace origin.
    pub end_ns: u64,
}

/// Everything one thread recorded.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Per-layer totals, indexed by [`Layer`].
    pub totals: [Totals; LAYERS],
    /// The first [`RAW_SPAN_CAP`] spans closed per layer.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            totals: [Totals::default(); LAYERS],
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// The totals of one layer.
    pub fn get(&self, layer: Layer) -> Totals {
        self.totals[layer.index()]
    }

    /// Folds another thread's trace into this one.
    pub fn merge(&mut self, other: Trace) {
        for (a, b) in self.totals.iter_mut().zip(other.totals) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
        self.spans.extend(other.spans);
    }
}

struct Open {
    id: u64,
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Default)]
struct Tracer {
    stack: Vec<Open>,
    trace: Trace,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Turns span recording on or off (traced runs alternate to measure
/// their own overhead).
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span of `layer` when tracing is on.
#[inline]
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    TRACER.with(|t| {
        t.borrow_mut().stack.push(Open {
            id,
            layer,
            start_ns: now_ns(),
            child_ns: 0,
        })
    });
    let out = f();
    let end_ns = now_ns();
    TRACER.with(|t| {
        let Tracer { stack, trace } = &mut *t.borrow_mut();
        let open = stack.pop().expect("span stack balanced");
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = match stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let totals = &mut trace.totals[open.layer.index()];
        totals.count += 1;
        totals.total_ns += dur;
        totals.self_ns += dur.saturating_sub(open.child_ns);
        if totals.count as usize <= RAW_SPAN_CAP {
            trace.spans.push(Span {
                id: open.id,
                parent,
                layer: open.layer,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    });
    out
}

/// The calling thread's totals of one layer so far.
pub fn current(layer: Layer) -> Totals {
    TRACER.with(|t| t.borrow().trace.get(layer))
}

/// Takes everything the calling thread recorded so far.
pub fn take() -> Trace {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().trace))
}

/// Writes spans as JSON lines (`id`, `parent`, `name`, `start_ns`,
/// `end_ns`), sorted by start.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut sorted = spans.to_vec();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &sorted {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        span(Layer::IngestPump, || {
            span(Layer::ParallelDispatch, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let t = take();
        let pump = t.get(Layer::IngestPump);
        let dispatch = t.get(Layer::ParallelDispatch);
        assert_eq!(pump.count, 1);
        assert!(dispatch.total_ns >= 2_000_000);
        assert!(pump.self_ns < pump.total_ns);
        assert_eq!(pump.self_ns + dispatch.total_ns, pump.total_ns);
        let child = t.spans.iter().find(|s| s.layer == Layer::ParallelDispatch);
        let parent = t.spans.iter().find(|s| s.layer == Layer::IngestPump);
        assert_eq!(child.unwrap().parent, parent.unwrap().id);
    }
}
