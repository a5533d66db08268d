//! # heapmd — heap-based bug finding via anomaly detection
//!
//! A Rust reproduction of *HeapMD: Identifying Heap-based Bugs using
//! Anomaly Detection* (Chilimbi & Ganapathy, ASPLOS 2006).
//!
//! HeapMD observes that, in spite of the heap's evolving nature, several
//! degree-based properties of the **heap-graph** stay stable for a given
//! program. It exploits this in two phases:
//!
//! 1. **Model construction** ([`ModelBuilder`]): run the program on a
//!    training input set, sample the seven degree metrics at *metric
//!    computation points* (every `frq` function entries), classify each
//!    metric's stability from its fluctuation statistics, and record the
//!    `[min, max]` range of the globally stable metrics.
//! 2. **Execution checking** ([`AnomalyDetector`]): on other inputs or
//!    program versions, verify the stable metrics remain within their
//!    calibrated ranges; log call-stacks into a circular buffer whenever
//!    a metric approaches an extreme, and raise a [`BugReport`] when the
//!    range is violated.
//!
//! The mutator-facing entry point is [`Process`], which plays the role
//! of the instrumented binary + execution logger: workloads allocate,
//! free, and write pointers through it, and it keeps the
//! [`heap_graph::HeapGraph`] image, samples metrics, and fans events out
//! to attached [`Monitor`]s.
//!
//! Post-mortem checking replays a recorded trace — an in-memory
//! [`Trace`] or a binary `.hmdt` file ([`BinaryTraceImage`]), which one
//! engine, [`TraceChecker`], replays and checks — through the same
//! detector, and the [`serve`] daemon checks each tenant's stream block
//! by block as it arrives. Every path drives one event core and skips
//! the warm-up the model records, so a trace gets the same verdict
//! whichever way it arrives. A replay is the same stream check with no
//! detector attached.
//!
//! # Quickstart
//!
//! ```
//! use heapmd::{ModelBuilder, Process, Settings};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let settings = Settings::builder().frq(10).build()?;
//!
//! // Train on two inputs of a toy "program" that builds linked lists.
//! let mut builder = ModelBuilder::new(settings.clone());
//! for input in 0..2 {
//!     let mut p = Process::new(settings.clone());
//!     // Names are interned once; the mutators take the ids.
//!     let (build, node_site) = (p.function("build"), p.site("node"));
//!     let mut prev = None;
//!     for i in 0..400 {
//!         p.enter(build);
//!         let node = p.malloc(16, node_site)?;
//!         if let Some(prev) = prev {
//!             p.write_ptr(node, prev)?; // node.next = prev
//!         }
//!         prev = Some(node);
//!         let _ = (input, i);
//!         p.leave();
//!     }
//!     builder.add_run(&p.finish(format!("train-{input}")));
//! }
//! let outcome = builder.build();
//! assert!(!outcome.model.stable_metrics().is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bug;
mod callstack;
mod checkpoint;
mod detector;
mod error;
mod fluctuation;
mod incident;
mod model;
mod monitor;
pub mod persist;
pub mod plot;
mod pool;
mod process;
mod report;
pub mod run_rows;
pub mod serve;
mod settings;
mod stability;
mod trace;
mod trace_codec;

pub use bug::{
    render_verdicts, AnomalyKind, BugCategory, BugReport, DetectionClass, Direction, LogPhase,
    StackLogEntry,
};
pub use callstack::{FuncId, FunctionTable};
pub use checkpoint::{TrainCheckpoint, CHECKPOINT_FORMAT_VERSION};
pub use detector::AnomalyDetector;
pub use error::HeapMdError;
pub use fluctuation::{percent_changes, FluctuationStats};
pub use incident::{
    BundleSalvageStats, DegreeSnapshot, IncidentBundle, IncidentLog, SeriesData, DEGREE_BUCKETS,
    INCIDENT_FORMAT_VERSION, INCIDENT_MAGIC,
};
pub use model::{
    sampling_widen, HeapModel, MetricSummary, ModelBuilder, ModelOutcome, StableMetric,
    MODEL_FORMAT_VERSION,
};
pub use monitor::{Monitor, MonitorCtx};
pub use pool::{available_workers, run_pool_streaming};
pub use process::Process;
pub use report::{MetricReport, MetricSample};
pub use serve::{
    connect_session, push_trace_resumable, Conn, Dialer, RetryPolicy, ServeConfig, ServeSummary,
    Server, SessionClient, SessionOptions, TenantOutcome, SERVE_PREAMBLE_V2,
};
pub use settings::{Settings, SettingsBuilder};
pub use stability::{classify, StabilityClass};
pub use trace::{
    check_binary_sharded, replay_binary, replay_binary_fused, replay_binary_fused_sampled,
    replay_binary_sharded, Trace, TraceCheckOutcome, TraceChecker,
};
pub use trace_codec::{
    encode_sampling_meta, load_trace_auto, sniff_bytes, sniff_file, ArtifactKind, BinaryTraceImage,
    BinaryTraceReader, BinaryTraceWriter, BlockEntry, BlockIndex, SalvageStats, StreamFormat,
    WireFrame, WireReader, BINARY_FORMAT_VERSION, BINARY_MAGIC, EVENTS_PER_BLOCK,
};

// Re-export the metric vocabulary so downstream crates only need `heapmd`.
pub use heap_graph::{ExtendedMetrics, MetricKind, MetricVector, METRIC_COUNT};
pub use sim_heap::{Addr, AllocSite, HeapError, HeapEvent, ObjectId, NULL};

// Re-export the production-overhead sampling front end (see `swat`).
pub use swat::{SampledIngest, SamplerConfig, SamplingInfo};
