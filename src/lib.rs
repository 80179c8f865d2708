//! # Doppio (Rust reproduction)
//!
//! A faithful Rust reproduction of **"Doppio: Breaking the Browser
//! Language Barrier"** (John Vilk and Emery D. Berger, PLDI 2014).
//!
//! Doppio is a runtime system that lets unmodified applications written
//! in conventional programming languages run inside a web browser. This
//! workspace rebuilds the whole stack over a *simulated* browser
//! substrate (see `DESIGN.md` for the substitution record):
//!
//! * [`jsengine`] — the simulated single-threaded browser environment:
//!   event loop, virtual clock, browser profiles, storage mechanisms.
//! * [`buffer`] — the Node-style `Buffer` module (§5.1).
//! * [`heap`] — the unmanaged heap: a first-fit allocator (§5.2).
//! * [`core`] — the execution environment: suspend-and-resume, event
//!   segmentation, cooperative threads, async→sync bridging (§4).
//! * [`fs`] — the file system with pluggable storage backends (§5.1).
//! * [`sockets`] — TCP sockets over emulated WebSockets (§5.3).
//! * [`classfile`] — JVM class-file reading/writing.
//! * [`jvm`] — DoppioJVM, the JVM interpreter case study (§6).
//! * [`minijava`] — a Java-subset compiler used to author workloads.
//! * [`workloads`] — the benchmark programs of §7.
//! * [`trace`] — the structured tracing layer: spans, counters,
//!   log-bucketed latency histograms, and a virtual-clock sampling
//!   profiler, exported as Chrome `trace_event` JSON, Prometheus text,
//!   and folded stacks (see `docs/observability.md`).
//! * [`report`] — the end-of-run [`report::RunReport`]: histogram
//!   percentiles, profiler top frames, fault counts, and trace-drop
//!   stats as one markdown/JSON artifact.
//! * [`prng`] — a small deterministic PRNG (SplitMix64) used by
//!   workload generators and randomized tests.
//! * [`faults`] — seeded, virtual-clock-driven fault injection for the
//!   network fabric and fs backends, plus the retry/backoff policies
//!   that recover from it (see `docs/robustness.md`).
//! * [`scale`] — the multi-tenant scale harness: shard K independent
//!   tenant simulations across OS threads and deterministically merge
//!   their reports into one `ScaleReport` (see `docs/scale.md`).
//! * [`storage`] — a simulated replicated object store behind the FS
//!   backend trait: primary/backup replication with acks over
//!   [`sockets`], a write-back journal with idempotent replay, and a
//!   client cache tier with push invalidation, plus the history
//!   recorder and read-your-writes/linearizability oracles its
//!   crash-consistency harness is built on (see `docs/storage.md`).
//!
//! # Quick start
//!
//! Run a JVM program inside a simulated Chrome:
//!
//! ```
//! use doppio::jsengine::{Browser, Engine};
//!
//! let engine = Engine::new(Browser::Chrome);
//! assert_eq!(engine.browser(), Browser::Chrome);
//! ```
//!
//! Or host several guest programs as processes on one [`Kernel`] —
//! pids, pipes, signals, `waitpid` — all on one deterministic event
//! loop:
//!
//! ```
//! use doppio::{Kernel, SpawnOptions};
//! use doppio::core::{PipeWrite, ThreadStep};
//!
//! let kernel = Kernel::new();
//! let pipe = kernel.pipe();
//! let k = kernel.clone();
//! let mut sent = false;
//! let p = kernel.spawn_fn(SpawnOptions::new("greeter").stdout(pipe), move |ctx| {
//!     if sent { return ThreadStep::Finished; }
//!     sent = true;
//!     match k.write_pipe(ctx, pipe, b"hello").expect("live pipe") {
//!         PipeWrite::Wrote(_) => ThreadStep::Yielded,
//!         PipeWrite::WouldBlock => ThreadStep::Blocked,
//!         PipeWrite::Broken => ThreadStep::Finished,
//!     }
//! });
//! let status = p.wait().unwrap();
//! assert!(status.success());
//! assert_eq!(kernel.host_read(pipe).unwrap(), b"hello");
//! ```
//!
//! See `examples/quickstart.rs` for the single-JVM pipeline (compile
//! MiniJava source to class files, mount them on the Doppio file
//! system, run them in DoppioJVM under event segmentation) and
//! `examples/shell_pipeline.rs` for the multi-process version: three
//! JVM processes connected by pipes, `disasm | grep | wc`-style, with
//! per-pid deadlock blame and a per-process run report. `docs/kernel.md`
//! covers the process model and the `Engine` → `Kernel` migration.

pub use doppio_buffer as buffer;
pub use doppio_classfile as classfile;
pub use doppio_core as core;
pub use doppio_core::report;
pub use doppio_faults as faults;
pub use doppio_fs as fs;
pub use doppio_heap as heap;
pub use doppio_jsengine as jsengine;
pub use doppio_jvm as jvm;
pub use doppio_minijava as minijava;
pub use doppio_prng as prng;
pub use doppio_scale as scale;
pub use doppio_schedtest as schedtest;
pub use doppio_sockets as sockets;
pub use doppio_storage as storage;
pub use doppio_trace as trace;
pub use doppio_workloads as workloads;

// The kernel/process API and the engine builder, at the crate root:
// `doppio::Kernel` is the multi-guest entry point, and
// `EngineBuilder::build_on(&kernel)` (via [`BuildOnKernel`]) is how a
// configured engine becomes a kernel's event loop.
pub use doppio_core::{BuildOnKernel, ExitStatus, Kernel, Pid, Process, Signal, SpawnOptions};
pub use doppio_jsengine::EngineBuilder;
