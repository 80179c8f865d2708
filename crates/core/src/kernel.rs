//! The Doppio kernel: a Browsix-style process layer over one engine.
//!
//! The paper's endgame is an in-browser OS substrate: many guest
//! programs sharing one event loop, file system, and network. The
//! [`Kernel`] is that substrate's core. It owns the virtual event loop
//! (an [`Engine`]), one [`DoppioRuntime`] whose wait-for graph spans
//! every guest, and a process table. Today's single-JVM embedding
//! becomes just one kind of [`Process`] spawned on it:
//!
//! * [`Kernel::spawn`] starts a guest (any [`GuestThread`] — a JVM
//!   main thread, a JS-style closure) with a pid and argv. Threads the
//!   guest spawns inherit its pid.
//! * [`Kernel::pipe`] creates a bounded byte pipe; [`SpawnOptions`]
//!   wires pipes as a process's stdin/stdout. Reads block on empty,
//!   writes block on full (backpressure), closing the write end
//!   delivers EOF, and a process's ends are released at exit.
//! * [`Kernel::kill`] delivers signals, [`Kernel::waitpid`] collects
//!   an [`ExitStatus`] and reaps the zombie.
//!
//! Everything is scheduled deterministically on the shared virtual
//! clock: same seed, same schedule, byte-identical transcripts. And
//! because every guest blocks through the one shared
//! [`WaitGraph`](crate::WaitGraph),
//! deadlock blame crosses process boundaries — a pipe-full writer
//! stuck on a reader that is `waitpid`-ing the writer is reported as a
//! cycle naming both pids (see
//! [`Resource::PipeWrite`]/[`Resource::Child`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::{Rc, Weak};

use doppio_faults::{FaultPlan, FsFault};
use doppio_jsengine::{Browser, Engine, EngineBuilder};
use doppio_trace::{cat, ArgValue, SpanContext};

use crate::runtime::{
    DoppioRuntime, GuestThread, RuntimeError, ThreadContext, ThreadId, ThreadStep,
};
use crate::waitgraph::Resource;

/// Default pipe buffer size, in bytes (the traditional 64 KiB).
pub const DEFAULT_PIPE_CAPACITY: usize = 65536;

/// Why a kernel call could not be carried out.
///
/// These are the *user-reachable* failure modes — a stale [`Pid`]
/// held after the child was reaped, a forged or long-gone [`PipeId`],
/// a double-closed host pipe end. They used to panic; a multi-tenant
/// host must instead see them as ordinary errors (the POSIX analogs
/// are `ESRCH`, `ECHILD`, `EBADF`). Genuine host programming errors
/// (e.g. attaching two engines) still panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// No process with this pid was ever spawned on this kernel.
    UnknownPid(Pid),
    /// The process has already exited (it cannot be signalled or
    /// exited again).
    AlreadyExited(Pid),
    /// The child's status was already collected by an earlier
    /// `waitpid` (the POSIX `ECHILD` case).
    AlreadyReaped(Pid),
    /// No pipe with this id was ever created on this kernel.
    UnknownPipe(PipeId),
    /// The host end of the pipe was already closed, or was released
    /// to a process by spawn wiring.
    PipeEndClosed(PipeId),
    /// An injected transient fault (see [`Kernel::set_pipe_faults`]):
    /// the operation failed spuriously and may be retried, like a
    /// driver-level `EIO`.
    TransientFault(PipeId),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::UnknownPid(p) => write!(f, "unknown pid {p}"),
            KernelError::AlreadyExited(p) => write!(f, "process {p} has already exited"),
            KernelError::AlreadyReaped(p) => {
                write!(f, "pid {p} was already reaped by an earlier waitpid")
            }
            KernelError::UnknownPipe(p) => write!(f, "unknown {p}"),
            KernelError::PipeEndClosed(p) => {
                write!(f, "host end of {p} already closed or released")
            }
            KernelError::TransientFault(p) => {
                write!(f, "transient I/O fault injected on {p}")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// A process identifier. Pids start at 1 and are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The signals the kernel can deliver. All of them terminate the
/// process (there are no guest-installable handlers); they differ in
/// how the [`ExitStatus`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Interrupt (Ctrl-C).
    Int,
    /// Polite termination request.
    Term,
    /// Immediate, unconditional kill.
    Kill,
    /// Wrote to a pipe with no readers.
    Pipe,
}

impl Signal {
    /// Conventional name (`SIGKILL`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            Signal::Int => "SIGINT",
            Signal::Term => "SIGTERM",
            Signal::Kill => "SIGKILL",
            Signal::Pipe => "SIGPIPE",
        }
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a process ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitStatus {
    /// Ran to completion (or called `exit`) with this code.
    Exited(i32),
    /// Terminated by a signal.
    Signaled(Signal),
}

impl ExitStatus {
    /// The exit code, if the process exited normally.
    pub fn code(&self) -> Option<i32> {
        match self {
            ExitStatus::Exited(c) => Some(*c),
            ExitStatus::Signaled(_) => None,
        }
    }

    /// Shell-style success: exited with code 0.
    pub fn success(&self) -> bool {
        matches!(self, ExitStatus::Exited(0))
    }
}

impl fmt::Display for ExitStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitStatus::Exited(c) => write!(f, "exit({c})"),
            ExitStatus::Signaled(s) => write!(f, "killed({s})"),
        }
    }
}

/// Identifies a kernel pipe. Both "ends" are operations on the same
/// id; end *ownership* (who counts as a reader/writer for EOF and
/// broken-pipe purposes) is established by [`SpawnOptions`] wiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PipeId(pub u64);

impl fmt::Display for PipeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipe#{}", self.0)
    }
}

/// What a process is spawned with: its name, argv, the process group
/// whose FS namespace it shares, and stdin/stdout pipe wiring.
#[derive(Debug, Clone, Default)]
pub struct SpawnOptions {
    /// Process name (shows up in trace lanes, blame lines, reports).
    pub name: String,
    /// Arguments (`args` of the guest's `main`).
    pub argv: Vec<String>,
    /// Process group. Processes in one group share a mountable FS
    /// namespace (see `doppio_fs::FsNamespaces`).
    pub group: Option<String>,
    /// Pipe to read standard input from. The process becomes a holder
    /// of the read end, and the host's hold on it is released.
    pub stdin: Option<PipeId>,
    /// Pipe standard output writes to. The process becomes a holder
    /// of the write end, and the host's hold on it is released.
    pub stdout: Option<PipeId>,
}

impl SpawnOptions {
    /// Options for a process called `name`, no argv or wiring.
    pub fn new(name: impl Into<String>) -> SpawnOptions {
        SpawnOptions {
            name: name.into(),
            ..SpawnOptions::default()
        }
    }

    /// Append one argument.
    pub fn arg(mut self, a: impl Into<String>) -> SpawnOptions {
        self.argv.push(a.into());
        self
    }

    /// Join a process group (shared FS namespace).
    pub fn group(mut self, g: impl Into<String>) -> SpawnOptions {
        self.group = Some(g.into());
        self
    }

    /// Wire standard input to `pipe`.
    pub fn stdin(mut self, pipe: PipeId) -> SpawnOptions {
        self.stdin = Some(pipe);
        self
    }

    /// Wire standard output to `pipe`.
    pub fn stdout(mut self, pipe: PipeId) -> SpawnOptions {
        self.stdout = Some(pipe);
        self
    }
}

/// Outcome of a guest pipe read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipeRead {
    /// Bytes were available (up to the requested max).
    Data(Vec<u8>),
    /// The buffer is empty and every write end is closed.
    Eof,
    /// The buffer is empty but writers remain: the calling thread has
    /// been registered as a waiter and must return
    /// [`ThreadStep::Blocked`].
    WouldBlock,
}

/// Outcome of a guest pipe write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeWrite {
    /// This many bytes were accepted (possibly fewer than offered).
    Wrote(usize),
    /// The buffer is full: the calling thread has been registered as
    /// a waiter and must return [`ThreadStep::Blocked`].
    WouldBlock,
    /// Every read end is closed; the bytes can never be consumed.
    Broken,
}

/// Outcome of a guest `waitpid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPid {
    /// The child has exited; its zombie has been reaped.
    Exited(ExitStatus),
    /// The child is still running: the calling thread has been
    /// registered as a waiter and must return
    /// [`ThreadStep::Blocked`].
    WouldBlock,
}

/// One row of the kernel's process table, for reports.
#[derive(Debug, Clone)]
pub struct ProcessSummary {
    /// Process id.
    pub pid: u32,
    /// Process name.
    pub name: String,
    /// Arguments it was spawned with.
    pub argv: Vec<String>,
    /// Process group, if any.
    pub group: Option<String>,
    /// Rendered exit status (`exit(0)`, `killed(SIGKILL)`), or
    /// `running`.
    pub status: String,
    /// Main-thread slices executed.
    pub slices: u64,
    /// Bytes this process read from pipes.
    pub pipe_in: u64,
    /// Bytes this process wrote to pipes.
    pub pipe_out: u64,
    /// Virtual time of the spawn.
    pub spawned_at_ns: u64,
    /// Virtual time of the exit, if it happened.
    pub exited_at_ns: Option<u64>,
}

type ExitProbe = Rc<dyn Fn() -> Option<ExitStatus>>;

struct Proc {
    name: String,
    argv: Vec<String>,
    group: Option<String>,
    main: ThreadId,
    status: Option<ExitStatus>,
    reaped: bool,
    wait_waiters: Vec<ThreadId>,
    exit_probe: Option<ExitProbe>,
    /// Exit code requested via [`Kernel::exit`] before all threads
    /// finished (closure guests have no other channel for it).
    exit_code: Option<i32>,
    stdout: Option<PipeId>,
    slices: u64,
    pipe_in: u64,
    pipe_out: u64,
    spawned_at_ns: u64,
    exited_at_ns: Option<u64>,
    /// Causal root of the process's request trace (None when causal
    /// tracing is off).
    ctx: Option<SpanContext>,
    /// Tail of the main thread's slice-span chain; the parent of the
    /// next slice span, so inter-slice gaps are attributable edges.
    last_span: Option<SpanContext>,
    /// Pending spawn flow edge, consumed by the first main slice.
    spawn_flow: Option<u64>,
    /// Pending exit flow edge, consumed by the reaping `waitpid`.
    exit_flow: Option<u64>,
}

/// The host's pid as a pipe-end holder: it holds both ends of a pipe
/// it creates, as a process holds the ends it is wired to. Process pids
/// start at 1.
const HOST: u32 = 0;

/// One end of a pipe.
#[derive(Clone, Copy)]
enum End {
    Read,
    Write,
}

struct PipeState {
    buf: VecDeque<u8>,
    capacity: usize,
    /// Who holds the write end ([`HOST`] or pids), in the order they
    /// came to hold it. Readers see EOF once it is empty.
    writers: Vec<u32>,
    /// Who holds the read end, likewise. Writes break once it is empty.
    readers: Vec<u32>,
    read_waiters: Vec<ThreadId>,
    write_waiters: Vec<ThreadId>,
    /// Pending causal flow ids: one per traced write, consumed (in
    /// order) by reads. Bounded so a never-read pipe cannot grow it.
    flows: VecDeque<u64>,
}

/// Cap on un-consumed causal flow tokens per pipe; beyond it new
/// writes stop minting edges (the DAG loses precision, never memory).
const PIPE_FLOW_TOKEN_CAP: usize = 64;

impl PipeState {
    /// Append up to `limit` bytes of `data`, returning how many went in
    /// and the read waiters, who may now make progress.
    fn put(&mut self, data: &[u8], limit: usize) -> (usize, Vec<ThreadId>) {
        let n = limit.min(data.len());
        self.buf.extend(&data[..n]);
        (n, std::mem::take(&mut self.read_waiters))
    }

    /// Drain up to `limit` bytes, with the write waiters once the
    /// buffer has room.
    fn take(&mut self, limit: usize) -> (Vec<u8>, Vec<ThreadId>) {
        let n = limit.min(self.buf.len());
        let data = self.buf.drain(..n).collect();
        let wakes = if self.buf.len() < self.capacity {
            std::mem::take(&mut self.write_waiters)
        } else {
            Vec::new()
        };
        (data, wakes)
    }

    /// Drop one of `holder`'s holds on `end`; `None` if it holds none.
    /// Once the end has no holders left, the other side's waiters come
    /// back, to see EOF or a broken pipe.
    fn release(&mut self, holder: u32, end: End) -> Option<Vec<ThreadId>> {
        let (holders, waiters) = match end {
            End::Read => (&mut self.readers, &mut self.write_waiters),
            End::Write => (&mut self.writers, &mut self.read_waiters),
        };
        let i = holders.iter().position(|&h| h == holder)?;
        holders.remove(i);
        Some(if holders.is_empty() {
            std::mem::take(waiters)
        } else {
            Vec::new()
        })
    }

    /// Spawn wiring: process `pid` takes over the host's hold on `end`.
    fn wire(&mut self, pid: u32, end: End) {
        match end {
            End::Read => self.readers.push(pid),
            End::Write => self.writers.push(pid),
        }
        // The end keeps a holder, so no waiter comes back.
        self.release(HOST, end);
    }
}

struct Host {
    engine: Engine,
    runtime: DoppioRuntime,
}

struct KernelInner {
    host: Option<Host>,
    next_pid: u32,
    next_pipe: u64,
    procs: BTreeMap<u32, Proc>,
    pipes: BTreeMap<u64, PipeState>,
    pipe_faults: Option<FaultPlan>,
    /// Why each thread last blocked, by thread id — consumed when the
    /// thread's next slice begins and recorded as that slice span's
    /// `wait` category (pipe backpressure, a child, a fault delay).
    wait_reasons: BTreeMap<usize, &'static str>,
}

/// The process host. Cheaply cloneable handle; strictly
/// single-threaded, like everything on the simulated browser thread.
///
/// A kernel starts engine-less: attach one with
/// [`EngineBuilder::build_on`](BuildOnKernel::build_on) (full builder
/// configuration) or [`Kernel::on_engine`] (an engine you already
/// have). A kernel that is used without either lazily creates a stock
/// Chrome engine, `EngineBuilder::new(Browser::Chrome).build()`.
#[derive(Clone)]
pub struct Kernel {
    inner: Rc<RefCell<KernelInner>>,
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel::new()
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Kernel")
            .field("processes", &inner.procs.len())
            .field("pipes", &inner.pipes.len())
            .field("attached", &inner.host.is_some())
            .finish()
    }
}

impl Kernel {
    /// An engine-less kernel. The engine attaches on first use (see
    /// the type docs).
    pub fn new() -> Kernel {
        Kernel {
            inner: Rc::new(RefCell::new(KernelInner {
                host: None,
                next_pid: 1,
                next_pipe: 1,
                procs: BTreeMap::new(),
                pipes: BTreeMap::new(),
                pipe_faults: None,
                wait_reasons: BTreeMap::new(),
            })),
        }
    }

    /// A kernel hosting its processes on an existing engine.
    pub fn on_engine(engine: &Engine) -> Kernel {
        let k = Kernel::new();
        k.attach_engine(engine.clone());
        k
    }

    fn attach_engine(&self, engine: Engine) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.host.is_none(), "kernel already has an engine");
        let runtime = DoppioRuntime::new(&engine);
        let weak: Weak<RefCell<KernelInner>> = Rc::downgrade(&self.inner);
        runtime.set_thread_exit_hook(move |tid, tag| {
            if let Some(inner) = weak.upgrade() {
                Kernel { inner }.on_thread_finished(tid, tag);
            }
        });
        inner.host = Some(Host { engine, runtime });
    }

    fn ensure_host(&self) {
        if self.inner.borrow().host.is_none() {
            self.attach_engine(EngineBuilder::new(Browser::Chrome).build());
        }
    }

    /// The engine whose event loop hosts every process.
    pub fn engine(&self) -> Engine {
        self.ensure_host();
        self.inner.borrow().host.as_ref().unwrap().engine.clone()
    }

    /// The shared runtime (schedule-exploration harnesses install
    /// seeded/replay schedulers here before spawning).
    pub fn runtime(&self) -> DoppioRuntime {
        self.ensure_host();
        self.inner.borrow().host.as_ref().unwrap().runtime.clone()
    }

    // ------------------------------------------------------------
    // Pipes
    // ------------------------------------------------------------

    /// Inject faults into guest pipe operations. Each `read_pipe` /
    /// `write_pipe` call consults the plan (drawing from the fs
    /// probability fields and budget): a transient `EIO` surfaces as
    /// [`KernelError::TransientFault`], a slow completion parks the
    /// calling thread for the drawn virtual delay before it retries.
    /// Opt-in: a kernel without a plan never draws.
    pub fn set_pipe_faults(&self, plan: FaultPlan) {
        self.inner.borrow_mut().pipe_faults = Some(plan);
    }

    /// Consult the fault plan for one guest pipe op on a pipe that is
    /// known to exist. `Err` means fail the op; `Ok(true)` means the
    /// caller must report WouldBlock (the thread sleeps out the
    /// injected delay on a timer); `Ok(false)` is normal service.
    fn draw_pipe_fault(
        &self,
        ctx: &mut ThreadContext<'_>,
        op: &'static str,
        pipe: PipeId,
    ) -> Result<bool, KernelError> {
        let plan = {
            let inner = self.inner.borrow();
            match &inner.pipe_faults {
                Some(p) if inner.pipes.contains_key(&pipe.0) => p.clone(),
                _ => return Ok(false),
            }
        };
        match plan.pipe_fault(&self.engine(), op, pipe.0) {
            None => Ok(false),
            Some(FsFault::TransientEio) => Err(KernelError::TransientFault(pipe)),
            Some(FsFault::SlowCompletion(ns)) => {
                // Park the thread on a timer instead of the pipe's
                // waiter list: nothing about the pipe's state will
                // change, the delay itself is what it waits for. The
                // Async resource has no owner, so the wait-for graph
                // never sees a spurious deadlock cycle.
                self.park(
                    ctx,
                    Resource::Async(format!("pipe.fault({pipe})")),
                    format!("pipe.{op}({pipe})"),
                    "wait.fault",
                );
                let rt = ctx.runtime().clone();
                let me = ctx.thread_id();
                self.engine()
                    .set_timeout(ns as f64 / 1e6, move |_| rt.wake(me));
                Ok(true)
            }
            Some(FsFault::QuotaExceeded) => Ok(false), // pipes have no quota
        }
    }

    /// Create a pipe with the default capacity. Both ends start held
    /// by the host; spawn wiring transfers them to processes.
    pub fn pipe(&self) -> PipeId {
        self.pipe_with_capacity(DEFAULT_PIPE_CAPACITY)
    }

    /// Create a pipe with an explicit buffer capacity (small
    /// capacities make backpressure easy to exercise in tests).
    pub fn pipe_with_capacity(&self, capacity: usize) -> PipeId {
        assert!(capacity > 0, "pipe capacity must be positive");
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_pipe;
        inner.next_pipe += 1;
        inner.pipes.insert(
            id,
            PipeState {
                buf: VecDeque::new(),
                capacity,
                writers: vec![HOST],
                readers: vec![HOST],
                read_waiters: Vec::new(),
                write_waiters: Vec::new(),
                flows: VecDeque::new(),
            },
        );
        PipeId(id)
    }

    /// Apply `op` to `pipe` and the process table under one kernel
    /// borrow, then wake the threads it returns, in order. Errors on a
    /// pipe id this kernel never created.
    fn pipe_op<R>(
        &self,
        pipe: PipeId,
        op: impl FnOnce(&mut PipeState, &mut BTreeMap<u32, Proc>) -> (R, Vec<ThreadId>),
    ) -> Result<R, KernelError> {
        let (result, wakes, rt) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let p = inner
                .pipes
                .get_mut(&pipe.0)
                .ok_or(KernelError::UnknownPipe(pipe))?;
            let (result, wakes) = op(p, &mut inner.procs);
            (
                result,
                wakes,
                inner.host.as_ref().map(|h| h.runtime.clone()),
            )
        };
        if let Some(rt) = rt {
            for w in wakes {
                rt.wake(w);
            }
        }
        Ok(result)
    }

    /// Guest-side pipe read (called from inside a slice). On
    /// [`PipeRead::WouldBlock`] the calling thread has been registered
    /// as a waiter and its wait-for edge recorded; it must return
    /// [`ThreadStep::Blocked`]. A read of `max == 0` bytes returns at
    /// once, as in POSIX: no bytes, or [`PipeRead::Eof`] on an empty
    /// pipe with no writers. Errors on a pipe id this kernel never
    /// created.
    pub fn read_pipe(
        &self,
        ctx: &mut ThreadContext<'_>,
        pipe: PipeId,
        max: usize,
    ) -> Result<PipeRead, KernelError> {
        if max == 0 {
            // Nothing moves, so nothing is faulted, parked or woken,
            // and the pending flow tokens stay for the read that takes
            // the bytes.
            return self.pipe_op(pipe, |p, _| {
                let eof = p.buf.is_empty() && p.writers.is_empty();
                let read = if eof {
                    PipeRead::Eof
                } else {
                    PipeRead::Data(Vec::new())
                };
                (read, Vec::new())
            });
        }
        let me = ctx.thread_id();
        let my_pid = ctx.runtime().thread_tag(me);
        if self.draw_pipe_fault(ctx, "read", pipe)? {
            return Ok(PipeRead::WouldBlock);
        }
        let (result, flows) = self.pipe_op(pipe, |p, procs| {
            if !p.buf.is_empty() {
                let (data, wakes) = p.take(max);
                if let Some(proc) = my_pid.and_then(|pid| procs.get_mut(&(pid as u32))) {
                    proc.pipe_in += data.len() as u64;
                }
                // The read consumes every pending causal write token:
                // byte-precise matching is not worth tracking — any
                // writer whose bytes are still buffered happened-before
                // this read.
                let flows: Vec<u64> = p.flows.drain(..).collect();
                ((PipeRead::Data(data), flows), wakes)
            } else if p.writers.is_empty() {
                ((PipeRead::Eof, Vec::new()), Vec::new())
            } else {
                p.read_waiters.push(me);
                ((PipeRead::WouldBlock, Vec::new()), Vec::new())
            }
        })?;
        if result == PipeRead::WouldBlock {
            let site = format!("pipe.read({pipe})");
            self.park(ctx, Resource::PipeRead(pipe.0), site, "wait.pipe.read");
        }
        if !flows.is_empty() {
            let engine = self.engine();
            let causal = engine.causal();
            if let Some(dst) = causal.current() {
                let now = engine.now_ns();
                for fid in flows {
                    causal.flow_end("pipe", fid, dst, now, me.0 as u32 + 2);
                }
            }
        }
        Ok(result)
    }

    /// Guest-side pipe write. Accepts as many bytes as fit
    /// ([`PipeWrite::Wrote`] may be a short count — loop to finish).
    /// On [`PipeWrite::WouldBlock`] the thread must return
    /// [`ThreadStep::Blocked`]; it is woken when a reader drains the
    /// buffer. A write of empty `data` never parks: it returns
    /// `Wrote(0)` even on a full pipe, as in POSIX.
    /// [`PipeWrite::Broken`] means every read end is closed. Errors on
    /// a pipe id this kernel never created.
    pub fn write_pipe(
        &self,
        ctx: &mut ThreadContext<'_>,
        pipe: PipeId,
        data: &[u8],
    ) -> Result<PipeWrite, KernelError> {
        let me = ctx.thread_id();
        let my_pid = ctx.runtime().thread_tag(me);
        if self.draw_pipe_fault(ctx, "write", pipe)? {
            return Ok(PipeWrite::WouldBlock);
        }
        let result = self.pipe_op(pipe, |p, procs| {
            let space = p.capacity.saturating_sub(p.buf.len());
            if p.readers.is_empty() {
                (PipeWrite::Broken, Vec::new())
            } else if space == 0 && !data.is_empty() {
                p.write_waiters.push(me);
                (PipeWrite::WouldBlock, Vec::new())
            } else {
                let (n, wakes) = p.put(data, space);
                if let Some(proc) = my_pid.and_then(|pid| procs.get_mut(&(pid as u32))) {
                    proc.pipe_out += n as u64;
                }
                (PipeWrite::Wrote(n), wakes)
            }
        })?;
        match result {
            PipeWrite::WouldBlock => {
                let site = format!("pipe.write({pipe})");
                self.park(ctx, Resource::PipeWrite(pipe.0), site, "wait.pipe.write");
            }
            PipeWrite::Wrote(n) if n > 0 => self.push_pipe_flow(pipe, me.0 as u32 + 2),
            _ => {}
        }
        Ok(result)
    }

    /// Mint a causal `pipe` flow edge for bytes just written, leaving
    /// the ambient request context, and queue its token on the pipe
    /// for whichever read consumes it. No-op when causal tracing is
    /// off, no request is ambient, or the pipe's token queue is full.
    fn push_pipe_flow(&self, pipe: PipeId, lane: u32) {
        let engine = {
            let inner = self.inner.borrow();
            match inner.host.as_ref() {
                Some(h) if h.engine.causal().enabled() => h.engine.clone(),
                _ => return,
            }
        };
        let causal = engine.causal();
        let Some(src) = causal.current() else { return };
        {
            let inner = self.inner.borrow();
            match inner.pipes.get(&pipe.0) {
                Some(p) if p.flows.len() < PIPE_FLOW_TOKEN_CAP => {}
                _ => return,
            }
        }
        let fid = causal.flow_start("pipe", src, engine.now_ns(), lane);
        if let Some(p) = self.inner.borrow_mut().pipes.get_mut(&pipe.0) {
            p.flows.push_back(fid);
        }
    }

    /// Append bytes on behalf of `pid` without blocking (used by
    /// stdout hooks that run mid-interpretation and cannot yield).
    /// The buffer may transiently exceed capacity; backpressure is
    /// applied at the next slice boundary of the feeding process.
    /// Once every read end is closed the bytes are dropped.
    /// Errors on a pipe id this kernel never created.
    pub fn feed_pipe(&self, pid: Pid, pipe: PipeId, data: &[u8]) -> Result<(), KernelError> {
        let fed = self.pipe_op(pipe, |p, procs| {
            if p.readers.is_empty() {
                return (false, Vec::new());
            }
            if let Some(proc) = procs.get_mut(&pid.0) {
                proc.pipe_out += data.len() as u64;
            }
            (true, p.put(data, usize::MAX).1)
        })?;
        if fed && !data.is_empty() {
            // The stdout hook runs inside the feeding process's slice,
            // so the ambient context is that slice's span.
            self.push_pipe_flow(pipe, 1);
        }
        Ok(())
    }

    /// Host-side write (feeding a process's stdin from outside).
    /// Unbounded: the host cannot block. Errors if the pipe is
    /// unknown, or the host's write end was closed or released to a
    /// process.
    pub fn host_write(&self, pipe: PipeId, data: &[u8]) -> Result<(), KernelError> {
        self.pipe_op(pipe, |p, _| {
            if !p.writers.contains(&HOST) {
                return (Err(KernelError::PipeEndClosed(pipe)), Vec::new());
            }
            (Ok(()), p.put(data, usize::MAX).1)
        })?
    }

    /// Close the host's write end. When no process holds one either,
    /// readers see EOF. Errors if the pipe is unknown or the end was
    /// already closed/released (the double-close case).
    pub fn host_close_write(&self, pipe: PipeId) -> Result<(), KernelError> {
        self.host_close(pipe, End::Write)
    }

    /// Close the host's read end. When no process holds one either,
    /// writers see [`PipeWrite::Broken`]. Errors if the pipe is
    /// unknown or the end was already closed/released (the
    /// double-close case).
    pub fn host_close_read(&self, pipe: PipeId) -> Result<(), KernelError> {
        self.host_close(pipe, End::Read)
    }

    fn host_close(&self, pipe: PipeId, end: End) -> Result<(), KernelError> {
        self.pipe_op(pipe, |p, _| match p.release(HOST, end) {
            Some(wakes) => (Ok(()), wakes),
            None => (Err(KernelError::PipeEndClosed(pipe)), Vec::new()),
        })?
    }

    /// Drain everything currently buffered (host-side collection of a
    /// pipeline's final output). Wakes blocked writers. Errors if the
    /// pipe is unknown, or the host's read end was closed or released
    /// to a process.
    pub fn host_read(&self, pipe: PipeId) -> Result<Vec<u8>, KernelError> {
        self.pipe_op(pipe, |p, _| {
            if !p.readers.contains(&HOST) {
                return (Err(KernelError::PipeEndClosed(pipe)), Vec::new());
            }
            // The host has no causal context; pending write tokens are
            // consumed without an edge rather than left to dangle.
            p.flows.clear();
            let (data, wakes) = p.take(usize::MAX);
            (Ok(data), wakes)
        })?
    }

    /// Bytes currently buffered in `pipe`.
    pub fn pipe_len(&self, pipe: PipeId) -> Result<usize, KernelError> {
        self.inner
            .borrow()
            .pipes
            .get(&pipe.0)
            .map(|p| p.buf.len())
            .ok_or(KernelError::UnknownPipe(pipe))
    }

    /// Re-derive the wait-graph owner edges of one pipe from its
    /// current end holders: the write-end holder's main thread
    /// resolves blocked reads, the read-end holder's resolves blocked
    /// writes. (With several holders the first live process — the
    /// lowest pid — is blamed; any of them could resolve the wait. The
    /// host is no process and is never blamed.)
    fn refresh_pipe_owners(&self, pipe: u64) {
        let (rt, read_owner, write_owner) = {
            let inner = self.inner.borrow();
            let Some(host) = inner.host.as_ref() else {
                return;
            };
            let p = &inner.pipes[&pipe];
            let main_of = |pids: &[u32]| {
                pids.iter()
                    .filter_map(|pid| inner.procs.get(pid))
                    .filter(|pr| pr.status.is_none())
                    .map(|pr| pr.main)
                    .next()
            };
            (
                host.runtime.clone(),
                main_of(&p.writers),
                main_of(&p.readers),
            )
        };
        match read_owner {
            Some(t) => rt.set_resource_owner(Resource::PipeRead(pipe), t),
            None => rt.clear_resource_owner(&Resource::PipeRead(pipe)),
        }
        match write_owner {
            Some(t) => rt.set_resource_owner(Resource::PipeWrite(pipe), t),
            None => rt.clear_resource_owner(&Resource::PipeWrite(pipe)),
        }
    }

    // ------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------

    /// Spawn a guest process: `main` becomes the process's main
    /// thread, tagged with a fresh pid (threads it spawns inherit the
    /// tag). The process exits when its exit probe reports completion
    /// (see [`set_exit_probe`](Self::set_exit_probe)), when every
    /// tagged thread finishes, or when [`exit`](Self::exit) /
    /// [`kill`](Self::kill) end it early.
    ///
    /// Panics on stdin/stdout wiring naming a pipe this kernel never
    /// created — a host programming error. Use
    /// [`try_spawn`](Self::try_spawn) to get an `Err` instead.
    pub fn spawn(&self, opts: SpawnOptions, main: Box<dyn GuestThread>) -> Process {
        match self.try_spawn(opts, main) {
            Ok(p) => p,
            Err(e) => panic!("spawn: {e}"),
        }
    }

    /// [`spawn`](Self::spawn), reporting bad pipe wiring as an error
    /// instead of panicking. On `Err` no pid is allocated and no pipe
    /// end changes hands.
    pub fn try_spawn(
        &self,
        opts: SpawnOptions,
        main: Box<dyn GuestThread>,
    ) -> Result<Process, KernelError> {
        self.ensure_host();
        let (rt, engine, pid) = {
            let mut inner = self.inner.borrow_mut();
            // Validate the wiring before allocating the pid or moving
            // any pipe end.
            for p in [opts.stdin, opts.stdout].into_iter().flatten() {
                if !inner.pipes.contains_key(&p.0) {
                    return Err(KernelError::UnknownPipe(p));
                }
            }
            let pid = inner.next_pid;
            inner.next_pid += 1;
            // Transfer pipe ends from the host to the process.
            for (p, end) in [(opts.stdin, End::Read), (opts.stdout, End::Write)] {
                if let Some(p) = p {
                    let pipe = inner.pipes.get_mut(&p.0).expect("validated above");
                    pipe.wire(pid, end);
                }
            }
            let host = inner.host.as_ref().unwrap();
            (host.runtime.clone(), host.engine.clone(), pid)
        };
        // Kernel spawn is a causal ingress point: a spawn with no
        // ambient request roots a fresh `proc:<name>` trace; a spawn
        // performed on behalf of a request joins that request's trace.
        // Either way a `spawn` flow edge connects the spawner to the
        // child's first slice.
        let causal = engine.causal();
        let (causal_ctx, spawn_flow) = if causal.enabled() {
            let now = engine.now_ns();
            let (root, src) = match causal.current() {
                Some(parent) => (causal.child(parent), parent),
                None => {
                    let root = causal.begin_request(format!("proc:{}", opts.name), now);
                    (root, root)
                }
            };
            let fid = causal.flow_start("spawn", src, now, 1);
            (Some(root), Some(fid))
        } else {
            (None, None)
        };
        let tid = rt.spawn_tagged(
            format!("pid {pid} {}", opts.name),
            pid as u64,
            Box::new(SliceThread::new(self, pid, true, main)),
        );
        {
            let mut inner = self.inner.borrow_mut();
            inner.procs.insert(
                pid,
                Proc {
                    name: opts.name.clone(),
                    argv: opts.argv.clone(),
                    group: opts.group.clone(),
                    main: tid,
                    status: None,
                    reaped: false,
                    wait_waiters: Vec::new(),
                    exit_probe: None,
                    exit_code: None,
                    stdout: opts.stdout,
                    slices: 0,
                    pipe_in: 0,
                    pipe_out: 0,
                    spawned_at_ns: engine.now_ns(),
                    exited_at_ns: None,
                    ctx: causal_ctx,
                    last_span: None,
                    spawn_flow,
                    exit_flow: None,
                },
            );
        }
        // waitpid on this pid resolves through the child's main thread.
        rt.set_resource_owner(Resource::Child(pid as u64), tid);
        if let Some(p) = opts.stdin {
            self.refresh_pipe_owners(p.0);
        }
        if let Some(p) = opts.stdout {
            self.refresh_pipe_owners(p.0);
        }
        engine.metrics().counter("proc.spawned").inc();
        let tracer = engine.tracer();
        if tracer.enabled() {
            tracer.instant(
                cat::PROC,
                "proc.spawn",
                engine.now_ns(),
                tid.0 as u32 + 2, // the process's thread lane
                vec![
                    ("pid", ArgValue::U64(pid as u64)),
                    ("name", ArgValue::Str(opts.name.into())),
                    ("argv", ArgValue::Str(opts.argv.join(" ").into())),
                ],
            );
        }
        Ok(Process {
            kernel: self.clone(),
            pid: Pid(pid),
        })
    }

    /// [`spawn`](Self::spawn) for a closure guest (the "JS process"
    /// form): `f` is called once per slice, exactly like
    /// [`FnThread`](crate::FnThread).
    pub fn spawn_fn(
        &self,
        opts: SpawnOptions,
        f: impl FnMut(&mut ThreadContext<'_>) -> ThreadStep + 'static,
    ) -> Process {
        self.spawn(opts, Box::new(crate::FnThread::new(f)))
    }

    /// Add an auxiliary thread to an existing process (e.g. an stdin
    /// pump). It is tagged with the pid and killed with the process,
    /// but does not keep the process alive on its own once an exit
    /// probe reports completion.
    pub fn spawn_aux(
        &self,
        pid: Pid,
        name: impl Into<String>,
        thread: Box<dyn GuestThread>,
    ) -> ThreadId {
        self.runtime().spawn_tagged(
            format!("pid {pid} {}", name.into()),
            pid.0 as u64,
            Box::new(SliceThread::new(self, pid.0, false, thread)),
        )
    }

    /// Install the process's exit probe: consulted after every
    /// main-thread slice and whenever one of the process's threads
    /// finishes. Returning `Some(status)` ends the process (remaining
    /// threads are killed). Guest runtimes with their own lifecycle —
    /// the JVM's `System.exit`, live-thread accounting — report
    /// completion through this.
    /// Errors on an unknown pid.
    pub fn set_exit_probe(
        &self,
        pid: Pid,
        probe: impl Fn() -> Option<ExitStatus> + 'static,
    ) -> Result<(), KernelError> {
        let mut inner = self.inner.borrow_mut();
        let proc = inner
            .procs
            .get_mut(&pid.0)
            .ok_or(KernelError::UnknownPid(pid))?;
        proc.exit_probe = Some(Rc::new(probe));
        Ok(())
    }

    /// End `pid` with `code` (the `exit(2)` analog; also the way
    /// closure guests report a nonzero status). Remaining threads are
    /// killed, pipe ends released, waiters woken. Errors on an
    /// unknown pid or a process that already exited.
    pub fn exit(&self, pid: Pid, code: i32) -> Result<(), KernelError> {
        self.check_live(pid)?;
        self.finish_process(pid, ExitStatus::Exited(code));
        Ok(())
    }

    /// `Err` unless `pid` names a spawned, still-running process.
    fn check_live(&self, pid: Pid) -> Result<(), KernelError> {
        let inner = self.inner.borrow();
        let proc = inner
            .procs
            .get(&pid.0)
            .ok_or(KernelError::UnknownPid(pid))?;
        if proc.status.is_some() {
            return Err(KernelError::AlreadyExited(pid));
        }
        Ok(())
    }

    /// Deliver a signal. Every signal terminates the process (no
    /// guest handlers); `waitpid` observes `killed(SIG…)`. Errors on
    /// an unknown pid or a process that already exited.
    pub fn kill(&self, pid: Pid, signal: Signal) -> Result<(), KernelError> {
        self.check_live(pid)?;
        {
            let inner = self.inner.borrow();
            if let Some(host) = inner.host.as_ref() {
                let tracer = host.engine.tracer();
                if tracer.enabled() {
                    tracer.instant(
                        cat::PROC,
                        "proc.signal",
                        host.engine.now_ns(),
                        1,
                        vec![
                            ("pid", ArgValue::U64(pid.0 as u64)),
                            ("signal", ArgValue::from(signal.name())),
                        ],
                    );
                }
                host.engine.metrics().counter("proc.signaled").inc();
            }
        }
        // Signal delivery is a causal edge from the sender's ambient
        // context to the victim's slice chain; termination is
        // synchronous here, so the edge begins and ends at `now`.
        {
            let (engine, victim) = {
                let inner = self.inner.borrow();
                let host = inner.host.as_ref();
                let victim = inner.procs.get(&pid.0).and_then(|p| p.last_span.or(p.ctx));
                (host.map(|h| h.engine.clone()), victim)
            };
            if let (Some(engine), Some(victim)) = (engine, victim) {
                let causal = engine.causal();
                if let Some(src) = causal.current() {
                    let now = engine.now_ns();
                    let fid = causal.flow_start("signal", src, now, 1);
                    causal.flow_end("signal", fid, victim, now, 1);
                }
            }
        }
        self.finish_process(pid, ExitStatus::Signaled(signal));
        Ok(())
    }

    /// Guest-side wait for a child (called from inside a slice). On
    /// [`WaitPid::WouldBlock`] the thread must return
    /// [`ThreadStep::Blocked`]; it is woken when the child exits. On
    /// [`WaitPid::Exited`] the zombie has been reaped. Errors on an
    /// unknown pid, or a child whose status an earlier `waitpid`
    /// already collected (the `ECHILD` analog).
    pub fn waitpid(&self, ctx: &mut ThreadContext<'_>, pid: Pid) -> Result<WaitPid, KernelError> {
        let (result, exit_flow) = {
            let mut inner = self.inner.borrow_mut();
            let proc = inner
                .procs
                .get_mut(&pid.0)
                .ok_or(KernelError::UnknownPid(pid))?;
            match proc.status {
                Some(status) => {
                    if proc.reaped {
                        return Err(KernelError::AlreadyReaped(pid));
                    }
                    proc.reaped = true;
                    (WaitPid::Exited(status), proc.exit_flow.take())
                }
                None => {
                    proc.wait_waiters.push(ctx.thread_id());
                    (WaitPid::WouldBlock, None)
                }
            }
        };
        if result == WaitPid::WouldBlock {
            let site = format!("waitpid({pid})");
            self.park(ctx, Resource::Child(pid.0 as u64), site, "wait.child");
        }
        if let Some(fid) = exit_flow {
            // The reap closes the child's exit flow at the waiter: the
            // child's last slice happened-before this waitpid return.
            let engine = self.engine();
            let causal = engine.causal();
            if let Some(dst) = causal.current() {
                causal.flow_end(
                    "exit",
                    fid,
                    dst,
                    engine.now_ns(),
                    ctx.thread_id().0 as u32 + 2,
                );
            }
        }
        Ok(result)
    }

    /// Host-side status peek (does not reap).
    pub fn status(&self, pid: Pid) -> Option<ExitStatus> {
        self.inner.borrow().procs.get(&pid.0).and_then(|p| p.status)
    }

    /// Exited-but-unreaped processes, in pid order.
    pub fn zombies(&self) -> Vec<Pid> {
        self.inner
            .borrow()
            .procs
            .iter()
            .filter(|(_, p)| p.status.is_some() && !p.reaped)
            .map(|(pid, _)| Pid(*pid))
            .collect()
    }

    /// The process table, in pid order (feeds the per-process
    /// [`RunReport`](crate::report::RunReport) section).
    pub fn process_table(&self) -> Vec<ProcessSummary> {
        self.inner
            .borrow()
            .procs
            .iter()
            .map(|(pid, p)| ProcessSummary {
                pid: *pid,
                name: p.name.clone(),
                argv: p.argv.clone(),
                group: p.group.clone(),
                status: p
                    .status
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "running".to_string()),
                slices: p.slices,
                pipe_in: p.pipe_in,
                pipe_out: p.pipe_out,
                spawned_at_ns: p.spawned_at_ns,
                exited_at_ns: p.exited_at_ns,
            })
            .collect()
    }

    /// Whether every spawned process has exited.
    pub fn all_exited(&self) -> bool {
        self.inner
            .borrow()
            .procs
            .values()
            .all(|p| p.status.is_some())
    }

    /// Drive the event loop until every process has exited. Errors
    /// with per-pid blame if the wait-for graph latches a cycle or the
    /// loop drains with live processes blocked.
    ///
    /// Once every process has exited it schedules nothing, as
    /// [`DoppioRuntime::run_to_completion`] does on a finished runtime;
    /// a kernel with no processes yet still takes its first tick.
    pub fn run(&self) -> Result<(), RuntimeError> {
        if !self.inner.borrow().procs.is_empty() && self.all_exited() {
            return Ok(());
        }
        self.runtime().run_until(|| self.all_exited())
    }

    /// Drive the event loop until `pid` exits (other processes keep
    /// running as their events interleave).
    pub fn run_until_exit(&self, pid: Pid) -> Result<ExitStatus, RuntimeError> {
        let mut status = None;
        self.runtime().run_until(|| {
            status = self.status(pid);
            status.is_some()
        })?;
        Ok(status.expect("run_until is Ok only once the pid has exited"))
    }

    // ------------------------------------------------------------
    // Lifecycle internals
    // ------------------------------------------------------------

    /// Record that the calling thread is about to block on `resource`
    /// at guest site `site`: its wait-for edge, and why it waits. Its
    /// next slice span carries the reason, so the critical-path walk
    /// can attribute the gap.
    fn park(
        &self,
        ctx: &mut ThreadContext<'_>,
        resource: Resource,
        site: impl Into<String>,
        reason: &'static str,
    ) {
        ctx.note_block(resource, site);
        let mut inner = self.inner.borrow_mut();
        if inner
            .host
            .as_ref()
            .is_some_and(|h| h.engine.causal().enabled())
        {
            inner.wait_reasons.insert(ctx.thread_id().0, reason);
        }
    }

    /// Begin the causal slice span for a thread of `pid`: mint a child
    /// span of the process trace (chained off `local_last`, or the
    /// proc's main chain when `main`), install it as the ambient
    /// context, and consume any pending spawn flow. Returns `None`
    /// when causal tracing is off or the pid is untracked.
    fn causal_slice_begin(
        &self,
        pid: u32,
        local_last: Option<SpanContext>,
        tid: ThreadId,
        main: bool,
    ) -> Option<SliceSpan> {
        let engine = {
            let inner = self.inner.borrow();
            let host = inner.host.as_ref()?;
            if !host.engine.causal().enabled() {
                return None;
            }
            host.engine.clone()
        };
        let (root, tail, spawn_flow, wait) = {
            let mut inner = self.inner.borrow_mut();
            let wait = inner.wait_reasons.remove(&tid.0);
            let proc = inner.procs.get_mut(&pid)?;
            let root = proc.ctx?;
            let tail = if main { proc.last_span } else { local_last };
            let spawn_flow = if main { proc.spawn_flow.take() } else { None };
            (root, tail.unwrap_or(root), spawn_flow, wait)
        };
        let causal = engine.causal();
        let span = causal.child(root);
        let prev = causal.set_current(Some(span));
        let now = engine.now_ns();
        let lane = tid.0 as u32 + 2;
        if let Some(fid) = spawn_flow {
            causal.flow_end("spawn", fid, span, now, lane);
        }
        Some(SliceSpan {
            ctx: span,
            parent: tail.span_id,
            start_ns: now,
            wait,
            prev,
            lane,
            main,
        })
    }

    /// Close the slice span opened by [`causal_slice_begin`]: emit the
    /// attributed `interp` span, restore the ambient context, and
    /// advance the chain tail.
    fn causal_slice_end(
        &self,
        pid: u32,
        slice: Option<SliceSpan>,
        local_last: &mut Option<SpanContext>,
    ) {
        let Some(s) = slice else { return };
        let engine = self.engine();
        let causal = engine.causal();
        causal.span(
            "interp",
            s.ctx,
            s.parent,
            s.start_ns,
            engine.now_ns(),
            s.lane,
            s.wait,
        );
        causal.set_current(s.prev);
        if s.main {
            if let Some(p) = self.inner.borrow_mut().procs.get_mut(&pid) {
                p.last_span = Some(s.ctx);
            }
        } else {
            *local_last = Some(s.ctx);
        }
    }

    /// Per-slice bookkeeping for a process main thread: slice count,
    /// exit-probe check, and stdout backpressure (a process whose
    /// stdout pipe is at/over capacity parks until a reader drains
    /// it — flow control at slice granularity for guests whose output
    /// hooks cannot block mid-interpretation).
    fn after_main_slice(
        &self,
        pid: u32,
        ctx: &mut ThreadContext<'_>,
        step: ThreadStep,
    ) -> ThreadStep {
        let probe = {
            let mut inner = self.inner.borrow_mut();
            match inner.procs.get_mut(&pid) {
                Some(p) => {
                    p.slices += 1;
                    p.exit_probe.clone()
                }
                None => None,
            }
        };
        if let Some(probe) = probe {
            if let Some(status) = probe() {
                self.finish_process(Pid(pid), status);
                return ThreadStep::Finished;
            }
        }
        if step == ThreadStep::Yielded {
            let parked = {
                let mut inner = self.inner.borrow_mut();
                let inner = &mut *inner;
                let stdout = inner.procs.get(&pid).and_then(|p| p.stdout);
                match stdout.and_then(|out| inner.pipes.get_mut(&out.0)) {
                    Some(p) if p.buf.len() >= p.capacity && !p.readers.is_empty() => {
                        p.write_waiters.push(ctx.thread_id());
                        stdout
                    }
                    _ => None,
                }
            };
            if let Some(out) = parked {
                self.park(ctx, Resource::PipeWrite(out.0), "stdout", "wait.pipe.write");
                return ThreadStep::Blocked;
            }
        }
        step
    }

    /// The runtime's thread-exit hook: when a tagged thread finishes,
    /// consult the process's exit probe; absent a probe, the process
    /// exits once every tagged thread has finished.
    fn on_thread_finished(&self, _tid: ThreadId, tag: Option<u64>) {
        let Some(tag) = tag else { return };
        let pid = tag as u32;
        let (probe, default_code, rt) = {
            let inner = self.inner.borrow();
            let Some(proc) = inner.procs.get(&pid) else {
                return;
            };
            if proc.status.is_some() {
                return;
            }
            (
                proc.exit_probe.clone(),
                proc.exit_code.unwrap_or(0),
                inner.host.as_ref().map(|h| h.runtime.clone()),
            )
        };
        if let Some(probe) = probe {
            if let Some(status) = probe() {
                self.finish_process(Pid(pid), status);
            }
            return;
        }
        if let Some(rt) = rt {
            if rt.tag_all_finished(tag) {
                self.finish_process(Pid(pid), ExitStatus::Exited(default_code));
            }
        }
    }

    /// Terminate a process: record its status (first writer wins),
    /// kill its remaining threads, release its pipe ends (EOF for
    /// readers, broken pipe for writers), and wake `waitpid` waiters.
    fn finish_process(&self, pid: Pid, status: ExitStatus) {
        let Some((rt, engine, threads, wait_waiters, held_pipes, causal_tail)) = ({
            let mut inner = self.inner.borrow_mut();
            let Some(host) = inner.host.as_ref() else {
                return;
            };
            let (rt, engine) = (host.runtime.clone(), host.engine.clone());
            let now = engine.now_ns();
            let Some(proc) = inner.procs.get_mut(&pid.0) else {
                return;
            };
            if proc.status.is_some() {
                return;
            }
            proc.status = Some(status);
            proc.exited_at_ns = Some(now);
            let causal_tail = proc.ctx.map(|root| (root, proc.last_span.unwrap_or(root)));
            let wait_waiters = std::mem::take(&mut proc.wait_waiters);
            let threads = rt.tagged_threads(pid.0 as u64);
            let held_pipes: Vec<u64> = inner
                .pipes
                .iter()
                .filter(|(_, p)| p.writers.contains(&pid.0) || p.readers.contains(&pid.0))
                .map(|(id, _)| *id)
                .collect();
            Some((rt, engine, threads, wait_waiters, held_pipes, causal_tail))
        }) else {
            return;
        };
        // The probe's closure holds the guest's state, which may hold
        // this kernel (a JVM's stdout hook does). An exited process
        // consults it no more: drop it, outside the kernel borrow.
        let probe = self
            .inner
            .borrow_mut()
            .procs
            .get_mut(&pid.0)
            .and_then(|p| p.exit_probe.take());
        drop(probe);
        for t in threads {
            // Reentrant exit-hook calls land in on_thread_finished /
            // finish_process, which both return early now that the
            // status is set.
            rt.kill(t);
        }
        rt.clear_resource_owner(&Resource::Child(pid.0 as u64));
        for id in held_pipes {
            // Pipes are never deleted, so the lookup cannot fail.
            let _ = self.pipe_op(PipeId(id), |p, _| {
                let mut wakes = p.release(pid.0, End::Write).unwrap_or_default();
                wakes.extend(p.release(pid.0, End::Read).unwrap_or_default());
                ((), wakes)
            });
            self.refresh_pipe_owners(id);
        }
        for w in wait_waiters {
            rt.wake(w);
        }
        engine.metrics().counter("proc.exited").inc();
        let tracer = engine.tracer();
        if tracer.enabled() {
            tracer.instant(
                cat::PROC,
                "proc.exit",
                engine.now_ns(),
                1,
                vec![
                    ("pid", ArgValue::U64(pid.0 as u64)),
                    ("status", ArgValue::Str(status.to_string().into())),
                ],
            );
        }
        if let Some((root, tail)) = causal_tail {
            let causal = engine.causal();
            if causal.enabled() {
                let now = engine.now_ns();
                // The process request ends here; the exit flow edge
                // stays open until a waitpid reaps the zombie.
                causal.end_request(root, now);
                let fid = causal.flow_start("exit", tail, now, 1);
                if let Some(p) = self.inner.borrow_mut().procs.get_mut(&pid.0) {
                    p.exit_flow = Some(fid);
                }
            }
        }
    }
}

/// An open causal slice span (see [`Kernel::causal_slice_begin`]).
struct SliceSpan {
    ctx: SpanContext,
    parent: u64,
    start_ns: u64,
    wait: Option<&'static str>,
    prev: Option<SpanContext>,
    lane: u32,
    main: bool,
}

/// The wrapper every thread of a process runs in. Each slice gets its
/// own attributed causal span: a main thread's chain off the process
/// root lives in the process table, an auxiliary thread's (stdin pumps
/// and the like) here. After a main-thread slice the kernel does its
/// per-slice bookkeeping.
struct SliceThread {
    kernel: Kernel,
    pid: u32,
    main: bool,
    inner: Box<dyn GuestThread>,
    last: Option<SpanContext>,
}

impl SliceThread {
    fn new(kernel: &Kernel, pid: u32, main: bool, inner: Box<dyn GuestThread>) -> SliceThread {
        SliceThread {
            kernel: kernel.clone(),
            pid,
            main,
            inner,
            last: None,
        }
    }
}

impl GuestThread for SliceThread {
    fn run(&mut self, ctx: &mut ThreadContext<'_>) -> ThreadStep {
        let slice = self
            .kernel
            .causal_slice_begin(self.pid, self.last, ctx.thread_id(), self.main);
        let mut step = self.inner.run(ctx);
        if self.main {
            step = self.kernel.after_main_slice(self.pid, ctx, step);
        }
        self.kernel
            .causal_slice_end(self.pid, slice, &mut self.last);
        step
    }
}

/// A handle to a spawned process.
#[derive(Clone)]
pub struct Process {
    kernel: Kernel,
    pid: Pid,
}

impl fmt::Debug for Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid.0)
            .field("status", &self.status())
            .finish()
    }
}

impl Process {
    /// The process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The kernel hosting this process.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Current exit status, if the process has exited (does not reap).
    pub fn status(&self) -> Option<ExitStatus> {
        self.kernel.status(self.pid)
    }

    /// Deliver a signal. Errors if the process already exited.
    pub fn kill(&self, signal: Signal) -> Result<(), KernelError> {
        self.kernel.kill(self.pid, signal)
    }

    /// Drive the event loop until this process exits (host-side
    /// blocking wait).
    pub fn wait(&self) -> Result<ExitStatus, RuntimeError> {
        self.kernel.run_until_exit(self.pid)
    }
}

/// Builds an [`Engine`] directly onto a [`Kernel`]: the engine is
/// constructed with the builder's full configuration, exactly as
/// [`EngineBuilder::build`] would, and installed as the kernel's event
/// loop.
///
/// ```
/// use doppio_core::{BuildOnKernel, Kernel};
/// use doppio_jsengine::{Browser, EngineBuilder};
///
/// let kernel = Kernel::new();
/// let engine = EngineBuilder::new(Browser::Chrome)
///     .rng_seed(7)
///     .build_on(&kernel);
/// assert_eq!(engine.browser(), kernel.engine().browser());
/// ```
pub trait BuildOnKernel {
    /// Build the engine and attach it to `kernel`. Panics if the
    /// kernel already has one.
    fn build_on(self, kernel: &Kernel) -> Engine;
}

impl BuildOnKernel for EngineBuilder {
    fn build_on(self, kernel: &Kernel) -> Engine {
        let engine = self.build();
        kernel.attach_engine(engine.clone());
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn stock_kernel() -> Kernel {
        Kernel::new()
    }

    /// A reader guest: drains `pipe` to `out` until EOF, then
    /// finishes.
    fn reader_proc(
        kernel: &Kernel,
        pipe: PipeId,
        out: Rc<RefCell<Vec<u8>>>,
        name: &str,
    ) -> Process {
        let k = kernel.clone();
        kernel.spawn_fn(SpawnOptions::new(name).stdin(pipe), move |ctx| {
            match k.read_pipe(ctx, pipe, 1024).expect("live pipe") {
                PipeRead::Data(d) => {
                    out.borrow_mut().extend_from_slice(&d);
                    ThreadStep::Yielded
                }
                PipeRead::WouldBlock => ThreadStep::Blocked,
                PipeRead::Eof => ThreadStep::Finished,
            }
        })
    }

    #[test]
    fn spawn_run_exit_zero() {
        let kernel = stock_kernel();
        let mut n = 3;
        let p = kernel.spawn_fn(SpawnOptions::new("worker"), move |_| {
            n -= 1;
            if n == 0 {
                ThreadStep::Finished
            } else {
                ThreadStep::Yielded
            }
        });
        kernel.run().unwrap();
        assert_eq!(p.status(), Some(ExitStatus::Exited(0)));
        assert!(p.status().unwrap().success());
    }

    #[test]
    fn an_exited_kernel_frees_its_world() {
        // Running a kernel whose processes have all exited again, then
        // dropping it: nothing the run queued may still hold the
        // engine, so the trace sink is back to its one owner.
        let sink = Rc::new(doppio_trace::RingSink::with_capacity(1 << 12));
        {
            let engine = EngineBuilder::new(Browser::Chrome)
                .trace_sink(sink.clone())
                .build();
            let kernel = Kernel::on_engine(&engine);
            kernel.spawn_fn(SpawnOptions::new("short"), |_| ThreadStep::Finished);
            kernel.run().unwrap();
            kernel.run().unwrap();
            assert!(!sink.is_empty());
        }
        assert_eq!(Rc::strong_count(&sink), 1);
    }

    #[test]
    fn explicit_exit_code_propagates() {
        let kernel = stock_kernel();
        let k = kernel.clone();
        let p = kernel.spawn_fn(SpawnOptions::new("failing"), move |ctx| {
            let pid = Pid(ctx.runtime().thread_tag(ctx.thread_id()).unwrap() as u32);
            k.exit(pid, 3).unwrap();
            ThreadStep::Finished
        });
        kernel.run().unwrap();
        assert_eq!(p.status(), Some(ExitStatus::Exited(3)));
    }

    #[test]
    fn pipe_data_flows_and_eof_on_writer_exit() {
        let kernel = stock_kernel();
        let pipe = kernel.pipe();
        let out = Rc::new(RefCell::new(Vec::new()));
        let _r = reader_proc(&kernel, pipe, out.clone(), "reader");
        let k = kernel.clone();
        let mut sent = false;
        let w = kernel.spawn_fn(SpawnOptions::new("writer").stdout(pipe), move |ctx| {
            if sent {
                return ThreadStep::Finished;
            }
            sent = true;
            match k.write_pipe(ctx, pipe, b"hello pipes").expect("live pipe") {
                PipeWrite::Wrote(n) => {
                    assert_eq!(n, 11);
                    ThreadStep::Yielded
                }
                other => panic!("{other:?}"),
            }
        });
        kernel.run().unwrap();
        assert_eq!(out.borrow().as_slice(), b"hello pipes");
        assert!(w.status().unwrap().success());
    }

    #[test]
    fn full_pipe_applies_backpressure() {
        let kernel = stock_kernel();
        let pipe = kernel.pipe_with_capacity(4);
        let out = Rc::new(RefCell::new(Vec::new()));
        let k = kernel.clone();
        let mut remaining: Vec<u8> = b"0123456789".to_vec();
        kernel.spawn_fn(SpawnOptions::new("writer").stdout(pipe), move |ctx| {
            if remaining.is_empty() {
                return ThreadStep::Finished;
            }
            match k.write_pipe(ctx, pipe, &remaining).expect("live pipe") {
                PipeWrite::Wrote(n) => {
                    assert!(n <= 4, "never more than capacity: {n}");
                    remaining.drain(..n);
                    ThreadStep::Yielded
                }
                PipeWrite::WouldBlock => ThreadStep::Blocked,
                PipeWrite::Broken => panic!("reader vanished"),
            }
        });
        let _r = reader_proc(&kernel, pipe, out.clone(), "reader");
        kernel.run().unwrap();
        assert_eq!(out.borrow().as_slice(), b"0123456789");
    }

    #[test]
    fn sigkill_breaks_the_pipe_for_the_reader() {
        let kernel = stock_kernel();
        let pipe = kernel.pipe();
        let out = Rc::new(RefCell::new(Vec::new()));
        let r = reader_proc(&kernel, pipe, out.clone(), "reader");
        // A writer that never finishes on its own: one byte per slice.
        let k = kernel.clone();
        let w = kernel.spawn_fn(SpawnOptions::new("writer").stdout(pipe), move |ctx| match k
            .write_pipe(ctx, pipe, b"x")
            .expect("live pipe")
        {
            PipeWrite::Wrote(_) => ThreadStep::Yielded,
            PipeWrite::WouldBlock => ThreadStep::Blocked,
            PipeWrite::Broken => ThreadStep::Finished,
        });
        // Let it produce a little, then kill it mid-stream.
        let engine = kernel.engine();
        kernel.runtime().start();
        for _ in 0..12 {
            engine.run_one();
        }
        w.kill(Signal::Kill).unwrap();
        kernel.run().unwrap();
        assert_eq!(w.status(), Some(ExitStatus::Signaled(Signal::Kill)));
        // The reader saw EOF (writer's end released at kill) and
        // finished normally with whatever had been written.
        assert_eq!(r.status(), Some(ExitStatus::Exited(0)));
        assert!(!out.borrow().is_empty());
    }

    #[test]
    fn waitpid_reaps_zombies_and_propagates_codes() {
        let kernel = stock_kernel();
        let k = kernel.clone();
        let child = kernel.spawn_fn(SpawnOptions::new("child"), move |ctx| {
            let pid = Pid(ctx.runtime().thread_tag(ctx.thread_id()).unwrap() as u32);
            k.exit(pid, 42).unwrap();
            ThreadStep::Finished
        });
        let child_pid = child.pid();
        // Run the child to completion first: it becomes a zombie.
        kernel.run_until_exit(child_pid).unwrap();
        assert_eq!(kernel.zombies(), vec![child_pid]);

        let k = kernel.clone();
        let seen = Rc::new(RefCell::new(None));
        let s = seen.clone();
        kernel.spawn_fn(SpawnOptions::new("parent"), move |ctx| {
            match k.waitpid(ctx, child_pid).expect("known child") {
                WaitPid::Exited(status) => {
                    *s.borrow_mut() = Some(status);
                    ThreadStep::Finished
                }
                WaitPid::WouldBlock => ThreadStep::Blocked,
            }
        });
        kernel.run().unwrap();
        assert_eq!(*seen.borrow(), Some(ExitStatus::Exited(42)));
        // The child was reaped; the parent (which nobody waits on) is
        // the only zombie left.
        assert!(
            !kernel.zombies().contains(&child_pid),
            "waitpid reaped the zombie"
        );
    }

    #[test]
    fn cross_process_deadlock_is_blamed_per_pid() {
        // The acceptance scenario: a writer fills a tiny pipe and
        // blocks; the reader, instead of draining, waitpids the
        // writer. The wait-for graph must close the cycle and name
        // both pids.
        let kernel = stock_kernel();
        let pipe = kernel.pipe_with_capacity(2);
        let k = kernel.clone();
        let writer = kernel.spawn_fn(SpawnOptions::new("writer").stdout(pipe), move |ctx| match k
            .write_pipe(ctx, pipe, b"xx")
            .expect("live pipe")
        {
            PipeWrite::Wrote(_) => ThreadStep::Yielded,
            PipeWrite::WouldBlock => ThreadStep::Blocked,
            PipeWrite::Broken => ThreadStep::Finished,
        });
        let wpid = writer.pid();
        let k = kernel.clone();
        kernel.spawn_fn(
            SpawnOptions::new("impatient").stdin(pipe),
            move |ctx| match k.waitpid(ctx, wpid).expect("known child") {
                WaitPid::Exited(_) => ThreadStep::Finished,
                WaitPid::WouldBlock => ThreadStep::Blocked,
            },
        );
        let err = kernel.run().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("pid 1 writer"), "{msg}");
        assert!(msg.contains("pid 2 impatient"), "{msg}");
        assert!(msg.contains("(write)"), "{msg}");
        assert!(msg.contains("child pid 1"), "{msg}");
        let RuntimeError::Deadlock { report, .. } = &err;
        assert_eq!(report.as_ref().expect("cycle").cycle.len(), 2);
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let run = || {
            let kernel = Kernel::new();
            let pipe = kernel.pipe_with_capacity(8);
            let out = Rc::new(RefCell::new(Vec::new()));
            let k = kernel.clone();
            let mut remaining: Vec<u8> = (0u8..64).collect();
            kernel.spawn_fn(SpawnOptions::new("producer").stdout(pipe), move |ctx| {
                if remaining.is_empty() {
                    return ThreadStep::Finished;
                }
                match k.write_pipe(ctx, pipe, &remaining).expect("live pipe") {
                    PipeWrite::Wrote(n) => {
                        remaining.drain(..n);
                        ThreadStep::Yielded
                    }
                    PipeWrite::WouldBlock => ThreadStep::Blocked,
                    PipeWrite::Broken => ThreadStep::Finished,
                }
            });
            let _ = reader_proc(&kernel, pipe, out.clone(), "consumer");
            kernel.run().unwrap();
            let table = kernel
                .process_table()
                .into_iter()
                .map(|p| {
                    format!(
                        "{} {} {} {} {}",
                        p.pid, p.name, p.status, p.pipe_in, p.pipe_out
                    )
                })
                .collect::<Vec<_>>()
                .join("\n");
            let fingerprint = (out.borrow().clone(), table, kernel.engine().now_ns());
            fingerprint
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn host_surfaces_error_on_unknown_ids_instead_of_panicking() {
        let kernel = stock_kernel();
        let bogus = PipeId(999);
        assert_eq!(
            kernel.host_write(bogus, b"x"),
            Err(KernelError::UnknownPipe(bogus))
        );
        assert_eq!(
            kernel.host_close_write(bogus),
            Err(KernelError::UnknownPipe(bogus))
        );
        assert_eq!(
            kernel.host_close_read(bogus),
            Err(KernelError::UnknownPipe(bogus))
        );
        assert_eq!(
            kernel.host_read(bogus),
            Err(KernelError::UnknownPipe(bogus))
        );
        assert_eq!(kernel.pipe_len(bogus), Err(KernelError::UnknownPipe(bogus)));
        assert_eq!(
            kernel.feed_pipe(Pid(1), bogus, b"x"),
            Err(KernelError::UnknownPipe(bogus))
        );
        let ghost = Pid(7);
        assert_eq!(kernel.exit(ghost, 0), Err(KernelError::UnknownPid(ghost)));
        assert_eq!(
            kernel.kill(ghost, Signal::Kill),
            Err(KernelError::UnknownPid(ghost))
        );
        assert_eq!(
            kernel.set_exit_probe(ghost, || None),
            Err(KernelError::UnknownPid(ghost))
        );
    }

    #[test]
    fn double_close_and_released_pipe_ends_error() {
        let kernel = stock_kernel();
        let pipe = kernel.pipe();
        kernel.host_write(pipe, b"hi").unwrap();
        kernel.host_close_write(pipe).unwrap();
        // Double close, and writing after close, both report.
        assert_eq!(
            kernel.host_close_write(pipe),
            Err(KernelError::PipeEndClosed(pipe))
        );
        assert_eq!(
            kernel.host_write(pipe, b"more"),
            Err(KernelError::PipeEndClosed(pipe))
        );
        kernel.host_close_read(pipe).unwrap();
        assert_eq!(
            kernel.host_close_read(pipe),
            Err(KernelError::PipeEndClosed(pipe))
        );
        // An end released to a process by spawn wiring behaves like a
        // closed end for the host.
        let stdout = kernel.pipe();
        let _p = kernel.spawn_fn(SpawnOptions::new("w").stdout(stdout), |_| {
            ThreadStep::Finished
        });
        assert_eq!(
            kernel.host_write(stdout, b"x"),
            Err(KernelError::PipeEndClosed(stdout))
        );
    }

    /// `host_read` mirrors `host_write`: once the host no longer holds
    /// the read end it drains nothing, whoever holds the bytes.
    #[test]
    fn host_read_needs_the_hosts_read_end() {
        let kernel = stock_kernel();
        let closed = kernel.pipe();
        kernel.host_write(closed, b"left").unwrap();
        kernel.host_close_read(closed).unwrap();
        assert_eq!(
            kernel.host_read(closed),
            Err(KernelError::PipeEndClosed(closed))
        );
        // Wired as a process's stdin, the bytes are the process's.
        let stdin = kernel.pipe();
        kernel.host_write(stdin, b"theirs").unwrap();
        let _p = kernel.spawn_fn(SpawnOptions::new("r").stdin(stdin), |_| {
            ThreadStep::Finished
        });
        assert_eq!(
            kernel.host_read(stdin),
            Err(KernelError::PipeEndClosed(stdin))
        );
        assert_eq!(kernel.pipe_len(stdin), Ok(6));
        // The host still reads a process's stdout.
        let stdout = kernel.pipe();
        let w = kernel.spawn_fn(SpawnOptions::new("w").stdout(stdout), |_| {
            ThreadStep::Finished
        });
        kernel.feed_pipe(w.pid(), stdout, b"out").unwrap();
        assert_eq!(kernel.host_read(stdout), Ok(b"out".to_vec()));
    }

    /// A zero-byte read returns at once: no bytes from a pipe with
    /// writers, buffered bytes or not, and EOF from an empty pipe with
    /// none. It never parks.
    #[test]
    fn zero_byte_reads_return_at_once() {
        let kernel = stock_kernel();
        let empty = kernel.pipe();
        let full = kernel.pipe();
        kernel.host_write(full, b"kept").unwrap();
        let done = kernel.pipe();
        kernel.host_close_write(done).unwrap();
        let k = kernel.clone();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        kernel.spawn_fn(SpawnOptions::new("zero"), move |ctx| {
            for pipe in [empty, full, done] {
                s.borrow_mut()
                    .push(k.read_pipe(ctx, pipe, 0).expect("live pipe"));
            }
            ThreadStep::Finished
        });
        kernel.run().unwrap();
        assert_eq!(
            *seen.borrow(),
            [
                PipeRead::Data(Vec::new()),
                PipeRead::Data(Vec::new()),
                PipeRead::Eof
            ]
        );
        assert_eq!(kernel.host_read(full), Ok(b"kept".to_vec()));
    }

    /// A zero-byte write returns `Wrote(0)` at once, on a full pipe
    /// too. It never parks.
    #[test]
    fn zero_byte_writes_never_park() {
        let kernel = stock_kernel();
        let open = kernel.pipe();
        let full = kernel.pipe_with_capacity(4);
        kernel.host_write(full, b"full").unwrap();
        let k = kernel.clone();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        kernel.spawn_fn(SpawnOptions::new("zero"), move |ctx| {
            for pipe in [open, full] {
                s.borrow_mut()
                    .push(k.write_pipe(ctx, pipe, &[]).expect("live pipe"));
            }
            ThreadStep::Finished
        });
        kernel.run().unwrap();
        assert_eq!(*seen.borrow(), [PipeWrite::Wrote(0), PipeWrite::Wrote(0)]);
        assert_eq!(kernel.host_read(full), Ok(b"full".to_vec()));
    }

    #[test]
    fn host_close_read_breaks_the_pipe_for_writers() {
        let kernel = stock_kernel();
        let pipe = kernel.pipe();
        let k = kernel.clone();
        let seen = Rc::new(RefCell::new(None));
        let s = seen.clone();
        kernel.spawn_fn(SpawnOptions::new("writer").stdout(pipe), move |ctx| match k
            .write_pipe(ctx, pipe, b"x")
            .expect("live pipe")
        {
            PipeWrite::Broken => {
                *s.borrow_mut() = Some(PipeWrite::Broken);
                ThreadStep::Finished
            }
            _ => ThreadStep::Yielded,
        });
        kernel.host_close_read(pipe).unwrap();
        kernel.run().unwrap();
        assert_eq!(*seen.borrow(), Some(PipeWrite::Broken));
    }

    #[test]
    fn signalling_an_exited_process_errors() {
        let kernel = stock_kernel();
        let p = kernel.spawn_fn(SpawnOptions::new("short"), |_| ThreadStep::Finished);
        kernel.run().unwrap();
        assert_eq!(
            kernel.kill(p.pid(), Signal::Term),
            Err(KernelError::AlreadyExited(p.pid()))
        );
        assert_eq!(
            p.kill(Signal::Kill),
            Err(KernelError::AlreadyExited(p.pid()))
        );
        assert_eq!(
            kernel.exit(p.pid(), 1),
            Err(KernelError::AlreadyExited(p.pid()))
        );
        // The recorded status is untouched.
        assert_eq!(p.status(), Some(ExitStatus::Exited(0)));
    }

    #[test]
    fn waitpid_unknown_and_already_reaped_error() {
        let kernel = stock_kernel();
        let child = kernel.spawn_fn(SpawnOptions::new("child"), |_| ThreadStep::Finished);
        let child_pid = child.pid();
        kernel.run_until_exit(child_pid).unwrap();

        let k = kernel.clone();
        let seen: Rc<RefCell<Vec<Result<(), KernelError>>>> = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        kernel.spawn_fn(SpawnOptions::new("parent"), move |ctx| {
            s.borrow_mut().push(k.waitpid(ctx, Pid(99)).map(|_| ()));
            s.borrow_mut().push(k.waitpid(ctx, child_pid).map(|_| ()));
            s.borrow_mut().push(k.waitpid(ctx, child_pid).map(|_| ()));
            ThreadStep::Finished
        });
        kernel.run().unwrap();
        let seen = seen.borrow();
        assert_eq!(seen[0], Err(KernelError::UnknownPid(Pid(99))));
        assert_eq!(seen[1], Ok(()), "first waitpid reaps");
        assert_eq!(seen[2], Err(KernelError::AlreadyReaped(child_pid)));
    }

    #[test]
    fn guest_pipe_ops_on_unknown_pipe_error() {
        let kernel = stock_kernel();
        let k = kernel.clone();
        let forged = PipeId(77);
        let seen = Rc::new(RefCell::new(None));
        let s = seen.clone();
        kernel.spawn_fn(SpawnOptions::new("g"), move |ctx| {
            let r = k.read_pipe(ctx, forged, 8);
            let w = k.write_pipe(ctx, forged, b"x");
            *s.borrow_mut() = Some((r, w));
            ThreadStep::Finished
        });
        kernel.run().unwrap();
        let (r, w) = seen.borrow().clone().unwrap();
        assert_eq!(r, Err(KernelError::UnknownPipe(forged)));
        assert_eq!(w, Err(KernelError::UnknownPipe(forged)));
    }

    #[test]
    fn try_spawn_rejects_unknown_pipe_wiring() {
        let kernel = stock_kernel();
        let bogus = PipeId(42);
        let err = kernel
            .try_spawn(
                SpawnOptions::new("w").stdin(bogus),
                Box::new(crate::FnThread::new(|_| ThreadStep::Finished)),
            )
            .unwrap_err();
        assert_eq!(err, KernelError::UnknownPipe(bogus));
        // No pid was burned and no process row appeared.
        assert!(kernel.process_table().is_empty());
        let ok = kernel.spawn_fn(SpawnOptions::new("first"), |_| ThreadStep::Finished);
        assert_eq!(ok.pid(), Pid(1));
    }

    #[test]
    fn build_on_attaches_builder_configuration() {
        use doppio_jsengine::{Browser, EngineBuilder};
        let kernel = Kernel::new();
        let engine = EngineBuilder::new(Browser::Firefox)
            .rng_seed(9)
            .histograms(true)
            .build_on(&kernel);
        assert_eq!(engine.browser(), Browser::Firefox);
        // The kernel hosts exactly the engine the builder configured:
        // browser, histograms and seed all reached it.
        let hosted = kernel.engine();
        assert_eq!(hosted.browser(), Browser::Firefox);
        assert!(hosted.metrics().histograms_enabled());
        let same_seed = EngineBuilder::new(Browser::Firefox).rng_seed(9).build();
        assert_eq!(hosted.random_u64(), same_seed.random_u64());
    }
}
