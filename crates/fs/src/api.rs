//! The unified file system API (§5.1): an emulation of Node JS's `fs`
//! module, plus the `process` working-directory support.
//!
//! "fs is a light JavaScript wrapper around Unix file system calls,
//! like open and stat. As a result, most languages' file system APIs
//! map cleanly onto its functionality." The frontend:
//!
//! * normalizes and resolves paths against the process working
//!   directory (the `process` module emulation),
//! * owns the descriptor table — descriptors are *objects*, not bare
//!   integers, "a natural design decision for an object-oriented
//!   language" that lets backends share the core file logic,
//! * implements the redundant API surface (`readFile`, `writeFile`,
//!   `appendFile`, `exists`) in terms of the nine core backend methods,
//! * and implements NFS-style **sync-on-close**: reads and writes hit
//!   an in-memory image loaded at `open`; the image is flushed to the
//!   backend when the descriptor closes.
//!
//! Every operation is asynchronous (callback-based): "our emulated fs
//! module only guarantees the availability of the asynchronous
//! interface for any given backend". Synchronous source-language
//! semantics are obtained by pairing this module with
//! `doppio_core::ThreadContext::block_on` (§4.2).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use doppio_faults::{backoff_delay_ns, RETRY_ATTEMPTS};
use doppio_jsengine::{Cost, Engine};
use doppio_trace::{cat, ArgValue, Counter, MetricsRegistry};

use crate::backend::{deliver, FsCallback, OpenFlags, SharedBackend, Stat};
use crate::error::{Errno, FsError, FsResult};
use crate::path;

/// A file descriptor handle. Cloneable; all clones refer to the same
/// open file object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fd(Rc<FdId>);

#[derive(Debug, PartialEq, Eq, Hash)]
struct FdId(u32);

struct OpenFile {
    path: String,
    flags: OpenFlags,
    data: Vec<u8>,
    pos: usize,
    dirty: bool,
}

/// The frontend's operation counters (Figure 6 reports these workload
/// characteristics: "3185 file system operations, touches 1560 unique
/// files, reads over 10.5 megabytes..."), registered on the engine's
/// shared registry as `fs.ops`, `fs.bytes_read`, `fs.bytes_written`,
/// `fs.opens`, `fs.closes`, `fs.flushes` (sync-on-close flushes that
/// wrote data) and `fs.retries` (backend operations re-issued after a
/// transient failure). Every file system on one engine counts into the
/// same cells. The handles are resolved once at construction (see
/// `EngineCounters` in the jsengine for the pattern).
struct FsCounters {
    ops: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    opens: Counter,
    closes: Counter,
    flushes: Counter,
    retries: Counter,
}

impl FsCounters {
    fn new(reg: &MetricsRegistry) -> FsCounters {
        FsCounters {
            ops: reg.counter("fs.ops"),
            bytes_read: reg.counter("fs.bytes_read"),
            bytes_written: reg.counter("fs.bytes_written"),
            opens: reg.counter("fs.opens"),
            closes: reg.counter("fs.closes"),
            flushes: reg.counter("fs.flushes"),
            retries: reg.counter("fs.retries"),
        }
    }
}

struct FsInner {
    engine: Engine,
    backend: SharedBackend,
    files: HashMap<u32, OpenFile>,
    next_fd: u32,
    cwd: String,
    counters: FsCounters,
    retry: bool,
}

/// The file system frontend. Cheaply cloneable handle.
#[derive(Clone)]
pub struct FileSystem {
    inner: Rc<RefCell<FsInner>>,
}

/// Latency of a frontend-only operation (descriptor reads/writes hit
/// the in-memory image, so they complete on the next event-loop turn).
const FRONTEND_LATENCY_NS: u64 = 2_000;

/// Wrap an operation callback in a trace span: the span covers the
/// whole asynchronous operation, from the frontend call to callback
/// delivery, tagged with the backend name, success, and a byte count
/// for data-moving operations. The same span duration feeds the
/// `fs.op_ns` latency histogram when histograms are on. When both
/// tracing and histograms are off the callback is returned untouched
/// (no allocation, no clock reads).
fn trace_op<T: 'static>(
    engine: &Engine,
    name: &'static str,
    backend: &'static str,
    bytes_of: impl Fn(&FsResult<T>) -> u64 + 'static,
    cb: FsCallback<T>,
) -> FsCallback<T> {
    let tracer_on = engine.tracer().enabled();
    if !tracer_on && !engine.metrics().histograms_enabled() {
        return cb;
    }
    let tracer = engine.tracer().clone();
    let start = engine.now_ns();
    Box::new(move |e: &Engine, r: FsResult<T>| {
        let dur = e.now_ns().saturating_sub(start);
        let hist = e.metrics().histogram("fs.op_ns");
        hist.record(dur);
        if tracer_on {
            let bytes = bytes_of(&r);
            let mut args = vec![
                ("backend", ArgValue::from(backend)),
                ("ok", ArgValue::Bool(r.is_ok())),
            ];
            if bytes > 0 {
                args.push(("bytes", ArgValue::U64(bytes)));
            }
            tracer.complete(cat::FS, name, start, dur, 0, args);
        }
        cb(e, r);
    })
}

/// [`trace_op`] for operations that move no payload bytes.
fn trace_op_plain<T: 'static>(
    engine: &Engine,
    name: &'static str,
    backend: &'static str,
    cb: FsCallback<T>,
) -> FsCallback<T> {
    trace_op(engine, name, backend, |_| 0, cb)
}

/// A backend operation that can be re-issued for each retry attempt.
type RetryableOp<T> = Rc<dyn Fn(&Engine, FsCallback<T>)>;

/// Issue attempt number `attempt` (0-based) of a backend operation.
/// A transient failure with attempts remaining schedules the next try
/// after a seeded backoff delay (jitter drawn from the engine's
/// deterministic stream); anything else — success, a permanent error,
/// or budget exhaustion — flows to `cb` unchanged.
fn retry_attempt<T: 'static>(
    fs: FileSystem,
    op: &'static str,
    run: RetryableOp<T>,
    attempt: u32,
    engine: &Engine,
    cb: FsCallback<T>,
) {
    let run2 = run.clone();
    let fs2 = fs.clone();
    run(
        engine,
        Box::new(move |e, r| match r {
            Err(err) if err.errno.is_transient() && attempt + 1 < RETRY_ATTEMPTS => {
                let delay = backoff_delay_ns(attempt, e.random_u64());
                fs2.inner.borrow().counters.retries.inc();
                let tracer = e.tracer();
                if tracer.enabled() {
                    tracer.instant(
                        cat::FAULT,
                        "fs_retry",
                        e.now_ns(),
                        0,
                        vec![
                            ("op", ArgValue::from(op)),
                            ("errno", ArgValue::from(err.errno.code())),
                            ("attempt", ArgValue::U64(u64::from(attempt + 1))),
                            ("delay_ns", ArgValue::U64(delay)),
                        ],
                    );
                }
                e.complete_async_after(delay, move |e2| {
                    retry_attempt(fs2, op, run2, attempt + 1, e2, cb)
                });
            }
            other => cb(e, other),
        }),
    );
}

impl FileSystem {
    /// Create a file system over `backend` with working directory `/`.
    pub fn new(engine: &Engine, backend: SharedBackend) -> FileSystem {
        let counters = FsCounters::new(engine.metrics());
        FileSystem {
            inner: Rc::new(RefCell::new(FsInner {
                engine: engine.clone(),
                backend,
                files: HashMap::new(),
                next_fd: 3, // 0-2 notionally stdin/stdout/stderr
                cwd: "/".to_string(),
                counters,
                retry: false,
            })),
        }
    }

    /// Retry transient backend failures (`EIO`, `ENOSPC`), making up
    /// to [`RETRY_ATTEMPTS`] attempts spaced by the seeded
    /// [`backoff_delay_ns`] schedule. Off (the default) surfaces every
    /// backend error directly. Each re-issued attempt bumps the
    /// `fs.retries` counter and emits a `fault`-category `fs_retry`
    /// trace instant.
    pub fn set_retry(&self, on: bool) {
        self.inner.borrow_mut().retry = on;
    }

    /// The backend serving this file system.
    pub fn backend(&self) -> SharedBackend {
        self.inner.borrow().backend.clone()
    }

    // ---- process module: working directory ----

    /// The current working directory (`process.cwd()`).
    pub fn cwd(&self) -> String {
        self.inner.borrow().cwd.clone()
    }

    /// Change the working directory (`process.chdir`). Lexical only —
    /// existence is not checked, as in Doppio's minimal process
    /// emulation.
    pub fn chdir(&self, dir: &str) {
        let mut inner = self.inner.borrow_mut();
        inner.cwd = path::resolve(&inner.cwd, dir);
    }

    /// Resolve a possibly-relative path against the cwd.
    pub fn resolve(&self, p: &str) -> String {
        path::resolve(&self.inner.borrow().cwd, p)
    }

    fn begin_op(&self) -> (Engine, SharedBackend) {
        let inner = self.inner.borrow();
        inner.counters.ops.inc();
        inner.engine.charge(Cost::FsCall);
        (inner.engine.clone(), inner.backend.clone())
    }

    /// Run a (re-issuable) backend operation, retrying it if retry is
    /// on.
    fn run_op<T: 'static>(
        &self,
        engine: &Engine,
        op: &'static str,
        run: RetryableOp<T>,
        cb: FsCallback<T>,
    ) {
        let retry = self.inner.borrow().retry;
        if retry {
            retry_attempt(self.clone(), op, run, 0, engine, cb);
        } else {
            run(engine, cb);
        }
    }

    // ---- core operations ----

    /// `fs.stat`.
    pub fn stat(&self, p: &str, cb: impl FnOnce(&Engine, FsResult<Stat>) + 'static) {
        let (engine, backend) = self.begin_op();
        let cb = trace_op_plain(&engine, "stat", backend.name(), Box::new(cb));
        let path = self.resolve(p);
        let run: RetryableOp<Stat> = Rc::new(move |e, cb| backend.stat(e, &path, cb));
        self.run_op(&engine, "stat", run, cb);
    }

    /// `fs.exists`.
    pub fn exists(&self, p: &str, cb: impl FnOnce(&Engine, bool) + 'static) {
        self.stat(p, move |e, r| cb(e, r.is_ok()));
    }

    /// `fs.open`: opens `p` with Node-style `flags` ("r", "w", "a+"...),
    /// loading the file image into memory.
    pub fn open(&self, p: &str, flags: &str, cb: impl FnOnce(&Engine, FsResult<Fd>) + 'static) {
        let (engine, backend) = self.begin_op();
        let cb = trace_op_plain(&engine, "open", backend.name(), Box::new(cb));
        let parsed = match OpenFlags::parse(flags) {
            Ok(f) => f,
            Err(e) => {
                deliver(&engine, FRONTEND_LATENCY_NS, cb, Err(e));
                return;
            }
        };
        let resolved = self.resolve(p);
        let resolved_for_call = resolved.clone();
        let fs = self.clone();
        let run: RetryableOp<Vec<u8>> =
            Rc::new(move |e, cb| backend.open(e, &resolved_for_call, parsed, cb));
        self.run_op(
            &engine,
            "open",
            run,
            Box::new(move |e, result| match result {
                Err(err) => cb(e, Err(err)),
                Ok(data) => {
                    let mut inner = fs.inner.borrow_mut();
                    let id = inner.next_fd;
                    inner.next_fd += 1;
                    inner.counters.opens.inc();
                    let pos = if parsed.append { data.len() } else { 0 };
                    inner.files.insert(
                        id,
                        OpenFile {
                            path: resolved,
                            flags: parsed,
                            data,
                            pos,
                            dirty: false,
                        },
                    );
                    drop(inner);
                    cb(e, Ok(Fd(Rc::new(FdId(id)))));
                }
            }),
        );
    }

    fn with_file<T>(
        &self,
        fd: &Fd,
        f: impl FnOnce(&mut OpenFile, &FsCounters) -> FsResult<T>,
    ) -> FsResult<T> {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        match inner.files.get_mut(&fd.0 .0) {
            None => Err(FsError::new(Errno::Ebadf, format!("fd {}", fd.0 .0))),
            Some(file) => f(file, &inner.counters),
        }
    }

    /// `fs.read`: up to `len` bytes from the descriptor's position.
    /// Empty result means end-of-file.
    pub fn read(&self, fd: &Fd, len: usize, cb: impl FnOnce(&Engine, FsResult<Vec<u8>>) + 'static) {
        let (engine, backend) = self.begin_op();
        let cb = trace_op(
            &engine,
            "read",
            backend.name(),
            |r: &FsResult<Vec<u8>>| r.as_ref().map(|c| c.len() as u64).unwrap_or(0),
            Box::new(cb),
        );
        let result = self.with_file(fd, |file, counters| {
            if !file.flags.read {
                return Err(FsError::new(Errno::Eacces, &file.path)
                    .with_detail("descriptor not open for reading"));
            }
            let end = (file.pos + len).min(file.data.len());
            let chunk = file.data[file.pos..end].to_vec();
            file.pos = end;
            counters.bytes_read.add(chunk.len() as u64);
            Ok(chunk)
        });
        if let Ok(chunk) = &result {
            engine.charge_n(Cost::TypedArrayByte, chunk.len() as u64);
        }
        deliver(&engine, FRONTEND_LATENCY_NS, cb, result);
    }

    /// `fs.read` at an explicit position (positional read; does not
    /// move the descriptor position).
    pub fn pread(
        &self,
        fd: &Fd,
        pos: usize,
        len: usize,
        cb: impl FnOnce(&Engine, FsResult<Vec<u8>>) + 'static,
    ) {
        let (engine, backend) = self.begin_op();
        let cb = trace_op(
            &engine,
            "pread",
            backend.name(),
            |r: &FsResult<Vec<u8>>| r.as_ref().map(|c| c.len() as u64).unwrap_or(0),
            Box::new(cb),
        );
        let result = self.with_file(fd, |file, counters| {
            if !file.flags.read {
                return Err(FsError::new(Errno::Eacces, &file.path));
            }
            let start = pos.min(file.data.len());
            let end = (start + len).min(file.data.len());
            counters.bytes_read.add((end - start) as u64);
            Ok(file.data[start..end].to_vec())
        });
        deliver(&engine, FRONTEND_LATENCY_NS, Box::new(cb), result);
    }

    /// `fs.write`: append/overwrite at the descriptor position,
    /// returning bytes written. The image is flushed on close.
    pub fn write(&self, fd: &Fd, data: &[u8], cb: impl FnOnce(&Engine, FsResult<usize>) + 'static) {
        let (engine, backend) = self.begin_op();
        let cb = trace_op(
            &engine,
            "write",
            backend.name(),
            |r: &FsResult<usize>| r.as_ref().map(|n| *n as u64).unwrap_or(0),
            Box::new(cb),
        );
        engine.charge_n(Cost::TypedArrayByte, data.len() as u64);
        let data = data.to_vec();
        let result = self.with_file(fd, |file, counters| {
            if !file.flags.write {
                return Err(FsError::new(Errno::Eacces, &file.path)
                    .with_detail("descriptor not open for writing"));
            }
            if file.flags.append {
                file.pos = file.data.len();
            }
            let end = file.pos + data.len();
            if end > file.data.len() {
                file.data.resize(end, 0);
            }
            file.data[file.pos..end].copy_from_slice(&data);
            file.pos = end;
            file.dirty = true;
            counters.bytes_written.add(data.len() as u64);
            Ok(data.len())
        });
        deliver(&engine, FRONTEND_LATENCY_NS, Box::new(cb), result);
    }

    /// `fs.fstat`: metadata of the open descriptor's in-memory image.
    pub fn fstat(&self, fd: &Fd, cb: impl FnOnce(&Engine, FsResult<Stat>) + 'static) {
        let (engine, _) = self.begin_op();
        let result = self.with_file(fd, |file, _| {
            Ok(Stat {
                kind: crate::backend::FileKind::File,
                size: file.data.len(),
                mtime_ns: 0,
            })
        });
        deliver(&engine, FRONTEND_LATENCY_NS, Box::new(cb), result);
    }

    /// Reposition the descriptor (absolute). Returns the new position.
    pub fn seek(&self, fd: &Fd, pos: usize, cb: impl FnOnce(&Engine, FsResult<usize>) + 'static) {
        let (engine, _) = self.begin_op();
        let result = self.with_file(fd, |file, _| {
            file.pos = pos.min(file.data.len());
            Ok(file.pos)
        });
        deliver(&engine, FRONTEND_LATENCY_NS, Box::new(cb), result);
    }

    /// `fs.ftruncate`.
    pub fn ftruncate(&self, fd: &Fd, len: usize, cb: impl FnOnce(&Engine, FsResult<()>) + 'static) {
        let (engine, _) = self.begin_op();
        let result = self.with_file(fd, |file, _| {
            if !file.flags.write {
                return Err(FsError::new(Errno::Eacces, &file.path));
            }
            file.data.resize(len, 0);
            file.pos = file.pos.min(len);
            file.dirty = true;
            Ok(())
        });
        deliver(&engine, FRONTEND_LATENCY_NS, Box::new(cb), result);
    }

    /// `fs.close`: flush the image if dirty (sync-on-close), then
    /// release the descriptor.
    pub fn close(&self, fd: &Fd, cb: impl FnOnce(&Engine, FsResult<()>) + 'static) {
        let (engine, backend) = self.begin_op();
        let cb = trace_op_plain(&engine, "close", backend.name(), Box::new(cb));
        let removed = {
            let mut inner = self.inner.borrow_mut();
            inner.counters.closes.inc();
            inner.files.remove(&fd.0 .0)
        };
        let Some(file) = removed else {
            deliver(
                &engine,
                FRONTEND_LATENCY_NS,
                Box::new(cb),
                Err(FsError::new(Errno::Ebadf, format!("fd {}", fd.0 .0))),
            );
            return;
        };
        let fs = self.clone();
        let path = file.path.clone();
        if file.dirty {
            fs.inner.borrow().counters.flushes.inc();
            let backend2 = backend.clone();
            let path2 = path.clone();
            let data = file.data;
            // Re-issuable flush: whole-blob sync is idempotent, so a
            // retried attempt just writes the same image again.
            let run: RetryableOp<()> =
                Rc::new(move |e, cb| backend.sync(e, &path, data.clone(), cb));
            fs.clone().run_op(
                &engine,
                "sync",
                run,
                Box::new(move |e, r| match r {
                    Err(err) => cb(e, Err(err)),
                    Ok(()) => backend2.close(e, &path2, Box::new(cb)),
                }),
            );
        } else {
            backend.close(&engine, &path, Box::new(cb));
        }
    }

    /// `fs.rename`.
    pub fn rename(&self, from: &str, to: &str, cb: impl FnOnce(&Engine, FsResult<()>) + 'static) {
        let (engine, backend) = self.begin_op();
        let cb = trace_op_plain(&engine, "rename", backend.name(), Box::new(cb));
        let (from, to) = (self.resolve(from), self.resolve(to));
        let run: RetryableOp<()> = Rc::new(move |e, cb| backend.rename(e, &from, &to, cb));
        self.run_op(&engine, "rename", run, cb);
    }

    /// `fs.unlink`.
    pub fn unlink(&self, p: &str, cb: impl FnOnce(&Engine, FsResult<()>) + 'static) {
        let (engine, backend) = self.begin_op();
        let cb = trace_op_plain(&engine, "unlink", backend.name(), Box::new(cb));
        let path = self.resolve(p);
        let run: RetryableOp<()> = Rc::new(move |e, cb| backend.unlink(e, &path, cb));
        self.run_op(&engine, "unlink", run, cb);
    }

    /// `fs.mkdir` (parent must exist, as in Node).
    pub fn mkdir(&self, p: &str, cb: impl FnOnce(&Engine, FsResult<()>) + 'static) {
        let (engine, backend) = self.begin_op();
        let cb = trace_op_plain(&engine, "mkdir", backend.name(), Box::new(cb));
        let path = self.resolve(p);
        let run: RetryableOp<()> = Rc::new(move |e, cb| backend.mkdir(e, &path, cb));
        self.run_op(&engine, "mkdir", run, cb);
    }

    /// `fs.rmdir`.
    pub fn rmdir(&self, p: &str, cb: impl FnOnce(&Engine, FsResult<()>) + 'static) {
        let (engine, backend) = self.begin_op();
        let cb = trace_op_plain(&engine, "rmdir", backend.name(), Box::new(cb));
        let path = self.resolve(p);
        let run: RetryableOp<()> = Rc::new(move |e, cb| backend.rmdir(e, &path, cb));
        self.run_op(&engine, "rmdir", run, cb);
    }

    /// `fs.readdir`.
    pub fn readdir(&self, p: &str, cb: impl FnOnce(&Engine, FsResult<Vec<String>>) + 'static) {
        let (engine, backend) = self.begin_op();
        let cb = trace_op_plain(&engine, "readdir", backend.name(), Box::new(cb));
        let path = self.resolve(p);
        let run: RetryableOp<Vec<String>> = Rc::new(move |e, cb| backend.readdir(e, &path, cb));
        self.run_op(&engine, "readdir", run, cb);
    }

    /// `fs.utimes` (optional backend operation).
    pub fn utimes(&self, p: &str, mtime_ns: u64, cb: impl FnOnce(&Engine, FsResult<()>) + 'static) {
        let (engine, backend) = self.begin_op();
        let cb = trace_op_plain(&engine, "utimes", backend.name(), Box::new(cb));
        let path = self.resolve(p);
        let run: RetryableOp<()> = Rc::new(move |e, cb| backend.utimes(e, &path, mtime_ns, cb));
        self.run_op(&engine, "utimes", run, cb);
    }

    // ---- redundant API surface, mapped onto the core ops ----

    /// `fs.readFile`: open + read-everything + close.
    pub fn read_file(&self, p: &str, cb: impl FnOnce(&Engine, FsResult<Vec<u8>>) + 'static) {
        let fs = self.clone();
        self.open(p, "r", move |_, r| match r {
            Err(e2) => {
                // Deliver on the next turn to stay uniformly async.
                let cb: FsCallback<Vec<u8>> = Box::new(cb);
                cb_err(&fs, cb, e2);
            }
            Ok(fd) => {
                let fs2 = fs.clone();
                fs.fstat(&fd.clone(), move |_, st| {
                    let size = st.map(|s| s.size).unwrap_or(0);
                    let fd2 = fd.clone();
                    let fs3 = fs2.clone();
                    fs2.pread(&fd, 0, size, move |_, data| {
                        fs3.close(&fd2, move |e, _| cb(e, data));
                    });
                });
            }
        });
    }

    /// `fs.writeFile`: open("w") + write + close.
    pub fn write_file(
        &self,
        p: &str,
        data: Vec<u8>,
        cb: impl FnOnce(&Engine, FsResult<()>) + 'static,
    ) {
        self.spool_file(p, "w", data, cb);
    }

    /// `fs.appendFile`: open("a") + write + close.
    pub fn append_file(
        &self,
        p: &str,
        data: Vec<u8>,
        cb: impl FnOnce(&Engine, FsResult<()>) + 'static,
    ) {
        self.spool_file(p, "a", data, cb);
    }

    fn spool_file(
        &self,
        p: &str,
        flags: &str,
        data: Vec<u8>,
        cb: impl FnOnce(&Engine, FsResult<()>) + 'static,
    ) {
        let fs = self.clone();
        self.open(p, flags, move |_, r| match r {
            Err(e2) => cb_err(&fs, Box::new(cb), e2),
            Ok(fd) => {
                let fs2 = fs.clone();
                let fd2 = fd.clone();
                fs.write(&fd, &data, move |_, w| {
                    let werr = w.err();
                    fs2.close(&fd2, move |e, c| {
                        cb(e, if let Some(we) = werr { Err(we) } else { c })
                    });
                });
            }
        });
    }
}

fn cb_err<T: 'static>(fs: &FileSystem, cb: FsCallback<T>, err: FsError) {
    let engine = fs.inner.borrow().engine.clone();
    deliver(&engine, FRONTEND_LATENCY_NS, cb, Err(err));
}

impl std::fmt::Debug for FileSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("FileSystem")
            .field("backend", &inner.backend.name())
            .field("cwd", &inner.cwd)
            .field("open_files", &inner.files.len())
            .finish()
    }
}
