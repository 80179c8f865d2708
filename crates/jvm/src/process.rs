//! Running DoppioJVM instances as kernel processes (the Browsix-style
//! layer over §6.8's embedding API).
//!
//! [`spawn_jvm`] is the `exec` analog: it builds a [`Jvm`] on the
//! kernel's shared engine and runtime, wires the [`SpawnOptions`]
//! stdin/stdout pipes to the JVM's standard streams, installs the
//! JVM's exit probe (so `System.exit`, normal completion, and uncaught
//! exceptions all become the process's
//! [`ExitStatus`](doppio_core::kernel::ExitStatus)), and spawns the
//! main thread as a process. Several JVMs spawned this way interleave
//! deterministically on one virtual clock, and blocked pipe I/O in any
//! of them participates in the kernel's cross-process deadlock blame.

use doppio_core::kernel::{Kernel, PipeRead, Process, SpawnOptions};
use doppio_core::{FnThread, ThreadStep};
use doppio_fs::FileSystem;

use crate::jvm::Jvm;

/// How many bytes the stdin pump moves from the pipe into the JVM's
/// stdin buffer per slice.
const STDIN_CHUNK: usize = 4096;

/// Spawn `main_class.main(argv)` as a kernel process running on its
/// own JVM instance over `fs`.
///
/// * `opts.stdin`: a pump thread (tagged with the process's pid)
///   drains the pipe into the JVM's standard input, propagating EOF
///   when every write end closes.
/// * `opts.stdout`: everything the program prints is fed into the
///   pipe as it is produced; pipe backpressure parks the process at
///   slice boundaries.
/// * The process's exit status comes from the JVM's own lifecycle:
///   `System.exit(n)` → `exit(n)`, all threads finished → `exit(0)`,
///   uncaught exception on the main thread → `exit(1)`.
///
/// Returns the process handle and the `Jvm` (for classpath tweaks,
/// native registration, state inspection). The `Jvm` may be dropped;
/// the process keeps running.
pub fn spawn_jvm(
    kernel: &Kernel,
    opts: SpawnOptions,
    fs: FileSystem,
    main_class: &str,
) -> (Process, Jvm) {
    let engine = kernel.engine();
    let jvm = Jvm::with_runtime(&engine, fs, kernel.runtime());
    let argv: Vec<&str> = opts.argv.iter().map(|s| s.as_str()).collect();
    let main = jvm.prepare_main(main_class, &argv);
    let (stdin, stdout) = (opts.stdin, opts.stdout);
    let process = kernel.spawn(opts, main);
    let pid = process.pid();

    if let Some(pipe) = stdout {
        let k = kernel.clone();
        // The pipe outlives the process (ends are released, pipes are
        // never deleted); if it somehow vanished the output is simply
        // dropped, matching a write to a fully-closed pipe.
        jvm.set_stdout_hook(move |s| {
            let _ = k.feed_pipe(pid, pipe, s.as_bytes());
        });
    }
    if let Some(pipe) = stdin {
        let k = kernel.clone();
        let handle = jvm.stdin_handle();
        let pump = FnThread::new(move |ctx| match k.read_pipe(ctx, pipe, STDIN_CHUNK) {
            Ok(PipeRead::Data(d)) => {
                handle.push(&d);
                ThreadStep::Yielded
            }
            Ok(PipeRead::WouldBlock) => ThreadStep::Blocked,
            Ok(PipeRead::Eof) | Err(_) => {
                handle.close();
                ThreadStep::Finished
            }
        });
        kernel.spawn_aux(pid, "stdin-pump", Box::new(pump));
    }
    kernel
        .set_exit_probe(pid, jvm.exit_probe())
        .expect("freshly spawned pid");
    (process, jvm)
}
